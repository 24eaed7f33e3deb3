import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blas_platform import blas_platform
from photonvae import cli
from photonvae.sampling import CSV_HEADER
from photonvae.vae import NetworkSpec, VAEClassifier, save_checkpoint

CLASSES = [{"kind": "spacs", "mean_param": 1.3}, {"kind": "spats", "mean_param": 1.3}]
DETECTOR = {"n_detectors": 6, "efficiency": 1.0}


# --- exit codes -------------------------------------------------------------

GEN = {"name": "data", "seed": 1, "bin_size": 20, "bins_per_class": 10,
       "classes": CLASSES, "detector": DETECTOR}
# labels the prepared checkpoint (spacs, spats) does not know
FOREIGN = {**GEN, "name": "foreign",
           "classes": [{"kind": "coherent", "mean_param": 1.3}, {"kind": "thermal", "mean_param": 1.3}]}
SWEEP = {"checkpoint": "model.ckpt", "classes": CLASSES, "detector": DETECTOR, "bin_size": 20,
         "bins_per_class": 10}

EXIT_CASES = {
    "success": (0, "", ["gen", "--config", "c.json"], GEN),
    "no_config": (1, "config error: --config", ["gen"], None),
    "unknown_command": (1, "usage error:", ["frobnicate", "--config", "c.json"], GEN),
    "finetune_without_base": (1, "usage error: finetune requires --base-checkpoint",
                              ["finetune", "--config", "c.json"], {"datasets": ["foreign.csv"]}),
    "sweep_without_n_detectors": (1, "config error:", ["sweep", "--config", "c.json"],
                                  {**SWEEP, "detector": {"efficiency": 1.0}}),
    "zero_bin_size": (1, "config error:", ["gen", "--config", "c.json"], {**GEN, "bin_size": 0}),
    "string_class_entry": (1, "config error:", ["gen", "--config", "c.json"],
                           {**GEN, "classes": ["spacs"]}),
    "gen_label_with_comma": (1, "config error: class label 'spacs,a' holds a comma",
                             ["gen", "--config", "c.json"],
                             {**GEN, "classes": [{**CLASSES[0], "label": "spacs,a"}, CLASSES[1]]}),
    "non_numeric_epochs": (1, "config error:", ["train", "--config", "c.json"],
                           {"datasets": ["foreign.csv"], "epochs": "many"}),
    "zero_epochs": (1, "config error: config field 'epochs'", ["train", "--config", "c.json"],
                    {"datasets": ["foreign.csv"], "epochs": 0}),
    "fractional_epochs": (1, "config error: config field 'epochs'", ["train", "--config", "c.json"],
                          {"datasets": ["foreign.csv"], "epochs": 2.7}),
    "zero_batch_size": (1, "config error: config field 'batch_size'", ["train", "--config", "c.json"],
                        {"datasets": ["foreign.csv"], "epochs": 1, "batch_size": 0}),
    "one_batch_size": (1, "config error: config field 'batch_size'", ["train", "--config", "c.json"],
                       {"datasets": ["foreign.csv"], "epochs": 1, "batch_size": 1}),
    "negative_learning_rate": (1, "config error: config field 'learning_rate'",
                               ["train", "--config", "c.json"],
                               {"datasets": ["foreign.csv"], "epochs": 1, "learning_rate": -0.001}),
    "zero_learning_rate": (1, "config error: config field 'learning_rate'",
                           ["train", "--config", "c.json"],
                           {"datasets": ["foreign.csv"], "epochs": 1, "learning_rate": 0}),
    "nan_learning_rate": (1, "config error: config field 'learning_rate'",
                          ["train", "--config", "c.json"],
                          {"datasets": ["foreign.csv"], "epochs": 1, "learning_rate": float("nan")}),
    "diverging_learning_rate": (1, "config error: training diverged at learning_rate 1e+308:",
                                ["train", "--config", "c.json"],
                                {"datasets": ["foreign.csv"], "epochs": 1, "learning_rate": 1e308}),
    "boolean_learning_rate": (1, "config error: config field 'learning_rate'",
                              ["train", "--config", "c.json"],
                              {"datasets": ["foreign.csv"], "epochs": 1, "learning_rate": True}),
    "boolean_epochs": (1, "config error: config field 'epochs'", ["train", "--config", "c.json"],
                       {"datasets": ["foreign.csv"], "epochs": True}),
    "classes_object": (1, "config error: config field 'classes'", ["train", "--config", "c.json"],
                       {"datasets": ["foreign.csv"], "epochs": 1, "classes": {"a": 1}}),
    "datasets_number": (1, "config error: config field 'datasets'", ["train", "--config", "c.json"],
                        {"datasets": 7, "epochs": 1}),
    "dataset_row_not_whole_counts": (1, "config error: bad dataset bad.csv: line 2:",
                                     ["eval", "--config", "c.json"],
                                     {"checkpoint": "model.ckpt", "datasets": ["bad.csv"]}),
    "dataset_old_header": (1, "config error: bad dataset old.csv: unexpected dataset header 'p0,p1,",
                           ["eval", "--config", "c.json"], {"checkpoint": "model.ckpt", "datasets": ["old.csv"]}),
    "eval_dataset_listed_twice": (1, "config error: datasets repeats the value 'pair.csv'",
                                  ["eval", "--config", "c.json"],
                                  {"checkpoint": "model.ckpt", "datasets": ["pair.csv", "pair.csv"]}),
    "eval_two_datasets_one_file_name": (0, "", ["eval", "--config", "c.json"],
                                        {"checkpoint": "model.ckpt",
                                         "datasets": ["pair.csv", "copy/pair.csv"]}),
    "train_dataset_listed_twice": (1, "config error: datasets repeats the value 'foreign.csv'",
                                   ["train", "--config", "c.json"],
                                   {"datasets": ["foreign.csv", "foreign.csv"], "epochs": 1}),
    "sweep_repeated_bin_size": (1, "config error: bin_sizes repeats the value 20",
                                ["sweep", "--config", "c.json"], {**SWEEP, "bin_sizes": [20, 30, 20]}),
    "sweep_repeated_eta_flag": (1, "config error: etas repeats the value 0.8",
                                ["sweep", "--config", "c.json", "--eta", "0.8,0.8"], SWEEP),
    # each cell is seeded by its efficiency to the thousandth
    "sweep_etas_to_the_thousandth": (1, "config error: etas repeats the value 0.8 as 0.8004, to the thousandth",
                                     ["sweep", "--config", "c.json"], {**SWEEP, "etas": [0.8, 0.8004]}),
    "sweep_eta_flag_to_the_thousandth": (1, "config error: etas repeats the value 0.8 as 0.8004, to the "
                                            "thousandth",
                                         ["sweep", "--config", "c.json", "--eta", "0.8,0.8004"], SWEEP),
    "train_label_with_comma": (1, "config error: config field 'classes': class label 'x,y' holds a comma",
                               ["train", "--config", "c.json"],
                               {"datasets": ["foreign.csv"], "epochs": 1,
                                "classes": ["coherent", "thermal", "x,y"]}),
    "train_repeated_label": (1, "config error: config field 'classes': class label 'thermal' repeats",
                             ["train", "--config", "c.json"],
                             {"datasets": ["foreign.csv"], "epochs": 1,
                              "classes": ["coherent", "thermal", "thermal"]}),
    "train_one_class": (1, "config error: training needs at least two classes, the class order is ['spacs']",
                        ["train", "--config", "c.json"], {"datasets": ["one.csv"], "epochs": 1}),
    "gen_fractional_n_detectors": (1, "config error: config field 'n_detectors'",
                                   ["gen", "--config", "c.json"],
                                   {**GEN, "detector": {"n_detectors": 4.7, "efficiency": 1.0}}),
    "gen_boolean_n_detectors": (1, "config error: config field 'n_detectors'", ["gen", "--config", "c.json"],
                                {**GEN, "detector": {"n_detectors": True, "efficiency": 1.0}}),
    "sweep_fractional_n_detectors": (1, "config error: config field 'n_detectors'",
                                     ["sweep", "--config", "c.json"],
                                     {**SWEEP, "detector": {"n_detectors": 4.7, "efficiency": 1.0}}),
    "gen_string_n_detectors": (1, "config error: config field 'n_detectors' has a bad value '4': "
                               "expected a number, got a string", ["gen", "--config", "c.json"],
                               {**GEN, "detector": {"n_detectors": "4", "efficiency": 1.0}}),
    "gen_string_efficiency": (1, "config error: config field 'efficiency' has a bad value '0.9': "
                              "expected a number, got a string", ["gen", "--config", "c.json"],
                              {**GEN, "detector": {"n_detectors": 6, "efficiency": "0.9"}}),
    "gen_boolean_efficiency": (1, "config error: config field 'efficiency'", ["gen", "--config", "c.json"],
                               {**GEN, "detector": {"n_detectors": 6, "efficiency": True}}),
    "gen_boolean_mean_param": (1, "config error: config field 'mean_param'", ["gen", "--config", "c.json"],
                               {**GEN, "classes": [{"kind": "spacs", "mean_param": True}, CLASSES[1]]}),
    "gen_boolean_mix_ratio": (1, "config error: config field 'mix_ratio'", ["gen", "--config", "c.json"],
                              {**GEN, "classes": [{**CLASSES[0], "mix_ratio": True}, CLASSES[1]]}),
    "gen_list_name": (1, "config error: config field 'name' has a bad value ['a']: expected a string",
                      ["gen", "--config", "c.json"], {**GEN, "name": ["a"]}),
    "gen_boolean_name": (1, "config error: config field 'name'", ["gen", "--config", "c.json"],
                         {**GEN, "name": True}),
    "gen_list_label": (1, "config error: config field 'label' has a bad value ['x']: expected a string",
                       ["gen", "--config", "c.json"],
                       {**GEN, "classes": [{**CLASSES[0], "label": ["x"]}, CLASSES[1]]}),
    "train_number_dataset": (1, "config error: config field 'dataset'", ["train", "--config", "c.json"],
                             {"dataset": 7, "epochs": 1}),
    "train_number_in_datasets": (1, "config error: config field 'datasets'",
                                 ["train", "--config", "c.json"],
                                 {"datasets": ["foreign.csv", 7], "epochs": 1}),
    "train_number_in_classes": (1, "config error: config field 'classes'", ["train", "--config", "c.json"],
                                {"datasets": ["foreign.csv"], "epochs": 1, "classes": ["coherent", 7]}),
    "train_list_features": (1, "config error: config field 'features'", ["train", "--config", "c.json"],
                            {"datasets": ["foreign.csv"], "epochs": 1, "features": ["probs"]}),
    "eval_list_checkpoint": (1, "config error: config field 'checkpoint'", ["eval", "--config", "c.json"],
                             {"checkpoint": ["model.ckpt"], "datasets": ["foreign.csv"]}),
    "export_latent_number_dataset": (1, "config error: config field 'dataset'",
                                     ["export-latent", "--config", "c.json"],
                                     {"checkpoint": "model.ckpt", "dataset": 7}),
    "efficiency_above_one": (2, "physics validation error:", ["gen", "--config", "c.json"],
                             {**GEN, "detector": {"n_detectors": 6, "efficiency": 1.5}}),
    "bad_checkpoint_magic": (3, "checkpoint error:", ["eval", "--config", "c.json"],
                             {"checkpoint": "bad.ckpt", "datasets": ["foreign.csv"]}),
    "misfit_checkpoint_header": (3, "checkpoint error:", ["eval", "--config", "c.json"],
                                 {"checkpoint": "misfit.ckpt", "datasets": ["foreign.csv"]}),
    "checkpoint_without_class_labels": (3, "checkpoint error:", ["eval", "--config", "c.json"],
                                        {"checkpoint": "unlabelled.ckpt", "datasets": ["foreign.csv"]}),
    "checkpoint_seed_not_an_integer": (3, "checkpoint error:", ["eval", "--config", "c.json"],
                                       {"checkpoint": "text_seed.ckpt", "datasets": ["foreign.csv"]}),
    "checkpoint_label_with_comma": (3, "checkpoint error: comma_label.ckpt: header field "
                                    "'class_labels': class label 'sp,ts' holds a comma",
                                    ["eval", "--config", "c.json"],
                                    {"checkpoint": "comma_label.ckpt", "datasets": ["foreign.csv"]}),
    "eval_checkpoint_fewer_labels": (3, "checkpoint error: one_label.ckpt: header field 'class_labels' "
                                     "lists 1 labels, the network has 2 classes",
                                     ["eval", "--config", "c.json"],
                                     {"checkpoint": "one_label.ckpt", "datasets": ["one.csv"]}),
    "finetune_checkpoint_repeated_label": (3, "checkpoint error: repeated_label.ckpt: header field "
                                           "'class_labels': class label 'spacs' repeats",
                                           ["finetune", "--config", "c.json",
                                            "--base-checkpoint", "repeated_label.ckpt"],
                                           {"datasets": ["foreign.csv"], "epochs": 1}),
    "seed_flag_negative": (1, "config error: --seed must be a whole number >= 0",
                           ["gen", "--config", "c.json", "--seed", "-1"], GEN),
    "seed_env_negative": (1, "config error: PHOTONVAE_SEED must be a whole number >= 0",
                          ["gen", "--config", "c.json"], GEN),
    "seed_config_fraction": (1, "config error: config field 'seed' must be a whole number >= 0",
                             ["gen", "--config", "c.json"], {**GEN, "seed": 2.7}),
    "seed_config_bool": (1, "config error: config field 'seed' must be a whole number >= 0",
                         ["gen", "--config", "c.json"], {**GEN, "seed": True}),
    "eval_foreign_labels": (4, "dataset/network mismatch:", ["eval", "--config", "c.json"],
                            {"checkpoint": "model.ckpt", "datasets": ["foreign.csv"]}),
    "export_latent_foreign_labels": (4, "dataset/network mismatch:",
                                     ["export-latent", "--config", "c.json"],
                                     {"checkpoint": "model.ckpt", "dataset": "foreign.csv"}),
    "finetune_foreign_labels": (4, "dataset/network mismatch:",
                                ["finetune", "--config", "c.json", "--base-checkpoint", "model.ckpt"],
                                {"datasets": ["foreign.csv"], "epochs": 1}),
    "eval_missing_checkpoint": (1, "config error: cannot read checkpoint missing.ckpt:",
                                ["eval", "--config", "c.json"],
                                {"checkpoint": "missing.ckpt", "datasets": ["pair.csv"]}),
    "eval_directory_checkpoint": (1, "config error: cannot read checkpoint copy:",
                                  ["eval", "--config", "c.json"], {"checkpoint": "copy", "datasets": ["pair.csv"]}),
    "export_latent_missing_checkpoint": (1, "config error: cannot read checkpoint missing.ckpt:",
                                         ["export-latent", "--config", "c.json"],
                                         {"checkpoint": "missing.ckpt", "dataset": "pair.csv"}),
    "sweep_missing_checkpoint": (1, "config error: cannot read checkpoint missing.ckpt:",
                                 ["sweep", "--config", "c.json"], {**SWEEP, "checkpoint": "missing.ckpt"}),
    "finetune_missing_base": (1, "config error: cannot read checkpoint nope.ckpt:",
                              ["finetune", "--config", "c.json", "--base-checkpoint", "nope.ckpt"],
                              {"datasets": ["foreign.csv"], "epochs": 1}),
    "eval_dataset_path_with_comma": (1, "config error: dataset path 'a,b.csv' holds a comma or a line break",
                                     ["eval", "--config", "c.json"],
                                     {"checkpoint": "model.ckpt", "datasets": ["a,b.csv"]}),
    "train_number_first_in_classes": (1, "config error: config field 'classes'", ["train", "--config", "c.json"],
                                      {"datasets": ["foreign.csv"], "epochs": 1, "classes": [7, "spacs"]}),
    "train_numbers_as_classes": (1, "config error: config field 'classes'", ["train", "--config", "c.json"],
                                 {"datasets": ["foreign.csv"], "epochs": 1, "classes": [7, 8]}),
    "finetune_number_features": (1, "config error: config field 'features'",
                                 ["finetune", "--config", "c.json", "--base-checkpoint", "model.ckpt"],
                                 {"datasets": ["foreign.csv"], "epochs": 1, "features": 7}),
    "finetune_other_classes": (4, "dataset/network mismatch: checkpoint classes are ['spacs', 'spats'], "
                                  "config says ['x', 'y', 'z']",
                               ["finetune", "--config", "c.json", "--base-checkpoint", "model.ckpt"],
                               {"datasets": ["pair.csv"], "epochs": 1, "classes": ["x", "y", "z"]}),
    "finetune_same_classes": (0, "", ["finetune", "--config", "c.json", "--base-checkpoint", "model.ckpt"],
                              {"datasets": ["one.csv"], "epochs": 1, "classes": ["spacs", "spats"]}),
    "finetune_gen_classes": (0, "", ["finetune", "--config", "c.json", "--base-checkpoint", "model.ckpt"],
                             {"datasets": ["one.csv"], "epochs": 1, "classes": CLASSES}),
    "finetune_unknown_features": (1, "config error: features must be 'probs' or 'probs+nbar', got 'bogus'",
                                  ["finetune", "--config", "c.json", "--base-checkpoint", "model.ckpt"],
                                  {"datasets": ["foreign.csv"], "epochs": 1, "features": "bogus"}),
}
# environment each case runs under, set after the shared setup
EXIT_ENV = {"seed_env_negative": {cli.SEED_ENV_VAR: "-1"}}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_exit_code_contract(case, run_cli, tmp_path, monkeypatch):
    code, prefix, argv, config = EXIT_CASES[case]
    assert run_cli("gen", "--config", "foreign.json", configs={"foreign.json": FOREIGN})[0] == 0
    model = VAEClassifier(NetworkSpec(input_dim=5, num_classes=2), seed=0)
    save_checkpoint(tmp_path / "model.ckpt", model, seed=0, epochs_trained=0,
                    class_labels=["spacs", "spats"])
    (tmp_path / "bad.ckpt").write_bytes(b"NOPE" + bytes(60))
    # four-class parameters under a header that announces two classes
    save_checkpoint(tmp_path / "misfit.ckpt", VAEClassifier(NetworkSpec(num_classes=4), seed=0),
                    seed=0, epochs_trained=0, class_labels=["spacs", "spats", "c", "d"])
    misfit = (tmp_path / "misfit.ckpt").read_bytes()
    (tmp_path / "misfit.ckpt").write_bytes(misfit.replace(b'"num_classes": 4', b'"num_classes": 2'))
    # the same header length, without its class_labels field
    labelled = (tmp_path / "model.ckpt").read_bytes()
    (tmp_path / "unlabelled.ckpt").write_bytes(labelled.replace(b'"class_labels"', b'"class_labelx"'))
    # the writer refuses a text seed, so swap one into the header at the same length
    save_checkpoint(tmp_path / "text_seed.ckpt", model, seed=10, epochs_trained=0,
                    class_labels=["spacs", "spats"])
    seeded = (tmp_path / "text_seed.ckpt").read_bytes()
    (tmp_path / "text_seed.ckpt").write_bytes(seeded.replace(b'"seed": 10', b'"seed":"x"'))
    # the writer refuses these labels, so swap them into the header at the same length
    for bad, labels in (("comma_label", b'["spacs", "sp,ts"]'), ("repeated_label", b'["spacs", "spacs"]'),
                        ("one_label", b'["spacs"]         ')):
        (tmp_path / f"{bad}.ckpt").write_bytes(labelled.replace(b'["spacs", "spats"]', labels))
    (tmp_path / "bad.csv").write_text(f"{CSV_HEADER}\nspacs,6.6,13.4,0,0,0,0,0\n")
    # the header and a whole row of the 15-column format that carried fractions
    (tmp_path / "old.csv").write_text("p0,p1,p2,p3,p4,p5,p6,nbar_obs,label,bin_size,eta,n_detectors,"
                                      "nbar_the,source_kind,mix_ratio\n"
                                      "0.35,0.65,0,0,0,0,0,0.65,spacs,20,1,6,1.3,spacs,1\n")
    pair = f"{CSV_HEADER}\nspacs,7,13,0,0,0,0,0\nspats,6,14,0,0,0,0,0\n"
    (tmp_path / "pair.csv").write_text(pair)
    (tmp_path / "a,b.csv").write_text(pair)
    (tmp_path / "one.csv").write_text(pair.splitlines(keepends=True)[0] + pair.splitlines(keepends=True)[1] * 20)
    (tmp_path / "copy").mkdir()
    (tmp_path / "copy" / "pair.csv").write_text(pair)
    for variable, value in EXIT_ENV.get(case, {}).items():
        monkeypatch.setenv(variable, value)
    if config:
        (tmp_path / "c.json").write_text(json.dumps(config))
    files = set(tmp_path.rglob("*"))

    got, stdout, stderr = run_cli(*argv)
    assert got == code
    assert stderr.startswith(prefix)
    if code == 0:
        assert stderr == ""
        assert json.loads(stdout)["command"] == argv[0]
    else:
        assert stdout == ""
        assert "\n" not in stderr.rstrip("\n")
        assert set(tmp_path.rglob("*")) == files  # nothing written


def test_eval_scores_each_bin_size_of_a_mixed_dataset(run_cli, tmp_path):
    configs = {
        "b20.json": {**GEN, "name": "b20"},
        "b50.json": {**GEN, "name": "b50", "seed": 2, "bin_size": 50},
        "eval.json": {"name": "eval", "checkpoint": "model.ckpt", "datasets": ["mixed.csv"]},
    }
    assert run_cli("gen", "--config", "b20.json", configs=configs)[0] == 0
    assert run_cli("gen", "--config", "b50.json")[0] == 0
    b20, b50 = ((tmp_path / f"{n}.csv").read_text().splitlines() for n in ("b20", "b50"))
    (tmp_path / "mixed.csv").write_text("\n".join(b20 + b50[1:]) + "\n")
    model = VAEClassifier(NetworkSpec(input_dim=5, num_classes=2), seed=0)
    save_checkpoint(tmp_path / "model.ckpt", model, seed=0, epochs_trained=0,
                    class_labels=["spacs", "spats"])

    code, stdout, stderr = run_cli("eval", "--config", "eval.json")
    assert code == 0, stderr
    cells = json.loads(stdout)["cells"]
    assert [(cell["bin_size"], cell["rows"]) for cell in cells] == [(20, 20), (50, 20)]
    report = (tmp_path / "eval_report.csv").read_text().splitlines()
    assert [line.split(",")[1:3] for line in report] == [["rows", "bin_size"], ["20", "20"], ["20", "50"]]
    confusion = (tmp_path / "eval_confusion.csv").read_text().splitlines()[1:]
    assert sorted({line.split(",")[0] for line in confusion}) == ["mixed_bin20", "mixed_bin50"]


def test_eval_names_datasets_of_one_file_name_by_their_paths(run_cli, tmp_path):
    configs = {
        "a.json": {**GEN, "name": "pair"},
        "b.json": {**GEN, "name": "pair", "seed": 2, "bins_per_class": 15},
        "eval.json": {"name": "eval", "checkpoint": "model.ckpt",
                      "datasets": ["pair.csv", "copy/pair.csv", "b20.csv"]},
        "b20.json": {**GEN, "name": "b20", "seed": 3},
    }
    assert run_cli("gen", "--config", "a.json", configs=configs)[0] == 0
    assert run_cli("gen", "--config", "b.json", "--out", "copy")[0] == 0
    assert run_cli("gen", "--config", "b20.json")[0] == 0
    save_checkpoint(tmp_path / "model.ckpt", VAEClassifier(NetworkSpec(), seed=3), seed=3,
                    epochs_trained=0, class_labels=["spacs", "spats"])

    code, stdout, stderr = run_cli("eval", "--config", "eval.json")
    assert code == 0, stderr
    cells = json.loads(stdout)["cells"]
    assert [(cell["dataset"], cell["rows"]) for cell in cells] == [
        ("pair.csv", 20), ("copy/pair.csv", 30), ("b20.csv", 20)]
    written = _written_cells(tmp_path, "eval")
    assert [int(matrix.sum()) for _, matrix in written] == [20, 30, 20]
    confusion = (tmp_path / "eval_confusion.csv").read_text().splitlines()[1:]
    assert list(dict.fromkeys(line.split(",")[0] for line in confusion)) == [
        "pair", "copy/pair", "b20"]


def test_gen_train_eval_leave_numpy_ma_unimported(tmp_path):
    """np.unique without its return_* flags imports numpy.ma on its first
    call, about 30 ms; the CLI's own commands never need it."""
    configs = {
        "gen.json": GEN,
        "train.json": {"name": "model", "datasets": ["data.csv"], "epochs": 1, "batch_size": 8},
        "eval.json": {"name": "eval", "checkpoint": "model.ckpt", "datasets": ["data.csv"]},
    }
    for filename, payload in configs.items():
        (tmp_path / filename).write_text(json.dumps(payload))
    script = (
        "import sys\n"
        "from photonvae import cli\n"
        "for command in ('gen', 'train', 'eval'):\n"
        "    assert cli.main([command, '--config', command + '.json']) == 0, command\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def _written_cells(directory, name):
    """(accuracy field, confusion matrix) of each cell of ``{name}_report.csv``,
    paired in order with the cells of ``{name}_confusion.csv``."""
    report = [line.split(",") for line in (directory / f"{name}_report.csv").read_text().splitlines()]
    column = report[0].index("accuracy")
    matrices = {}
    for line in (directory / f"{name}_confusion.csv").read_text().splitlines()[1:]:
        cell, _, *counts = line.split(",")
        matrices.setdefault(cell, []).append([int(count) for count in counts])
    assert len(matrices) == len(report) - 1
    return [(row[column], np.array(matrix)) for row, matrix in zip(report[1:], matrices.values())]


def test_report_accuracies_match_their_confusions(run_cli, tmp_path):
    configs = {
        "b20.json": {**GEN, "name": "b20"},
        "b50.json": {**GEN, "name": "b50", "seed": 2, "bin_size": 50},
        "eval.json": {"name": "eval", "checkpoint": "model.ckpt", "datasets": ["b20.csv", "b50.csv"]},
        "sweep.json": {**SWEEP, "name": "sweep", "bin_sizes": [10, 30], "etas": [0.5, 1.0]},
    }
    assert run_cli("gen", "--config", "b20.json", configs=configs)[0] == 0
    assert run_cli("gen", "--config", "b50.json")[0] == 0
    save_checkpoint(tmp_path / "model.ckpt", VAEClassifier(NetworkSpec(), seed=3), seed=3,
                    epochs_trained=0, class_labels=["spacs", "spats"])
    for command, n_cells in (("eval", 2), ("sweep", 4)):
        code, stdout, stderr = run_cli(command, "--config", f"{command}.json")
        assert code == 0, stderr
        cells = json.loads(stdout)["cells"]
        written = _written_cells(tmp_path, command)
        assert len(cells) == len(written) == n_cells
        for cell, (field, matrix) in zip(cells, written):
            accuracy = np.trace(matrix) / matrix.sum()
            assert cell["accuracy"] == accuracy
            assert field == "{:.9g}".format(accuracy)


# --- byte-stable outputs ----------------------------------------------------

PIPELINE_DETECTOR = {"n_detectors": 4, "efficiency": 0.9}
PIPELINE_CONFIGS = {
    "data.json": {"name": "data", "seed": 1, "bin_size": 20, "bins_per_class": 60,
                  "classes": CLASSES, "detector": PIPELINE_DETECTOR},
    "small.json": {"name": "small", "seed": 2, "bin_size": 10, "bins_per_class": 40,
                   "classes": CLASSES, "detector": PIPELINE_DETECTOR},
    "train.json": {"name": "model", "datasets": ["data/data.csv"], "epochs": 4,
                   "warmup_epochs": 2, "batch_size": 32, "features": "probs+nbar"},
    "tune.json": {"name": "tuned", "datasets": ["data/small.csv"], "epochs": 3, "batch_size": 32},
    "eval.json": {"name": "eval", "checkpoint": "runs/tuned.ckpt",
                  "datasets": ["data/data.csv", "data/small.csv"]},
    "latent.json": {"name": "latent", "checkpoint": "runs/model.ckpt", "dataset": "data/small.csv"},
    "sweep.json": {"name": "sweep", "checkpoint": "runs/tuned.ckpt", "classes": CLASSES,
                   "detector": PIPELINE_DETECTOR, "bin_size": 10, "bins_per_class": 30},
}
PIPELINE = (
    ("gen", "--config", "data.json", "--out", "data"),
    ("gen", "--config", "small.json", "--out", "data"),
    ("train", "--config", "train.json", "--out", "runs"),
    ("finetune", "--config", "tune.json", "--base-checkpoint", "runs/model.ckpt", "--out", "runs"),
    ("eval", "--config", "eval.json", "--out", "reports"),
    ("export-latent", "--config", "latent.json", "--out", "reports"),
    ("sweep", "--config", "sweep.json", "--out", "reports", "--bin-sizes", "10,20",
     "--eta", "0.8", "--seed", "5"),
)
# SHA-256 of every file the pipeline leaves and of its stdout; a new value
# means some output byte changed.  Taken with numpy 2.4.6 and its bundled
# OpenBLAS 0.3.31 on the SkylakeX kernel; another BLAS kernel rounds float32
# products differently
PINNED_PIPELINE_SHA256 = "31152cc1a1a165a36bc8496d1074b8ca294ac3188494a694a693b221c3dd654d"


def _pipeline_digest(run_cli, root: Path) -> str:
    stdout = []
    for k, argv in enumerate(PIPELINE):
        code, out, err = run_cli(*argv, configs=PIPELINE_CONFIGS if k == 0 else None, cwd=root)
        assert code == 0, err
        stdout.append(out)
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    for text in stdout:
        digest.update(text.encode())
    return digest.hexdigest()


def test_cli_outputs_are_byte_stable(run_cli, tmp_path):
    first = _pipeline_digest(run_cli, tmp_path / "a")
    assert _pipeline_digest(run_cli, tmp_path / "b") == first
    assert first == PINNED_PIPELINE_SHA256, blas_platform()


# eval, export-latent and sweep on 1,400 rows per dataset and cell, and eval
# on 2,600 more: more rows than one 512-row block, so inference runs in blocks
LARGE_CONFIGS = {
    "big.json": {"name": "big", "seed": 3, "bin_size": 20, "bins_per_class": 700,
                 "classes": CLASSES, "detector": PIPELINE_DETECTOR},
    "bigger.json": {"name": "bigger", "seed": 4, "bin_size": 10, "bins_per_class": 1300,
                    "classes": CLASSES, "detector": PIPELINE_DETECTOR},
    "train.json": {"name": "model", "datasets": ["data/big.csv"], "epochs": 2, "batch_size": 64,
                   "features": "probs+nbar"},
    "eval.json": {"name": "eval", "checkpoint": "runs/model.ckpt",
                  "datasets": ["data/big.csv", "data/bigger.csv"]},
    "latent.json": {"name": "latent", "checkpoint": "runs/model.ckpt", "dataset": "data/big.csv"},
    "sweep.json": {"name": "sweep", "checkpoint": "runs/model.ckpt", "classes": CLASSES,
                   "detector": PIPELINE_DETECTOR, "bin_sizes": [10, 20], "etas": [0.8],
                   "bins_per_class": 700},
}
LARGE_SETUP = (
    ("gen", "--config", "big.json", "--out", "data"),
    ("gen", "--config", "bigger.json", "--out", "data"),
    ("train", "--config", "train.json", "--out", "runs"),
)
LARGE_INFERENCE = (
    ("eval", "--config", "eval.json", "--out", "reports"),
    ("export-latent", "--config", "latent.json", "--out", "reports"),
    ("sweep", "--config", "sweep.json", "--out", "reports"),
)
# SHA-256 of every file the three inference commands write and of their stdout,
# taken with numpy 2.4.6 and its bundled OpenBLAS 0.3.31 on the SkylakeX kernel
PINNED_LARGE_SHA256 = "d3f8a5b1e19b8559526383eed322f2510751ac03edba810333f9d9115496ff44"


def test_inference_outputs_on_large_datasets_are_pinned(run_cli, tmp_path):
    for k, argv in enumerate(LARGE_SETUP):
        code, _, err = run_cli(*argv, configs=LARGE_CONFIGS if k == 0 else None)
        assert code == 0, err
    digest = hashlib.sha256()
    stdout = []
    for argv in LARGE_INFERENCE:
        code, out, err = run_cli(*argv)
        assert code == 0, err
        digest.update(out.encode())
        stdout.append(json.loads(out))
    for path in sorted((tmp_path / "reports").iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert [cell["rows"] for cell in stdout[0]["cells"]] == [1400, 2600]
    assert stdout[1]["rows"] == 1400
    assert digest.hexdigest() == PINNED_LARGE_SHA256, blas_platform()
