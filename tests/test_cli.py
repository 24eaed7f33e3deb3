import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

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
    "classes_object": (1, "config error: config field 'classes'", ["train", "--config", "c.json"],
                       {"datasets": ["foreign.csv"], "epochs": 1, "classes": {"a": 1}}),
    "datasets_number": (1, "config error: config field 'datasets'", ["train", "--config", "c.json"],
                        {"datasets": 7, "epochs": 1}),
    "dataset_row_not_whole_counts": (1, "config error: bad dataset bad.csv: line 2:",
                                     ["eval", "--config", "c.json"],
                                     {"checkpoint": "model.ckpt", "datasets": ["bad.csv"]}),
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
                    seed=0, epochs_trained=0, class_labels=["spacs", "spats"])
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
    (tmp_path / "bad.csv").write_text(f"{CSV_HEADER}\n0.33,0.67,0,0,0,0,0,0.67,spacs,20,1,6,1.3,spacs,1\n")
    for variable, value in EXIT_ENV.get(case, {}).items():
        monkeypatch.setenv(variable, value)

    got, stdout, stderr = run_cli(*argv, configs={"c.json": config} if config else None)
    assert got == code
    assert stderr.startswith(prefix)
    if code == 0:
        assert stderr == ""
        assert json.loads(stdout)["command"] == argv[0]
    else:
        assert stdout == ""
        assert "\n" not in stderr.rstrip("\n")


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
# means some output byte changed
PINNED_PIPELINE_SHA256 = "b30c4d9f301b8f22709b970c7fc0e00c1a9319cd7351d39ec5dc1752729b433e"


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
    assert first == PINNED_PIPELINE_SHA256
