import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from blas_platform import blas_platform
from photonvae.detector import DetectorConfig, apply_click_model, chain_mean
from photonvae.distributions import SourceKind, SourceSpec, pmf_mean, source_pmf
from photonvae.sampling import DatasetMeta, feature_matrix, generate_dataset, label_vector, split_rows
from photonvae.vae import NetworkSpec, VAEClassifier, evaluate_model, train_model
from photonvae import vae, workflows
from photonvae.workflows import (
    TrainPlan,
    TrainStage,
    derived_seed,
    export_latent,
    invert_mean_param,
    invert_shared_intensity,
    lossless_sources,
    run_algorithm1,
    run_algorithm2,
    run_mixed_grid,
    write_confusion_csv,
    write_latent_csv,
    write_report_csv,
)


def tiny_plan(**overrides):
    base = dict(
        algorithm="lossless",
        stages=(TrainStage(40, 6), TrainStage(20, 3)),
        mean_param=1.3,
        eval_bin_sizes=(20, 40),
        bins_per_class=120,
        seed=11,
    )
    base.update(overrides)
    return TrainPlan(**base)


def test_plan_requires_stages():
    with pytest.raises(ValueError):
        TrainPlan(algorithm="lossless", stages=())


def _score_one_cell_twice():
    meta = DatasetMeta(lossless_sources(1.3), DetectorConfig(6, 1.0), 20, 10, 1)
    rows = generate_dataset(meta).rows
    report = workflows.EvalReport(class_labels=["spacs", "spats"])
    model = VAEClassifier(NetworkSpec(), seed=0)
    report.score("bin20", model, rows, bin_size=20)
    report.score("bin20", model, rows, bin_size=20)


@pytest.mark.parametrize("refused, message", [
    (lambda: tiny_plan(train_etas=(0.6, 0.7, 0.6)), "train_etas repeats the value 0.6"),
    (lambda: tiny_plan(eval_etas=(0.8, 0.8)), "eval_etas repeats the value 0.8"),
    (lambda: tiny_plan(eval_nbar_obs=(1.2, 1.2)), "eval_nbar_obs repeats the value 1.2"),
    # the studies key cells and their seeds by the value to the thousandth
    (lambda: tiny_plan(eval_etas=(0.8, 0.8004)), "eval_etas repeats the value 0.8 as 0.8004"),
    (lambda: tiny_plan(eval_nbar_obs=(1.2, 1.2004)), "eval_nbar_obs repeats the value 1.2 as 1.2004"),
    (lambda: tiny_plan(eval_bin_sizes=(20, 20)), "eval_bin_sizes repeats the value 20"),
    (lambda: tiny_plan(mix_r_values=(0.5, 0.5)), "mix_r_values repeats the value 0.5"),
    (lambda: tiny_plan(mix_train_r_values=(0.0, 0.0)), "mix_train_r_values repeats the value 0.0"),
    (lambda: tiny_plan(stages=(TrainStage(40, 6), TrainStage(20, 3), TrainStage(20, 2))),
     "the fine-tune stages' bin_size repeats the value 20"),
    (_score_one_cell_twice, "evaluation cell 'bin20' is already scored"),
], ids=["train_etas", "eval_etas", "eval_nbar_obs", "eval_etas_to_the_thousandth",
        "eval_nbar_obs_to_the_thousandth", "eval_bin_sizes", "mix_r_values",
        "mix_train_r_values", "fine_tune_bin_size", "report_key"])
def test_a_repeated_cell_is_refused(refused, message):
    """Each value of a grid is one report row with one confusion matrix, so a
    repeat would report two rows for one matrix."""
    with pytest.raises(ValueError, match=re.escape(message)):
        refused()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "a", True], ids=["nan", "inf", "text", "bool"])
@pytest.mark.parametrize("field", ["train_etas", "eval_etas", "eval_nbar_obs", "eval_bin_sizes",
                                   "mix_r_values", "mix_train_r_values", "the fine-tune stages' bin_size"],
                         ids=lambda field: field.replace("the fine-tune stages' ", "stage_"))
def test_a_grid_value_that_cannot_key_a_cell_is_refused(field, value):
    """A cell and its seeds are keyed by round(value * 1000), so a grid value
    must be a number, not a bool, with a finite thousandth; the refusal names
    the field and the value."""
    with pytest.raises(ValueError, match=re.escape(f"{field} holds {value!r}, not a number")):
        if field.startswith("the fine-tune"):
            tiny_plan(stages=(TrainStage(40, 6), TrainStage(value, 3)))
        else:
            tiny_plan(**{field: (0.5, value)})


def test_a_nan_target_is_refused_before_training(monkeypatch):
    detector = DetectorConfig(4, 0.9)
    with pytest.raises(ValueError, match="target mean nan is not a number"):
        invert_mean_param(SourceKind.COHERENT, float("nan"), detector)
    with pytest.raises(ValueError, match=re.escape("observed-mean target (efficiency 0.9) nan is not a number")):
        invert_shared_intensity(float("nan"), detector)

    def refuse(*args, **kwargs):
        raise AssertionError("ran before the plan was refused")

    monkeypatch.setattr(workflows, "train_model", refuse)
    monkeypatch.setattr(workflows, "generate_dataset", refuse)
    with pytest.raises(ValueError, match="target mean nan is not a number"):
        run_mixed_grid(dataclasses.replace(mixed_plan(), target_nbar_obs=float("nan")))


def test_derived_seed_is_stable_and_keyed():
    assert derived_seed(7, 1, 2) == derived_seed(7, 1, 2)
    assert derived_seed(7, 1, 2) != derived_seed(7, 2, 1)
    assert derived_seed(7, 1) != derived_seed(8, 1)


def test_invert_mean_param_hits_the_chain_mean():
    detector = DetectorConfig(4, 0.9)
    param = invert_mean_param(SourceKind.THERMAL, 1.3, detector)
    pmf = source_pmf(SourceSpec(SourceKind.THERMAL, param))
    assert chain_mean(pmf, detector) == pytest.approx(1.3, abs=1e-6)


@pytest.mark.parametrize("kind", [SourceKind.SPACS, SourceKind.SPATS])
def test_invert_mean_param_rejects_target_below_single_photon_floor(kind):
    with pytest.raises(ValueError, match="single-photon floor"):
        invert_mean_param(kind, 0.3, DetectorConfig(4, 0.9))


def test_invert_mean_param_zero_target_for_classical_source():
    assert invert_mean_param(SourceKind.COHERENT, 0.0, DetectorConfig(6, 1.0)) == 0.0


@pytest.mark.parametrize("kind", [SourceKind.COHERENT, SourceKind.THERMAL])
def test_target_at_the_floor_returns_without_bisecting(kind, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return chain_mean(*args, **kwargs)

    monkeypatch.setattr(workflows, "chain_mean", counting)
    assert invert_mean_param(kind, 0.0, DetectorConfig(4, 0.9)) == 0.0
    assert 1 <= len(calls) <= 3


def test_invert_shared_intensity_floor():
    detector = DetectorConfig(4, 0.9)
    with pytest.raises(ValueError):
        invert_shared_intensity(0.5, detector)  # below the single-photon floor
    intensity = invert_shared_intensity(1.5, detector)
    mean = np.mean(
        [chain_mean(source_pmf(s), detector) for _, s in lossless_sources(intensity)]
    )
    assert mean == pytest.approx(1.5, abs=1e-6)


def test_no_inversion_walks_the_detector_chain(monkeypatch):
    def walk(*args):
        raise AssertionError("the detector chain was walked")

    monkeypatch.setattr("photonvae.detector._walk", walk)
    config = DetectorConfig(4, 0.7)
    assert chain_mean(source_pmf(SourceSpec(SourceKind.THERMAL, 2.0)), config) > 0.0
    assert invert_mean_param(SourceKind.COHERENT, 1.2, config) > 0.0
    assert invert_mean_param(SourceKind.THERMAL, 1.2, config) > 0.0
    assert invert_shared_intensity(1.2, config) > 0.0


def _walked_mean(pmf, config):
    return pmf_mean(apply_click_model(pmf, config))


# one detector clicks at most once, and a photon-added source's floor is already
# eta, so the shared-intensity inversion has targets only for N > 1
@pytest.mark.parametrize("n_detectors, eta, target, shared_target", [
    (1, 1.0, 0.6, None), (1, 0.5, 0.3, None), (4, 0.7, 1.2, 1.2), (4, 1.0, 2.5, 2.5),
    (6, 0.9, 1.3, 1.5), (6, 0.5, 0.8, 0.8),
])
def test_inversions_land_where_a_bisection_over_the_walked_mean_does(
        monkeypatch, n_detectors, eta, target, shared_target):
    config = DetectorConfig(n_detectors, eta)
    inversions = [
        lambda: invert_mean_param(SourceKind.COHERENT, target, config),
        lambda: invert_mean_param(SourceKind.THERMAL, target, config),
    ]
    if shared_target is not None:
        inversions.append(lambda: invert_shared_intensity(shared_target, config))
    closed = [invert() for invert in inversions]
    monkeypatch.setattr(workflows, "chain_mean", _walked_mean)
    walked = [invert() for invert in inversions]
    for got, want in zip(closed, walked):
        assert abs(got - want) <= 1e-13 * want, (got, want)


def test_a_fine_tune_stage_trains_a_copy_of_the_base_model(monkeypatch):
    starts = []

    def recording(model, *args, **kwargs):
        starts.append((model, model.get_state()))
        return train_model(model, *args, **kwargs)

    monkeypatch.setattr(workflows, "train_model", recording)
    result = run_algorithm1(tiny_plan())
    (base, _), (tuned, tuned_start) = starts
    assert base is result.models[0] and tuned is result.models[1]
    base_state, tuned_state = base.get_state(), tuned.get_state()
    for name, value in base_state.items():
        # the copy starts from the trained base model, and its training leaves that model alone
        np.testing.assert_array_equal(tuned_start[name], value)
    assert any(not np.array_equal(tuned_state[name], value) for name, value in base_state.items())


def test_export_latent_rows_and_shape():
    model = VAEClassifier(NetworkSpec(), seed=3)
    meta = DatasetMeta(
        sources=lossless_sources(1.3),
        detector=DetectorConfig(6, 1.0),
        bin_size=25,
        bins_per_class=12,
        seed=9,
    )
    rows = generate_dataset(meta).rows
    latents = export_latent(model, rows, ["spacs", "spats"])
    assert latents.shape == (len(rows), 4)
    assert np.all(np.isfinite(latents))
    assert set(np.unique(latents[:, 3])) == {0.0, 1.0}


def test_predictions_never_run_the_decoder_or_build_a_forward(monkeypatch):
    model = VAEClassifier(NetworkSpec(), seed=3)
    meta = DatasetMeta(lossless_sources(1.3), DetectorConfig(6, 1.0), 5, 600, seed=9)
    rows = generate_dataset(meta).rows  # 1,200 rows: two blocks
    x, y = workflows.model_inputs(model, rows, ["spacs", "spats"])

    def refuse(*args, **kwargs):
        raise AssertionError("ran")

    model.decoder.forward = refuse
    monkeypatch.setattr(vae, "Forward", refuse)
    with pytest.raises(AssertionError, match="ran"):
        model.forward(x)
    assert model.predict_proba(x).shape == (1200, 2)
    assert model.predict_class(x).shape == (1200,)
    assert evaluate_model(model, x, y)[1].sum() == 1200
    assert export_latent(model, rows, ["spacs", "spats"]).shape == (1200, 4)


def _assert_accuracies_match_confusions(report):
    """Every row's accuracy is the trace over the total of the confusion
    matrix scored with it; rows and matrices are stored in the same order."""
    assert len(report.rows) == len(report.confusions)
    for row, matrix in zip(report.rows, report.confusions.values()):
        assert row["accuracy"] == np.trace(matrix) / matrix.sum()


def test_run_algorithm1_structure_and_determinism():
    first = run_algorithm1(tiny_plan())
    second = run_algorithm1(tiny_plan())
    accuracies = {row["bin_size"]: row["accuracy"] for row in first.report.rows}
    assert set(accuracies) == {20, 40}
    assert accuracies == {row["bin_size"]: row["accuracy"] for row in second.report.rows}
    np.testing.assert_array_equal(first.report.latents, second.report.latents)
    assert len(first.models) == 2  # the base model and the one fine-tuned on bin 20
    assert {row["bin_size"] for row in first.report.rows} == {20, 40}
    for acc in accuracies.values():
        assert 0.0 <= acc <= 1.0
    _assert_accuracies_match_confusions(first.report)


def mixed_plan():
    return TrainPlan(
        algorithm="mixed_grid",
        stages=(TrainStage(25, 6),),
        n_detectors=4,
        efficiency=0.9,
        target_nbar_obs=1.3,
        mix_r_values=(0.0, 1.0),
        mix_train_r_values=(0.0, 0.5),
        bins_per_class=60,
        eval_bins_per_class=20,
        seed=13,
    )


def test_run_mixed_grid_structure():
    result = run_mixed_grid(mixed_plan())
    cells = {(row["r1"], row["r2"]) for row in result.report.rows}
    assert cells == {(a, b) for a in (0.0, 1.0) for b in (0.0, 1.0)}
    _assert_accuracies_match_confusions(result.report)
    confusion = result.report.confusions["r1_0_r2_0"]
    assert confusion.shape == (4, 4)
    assert confusion.sum() == 4 * 20


def lossy_plan(**overrides):
    base = dict(
        algorithm="lossy_nbar",
        stages=(TrainStage(20, 3),),
        mean_param=1.3,
        n_detectors=4,
        train_etas=(0.6, 0.9),
        eval_etas=(0.75,),
        eval_nbar_obs=(1.0,),
        bins_per_class=60,
        eval_bins_per_class=30,
        seed=17,
    )
    base.update(overrides)
    return TrainPlan(**base)


def test_run_algorithm2_structure_and_determinism():
    first = run_algorithm2(lossy_plan())
    second = run_algorithm2(lossy_plan())
    assert first.models[0].spec.input_dim == 6
    report = first.report
    cells = [(row["cell"], row["eta"]) for row in report.rows]
    assert cells[:3] == [("held_out", 0.6), ("held_out", 0.9), ("eta_sweep", 0.75)]
    assert [cell for cell, _ in cells[3:]] == ["nbar_sweep"]
    assert cells[3][1] in (0.6, 0.9)  # a target is realized at a training efficiency
    assert list(report.confusions) == ["train_eta0.6", "train_eta0.9", "eta_sweep_750", "nbar_sweep_1000"]
    # 60 bins per class leave 6 test rows per class, each training efficiency
    n_rows = [2 * 6, 2 * 6, 2 * 30, 2 * 30]
    assert [int(m.sum()) for m in report.confusions.values()] == n_rows
    assert report.rows == second.report.rows
    for key, matrix in report.confusions.items():
        np.testing.assert_array_equal(matrix, second.report.confusions[key])
    _assert_accuracies_match_confusions(report)


# SHA-256 of each study's report rows (JSON, sorted keys), confusion matrices
# and latents; a new value means some study output byte changed.  Taken with
# numpy 2.4.6 and its bundled OpenBLAS 0.3.31 on the SkylakeX kernel
PINNED_STUDY_SHA256 = {
    "lossless": "4e3a28c9f8f0570e796302e0695517387d6a68f6bf500dccfa62bb14b62a5bae",
    "lossless_two_fine_tunes": "b2fd82b3865e58c26f09a7f2fe435a8038b891d73e9fba09df9e9a79fbeef998",
    "lossy": "ff1583c790dc3c9a385393ac5038fb1b8b31e8b35073fc2ca27fdd7f0eb448ff",
    "mixed_grid": "4adb73907959b21afef25d64e1d1ee01c5b44ca4e516ca26087b13da87739808",
}


def _report_digest(report) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(report.rows, sort_keys=True).encode())
    for cell, matrix in report.confusions.items():
        digest.update(cell.encode())
        digest.update(np.ascontiguousarray(matrix, dtype="<i8").tobytes())
    if report.latents is not None:
        digest.update(np.ascontiguousarray(report.latents, dtype="<f8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("study", sorted(PINNED_STUDY_SHA256))
def test_study_outputs_are_pinned(study):
    run, plan = {
        "lossless": (run_algorithm1, tiny_plan),
        "lossless_two_fine_tunes": (run_algorithm1, lambda: tiny_plan(
            stages=(TrainStage(40, 6), TrainStage(20, 3), TrainStage(10, 3)),
            eval_bin_sizes=(10, 20, 40))),
        "lossy": (run_algorithm2, lossy_plan),
        "mixed_grid": (run_mixed_grid, mixed_plan),
    }[study]
    assert _report_digest(run(plan()).report) == PINNED_STUDY_SHA256[study], blas_platform()


@pytest.mark.parametrize("overrides, message", [
    (dict(train_etas=()), "at least one efficiency"),
    (dict(eval_nbar_obs=(0.5,)), "observed-mean target 0.5 below every training floor"),
], ids=["no_train_etas", "target_below_every_floor"])
def test_run_algorithm2_refuses_plans_it_cannot_run(overrides, message):
    with pytest.raises(ValueError, match=message):
        run_algorithm2(lossy_plan(**overrides))


@pytest.mark.parametrize("run, plan", [(run_algorithm2, lossy_plan), (run_mixed_grid, mixed_plan)],
                         ids=["lossy", "mixed_grid"])
@pytest.mark.parametrize("overrides, message", [
    (lambda stage: dict(stages=(stage, TrainStage(10, 2))), "stages lists 2"),
    (lambda stage: dict(eval_bin_sizes=(stage.bin_size,)), "eval_bin_sizes must be empty"),
], ids=["two_stages", "eval_bin_sizes"])
def test_pooled_studies_refuse_plan_fields_they_would_not_read(run, plan, overrides, message,
                                                               monkeypatch):
    def generate_nothing(meta):
        raise AssertionError("a dataset was generated before the plan was refused")

    monkeypatch.setattr(workflows, "generate_dataset", generate_nothing)
    base = plan()
    with pytest.raises(ValueError, match=message):
        run(dataclasses.replace(base, **overrides(base.stages[0])))


@pytest.mark.parametrize("run, plan, overrides, unread", [
    (run_algorithm1, tiny_plan, dict(train_etas=(0.5,), eval_etas=(0.6,), eval_nbar_obs=(1.2,),
                                     mix_r_values=(0.5,)), "train_etas"),
    (run_algorithm1, tiny_plan, dict(eval_bins_per_class=100, target_nbar_obs=2.0), "eval_bins_per_class"),
    (run_algorithm2, lossy_plan, dict(efficiency=0.3, target_nbar_obs=9.0, mix_r_values=(0.5,)),
     "efficiency"),
    (run_algorithm2, lossy_plan, dict(mix_train_r_values=(0.5,)), "mix_train_r_values"),
    (run_mixed_grid, mixed_plan, dict(mean_param=2.0, train_etas=(0.5,)), "mean_param"),
    (run_mixed_grid, mixed_plan, dict(eval_bin_sizes=(25,), eval_nbar_obs=(1.2,)), "eval_bin_sizes"),
], ids=["lossless_grids", "lossless_scalars", "lossy_scalars", "lossy_grid", "mixed_grid_scalar",
        "mixed_grid_grids"])
def test_studies_refuse_plan_fields_they_would_not_read(run, plan, overrides, unread, monkeypatch):
    """The refusal names the first field, in TrainPlan's order, that the
    study does not read and that differs from its default."""
    def generate_nothing(meta):
        raise AssertionError("a dataset was generated before the plan was refused")

    monkeypatch.setattr(workflows, "generate_dataset", generate_nothing)
    with pytest.raises(ValueError, match=f"^{unread} must be "):
        run(dataclasses.replace(plan(), **overrides))
    # an unread field left at its default is no refusal: the study goes on to generate
    at_default = {f.name: f.default for f in dataclasses.fields(TrainPlan) if f.name in overrides}
    with pytest.raises(AssertionError, match="a dataset was generated"):
        run(dataclasses.replace(plan(), **at_default))


@pytest.mark.parametrize("run, plan, algorithm", [
    (run_algorithm1, tiny_plan, "lossless"),
    (run_algorithm2, lossy_plan, "lossy_nbar"),
    (run_mixed_grid, mixed_plan, "mixed_grid"),
], ids=["lossless", "lossy", "mixed_grid"])
def test_studies_refuse_a_plan_made_for_another_study(run, plan, algorithm, monkeypatch):
    def generate_nothing(meta):
        raise AssertionError("a dataset was generated before the plan was refused")

    monkeypatch.setattr(workflows, "generate_dataset", generate_nothing)
    assert plan().algorithm == algorithm
    for other in ("lossless", "lossy_nbar", "mixed_grid", "lossy"):
        if other != algorithm:
            with pytest.raises(ValueError, match=f"TrainPlan.algorithm is '{other}'"):
                run(dataclasses.replace(plan(), algorithm=other))


def test_unreachable_observed_mean_target_is_refused_before_training(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ran before the plan was refused")

    monkeypatch.setattr(workflows, "train_model", refuse)
    monkeypatch.setattr(workflows, "generate_dataset", refuse)
    with pytest.raises(ValueError, match="observed-mean target .* 5.0 unreachable below intensity 80.0"):
        run_algorithm2(lossy_plan(eval_nbar_obs=(5.0,)))


def _cold_start_accuracy(seed: int, bin_size: int, labelled_share: float = 1.0) -> float:
    """Test accuracy of a 55-epoch from-scratch model on the lossless pair at
    ``bin_size`` (400 bins per class), with the same data and seeds as
    ``run_algorithm1``; each training row keeps its label with probability
    ``labelled_share`` and is otherwise marked unlabelled (-1)."""
    meta = DatasetMeta(
        sources=lossless_sources(1.3),
        detector=DetectorConfig(6, 1.0),
        bin_size=bin_size,
        bins_per_class=400,
        seed=derived_seed(seed, 10, bin_size),
    )
    train, val, test = split_rows(generate_dataset(meta).rows, seed=derived_seed(seed, 11, bin_size))
    labels = ["spacs", "spats"]
    y = label_vector(train, labels)
    y[np.random.default_rng(seed + 1000).random(len(y)) >= labelled_share] = -1
    model = VAEClassifier(NetworkSpec(), seed=derived_seed(seed, 12))
    train_model(
        model, feature_matrix(train, False), y,
        feature_matrix(val, False), label_vector(val, labels), epochs=55,
    )
    accuracy, _ = evaluate_model(model, feature_matrix(test, False), label_vector(test, labels))
    return accuracy


def test_transfer_learning_beats_cold_start_on_most_seeds():
    # fine-tuned small-bin model vs from-scratch with the same total epochs;
    # each comparison rests on 80 test rows (one row moves accuracy by
    # 0.0125), so the majority is taken over ten seeds, not three
    seeds = range(10)
    wins = learned = 0
    for seed in seeds:
        plan = tiny_plan(
            stages=(TrainStage(100, 40), TrainStage(30, 15)),
            eval_bin_sizes=(30,),
            bins_per_class=400,
            seed=seed,
        )
        (row,) = run_algorithm1(plan).report.rows
        transfer = row["accuracy"]
        scratch = _cold_start_accuracy(seed, 30)
        wins += transfer >= scratch
        # a collapsed latent code leaves the cold start near chance (0.5)
        learned += scratch >= 0.75
    assert wins >= 6, f"transfer won on only {wins}/{len(seeds)} seeds"
    assert learned >= 9, f"only {learned}/{len(seeds)} cold starts reached 0.75"


def test_ten_percent_of_labels_train_on_most_seeds():
    # the unlabelled rows still shape the latent code through reconstruction
    # and KL; the classifier sees only the labelled tenth
    seeds = range(10)
    learned = sum(_cold_start_accuracy(seed, 100, labelled_share=0.1) >= 0.75 for seed in seeds)
    assert learned >= 7, f"only {learned}/{len(seeds)} partly labelled runs reached 0.75"


def test_report_writers(tmp_path):
    rows = [{"bin_size": 50, "accuracy": 0.75}, {"bin_size": 100, "accuracy": 0.875}]
    report = tmp_path / "report.csv"
    write_report_csv(report, rows)
    text = report.read_text().splitlines()
    assert text[0] == "bin_size,accuracy"
    assert text[1] == "50,0.75"

    confusion = tmp_path / "confusion.csv"
    write_confusion_csv(confusion, {"cell": np.array([[3, 1], [0, 4]])}, ["a", "b"])
    lines = confusion.read_text().splitlines()
    assert lines[0] == "cell,true_label,pred_a,pred_b"
    assert lines[1] == "cell,a,3,1"

    latent = tmp_path / "latent.csv"
    write_latent_csv(latent, np.array([[0.25, -1.0, 2.0, 1.0]]), ["a", "b"])
    lines = latent.read_text().splitlines()
    assert lines[0] == "z1,z2,z3,label"
    assert lines[1] == "0.25,-1,2,b"


def test_latent_csv_lines_match_per_row_formatting(tmp_path):
    # the writer formats a block of rows at a time; this is the per-row form
    rng = np.random.default_rng(3)
    latents = np.column_stack([rng.standard_normal((600, 3)) * 10.0 ** rng.integers(-30, 30, (600, 3)),
                               rng.integers(0, 3, 600)])
    latents[:6, 0] = [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan]
    path = tmp_path / "latent.csv"
    write_latent_csv(path, latents, ["a", "b", "c"])
    want = ["z1,z2,z3,label"]
    for row in latents:
        want.append(",".join("{:.9g}".format(v) for v in row[:-1]) + f",{'abc'[int(row[-1])]}")
    assert path.read_text() == "\n".join(want) + "\n"
