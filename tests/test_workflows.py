import numpy as np
import pytest

from photonvae.detector import DetectorConfig, chain_mean
from photonvae.distributions import SourceKind, SourceSpec, pmf_mean, source_pmf
from photonvae.sampling import DatasetMeta, feature_matrix, generate_dataset, label_vector, split_rows
from photonvae.vae import NetworkSpec, VAEClassifier, evaluate_model, train_model
from photonvae import workflows
from photonvae.workflows import (
    TrainPlan,
    TrainStage,
    clone_model,
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


def test_derived_seed_is_stable_and_keyed():
    assert derived_seed(7, 1, 2) == derived_seed(7, 1, 2)
    assert derived_seed(7, 1, 2) != derived_seed(7, 2, 1)
    assert derived_seed(7, 1) != derived_seed(8, 1)


def test_invert_mean_param_ideal_and_chain():
    assert invert_mean_param(SourceKind.COHERENT, 1.3) == pytest.approx(1.3, abs=1e-6)
    detector = DetectorConfig(4, 0.9)
    param = invert_mean_param(SourceKind.THERMAL, 1.3, detector)
    pmf = source_pmf(SourceSpec(SourceKind.THERMAL, param), n_max=None)
    assert chain_mean(pmf, detector) == pytest.approx(1.3, abs=1e-6)


@pytest.mark.parametrize("kind", [SourceKind.SPACS, SourceKind.SPATS])
def test_invert_mean_param_rejects_target_below_single_photon_floor(kind):
    with pytest.raises(ValueError, match="single-photon floor"):
        invert_mean_param(kind, 0.3)
    with pytest.raises(ValueError, match="single-photon floor"):
        invert_mean_param(kind, 0.3, DetectorConfig(4, 0.9))


def test_invert_mean_param_zero_target_for_classical_source():
    assert invert_mean_param(SourceKind.COHERENT, 0.0) == 0.0


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
        [chain_mean(source_pmf(s, n_max=None), detector) for _, s in lossless_sources(intensity)]
    )
    assert mean == pytest.approx(1.5, abs=1e-6)


def test_clone_model_copies_state_without_aliasing():
    model = VAEClassifier(NetworkSpec(), seed=1)
    twin = clone_model(model, seed=2)
    state = model.get_state()
    for name, value in twin.get_state().items():
        np.testing.assert_array_equal(value, state[name])
    twin.encoder.out_bias += 1.0
    assert not np.array_equal(twin.encoder.out_bias, model.encoder.out_bias)


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
    assert sorted(first.finetuned) == [20]
    assert {row["bin_size"] for row in first.report.rows} == {20, 40}
    for acc in accuracies.values():
        assert 0.0 <= acc <= 1.0
    _assert_accuracies_match_confusions(first.report)


def test_run_mixed_grid_structure():
    plan = TrainPlan(
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
    result = run_mixed_grid(plan)
    cells = {(row["r1"], row["r2"]) for row in result.report.rows}
    assert cells == {(a, b) for a in (0.0, 1.0) for b in (0.0, 1.0)}
    _assert_accuracies_match_confusions(result.report)
    confusion = result.report.confusions["r1_0_r2_0"]
    assert confusion.shape == (4, 4)
    assert confusion.sum() == 4 * 20
    assert result.family_params["coherent"] > 0


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
    assert first.model.spec.input_dim == 6
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


@pytest.mark.parametrize("overrides, message", [
    (dict(train_etas=()), "at least one efficiency"),
    (dict(eval_nbar_obs=(0.5,)), "observed-mean target 0.5 below every training floor"),
], ids=["no_train_etas", "target_below_every_floor"])
def test_run_algorithm2_refuses_plans_it_cannot_run(overrides, message):
    with pytest.raises(ValueError, match=message):
        run_algorithm2(lossy_plan(**overrides))


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
