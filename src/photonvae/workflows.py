"""Training and evaluation workflows.

The lossless study trains at a large bin size and transfers the weights to
smaller bin sizes; the lossy study adds the observed mean click count as an
input so one model covers a range of efficiencies; the mixture study extends
the classifier to four classes over a grid of mix ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .detector import DetectorConfig, chain_mean
from .distributions import SourceKind, SourceSpec, pmf_mean, source_pmf
from .sampling import (
    BinnedObservation,
    Dataset,
    DatasetMeta,
    feature_matrix,
    generate_dataset,
    label_vector,
    split_dataset,
)
from .vae import (
    NetworkSpec,
    TrainHistory,
    VAEClassifier,
    evaluate_model,
    train_model,
)

LOSSLESS_DETECTOR = DetectorConfig(n_detectors=6, efficiency=1.0)
LOSSY_N_DETECTORS = 4

# cold-start supervision warmup (see train_model)
WARMUP_EPOCHS = 30
WARMUP_BCE_WEIGHT = 20.0
# fine-tuning from trained weights keeps the warmup's classification weight
# for every epoch and for its best-epoch choice; on the plain sum the latent
# code collapses while the validation loss still improves (see train_model)
FINETUNE_WEIGHTS = (1.0, 1.0, WARMUP_BCE_WEIGHT)


@dataclass(frozen=True)
class TrainStage:
    bin_size: int
    epochs: int


@dataclass(frozen=True)
class TrainPlan:
    """Declarative description of a training-plus-evaluation run.

    ``stages[0]`` is the from-scratch training stage; later stages fine-tune
    the stage-0 weights on their own bin size.  The eval grid fields select
    what gets measured afterwards.
    """

    algorithm: str  # "lossless" | "lossy_nbar" | "mixed_grid"
    stages: tuple[TrainStage, ...]
    mean_param: float = 1.3
    seed: int = 0
    bins_per_class: int = 2000
    n_detectors: int = 6
    efficiency: float = 1.0
    train_etas: tuple[float, ...] = ()
    # extra training cells as (observed-mean target, efficiency) pairs
    target_nbar_obs_grid: tuple[tuple[float, float], ...] = ()
    eval_bin_sizes: tuple[int, ...] = ()
    eval_etas: tuple[float, ...] = ()
    eval_nbar_obs: tuple[float, ...] = ()
    eval_bins_per_class: int = 400
    mix_r_values: tuple[float, ...] = ()
    # training ratio values; defaults to the non-degenerate grid values
    mix_train_r_values: tuple[float, ...] = ()
    target_nbar_obs: float = 1.3

    def __post_init__(self):
        if not self.stages:
            raise ValueError("a TrainPlan needs at least one training stage")


@dataclass
class EvalReport:
    """Accuracy rows over the evaluation grid plus per-cell confusion matrices."""

    rows: list[dict] = field(default_factory=list)
    confusions: dict[str, np.ndarray] = field(default_factory=dict)
    class_labels: list[str] = field(default_factory=list)
    latents: np.ndarray | None = None


@dataclass
class Algorithm1Result:
    plan: TrainPlan
    class_labels: list[str]
    base_model: VAEClassifier
    finetuned: dict[int, VAEClassifier]
    accuracies: dict[int, float]
    report: EvalReport
    histories: dict[int, TrainHistory]


@dataclass
class Algorithm2Result:
    plan: TrainPlan
    class_labels: list[str]
    model: VAEClassifier
    per_eta_accuracy: dict[float, float]
    sweep_rows: list[dict]
    report: EvalReport
    history: TrainHistory


@dataclass
class MixedGridResult:
    plan: TrainPlan
    class_labels: list[str]
    model: VAEClassifier
    cells: dict[tuple[float, float], float]
    report: EvalReport
    history: TrainHistory
    family_params: dict[str, float]


def derived_seed(seed: int, *key: int) -> int:
    """Stable 64-bit sub-seed for a namespaced purpose."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def clone_model(model: VAEClassifier, seed: int) -> VAEClassifier:
    """Copy of the model with a fresh training noise stream."""
    twin = VAEClassifier(model.spec, seed=seed)
    twin.set_state(model.get_state())
    return twin


def lossless_sources(mean_param: float) -> tuple[tuple[str, SourceSpec], ...]:
    return (
        ("spacs", SourceSpec(SourceKind.SPACS, mean_param)),
        ("spats", SourceSpec(SourceKind.SPATS, mean_param)),
    )


def invert_mean_param(
    kind: SourceKind,
    target_mean: float,
    detector: DetectorConfig | None = None,
    mix_ratio: float = 1.0,
    hi: float = 80.0,
) -> float:
    """Bisect the source intensity whose (observed or ideal) mean hits the target.

    The chain mean is monotone in the intensity parameter for every family.
    """
    if target_mean < 0:
        raise ValueError("target mean must be >= 0")

    def mean_at(param: float) -> float:
        pmf = source_pmf(SourceSpec(kind, param, mix_ratio), n_max=None)
        return chain_mean(pmf, detector) if detector is not None else pmf_mean(pmf)

    return _bisect(mean_at, target_mean, hi, "target mean")


def _bisect(mean_at, target: float, hi: float, what: str) -> float:
    """Bisect [0, hi] for where the increasing ``mean_at`` reaches ``target``,
    halving until no float lies strictly between the two ends.  Targets outside
    [mean_at(0), mean_at(hi)] are refused; for photon-added sources mean_at(0)
    is the single-photon floor, which no intensity gets under."""
    floor = mean_at(0.0)
    if target < floor:
        raise ValueError(f"{what} {target} below the single-photon floor {floor:.3f}")
    if mean_at(hi) < target:
        raise ValueError(f"{what} {target} unreachable below intensity {hi}")
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if mean_at(mid) < target:
            lo = mid
        else:
            hi = mid


def _splits(meta: DatasetMeta, split_seed: int):
    dataset = generate_dataset(meta)
    return dataset, split_dataset(dataset, seed=split_seed)


def _xy(rows, class_labels, include_nbar):
    return feature_matrix(rows, include_nbar), label_vector(rows, class_labels)


def export_latent(model: VAEClassifier, rows, class_labels: list[str]) -> np.ndarray:
    """Per-sample latent means with the class index as the last column."""
    include_nbar = model.spec.input_dim > 5
    x, y = _xy(rows, class_labels, include_nbar)
    mu, _ = model.encode(x)
    return np.hstack([mu, y[:, None].astype(np.float64)])


# --- lossless study (transfer learning over bin sizes) ------------------------


def run_algorithm1(plan: TrainPlan, base_model: VAEClassifier | None = None) -> Algorithm1Result:
    """Train on probability inputs at the stage-0 bin size, fine-tune the same
    weights on each later stage's bin size, and report held-out accuracy per
    evaluated bin size."""
    detector = DetectorConfig(plan.n_detectors, plan.efficiency)
    sources = lossless_sources(plan.mean_param)
    class_labels = [label for label, _ in sources]

    sizes = sorted({stage.bin_size for stage in plan.stages} | set(plan.eval_bin_sizes))
    data = {}
    for size in sizes:
        meta = DatasetMeta(
            sources=sources,
            detector=detector,
            bin_size=size,
            bins_per_class=plan.bins_per_class,
            seed=derived_seed(plan.seed, 10, size),
        )
        data[size] = _splits(meta, split_seed=derived_seed(plan.seed, 11, size))

    base_stage = plan.stages[0]
    histories: dict[int, TrainHistory] = {}
    _, (train_rows, val_rows, _) = data[base_stage.bin_size]
    x_t, y_t = _xy(train_rows, class_labels, False)
    x_v, y_v = _xy(val_rows, class_labels, False)
    if base_model is None:
        base_model = VAEClassifier(
            NetworkSpec(input_dim=5, num_classes=len(class_labels)),
            seed=derived_seed(plan.seed, 12),
        )
        warmup, weights = WARMUP_EPOCHS, (1.0, 1.0, 1.0)
    else:
        base_model = clone_model(base_model, derived_seed(plan.seed, 12))
        warmup, weights = 0, FINETUNE_WEIGHTS
    histories[base_stage.bin_size] = train_model(
        base_model, x_t, y_t, x_v, y_v,
        epochs=base_stage.epochs,
        weights=weights,
        warmup_epochs=warmup,
        warmup_bce_weight=WARMUP_BCE_WEIGHT,
    )

    finetuned: dict[int, VAEClassifier] = {}
    for stage in plan.stages[1:]:
        model = clone_model(base_model, derived_seed(plan.seed, 13, stage.bin_size))
        _, (train_rows, val_rows, _) = data[stage.bin_size]
        x_t, y_t = _xy(train_rows, class_labels, False)
        x_v, y_v = _xy(val_rows, class_labels, False)
        histories[stage.bin_size] = train_model(
            model, x_t, y_t, x_v, y_v, epochs=stage.epochs, weights=FINETUNE_WEIGHTS
        )
        finetuned[stage.bin_size] = model

    report = EvalReport(class_labels=class_labels)
    accuracies: dict[int, float] = {}
    eval_sizes = plan.eval_bin_sizes or tuple(sizes)
    for size in eval_sizes:
        model = finetuned.get(size, base_model)
        _, (_, _, test_rows) = data[size]
        x_s, y_s = _xy(test_rows, class_labels, False)
        acc, confusion = evaluate_model(model, x_s, y_s)
        accuracies[size] = acc
        report.rows.append({"bin_size": size, "accuracy": acc, "n_test": len(test_rows)})
        report.confusions[f"bin{size}"] = confusion

    _, (_, _, base_test) = data[base_stage.bin_size]
    report.latents = export_latent(base_model, base_test, class_labels)
    return Algorithm1Result(
        plan=plan,
        class_labels=class_labels,
        base_model=base_model,
        finetuned=finetuned,
        accuracies=accuracies,
        report=report,
        histories=histories,
    )


# --- lossy study (observed mean photon number as an input) ---------------------


def observed_mean_for_sources(sources, detector: DetectorConfig) -> float:
    """Mean click count of the detector chain averaged over the class set."""
    return float(
        np.mean([chain_mean(source_pmf(src, n_max=None), detector) for _, src in sources])
    )


def invert_shared_intensity(target_nbar_obs: float, detector: DetectorConfig,
                            hi: float = 80.0) -> float:
    """Shared photon-added-pair intensity whose class-averaged observed mean
    hits the target.

    The single added photon puts a floor under the observed mean (about the
    detection efficiency), so targets below that floor are rejected instead of
    silently collapsing to a vacuum-like source.
    """

    def mean_at(param: float) -> float:
        return observed_mean_for_sources(lossless_sources(param), detector)

    what = f"observed-mean target (efficiency {detector.efficiency})"
    return _bisect(mean_at, target_nbar_obs, hi, what)


def run_algorithm2(plan: TrainPlan) -> Algorithm2Result:
    """Train one six-input model over a grid of (intensity, efficiency) pairs,
    then sweep accuracy over further efficiencies and observed-mean targets.

    The training grid holds the plan intensity at every ``train_etas`` value,
    plus one pair per ``target_nbar_obs_grid`` entry, found by inverting the
    observed-mean curve at a training efficiency (cycled).  The extra pairs
    widen the observed-mean coverage so one model serves the whole sweep.
    """
    if not plan.train_etas:
        raise ValueError("lossy training needs at least one efficiency")
    sources = lossless_sources(plan.mean_param)
    class_labels = [label for label, _ in sources]
    bin_size = plan.stages[0].bin_size

    pairs = [(plan.mean_param, eta) for eta in plan.train_etas]
    for target, eta in plan.target_nbar_obs_grid:
        intensity = invert_shared_intensity(target, DetectorConfig(LOSSY_N_DETECTORS, eta))
        pairs.append((intensity, eta))

    train_parts, val_parts, test_parts = [], [], []
    per_eta_test: dict[float, list[BinnedObservation]] = {}
    for intensity, eta in pairs:
        meta = DatasetMeta(
            sources=lossless_sources(intensity),
            detector=DetectorConfig(LOSSY_N_DETECTORS, eta),
            bin_size=bin_size,
            bins_per_class=plan.bins_per_class,
            seed=derived_seed(plan.seed, 20, round(intensity * 1000), round(eta * 1000)),
        )
        _, (train_rows, val_rows, test_rows) = _splits(
            meta, split_seed=derived_seed(plan.seed, 21, round(intensity * 1000), round(eta * 1000))
        )
        train_parts.extend(train_rows)
        val_parts.extend(val_rows)
        test_parts.extend(test_rows)
        if intensity == plan.mean_param:
            per_eta_test[eta] = test_rows

    model = VAEClassifier(
        NetworkSpec(input_dim=6, num_classes=len(class_labels)),
        seed=derived_seed(plan.seed, 22),
    )
    x_t, y_t = _xy(train_parts, class_labels, True)
    x_v, y_v = _xy(val_parts, class_labels, True)
    history = train_model(
        model, x_t, y_t, x_v, y_v,
        epochs=plan.stages[0].epochs,
        warmup_epochs=WARMUP_EPOCHS,
        warmup_bce_weight=WARMUP_BCE_WEIGHT,
    )

    report = EvalReport(class_labels=class_labels)
    per_eta_accuracy: dict[float, float] = {}
    for eta, rows in per_eta_test.items():
        x_s, y_s = _xy(rows, class_labels, True)
        acc, confusion = evaluate_model(model, x_s, y_s)
        per_eta_accuracy[eta] = acc
        report.confusions[f"train_eta{eta:g}"] = confusion
        report.rows.append(
            {
                "eta": eta,
                "bin_size": bin_size,
                "nbar_the": plan.mean_param,
                "nbar_obs": float(np.mean([r.nbar_obs for r in rows])),
                "accuracy": acc,
                "cell": "held_out",
            }
        )

    sweep_rows: list[dict] = []

    def sweep_cell(cell_sources, eta, tag, key):
        meta = DatasetMeta(
            sources=cell_sources,
            detector=DetectorConfig(LOSSY_N_DETECTORS, eta),
            bin_size=bin_size,
            bins_per_class=plan.eval_bins_per_class,
            seed=derived_seed(plan.seed, 23, *key),
        )
        dataset = generate_dataset(meta)
        x_s, y_s = _xy(dataset.rows, class_labels, True)
        acc, confusion = evaluate_model(model, x_s, y_s)
        row = {
            "eta": eta,
            "bin_size": bin_size,
            "nbar_the": cell_sources[0][1].mean_param,
            "nbar_obs": float(np.mean([r.nbar_obs for r in dataset.rows])),
            "accuracy": acc,
            "cell": tag,
        }
        sweep_rows.append(row)
        report.rows.append(row)
        report.confusions[f"{tag}_{key[-1]}"] = confusion
        return row

    # accuracy vs efficiency at the plan intensity
    for eta in plan.eval_etas:
        sweep_cell(sources, eta, "eta_sweep", (0, round(eta * 1000)))
    # accuracy vs observed mean: each target is realized at the training
    # efficiency whose own observed mean sits closest (low means go with low
    # efficiencies), subject to the single-photon floor
    anchor_means = {
        eta: observed_mean_for_sources(sources, DetectorConfig(LOSSY_N_DETECTORS, eta))
        for eta in plan.train_etas
    }
    floors = {
        eta: observed_mean_for_sources(lossless_sources(0.0), DetectorConfig(LOSSY_N_DETECTORS, eta))
        for eta in plan.train_etas
    }
    for target in plan.eval_nbar_obs:
        candidates = [eta for eta in plan.train_etas if floors[eta] + 0.02 <= target]
        if not candidates:
            raise ValueError(f"observed-mean target {target} below every training floor")
        eta = min(candidates, key=lambda e: abs(anchor_means[e] - target))
        intensity = invert_shared_intensity(target, DetectorConfig(LOSSY_N_DETECTORS, eta))
        sweep_cell(
            lossless_sources(intensity), eta, "nbar_sweep",
            (1, round(eta * 1000), round(target * 1000)),
        )

    return Algorithm2Result(
        plan=plan,
        class_labels=class_labels,
        model=model,
        per_eta_accuracy=per_eta_accuracy,
        sweep_rows=sweep_rows,
        report=report,
        history=history,
    )


# --- four-class mixture grid ----------------------------------------------------


MIX_CLASS_LABELS = ["coherent", "thermal", "mix_spacs", "mix_spats"]


def _mixed_sources(coherent_param, thermal_param, r_coherent, r_thermal):
    return (
        ("coherent", SourceSpec(SourceKind.COHERENT, coherent_param)),
        ("thermal", SourceSpec(SourceKind.THERMAL, thermal_param)),
        ("mix_spacs", SourceSpec(SourceKind.MIXED_COHERENT_SPACS, coherent_param, r_coherent)),
        ("mix_spats", SourceSpec(SourceKind.MIXED_THERMAL_SPATS, thermal_param, r_thermal)),
    )


def run_mixed_grid(plan: TrainPlan) -> MixedGridResult:
    """Four-way classification over a grid of mix ratios.

    Each family shares one intensity parameter, chosen so the pure coherent
    and thermal classes land on the plan's target observed mean.  Cells with
    a unit ratio coincide with the pure classes, so they are evaluated but
    never trained on.
    """
    if not plan.mix_r_values:
        raise ValueError("mixed grid needs at least one ratio value")
    detector = DetectorConfig(plan.n_detectors, plan.efficiency)
    bin_size = plan.stages[0].bin_size
    coherent_param = invert_mean_param(SourceKind.COHERENT, plan.target_nbar_obs, detector)
    thermal_param = invert_mean_param(SourceKind.THERMAL, plan.target_nbar_obs, detector)
    family_params = {"coherent": coherent_param, "thermal": thermal_param}

    train_rs = [r for r in (plan.mix_train_r_values or plan.mix_r_values) if r < 1.0]
    if not train_rs:
        raise ValueError("all grid ratios are degenerate (r = 1)")
    per_r_bins = max(plan.bins_per_class // len(train_rs), 1)
    pure_bins = per_r_bins * len(train_rs)

    train_parts, val_parts = [], []
    for label, source in _mixed_sources(coherent_param, thermal_param, 1.0, 1.0)[:2]:
        meta = DatasetMeta(
            sources=((label, source),),
            detector=detector,
            bin_size=bin_size,
            bins_per_class=pure_bins,
            seed=derived_seed(plan.seed, 30, MIX_CLASS_LABELS.index(label)),
        )
        _, (t, v, _) = _splits(meta, split_seed=derived_seed(plan.seed, 33, MIX_CLASS_LABELS.index(label)))
        train_parts.extend(t)
        val_parts.extend(v)
    for r in train_rs:
        for label, param, kind in (
            ("mix_spacs", coherent_param, SourceKind.MIXED_COHERENT_SPACS),
            ("mix_spats", thermal_param, SourceKind.MIXED_THERMAL_SPATS),
        ):
            meta = DatasetMeta(
                sources=((label, SourceSpec(kind, param, r)),),
                detector=detector,
                bin_size=bin_size,
                bins_per_class=per_r_bins,
                seed=derived_seed(plan.seed, 31, MIX_CLASS_LABELS.index(label), round(r * 1000)),
            )
            _, (t, v, _) = _splits(
                meta,
                split_seed=derived_seed(plan.seed, 34, MIX_CLASS_LABELS.index(label), round(r * 1000)),
            )
            train_parts.extend(t)
            val_parts.extend(v)

    model = VAEClassifier(
        NetworkSpec(input_dim=6, num_classes=4), seed=derived_seed(plan.seed, 32)
    )
    x_t, y_t = _xy(train_parts, MIX_CLASS_LABELS, True)
    x_v, y_v = _xy(val_parts, MIX_CLASS_LABELS, True)
    history = train_model(
        model, x_t, y_t, x_v, y_v,
        epochs=plan.stages[0].epochs,
        warmup_epochs=WARMUP_EPOCHS,
        warmup_bce_weight=WARMUP_BCE_WEIGHT,
    )

    report = EvalReport(class_labels=list(MIX_CLASS_LABELS))
    cells: dict[tuple[float, float], float] = {}
    for i, r_thermal in enumerate(plan.mix_r_values):
        for j, r_coherent in enumerate(plan.mix_r_values):
            meta = DatasetMeta(
                sources=_mixed_sources(coherent_param, thermal_param, r_coherent, r_thermal),
                detector=detector,
                bin_size=bin_size,
                bins_per_class=plan.eval_bins_per_class,
                seed=derived_seed(plan.seed, 35, i, j),
            )
            dataset = generate_dataset(meta)
            x_s, y_s = _xy(dataset.rows, MIX_CLASS_LABELS, True)
            acc, confusion = evaluate_model(model, x_s, y_s)
            cells[(r_thermal, r_coherent)] = acc
            report.rows.append(
                {"r1": r_thermal, "r2": r_coherent, "bin_size": bin_size, "accuracy": acc}
            )
            report.confusions[f"r1_{r_thermal:g}_r2_{r_coherent:g}"] = confusion

    return MixedGridResult(
        plan=plan,
        class_labels=list(MIX_CLASS_LABELS),
        model=model,
        cells=cells,
        report=report,
        history=history,
        family_params=family_params,
    )


# --- report serialization -------------------------------------------------------


def write_report_csv(path, rows: list[dict]) -> None:
    if not rows:
        Path(path).write_text("")
        return
    columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_field(row.get(col, "")) for col in columns))
    Path(path).write_text("\n".join(lines) + "\n")


def write_confusion_csv(path, confusions: dict[str, np.ndarray], class_labels: list[str]) -> None:
    lines = ["cell,true_label," + ",".join(f"pred_{label}" for label in class_labels)]
    for cell, matrix in confusions.items():
        for k, label in enumerate(class_labels):
            lines.append(f"{cell},{label}," + ",".join(str(int(v)) for v in matrix[k]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_latent_csv(path, latents: np.ndarray, class_labels: list[str]) -> None:
    dim = latents.shape[1] - 1
    lines = [",".join(f"z{k + 1}" for k in range(dim)) + ",label"]
    for row in latents:
        coords = ",".join("{:.9g}".format(v) for v in row[:-1])
        lines.append(f"{coords},{class_labels[int(row[-1])]}")
    Path(path).write_text("\n".join(lines) + "\n")


def _csv_field(value) -> str:
    if isinstance(value, float):
        return "{:.9g}".format(value)
    return str(value)
