"""Training and evaluation workflows.

The lossless study trains at a large bin size and transfers the weights to
smaller bin sizes; the lossy study adds the observed mean click count
``nbar_obs`` as an input so one model covers a range of efficiencies; the
mixture study extends the classifier to four classes over a grid of mix
ratios.

With 4 detectors no bin sees 5 or 6 clicks, so ``nbar_obs`` equals
P1 + 2·P2 + 3·P3 + 4·P4 and adds no information to the P0..P4 inputs; the
lossy study keeps it because it is the paper's input, and with 6 detectors
it carries the split between 5 and 6 clicks.

``model_inputs`` is the one place that decides a model's input layout (a
six-input model also reads ``nbar_obs``), and ``EvalReport.score`` the one
path that scores an evaluation cell.  The three studies and the CLI's
``eval`` and ``sweep`` all go through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .detector import DetectorConfig, chain_mean
from .distributions import SourceKind, SourceSpec, pmf_mean, source_pmf
from .sampling import (
    DatasetMeta,
    Rows,
    concat_rows,
    feature_matrix,
    generate_dataset,
    label_vector,
    split_rows,
)
from .vae import (
    DataMismatchError,
    NetworkSpec,
    TrainHistory,
    VAEClassifier,
    evaluate_model,
    train_model,
)

# the intensity inversions bisect [0, INTENSITY_BRACKET]
INTENSITY_BRACKET = 80.0


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

    def score(self, key: str, model: VAEClassifier, rows: Rows, /, **fields) -> float:
        """Score ``model`` on ``rows``: keep the confusion matrix under ``key``,
        append ``{**fields, "accuracy": ...}`` to ``self.rows`` and return the
        accuracy.  Positional-only, so a field may be called ``rows``."""
        accuracy, self.confusions[key] = evaluate_model(
            model, *model_inputs(model, rows, self.class_labels)
        )
        self.rows.append({**fields, "accuracy": accuracy})
        return accuracy


@dataclass
class Algorithm1Result:
    base_model: VAEClassifier
    finetuned: dict[int, VAEClassifier]
    report: EvalReport
    histories: dict[int, TrainHistory]


@dataclass
class Algorithm2Result:
    model: VAEClassifier
    report: EvalReport
    history: TrainHistory


@dataclass
class MixedGridResult:
    model: VAEClassifier
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
) -> float:
    """Bisect the source intensity whose (observed or ideal) mean hits the target.

    The chain mean is monotone in the intensity parameter for every family.
    """
    if target_mean < 0:
        raise ValueError("target mean must be >= 0")

    def mean_at(param: float) -> float:
        pmf = source_pmf(SourceSpec(kind, param), n_max=None)
        return chain_mean(pmf, detector) if detector is not None else pmf_mean(pmf)

    return _bisect(mean_at, target_mean, "target mean")


def _bisect(mean_at, target: float, what: str) -> float:
    """Bisect [0, INTENSITY_BRACKET] for where the increasing ``mean_at``
    reaches ``target``, halving until no float lies strictly between the two
    ends.  Targets outside [mean_at(0), mean_at(INTENSITY_BRACKET)] are
    refused; for photon-added sources mean_at(0) is the single-photon floor,
    which no intensity gets under."""
    floor = mean_at(0.0)
    if target < floor:
        raise ValueError(f"{what} {target} below the single-photon floor {floor:.3f}")
    if target == floor:  # halving down to 0.0 would take over a thousand steps
        return 0.0
    lo, hi = 0.0, INTENSITY_BRACKET
    if mean_at(hi) < target:
        raise ValueError(f"{what} {target} unreachable below intensity {hi}")
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if mean_at(mid) < target:
            lo = mid
        else:
            hi = mid


def _splits(meta: DatasetMeta, split_seed: int):
    """Train, validation and test rows of a freshly generated dataset."""
    return split_rows(generate_dataset(meta).rows, seed=split_seed)


def model_inputs(model: VAEClassifier, rows: Rows,
                 class_labels: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Network inputs and class indices of ``rows``; a six-input model also
    reads ``nbar_obs``.  A label outside ``class_labels`` is a DataMismatchError."""
    try:
        y = label_vector(rows, class_labels)
    except ValueError as exc:
        raise DataMismatchError(str(exc)) from exc
    return feature_matrix(rows, model.spec.input_dim == 6), y


def _fit(model: VAEClassifier, train_rows: Rows, val_rows: Rows, class_labels: list[str],
         epochs: int) -> TrainHistory:
    """Train ``model`` on ``train_rows``, keeping its best epoch on ``val_rows``."""
    train = model_inputs(model, train_rows, class_labels)
    val = model_inputs(model, val_rows, class_labels)
    del train_rows, val_rows  # rows concatenated for this call need not live through training
    return train_model(model, *train, *val, epochs=epochs)


def export_latent(model: VAEClassifier, rows, class_labels: list[str]) -> np.ndarray:
    """Per-sample latent means with the class index as the last column."""
    x, y = model_inputs(model, rows, class_labels)
    return np.hstack([model.forward(x).mu, y[:, None].astype(np.float64)])


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
    train_rows, val_rows, _ = data[base_stage.bin_size]
    if base_model is None:
        base_model = VAEClassifier(
            NetworkSpec(input_dim=5, num_classes=len(class_labels)),
            seed=derived_seed(plan.seed, 12),
        )
    else:
        base_model = clone_model(base_model, derived_seed(plan.seed, 12))
    histories[base_stage.bin_size] = _fit(base_model, train_rows, val_rows, class_labels,
                                          base_stage.epochs)

    finetuned: dict[int, VAEClassifier] = {}
    for stage in plan.stages[1:]:
        model = clone_model(base_model, derived_seed(plan.seed, 13, stage.bin_size))
        train_rows, val_rows, _ = data[stage.bin_size]
        histories[stage.bin_size] = _fit(model, train_rows, val_rows, class_labels, stage.epochs)
        finetuned[stage.bin_size] = model

    report = EvalReport(class_labels=class_labels)
    for size in plan.eval_bin_sizes or tuple(sizes):
        test_rows = data[size][2]
        report.score(f"bin{size}", finetuned.get(size, base_model), test_rows,
                     bin_size=size, n_test=len(test_rows))

    report.latents = export_latent(base_model, data[base_stage.bin_size][2], class_labels)
    return Algorithm1Result(
        base_model=base_model,
        finetuned=finetuned,
        report=report,
        histories=histories,
    )


# --- lossy study (observed mean photon number as an input) ---------------------


def observed_mean_for_sources(sources, detector: DetectorConfig) -> float:
    """Mean click count of the detector chain averaged over the class set."""
    return float(
        np.mean([chain_mean(source_pmf(src, n_max=None), detector) for _, src in sources])
    )


def invert_shared_intensity(target_nbar_obs: float, detector: DetectorConfig) -> float:
    """Shared photon-added-pair intensity whose class-averaged observed mean
    hits the target.

    The single added photon puts a floor under the observed mean (about the
    detection efficiency), so targets below that floor are rejected instead of
    silently collapsing to a vacuum-like source.
    """

    def mean_at(param: float) -> float:
        return observed_mean_for_sources(lossless_sources(param), detector)

    what = f"observed-mean target (efficiency {detector.efficiency})"
    return _bisect(mean_at, target_nbar_obs, what)


def run_algorithm2(plan: TrainPlan) -> Algorithm2Result:
    """Train one six-input model on the plan intensity at every ``train_etas``
    efficiency of ``plan.n_detectors`` detectors, then sweep accuracy over
    further efficiencies and observed-mean targets."""
    if not plan.train_etas:
        raise ValueError("lossy training needs at least one efficiency")
    sources = lossless_sources(plan.mean_param)
    class_labels = [label for label, _ in sources]
    bin_size = plan.stages[0].bin_size

    def detector(eta):
        return DetectorConfig(plan.n_detectors, eta)

    # each observed-mean target is realized at the training efficiency whose
    # own observed mean sits closest (low means go with low efficiencies),
    # subject to the single-photon floor; chosen before any training, so a
    # target below every floor is refused up front
    anchor_means = {eta: observed_mean_for_sources(sources, detector(eta))
                    for eta in plan.train_etas}
    floors = {eta: observed_mean_for_sources(lossless_sources(0.0), detector(eta))
              for eta in plan.train_etas}
    target_etas = []
    for target in plan.eval_nbar_obs:
        candidates = [eta for eta in plan.train_etas if floors[eta] + 0.02 <= target]
        if not candidates:
            raise ValueError(f"observed-mean target {target} below every training floor")
        target_etas.append((target, min(candidates, key=lambda e: abs(anchor_means[e] - target))))

    train_parts, val_parts = [], []
    per_eta_test: dict[float, Rows] = {}
    for eta in plan.train_etas:
        key = (round(plan.mean_param * 1000), round(eta * 1000))
        meta = DatasetMeta(
            sources=sources,
            detector=detector(eta),
            bin_size=bin_size,
            bins_per_class=plan.bins_per_class,
            seed=derived_seed(plan.seed, 20, *key),
        )
        train_rows, val_rows, per_eta_test[eta] = _splits(
            meta, split_seed=derived_seed(plan.seed, 21, *key)
        )
        train_parts.append(train_rows)
        val_parts.append(val_rows)

    model = VAEClassifier(
        NetworkSpec(input_dim=6, num_classes=len(class_labels)),
        seed=derived_seed(plan.seed, 22),
    )
    history = _fit(model, concat_rows(train_parts), concat_rows(val_parts), class_labels,
                   plan.stages[0].epochs)

    report = EvalReport(class_labels=class_labels)

    def score_cell(rows, eta, intensity, cell, confusion_key):
        report.score(confusion_key, model, rows, eta=eta, bin_size=bin_size,
                     nbar_the=intensity, nbar_obs=float(np.mean(rows.nbar_obs)), cell=cell)

    for eta, rows in per_eta_test.items():
        score_cell(rows, eta, plan.mean_param, "held_out", f"train_eta{eta:g}")

    def sweep_cell(intensity, eta, tag, key):
        meta = DatasetMeta(
            sources=lossless_sources(intensity),
            detector=detector(eta),
            bin_size=bin_size,
            bins_per_class=plan.eval_bins_per_class,
            seed=derived_seed(plan.seed, 23, *key),
        )
        score_cell(generate_dataset(meta).rows, eta, intensity, tag, f"{tag}_{key[-1]}")

    # accuracy vs efficiency at the plan intensity
    for eta in plan.eval_etas:
        sweep_cell(plan.mean_param, eta, "eta_sweep", (0, round(eta * 1000)))
    # accuracy vs observed mean
    for target, eta in target_etas:
        intensity = invert_shared_intensity(target, detector(eta))
        sweep_cell(intensity, eta, "nbar_sweep", (1, round(eta * 1000), round(target * 1000)))

    return Algorithm2Result(model=model, report=report, history=history)


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

    # (labeled source, bins, seed namespace, key): pure classes, then each training ratio
    cells = [(labeled, pure_bins, 30, (k,)) for k, labeled in
             enumerate(_mixed_sources(coherent_param, thermal_param, 1.0, 1.0)[:2])]
    cells += [((label, source), per_r_bins, 31, (MIX_CLASS_LABELS.index(label), round(r * 1000)))
              for r in train_rs
              for label, source in _mixed_sources(coherent_param, thermal_param, r, r)[2:]]
    train_parts, val_parts = [], []
    for labeled, bins, space, key in cells:
        meta = DatasetMeta((labeled,), detector, bin_size, bins, derived_seed(plan.seed, space, *key))
        t, v, _ = _splits(meta, split_seed=derived_seed(plan.seed, space + 3, *key))
        train_parts.append(t)
        val_parts.append(v)

    model = VAEClassifier(
        NetworkSpec(input_dim=6, num_classes=4), seed=derived_seed(plan.seed, 32)
    )
    history = _fit(model, concat_rows(train_parts), concat_rows(val_parts), MIX_CLASS_LABELS,
                   plan.stages[0].epochs)

    report = EvalReport(class_labels=list(MIX_CLASS_LABELS))
    for i, r_thermal in enumerate(plan.mix_r_values):
        for j, r_coherent in enumerate(plan.mix_r_values):
            meta = DatasetMeta(
                sources=_mixed_sources(coherent_param, thermal_param, r_coherent, r_thermal),
                detector=detector,
                bin_size=bin_size,
                bins_per_class=plan.eval_bins_per_class,
                seed=derived_seed(plan.seed, 35, i, j),
            )
            report.score(f"r1_{r_thermal:g}_r2_{r_coherent:g}", model,
                         generate_dataset(meta).rows, r1=r_thermal, r2=r_coherent,
                         bin_size=bin_size)

    return MixedGridResult(
        model=model,
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
