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

Each study only turns a ``TrainPlan`` into cells, refusing a plan it cannot
run before any dataset is generated, and ``run_study`` generates, splits,
trains on and scores them; every study returns its ``StudyResult``.
``model_inputs`` is the one place that decides a model's input layout (a
six-input model also reads ``nbar_obs``), and ``EvalReport.score`` the one
path that scores an evaluation cell.  The studies and the CLI's ``eval`` and
``sweep`` all go through them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from numbers import Real
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .detector import DetectorConfig, chain_mean
from .distributions import SourceKind, SourceSpec, source_pmf
from .sampling import (
    CSV_BLOCK_ROWS,
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

    ``algorithm`` names the one study that reads the plan, and the others
    refuse it.  Besides ``stages``, ``seed``, ``bins_per_class`` and
    ``n_detectors``, each study reads the fields ``STUDY_FIELDS`` lists for it,
    and refuses a plan that sets any other field away from its default.
    ``stages[0]`` trains from scratch, and each later stage fine-tunes a copy
    of it on its own bin size; the ``POOLED`` studies refuse a second stage.
    Each grid, and the fine-tune stages' bin sizes, must pass
    ``require_thousandths``.
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
        for name in ("train_etas", "eval_etas", "eval_nbar_obs", "eval_bin_sizes",
                     "mix_r_values", "mix_train_r_values"):
            require_thousandths(getattr(self, name), name)
        require_thousandths([s.bin_size for s in self.stages[1:]], "the fine-tune stages' bin_size")


def require_thousandths(values, what: str) -> None:
    """Refuse, naming ``what``, a grid value that cannot key a cell and its seeds
    as the studies and ``sweep`` do, by ``round(value * 1000)``: a bool, a
    non-number, one with no finite thousandth, or one equal to an earlier value
    to the thousandth, which would draw one cell twice or report it twice."""
    keys = []
    for value in values:
        if isinstance(value, bool) or not isinstance(value, Real) or not np.isfinite(value * 1000):
            raise ValueError(f"{what} holds {value!r}, not a number with a finite thousandth")
        key = round(value * 1000)
        if key in keys:
            raise ValueError(f"{what} repeats the value {values[keys.index(key)]!r} as "
                             f"{value!r}, to the thousandth")
        keys.append(key)


# the TrainPlan fields each study reads besides algorithm, stages, seed,
# bins_per_class and n_detectors
STUDY_FIELDS = {
    "lossless": ("mean_param", "efficiency", "eval_bin_sizes"),
    "lossy_nbar": ("mean_param", "train_etas", "eval_etas", "eval_nbar_obs", "eval_bins_per_class"),
    "mixed_grid": ("efficiency", "target_nbar_obs", "mix_r_values", "mix_train_r_values",
                   "eval_bins_per_class"),
}
_SHARED_FIELDS = ("algorithm", "stages", "seed", "bins_per_class", "n_detectors")
# the studies that train one model on pooled datasets, so run one stage
POOLED = ("lossy_nbar", "mixed_grid")


@dataclass
class EvalReport:
    """Accuracy rows over the evaluation grid plus per-cell confusion matrices."""

    class_labels: list[str]
    rows: list[dict] = field(init=False, default_factory=list)
    confusions: dict[str, np.ndarray] = field(init=False, default_factory=dict)
    latents: np.ndarray | None = field(init=False, default=None)

    def score(self, key: str, model: VAEClassifier, rows: Rows, /, **fields) -> float:
        """Score ``model`` on ``rows``: keep the confusion matrix under ``key``,
        append ``{**fields, "accuracy": ...}`` to ``self.rows`` and return the
        accuracy.  Positional-only, so a field may be called ``rows``.  A
        ``key`` already scored is a ValueError, raised before any scoring, as
        a second row would have no confusion matrix of its own."""
        if key in self.confusions:
            raise ValueError(f"evaluation cell {key!r} is already scored")
        accuracy, self.confusions[key] = evaluate_model(
            model, *model_inputs(model, rows, self.class_labels)
        )
        self.rows.append({**fields, "accuracy": accuracy})
        return accuracy


class StudyResult(NamedTuple):
    """A study's models, one per stage in stage order, and its report."""

    models: list[VAEClassifier]
    report: EvalReport


class TrainCell(NamedTuple):
    """A dataset, generated from ``meta`` and split 80/10/10 by ``split_seed``."""

    meta: DatasetMeta
    split_seed: int


class StudyStage(NamedTuple):
    """One model trained on the pooled rows of ``cells``: the first stage's from
    scratch, a later stage's from a copy of the first stage's; each seeded ``seed``."""

    cells: tuple[TrainCell, ...]
    seed: int
    epochs: int


class EvalCell(NamedTuple):
    """Stage ``model``'s model scored on a ``TrainCell``'s test rows or on a fresh
    dataset; a callable value in ``fields`` is applied to those rows."""

    key: str
    rows: TrainCell | DatasetMeta
    fields: dict
    model: int = 0


def derived_seed(seed: int, *key: int) -> int:
    """Stable 64-bit sub-seed for a namespaced purpose."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def lossless_sources(mean_param: float) -> tuple[tuple[str, SourceSpec], ...]:
    return (
        ("spacs", SourceSpec(SourceKind.SPACS, mean_param)),
        ("spats", SourceSpec(SourceKind.SPATS, mean_param)),
    )


def invert_mean_param(kind: SourceKind, target_mean: float, detector: DetectorConfig) -> float:
    """Bisect the source intensity whose mean click count behind ``detector``
    hits the target.

    The chain mean is monotone in the intensity parameter for every family.
    """
    if target_mean < 0:
        raise ValueError("target mean must be >= 0")

    def mean_at(param: float) -> float:
        return chain_mean(source_pmf(SourceSpec(kind, param)), detector)

    return _bisect(mean_at, target_mean, "target mean")


def _bisect(mean_at, target: float, what: str) -> float:
    """Bisect [0, INTENSITY_BRACKET] for where the increasing ``mean_at``
    reaches ``target``, halving until no float lies strictly between the two
    ends.  Targets outside [mean_at(0), mean_at(INTENSITY_BRACKET)] are
    refused; for photon-added sources mean_at(0) is the single-photon floor,
    which no intensity gets under.  A NaN target is refused too."""
    if np.isnan(target):
        raise ValueError(f"{what} {target} is not a number")
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


def model_inputs(model: VAEClassifier, rows: Rows,
                 class_labels: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Network inputs and class indices of ``rows``; a six-input model also
    reads ``nbar_obs``.  A label outside ``class_labels`` is a DataMismatchError."""
    try:
        y = label_vector(rows, class_labels)
    except ValueError as exc:
        raise DataMismatchError(str(exc)) from exc
    return feature_matrix(rows, model.spec.input_dim == 6), y


def _check_plan(plan: TrainPlan, algorithm: str) -> None:
    """Refuse a plan made for another study, one that sets a field this study
    would not read away from its default (naming the first such field), or a
    ``POOLED`` study's plan with a second stage, which would go unread."""
    if plan.algorithm != algorithm:
        raise ValueError(f"TrainPlan.algorithm is {plan.algorithm!r}, this study is {algorithm!r}")
    for unread in fields(plan):
        value = getattr(plan, unread.name)
        if unread.name not in _SHARED_FIELDS + STUDY_FIELDS[algorithm] and value != unread.default:
            default = "empty" if unread.default == () else repr(unread.default)
            raise ValueError(f"{unread.name} must be {default} in a {algorithm!r} plan, "
                             f"which does not read it; got {value!r}")
    if algorithm in POOLED and len(plan.stages) > 1:
        raise ValueError(f"a pooled study runs one training stage, stages lists {len(plan.stages)}")


def export_latent(model: VAEClassifier, rows, class_labels: list[str]) -> np.ndarray:
    """Per-sample latent means with the class index as the last column."""
    x, y = model_inputs(model, rows, class_labels)
    return np.hstack([model.latent_means(x), y[:, None].astype(np.float64)])


def run_study(input_dim: int, class_labels: list[str], stages: list[StudyStage],
              evals: Iterable[EvalCell], latents: TrainCell | None = None,
              ) -> StudyResult:
    """Train ``stages`` and score ``evals``, in order, and with ``latents``
    export stage 0's latent means of that cell's test rows; every study
    returns the ``StudyResult`` of its models and report.  Each training cell
    is generated and split once, when first needed, and a fresh dataset only
    when its cell is scored.  ``evals`` is read after training, so a builder
    may pass a generator."""

    @functools.cache
    def split(cell: TrainCell) -> tuple[Rows, Rows, Rows]:
        return split_rows(generate_dataset(cell.meta).rows, seed=cell.split_seed)

    spec = NetworkSpec(input_dim, len(class_labels))
    models: list[VAEClassifier] = []
    for stage in stages:
        train_parts, val_parts, _ = zip(*map(split, stage.cells))
        model = VAEClassifier(spec, seed=stage.seed)
        if models:  # a fine-tune stage trains a copy of stage 0's model
            model.set_state(models[0].get_state())
        train = model_inputs(model, concat_rows(train_parts), class_labels)
        val = model_inputs(model, concat_rows(val_parts), class_labels)
        train_model(model, *train, *val, epochs=stage.epochs)
        models.append(model)

    report = EvalReport(class_labels=class_labels)
    for cell in evals:
        if isinstance(cell.rows, TrainCell):
            rows = split(cell.rows)[2]
        else:
            rows = generate_dataset(cell.rows).rows
        fields = {name: value(rows) if callable(value) else value
                  for name, value in cell.fields.items()}
        report.score(cell.key, models[cell.model], rows, **fields)
        del rows  # a fresh dataset's rows go before the next cell's are generated
    if latents is not None:
        report.latents = export_latent(models[0], split(latents)[2], class_labels)
    return StudyResult(models, report)


# --- lossless study (transfer learning over bin sizes) ------------------------


def run_algorithm1(plan: TrainPlan) -> StudyResult:
    """Train on probability inputs at the stage-0 bin size, fine-tune the same
    weights on each later stage's bin size, and report held-out accuracy per
    evaluated bin size."""
    _check_plan(plan, "lossless")
    detector = DetectorConfig(plan.n_detectors, plan.efficiency)
    sources = lossless_sources(plan.mean_param)

    def cell(size: int) -> TrainCell:
        meta = DatasetMeta(sources, detector, size, plan.bins_per_class,
                           derived_seed(plan.seed, 10, size))
        return TrainCell(meta, derived_seed(plan.seed, 11, size))

    base, *later = plan.stages
    stages = [StudyStage((cell(base.bin_size),), derived_seed(plan.seed, 12), base.epochs)]
    stages += [StudyStage((cell(stage.bin_size),), derived_seed(plan.seed, 13, stage.bin_size),
                          stage.epochs) for stage in later]
    # a bin size is scored by the model fine-tuned on it, else by the base model
    tuned = {stage.bin_size: k for k, stage in enumerate(plan.stages) if k}
    evals = [EvalCell(f"bin{size}", cell(size), {"bin_size": size, "n_test": len},
                      tuned.get(size, 0))
             for size in plan.eval_bin_sizes or sorted({stage.bin_size for stage in plan.stages})]
    return run_study(5, [label for label, _ in sources], stages, evals, latents=stages[0].cells[0])


# --- lossy study (observed mean photon number as an input) ---------------------


def observed_mean_for_sources(sources, detector: DetectorConfig) -> float:
    """Mean click count of the detector chain averaged over the class set."""
    return float(np.mean([chain_mean(source_pmf(src), detector) for _, src in sources]))


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


def run_algorithm2(plan: TrainPlan) -> StudyResult:
    """Train one six-input model on the plan intensity at every ``train_etas``
    efficiency of ``plan.n_detectors`` detectors, then sweep accuracy over
    further efficiencies and observed-mean targets."""
    _check_plan(plan, "lossy_nbar")
    (stage,) = plan.stages
    if not plan.train_etas:
        raise ValueError("lossy training needs at least one efficiency")
    sources = lossless_sources(plan.mean_param)
    bin_size = stage.bin_size

    def detector(eta):
        return DetectorConfig(plan.n_detectors, eta)

    def scored(key, rows, eta, intensity, tag):
        return EvalCell(key, rows, {"eta": eta, "bin_size": bin_size, "nbar_the": intensity,
                                    "nbar_obs": lambda rows: float(np.mean(rows.nbar_obs)),
                                    "cell": tag})

    def sweep_cell(intensity, eta, tag, key):
        meta = DatasetMeta(lossless_sources(intensity), detector(eta), bin_size,
                           plan.eval_bins_per_class, derived_seed(plan.seed, 23, *key))
        return scored(f"{tag}_{key[-1]}", meta, eta, intensity, tag)

    cells, evals = [], []
    for eta in plan.train_etas:
        key = (round(plan.mean_param * 1000), round(eta * 1000))
        meta = DatasetMeta(sources, detector(eta), bin_size, plan.bins_per_class,
                           derived_seed(plan.seed, 20, *key))
        cells.append(TrainCell(meta, derived_seed(plan.seed, 21, *key)))
        evals.append(scored(f"train_eta{eta:g}", cells[-1], eta, plan.mean_param, "held_out"))
    # accuracy vs efficiency at the plan intensity
    evals += [sweep_cell(plan.mean_param, eta, "eta_sweep", (0, round(eta * 1000)))
              for eta in plan.eval_etas]

    # accuracy vs observed mean: each target is realized at the training
    # efficiency whose own observed mean sits closest (low means go with low
    # efficiencies), subject to the single-photon floor, before any training
    anchor_means = {eta: observed_mean_for_sources(sources, detector(eta))
                    for eta in plan.train_etas}
    floors = {eta: observed_mean_for_sources(lossless_sources(0.0), detector(eta))
              for eta in plan.train_etas}
    for target in plan.eval_nbar_obs:
        candidates = [eta for eta in plan.train_etas if floors[eta] + 0.02 <= target]
        if not candidates:
            raise ValueError(f"observed-mean target {target} below every training floor")
        eta = min(candidates, key=lambda e: abs(anchor_means[e] - target))
        intensity = invert_shared_intensity(target, detector(eta))
        key = (1, round(eta * 1000), round(target * 1000))
        evals.append(sweep_cell(intensity, eta, "nbar_sweep", key))

    stages = [StudyStage(tuple(cells), derived_seed(plan.seed, 22), stage.epochs)]
    return run_study(6, [label for label, _ in sources], stages, evals)


# --- four-class mixture grid ----------------------------------------------------


MIX_CLASS_LABELS = ["coherent", "thermal", "mix_spacs", "mix_spats"]


def _mixed_sources(coherent_param, thermal_param, r_coherent, r_thermal):
    return (
        ("coherent", SourceSpec(SourceKind.COHERENT, coherent_param)),
        ("thermal", SourceSpec(SourceKind.THERMAL, thermal_param)),
        ("mix_spacs", SourceSpec(SourceKind.MIXED_COHERENT_SPACS, coherent_param, r_coherent)),
        ("mix_spats", SourceSpec(SourceKind.MIXED_THERMAL_SPATS, thermal_param, r_thermal)),
    )


def run_mixed_grid(plan: TrainPlan) -> StudyResult:
    """Four-way classification over a grid of mix ratios.

    Each family shares one intensity parameter, chosen so the pure coherent
    and thermal classes land on the plan's target observed mean.  Cells with
    a unit ratio coincide with the pure classes, so they are evaluated but
    never trained on.
    """
    _check_plan(plan, "mixed_grid")
    (stage,) = plan.stages
    if not plan.mix_r_values:
        raise ValueError("mixed grid needs at least one ratio value")
    detector = DetectorConfig(plan.n_detectors, plan.efficiency)
    bin_size = stage.bin_size
    params = (invert_mean_param(SourceKind.COHERENT, plan.target_nbar_obs, detector),
              invert_mean_param(SourceKind.THERMAL, plan.target_nbar_obs, detector))

    train_rs = [r for r in (plan.mix_train_r_values or plan.mix_r_values) if r < 1.0]
    if not train_rs:
        raise ValueError("all grid ratios are degenerate (r = 1)")
    per_r_bins = max(plan.bins_per_class // len(train_rs), 1)
    pure_bins = per_r_bins * len(train_rs)

    def cell(labeled, bins, space, *key):
        meta = DatasetMeta((labeled,), detector, bin_size, bins,
                           derived_seed(plan.seed, space, *key))
        return TrainCell(meta, derived_seed(plan.seed, space + 3, *key))

    # the pure classes, then the mixed classes at each training ratio
    cells = [cell(labeled, pure_bins, 30, k) for k, labeled in
             enumerate(_mixed_sources(*params, 1.0, 1.0)[:2])]
    cells += [cell((label, source), per_r_bins, 31, MIX_CLASS_LABELS.index(label), round(r * 1000))
              for r in train_rs
              for label, source in _mixed_sources(*params, r, r)[2:]]
    # a generator: no grid cell is held through training
    evals = (EvalCell(f"r1_{r_thermal:g}_r2_{r_coherent:g}",
                      DatasetMeta(_mixed_sources(*params, r_coherent, r_thermal), detector, bin_size,
                                  plan.eval_bins_per_class, derived_seed(plan.seed, 35, i, j)),
                      {"r1": r_thermal, "r2": r_coherent, "bin_size": bin_size})
             for i, r_thermal in enumerate(plan.mix_r_values)
             for j, r_coherent in enumerate(plan.mix_r_values))
    stages = [StudyStage(tuple(cells), derived_seed(plan.seed, 32), stage.epochs)]
    return run_study(6, list(MIX_CLASS_LABELS), stages, evals)


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
    with open(path, "w") as file:
        file.write(",".join(f"z{k + 1}" for k in range(dim)) + ",label\n")
        for start in range(0, len(latents), CSV_BLOCK_ROWS):
            file.write("".join(
                ",".join("{:.9g}".format(v) for v in row[:-1]) + f",{class_labels[int(row[-1])]}\n"
                for row in latents[start:start + CSV_BLOCK_ROWS]
            ))


def _csv_field(value) -> str:
    if isinstance(value, float):
        return "{:.9g}".format(value)
    return str(value)
