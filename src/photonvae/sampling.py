"""Seeded Monte Carlo click sampling, binning, and labeled dataset emission.

Every bin owns an independent RNG stream derived from (dataset seed,
class index, bin index), so sharded or parallel generation reproduces the
serial result bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detector import MAX_RECORDED_CLICKS, DetectorConfig, observed_chain
from .distributions import (
    TAIL_BOUND,
    PhotonPMF,
    PhysicsError,
    SourceKind,
    SourceSpec,
    pmf_mean,
    source_pmf,
)

CSV_HEADER = (
    "p0,p1,p2,p3,p4,p5,p6,nbar_obs,label,bin_size,eta,n_detectors,"
    "nbar_the,source_kind,mix_ratio"
)
_FLOAT_FMT = "{:.9g}"

META_FORMAT_VERSION = 1


@dataclass(frozen=True)
class BinnedObservation:
    """Empirical click statistics of one bin: fractions of counts 0..6 and their mean."""

    p_obs: tuple[float, ...]
    nbar_obs: float
    label: str
    bin_size: int

    def __post_init__(self):
        if len(self.p_obs) != MAX_RECORDED_CLICKS + 1:
            raise ValueError(f"p_obs must have {MAX_RECORDED_CLICKS + 1} entries")


@dataclass(frozen=True)
class DatasetMeta:
    """Everything needed to regenerate a dataset deterministically."""

    sources: tuple[tuple[str, SourceSpec], ...]
    detector: DetectorConfig
    bin_size: int
    bins_per_class: int
    seed: int

    def __post_init__(self):
        if not self.sources:
            raise ValueError("at least one labeled source is required")
        labels = [label for label, _ in self.sources]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate class labels: {labels}")
        if self.bin_size < 1:
            raise ValueError("bin_size must be >= 1")
        if self.bins_per_class < 1:
            raise ValueError("bins_per_class must be >= 1")


@dataclass(frozen=True)
class Dataset:
    rows: tuple[BinnedObservation, ...]
    meta: DatasetMeta
    nbar_the: dict[str, float]  # realized pre-loss source mean per label


def sample_counts(pmf: PhotonPMF, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw iid click counts by inverse CDF; residual tail mass lands on n_max."""
    if count < 1:
        raise ValueError("count must be >= 1")
    cdf = np.cumsum(pmf.probs)
    draws = np.searchsorted(cdf, rng.random(count), side="right")
    return np.minimum(draws, pmf.n_max).astype(np.int64)


def bin_statistics(counts, bin_size: int, label: str) -> list[BinnedObservation]:
    """Group counts into full bins of ``bin_size`` and compute per-bin fractions.

    A trailing partial bin is dropped rather than padded.  Counts above the
    recorded maximum of 6 are rejected: they cannot occur for a detector-bounded
    stream and would corrupt the empirical fractions.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size and (counts.min() < 0 or counts.max() > MAX_RECORDED_CLICKS):
        raise PhysicsError(
            f"click counts must lie in 0..{MAX_RECORDED_CLICKS}, "
            f"got range [{counts.min()}, {counts.max()}]"
        )
    n_bins = counts.size // bin_size
    ns = np.arange(MAX_RECORDED_CLICKS + 1, dtype=np.float64)
    rows = []
    for b in range(n_bins):
        chunk = counts[b * bin_size : (b + 1) * bin_size]
        occur = np.bincount(chunk, minlength=MAX_RECORDED_CLICKS + 1)
        p_obs = occur / float(bin_size)
        rows.append(
            BinnedObservation(
                p_obs=tuple(float(v) for v in p_obs),
                nbar_obs=float(np.dot(ns, p_obs)),
                label=label,
                bin_size=bin_size,
            )
        )
    return rows


def derive_bin_rng(seed: int, class_index: int, bin_index: int) -> np.random.Generator:
    """Independent stream for one bin; identical regardless of generation order."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(class_index, bin_index))
    )


def observed_click_pmf(source: SourceSpec, detector: DetectorConfig) -> PhotonPMF:
    """Push a source through the detector chain and bound the support at 6 clicks.

    Configurations whose click distribution carries more than the tail bound
    above 6 clicks cannot produce valid dataset rows and are rejected.
    """
    observed = observed_chain(source_pmf(source, n_max=None), detector)
    if observed.n_max > MAX_RECORDED_CLICKS:
        excess = float(observed.probs[MAX_RECORDED_CLICKS + 1 :].sum())
        if excess > TAIL_BOUND:
            raise PhysicsError(
                f"click distribution has {excess:.3g} probability above "
                f"{MAX_RECORDED_CLICKS} clicks; reduce n_detectors or the source intensity"
            )
        observed = observed.truncated(MAX_RECORDED_CLICKS)
    return observed


def generate_bins(
    source: SourceSpec,
    detector: DetectorConfig,
    bin_size: int,
    label: str,
    seed: int,
    class_index: int,
    start: int,
    stop: int,
) -> list[BinnedObservation]:
    """Generate bins [start, stop) for one class; shard-safe by construction."""
    observed = observed_click_pmf(source, detector)
    rows = []
    for bin_index in range(start, stop):
        rng = derive_bin_rng(seed, class_index, bin_index)
        counts = sample_counts(observed, bin_size, rng)
        rows.extend(bin_statistics(counts, bin_size, label))
    return rows


def generate_dataset(meta: DatasetMeta) -> Dataset:
    """Deterministically generate ``bins_per_class`` labeled bins per class."""
    rows: list[BinnedObservation] = []
    nbar_the = {}
    for class_index, (label, source) in enumerate(meta.sources):
        nbar_the[label] = pmf_mean(source_pmf(source, n_max=None))
        rows.extend(
            generate_bins(
                source,
                meta.detector,
                meta.bin_size,
                label,
                meta.seed,
                class_index,
                0,
                meta.bins_per_class,
            )
        )
    return Dataset(rows=tuple(rows), meta=meta, nbar_the=nbar_the)


def split_rows(
    rows, seed: int, fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
) -> tuple[list[BinnedObservation], list[BinnedObservation], list[BinnedObservation]]:
    """Stratified train/validation/test split with a seeded shuffle per class."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    # spawn key disjoint from per-bin streams, which use two-component keys
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x5B17,)))
    labels: list[str] = []
    for row in rows:
        if row.label not in labels:
            labels.append(row.label)
    train: list[BinnedObservation] = []
    val: list[BinnedObservation] = []
    test: list[BinnedObservation] = []
    for label in labels:
        members = [row for row in rows if row.label == label]
        order = rng.permutation(len(members))
        n_train = int(len(members) * fractions[0])
        n_val = int(len(members) * fractions[1])
        train.extend(members[i] for i in order[:n_train])
        val.extend(members[i] for i in order[n_train : n_train + n_val])
        test.extend(members[i] for i in order[n_train + n_val :])
    return train, val, test


# --- feature extraction ---------------------------------------------------

N_PROB_FEATURES = 5  # network inputs use P(0)..P(4)


def feature_matrix(rows, include_nbar: bool) -> np.ndarray:
    """Stack [P(0)..P(4)] (optionally + nbar_obs) network inputs, one row per bin."""
    feats = np.array(
        [row.p_obs[:N_PROB_FEATURES] for row in rows], dtype=np.float64
    ).reshape(len(rows), N_PROB_FEATURES)
    if include_nbar:
        nbar = np.array([[row.nbar_obs] for row in rows])
        feats = np.hstack([feats, nbar])
    return feats


def label_vector(rows, class_order: list[str]) -> np.ndarray:
    index = {label: k for k, label in enumerate(class_order)}
    try:
        return np.array([index[row.label] for row in rows], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"row label {exc} not in class order {class_order}") from exc


# --- file formats ----------------------------------------------------------


def _fmt(value: float) -> str:
    return _FLOAT_FMT.format(value)


def write_dataset_csv(path, dataset: Dataset) -> None:
    meta = dataset.meta
    source_by_label = dict(meta.sources)
    lines = [CSV_HEADER]
    for row in dataset.rows:
        src = source_by_label[row.label]
        fields = (
            [_fmt(p) for p in row.p_obs]
            + [
                _fmt(row.nbar_obs),
                row.label,
                str(row.bin_size),
                _fmt(meta.detector.efficiency),
                str(meta.detector.n_detectors),
                _fmt(dataset.nbar_the[row.label]),
                src.kind.value,
                _fmt(src.mix_ratio),
            ]
        )
        lines.append(",".join(fields))
    Path(path).write_text("\n".join(lines) + "\n")


def load_dataset_csv(path) -> list[BinnedObservation]:
    """Read back the rows of a dataset CSV (metadata columns live in the sidecar)."""
    text = Path(path).read_text().strip().split("\n")
    header = text[0].strip()
    if header != CSV_HEADER:
        raise ValueError(f"unexpected dataset header {header!r}")
    rows = []
    for line in text[1:]:
        parts = line.split(",")
        rows.append(
            BinnedObservation(
                p_obs=tuple(float(v) for v in parts[:7]),
                nbar_obs=float(parts[7]),
                label=parts[8],
                bin_size=int(parts[9]),
            )
        )
    return rows


def meta_to_dict(dataset: Dataset) -> dict:
    meta = dataset.meta
    return {
        "format_version": META_FORMAT_VERSION,
        "seed": meta.seed,
        "bin_size": meta.bin_size,
        "bins_per_class": meta.bins_per_class,
        "detector": {
            "n_detectors": meta.detector.n_detectors,
            "efficiency": meta.detector.efficiency,
        },
        "classes": [
            {
                "label": label,
                "kind": source.kind.value,
                "mean_param": source.mean_param,
                "mix_ratio": source.mix_ratio,
                "nbar_the": dataset.nbar_the[label],
            }
            for label, source in meta.sources
        ],
        "row_count": len(dataset.rows),
    }


def write_dataset_meta(path, dataset: Dataset) -> None:
    Path(path).write_text(json.dumps(meta_to_dict(dataset), indent=2, sort_keys=True) + "\n")


def meta_from_dict(payload: dict) -> DatasetMeta:
    sources = tuple(
        (
            entry["label"],
            SourceSpec(
                SourceKind(entry["kind"]),
                float(entry["mean_param"]),
                float(entry.get("mix_ratio", 1.0)),
            ),
        )
        for entry in payload["classes"]
    )
    return DatasetMeta(
        sources=sources,
        detector=DetectorConfig(
            payload["detector"]["n_detectors"], payload["detector"]["efficiency"]
        ),
        bin_size=int(payload["bin_size"]),
        bins_per_class=int(payload["bins_per_class"]),
        seed=int(payload["seed"]),
    )
