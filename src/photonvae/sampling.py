"""Seeded Monte Carlo click sampling and labeled dataset emission, in columns.

A dataset holds its bins as arrays: the occurrences of 0..6 clicks in each bin,
its label and its bin size.  One class's bins are drawn in blocks of
``BLOCK_BINS``, one multinomial draw per block from a stream keyed by (dataset
seed, class index, block index).

A dataset CSV row is a bin's label and its counts of windows with 0..6 clicks,
whose sum is the bin size; only the ``*.meta.json`` sidecar records what
regenerates the dataset.  The CSV is written and read in blocks of
``CSV_BLOCK_ROWS`` rows, as is the latent CSV of ``workflows``.  A row of text
is 8 Python strings, several times the bytes of its parsed row, so a
whole-file table would cost more memory than the rows it holds; a block of a
few hundred rows keeps numpy's per-call cost small and the text of one block
in memory at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterator

import numpy as np

from .detector import MAX_RECORDED_CLICKS, DetectorConfig, observed_chain
from .distributions import (
    TAIL_BOUND,
    PhotonPMF,
    PhysicsError,
    SourceSpec,
    pmf_mean,
    source_pmf,
)

CSV_HEADER = "label,c0,c1,c2,c3,c4,c5,c6"
CSV_BLOCK_ROWS = 256

_CLICKS = np.arange(MAX_RECORDED_CLICKS + 1)

# version 2: histograms come from one multinomial stream per block of bins
META_FORMAT_VERSION = 2
BLOCK_BINS = 256


@dataclass(frozen=True, eq=False)
class Rows:
    """Bins in columns: in row i, ``counts[i, k]`` of the ``bin_size[i]`` detection
    windows saw k clicks (k = 0..6), and ``labels[i]`` names the class."""

    counts: np.ndarray  # (n, 7) int64
    labels: np.ndarray  # (n,) str
    bin_size: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, index) -> Rows:
        return Rows(self.counts[index], self.labels[index], self.bin_size[index])

    @property
    def nbar_obs(self) -> np.ndarray:
        """Mean click count of each bin."""
        return (self.counts @ _CLICKS) / self.bin_size


def concat_rows(parts: list[Rows]) -> Rows:
    """One table holding the rows of ``parts`` in order."""
    return Rows(
        np.concatenate([part.counts for part in parts]),
        np.concatenate([part.labels for part in parts]),
        np.concatenate([part.bin_size for part in parts]),
    )


# a text field holding one of these would split its CSV row
CSV_SEPARATORS = ",\n\r"


def class_label_fault(labels: list) -> str | None:
    """What is wrong with a list of class labels, or None: a label that
    repeats would name two classes or two confusion rows alike, and one that
    holds a comma or a line break would split a CSV row into more fields or
    lines than its header."""
    for i, label in enumerate(labels):
        if label in labels[:i]:
            return f"class label {label!r} repeats"
        if any(sep in str(label) for sep in CSV_SEPARATORS):
            return f"class label {label!r} holds a comma or a line break"
    return None


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
        fault = class_label_fault([label for label, _ in self.sources])
        if fault:
            raise ValueError(fault)
        if self.bin_size < 1:
            raise ValueError("bin_size must be >= 1")
        if self.bins_per_class < 1:
            raise ValueError("bins_per_class must be >= 1")


@dataclass(frozen=True)
class Dataset:
    """Generated rows with what regenerates them (``meta``) and, per label, the
    realized pre-loss source mean ``nbar_the``, which the sidecar records."""

    rows: Rows
    meta: DatasetMeta
    nbar_the: dict[str, float]


def observed_click_pmf(source: PhotonPMF, detector: DetectorConfig) -> PhotonPMF:
    """Push a source's photon-number PMF through the detector chain and bound
    the support at 6 clicks.

    Configurations whose click distribution carries more than the tail bound
    above 6 clicks cannot produce valid dataset rows and are rejected.
    """
    observed = observed_chain(source, detector)
    if observed.n_max > MAX_RECORDED_CLICKS:
        excess = float(observed.probs[MAX_RECORDED_CLICKS + 1 :].sum())
        if excess > TAIL_BOUND:
            raise PhysicsError(
                f"click distribution has {excess:.3g} probability above "
                f"{MAX_RECORDED_CLICKS} clicks; reduce n_detectors or the source intensity"
            )
        observed = observed.truncated(MAX_RECORDED_CLICKS)
    return observed


def _draw(observed: PhotonPMF, bin_size: int, seed: int, class_index: int, n: int) -> np.ndarray:
    """Click histograms of one class's first ``n`` bins, shape (n, 7).

    Block b holds bins [b * BLOCK_BINS, (b + 1) * BLOCK_BINS) and is drawn whole
    from its own stream keyed (seed, class_index, b).  The multinomial gives its
    last category what the others leave, so residual tail mass lands on n_max.
    """
    blocks = [
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(class_index, b)))
        .multinomial(bin_size, observed.probs, size=BLOCK_BINS)
        for b in range(-(-n // BLOCK_BINS))
    ]
    counts = np.zeros((n, MAX_RECORDED_CLICKS + 1), dtype=np.int64)
    counts[:, : observed.n_max + 1] = np.concatenate(blocks)[:n]
    return counts


def generate_dataset(meta: DatasetMeta) -> Dataset:
    """Deterministically generate ``bins_per_class`` labeled bins per class."""
    parts = []
    nbar_the = {}
    n = meta.bins_per_class
    for class_index, (label, source) in enumerate(meta.sources):
        pmf = source_pmf(source)
        nbar_the[label] = pmf_mean(pmf)
        observed = observed_click_pmf(pmf, meta.detector)
        counts = _draw(observed, meta.bin_size, meta.seed, class_index, n)
        parts.append(Rows(counts, np.full(n, label), np.full(n, meta.bin_size, dtype=np.int64)))
    return Dataset(rows=concat_rows(parts), meta=meta, nbar_the=nbar_the)


def split_rows(rows: Rows, seed: int) -> tuple[Rows, Rows, Rows]:
    """Stratified 80/10/10 train/validation/test split with a seeded shuffle per
    class, classes taken in order of first appearance."""
    # spawn key disjoint from the block streams, which use two-component keys
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x5B17,)))
    labels, first = np.unique(rows.labels, return_index=True)
    parts = tuple([np.empty(0, dtype=np.int64)] for _ in range(3))
    for label in labels[np.argsort(first)]:
        members = np.flatnonzero(rows.labels == label)
        order = members[rng.permutation(len(members))]
        n_train = int(len(members) * 0.8)
        n_val = int(len(members) * 0.1)
        for part, index in zip(parts, np.split(order, [n_train, n_train + n_val])):
            part.append(index)
    return tuple(rows.take(np.concatenate(part)) for part in parts)


# --- feature extraction ---------------------------------------------------

N_PROB_FEATURES = 5  # network inputs use P(0)..P(4)


def feature_matrix(rows: Rows, include_nbar: bool) -> np.ndarray:
    """Stack [P(0)..P(4)] (optionally + nbar_obs) network inputs, one row per bin."""
    feats = rows.counts[:, :N_PROB_FEATURES] / rows.bin_size[:, None]
    return np.hstack([feats, rows.nbar_obs[:, None]]) if include_nbar else feats


def label_vector(rows: Rows, class_order: list[str]) -> np.ndarray:
    names, codes = np.unique(rows.labels, return_inverse=True)
    index = {label: k for k, label in enumerate(class_order)}
    try:
        return np.array([index[name] for name in names.tolist()], dtype=np.int64)[codes]
    except KeyError as exc:
        raise ValueError(f"row label {exc} not in class order {class_order}") from exc


# --- file formats ----------------------------------------------------------


def write_dataset_csv(path, dataset: Dataset) -> None:
    rows = dataset.rows
    with open(path, "w") as file:
        file.write(CSV_HEADER + "\n")
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows.take(slice(start, start + CSV_BLOCK_ROWS))
            file.write("".join(
                f"{label},{','.join(map(str, counts))}\n"
                for label, counts in zip(block.labels.tolist(), block.counts.tolist())
            ))


class _RowFault(ValueError):
    """A row refused by the ``check``-th of the checks every row goes through."""

    def __init__(self, check: int, line: int, problem: str):
        super().__init__(f"line {line}: {problem}")
        self.check = check


def _refuse(bad: np.ndarray, first: int, check: int, problem: str) -> None:
    """Raise for the first row flagged in ``bad``, naming its line in the file,
    where the block's first row is line ``first``."""
    if bad.any():
        raise _RowFault(check, first + int(np.argmax(bad)), problem)


def _parse(table: np.ndarray, kind, first: int, check: int, what: str) -> np.ndarray:
    """``table`` converted to ``kind``; a cell that does not convert names its line."""
    try:
        return table.astype(kind)
    except (ValueError, OverflowError):
        for line, cells in enumerate(table, start=first):
            try:
                np.asarray(cells).astype(kind)
            except (ValueError, OverflowError) as exc:
                raise _RowFault(check, line, f"bad {what}: {exc}") from exc
        raise


def _parse_rows(lines: list[str], first: int) -> Rows:
    """The rows of data lines of which the first is line ``first`` of the file,
    or a _RowFault for the first row of the first check they fail."""
    width = CSV_HEADER.count(",") + 1
    fields = [line.split(",") for line in lines]
    _refuse(np.array([len(cells) for cells in fields]) != width, first, 0, f"a row needs {width} fields")
    table = np.array(fields, dtype=object).reshape(len(fields), width)
    counts = _parse(table[:, 1:], np.int64, first, 1, "count")
    _refuse((counts < 0).any(axis=1), first, 2, "counts must be >= 0")
    # counts are >= 0, so a sum past int64 first shows as a negative partial sum
    sums = np.cumsum(counts, axis=1)
    _refuse((sums < 0).any(axis=1) | (sums[:, -1] == 0), first, 3, "counts must sum to 1 .. 2**63 - 1")
    return Rows(counts, table[:, 0].astype(str), sums[:, -1])


def _line_blocks(lines: Iterator[str]) -> Iterator[tuple[int, list[str]]]:
    """The data lines in blocks of up to ``CSV_BLOCK_ROWS``, each with the
    number of its first line; the header is line 1.  Blank lines that end the
    file are dropped.  A run of blank lines that a row follows yields only its
    first line, on its own: that line is the run's first refusal."""
    number, blank = 2, None
    while block := list(islice(lines, CSV_BLOCK_ROWS)):
        kept = len(block)
        while kept and not block[kept - 1].strip():
            kept -= 1
        if kept:
            if blank:
                yield blank
                blank = None
            yield number, block[:kept]
        if kept < len(block) and not blank:
            blank = number + kept, block[kept:kept + 1]
        number += len(block)


def load_dataset_csv(path) -> Rows:
    """Read back the rows of a dataset CSV; each bin's size is its counts' sum.

    A row is refused, with its line named, if it has the wrong number of
    fields, a count that is not a whole number within int64, a negative
    count, or counts that sum to 0 or past int64.  Lines are counted from the
    header, the first line that is not blank; any other header, the old
    15-column one too, is refused.  A file with several refused rows is
    refused for the first row of the earliest check in ``_parse_rows`` that
    any row fails, as if each check ran over the whole file before the next.
    """
    parts, fault = [], None
    with open(path) as file:
        header = next((line.strip() for line in file if line.strip()), "")
        if header != CSV_HEADER:
            raise ValueError(f"unexpected dataset header {header!r}")
        # a line keeps its newline, which int() ignores at the end of the last count
        for first, block in _line_blocks(file):
            try:
                parts.append(_parse_rows(block, first))
            except _RowFault as exc:
                if fault is None or exc.check < fault.check:
                    fault = exc
    if fault is not None:
        raise fault
    return concat_rows(parts) if parts else _parse_rows([], 2)


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
