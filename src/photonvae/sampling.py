"""Seeded Monte Carlo click sampling and labeled dataset emission, in columns.

A dataset holds its bins as arrays: the occurrences of 0..6 clicks in each bin,
its label and its bin size.  That recorded range lives in this module alone:
``observed_click_pmf`` cuts or zero-pads the detector's click PMF over 0..N
clicks to the 7 recorded entries.  One class's bins are drawn in blocks of
``BLOCK_BINS``, one multinomial draw per block from a stream keyed by (dataset
seed, class index, block index).

A dataset CSV row is a bin's label and its counts of windows with 0..6 clicks,
whose sum is the bin size; only the ``*.meta.json`` sidecar records what
regenerates the dataset.  The CSV is written and read in blocks of
``CSV_BLOCK_ROWS`` rows, as is the latent CSV of ``workflows``.  The text of a
block is several times the bytes of its parsed rows, so a whole-file table
would cost more memory than the rows it holds; a block of a few hundred rows
keeps numpy's per-call cost small and the text of one block in memory at a
time.  A block is written with one ``%`` format, and its labels and counts
are parsed by numpy's C parser (``np.loadtxt``).  A block that parser refuses,
or that holds text it reads otherwise than ``int()`` does (a non-ASCII
character or one of the ASCII separators 0x1C..0x1F), is read cell by cell
with ``int()``, which accepts what ``int()`` accepts (``1_0``, non-ASCII
decimal digits) and names the first faulty line of the block.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from itertools import islice
from numbers import Integral
from pathlib import Path

import numpy as np

# apply_click_model is called through its module, whose binding perfbench/tracer.py wraps
from . import detector as _detector
from .detector import DetectorConfig
from .distributions import (
    TAIL_BOUND,
    PhotonPMF,
    PhysicsError,
    SourceSpec,
    pmf_mean,
    source_pmf,
)

CSV_HEADER = "label,c0,c1,c2,c3,c4,c5,c6"
CSV_FIELDS = CSV_HEADER.count(",") + 1
CSV_BLOCK_ROWS = 256
# a block with a longer line is read cell by cell: numpy's parser would be
# given a label field that long for each line of the block, and would read a
# count of more digits than int() reads at its lowest digit limit, 640
_C_PARSED_LINE = 640

# a dataset records the windows of each bin that saw 0..6 clicks
MAX_RECORDED_CLICKS = 6
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
        for name, least in (("bin_size", 1), ("bins_per_class", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
                raise ValueError(f"{name} must be a whole number >= {least}, got {value!r}")
            # a numpy integer is stored as an int, which the sidecar can write as JSON
            object.__setattr__(self, name, int(value))


@dataclass(frozen=True)
class Dataset:
    """Generated rows with what regenerates them (``meta``) and, per label, the
    realized pre-loss source mean ``nbar_the``, which the sidecar records."""

    rows: Rows
    meta: DatasetMeta
    nbar_the: dict[str, float]


def observed_click_pmf(source: PhotonPMF, detector: DetectorConfig) -> PhotonPMF:
    """The click PMF of a source's photon-number PMF through the detector
    chain, over the recorded 0..6 clicks: cut there, or zero-padded out to it.

    Configurations whose click distribution carries more than the tail bound
    above 6 clicks cannot produce valid dataset rows and are rejected.
    """
    clicks = _detector.apply_click_model(source, detector).probs
    excess = float(clicks[MAX_RECORDED_CLICKS + 1 :].sum())
    if excess > TAIL_BOUND:
        raise PhysicsError(
            f"click distribution has {excess:.3g} probability above "
            f"{MAX_RECORDED_CLICKS} clicks; reduce n_detectors or the source intensity"
        )
    recorded = np.zeros(MAX_RECORDED_CLICKS + 1)
    recorded[: clicks.size] = clicks[: recorded.size]
    return PhotonPMF(recorded)


def _draw(observed: PhotonPMF, bin_size: int, seed: int, class_index: int, n: int) -> np.ndarray:
    """Click histograms of one class's first ``n`` bins, shape (n, 7).

    Block b holds bins [b * BLOCK_BINS, (b + 1) * BLOCK_BINS) and is drawn from
    its own stream keyed (seed, class_index, b).  A multinomial draw takes its
    rows from the stream in order, so the bins of a block that ``n`` cuts short
    are the first rows of the whole block's draw.  The multinomial gives its
    last category what the others leave, so residual tail mass lands on n_max.
    """
    counts = np.zeros((n, MAX_RECORDED_CLICKS + 1), dtype=np.int64)
    for b, start in enumerate(range(0, n, BLOCK_BINS)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(class_index, b)))
        counts[start:start + BLOCK_BINS, : observed.n_max + 1] = rng.multinomial(
            bin_size, observed.probs, size=min(BLOCK_BINS, n - start)
        )
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
    line = "%s" + ",%d" * (CSV_FIELDS - 1) + "\n"
    with open(path, "w") as file:
        file.write(CSV_HEADER + "\n")
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows.take(slice(start, start + CSV_BLOCK_ROWS))
            cells = np.empty((len(block), CSV_FIELDS), dtype=object)
            cells[:, 0] = block.labels
            cells[:, 1:] = block.counts
            file.write(line * len(block) % tuple(cells.ravel().tolist()))


def _c_parsed(lines: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """The counts and labels of ``lines`` from numpy's C parser, or None if a
    line does not hold exactly ``CSV_FIELDS`` fields or is longer than
    ``_C_PARSED_LINE``, the block holds a NUL or a character that parser
    reads where ``int()`` refuses it, or the parser refuses a count."""
    if not lines:  # loadtxt would warn that its input holds no data
        return None
    text = "".join(lines)
    width = max(map(len, lines))  # a label is at most a line long
    # numpy's integer parser misreads text that int() refuses: it takes some
    # non-ASCII characters for digits worth their code point minus 48 ("1①"
    # as 9274), crashes the process on some that start a field (U+792DA), and
    # skips the separators \x1c..\x1f as whitespace.  A numpy string drops
    # the NULs that end it, so a label's width is read only from NUL-free text
    if (width > _C_PARSED_LINE or not text.isascii()
            or any(char in text for char in "\x00\x1c\x1d\x1e\x1f")):
        return None
    # an ASCII label is read as bytes, a quarter of its width as str
    fields = [("label", f"S{width}"), ("counts", np.int64, CSV_FIELDS - 1)]
    try:
        # with a field per column, loadtxt refuses a line of any other field
        # count.  numpy 1.x reads an integer via a float ("5.5" as 5) with a
        # DeprecationWarning; as an error it sends the block to the int() reader
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(lines, delimiter=",", dtype=fields, comments=None, ndmin=1)
    except (ValueError, OverflowError, DeprecationWarning):
        return None
    if len(table) != len(lines):  # it skips an empty line
        return None
    # the labels in the width of the longest, which np.array would give them:
    # through the last byte column of the label field where a row is not NUL padding
    used = table.view(np.uint8).reshape(len(table), -1)[:, :width].any(axis=0)
    labels = table["label"].astype(f"U{used.nonzero()[0].max(initial=0) + 1}")
    return np.ascontiguousarray(table["counts"]), labels


def _parse_cells(lines: list[str], first: int) -> tuple[np.ndarray, np.ndarray]:
    """The counts and labels of ``lines`` read cell by cell with ``int()``; a
    ValueError names the first line with the wrong field count or a bad count,
    unless a line before it fails a later check."""
    fields = [line.split(",") for line in lines]
    n = next((i for i, cells in enumerate(fields) if len(cells) != CSV_FIELDS), None)
    if n is not None:
        _parse_rows(lines[:n], first)  # a line before n may fail a later check
        raise ValueError(f"line {first + n}: a row needs {CSV_FIELDS} fields")
    table = np.array(fields, dtype=object).reshape(len(fields), CSV_FIELDS)
    try:
        return table[:, 1:].astype(np.int64), table[:, 0].astype(str)
    except (ValueError, OverflowError):
        for n, cells in enumerate(table[:, 1:]):
            try:
                cells.astype(np.int64)
            except (ValueError, OverflowError) as exc:
                _parse_rows(lines[:n], first)
                raise ValueError(f"line {first + n}: bad count: {exc}") from exc
        raise


def _parse_rows(lines: list[str], first: int) -> Rows:
    """The rows of ``lines``, of which the first is line ``first`` of the file;
    a ValueError names the first faulty line and the first check it fails."""
    counts, labels = _c_parsed(lines) or _parse_cells(lines, first)
    # with no negative count, a sum past int64 first shows as a negative partial sum
    sums = np.cumsum(counts, axis=1)
    if not (counts.min(initial=0) >= 0 <= sums.min(initial=0) and sums[:, -1].all()):
        negative = (counts < 0).any(axis=1)
        i = int(np.argmax(negative | (sums < 0).any(axis=1) | (sums[:, -1] == 0)))
        problem = "counts must be >= 0" if negative[i] else "counts must sum to 1 .. 2**63 - 1"
        raise ValueError(f"line {first + i}: {problem}")
    return Rows(counts, labels, sums[:, -1])


def load_dataset_csv(path) -> Rows:
    """Read back the rows of a dataset CSV; each bin's size is its counts' sum.

    A row is refused if it has the wrong number of fields, a count that is not
    a whole number within int64, a negative count, or counts that sum to 0 or
    past int64.  The file is refused at its first such line, named with the
    first of these checks it fails, and read no further.  Lines are counted
    from the header, the first line that is not blank; any other header, the
    old 15-column one too, is refused.  Blank lines that end the file are
    dropped; any other blank line is a row of one field.
    """
    parts, number, blank = [], 2, None
    with open(path) as file:
        header = next((line.strip() for line in file if line.strip()), "")
        if header != CSV_HEADER:
            raise ValueError(f"unexpected dataset header {header!r}")
        # a line keeps its newline, which int() ignores at the end of the last count
        while block := list(islice(file, CSV_BLOCK_ROWS)):
            kept = len(block)
            while kept and not block[kept - 1].strip():
                kept -= 1
            if kept:
                if blank:  # the first of a run of blank lines that a row follows
                    raise ValueError(f"line {blank}: a row needs {CSV_FIELDS} fields")
                parts.append(_parse_rows(block[:kept], number))
            if kept < len(block) and not blank:
                blank = number + kept
            number += len(block)
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
