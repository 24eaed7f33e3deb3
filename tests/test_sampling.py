import dataclasses
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from blas_platform import blas_platform
from photonvae.detector import DetectorConfig, observed_chain
from photonvae.distributions import (
    PhotonPMF,
    PhysicsError,
    SourceKind,
    SourceSpec,
    pmf_mean,
    source_pmf,
)
from photonvae.sampling import (
    BLOCK_BINS,
    CSV_HEADER,
    META_FORMAT_VERSION,
    DatasetMeta,
    Rows,
    _draw,
    concat_rows,
    feature_matrix,
    generate_dataset,
    label_vector,
    load_dataset_csv,
    meta_to_dict,
    observed_click_pmf,
    split_rows,
    write_dataset_csv,
    write_dataset_meta,
)

LOSSLESS = DetectorConfig(6, 1.0)


def small_meta(bin_size=10, bins_per_class=40, seed=7, detector=LOSSLESS):
    return DatasetMeta(
        sources=(
            ("spacs", SourceSpec(SourceKind.SPACS, 1.3)),
            ("spats", SourceSpec(SourceKind.SPATS, 1.3)),
        ),
        detector=detector,
        bin_size=bin_size,
        bins_per_class=bins_per_class,
        seed=seed,
    )


# --- sampling --------------------------------------------------------------


def rows_of(counts, label="a"):
    """Rows holding the given click histograms; each bin size is its row sum."""
    counts = np.asarray(counts, dtype=np.int64)
    return Rows(counts, np.full(len(counts), label), counts.sum(axis=1))


def test_sample_counts_degenerate():
    zeros = _draw(PhotonPMF(np.array([1.0, 0.0])), 100, seed=0, class_index=0, n=50)
    assert np.all(zeros[:, 0] == 100) and np.all(zeros[:, 1:] == 0)
    ones = _draw(PhotonPMF(np.array([0.0, 1.0])), 100, seed=0, class_index=0, n=50)
    assert np.all(ones[:, 1] == 100) and ones.sum() == 50 * 100


def test_sample_counts_concentration():
    counts = _draw(PhotonPMF(np.array([0.5, 0.5])), 1000, seed=11, class_index=0, n=1000)
    # 10**6 windows; 4 sigma binomial bound
    assert abs(counts[:, 1].sum() / 10**6 - 0.5) < 0.002


def test_sample_counts_residual_tail_goes_to_n_max():
    pmf = PhotonPMF(np.array([0.0, 0.0, 1.0 - 5e-7]))  # tail 5e-7 unassigned
    counts = _draw(pmf, 8, seed=3, class_index=0, n=300)
    assert counts.shape == (300, 7)
    assert np.all(counts[:, 2] == 8)
    assert counts.sum() == 300 * 8


def test_empirical_matches_chain_probabilities():
    observed = observed_chain(source_pmf(SourceSpec(SourceKind.SPATS, 0.45)), DetectorConfig(4, 0.9))
    n = 5000 * 200
    pooled = _draw(observed, 200, seed=3, class_index=0, n=5000).sum(axis=0)
    empirical = pooled / n
    for k, p in enumerate(observed.probs):
        sigma = np.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(empirical[k] - p) <= 5 * sigma + 1e-9


def test_pooled_counts_pass_chi_square():
    # every window of every bin is one draw from the observed click PMF
    for source, detector in (
        (SourceSpec(SourceKind.SPATS, 1.3), LOSSLESS),
        (SourceSpec(SourceKind.THERMAL, 0.8), DetectorConfig(4, 0.7)),
    ):
        observed = observed_click_pmf(source_pmf(source), detector)
        dataset = generate_dataset(
            DatasetMeta((("x", source),), detector, bin_size=50, bins_per_class=2000, seed=21)
        )
        pooled = dataset.rows.counts.sum(axis=0)
        support = observed.probs > 1e-9
        assert pooled[~support].sum() == 0
        expected = observed.probs[support] / observed.probs[support].sum() * pooled.sum()
        assert stats.chisquare(pooled[support], expected).pvalue > 1e-3


# --- bins --------------------------------------------------------------------


def test_bin_statistics_direct_count():
    row = rows_of([[2, 2, 0, 0, 0, 0, 0]], label="lab")
    np.testing.assert_array_equal(feature_matrix(row, include_nbar=False)[0, :2], [0.5, 0.5])
    assert row.nbar_obs[0] == 0.5
    assert row.labels[0] == "lab" and row.bin_size[0] == 4


def test_bin_statistics_constant_counts():
    row = rows_of([[0, 0, 200, 0, 0, 0, 0]])
    assert feature_matrix(row, include_nbar=False)[0, 2] == 1.0
    assert row.nbar_obs[0] == 2.0


def test_bin_statistics_drops_trailing_remainder():
    # a range ending inside a block keeps only its own bins of that block
    observed = observed_click_pmf(source_pmf(SourceSpec(SourceKind.SPATS, 1.3)), LOSSLESS)
    assert _draw(observed, 20, seed=1, class_index=0, n=5).shape == (5, 7)


def test_bin_statistics_rejects_out_of_range(tmp_path):
    path = tmp_path / "bad.csv"
    for counts in ("-1,21,0,0,0,0,0", "21,-1,0,0,0,0,0", "0,0,0,0,0,0,-1"):
        path.write_text(f"{CSV_HEADER}\na,{counts}\n")
        with pytest.raises(ValueError, match=r"line 2: counts must be >= 0"):
            load_dataset_csv(path)


def test_bin_fractions_are_multiples_of_inverse_bin_size():
    rows = generate_dataset(small_meta(bin_size=200, bins_per_class=300)).rows
    scaled = feature_matrix(rows, include_nbar=False) * 200
    np.testing.assert_allclose(scaled, np.round(scaled), rtol=0, atol=1e-9)
    fractions = rows.counts / 200
    np.testing.assert_allclose(rows.nbar_obs, fractions @ np.arange(7), rtol=0, atol=1e-12)


def test_bin_mean_matches_chain_mean_within_three_sigma():
    # 2000 bins of 200 observations at the paper's lossy operating point
    source = SourceSpec(SourceKind.SPATS, 0.45)  # realized source mean 1.9
    detector = DetectorConfig(4, 0.9)
    observed = observed_chain(source_pmf(source), detector)
    counts = _draw(
        observed_click_pmf(source_pmf(source), detector), 200, seed=99, class_index=0, n=2000
    )
    grand_mean = float(np.mean(rows_of(counts).nbar_obs))
    mean = pmf_mean(observed)
    var = float(np.dot(np.arange(observed.probs.size) ** 2, observed.probs)) - mean**2
    sigma = np.sqrt(var / (2000 * 200))
    assert abs(grand_mean - mean) <= 3 * sigma


# --- dataset generation --------------------------------------------------------


def test_generate_dataset_row_count_and_balance():
    meta = small_meta(bin_size=10, bins_per_class=2000)
    dataset = generate_dataset(meta)
    assert len(dataset.rows) == 4000
    labels = dataset.rows.labels.tolist()
    assert labels.count("spacs") == labels.count("spats") == 2000
    assert np.all(dataset.rows.bin_size == 10)
    assert np.all(dataset.rows.counts.sum(axis=1) == 10)


def test_generate_dataset_deterministic():
    a = generate_dataset(small_meta())
    b = generate_dataset(small_meta())
    for column in ("counts", "labels", "bin_size"):
        np.testing.assert_array_equal(getattr(a.rows, column), getattr(b.rows, column))
    assert a.nbar_the == b.nbar_the


def test_generate_dataset_records_preloss_mean():
    dataset = generate_dataset(small_meta())
    assert dataset.nbar_the["spacs"] == pytest.approx((1 + 3 * 1.3 + 1.3**2) / 2.3, abs=1e-6)
    assert dataset.nbar_the["spats"] == pytest.approx(2 * 1.3 + 1, abs=1e-6)


# SHA-256 of the counts and pre-loss means of two small datasets, one per
# detector: any change to a source PMF, the detector chain or the block draws
# changes it.  Taken with numpy 2.4.6 and its bundled OpenBLAS 0.3.31 on the
# SkylakeX kernel
PINNED_DATASET_SHA256 = "d5874f3289762a20c277a9ed4f219d36c484af092a43115f11758c6947f30866"


def test_generated_counts_are_pinned():
    digest = hashlib.sha256()
    for detector in (LOSSLESS, DetectorConfig(4, 0.7)):
        dataset = generate_dataset(small_meta(bin_size=30, bins_per_class=300, detector=detector))
        digest.update(np.ascontiguousarray(dataset.rows.counts, dtype="<i8").tobytes())
        digest.update(np.array(list(dataset.nbar_the.values()), dtype="<f8").tobytes())
    assert digest.hexdigest() == PINNED_DATASET_SHA256, blas_platform()


def test_lossless_spacs_has_no_vacuum_clicks():
    rows = generate_dataset(small_meta(bin_size=50, bins_per_class=60)).rows
    assert np.all(rows.counts[rows.labels == "spacs", 0] == 0)


def test_saturated_source_generates_all_six_click_bins():
    source = SourceSpec(SourceKind.COHERENT, 700.0)
    meta = DatasetMeta((("bright", source),), DetectorConfig(6, 0.5), 30, 300, seed=4)
    counts = generate_dataset(meta).rows.counts
    assert np.all(counts[:, 6] == 30) and counts[:, :6].sum() == 0


def test_shorter_draw_is_a_prefix_of_a_longer_one():
    observed = observed_click_pmf(source_pmf(SourceSpec(SourceKind.SPATS, 1.3)), LOSSLESS)
    longest = _draw(observed, 25, seed=42, class_index=1, n=600)
    assert BLOCK_BINS == 256  # the lengths below fall off block boundaries
    for n in (5, 100, 513):
        np.testing.assert_array_equal(_draw(observed, 25, seed=42, class_index=1, n=n), longest[:n])


def test_bin_streams_are_independent_of_order():
    # one class's bins do not depend on which other classes are generated
    spacs = ("spacs", SourceSpec(SourceKind.SPACS, 1.3))
    with_spats = generate_dataset(small_meta()).rows
    with_coherent = generate_dataset(
        DatasetMeta((spacs, ("coh", SourceSpec(SourceKind.COHERENT, 1.3))), LOSSLESS, 10, 40, seed=7)
    ).rows
    np.testing.assert_array_equal(
        with_spats.counts[with_spats.labels == "spacs"],
        with_coherent.counts[with_coherent.labels == "spacs"],
    )
    spats = observed_click_pmf(source_pmf(SourceSpec(SourceKind.SPATS, 1.3)), LOSSLESS)
    np.testing.assert_array_equal(
        with_spats.counts[with_spats.labels == "spats"],
        _draw(spats, 10, seed=7, class_index=1, n=40),
    )
    # the class index and the seed both key the stream
    for seed, class_index in ((7, 0), (8, 1)):
        assert not np.array_equal(
            _draw(spats, 10, seed=seed, class_index=class_index, n=40),
            _draw(spats, 10, seed=7, class_index=1, n=40),
        )


def test_observed_click_pmf_support_guard():
    # 10 detectors at unit efficiency let a bright source exceed 6 clicks
    with pytest.raises(PhysicsError):
        observed_click_pmf(source_pmf(SourceSpec(SourceKind.COHERENT, 3.0)), DetectorConfig(10, 1.0))
    ok = observed_click_pmf(source_pmf(SourceSpec(SourceKind.COHERENT, 3.0)), LOSSLESS)
    assert ok.n_max == 6


def test_dataset_meta_validation():
    with pytest.raises(ValueError):
        DatasetMeta(
            sources=(("a", SourceSpec(SourceKind.COHERENT, 1.0)), ("a", SourceSpec(SourceKind.THERMAL, 1.0))),
            detector=LOSSLESS,
            bin_size=10,
            bins_per_class=5,
            seed=0,
        )
    with pytest.raises(ValueError):
        DatasetMeta(sources=(), detector=LOSSLESS, bin_size=10, bins_per_class=5, seed=0)


# --- splits ----------------------------------------------------------------------


def sorted_rows(rows):
    return sorted(zip(rows.labels.tolist(), map(tuple, rows.counts.tolist())))


def test_split_rows_stratified_and_deterministic():
    dataset = generate_dataset(small_meta(bins_per_class=100))
    train, val, test = split_rows(dataset.rows, seed=5)
    assert len(train) == 160 and len(val) == 20 and len(test) == 20
    for part in (train, val, test):
        labels = part.labels.tolist()
        assert labels.count("spacs") == labels.count("spats")
    for part, again in zip((train, val, test), split_rows(dataset.rows, seed=5)):
        np.testing.assert_array_equal(part.counts, again.counts)
        np.testing.assert_array_equal(part.labels, again.labels)
    assert sorted_rows(concat_rows([train, val, test])) == sorted_rows(dataset.rows)


# --- features ----------------------------------------------------------------------


def test_feature_matrix_shapes_and_values():
    row = rows_of([[5, 3, 2, 0, 0, 0, 0]])
    plain = feature_matrix(row, include_nbar=False)
    assert plain.shape == (1, 5)
    np.testing.assert_allclose(plain[0], [0.5, 0.3, 0.2, 0.0, 0.0])
    with_nbar = feature_matrix(row, include_nbar=True)
    assert with_nbar.shape == (1, 6)
    assert with_nbar[0, 5] == 0.7


def test_label_vector_mapping_and_rejection():
    rows = concat_rows([rows_of([[4, 0, 0, 0, 0, 0, 0]], "b"), rows_of([[4, 0, 0, 0, 0, 0, 0]], "a")])
    np.testing.assert_array_equal(label_vector(rows, ["a", "b"]), [1, 0])
    with pytest.raises(ValueError):
        label_vector(rows, ["a"])


# --- file round trips -----------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    dataset = generate_dataset(small_meta(bin_size=30, bins_per_class=15, detector=DetectorConfig(4, 0.9)))
    path = tmp_path / "data.csv"
    write_dataset_csv(path, dataset)
    rows = load_dataset_csv(path)
    assert len(rows) == len(dataset.rows)
    np.testing.assert_array_equal(rows.counts, dataset.rows.counts)
    np.testing.assert_array_equal(rows.labels, dataset.rows.labels)
    np.testing.assert_array_equal(rows.bin_size, dataset.rows.bin_size)
    for include_nbar in (False, True):
        np.testing.assert_array_equal(
            feature_matrix(rows, include_nbar), feature_matrix(dataset.rows, include_nbar)
        )


def test_csv_lines_match_per_row_formatting(tmp_path):
    # the writer formats a block of rows at a time; this is the per-row form
    dataset = generate_dataset(small_meta(bin_size=30, bins_per_class=20, detector=DetectorConfig(4, 0.9)))
    path = tmp_path / "data.csv"
    write_dataset_csv(path, dataset)
    want = [CSV_HEADER]
    for counts, label in zip(dataset.rows.counts.tolist(), dataset.rows.labels.tolist()):
        assert sum(counts) == 30
        want.append(",".join([label] + ["%d" % c for c in counts]))
    assert path.read_text() == "\n".join(want) + "\n"


# SHA-256 of the file ``write_dataset_csv`` writes for 1,103 rows of a
# generated dataset; 1,103 is prime, so no block of 2 to 1,102 rows divides it.
# Taken with numpy 2.4.6 and its bundled OpenBLAS 0.3.31 on the SkylakeX kernel
PINNED_CSV_SHA256 = "8fea9a9c6c02490eb08844c3f052cfd694c3491584ca21b5bd8ffd56fece0fba"


def test_csv_file_is_pinned_and_reads_back_whole(tmp_path):
    dataset = generate_dataset(small_meta(bin_size=30, bins_per_class=560, detector=DetectorConfig(4, 0.9)))
    dataset = dataclasses.replace(dataset, rows=dataset.rows.take(slice(None, 1103)))
    path = tmp_path / "data.csv"
    write_dataset_csv(path, dataset)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CSV_SHA256, blas_platform()
    rows = load_dataset_csv(path)
    for name in ("counts", "labels", "bin_size"):
        want, got = getattr(dataset.rows, name), getattr(rows, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_csv_write_is_byte_stable(tmp_path):
    dataset = generate_dataset(small_meta())
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_dataset_csv(first, dataset)
    write_dataset_csv(second, dataset)
    assert first.read_bytes() == second.read_bytes()


def test_csv_memory_does_not_hold_the_file(tmp_path):
    """tracemalloc sees numpy's buffers and the Python strings of the cells.
    Writing holds one block of rows as text at a time, and reading one block
    of cells besides the parsed blocks and the returned rows."""
    dataset = generate_dataset(small_meta(bin_size=10, bins_per_class=10000))
    path = tmp_path / "data.csv"
    tracemalloc.start()
    try:
        write_dataset_csv(path, dataset)
        written = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        rows = load_dataset_csv(path)
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 20000
    assert written < 1 << 20
    assert read < 3 * (rows.counts.nbytes + rows.labels.nbytes + rows.bin_size.nbytes)


def test_meta_sidecar_round_trip(tmp_path):
    dataset = generate_dataset(small_meta())
    payload = meta_to_dict(dataset)
    assert payload["format_version"] == META_FORMAT_VERSION == 2
    assert (payload["seed"], payload["bin_size"], payload["bins_per_class"]) == (7, 10, 40)
    assert payload["detector"] == {"n_detectors": 6, "efficiency": 1.0}
    assert payload["classes"] == [
        {"label": kind, "kind": kind, "mean_param": 1.3, "mix_ratio": 1.0,
         "nbar_the": dataset.nbar_the[kind]}
        for kind in ("spacs", "spats")
    ]
    assert payload["row_count"] == len(dataset.rows) == 80
    path = tmp_path / "meta.json"
    write_dataset_meta(path, dataset)
    assert path.read_text().startswith("{")
    assert json.loads(path.read_text()) == payload


def test_load_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_dataset_csv(path)
    # the 15-column format of earlier files: fractions, nbar_obs, label, bin_size
    # and copies of the sidecar's fields
    old = "p0,p1,p2,p3,p4,p5,p6,nbar_obs,label,bin_size,eta,n_detectors,nbar_the,source_kind,mix_ratio"
    path.write_text(f"{old}\n0.5,0.25,0.25,0,0,0,0,0.75,a,20,1,6,1.3,spacs,1\n")
    with pytest.raises(ValueError, match=re.escape(f"unexpected dataset header {old!r}")):
        load_dataset_csv(path)


GOOD_ROW = "a,10,5,5,0,0,0,0"
# one faulty row per check, in the order each row goes through the checks; the
# last two fail one check, a bin size (the counts' sum) of 0 or past int64
FAULTY_ROWS = {
    "fields": "a,10,5,5,0,0,0",
    "count": "a,10,5,x,0,0,0,0",
    "negative": "a,10,-5,15,0,0,0,0",
    "bin_size": "a,0,0,0,0,0,0,0",
    "sum": f"a,{2**63 - 1},1,0,0,0,0,0",
}


@pytest.mark.parametrize("bad, problem", [
    pytest.param(FAULTY_ROWS["fields"], "a row needs 8 fields", id="too_few_fields"),
    pytest.param("a,10,5,5,0,0,0,0,0", "a row needs 8 fields", id="too_many_fields"),
    pytest.param(FAULTY_ROWS["count"], "bad count", id="count_not_a_number"),
    pytest.param("a,10,5.5,4.5,0,0,0,0", "bad count", id="fractional_count"),
    pytest.param(f"a,{2**63},0,0,0,0,0,0", "bad count", id="count_past_int64"),
    pytest.param(FAULTY_ROWS["negative"], r"counts must be >= 0", id="negative_count"),
    pytest.param(FAULTY_ROWS["bin_size"], r"counts must sum to 1 \.\. 2\*\*63 - 1", id="zero_sum"),
    pytest.param(FAULTY_ROWS["sum"], r"counts must sum to 1 \.\. 2\*\*63 - 1", id="sum_past_int64"),
    # the last line of ``bad`` is the faulty row, past line 1,000
    pytest.param("\n".join([GOOD_ROW] * 1200 + [FAULTY_ROWS["count"]]), "bad count",
                 id="bad_count_on_line_1204"),
    pytest.param("\n".join([GOOD_ROW] * 1200 + [FAULTY_ROWS["bin_size"]]), "counts must sum to 1",
                 id="bad_sum_on_line_1204"),
])
def test_load_refuses_rows_that_are_not_whole_bins(tmp_path, bad, problem):
    path = tmp_path / "bad.csv"
    path.write_text(f"{CSV_HEADER}\n{GOOD_ROW}\n{GOOD_ROW}\n{bad}\n")
    with pytest.raises(ValueError, match=f"line {4 + bad.count(chr(10))}: {problem}"):
        load_dataset_csv(path)
    path.write_text(f"{CSV_HEADER}\n{GOOD_ROW}\n")
    assert len(load_dataset_csv(path)) == 1


@pytest.mark.parametrize("text, want", [
    (f"{CSV_HEADER}\n", 0),
    (f"{CSV_HEADER}", 0),
    (f"{CSV_HEADER}\n{GOOD_ROW}\n \n\t\n\n", 1),
    # trailing blank lines longer than a block of rows
    (f"{CSV_HEADER}\n" + f"{GOOD_ROW}\n" * 300 + "\n" * 700 + "  \n", 300),
    # a file is read from its first line that is not blank, its header
    (f"\n \n  {CSV_HEADER}\n{GOOD_ROW}\n", 1),
    (f"{CSV_HEADER}\n\n{GOOD_ROW}\n", "line 2: a row needs 8 fields"),
    (f"{CSV_HEADER}\n" + f"{GOOD_ROW}\n" * 250 + " \n" * 20 + f"{GOOD_ROW}\n", "line 252: a row needs 8 fields"),
    # lines are counted from the header, so the bad row on the fifth line is line 4
    (f" \n{CSV_HEADER}\n{GOOD_ROW}\n{GOOD_ROW}\n{FAULTY_ROWS['fields']}\n", "line 4: a row needs 8 fields"),
    ("", "unexpected dataset header ''"),
    (" \n\n", "unexpected dataset header ''"),
], ids=["header_only", "header_without_newline", "trailing_blank_lines", "long_blank_tail",
        "blank_lines_before_header", "blank_line_between_rows", "blank_run_between_rows",
        "lines_counted_from_header", "empty", "blank"])
def test_load_reads_blank_lines_only_around_the_table(tmp_path, text, want):
    path = tmp_path / "data.csv"
    path.write_text(text)
    if isinstance(want, str):
        with pytest.raises(ValueError, match=re.escape(want)):
            load_dataset_csv(path)
    else:
        rows = load_dataset_csv(path)
        assert rows.counts.shape == (want, 7) and len(rows.bin_size) == want
        np.testing.assert_array_equal(rows.counts, np.tile([10, 5, 5, 0, 0, 0, 0], (want, 1)))


@pytest.mark.parametrize("first, last", [("bin_size", "fields"), ("sum", "count"), ("bin_size", "negative")])
def test_load_names_the_first_faulty_line(tmp_path, first, last):
    """Of two faulty rows far apart, the first is named, even where the later
    one fails a check that comes before the first row's."""
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([CSV_HEADER, FAULTY_ROWS[first]] + [GOOD_ROW] * 1200
                              + [FAULTY_ROWS[last]]) + "\n")
    with pytest.raises(ValueError, match=re.escape("line 2: counts must sum to 1 .. 2**63 - 1")):
        load_dataset_csv(path)


def _first_fault(line: str) -> str | None:
    """The problem of one data line, checked on its own in plain Python."""
    cells = line.split(",")
    if len(cells) != 8:
        return "a row needs 8 fields"
    try:
        counts = [int(cell) for cell in cells[1:]]
    except ValueError:
        return "bad count"
    if any(not -2**63 <= count < 2**63 for count in counts):
        return "bad count"
    if any(count < 0 for count in counts):
        return "counts must be >= 0"
    if not 1 <= sum(counts) < 2**63:
        return "counts must sum to 1 .. 2**63 - 1"
    return None


_GOOD_ROWS = st.builds(
    lambda label, counts: f"{label},{','.join(map(str, counts))}",
    st.sampled_from("ab"), st.lists(st.integers(0, 40), min_size=7, max_size=7).filter(any),
)
# a file is up to six runs, each of one line repeated up to 300 times, so a
# file can cross the edge of a 256-line block
_RUNS = st.lists(st.tuples(
    st.one_of(_GOOD_ROWS, _GOOD_ROWS, st.sampled_from([*FAULTY_ROWS.values(), f"a,{2**63},0,0,0,0,0,0",
                                                       "a,10,5,5,0,0,0,0,0", "", " "])),
    st.integers(1, 300),
), max_size=6)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(runs=_RUNS)
def test_load_refuses_the_line_a_per_line_check_refuses_first(tmp_path_factory, runs):
    """The reader returns the rows, or refuses the first line that fails a
    check with that line's first problem, as a per-line check finds them."""
    lines = [line for line, repeat in runs for _ in range(repeat)]
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text("\n".join([CSV_HEADER, *lines]) + "\n")
    while lines and not lines[-1].strip():
        lines.pop()
    faults = [(number, fault) for number, line in enumerate(lines, start=2) if (fault := _first_fault(line))]
    if faults:
        with pytest.raises(ValueError, match=re.escape("line {}: {}".format(*faults[0]))):
            load_dataset_csv(path)
        return
    rows = load_dataset_csv(path)
    cells = [line.split(",") for line in lines]
    assert rows.labels.tolist() == [row[0] for row in cells]
    np.testing.assert_array_equal(rows.counts, np.array([row[1:] for row in cells], dtype=np.int64).reshape(-1, 7))
    np.testing.assert_array_equal(rows.bin_size, rows.counts.sum(axis=1))
