import math

import numpy as np
import pytest
from scipy import stats

from photonvae import distributions
from photonvae.distributions import (
    PhotonPMF,
    PhysicsError,
    SourceKind,
    SourceSpec,
    coherent_pmf,
    mixed_pmf,
    pmf_mean,
    source_pmf,
    spacs_pmf,
    spats_pmf,
    thermal_pmf,
)

MEAN_GRID = [0.1, 0.5, 1.0, 1.3, 1.9, 3.0]


# --- coherent ---------------------------------------------------------------


@pytest.mark.parametrize("mean", MEAN_GRID)
def test_coherent_matches_scipy_poisson(mean):
    pmf = source_pmf(SourceSpec(SourceKind.COHERENT, mean))
    expected = stats.poisson.pmf(np.arange(pmf.n_max + 1), mean)
    np.testing.assert_allclose(pmf.probs, expected, rtol=0, atol=1e-13)


def test_coherent_vacuum():
    pmf = coherent_pmf(0.0, 5)
    assert pmf.probs[0] == 1.0
    assert np.all(pmf.probs[1:] == 0.0)


def test_coherent_frozen_value():
    assert coherent_pmf(1.0).probs[0] == pytest.approx(0.36787944117144233, abs=1e-12)


def test_coherent_partial_sum_tail():
    assert abs(coherent_pmf(1.3, 20).probs.sum() - 1.0) <= 1e-6


# --- thermal ----------------------------------------------------------------


@pytest.mark.parametrize("nbar", MEAN_GRID)
def test_thermal_matches_scipy_geometric(nbar):
    pmf = source_pmf(SourceSpec(SourceKind.THERMAL, nbar))
    expected = stats.geom.pmf(np.arange(pmf.n_max + 1), 1.0 / (1.0 + nbar), loc=-1)
    np.testing.assert_allclose(pmf.probs, expected, rtol=0, atol=1e-13)


def test_thermal_frozen_values():
    pmf = thermal_pmf(1.0, 40)
    assert pmf.probs[0] == pytest.approx(0.5, abs=1e-15)
    assert pmf.probs[1] == pytest.approx(0.25, abs=1e-15)


def test_thermal_vacuum():
    assert thermal_pmf(0.0, 4).probs[0] == 1.0


def test_thermal_mean_moment_sum():
    assert pmf_mean(thermal_pmf(1.0, 60)) == pytest.approx(1.0, abs=1e-6)


# --- single-photon-added coherent -------------------------------------------


def spacs_reference(alpha_sq, n_max):
    # direct factorial evaluation, independent of the iterative implementation
    pref = math.exp(-alpha_sq) / (1.0 + alpha_sq)
    out = [0.0]
    for n in range(1, n_max + 1):
        one = alpha_sq ** (n - 1) / math.factorial(n - 1)
        two = alpha_sq * alpha_sq ** (n - 2) / math.factorial(n - 2) if n >= 2 else 0.0
        out.append(pref * (one + two))
    return np.array(out)


@pytest.mark.parametrize("alpha_sq", MEAN_GRID)
def test_spacs_matches_factorial_form(alpha_sq):
    pmf = source_pmf(SourceSpec(SourceKind.SPACS, alpha_sq))
    np.testing.assert_allclose(pmf.probs, spacs_reference(alpha_sq, pmf.n_max), atol=1e-14)


@pytest.mark.parametrize("alpha_sq", [0.0, 0.3, 1.0, 2.5])
def test_spacs_no_vacuum_component(alpha_sq):
    assert spacs_pmf(alpha_sq, 30).probs[0] == 0.0


def test_spacs_frozen_value():
    assert spacs_pmf(1.0).probs[1] == pytest.approx(math.exp(-1) / 2, abs=1e-12)


def test_spacs_on_vacuum_is_single_photon():
    pmf = spacs_pmf(0.0, 6)
    assert pmf.probs[1] == 1.0
    assert pmf.probs.sum() == 1.0


def test_spacs_bright_limit_peak_position():
    pmf = spacs_pmf(25.0, 60)
    assert int(np.argmax(pmf.probs)) in (25, 26)


def test_spacs_mean_closed_form():
    # mean of the two-component shifted-Poissonian mixture
    for a in (0.3, 1.3, 2.0):
        pmf = spacs_pmf(a, 60)
        assert pmf_mean(pmf) == pytest.approx((1 + 3 * a + a * a) / (1 + a), abs=1e-9)


# --- single-photon-added thermal ---------------------------------------------


@pytest.mark.parametrize("nbar", MEAN_GRID)
def test_spats_matches_scipy_negative_binomial(nbar):
    pmf = source_pmf(SourceSpec(SourceKind.SPATS, nbar))
    n = np.arange(1, pmf.n_max + 1)
    expected = stats.nbinom.pmf(n - 1, 2, 1.0 / (1.0 + nbar))
    assert pmf.probs[0] == 0.0
    np.testing.assert_allclose(pmf.probs[1:], expected, rtol=0, atol=1e-13)


def test_spats_frozen_value():
    assert spats_pmf(1.0, 40).probs[1] == pytest.approx(0.25, abs=1e-15)


def test_spats_mean_identity():
    for nbar in (0.15, 0.45, 1.0, 2.0):
        assert pmf_mean(spats_pmf(nbar, 120)) == pytest.approx(2 * nbar + 1, abs=1e-5)


def test_spats_on_vacuum_is_single_photon():
    pmf = spats_pmf(0.0, 6)
    assert pmf.probs[1] == 1.0


# --- mixtures ------------------------------------------------------------------


def test_mixed_endpoints():
    base = coherent_pmf(1.0, 25)
    added = spacs_pmf(1.0, 25)
    np.testing.assert_array_equal(mixed_pmf(base, added, 1.0).probs, base.probs)
    np.testing.assert_array_equal(mixed_pmf(base, added, 0.0).probs, added.probs)


def test_mixed_midpoint():
    base = PhotonPMF(np.array([1.0, 0.0]))
    added = PhotonPMF(np.array([0.0, 1.0]))
    np.testing.assert_allclose(mixed_pmf(base, added, 0.5).probs, [0.5, 0.5])


def test_mixed_affine_in_ratio():
    base = thermal_pmf(0.8, 40)
    added = spats_pmf(0.8, 40)
    for r1, r2, lam in ((0.2, 0.9, 0.3), (0.0, 1.0, 0.5), (0.4, 0.6, 0.25)):
        left = lam * mixed_pmf(base, added, r1).probs + (1 - lam) * mixed_pmf(base, added, r2).probs
        right = mixed_pmf(base, added, lam * r1 + (1 - lam) * r2).probs
        np.testing.assert_allclose(left, right, atol=1e-12)


def test_mixed_rejects_mismatched_support():
    with pytest.raises(PhysicsError):
        mixed_pmf(coherent_pmf(1.0, 20), spacs_pmf(1.0, 25), 0.5)


def test_mixed_rejects_bad_ratio():
    base = coherent_pmf(1.0, 25)
    added = spacs_pmf(1.0, 25)
    with pytest.raises(PhysicsError):
        mixed_pmf(base, added, 1.5)


# --- moments and normalization ---------------------------------------------------


def test_pmf_mean_trivial():
    assert pmf_mean(PhotonPMF(np.array([1.0, 0.0, 0.0]))) == 0.0
    assert pmf_mean(PhotonPMF(np.array([0.0, 1.0, 0.0]))) == 1.0


def test_pmf_mean_poisson_identity():
    assert pmf_mean(coherent_pmf(1.3, 20)) == pytest.approx(1.3, abs=1e-5)


@pytest.mark.parametrize(
    "kind",
    [SourceKind.COHERENT, SourceKind.THERMAL, SourceKind.SPACS, SourceKind.SPATS],
)
@pytest.mark.parametrize("mean", MEAN_GRID)
def test_normalization_over_parameter_grid(kind, mean):
    total = source_pmf(SourceSpec(kind, mean)).probs.sum()
    assert 1.0 - 1e-6 <= total <= 1.0 + 1e-12


@pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0])
def test_normalization_mixed_kinds(ratio):
    for kind in (SourceKind.MIXED_COHERENT_SPACS, SourceKind.MIXED_THERMAL_SPATS):
        total = source_pmf(SourceSpec(kind, 1.3, ratio)).probs.sum()
        assert 1.0 - 1e-6 <= total <= 1.0 + 1e-12


# --- validation -------------------------------------------------------------------


def test_tail_bound_rejected_not_renormalized():
    with pytest.raises(PhysicsError):
        spats_pmf(1.3, 20)  # heavy tail: needs a higher truncation bound
    ok = spats_pmf(1.3, 40)  # auto choice for the same source
    assert ok.probs.sum() >= 1 - 1e-6


def test_negative_parameters_rejected():
    for builder in (coherent_pmf, thermal_pmf, spacs_pmf, spats_pmf):
        for value in (-0.5, math.nan, math.inf):
            with pytest.raises(PhysicsError, match="finite and >= 0"):
                builder(value, 20)


def test_photon_pmf_rejects_bad_vectors():
    with pytest.raises(PhysicsError):
        PhotonPMF(np.array([0.5, 0.4]))  # sum well below the tail bound
    with pytest.raises(PhysicsError):
        PhotonPMF(np.array([1.2, -0.2]))


def test_source_spec_canonicalizes_ratio():
    spec = SourceSpec(SourceKind.COHERENT, 1.0, 0.3)
    assert spec.mix_ratio == 1.0
    mixed = SourceSpec(SourceKind.MIXED_THERMAL_SPATS, 1.0, 0.3)
    assert mixed.mix_ratio == 0.3
    with pytest.raises(PhysicsError):
        SourceSpec(SourceKind.MIXED_THERMAL_SPATS, 1.0, 1.0001)
    with pytest.raises(PhysicsError):
        SourceSpec(SourceKind.THERMAL, -1.0)


def test_source_pmf_auto_growth():
    pmf = source_pmf(SourceSpec(SourceKind.SPATS, 1.3))
    assert pmf.n_max >= 40
    assert pmf.probs.sum() >= 1 - 1e-6


def test_auto_growth_stops_at_the_cap():
    # needs about 3,460 photon numbers: more than 2,560, fewer than 4,096
    assert source_pmf(SourceSpec(SourceKind.THERMAL, 250.0)).n_max == 4096


def test_auto_growth_failure_gives_no_n_max_advice():
    # needs about 4,150 photon numbers, beyond the automatic cap
    with pytest.raises(PhysicsError) as err:
        source_pmf(SourceSpec(SourceKind.THERMAL, 300.0))
    assert "raise n_max" not in str(err.value)
    assert "4096" in str(err.value)


def _pmf_at(source: SourceSpec, n_max: int) -> PhotonPMF:
    m, r = source.mean_param, source.mix_ratio
    return {
        SourceKind.COHERENT: lambda: coherent_pmf(m, n_max),
        SourceKind.THERMAL: lambda: thermal_pmf(m, n_max),
        SourceKind.SPACS: lambda: spacs_pmf(m, n_max),
        SourceKind.SPATS: lambda: spats_pmf(m, n_max),
        SourceKind.MIXED_COHERENT_SPACS:
            lambda: mixed_pmf(coherent_pmf(m, n_max), spacs_pmf(m, n_max), r),
        SourceKind.MIXED_THERMAL_SPATS:
            lambda: mixed_pmf(thermal_pmf(m, n_max), spats_pmf(m, n_max), r),
    }[source.kind]()


def doubling_source_pmf(source: SourceSpec) -> tuple[PhotonPMF | None, int]:
    """The oracle: build at n_max 20, 40, 80, ... up to 4096 and keep the first
    PMF that passes (None if none does), with the number of bounds tried."""
    bound, tried = 20, 0
    while True:
        tried += 1
        try:
            return _pmf_at(source, bound), tried
        except PhysicsError:
            if bound >= 4096:
                return None, tried
            bound = min(2 * bound, 4096)


AUTO_GROWTH_GRID = [
    SourceSpec(kind, mean, ratio)
    for kind in SourceKind
    for mean in [0.0, *np.geomspace(1e-3, 1e3, 121)]
    for ratio in ((0.0, 0.3, 1.0) if kind in distributions.MIXED_KINDS else (1.0,))
]


def test_auto_growth_matches_the_doubling_loop_byte_for_byte(monkeypatch):
    """source_pmf starts past the bounds its classical tail rules out, and
    returns the very PMF (or refusal) of trying every bound from 20 up, in
    at most two builds."""
    real_build = distributions._source_pmf_at
    built = []

    def counting_build(source, n_max):
        built.append(n_max)
        return real_build(source, n_max)

    oracle_tries = 0
    for source in AUTO_GROWTH_GRID:
        want, tried = doubling_source_pmf(source)
        oracle_tries += tried
        built.clear()
        monkeypatch.setattr(distributions, "_source_pmf_at", counting_build)
        try:
            got = source_pmf(source)
        except PhysicsError:
            got = None
        finally:
            monkeypatch.setattr(distributions, "_source_pmf_at", real_build)
        assert (got is None) == (want is None), source
        if want is not None:
            assert got.probs.tobytes() == want.probs.tobytes(), source
        assert len(built) <= min(tried, 2), (source, built)
    assert oracle_tries > len(AUTO_GROWTH_GRID) * 2


@pytest.mark.parametrize("kind", list(SourceKind))
def test_auto_growth_builds_once_on_nearly_every_call(kind, monkeypatch):
    """The first bound source_pmf builds at passes on all but a few of 160
    intensities from 0.05 to 8: for the thermal kinds the floor is the exact
    tail, for the coherent kinds one term of it."""
    real_build = distributions._source_pmf_at
    built = []

    def counting_build(source, n_max):
        built.append(n_max)
        return real_build(source, n_max)

    monkeypatch.setattr(distributions, "_source_pmf_at", counting_build)
    means = np.linspace(0.05, 8.0, 160)
    for mean in means:
        source_pmf(SourceSpec(kind, mean, 0.3))
    assert len(built) / len(means) <= 1.02


@pytest.mark.parametrize("kind", [SourceKind.COHERENT, SourceKind.SPACS])
def test_bright_poisson_sources_normalize(kind):
    # exp(-800) underflows to zero; the terms themselves do not
    a = 800.0
    pmf = source_pmf(SourceSpec(kind, a))
    assert 1.0 - 1e-6 <= pmf.probs.sum() <= 1.0 + 1e-12
    expected = a if kind is SourceKind.COHERENT else (1 + 3 * a + a * a) / (1 + a)
    assert pmf_mean(pmf) == pytest.approx(expected, rel=1e-9)


def test_truncated_view():
    pmf = coherent_pmf(0.5, 30)
    short = pmf.truncated(10)
    assert short.n_max == 10
    np.testing.assert_array_equal(short.probs, pmf.probs[:11])
