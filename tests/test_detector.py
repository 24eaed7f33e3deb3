import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from photonvae.detector import (
    MAX_RECORDED_CLICKS,
    DetectorConfig,
    apply_click_model,
    apply_efficiency,
    chain_mean,
    click_coefficients,
    observed_chain,
)
from photonvae.distributions import (
    _SUM_EXCESS,
    TAIL_BOUND,
    PhotonPMF,
    PhysicsError,
    SourceKind,
    SourceSpec,
    coherent_pmf,
    pmf_mean,
    source_pmf,
    thermal_pmf,
)


def enumerate_click_row(n_detectors: int, j: int) -> np.ndarray:
    """Brute-force C[., j] by walking all n_detectors**j photon-to-detector assignments.

    Exponential in j; intended as the independent cross-check for small cases.
    """
    counts = np.zeros(n_detectors + 1, dtype=np.int64)
    for assignment in itertools.product(range(n_detectors), repeat=j):
        counts[len(set(assignment))] += 1
    return counts / float(n_detectors**j)


# --- click coefficients -------------------------------------------------------


@pytest.mark.parametrize("n_detectors", [1, 2, 3, 4])
def test_click_coefficients_match_enumeration(n_detectors):
    coeffs = click_coefficients(n_detectors, 8)
    for j in range(9):
        np.testing.assert_allclose(
            coeffs[:, j], enumerate_click_row(n_detectors, j), atol=1e-12
        )


@pytest.mark.parametrize("n_detectors", [1, 2, 3, 4, 5, 6])
def test_click_coefficients_closure(n_detectors):
    coeffs = click_coefficients(n_detectors, 12)
    sums = coeffs.sum(axis=0)
    np.testing.assert_allclose(sums, np.ones(13), atol=1e-12)


@pytest.mark.parametrize("n_detectors", [2, 3, 4, 5, 6])
def test_click_coefficients_no_collision_diagonal(n_detectors):
    coeffs = click_coefficients(n_detectors, n_detectors)
    for j in range(1, n_detectors + 1):
        falling = math.prod(range(n_detectors, n_detectors - j, -1))
        assert coeffs[j, j] == pytest.approx(falling / n_detectors**j, abs=1e-12)


def test_click_coefficients_known_values():
    for n_detectors in (1, 2, 4, 6):
        assert click_coefficients(n_detectors, 2)[1, 1] == 1.0
    two = click_coefficients(2, 4)
    assert two[1, 2] == pytest.approx(0.5, abs=1e-15)
    assert two[2, 2] == pytest.approx(0.5, abs=1e-15)
    four = click_coefficients(4, 4)
    assert four[1, 2] == pytest.approx(0.25, abs=1e-15)
    assert four[2, 2] == pytest.approx(0.75, abs=1e-15)


def test_click_coefficients_structural_zeros():
    coeffs = click_coefficients(3, 6)
    assert coeffs[0, 0] == 1.0
    for j in range(1, 7):
        assert coeffs[0, j] == 0.0
    for n in range(1, 4):
        for j in range(n):
            assert coeffs[n, j] == 0.0


# --- efficiency thinning ---------------------------------------------------------


def test_efficiency_identity():
    pmf = thermal_pmf(0.9, 25)
    np.testing.assert_array_equal(apply_efficiency(pmf, 1.0).probs, pmf.probs)


def test_efficiency_single_photon_bernoulli():
    pmf = PhotonPMF(np.array([0.0, 1.0]))
    np.testing.assert_allclose(apply_efficiency(pmf, 0.5).probs, [0.5, 0.5], atol=1e-15)


def test_poisson_thinning_identity():
    thinned = apply_efficiency(coherent_pmf(2.0, 40), 0.3)
    expected = stats.poisson.pmf(np.arange(16), 0.6)
    np.testing.assert_allclose(thinned.probs[:16], expected, atol=1e-9)


@pytest.mark.parametrize("eta", [0.1, 0.45, 0.9])
def test_thinning_scales_mean(eta):
    for pmf in (coherent_pmf(1.9, 40), thermal_pmf(1.3, 60), source_pmf(SourceSpec(SourceKind.SPATS, 0.45))):
        assert pmf_mean(apply_efficiency(pmf, eta)) == pytest.approx(eta * pmf_mean(pmf), abs=1e-9)


@pytest.mark.parametrize("eta", [0.0, -0.2, 1.0001])
def test_efficiency_range_rejected(eta):
    with pytest.raises(PhysicsError):
        apply_efficiency(coherent_pmf(1.0, 20), eta)
    with pytest.raises(PhysicsError):
        apply_click_model(coherent_pmf(1.0, 20), 4, eta)


def test_efficiency_keeps_mass_where_eta_to_the_n_underflows():
    # 0.2**n underflows from n = 463 on, well inside this source's support
    pmf = thermal_pmf(300, 5000)
    thinned = apply_efficiency(pmf, 0.2)
    assert abs(thinned.probs.sum() - pmf.probs.sum()) <= TAIL_BOUND


# --- click collapse ----------------------------------------------------------------


def test_click_model_vacuum_passthrough():
    pmf = PhotonPMF(np.array([1.0] + [0.0] * 10))
    out = apply_click_model(pmf, 4)
    assert out.probs[0] == 1.0
    assert out.probs[1:].sum() == 0.0


def test_click_model_single_photon():
    pmf = PhotonPMF(np.array([0.0, 1.0]))
    for n_detectors in (1, 2, 4, 7):
        out = apply_click_model(pmf, n_detectors)
        assert out.probs[1] == 1.0


def test_click_model_two_photons_two_detectors():
    pmf = PhotonPMF(np.array([0.0, 0.0, 1.0]))
    out = apply_click_model(pmf, 2)
    np.testing.assert_allclose(out.probs[:3], [0.0, 0.5, 0.5], atol=1e-15)


def test_click_model_pads_to_recorded_range():
    out = apply_click_model(PhotonPMF(np.array([0.0, 1.0])), 2)
    assert out.n_max == MAX_RECORDED_CLICKS
    assert out.probs[2:].sum() == 0.0


def test_click_model_support_bounded_by_detectors():
    pmf = coherent_pmf(3.0, 25)
    out = apply_click_model(pmf, 4)
    assert out.probs[5:].sum() == 0.0
    assert out.probs.sum() == pytest.approx(pmf.probs.sum(), abs=1e-12)


# --- full chain ------------------------------------------------------------------


def test_chain_lossless_single_photon():
    out = observed_chain(PhotonPMF(np.array([0.0, 1.0])), DetectorConfig(4, 1.0))
    assert out.probs[1] == 1.0


def test_chain_mean_below_thinned_mean():
    pmf = coherent_pmf(1.9, 40)
    observed = chain_mean(pmf, DetectorConfig(4, 0.6))
    assert observed < 0.6 * 1.9


def test_chain_normalization():
    pmf = thermal_pmf(1.3, 60)
    out = observed_chain(pmf, DetectorConfig(4, 0.9))
    assert 1 - 1e-6 <= out.probs[:5].sum() <= 1 + 1e-12


def test_composition_order_matters():
    pmf = coherent_pmf(2.5, 40)
    eff_then_click = apply_click_model(apply_efficiency(pmf, 0.5), 3)
    click_then_eff = apply_efficiency(apply_click_model(pmf, 3), 0.5)
    assert not np.allclose(
        eff_then_click.probs[:4], click_then_eff.probs[:4], atol=1e-6
    )


def test_saturation_with_four_detectors():
    cfg = DetectorConfig(4, 1.0)
    means = [
        chain_mean(source_pmf(SourceSpec(SourceKind.COHERENT, value)), cfg)
        for value in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
    ]
    assert all(b >= a for a, b in zip(means, means[1:]))
    assert means[-1] > 3.9
    assert all(m <= 4.0 for m in means)


def test_detector_config_validation():
    with pytest.raises(PhysicsError):
        DetectorConfig(0, 0.5)
    with pytest.raises(PhysicsError):
        DetectorConfig(4, 0.0)
    with pytest.raises(PhysicsError):
        DetectorConfig(4, 1.1)


@pytest.mark.parametrize("n_detectors, efficiency, field", [
    (4.5, 0.9, "n_detectors"),
    (4.0, 0.9, "n_detectors"),
    (True, 0.9, "n_detectors"),
    ("4", 0.9, "n_detectors"),
    (4, True, "efficiency"),
], ids=["fraction", "whole_float", "bool", "text", "efficiency_bool"])
def test_detector_config_refuses_a_count_or_efficiency_of_the_wrong_type(n_detectors, efficiency, field):
    # the closed-form chain_mean would give 4.5 detectors a mean click count,
    # so an inversion could succeed on a bank that cannot exist
    with pytest.raises(PhysicsError, match=f"{field} must be a"):
        DetectorConfig(n_detectors, efficiency)
    with pytest.raises(PhysicsError, match=f"{field} must be a"):
        apply_click_model(coherent_pmf(1.0, 20), n_detectors, efficiency)


def test_detector_config_stores_a_numpy_count_as_an_int():
    config = DetectorConfig(np.int64(4), 0.9)
    assert type(config.n_detectors) is int
    assert config == DetectorConfig(4, 0.9)


def test_saturated_chain_within_rounding_of_one():
    out = observed_chain(source_pmf(SourceSpec(SourceKind.COHERENT, 700.0)), DetectorConfig(6, 0.5))
    assert out.probs[6] == pytest.approx(1.0, abs=1e-12)


# --- properties and the coherent closed form -------------------------------------

CHAIN_CASES = dict(
    kind=st.sampled_from(list(SourceKind)),
    mean=st.floats(0.0, 60.0),
    n_detectors=st.integers(1, 8),
    eta=st.floats(0.01, 1.0),
)
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60, database=None)


@PROPERTY_SETTINGS
@given(**CHAIN_CASES, ratio=st.floats(0.0, 1.0))
def test_chain_output_is_a_normalized_pmf(kind, mean, n_detectors, eta, ratio):
    out = observed_chain(source_pmf(SourceSpec(kind, mean, ratio)), DetectorConfig(n_detectors, eta))
    assert np.all(out.probs >= 0.0)
    # the same rounding slack PhotonPMF grants the sum
    assert np.all(out.probs <= 1.0 + _SUM_EXCESS)
    assert 1.0 - TAIL_BOUND <= out.probs.sum() <= 1.0 + _SUM_EXCESS
    assert out.probs[n_detectors + 1 :].sum() == 0.0


@PROPERTY_SETTINGS
@given(mean=CHAIN_CASES["mean"], n_detectors=CHAIN_CASES["n_detectors"], eta=CHAIN_CASES["eta"])
def test_coherent_chain_matches_binomial_closed_form(mean, n_detectors, eta):
    # each detector of N sees Poisson(eta * mean / N) photons independently,
    # so it clicks with probability 1 - exp(-eta * mean / N)
    out = observed_chain(source_pmf(SourceSpec(SourceKind.COHERENT, mean)), DetectorConfig(n_detectors, eta))
    k = np.arange(n_detectors + 1)
    expected = stats.binom.pmf(k, n_detectors, -np.expm1(-eta * mean / n_detectors))
    np.testing.assert_allclose(out.probs[: n_detectors + 1], expected, rtol=0, atol=1e-6)


@PROPERTY_SETTINGS
@given(**CHAIN_CASES)
def test_click_model_efficiency_equals_thinning_first(kind, mean, n_detectors, eta):
    pmf = source_pmf(SourceSpec(kind, mean, 0.5))
    joint = apply_click_model(pmf, n_detectors, eta)
    staged = apply_click_model(apply_efficiency(pmf, eta), n_detectors)
    np.testing.assert_allclose(joint.probs, staged.probs, rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(kind=CHAIN_CASES["kind"], mean=st.floats(0.0, 80.0), ratio=st.floats(0.0, 1.0),
       n_detectors=st.integers(1, 6), eta=st.floats(0.0, 1.0, exclude_min=True))
@example(kind=SourceKind.THERMAL, mean=80.0, ratio=0.5, n_detectors=1, eta=1.0)
@example(kind=SourceKind.SPACS, mean=0.0, ratio=0.5, n_detectors=1, eta=1.0)
def test_chain_mean_matches_the_mean_of_the_walked_click_pmf(kind, mean, ratio, n_detectors, eta):
    # the walk is the reference; the tolerance was set from a worst case of
    # 2e-14 over this grid.  At N = 1, eta = 1 the dark probability's base is 0.
    pmf = source_pmf(SourceSpec(kind, mean, ratio))
    config = DetectorConfig(n_detectors, eta)
    assert abs(chain_mean(pmf, config) - pmf_mean(observed_chain(pmf, config))) <= 1e-12


def generating_function(spec: SourceSpec, x: float) -> float:
    """Q(x) = sum of P(n) x^n over every n, untruncated; a mixture is linear in Q."""
    m, r = spec.mean_param, spec.mix_ratio
    coherent = math.exp(m * (x - 1.0))
    thermal = 1.0 / (1.0 + m * (1.0 - x))
    spacs = x * coherent * (1.0 + m * x) / (1.0 + m)
    spats = x * thermal**2
    return {
        SourceKind.COHERENT: coherent,
        SourceKind.THERMAL: thermal,
        SourceKind.SPACS: spacs,
        SourceKind.SPATS: spats,
        SourceKind.MIXED_COHERENT_SPACS: r * coherent + (1.0 - r) * spacs,
        SourceKind.MIXED_THERMAL_SPATS: r * thermal + (1.0 - r) * spats,
    }[spec.kind]


@PROPERTY_SETTINGS
@given(kind=CHAIN_CASES["kind"], mean=st.floats(0.01, 20.0), ratio=st.floats(0.0, 1.0),
       n_detectors=st.integers(1, 6), eta=st.floats(0.05, 1.0))
def test_chain_matches_generating_function_oracles(kind, mean, ratio, n_detectors, eta):
    # every detector stays dark with probability Q(1 - eta), and one given
    # detector with probability Q(1 - eta / N); the truncated PMF misses at
    # most the mass it dropped of each
    spec = SourceSpec(kind, mean, ratio)
    pmf = source_pmf(spec)
    dropped = max(1.0 - pmf.probs.sum(), 0.0)
    config = DetectorConfig(n_detectors, eta)
    probs = observed_chain(pmf, config).probs
    assert abs(probs[0] - generating_function(spec, 1.0 - eta)) <= dropped + 1e-13
    mean_clicks = n_detectors * (1.0 - generating_function(spec, 1.0 - eta / n_detectors))
    assert abs(chain_mean(pmf, config) - mean_clicks) <= n_detectors * dropped + 1e-12
    # k given detectors click and the other N - k stay dark: inclusion-exclusion
    # over which j of the k stay dark as well, each of its 2**k terms a Q value
    # that misses at most the dropped mass
    n = n_detectors
    for k in range(n + 1):
        clicks = math.comb(n, k) * sum(
            (-1) ** j * math.comb(k, j) * generating_function(spec, 1.0 - eta * (n - k + j) / n)
            for j in range(k + 1)
        )
        assert abs(probs[k] - clicks) <= math.comb(n, k) * 2**k * dropped + 1e-12, k
