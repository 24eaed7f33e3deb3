"""Truncated photon-number distributions for classical and photon-added light.

All generators return absolute (never renormalized) probabilities over
n = 0..n_max and refuse truncation bounds that drop more than ``TAIL_BOUND``
of probability mass, since the downstream detector convolutions assume
absolute probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Maximum probability mass allowed beyond the truncation index.
TAIL_BOUND = 1e-6
# Float-rounding slack above exact normalization.
_SUM_EXCESS = 1e-12
# How far a tail bound must exceed TAIL_BOUND before source_pmf skips a build:
# rounding moves a built PMF's omitted mass by under 1e-13.
_SKIP_SLACK = 1e-10

# Paper-scale default truncation; weak sources fit comfortably below it.
DEFAULT_N_MAX = 20

_AUTO_N_MAX_CAP = 4096


class PhysicsError(ValueError):
    """A physical constraint (normalization, tail bound, parameter range) was violated."""


class SourceKind(str, Enum):
    COHERENT = "coherent"
    THERMAL = "thermal"
    SPACS = "spacs"
    SPATS = "spats"
    MIXED_COHERENT_SPACS = "mix_coherent_spacs"
    MIXED_THERMAL_SPATS = "mix_thermal_spats"


MIXED_KINDS = frozenset({SourceKind.MIXED_COHERENT_SPACS, SourceKind.MIXED_THERMAL_SPATS})
# kinds whose classical part is thermal; the others' is coherent
_THERMAL_KINDS = frozenset({SourceKind.THERMAL, SourceKind.SPATS, SourceKind.MIXED_THERMAL_SPATS})


@dataclass(frozen=True, eq=False)
class PhotonPMF:
    """Photon-number probabilities over n = 0..n_max, truncated but not renormalized."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise PhysicsError("probability vector must be 1-D and non-empty")
        if np.any(arr < 0.0) or np.any(arr > 1.0 + _SUM_EXCESS):
            raise PhysicsError(f"probabilities must lie in [0, 1 + {_SUM_EXCESS}]")
        total = float(arr.sum())
        if not (1.0 - TAIL_BOUND <= total <= 1.0 + _SUM_EXCESS):
            raise PhysicsError(
                f"probability sum {total!r} outside [1 - {TAIL_BOUND}, 1 + {_SUM_EXCESS}]"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def n_max(self) -> int:
        return self.probs.size - 1

    def truncated(self, n_max: int) -> "PhotonPMF":
        """Shorten the support to 0..n_max; fails if the dropped mass breaks the tail bound."""
        if n_max >= self.n_max:
            return self
        return PhotonPMF(self.probs[: n_max + 1])


@dataclass(frozen=True)
class SourceSpec:
    """A light source: family plus intensity parameter.

    ``mean_param`` is |alpha|^2 for the coherent family and the initial thermal
    occupation for the thermal family.  ``mix_ratio`` is the weight of the
    classical base state in a mixed source and is canonicalized to 1.0 for
    non-mixed kinds.
    """

    kind: SourceKind
    mean_param: float
    mix_ratio: float = 1.0

    def __post_init__(self):
        kind = SourceKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if not (self.mean_param >= 0.0):
            raise PhysicsError(f"mean_param must be >= 0, got {self.mean_param}")
        if kind in MIXED_KINDS:
            if not (0.0 <= self.mix_ratio <= 1.0):
                raise PhysicsError(f"mix_ratio must lie in [0, 1], got {self.mix_ratio}")
        else:
            object.__setattr__(self, "mix_ratio", 1.0)


def _validate_args(mean: float, n_max: int, name: str) -> None:
    if not 0.0 <= mean < np.inf:
        raise PhysicsError(f"{name} must be finite and >= 0, got {mean}")
    if n_max < 0:
        raise PhysicsError(f"n_max must be >= 0, got {n_max}")


def _poisson(mean: float, n_max: int) -> np.ndarray:
    # Ratios to the mode term, multiplied outward from the mode and divided by
    # their sum over the whole support: exp(-mean) underflows above a mean of
    # about 745, and log-space terms miss normalization by up to mean * eps.
    mode = int(mean)
    n = np.arange(max(n_max, 2 * mode + 50) + 1)
    below = np.cumprod(n[mode:0:-1] / mean)[::-1]
    ratios = np.concatenate((below, [1.0], np.cumprod(mean / n[mode + 1 :])))
    return ratios[: n_max + 1] / ratios.sum()


def _geometric(nbar: float, n_max: int) -> np.ndarray:
    return (nbar / (1.0 + nbar)) ** np.arange(n_max + 1) / (1.0 + nbar)


def _photon_added(base: np.ndarray, mean: float) -> PhotonPMF:
    """Apply a^dagger to a state of mean ``mean``: P(n) -> n P(n - 1) / (1 + mean)."""
    probs = np.zeros(base.size)
    probs[1:] = np.arange(1, base.size) * base[:-1] / (1.0 + mean)
    return PhotonPMF(probs)


def coherent_pmf(mean: float, n_max: int = DEFAULT_N_MAX) -> PhotonPMF:
    """Poisson photon statistics of a coherent state with mean photon number ``mean``."""
    _validate_args(mean, n_max, "mean")
    return PhotonPMF(_poisson(mean, n_max))


def thermal_pmf(nbar: float, n_max: int = DEFAULT_N_MAX) -> PhotonPMF:
    """Bose-Einstein photon statistics of a thermal state with mean occupation ``nbar``."""
    _validate_args(nbar, n_max, "nbar")
    return PhotonPMF(_geometric(nbar, n_max))


def spacs_pmf(alpha_sq: float, n_max: int = DEFAULT_N_MAX) -> PhotonPMF:
    """Photon statistics of a single-photon-added coherent state.

    n * Poisson(n - 1) / (1 + alpha_sq), so the vacuum probability vanishes
    identically.
    """
    _validate_args(alpha_sq, n_max, "alpha_sq")
    return _photon_added(_poisson(alpha_sq, n_max), alpha_sq)


def spats_pmf(nbar: float, n_max: int = DEFAULT_N_MAX) -> PhotonPMF:
    """Photon statistics of a single-photon-added thermal state.

    Negative-binomial form n * nbar^(n-1) / (1+nbar)^(n+1), zero at n = 0.
    """
    _validate_args(nbar, n_max, "nbar")
    return _photon_added(_geometric(nbar, n_max), nbar)


def mixed_pmf(base: PhotonPMF, added: PhotonPMF, r: float) -> PhotonPMF:
    """Convex combination r*base + (1-r)*added of two distributions on the same support."""
    if base.n_max != added.n_max:
        raise PhysicsError(
            f"mixed components must share n_max, got {base.n_max} and {added.n_max}"
        )
    if not (0.0 <= r <= 1.0):
        raise PhysicsError(f"mix ratio must lie in [0, 1], got {r}")
    return PhotonPMF(r * base.probs + (1.0 - r) * added.probs)


def pmf_mean(pmf: PhotonPMF) -> float:
    """First moment sum(n * P(n)) over the truncated support."""
    return float(np.dot(np.arange(pmf.probs.size), pmf.probs))


def source_pmf(source: SourceSpec) -> PhotonPMF:
    """Build the photon-number PMF for a source description.

    The truncation bound runs through ``DEFAULT_N_MAX`` doubled, up to
    ``_AUTO_N_MAX_CAP``, and the PMF is built at the first bound whose
    omitted tail fits under ``TAIL_BOUND``.  Bounds that ``_tail_floor``
    shows too small are skipped without building anything, so the result is
    the same as trying every bound from ``DEFAULT_N_MAX`` up.
    """
    bound = DEFAULT_N_MAX
    while bound < _AUTO_N_MAX_CAP and _tail_floor(source, bound) > TAIL_BOUND + _SKIP_SLACK:
        bound = min(2 * bound, _AUTO_N_MAX_CAP)
    while True:
        try:
            return _source_pmf_at(source, bound)
        except PhysicsError as err:
            if bound >= _AUTO_N_MAX_CAP:
                raise PhysicsError(
                    f"no automatic truncation up to n_max = {_AUTO_N_MAX_CAP} fits the "
                    f"{source.kind.value} source at mean_param {source.mean_param}: {err}"
                ) from err
            bound = min(2 * bound, _AUTO_N_MAX_CAP)


def _tail_floor(source: SourceSpec, n_max: int) -> float:
    """A lower bound, from the mean parameter m alone, on the probability
    above ``n_max`` of the PMF whose check decides a build at ``n_max``: the
    source's own for the classical kinds, the photon-added part's for the
    others (a mixture checks that part on its own, and adding a photon only
    moves probability up).  The thermal tail q^(n_max+1) and the SPATS tail
    q^n_max (n_max + 1 - n_max q), with q = m / (1 + m), are exact.  The
    coherent kinds' is the one term at k = max(n_max + 1, mode): Pois(k), or
    k Pois(k - 1) / (1 + m) for SPACS."""
    m = source.mean_param
    if not 0.0 < m < math.inf:
        return 0.0
    added = source.kind not in (SourceKind.COHERENT, SourceKind.THERMAL)
    if source.kind in _THERMAL_KINDS:
        q = m / (1.0 + m)
        return q**n_max * (n_max + 1 - n_max * q) if added else q ** (n_max + 1)
    k = max(n_max + 1, int(m))
    log_pois = (k - 1) * math.log(m) - m - math.lgamma(k)  # log Pois(k - 1)
    return math.exp(log_pois) * k / (1.0 + m) if added else math.exp(log_pois) * m / k


def _source_pmf_at(source: SourceSpec, n_max: int) -> PhotonPMF:
    kind = source.kind
    m = source.mean_param
    if kind is SourceKind.COHERENT:
        return coherent_pmf(m, n_max)
    if kind is SourceKind.THERMAL:
        return thermal_pmf(m, n_max)
    if kind is SourceKind.SPACS:
        return spacs_pmf(m, n_max)
    if kind is SourceKind.SPATS:
        return spats_pmf(m, n_max)
    if kind is SourceKind.MIXED_COHERENT_SPACS:
        return mixed_pmf(coherent_pmf(m, n_max), spacs_pmf(m, n_max), source.mix_ratio)
    if kind is SourceKind.MIXED_THERMAL_SPATS:
        return mixed_pmf(thermal_pmf(m, n_max), spats_pmf(m, n_max), source.mix_ratio)
    raise PhysicsError(f"unknown source kind {kind!r}")
