"""Detector response: efficiency loss and the multi-detector click collapse.

Photons reach a balanced tree of ``N`` click detectors one at a time; each
detector reports at most one click per observation, so the click count is
the number of distinct detectors hit.  The chain is a walk over the ``N + 1``
"occupied detectors" states: a photon is lost with probability ``1 - eta``,
lands on one of the ``k`` occupied detectors with probability ``eta k / N``,
or on a free one with probability ``eta (N - k) / N``, moving ``k`` to
``k + 1``.  Every term is a product of probabilities, so nothing cancels or
underflows before the probability it stands for.  The walk is the one path
to the click PMF.

The mean needs no walk: a detector stays dark through ``n`` photons with
probability ``(1 - eta / N)**n``, so ``E[clicks] = N * sum_n P(n) * (1 - (1 -
eta / N)**n)``, a sum of non-negative terms.  The closed form of P(k) is an
inclusion-exclusion sum whose alternating terms cancel below rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .distributions import PhotonPMF, PhysicsError

# Datasets record click probabilities up to this count, so click PMFs are
# always padded out to at least this index.
MAX_RECORDED_CLICKS = 6


@dataclass(frozen=True)
class DetectorConfig:
    """Balanced bank of click detectors with a common detection efficiency."""

    n_detectors: int
    efficiency: float

    def __post_init__(self):
        if isinstance(self.n_detectors, bool) or not isinstance(self.n_detectors, Integral):
            raise PhysicsError(f"n_detectors must be a whole number, got {self.n_detectors!r}")
        # a numpy integer is stored as an int, which the dataset metadata can write as JSON
        object.__setattr__(self, "n_detectors", int(self.n_detectors))
        if self.n_detectors < 1:
            raise PhysicsError(f"n_detectors must be >= 1, got {self.n_detectors}")
        _check_efficiency(self.efficiency)


def _check_efficiency(efficiency: float) -> None:
    if isinstance(efficiency, bool):
        raise PhysicsError(f"efficiency must be a number, got {efficiency!r}")
    if not (0.0 < efficiency <= 1.0):
        raise PhysicsError(f"efficiency must lie in (0, 1], got {efficiency}")


def _walk(advance: np.ndarray, n_photons: int):
    """Yield, as a fresh array, the distribution over states 0..len(advance)
    after m = 0..n_photons photons from state 0, where each photon moves state
    k to k + 1 with probability ``advance[k]`` (the last state absorbs)."""
    state = np.zeros(advance.size + 1)
    state[0] = 1.0
    stay = np.append(1.0 - advance, 1.0)
    yield state
    for _ in range(n_photons):
        moved = state[:-1] * advance
        state = state * stay
        state[1:] += moved
        yield state


def apply_efficiency(pmf: PhotonPMF, efficiency: float) -> PhotonPMF:
    """Bernoulli-thin a photon-number PMF: each photon survives with given probability."""
    _check_efficiency(efficiency)
    advance = np.full(pmf.n_max, efficiency)
    out = np.zeros(pmf.probs.size)
    for p, survivors in zip(pmf.probs, _walk(advance, pmf.n_max)):
        out += p * survivors
    return PhotonPMF(out)


def _click_table(n_detectors: int, j_max: int, efficiency: float) -> np.ndarray:
    """Rows j = 0..j_max: click-count distribution of j incident photons."""
    DetectorConfig(n_detectors, efficiency)  # refuses a bank no DetectorConfig describes
    occupied = np.arange(n_detectors)
    advance = efficiency * (n_detectors - occupied) / n_detectors
    return np.array(list(_walk(advance, j_max)))


def click_coefficients(n_detectors: int, j_max: int) -> np.ndarray:
    """Occupancy table C[n, j] of shape (n_detectors + 1, j_max + 1): the chance
    that j photons spread uniformly over the detectors occupy exactly n of them."""
    if j_max < 0:
        raise PhysicsError(f"j_max must be >= 0, got {j_max}")
    return _click_table(n_detectors, j_max, 1.0).T


def apply_click_model(pmf: PhotonPMF, n_detectors: int, efficiency: float = 1.0) -> PhotonPMF:
    """Collapse a photon-number PMF to the click-count PMF of the detector bank,
    each photon first surviving with probability ``efficiency``.

    The output support is 0..min(n_max, n_detectors), zero-padded out to index
    ``MAX_RECORDED_CLICKS`` for dataset compatibility.
    """
    clicks = pmf.probs @ _click_table(n_detectors, pmf.n_max, efficiency)
    limit = min(n_detectors, pmf.n_max)
    out = np.zeros(max(limit, MAX_RECORDED_CLICKS) + 1)
    out[: limit + 1] = clicks[: limit + 1]
    return PhotonPMF(out)


def observed_chain(pmf: PhotonPMF, config: DetectorConfig) -> PhotonPMF:
    """Efficiency thinning and the click collapse, in one walk."""
    return apply_click_model(pmf, config.n_detectors, config.efficiency)


def chain_mean(pmf: PhotonPMF, config: DetectorConfig) -> float:
    """Mean click count after the full detector chain, from each detector's
    dark probability (module docstring).  In the power form N = 1, eta = 1
    stays exact: its base is 0, and 0.0**0 is 1."""
    n_detectors, eta = config.n_detectors, config.efficiency
    dark = (1.0 - eta / n_detectors) ** np.arange(pmf.probs.size)
    return float(n_detectors * (pmf.probs @ (1.0 - dark)))
