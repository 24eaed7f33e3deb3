"""Photon-counting click simulation and VAE-based light-source classification."""

from .distributions import (
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
from .detector import (
    DetectorConfig,
    apply_click_model,
    apply_efficiency,
    chain_mean,
    click_coefficients,
    observed_chain,
)

__version__ = "0.1.0"
