"""Outage and BER analysis of a dual-hop radio/visible-light relay link.

The radio access hop combines Rician-faded branches with maximal-ratio
combining; the optical hop is a Lambertian LED cell with a uniformly
positioned user; the relay decodes and forwards.  Closed forms live in
rf_channel / vlc_channel / e2e, Monte Carlo verification in montecarlo,
sweeps and file formats in config / sweep / cli.
"""
from .config import ConfigError, ParsedConfig, SweepSpec, emit_config, parse_config
from .e2e import (
    SystemConfig,
    ber_floor,
    e2e_avg_ber,
    e2e_cdf,
    outage_floor,
    outage_probability,
)
from .montecarlo import (
    EstimateWithError,
    McOptions,
    simulate,
    simulate_ber,
    simulate_outage,
)
from .rf_channel import (
    RfParams,
    mrc_snr_cdf,
    mrc_snr_pdf,
    rf_avg_ber,
    rician_snr_pdf,
    sample_mrc_snr,
)
from .specfun import ConvergenceError
from .sweep import ResultRecord, apply_axis, axis_grid, emit_csv, run_sweep
from .vlc_channel import (
    VlcDerived,
    VlcParams,
    channel_gain,
    derive,
    lambertian_order,
    sample_vlc_snr,
    vlc_avg_ber,
    vlc_snr_cdf,
    vlc_snr_pdf,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvergenceError",
    "EstimateWithError",
    "McOptions",
    "ParsedConfig",
    "ResultRecord",
    "RfParams",
    "SweepSpec",
    "SystemConfig",
    "VlcDerived",
    "VlcParams",
    "apply_axis",
    "axis_grid",
    "ber_floor",
    "channel_gain",
    "derive",
    "e2e_avg_ber",
    "e2e_cdf",
    "emit_config",
    "emit_csv",
    "lambertian_order",
    "mrc_snr_cdf",
    "mrc_snr_pdf",
    "outage_floor",
    "outage_probability",
    "parse_config",
    "rf_avg_ber",
    "rician_snr_pdf",
    "run_sweep",
    "sample_mrc_snr",
    "sample_vlc_snr",
    "simulate",
    "simulate_ber",
    "simulate_outage",
    "vlc_avg_ber",
    "vlc_snr_cdf",
    "vlc_snr_pdf",
    "__version__",
]
