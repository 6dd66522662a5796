"""End-to-end metrics of the two-hop decode-and-forward link.

The relay decodes the radio hop and re-encodes onto the optical hop, so the
equivalent SNR is the minimum of the two hop SNRs and a bit is wrong end to
end when exactly one hop flips it.  The single-config metrics are batches
of one: `outage_batch` and `ber_batch` take any list of configs, and
return every value or raise `ConvergenceError` for the whole list.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import vlc_channel
from .rf_channel import (
    RfParams,
    mrc_cdf_batch,
    mrc_snr_cdf,
    rf_avg_ber,
    rf_avg_ber_batch,
)
from .specfun import checked
from .vlc_channel import VlcDerived, VlcParams, vlc_avg_ber, vlc_snr_cdf

__all__ = [
    "SystemConfig",
    "e2e_cdf",
    "outage_probability",
    "outage_batch",
    "e2e_avg_ber",
    "ber_batch",
    "outage_floor",
    "ber_floor",
]


@checked
class SystemConfig(NamedTuple):
    """Full link description: both hops plus the outage SNR threshold."""

    rf: RfParams
    vlc: VlcParams
    outage_threshold: float

    def _check(self):
        if not (self.outage_threshold > 0.0) or not math.isfinite(self.outage_threshold):
            raise ValueError(
                f"outage_threshold must be finite and > 0, got {self.outage_threshold}"
            )


def e2e_cdf(gamma, cfg: SystemConfig):
    """Distribution of min(snr_rf, snr_vlc) for independent hops:
    F = F_rf + F_vlc - F_rf * F_vlc.  Vectorized."""
    d = vlc_channel.derive(cfg.vlc)
    out = _either(mrc_snr_cdf(gamma, cfg.rf), vlc_snr_cdf(gamma, d))
    return float(out) if np.ndim(gamma) == 0 else out


def _either(f_rf, f_vlc):
    """Probability that either independent hop falls below, from the hop
    probabilities f_rf and f_vlc."""
    # sum-minus-product keeps relative accuracy for tiny tails; rounding
    # can overshoot 1 by an ulp once a factor saturates, so clamp
    return np.minimum(f_rf + f_vlc - f_rf * f_vlc, 1.0)


def outage_probability(cfg: SystemConfig) -> float:
    """Probability that the equivalent SNR falls below the threshold."""
    (p,), _ = outage_batch([cfg])
    return float(p)


def outage_batch(cfgs):
    """Outage probability and outage floor of every config, from one radio
    series pass over all of them, whatever their rf.k_factor and
    rf.branches.

    The configs may differ in every field.  Each distinct optical cell is
    derived once, and the optical CDF is one `vlc_snr_cdf` call over the
    configs' cells and thresholds; each value equals the single-config
    call's bit for bit.
    Returns (outage, floor), or raises ConvergenceError as `mrc_cdf_batch`
    does.
    """
    thresholds = [c.outage_threshold for c in cfgs]
    f_rf = mrc_cdf_batch(thresholds, [c.rf for c in cfgs])
    cells, at = _cells(cfgs)
    f_vlc = vlc_snr_cdf(thresholds, VlcDerived(*cells[at].T))
    return _either(f_rf, f_vlc), f_vlc


def e2e_avg_ber(cfg: SystemConfig) -> float:
    """End-to-end average BER of the decode-and-forward chain:
    P = P_rf (1 - P_vlc) + P_vlc (1 - P_rf)."""
    (p,), _ = ber_batch([cfg])
    return float(p)


def ber_batch(cfgs):
    """End-to-end BER and BER floor (the radio hop's own BER) of every
    config; as `outage_batch` otherwise, the optical BER being one
    `vlc_avg_ber` call over the distinct cells."""
    p_rf = rf_avg_ber_batch([c.rf for c in cfgs])
    cells, at = _cells(cfgs)
    p_vlc = vlc_avg_ber(VlcDerived(*cells.T))[at]
    return p_rf + p_vlc - 2.0 * p_rf * p_vlc, p_rf


def _cells(cfgs):
    """The distinct optical cells of the configs, each derived once, as a
    (cells, fields of `VlcDerived`) array, and the row of each config's."""
    rows = {}
    at = [rows.setdefault(c.vlc, len(rows)) for c in cfgs]
    cells = [vlc_channel.derive(v) for v in rows]
    return np.array(cells, dtype=float).reshape(-1, len(VlcDerived._fields)), at


def outage_floor(cfg: SystemConfig) -> float:
    """Outage limit as the radio hop becomes noiseless: the optical hop's
    own CDF at the threshold."""
    return float(vlc_snr_cdf(cfg.outage_threshold, vlc_channel.derive(cfg.vlc)))


def ber_floor(cfg: SystemConfig) -> float:
    """BER limit as the optical hop becomes error-free: the radio hop's own
    average BER."""
    return rf_avg_ber(cfg.rf)
