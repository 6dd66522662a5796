"""The Monte Carlo chunk kernel: one chunk of draws, many points.

Stream contract (consume order per chunk): first n*branches*2 standard
normals laid out as (trial, branch, re/im), then n uniforms for the user
position.  Every point evaluated on a chunk sees these same draws, so the
points of one call share common random numbers, and each point's
arithmetic is exactly what a call for that point alone would do.
"""
from __future__ import annotations

import numpy as np
from scipy import special as sc


def chunk_stats(bitgen, n, rf_los, rf_sd, branches, points, ber):
    """Simulate one chunk of n trials and evaluate every point on it.

    `rf_los`, `rf_sd` and `branches` fix the radio fading, which all points
    share.  Each point is `(rf_mu, vlc, gamma_th)` with
    `vlc = (scale, expo, r2, l2)`, the optical SNR being
    `scale * (r2 * u + l2) ** expo`.  Returns one tuple of chunk partials
    per point: the outage count, followed when `ber` is true by the sum
    and sum of squares of each hop's conditional bit error probability
    (radio, then optical).  erfc runs only when `ber` is true.
    """
    gen = np.random.Generator(bitgen)
    z = gen.standard_normal((n, branches, 2))
    u = gen.random(n)

    # unscaled combined gain sum |h_b|^2, in branch order
    gain = np.zeros(n)
    for b in range(branches):
        re = rf_los + rf_sd * z[:, b, 0]
        im = rf_sd * z[:, b, 1]
        gain += re * re + im * im
    del z

    # consecutive points often share one hop (a sweep varies only the
    # other), so each hop's SNR is recomputed only when its parameters
    # change, and the optical power law only when the cell geometry does
    # (an optical power sweep changes the scale alone)
    rf_key = vlc_key = power_key = None
    out = []
    for rf_mu, vlc, gamma_th in points:
        if rf_mu != rf_key:
            rf_key, snr_rf = rf_mu, gain * rf_mu
            rf_moments = _moments(snr_rf) if ber else ()
        if vlc != vlc_key:
            vlc_key = vlc
            scale, expo, r2, l2 = vlc
            if vlc[1:] != power_key:
                power_key, power = vlc[1:], (r2 * u + l2) ** expo
            snr_vlc = scale * power
            vlc_moments = _moments(snr_vlc) if ber else ()
        count = int(np.count_nonzero(np.minimum(snr_rf, snr_vlc) < gamma_th))
        out.append((count, *rf_moments, *vlc_moments))
    return out


def _moments(snr):
    """Sum and sum of squares of the conditional BPSK bit error
    probability erfc(sqrt(snr))/2 over the chunk."""
    x = 0.5 * sc.erfc(np.sqrt(snr))
    return float(x.sum()), float((x * x).sum())
