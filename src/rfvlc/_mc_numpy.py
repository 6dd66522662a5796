"""The Monte Carlo chunk kernel: one chunk of draws, many points.

Stream contract (consume order per chunk): n pairs of standard normals
laid out as (trial, pair), then n uniforms for the user position, then
(branches - 1) rows of n standard exponentials, one row per extra radio
branch, for the largest branch count among the points.  The radio gain is
formed from these by `rf_channel.mrc_gains`.  A point with M branches
reads the normals, the uniforms and the first M - 1 exponential rows,
which is exactly what a chunk drawn for that point alone holds: the draws
for fewer branches are a prefix of the draws for more.  So every point
evaluated on a chunk sees the draws it would see alone (the points of one
call share common random numbers), and each point's arithmetic is exactly
what a call for that point alone would do.

The conditional bit error probabilities take erfc(sqrt(snr)) from
`specfun.erfc_sqrt`, numpy alone, in scratch the chunk already owns, so
the kernel imports no scipy and erfc adds no chunk-sized temporaries.
"""
from __future__ import annotations

import numpy as np

from .rf_channel import mrc_gains
from .specfun import erfc_sqrt


def chunk_stats(bitgen, n, k_factor, points, ber):
    """Simulate one chunk of n trials and evaluate every point on it.

    `k_factor` fixes the radio fading, which all points share.  Each point
    is `(branches, rf_mu, vlc, gamma_th)` with `vlc` the optical SNR law
    `(scale, expo, r2, l2)` of `vlc_channel.snr_law`.  Returns one
    tuple of chunk partials per point: the outage count, followed when
    `ber` is true by the sum and sum of squares of each hop's conditional
    bit error probability (radio, then optical).  erfc runs only when `ber`
    is true.
    """
    gen = np.random.Generator(bitgen)
    z = gen.standard_normal((n, 2))
    u = gen.random(n)
    counts = {p[0] for p in points}
    exps = gen.standard_exponential((max(counts) - 1, n))
    gains = mrc_gains(k_factor, z, exps, counts)
    # the normal pairs are spent once the gains are formed: their buffer is
    # the erfc's (2, n) Horner scratch, and every point reuses it with one
    # result array, since each fresh chunk-sized array costs page faults
    work = (z.reshape(2, n), np.empty(n)) if ber else None
    del z, exps

    # consecutive points often share one hop (a sweep varies only the
    # other), so each hop's SNR is recomputed only when its parameters
    # change, and the optical power law only when the cell geometry does
    # (an optical power sweep changes the scale alone)
    rf_key = vlc_key = power_key = None
    out = []
    for branches, rf_mu, vlc, gamma_th in points:
        if (branches, rf_mu) != rf_key:
            rf_key, snr_rf = (branches, rf_mu), gains[branches] * rf_mu
            rf_moments = _moments(snr_rf, work) if ber else ()
        if vlc != vlc_key:
            vlc_key = vlc
            scale, expo, r2, l2 = vlc
            if vlc[1:] != power_key:
                power_key, power = vlc[1:], (r2 * u + l2) ** expo
            snr_vlc = scale * power
            vlc_moments = _moments(snr_vlc, work) if ber else ()
        count = int(np.count_nonzero(np.minimum(snr_rf, snr_vlc) < gamma_th))
        out.append((count, *rf_moments, *vlc_moments))
    return out


def _moments(snr, work):
    """Sum and sum of squares of the conditional BPSK bit error
    probability erfc(sqrt(snr))/2 over the chunk, computed in the chunk's
    `work = (scratch, out)` alone."""
    scratch, out = work
    x = erfc_sqrt(snr, out=out, work=scratch)
    x *= 0.5
    total = float(x.sum())
    x *= x
    return total, float(x.sum())
