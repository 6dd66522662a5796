"""The Monte Carlo chunk kernel: one chunk of draws, many points.

Stream contract (consume order per chunk): n pairs of standard normals
laid out as (trial, pair), then n uniforms for the user position, then
(branches - 1) rows of n standard exponentials, one row per extra radio
branch, for the largest branch count among the points.  None of it
depends on the Rician K: `rf_channel.mrc_gains` forms each point's radio
gain from these draws, K and the branch count M entering only as a shift
and a scale.  A point with M branches reads the normals, the uniforms and
the first M - 1 exponential rows, which is exactly what a chunk drawn for
that point alone holds: the draws for fewer branches are a prefix of the
draws for more.  So every point evaluated on a chunk sees the draws it
would see alone (the points of one call share common random numbers),
and each point's outage count and BER sums are exactly what a call for
that point alone would give.

Outage counts.  A point alone is counted directly, one pass over the
chunk.  Points that differ only in the radio SNR scale, as on an
`rf_avg_snr_db` sweep, share one sort of the radio gains per chunk, and
each point then costs a binary search: see `shared_groups`.  Both give the
same count, trial for trial.

Nodes.  numpy sums a contiguous float array of more than 128 entries as
the sum of its two halves, split at n/2 rounded down to a multiple of 8,
and each half the same way.  A node is a piece of that split of the
chunk, split on until it is at most ERFC_BLOCK trials (`_pairwise`): two
of 32768 for a full chunk, two of 16960 for the 33920-trial last chunk of
2e6 trials.  The points counted directly are evaluated a node at a time,
nodes first and points second, so the power-law cache and the reuse of
each hop's SNR work within a node.  A point's counts over the nodes add up
exactly, and each of its BER sums is its nodes' numpy sums added in the
tree's order, which is numpy's sum over the whole chunk bit for bit, as
each node's own sum runs the same tree below it.  A sequential sum over
blocks would not be: over 8192-trial blocks it differed from the whole
sum in 745 of 2000 arrays of 65536 uniforms on [0, 1).

Scratch.  A caller that runs many chunks passes each one the same
`scratch` dict, one per thread, and the kernel draws into and computes
in the arrays it holds, so after a thread's first chunk no chunk
allocates a chunk-sized array.  For chunks of n trials, a largest branch
count M and P distinct (K, M) pairs, a thread holds (2 + M + P) n
doubles, less n when M > 1: the normal pairs, the uniforms, the M - 1
exponential rows and one gain array per pair, but for the pair with the
most branches, which `rf_channel.mrc_gains` forms in its own exponential
row.  The normal pairs are spent once the gains are formed, and the rest
is computed in them: a sort group's optical power and SNR, each n, and a
node's power, optical SNR, radio SNR and, on a BER pass, erfc result,
each as long as the node, as far as they fit.  The rest of a node goes
in one more array, "node", whose last two rows are erfc's Horner scratch
on a BER pass.  At n = 65536 the four views of a 32768-trial node fill
the normal pairs, and the node array is the Horner scratch alone, n; at
M = 2 and one pair a thread then holds 4n doubles on an outage pass,
grouped or direct, and 5n, 2.5 MiB, on a BER pass.  A chunk of at most
ERFC_BLOCK trials is one node, and its node array holds 4n on a BER pass
and n on a direct outage pass.  The C allocator may give a freed
chunk-sized array back to the system, and a fresh one then costs a page
fault per 4 KiB page on every chunk.  With the arrays reused, nearly all
faults come in each thread's first chunk: a 2e6-trial BER pass at the
reference cell takes about 1050 minor faults, and the 21-point, 16-chunk
outage sweep on two threads about 1600 (Python 3.11, numpy 2.4); making
the gains, the minimum, the erfc scratch and its patches afresh on every
chunk took 7795 on that BER pass.

The conditional bit error probabilities take erfc(sqrt(snr)) from
`specfun.erfc_sqrt`, numpy alone, one node at a time, so the kernel
imports no scipy and erfc's temporaries stay node-sized.
"""
from __future__ import annotations

import numpy as np

from .rf_channel import mrc_gains
from .specfun import erfc_sqrt

# the smallest group whose sort pays: on 65536-trial chunks with reused
# arrays, one sort costs about what counting 7 or 8 points directly does
# (the sort won 33 and 34 of 60 interleaved chunks at 7 and 8 points, 53
# of 60 at 10)
MIN_GROUP = 8

# the longest node (see `_pairwise`), and so the most trials one
# `erfc_sqrt` call takes on a BER pass; at least 128, as numpy's pairwise
# sum does not split an array that short.  Each `erfc_sqrt` call costs
# some 50-75 us of call overhead whatever its length, so a 2e6-trial BER
# pass at the reference cell took 158, 146 and 151 ms with nodes of at
# most 16384, 32768 and 65536 (one node per chunk), medians of 20
# interleaved runs in process on one thread; `rfvlc validate` there peaked
# at 37.4 MiB at 16384 and 37.8 at 32768
ERFC_BLOCK = 32768


def shared_groups(points):
    """The groups of points whose outage counts share one sort per chunk.

    Points with the same K, branches, optical law and threshold differ
    only in the radio scale rf_mu; each such set of at least MIN_GROUP
    points is a group, returned as a list of point indices.  Every other
    point is counted directly.
    """
    by_key = {}
    for i, (k_factor, branches, _, vlc, gamma_th) in enumerate(points):
        by_key.setdefault((k_factor, branches, vlc, gamma_th), []).append(i)
    return [members for members in by_key.values() if len(members) >= MIN_GROUP]


def chunk_stats(bitgen, n, points, ber, groups, scratch):
    """Simulate one chunk of n trials and evaluate every point on it.

    Each point is `(k_factor, branches, rf_mu, vlc, gamma_th)`, the first
    two fixing its radio fading, with `vlc` the optical SNR law
    `(scale, expo, r2, l2)` of `vlc_channel.snr_law`.  Returns one
    tuple of chunk partials per point: the outage count, followed when
    `ber` is true by the sum and sum of squares of each hop's conditional
    bit error probability (radio, then optical).  erfc runs only when `ber`
    is true.  `groups`, from `shared_groups(points)`, is for outage runs
    alone (pass () otherwise): its points get their counts from one sort
    per group and no BER sums.  `scratch` is the dict of arrays of the
    calling thread, reused from its previous chunk and grown and filled
    here; {} draws into fresh arrays.  The results do not depend on it.
    """
    def buffer(name, size):
        array = scratch.get(name)
        if array is None or array.size < size:
            array = scratch[name] = np.empty(size)
        return array[:size]

    gen = np.random.Generator(bitgen)
    fading = {p[:2] for p in points}
    normals = buffer("normals", 2 * n)
    z = gen.standard_normal(out=normals.reshape(n, 2))
    u = gen.random(out=buffer("uniforms", n))
    rows = max(m for _, m in fading) - 1
    exps = gen.standard_exponential(out=buffer("exponentials", rows * n).reshape(rows, n))
    gains = mrc_gains(z, exps, fading, lambda k, m: buffer(("gain", k, m), n))
    del z, exps
    # the normal pairs are spent once the gains are formed: the sort groups
    # form the optical power law and SNR in their two halves
    power_buf, vlc_buf = normals.reshape(2, n)

    # the optical power law (r2 u + l2)^expo into buf, formed only when the
    # cell geometry changes (an optical power sweep changes the scale alone)
    power_key = None

    def power(law, u, buf):
        nonlocal power_key
        if law != power_key:
            expo, r2, l2 = power_key = law
            np.multiply(u, r2, out=buf)
            np.add(buf, l2, out=buf)
            np.power(buf, expo, out=buf)
        return buf

    out = [None] * len(points)
    for members in groups:
        k_factor, branches, _, vlc, gamma_th = points[members[0]]
        snr_vlc = np.multiply(power(vlc[1:], u, power_buf), vlc[0], out=vlc_buf)
        mus = [points[i][2] for i in members]
        gain = gains[k_factor, branches]
        for i, count in zip(members, _sorted_counts(snr_vlc, gain, mus, gamma_th)):
            out[i] = (count,)

    direct = [i for i, stats in enumerate(out) if stats is None]

    def node(start, stop):
        """Every direct point's count and BER sums over trials [start, stop)."""
        nonlocal power_key
        b = stop - start
        # the power, the optical and radio SNRs and the erfc result, in the
        # spent normals as far as they fit, then in the "node" array, whose
        # last two rows are erfc's Horner scratch
        fit = min(3 + ber, 2 * n // b)
        spare = buffer("node", (3 + 3 * ber - fit) * b).reshape(-1, b)
        power_buf, vlc_buf, rf_buf, *erfc_buf = [*normals[:fit * b].reshape(fit, b), *spare][:3 + ber]
        # consecutive points often share one hop (a sweep varies only the
        # other), so each hop's SNR is recomputed only when its parameters
        # change
        power_key = rf_key = vlc_key = None
        sums = np.empty((len(direct), 1 + 4 * ber))
        for row, i in zip(sums, direct):
            k_factor, branches, rf_mu, vlc, gamma_th = points[i]
            if (k_factor, branches, rf_mu) != rf_key:
                rf_key = k_factor, branches, rf_mu
                snr_rf = np.multiply(gains[k_factor, branches][start:stop], rf_mu, out=rf_buf)
                rf_moments = _moments(snr_rf, *erfc_buf, spare[-2:]) if ber else ()
            if vlc != vlc_key:
                vlc_key = vlc
                snr_vlc = np.multiply(power(vlc[1:], u[start:stop], power_buf), vlc[0], out=vlc_buf)
                vlc_moments = _moments(snr_vlc, *erfc_buf, spare[-2:]) if ber else ()
            # min(snr_rf, snr_vlc) < gamma_th, as neither SNR is NaN
            below = np.less(snr_rf, gamma_th)
            below |= snr_vlc < gamma_th
            row[:] = np.count_nonzero(below), *rf_moments, *vlc_moments
        return sums

    if direct:
        for i, sums in zip(direct, _pairwise(0, n, node)):
            out[i] = (int(sums[0]), *sums[1:].tolist())
    return out


def _pairwise(start, stop, leaf):
    """leaf(start, stop) over the nodes of trials [start, stop), added up
    as numpy's pairwise sum adds the halves of an array (see Nodes in the
    module docstring), so node sums add up to numpy's sum over [start,
    stop) bit for bit."""
    if stop - start <= ERFC_BLOCK:
        return leaf(start, stop)
    half = start + (stop - start) // 16 * 8
    return _pairwise(start, half, leaf) + _pairwise(half, stop, leaf)


def _sorted_counts(snr_vlc, gains, mus, gamma_th):
    """The count of trials with min(snr_vlc, mu * gains) < gamma_th for
    every radio scale mu in `mus`, all finite and > 0, from one sort.

    A trial whose optical SNR is below the threshold gets the key -gain,
    which is below it for every scale (key * mu <= 0 < gamma_th; at
    gamma_th = 0 no trial is below); every other trial keeps its gain.
    The sign of snr_vlc - gamma_th is exactly the comparison, so one
    subtraction and one copysign build the keys without a masked pass.
    Rounding is monotone, so for each mu the keys with key * mu < gamma_th
    are a prefix of the sorted keys.  The search for its end starts at
    gamma_th / mu, which is itself rounded, and then steps over whole runs
    of equal keys until the exact product test holds at the edge:
    keys[k - 1] * mu < gamma_th <= keys[k] * mu.  Each count therefore
    equals the direct count, trial for trial.  `snr_vlc` is overwritten.
    """
    keys = np.subtract(snr_vlc, gamma_th, out=snr_vlc)
    np.copysign(gains, keys, out=keys)
    keys.sort()
    mu = np.array(mus, dtype=float)
    last = keys.size - 1
    with np.errstate(over="ignore"):
        k = np.searchsorted(keys, gamma_th / mu)
    while True:
        ahead = (k <= last) & (keys[np.minimum(k, last)] * mu < gamma_th)
        behind = (k > 0) & (keys[np.maximum(k - 1, 0)] * mu >= gamma_th)
        if not (ahead.any() or behind.any()):
            return k.tolist()
        k[ahead] = np.searchsorted(keys, keys[k[ahead]], side="right")
        k[behind] = np.searchsorted(keys, keys[k[behind] - 1], side="left")


def _moments(snr, x, work):
    """Sum and sum of squares of the conditional BPSK bit error
    probability erfc(sqrt(snr))/2 over one node, in its erfc result array
    x and Horner scratch work."""
    x = erfc_sqrt(snr, out=x, work=work)
    x *= 0.5
    total = x.sum()
    x *= x
    return total, x.sum()
