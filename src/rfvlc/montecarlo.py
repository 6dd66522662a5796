"""Monte Carlo estimation of outage and end-to-end BER.

Determinism contract: results are a pure function of (config, trials,
seed).  Trials are processed in fixed chunks of 65536; chunk i draws from
SFC64 seeded with SeedSequence(seed, spawn_key=(i,)), in the consume order
of `_mc_numpy` (normal pairs, uniforms, one exponential row per extra radio
branch), and chunk partials are reduced in chunk order with exact
summation.  The worker count only changes how chunks are scheduled, never
the result.  Thread t of a run on `threads` threads takes chunks t,
t + threads, t + 2 threads, ... and the calling thread is thread 0, so a
run uses at most one thread per chunk and per CPU, and a one-thread run
starts none.

Shared-stream contract: `simulate` draws each chunk once and evaluates
every config it is given on those draws (common random numbers), and one
pass yields both the outage and the BER estimate.  The configs may differ
in every field: no draw depends on the Rician K, and the draws for fewer
radio branches are a prefix of the draws for more, so every config sees
the stream it would see alone, and its estimate and standard error are
bit-identical to a single-config call.  The estimates of different configs
in one call are correlated: neighbouring sweep points move together, and
a simulated curve comes out smoother than independent runs would make it,
while each point on its own is unchanged.

Outage-only runs count the points that differ only in the radio SNR
scale, as an `rf_avg_snr_db` sweep does, from one sort per chunk and a
binary search per point (`_mc_numpy.shared_groups`); the counts are the
direct counts, so this changes no estimate.  A thread's chunks reuse one
set of arrays (`chunk_stats`'s `scratch`), which changes no draw.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import _mc_numpy, vlc_channel
from .e2e import SystemConfig
from .specfun import is_integer

__all__ = [
    "CHUNK_SIZE",
    "EstimateWithError",
    "McOptions",
    "simulate",
    "simulate_outage",
    "simulate_ber",
]

CHUNK_SIZE = 65536
MIN_TRIALS = 1000


@dataclass(frozen=True)
class EstimateWithError:
    """A Monte Carlo estimate with its standard error and provenance."""

    estimate: float
    std_error: float
    trials: int
    seed: int

    @property
    def reliable(self) -> bool:
        """True when the relative standard error is at most 10%: about 100
        events for a Bernoulli estimate, and a rule that fits the
        conditional BER estimator as well.  An estimate with no spread
        (say, no events at all) carries no evidence and is unreliable."""
        return 0.0 < self.std_error <= 0.1 * self.estimate


@dataclass(frozen=True)
class McOptions:
    """Simulation settings carried alongside a config: the [mc] keys."""

    trials: int = 1_000_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        _validate_run(self.trials, self.seed, self.workers)


def _validate_run(trials, seed, workers):
    if not is_integer(trials) or trials < MIN_TRIALS:
        raise ValueError(f"trials must be an integer >= {MIN_TRIALS}, got {trials!r}")
    if not is_integer(seed) or not (0 <= seed < 2**64):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    if not is_integer(workers) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")


def _point_args(cfg: SystemConfig):
    """The per-point kernel arguments: (k_factor, branches, rf_mu, vlc, gamma_th)."""
    vlc = vlc_channel.snr_law(vlc_channel.derive(cfg.vlc))
    return cfg.rf.k_factor, cfg.rf.branches, cfg.rf.avg_snr, vlc, cfg.outage_threshold


def simulate(cfgs, trials: int, seed: int, *, workers: int = 1,
             ber: bool = False) -> list[tuple[EstimateWithError, EstimateWithError | None]]:
    """Estimate every config in `cfgs` from one shared pass over the stream.

    The configs may differ in every field.  Each chunk is drawn once, by
    one worker, and every config is evaluated on it, so no more than one
    chunk's draws per worker is held at a time.

    Returns one `(outage, ber)` pair per config, in order; `ber` is None
    unless `ber=True` (the erfc work is skipped then).  Each pair is
    bit-identical to a call with that config alone.  The sort groups are
    chosen once per call, and only when `ber` is false: a BER pass forms
    every point's SNR arrays for erfc anyway.
    """
    _validate_run(trials, seed, workers)
    cfgs = list(cfgs)
    if not cfgs:
        return []
    points = [_point_args(c) for c in cfgs]
    groups = () if ber else _mc_numpy.shared_groups(points)

    sizes = [CHUNK_SIZE] * (trials // CHUNK_SIZE)
    if trials % CHUNK_SIZE:
        sizes.append(trials % CHUNK_SIZE)
    # a thread beyond one per chunk would have nothing to do, and one
    # beyond one per CPU would only hold another chunk's arrays
    threads = min(workers, len(sizes), os.cpu_count() or 1)
    partials, failures = [None] * len(sizes), []

    def run_share(first):
        """Every threads-th chunk from `first` on, in one set of arrays."""
        scratch = {}
        try:
            for idx in range(first, len(sizes), threads):
                bitgen = np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(idx,)))
                partials[idx] = _mc_numpy.chunk_stats(bitgen, sizes[idx], points, ber, groups,
                                                      scratch)
        except Exception as exc:
            failures.append(exc)

    # the calling thread runs the first share, so a one-thread run starts
    # no thread; plain threads spare the import of concurrent.futures and
    # logging, about 10 ms
    helpers = [threading.Thread(target=run_share, args=(t,)) for t in range(1, threads)]
    for helper in helpers:
        helper.start()
    run_share(0)
    for helper in helpers:
        helper.join()
    if failures:
        raise failures[0]

    # reduce each point's partials in chunk order, with exact summation
    results = []
    for chunks in zip(*partials):
        outage = _outage_estimate(sum(c[0] for c in chunks), trials, seed)
        ber_est = None
        if ber:
            sums = (math.fsum(c[i] for c in chunks) for i in range(1, 5))
            ber_est = _ber_estimate(*sums, trials, seed)
        results.append((outage, ber_est))
    return results


def _outage_estimate(count, trials, seed):
    p = count / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    return EstimateWithError(estimate=p, std_error=se, trials=trials, seed=seed)


def _ber_estimate(s_rf, q_rf, s_vlc, q_vlc, trials, seed):
    n = trials
    m_rf = s_rf / n
    m_vlc = s_vlc / n
    var_rf = max(q_rf - n * m_rf * m_rf, 0.0) / (n - 1)
    var_vlc = max(q_vlc - n * m_vlc * m_vlc, 0.0) / (n - 1)
    estimate = m_rf + m_vlc - 2.0 * m_rf * m_vlc
    se = math.sqrt(
        (1.0 - 2.0 * m_vlc) ** 2 * var_rf / n + (1.0 - 2.0 * m_rf) ** 2 * var_vlc / n
    )
    return EstimateWithError(estimate=estimate, std_error=se, trials=trials, seed=seed)


def simulate_outage(cfg: SystemConfig, trials: int, seed: int, *,
                    workers: int = 1) -> EstimateWithError:
    """Estimate the outage probability by counting trials whose min-hop SNR
    falls below the threshold; binomial standard error."""
    return simulate([cfg], trials, seed, workers=workers)[0][0]


def simulate_ber(cfg: SystemConfig, trials: int, seed: int, *,
                 workers: int = 1) -> EstimateWithError:
    """Estimate the end-to-end BER with the conditional-error estimator.

    Each trial contributes erfc(sqrt(snr))/2 per hop (the exact conditional
    bit error probability given that hop's SNR), and the hop means combine
    through p = p_rf + p_vlc - 2 p_rf p_vlc.  This needs no bit flipping,
    so the variance per trial is far below the Bernoulli estimator's.  The
    standard error follows by first-order propagation through the combining
    formula, using the independence of the two hops.
    """
    return simulate([cfg], trials, seed, workers=workers, ber=True)[0][1]
