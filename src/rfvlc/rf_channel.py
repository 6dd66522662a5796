"""Radio access hop: Rician fading with maximal-ratio combining.

The combiner output SNR over `branches` i.i.d. Rician branches is a scaled
noncentral chi-square variable with 2*branches degrees of freedom and
noncentrality 2*k_factor*branches, which is what every formula below
evaluates in one stable form or another.  Its CDF and average BER are
Poisson mixtures, which `_mixture` alone evaluates: it takes per-entry K
and branch counts and sums one series pass per distinct (K, branches),
under the one truncation budget `specfun.REL_TOL`/`specfun.MAX_TERMS`, so
the batch forms take params with any K and branch count; a rate the
budget does not cover (`specfun.covers`) gets no pass.  Every closed
form returns values that meet it or raises `ConvergenceError`.  The CDF's
terms come from `specfun.GammaTerms` and the average BER's from
`specfun.BetaTerms`, numpy alone; scipy is imported only by the density
(`mrc_snr_pdf`, and so `rician_snr_pdf`), when it is first called.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import specfun
from .specfun import BetaTerms, ConvergenceError, GammaTerms, poisson_weighted_sum, validate_snr

__all__ = [
    "RfParams",
    "rician_snr_pdf",
    "mrc_snr_pdf",
    "mrc_snr_cdf",
    "mrc_cdf_batch",
    "mrc_gains",
    "sample_mrc_snr",
    "rf_avg_ber",
    "rf_avg_ber_batch",
]


@specfun.checked
class RfParams(NamedTuple):
    """Radio hop parameters.

    k_factor: linear Rician K (ratio of line-of-sight to scattered power), >= 0
    branches: number of combined receive branches, >= 1
    avg_snr: mean SNR per branch, linear, > 0
    """

    k_factor: float
    branches: int
    avg_snr: float

    def _check(self):
        if self.k_factor < 0.0 or not math.isfinite(self.k_factor):
            raise ValueError(f"k_factor must be finite and >= 0, got {self.k_factor}")
        if not specfun.is_integer(self.branches) or self.branches < 1:
            raise ValueError(f"branches must be an integer >= 1, got {self.branches!r}")
        if not (self.avg_snr > 0.0) or not math.isfinite(self.avg_snr):
            raise ValueError(f"avg_snr must be finite and > 0, got {self.avg_snr}")


def _scalar_like(template, out):
    return float(out) if np.ndim(template) == 0 else out


def rician_snr_pdf(gamma, params: RfParams):
    """Density of the per-branch SNR (branch count ignored), vectorized:
    `mrc_snr_pdf` with one branch.

    That includes its gamma-density limit below K = 1e-12, where the value
    is the exponential density: at K = 1e-13 it differs from the Rician
    formula by at most 3e-13 relative wherever the density is a normal
    float.  At K = 0 and at K >= 1e-12 it equals the formula bit for bit.
    """
    return mrc_snr_pdf(gamma, params._replace(branches=1))


def mrc_snr_pdf(gamma, params: RfParams):
    """Density of the combined SNR after maximal-ratio combining, vectorized."""
    from scipy.special import ive

    g = validate_snr(gamma)
    # the density is 0 at g = inf, where both formulas give inf * 0
    finite = g < math.inf
    g = np.where(finite, g, 0.0)
    k, m, mu = params.k_factor, params.branches, params.avg_snr
    if k * m < 1e-12:
        # Noncentrality below any representable effect: gamma density limit,
        # pois(m - 1; g/mu)/mu.  Relative error is O(k*m), far under the
        # working precision.
        out = specfun._pois(m - 1, g / mu) / mu
    else:
        x = 2.0 * np.sqrt(k * (k + 1.0) * m * g / mu)
        # (k+1)g/(k m mu) raised to (m-1)/2; neutral 1.0 at g == 0 where the
        # ive factor is already 0 for m > 1 and the exponent is 0 for m == 1.
        base = np.where(g > 0.0, (k + 1.0) * g / (k * m * mu), 1.0)
        out = (
            (k + 1.0)
            / mu
            * base ** (0.5 * (m - 1))
            * ive(m - 1, x)
            * np.exp(-np.square(np.sqrt((k + 1.0) * g / mu) - math.sqrt(k * m)))
        )
    return _scalar_like(gamma, np.where(finite, out, 0.0))


def mrc_snr_cdf(gamma, params: RfParams):
    """Distribution function of the combined SNR, vectorized.

    Equals 1 - Q_m(sqrt(2*k*m), sqrt(2*(k+1)*gamma/avg_snr)), Q_m being
    the generalized Marcum Q function of order m = branches, but is
    evaluated as the complementary Poisson mixture of regularized lower
    incomplete gammas (`specfun.GammaTerms`): every term is positive, so the
    deep left tail keeps full relative accuracy instead of cancelling
    against 1.

    Every entry of an array `gamma` is its own series under its own
    truncation budget, so it equals the scalar call at that entry bit for
    bit.  Raises ConvergenceError, whose `unconverged` mask names the
    entries that ran out of terms.
    """
    k, m, mu = params.k_factor, params.branches, params.avg_snr
    return _scalar_like(gamma, _mixture(k, m, (k + 1.0) * validate_snr(gamma) / mu, GammaTerms))


def _mixture(k, m, x, terms):
    """The Poisson mixture sum_j pois(j; k*m) * T(m + j) at every entry of
    `x`, each entry with its own Rician K `k` and branch count `m` (arrays
    over `x`, or scalars for all of it), terms(m, part) being the term
    walk of one series pass over the entries `part` (`specfun.GammaTerms`
    or `specfun.BetaTerms`).

    This is where the radio series are grouped: one `poisson_weighted_sum`
    pass per distinct (K, branches), in order of first appearance, over the
    entries with x > 0; every entry is its own series in its pass, and the
    entries with x = 0 are 0.  A pass whose rate the budget does not cover
    (`specfun.covers`) is not run: no sum could stop, so its entries are
    flagged as the pass would flag them, without a term built.  Raises the
    ConvergenceError of the first entry that ran out of terms, naming its
    series rate k*m, with an `unconverged` mask over all of `x`.
    """
    k, m, _ = np.broadcast_arrays(k, m, x)
    out = np.zeros_like(x)
    unconverged = np.zeros(x.shape, dtype=bool)
    live = x > 0.0
    for kk, mm in dict.fromkeys(zip(k[live].tolist(), m[live].tolist())):
        idx = live & (k == kk) & (m == mm)
        lam = kk * mm
        if specfun.covers(lam):
            out[idx], unconverged[idx] = poisson_weighted_sum(lam, terms(mm, x[idx]))
        else:
            unconverged[idx] = True
    if unconverged.any():
        i = np.argmax(unconverged)
        rate = float(k.flat[i]) * int(m.flat[i])  # inf past the float range, with no warning
        raise ConvergenceError(
            f"Poisson-weighted series did not converge: rate={rate:g}, "
            f"max_terms={specfun.MAX_TERMS}, rel_tol={specfun.REL_TOL:g}",
            unconverged,
        )
    return out


def mrc_cdf_batch(gammas, params):
    """F(gammas[i]; params[i]) for every i, each point its own series.

    The params may differ in every field.  Params that share k_factor and
    branches (the series rate) share one series pass, and every point gets
    exactly the value of `mrc_snr_cdf(gammas[i], params[i])`.  Raises
    ConvergenceError if any point runs out of terms: its `unconverged`
    mask names those points and its message the series rate of the first.
    """
    k = np.array([p.k_factor for p in params], dtype=float)
    m = np.array([p.branches for p in params])
    mu = np.array([p.avg_snr for p in params], dtype=float)
    return _mixture(k, m, (k + 1.0) * validate_snr(gammas) / mu, GammaTerms)


def mrc_gains(z, exps, fading):
    """Unscaled combined gains sum_b |h_b|^2 of unit-mean-power Rician
    branches, one array per (K, branch count) pair, all from the same draws.

    The sum over m branches is a noncentral chi-square with 2m degrees of
    freedom, so it is drawn exactly as

        ((Z1/sqrt(2) + sqrt(m K))^2 + (Z2/sqrt(2))^2 + E_1 + ... + E_{m-1}) / (K+1)

    with the standard normals Z1, Z2 = z[..., 0], z[..., 1] and the standard
    exponentials E_b = exps[b - 1], added in row order.  The draws are
    transformed once, with no K; each pair then only shifts, squares and
    scales them, reading the first m - 1 rows of `exps`, by the same
    operations whatever other pairs are asked for, so its gain equals the
    gain of a call for that pair alone bit for bit.

    `z` and `exps` serve as scratch and are overwritten, which spares the
    chunk kernel fresh temporaries.  Returns {(K, m): gain} for every pair
    in `fading`.  Raises ValueError where m K is not a finite float, since
    its square would overflow.
    """
    z *= math.sqrt(0.5)
    im = z[..., 1]
    im *= im
    # rows become running sums of the exponentials, in row order
    for b in range(1, len(exps)):
        exps[b] += exps[b - 1]
    gains = {}
    for k, m in set(fading):
        if not math.isfinite(m * k):
            raise ValueError(f"the Rician rate K*M must be finite, got K={k:g}, M={m}")
        gain = z[..., 0] + math.sqrt(m * k)
        gain *= gain
        gain += im
        if m > 1:
            gain += exps[m - 2]
        gain *= 1.0 / (k + 1.0)
        gains[k, m] = gain
    return gains


def sample_mrc_snr(params: RfParams, rng: np.random.Generator, size=None):
    """Draw combined-SNR samples: avg_snr times the combined gain of
    `mrc_gains`, from `size` pairs of standard normals followed by
    (branches - 1) x `size` standard exponentials."""
    # numpy's own reading of a shape: an int or a sequence of ints
    shape = () if size is None else np.broadcast_shapes(size)
    k, m = params.k_factor, params.branches
    z = rng.standard_normal(shape + (2,))
    exps = rng.standard_exponential((m - 1,) + shape)
    snr = params.avg_snr * mrc_gains(z, exps, [(k, m)])[k, m]
    return float(snr) if size is None else snr


def rf_avg_ber(params: RfParams) -> float:
    """Average bit error probability of coherent binary signalling on the
    combined radio hop, P = E[erfc(sqrt(snr))/2].

    Poisson mixture over the noncentral expansion: each conditional term is
    half a regularized incomplete beta, P_k = I(m+k, 1/2; w) / 2 with
    w = (k_factor+1)/(k_factor+1+avg_snr), from `specfun.BetaTerms`.  All
    terms are positive and bounded by 1, so the series is evaluated to
    relative accuracy even when the result is many orders below 1.
    """
    (p,) = rf_avg_ber_batch([params])
    return float(p)


def rf_avg_ber_batch(params):
    """`rf_avg_ber` of every params, each its own sum, one series pass per
    distinct (k_factor, branches).  Raises as `mrc_cdf_batch` does."""
    k = np.array([p.k_factor for p in params], dtype=float)
    m = np.array([p.branches for p in params])
    mu = np.array([p.avg_snr for p in params], dtype=float)
    return 0.5 * _mixture(k, m, (k + 1.0) / (k + 1.0 + mu), BetaTerms)
