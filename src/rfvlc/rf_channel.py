"""Radio access hop: Rician fading with maximal-ratio combining.

The combiner output SNR over `branches` i.i.d. Rician branches is a scaled
noncentral chi-square variable with 2*branches degrees of freedom and
noncentrality 2*k_factor*branches.  Its density, CDF and average BER
are Poisson mixtures of the term walks `DensityTerms`, `GammaTerms` and
`BetaTerms`, numpy alone, which `_mixture` alone evaluates: it takes per-entry K
and branch counts and sums every entry in one series pass, each at its
own rate K*M, under the one budget of `specfun` (`REL_TOL`, and steps
growing as the square root of the rate, up to `specfun.MAX_STEPS`), so the
batch forms take params with any K and branch count; a rate the budget
cannot cover (`specfun.covers`) gets no term built.  Every
closed form returns values that meet `REL_TOL` or raises
`ConvergenceError`.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import specfun
from .specfun import ConvergenceError, poisson_weighted_sum, validate_snr

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
    "GammaTerms",
    "DensityTerms",
    "BetaTerms",
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
    `mrc_snr_pdf` with one branch."""
    return mrc_snr_pdf(gamma, params._replace(branches=1))


def mrc_snr_pdf(gamma, params: RfParams):
    """Density of the combined SNR after maximal-ratio combining, vectorized:
    the Poisson mixture (K+1)/mu sum_j pois(j; K M) pois(M + j - 1; y),
    y = (K+1) gamma/mu, of `DensityTerms`.  Raises as `mrc_snr_cdf` does.
    """
    k, m, mu = params
    # DensityTerms clamps a y past the float range, where the density is 0
    with np.errstate(over="ignore"):  # and a density past it is inf
        y = (k + 1.0) * validate_snr(gamma) / mu
        return _scalar_like(gamma, (k + 1.0) * _mixture(k, m, y, DensityTerms) / mu)


def mrc_snr_cdf(gamma, params: RfParams):
    """Distribution function of the combined SNR, vectorized.

    Equals 1 - Q_m(sqrt(2*k*m), sqrt(2*(k+1)*gamma/avg_snr)), Q_m being
    the generalized Marcum Q function of order m = branches, but is
    evaluated as the complementary Poisson mixture of regularized lower
    incomplete gammas (`GammaTerms`): every term is positive, so the
    deep left tail keeps full relative accuracy instead of cancelling
    against 1.

    Every entry of an array `gamma` is its own series under its own
    truncation budget, so it equals the scalar call at that entry bit for
    bit.  Raises ConvergenceError, whose `unconverged` mask names the
    entries that ran out of terms.
    """
    return _scalar_like(gamma, _cdf(*params, gamma))


# The orders a `_TermWalk` block holds, for every batch size, so
# that each entry's right anchors sit at the same orders in a batch and
# alone
_WALK_ORDERS = 8


class _TermWalk:
    """The terms T(j) = T'(m + j) of a `poisson_weighted_sum`, T'(a)
    falling in the integer order a with steps d(a) = T'(a) - T'(a + 1) >= 0,
    each entry with its own branch count m.  Both families are tails
    Pr(N >= a) of a count N, so d(a) is its mass Pr(N = a).

    walk(lam) starts each entry at the peak of its summand (`_start`),
    anchors it there (`_value`) and returns the block protocol of
    `poisson_weighted_sum`: the start, the anchors and `_block`, which
    gives either side's next `_WALK_ORDERS` orders from the orders and
    values the sum passes it, and keeps no state of its own.  The left
    values are positive sums,

        T'(a - 1) = T'(a) + d(a - 1)     (from the block's inner order)

    and so are the right ones of a block whose far order is past the mean
    `_mean` of N, where T' falls fast and a difference would cancel: the
    block is anchored afresh at its far order, T'(a) = T'(a + 1) + d(a).
    Up to the mean, T' is at least about 0.3, so T'(a + 1) = T'(a) - d(a)
    loses at most a few eps relative per step.  As the block length is
    fixed, the anchors sit at the same orders for an entry in any batch.
    Subclasses give `_start(lam)` and `_mean`, and `_value(a, live)` = T'(a)
    and `_step(a, live)` = d(a) for the entries `live`, or their rows
    T'(orders) directly (`_rows`); `_rho`, the ratio of each row to the
    one before it, bounds log-concave terms.  The sum overwrites the blocks.
    """

    def __call__(self, lam):
        j = self._start(lam)
        return j, self._value(self._m + j, slice(None)), self._block

    def _block(self, sign, j, value, live):
        """The next block (values, rho) of the side `sign` (+1 right, -1
        left) over the entries `live`, past their inner orders j, whose
        values are `value`."""
        m = np.broadcast_to(self._m, self._mean.shape)[live]
        orders = m + j + sign * np.arange(1.0, _WALK_ORDERS + 1.0)[:, None]
        block = self._rows(sign, orders, m, value, live)
        block[orders < m] = 0.0
        return block, self._rho(sign, orders, block, value, live)

    def _rows(self, sign, orders, m, value, live):
        """The values T'(orders) of a block, from the steps and the inner
        order's values `value`."""
        if sign > 0:  # past the mean, the far order's value first, while no block is held
            anchored = np.flatnonzero(orders[-1] > self._mean[live])
            far = self._value(orders[-1, anchored], live[anchored])
        # the steps from the inner order outward: d(a), ..., d(a + L - 1)
        # on the right, d(a - 1), ..., d(a - L) on the left
        block = self._step(np.maximum(orders - (sign > 0), m), live)
        if sign > 0:  # then the steps inward
            far = np.add.accumulate(np.append(block[1:, anchored], far[None], axis=0)[::-1], axis=0)
        accumulate = np.subtract if sign > 0 else np.add  # from the inner order's value
        block[0] = accumulate(value, block[0])
        accumulate.accumulate(block, axis=0, out=block)
        if sign > 0:
            block[:, anchored] = far[::-1]
        return block

    def _rho(self, sign, orders, block, value, live):
        with np.errstate(divide="ignore"):  # a value after a 0.0 gives no bound
            return np.divide(block, np.concatenate([value[None], block[:-1]]),
                             out=np.zeros_like(block), where=block > 0.0)


class GammaTerms(_TermWalk):
    """The terms T(j) = P(m + j, y) of the radio CDF, P being the
    regularized lower incomplete gamma, at every entry of the array y > 0.

    P(a, y) = Pr(N >= a) with N ~ Poisson(y), of mean y: the step is
    pois(a; y), the anchor `specfun._anchor`'s series, and P is log-concave
    in a.  P(a+1)/P(a) is about y/(a + 1), so the summand peaks near the
    first j past the root of (j + 1)(m + j + 1) = lam y, or at floor(lam).
    Arguments above the float range are clamped to it, where P is 1.
    """

    def __init__(self, m, y):
        self._m, self._y = np.asarray(m, dtype=float), np.minimum(validate_snr(y), specfun._BIG)
        self._mean = self._y

    def _start(self, lam):
        # y clamped where 4 lam y would overflow: the root is far past lam there
        root = 0.5 * (np.sqrt(self._m * self._m + 4.0 * lam * np.minimum(self._y, 1e300)) - self._m)
        return np.minimum(np.floor(lam), np.floor(root))

    def _value(self, a, live):
        return specfun._anchor(a, self._y[live])

    def _step(self, a, live):
        return specfun._pois(a, self._y[live])


class DensityTerms(GammaTerms):
    """The terms T(j) = pois(m + j - 1; y) of the radio density, the
    masses `specfun._pois` given as the rows themselves, log-concave in
    the order.  As T(j + 1)/T(j) = y/(m + j) may pass 1, the summand may
    peak past lam: the walk starts at the first j past the root of
    (j + 1)(m + j) = lam y, below 2**52, where orders still step by 1.
    """

    def _start(self, lam):
        m1 = self._m - 1.0
        root = 0.5 * (np.sqrt(m1 * m1 + 4.0 * lam * np.minimum(self._y, 1e300)) - m1)
        return np.minimum(np.floor(root), 2.0**52)

    def _value(self, a, live):
        return specfun._pois(a - 1.0, self._y[live])

    def _rows(self, sign, orders, m, value, live):
        return self._value(np.maximum(orders, m), live)


class BetaTerms(_TermWalk):
    """The terms T(j) = I_w(m + j, 1/2) of the radio BER, I being the
    regularized incomplete beta, at every entry of the array w in [0, 1].

    I_w(a, 1/2) = Pr(N >= a), N negative binomial of shape 1/2 and failure
    probability w, of mean w/(2(1 - w)): the step is d(a) = w^a (1 - w)^(1/2) / (a B(a, 1/2))
    (DLMF 8.17.20), from logs, and the anchor `specfun._beta_anchor`'s continued
    fraction.  I is log-convex in a, so a row ratio bounds nothing; but
    d(a + 1)/d(a) = w (a + 1/2)/(a + 1) rises toward w, so I(a + 1)/I(a) <= w
    and I(a - 1)/I(a) <= a/(w (a - 1/2)), whose product with j rises in j.
    The summand is about pois(j; lam w), peaking at floor(lam w).
    """

    def __init__(self, m, w):
        self._m, self._w = np.asarray(m, dtype=float), validate_snr(w)
        with np.errstate(divide="ignore"):  # log(0) sends d to its 0 limit, w = 1 the mean to inf
            self._log_w, self._half_log_1mw = np.log(self._w), 0.5 * np.log1p(-self._w)
            self._mean = 0.5 * self._w / (1.0 - self._w)

    def _start(self, lam):
        return np.floor(lam * self._w)

    def _value(self, a, live):
        return specfun._beta_anchor(a, self._w[live], self._step(a, live))

    def _step(self, a, live=slice(None)):
        log_d = a * self._log_w[live] + self._half_log_1mw[live]
        return np.exp(log_d - specfun._log_a_beta_half(a))

    def _rho(self, sign, orders, block, value, live):
        with np.errstate(divide="ignore", invalid="ignore"):  # w = 0: no bound on the left
            return np.where(sign > 0, self._w[live], orders / (self._w[live] * (orders - 0.5)))


def _mixture(k, m, x, terms):
    """The Poisson mixture sum_j pois(j; k*m) * T(m + j) at every entry of
    `x`, each entry with its own Rician K `k` and branch count `m` (arrays
    over `x`, or scalars for all of it), terms(m, part) being the term
    walk over the entries `part` (`GammaTerms`, `DensityTerms` or
    `BetaTerms`).

    One `poisson_weighted_sum` pass sums every entry whose rate k*m the
    budget covers (`specfun.covers`), each its own series at its own rate;
    an entry whose rate is not covered gets no term built and is 0, and
    is flagged as unconverged where x > 0.  At x = 0 that 0 is exact: each
    family's value there is 0 or, for the density at one branch, exp(-k),
    0 at such rates.  Raises the
    ConvergenceError of the first entry that ran out of terms, naming its
    series rate k*m, with an `unconverged` mask over all of `x`.
    """
    shape = np.shape(x)
    k, m, x = (v.ravel() for v in np.broadcast_arrays(k, m, x))
    with np.errstate(over="ignore"):  # a rate past the float range is inf
        lam = k * m
    out = np.zeros_like(x)
    run = specfun.covers(lam)
    unconverged = (x > 0.0) & ~run
    if run.any():
        out[run], unconverged[run] = poisson_weighted_sum(lam[run], terms(m[run], x[run]))
    if unconverged.any():
        rate = lam[unconverged][0]
        raise ConvergenceError(f"Poisson-weighted series did not converge: rate={rate:g}, steps="
                               f"{specfun._budget(rate):g}, rel_tol={specfun.REL_TOL:g}",
                               unconverged.reshape(shape))
    return out.reshape(shape)


def mrc_cdf_batch(gammas, params):
    """F(gammas[i]; params[i]) for every i, each point its own series.

    The params may differ in every field.  All points share one series
    pass, each at its own rate, and every point gets exactly the value of
    `mrc_snr_cdf(gammas[i], params[i])`.  Raises
    ConvergenceError if any point runs out of terms: its `unconverged`
    mask names those points and its message the series rate of the first.
    """
    return _cdf(*np.array(params, dtype=float).reshape(-1, 3).T, gammas)


def _cdf(k, m, mu, gamma):
    """The CDF's mixture at the SNRs gamma, for K, branch counts and mean
    SNRs k, m and mu (arrays over gamma, or scalars for all of it)."""
    with np.errstate(over="ignore"):  # GammaTerms clamps an argument past the float range
        return _mixture(k, m, (k + 1.0) * validate_snr(gamma) / mu, GammaTerms)


def mrc_gains(z, exps, fading, out=None):
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
    in `fading`.  The pair with the most branches, when it has two or
    more, is formed last, in z[..., 0] and then in the exponential row it
    reads, which no other pair needs by then: its gain is that row.  Every
    other pair's gain is written into out(K, m), an array the caller
    passes for it (the chunk kernel's reused scratch), or into a fresh
    array when `out` is None.  IEEE addition is commutative, so adding the
    shifted square into the row gives the same sum bit for bit.  Raises
    ValueError where m K is not a finite float, since its square would
    overflow.
    """
    z *= math.sqrt(0.5)
    im = z[..., 1]
    im *= im
    # rows become running sums of the exponentials, in row order
    for b in range(1, len(exps)):
        exps[b] += exps[b - 1]
    gains = {}
    pairs = sorted(set(fading), key=lambda pair: pair[::-1])  # the most branches last
    for k, m in pairs:
        if not math.isfinite(m * k):
            raise ValueError(f"the Rician rate K*M must be finite, got K={k:g}, M={m}")
        in_row = m > 1 and (k, m) == pairs[-1]
        gain = z[..., 0] if in_row else None if out is None else out(k, m)
        gain = np.add(z[..., 0], math.sqrt(m * k), out=gain)
        gain *= gain
        gain += im
        if in_row:  # a view of the row, a 0-d one for a scalar draw
            gain = np.add(exps[m - 2, ...], gain, out=exps[m - 2, ...])
        elif m > 1:
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
    w = (k_factor+1)/(k_factor+1+avg_snr), from `BetaTerms`.  All
    terms are positive and bounded by 1, so the series is evaluated to
    relative accuracy even when the result is many orders below 1.
    """
    return float(rf_avg_ber_batch([params])[0])


def rf_avg_ber_batch(params):
    """`rf_avg_ber` of every params, each its own sum, all in one series
    pass.  Raises as `mrc_cdf_batch` does."""
    k, m, mu = np.array(params, dtype=float).reshape(-1, 3).T
    return 0.5 * _mixture(k, m, (k + 1.0) / (k + 1.0 + mu), BetaTerms)
