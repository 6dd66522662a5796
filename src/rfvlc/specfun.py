"""The special functions behind the closed forms and the Monte Carlo
kernel, in numpy and the standard library alone.

The combined radio SNR is a noncentral chi-square variable, so its CDF and
its average BER are both Poisson mixtures of bounded terms.
`poisson_weighted_sum` evaluates such a mixture elementwise under one
fixed truncation budget (`REL_TOL`, `MAX_TERMS`) and flags the entries
that run out of terms; the closed forms raise them as a `ConvergenceError`
and never return silently wrong numbers.  `covers` is the rule for the
rates that budget can cover at all.  The CDF's terms are regularized
incomplete gammas of integer order (`GammaTerms`) and the BER's are
regularized incomplete betas I_w(a, 1/2) (`BetaTerms`); each walk costs
one anchor per entry and then one multiply-add per term, and hands the
sum each of its two sides a block of orders at a time, equal to the walk
one order per step bit for bit.
The two continued fractions, the BER anchor's I_w(a, 1/2) and the
optical BER's Gamma(q, g) (`upper_gamma`, over arrays), run in one
modified-Lentz loop, `_lentz`; the two positive series, the CDF anchor's
P(a, y) and `upper_gamma`'s below g = q + 1, run in one block loop,
`_series`.  `erfc_sqrt` is the erfc(sqrt(snr)) of the
Monte Carlo and optical BERs.  `validate_snr`
is the one argument check shared by the SNR distributions of both hops,
`is_integer` the one rule for a count argument, and `checked` the one way
a parameter record runs its field checks.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

__all__ = [
    "REL_TOL",
    "MAX_TERMS",
    "covers",
    "ConvergenceError",
    "poisson_weighted_sum",
    "GammaTerms",
    "BetaTerms",
    "upper_gamma",
    "erfc_sqrt",
    "validate_snr",
    "is_integer",
    "checked",
]


# The truncation budget of every Poisson-weighted series: the target
# relative error of the truncation, and the cap on the number of terms.
REL_TOL = 1e-10
MAX_TERMS = 512


def covers(lam):
    """Whether a sum at the rate lam >= 0 could stop within the budget.
    Every tail bound of a `poisson_weighted_sum` is at least
    pois(floor(lam) + MAX_TERMS; lam), so no sum of terms in [0, 1] can stop
    where that is above 2 REL_TOL, nor from 2**53 on (inf included)."""
    return lam < 2.0**53 and bool(_pois(int(lam) + MAX_TERMS, lam) <= 2.0 * REL_TOL)


class ConvergenceError(RuntimeError):
    """A truncated series failed to reach its tolerance within MAX_TERMS.

    `unconverged` is the boolean mask of the failing elements, or None
    when the failure names no array.
    """

    def __init__(self, message, unconverged=None):
        super().__init__(message)
        self.unconverged = unconverged


def validate_snr(gamma):
    """`gamma` as a float array, rejecting negative and NaN SNR values."""
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0.0) or np.any(np.isnan(g)):
        raise ValueError("snr values must be >= 0")
    return g


def is_integer(value):
    """Whether `value` is an int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def checked(record):
    """Class decorator: every way of building the named tuple class
    `record` runs its `_check` method, which raises ValueError on a bad
    field.  That is the constructor, with keyword or positional arguments,
    which unpickling and `copy` call too, and `_make`, which `_replace`
    calls."""
    new, make = record.__new__, record._make.__func__

    @functools.wraps(new)
    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    @functools.wraps(make)
    def _make(cls, iterable):
        self = make(cls, iterable)
        self._check()
        return self

    record.__new__ = staticmethod(__new__)
    record._make = classmethod(_make)
    return record


def poisson_weighted_sum(lam, term):
    """Evaluate sum_{k>=0} pois(k; lam) * T(k) for term values in [0, 1],
    each entry of the 1-D array T(k) its own series sharing the rate.

    `term` is called once, at the start order k0 = floor(lam), and returns
    the block protocol of a `_TermWalk`: (T(k0), right, left), each side
    an iterator of blocks, one row per order, walking outward (T(k0 + 1),
    T(k0 + 2), ... on the right, T(k0 - 1) down to T(0) on the left).
    The sum takes the blocks' rows one order per step, and asks a side for
    its next block only once it has summed the rows of the last one.

    Terms are accumulated outward from the Poisson mode, so large `lam`
    costs O(sqrt(lam)) evaluations instead of O(lam) and the weights never
    underflow prematurely.  The remaining tail is bounded through the
    frontier weights themselves (geometric-ratio bound), which keeps the
    stopping rule meaningful even when a sum is many orders of magnitude
    below 1.  An entry stops once the bound is within REL_TOL of its
    own partial sum, and later terms are added only to the entries still
    open, so its value does not depend on the other entries.  At lam = 0
    the first bound is 0 and the sum is T(0).

    Returns (sums, unconverged): entries still open after MAX_TERMS are
    flagged in the boolean mask (their sums are partial).
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"Poisson rate must be >= 0 and finite, got {lam}")
    k0 = int(lam)
    p0 = math.exp(-lam) if k0 == 0 else math.exp(k0 * math.log(lam) - lam - math.lgamma(k0 + 1))
    value, right, left = term(k0)
    total = p0 * value  # a fresh array, so adding in place never writes into a term
    right, left = itertools.chain.from_iterable(right), itertools.chain.from_iterable(left)
    k_lo = k_hi = k0
    p_lo = p_hi = p0
    open_ = np.ones(total.shape, dtype=bool)

    for _ in range(MAX_TERMS):
        # Tail bound: the right terms fall at least geometrically with ratio
        # lam/(k_hi+2), below 1 as k_hi >= floor(lam) unless k_hi + 2 rounds
        # to lam (past 2**53); the left ones with ratio k_lo/lam, 1 on the
        # first step for an integer lam, and the left side ends at k = 0.
        ratio_hi = lam / (k_hi + 2.0)
        ratio_lo = k_lo / lam if k_lo > 0 else 0.0
        if ratio_hi < 1.0 and ratio_lo < 1.0:
            bound = (p_hi * (lam / (k_hi + 1.0)) / (1.0 - ratio_hi)
                     + p_lo * ratio_lo / (1.0 - ratio_lo))
            # the bound is a float, so one array comparison per step; the
            # terms, so the sums, are >= 0
            open_ &= bound >= 1e-300 and REL_TOL * total < bound
            if not open_.any():
                break

        p_hi = p_hi * lam / (k_hi + 1.0)
        k_hi += 1
        np.add(total, p_hi * next(right), out=total, where=open_)
        if k_lo > 0:
            p_lo = p_lo * k_lo / lam
            k_lo -= 1
            np.add(total, p_lo * next(left), out=total, where=open_)
    return total, open_


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_EPS = 2.0**-53
_TINY = 1e-300
_BIG = np.finfo(float).max

# A series walk or anchor computes the next block of orders for all its
# entries in one pass: up to _BLOCK_ORDERS orders, fewer where the block
# would hold more than _BLOCK_ELEMENTS values, so its temporaries stay
# small.  The cap bounds the orders a walk computes past its last stop,
# each of which costs a scalar constant in Python.
_BLOCK_ELEMENTS = 8192
_BLOCK_ORDERS = 64


def _block_len(entries):
    """The orders in one block over `entries` >= 1 entries."""
    return max(1, min(_BLOCK_ORDERS, _BLOCK_ELEMENTS // entries))


def _stirling_correction(a):
    """log(a!) - (a + 1/2) log(a) + a - log(2 pi)/2 for an integer a >= 1."""
    if a < 16:
        return math.lgamma(a + 1.0) - (a + 0.5) * math.log(a) + a - _HALF_LOG_2PI
    # Stirling series; the first omitted term is below 2e-16 at a = 16
    r = 1.0 / (a * a)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (
        1.0 / 1680.0 - r / 1188.0)))) / a


def _log_norm(a):
    """log(a!) - a log(a) + a = log(2 pi a)/2 + stirling(a), for an integer a >= 1."""
    return _HALF_LOG_2PI + 0.5 * math.log(a) + _stirling_correction(a)


def _orders(a, const):
    """(a, const(a)) for one integer order a; for a sequence of orders, a
    float column of them and the column of const at each, so that an array
    over the entries broadcasts against them to one row per order.  Each
    const(a) is a scalar Python float either way, so a row is bit for bit
    the array of its order alone."""
    if np.ndim(a) == 0:
        return a, const(a)
    return np.array(a, dtype=float)[:, None], np.array([[const(k)] for k in a])


def _pois(a, y):
    """The Poisson mass pois(a; y) = y^a e^-y / a! of an integer a >= 0 at
    every entry of y >= 0; for a sequence of orders a >= 1, one row per order.

    Evaluated as exp(a (log u - u + 1) - log(2 pi a)/2 - stirling(a)) with
    u = y/a: log1p carries log u - u + 1 where u is near 1, so the exponent
    is accurate to a few ulp of itself plus eps |y - a|, the conditioning
    of the mass in y.  It is never formed as a running product, which
    would underflow long before the tails it multiplies do.
    """
    if np.ndim(a) == 0 and a == 0:
        return np.exp(-y)
    a, log_norm = _orders(a, _log_norm)
    # in place, and y copied in before a broadcast order meets it, since a
    # binary op on two broadcast operands buffers both
    s = np.empty(np.shape(a)[:1] + np.shape(y))  # a row per order of a column
    s[...] = y
    s -= a
    s /= a
    far = s < -0.5
    # log(0) and a * -huge only send the mass to its 0 limit
    with np.errstate(divide="ignore", over="ignore"):
        log_u = np.empty_like(s)
        log_u[...] = y
        log_u /= a
        np.log(log_u, out=log_u, where=far)
        np.log1p(s, out=log_u, where=~far)
        log_u -= s
        log_u *= a
        log_u -= log_norm
        return np.exp(log_u, out=log_u)


def _series(ratios, *params):
    """S = 1 + r1 + r1 r2 + r1 r2 r3 + ... at every entry of the 1-D
    arrays `params`, for ratios r_n >= 0 that fall in n and drop below 1.

    ratios(ns, *params) gives the ratios r_n at the float column of orders
    ns over the entries of the params, one row per order, as a fresh array;
    the params passed are those of the entries still open, as `_lentz`
    passes its `coefs`.  Each entry stops on its own once the geometric
    bound on its tail is below eps of its partial sum, so its value does
    not depend on the other entries.

    The series runs a block of terms at a time over the entries still
    open: the running products of the block's ratios and the running sums
    of its terms (`multiply` and `add` accumulate, each as sequential as
    one term per step), then each entry's first stop in the block.
    """
    total = np.ones(params[0].size)
    open_ = np.arange(total.size)  # the entries still summing, with
    last = term = np.ones(total.size)  # each one's sum so far and last term
    n = 1
    while open_.size:
        ns = np.arange(n, n + _block_len(open_.size), dtype=float)[:, None]
        n += len(ns)
        ratio = ratios(ns, *params)
        rest = 1.0 - ratio
        ratio[0] *= term
        terms = np.multiply.accumulate(ratio, axis=0, out=ratio)
        sums = np.add.accumulate(np.concatenate([last[None], terms]), axis=0)
        # an entry stops before its first term t <= eps S (1 - r), S its
        # sum before t: the geometric bound on the tail from t on
        stop = terms <= _EPS * sums[:-1] * rest
        done = stop.any(axis=0)
        total[open_[done]] = sums[stop[:, done].argmax(axis=0), done]
        open_, last, term, *params = (v[~done] for v in (open_, sums[-1], terms[-1], *params))
    return total


def _anchor(a, y):
    """P(a, y) at every entry of y > 0, for an integer order a >= 1.

    Where a > y, P = pois(a; y) S with
    S = 1 + y/(a+1) + y^2/((a+1)(a+2)) + ...; where a <= y,
    P = 1 - pois(a-1; y) R with R = 1 + (a-1)/y + (a-1)(a-2)/y^2 + ...,
    so P is summed directly where it is below about 1/2 and through its
    complement where it is above.  Both series have positive terms with
    falling ratios below 1, and `_series` sums them.
    """
    direct = y < a

    def ratios(ns, y, direct):
        r = y / (a + ns)
        np.divide(np.maximum(a - ns, 0.0), y, out=r, where=~direct)
        return r

    total = _series(ratios, y, direct)
    return np.where(direct, _pois(a, y) * total, 1.0 - _pois(a - 1, y) * total)


class _TermWalk:
    """The terms T(a) of a `poisson_weighted_sum`, T(a) being an array
    of terms that fall in the integer order a, with known steps
    d(a) = T(a) - T(a + 1) >= 0.  Both term families are tails
    Pr(N >= a) of a count N, Poisson for `GammaTerms` and negative binomial
    for `BetaTerms`, so d(a) is the mass Pr(N = a) of that count.

    The block protocol: walk(j) anchors the walk at the order a0 = m + j
    (`_start`) and returns (T(a0), right, left), each side a generator
    (`_side`) that yields its next block of orders per next(), one row
    per order, outward from a0: T(a0 + 1), T(a0 + 2), ... on the right and
    T(a0 - 1) down to T(m) on the left.  Both sides' blocks hold
    `_block_len` orders, the left's last one cut at order m, so the sum
    takes the two sides' blocks in step.  Each order is one multiply-add
    away from its inner neighbour:

        T(a - 1) = T(a) + d(a - 1)               (left, positive)
        T(a + 1) = max(T(a) - d(a), 0)           (right)

    A right step cancels, but its absolute error stays a few ulp of
    T(a0) per step.  That is small against the mixture it feeds: T falls
    in a and the Poisson weight at or below the mode a0 - m is about 1/2,
    so the mixture is at least about T(a0)/2, and after the O(sqrt(lam))
    steps of the walk its relative error stays about sqrt(lam) eps.

    A side holds its frontier and computes a block in one pass, and its
    values are the per-step walk's bit for bit: one sequential
    accumulate of the frontier value and the steps (`np.add` on the left,
    `np.subtract` on the right) takes the same steps in the same order,
    and on the right a single max(., 0) after it equals the clamp at each
    step, since every step is >= 0 (once a partial value is below 0,
    every later one is too).
    The mass d falls away from its mode on both sides, `mode` holding
    each entry's, so an entry whose step is 0.0 at an order a beyond its
    mode (a >= mode on the right, a <= mode on the left) is dead on that
    side: its later steps there are all 0.0 too, so its value stays
    where it is, and the walk computes no more steps for it there.
    Subclasses give `_start(a)` = T(a) and `_step(a, live)` = d(a) at the
    entries `live` (one row per order for a sequence of orders).
    """

    def __init__(self, m, mode):
        self._m, self._mode = m, mode

    def __call__(self, j):
        a = self._m + j
        value = self._start(a)
        return value, self._side(1, a, value), self._side(-1, a, value)

    def _side(self, sign, a, value):
        """The blocks of values at the orders past a, whose value is
        `value`, on the side `sign` (+1 right, -1 left), one per next().
        A block is computed when it is asked for; `live` holds the entries
        whose steps on this side may still be nonzero."""
        count, live = _block_len(value.size), np.arange(value.size)
        while True:
            if sign > 0:  # T(a + 1) = max(T(a) - d(a), 0)
                orders = range(a, a + count)
            else:         # T(a - 1) = T(a) + d(a - 1), down to order m
                orders = range(a - 1, max(a - 1 - count, self._m - 1), -1)
            block = steps = self._step(orders, live)
            dead = (steps[-1] == 0.0) & (sign * orders[-1] >= sign * self._mode[live])
            if sign > 0:
                steps[0] = value[live] - steps[0]
                np.subtract.accumulate(steps, axis=0, out=steps)
                np.maximum(steps, 0.0, out=steps)
            else:
                steps[0] += value[live]
                np.add.accumulate(steps, axis=0, out=steps)
            if live.size < value.size:
                block = np.repeat(value[None], len(orders), axis=0)
                block[:, live] = steps
            live = live[~dead]
            yield block
            # a copy, so that the block is freed once the next one is made
            a, value = a + sign * len(orders), block[-1].copy()


class GammaTerms(_TermWalk):
    """The terms T(m + j) = P(m + j, y) of the radio CDF, P(a, y) being
    the regularized lower incomplete gamma at every entry of the array
    y > 0, walked as `_TermWalk` describes.

    For an integer order a, P(a, y) = Pr(N >= a) with N ~ Poisson(y), so
    the step is d(a) = pois(a; y), and the anchor is `_anchor`'s positive
    series, and the mode is y.  Arguments above the float range are
    clamped to it, where P is 1.
    """

    def __init__(self, m, y):
        self._y = np.minimum(np.asarray(y, dtype=float), _BIG)
        super().__init__(m, self._y)

    def _start(self, a):
        return _anchor(a, self._y)

    def _step(self, a, live):
        return _pois(a, self._y[live])


def _log_a_beta_half(a):
    """log(a B(a, 1/2)) for an integer a >= 1.

    a B(a, 1/2) = 4^a / C(2a, a), which is sqrt(pi a) times
    exp(2 stirling(a) - stirling(2a)); below 16, where `_stirling_correction`
    cancels, the integer quotient is rounded once instead."""
    if a < 16:
        return math.log(4**a / math.comb(2 * a, a))
    return (0.5 * math.log(math.pi * a) + 2.0 * _stirling_correction(a)
            - _stirling_correction(2 * a))


def _off_zero(v):
    """v itself, unless an entry is within _TINY of 0, which becomes _TINY."""
    if np.fmin.reduce(np.abs(v), initial=np.inf) < _TINY:  # fmin skips NaN
        return np.where(np.abs(v) < _TINY, _TINY, v)
    return v


def _lentz(c, d, coefs, *params):
    """A continued fraction at every entry, by modified Lentz (Thompson &
    Barnett, J. Comput. Phys. 64, 1986), as Numerical Recipes' betacf and
    gcf: from the arrays c and d of Lentz's ratios after the fraction's
    first level, whose value is d.

    coefs(k, *params) gives the partial numerators and denominators (a, b)
    of iteration k = 1, 2, ... as a sequence of pairs, from the per-entry
    arrays `params`; each pair takes d to 1/(b + a d), c to b + a/c, both
    kept off 0, and the value f to f c d.  Each entry stops once the last factor of
    an iteration is within 2 eps of 1 and leaves the later iterations, so
    its value does not depend on the other entries.
    """
    f, out = d, np.empty_like(d)
    open_ = np.arange(d.size)  # the entries still converging
    k = 0
    while open_.size:
        k += 1
        for a, b in coefs(k, *params):
            d = 1.0 / _off_zero(a * d + b)
            c = _off_zero(b + a / c)
            step = d * c
            f = f * step
        more = np.abs(step - 1.0) > 2.0 * _EPS
        if not more.all():
            out[open_[~more]] = f[~more]
            open_, c, d, f, *params = (v[more] for v in (open_, c, d, f, *params))
    return out


def _beta_anchor(a, w, front):
    """I_w(a, 1/2) at every entry of w in [0, 1], for an integer order
    a >= 1, given front = w^a (1 - w)^(1/2) / (a B(a, 1/2)).

    The continued fraction of DLMF 8.17.22,

        I_x(p, q) = x^p (1-x)^q / (p B(p, q)) / (1 + d1/(1 + d2/(1 + ...))),
        d(2k+1) = -(p+k)(p+q+k) x / ((p+2k)(p+2k+1)),
        d(2k) = k (q-k) x / ((p+2k-1)(p+2k)),

    converges fast where x < (p+1)/(p+q+2).  Entries above that use
    I_w(a, 1/2) = 1 - I_{1-w}(1/2, a), whose value is then above 0.083
    (its limit at the switch for large a), so the complement loses at most
    about one digit; its prefactor is 2 a front.  `_lentz` evaluates it,
    an iteration k being the pair of steps d(2k), d(2k+1).
    """
    direct = w < (a + 1.0) / (a + 2.5)
    p = np.where(direct, float(a), 0.5)
    q = np.where(direct, 0.5, float(a))
    x = np.where(direct, w, 1.0 - w)

    def coefs(k, p, q, x):
        p2k = p + 2 * k
        return ((k * (q - k) * x / ((p2k - 1) * p2k), 1.0),
                (-(p + k) * (p + q + k) * x / (p2k * (p2k + 1)), 1.0))

    d = 1.0 / _off_zero(1.0 - (p + q) * x / (p + 1.0))
    h = _lentz(np.ones_like(x), d, coefs, p, q, x)
    return np.where(direct, front * h, 1.0 - 2.0 * a * front * h)


class BetaTerms(_TermWalk):
    """The terms T(m + j) = I_w(m + j, 1/2) of the radio BER, I being the
    regularized incomplete beta at every entry of the array w in [0, 1],
    walked as `_TermWalk` describes.

    The twin of `GammaTerms`: I_w(a, 1/2) = Pr(N >= a) with N negative
    binomial of shape 1/2 and failure probability w, so the step is its
    mass d(a) = w^a (1 - w)^(1/2) / (a B(a, 1/2)) (DLMF 8.17.20), formed
    from logs, so it never underflows before the value it changes does.
    The anchor is `_beta_anchor`'s continued fraction, and the mode is 0,
    since the mass falls in a everywhere.
    """

    def __init__(self, m, w):
        self._w = np.asarray(w, dtype=float)
        super().__init__(m, np.zeros_like(self._w))
        with np.errstate(divide="ignore"):  # log(0) sends d to its 0 limit
            self._log_w = np.log(self._w)
            self._half_log_1mw = 0.5 * np.log1p(-self._w)

    def _start(self, a):
        return _beta_anchor(a, self._w, self._step(a))

    def _step(self, a, live=slice(None)):
        a, log_norm = _orders(a, _log_a_beta_half)
        log_d = np.empty(np.shape(a)[:1] + self._w[live].shape)
        log_d[...] = self._log_w[live]  # filled in place, as `_pois`
        log_d *= a
        log_d += self._half_log_1mw[live]
        log_d -= log_norm
        return np.exp(log_d, out=log_d)


def upper_gamma(q, g):
    """Gamma(q, g), the (unregularized) upper incomplete gamma, at every
    entry of the broadcast arrays 0 < q < 1 and g > 0: the optical BER
    takes it at the cell-edge SNRs, where q lies in (1/6, 1/2).

    Below g = q + 1 it is Gamma(q) - gamma(q, g), with the lower function
    from its positive series g^q e^-g / q (1 + g/(q+1) + g^2/((q+1)(q+2))
    + ...) (DLMF 8.7.1), summed by `_series`; the difference loses at most
    about one digit there.  Above,
    Legendre's continued fraction (DLMF 8.9.2) by `_lentz`.  Each entry's
    value does not depend on the other entries.
    """
    q, g = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(g, dtype=float))
    shape, q, g = g.shape, q.ravel(), g.ravel()
    out = np.exp(-g) * g**q
    series = g < q + 1.0
    qs, gs = q[series], g[series]
    out[series] = ([math.gamma(v) for v in qs]
                   - out[series] * _series(lambda ns, q, g: g / (q + ns), qs, gs) / qs)
    b0 = g[~series] + 1.0 - q[~series]
    out[~series] *= _lentz(np.full_like(b0, 1.0 / _TINY), 1.0 / b0,
                           lambda n, q, b0: ((-n * (n - q), b0 + 2.0 * n),), q[~series], b0)
    return out.reshape(shape)[()]


# erfc(x) by the rational approximations of cephes (ndtr.c), written in the
# SNR s = x^2: 1 - x T(s)/U(s) below s = 1, exp(-s) P(x)/Q(x) on [1, 64)
# and exp(-s) R(x)/S(x) from 64 on.  Each table holds (numerator,
# denominator) coefficient pairs, highest power first; the shorter
# polynomial is padded with leading zeros, which Horner's rule passes
# through exactly.
def _rational_table(num, den):
    num = [0.0] * (len(den) - len(num)) + num
    return np.array([num, den]).T[:, :, None]


_ERF_LOW = _rational_table(
    [9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
     7.00332514112805075473e3, 5.55923013010394962768e4],
    [1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
     2.26290000613890934246e4, 4.92673942608635921086e4])
_ERFC_MID = _rational_table(
    [2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
     4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2],
    [1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
     9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
     1.65666309194161350182e3, 5.57535340817727675546e2])
_ERFC_HIGH = _rational_table(
    [5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
     6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0],
    [1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
     1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0])
_MAXLOG = 7.09782712893383996843e2  # log of the largest float


def _horner(table, x, work):
    """The numerator and denominator of a `_rational_table` at x, both by
    Horner's rule at once in the (2, n) scratch `work`."""
    np.multiply(x, table[0], out=work)
    for coef in table[1:-1]:
        work += coef
        work *= x
    work += table[-1]
    return work


def erfc_sqrt(s, out=None, work=None):
    """erfc(sqrt(s)) at every entry of the 1-D array s >= 0: the
    conditional BPSK bit error probability is half of it.

    The factor exp(-x^2) of cephes' rationals is taken from s itself: the
    square of a rounded sqrt(s) would carry a relative error of about
    s eps into it.  The relative error is within 4e-15 wherever the value
    is a normal float; past log(DBL_MAX) the value is 0.

    `out` (n,) receives the result and `work` is (2, n) scratch; both are
    allocated when not given, and `out` must not share memory with `s`.
    The middle rational is evaluated on every entry, in `out` and `work`
    alone, and the other two regions are patched on their index sets.
    """
    if out is None:
        out = np.empty_like(s)
    if work is None:
        work = np.empty((2,) + s.shape)
    # entries from 64 on may overflow here; they are patched below
    with np.errstate(over="ignore", invalid="ignore"):
        num, den = _horner(_ERFC_MID, np.sqrt(s, out=out), work)
        den *= np.exp(s, out=out)
        np.divide(num, den, out=out)

    low = np.flatnonzero(s < 1.0)
    if low.size:
        s_low = s[low]
        num, den = _horner(_ERF_LOW, s_low, np.empty((2, low.size)))
        out[low] = 1.0 - np.sqrt(s_low) * num / den
    high = np.flatnonzero(s >= 64.0)
    if high.size:
        s_high = np.minimum(s[high], _MAXLOG)
        num, den = _horner(_ERFC_HIGH, np.sqrt(s_high), np.empty((2, high.size)))
        out[high] = np.where(s[high] <= _MAXLOG, np.exp(-s_high) * num / den, 0.0)
    return out
