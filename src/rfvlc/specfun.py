"""The special functions behind the closed forms and the Monte Carlo
kernel, in numpy and the standard library alone.

The combined radio SNR is a noncentral chi-square variable, so its CDF and
its average BER are both Poisson mixtures of bounded terms.
`poisson_weighted_sum` evaluates such mixtures in one pass over any
entries, each with its own rate, start and tail bound, under one budget
(`REL_TOL`, and min(TERMS_BASE + TERMS_SLOPE sqrt(rate), MAX_STEPS)
steps), and flags the entries whose steps run out before they meet
`REL_TOL`; the closed forms raise them as a `ConvergenceError` and never
return silently wrong numbers.  `covers` is the rule for the rates that
budget can cover at all, read from it.  The terms' walks
(`rf_channel.GammaTerms`, `rf_channel.BetaTerms`) take their anchors from
here: `_anchor`, the regularized incomplete gamma of integer order, and
`_beta_anchor`, the incomplete beta I_w(a, 1/2), with the masses `_pois`.
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
import math

import numpy as np

__all__ = [
    "REL_TOL",
    "TERMS_BASE",
    "TERMS_SLOPE",
    "MAX_STEPS",
    "covers",
    "ConvergenceError",
    "poisson_weighted_sum",
    "upper_gamma",
    "erfc_sqrt",
    "validate_snr",
    "is_integer",
    "checked",
]


# The truncation budget of every Poisson-weighted series: the relative
# error of the truncation every sum meets or is flagged, and the steps an
# entry at the rate lam may take, each one order on each side of its start:
# TERMS_BASE + TERMS_SLOPE sqrt(lam), up to MAX_STEPS, which bounds the
# time of a pass.
REL_TOL = 1e-10
TERMS_BASE, TERMS_SLOPE, MAX_STEPS = 64, 20, 6000


def _budget(lam):
    """The steps an entry at the rate lam may take, elementwise."""
    return np.minimum(TERMS_BASE + TERMS_SLOPE * np.sqrt(lam), MAX_STEPS)


def covers(lam):
    """Whether even the all-ones series, the largest sum of terms in
    [0, 1], could converge within the budget at the rate lam >= 0,
    elementwise over an array of rates.  After n steps from its start
    floor(lam) its right tail bound exceeds the next summand,
    pois(floor(lam) + n + 1; lam), and its sum is at most 1, so it cannot
    meet REL_TOL where that is >= REL_TOL at n = `_budget(lam)`, nor from
    2**53 on (inf included), where orders no longer step by 1."""
    ok = (0.0 <= lam) & (lam < 2.0**53)
    lam = np.where(ok, lam, 0.0)
    out = ok & (_pois(np.floor(lam) + _budget(lam) + 1.0, lam) < REL_TOL)
    return out if np.ndim(out) else bool(out)


class ConvergenceError(RuntimeError):
    """A truncated series failed to reach its tolerance within its budget.

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
    def checking(build):
        @functools.wraps(build)
        def build_checked(cls, *args, **kwargs):
            self = build(cls, *args, **kwargs)
            self._check()
            return self
        return build_checked

    record.__new__ = staticmethod(checking(record.__new__))
    record._make = classmethod(checking(record._make.__func__))
    return record


def poisson_weighted_sum(lam, term):
    """sum_{j>=0} pois(j; lam_i) T_i(j) at every entry i of the 1-D rates
    lam, for terms in [0, 1], each entry its own series at its own rate.

    `term` is called once, with the rates, and returns a term walk's
    (`rf_channel._TermWalk`) (j0, T(j0), right, left): each entry's start
    order and each side a
    generator of blocks (T, rho), one row per order outward from j0, 0 on
    the left past order 0, sent the entries still open for each next
    block.  rho bounds the ratio of each later term to the one before it,
    so the rest of a side is at most a row's summand times r/(1 - r),
    r = lam rho/(j + 1) on the right and j rho/lam on the left.

    An entry takes one order on each side per step, with weights from
    `_pois`, and stops once its bounds are below eps of its partial sum
    (or of 1e-300), so the truncation is below the rounding of its terms;
    its value does not depend on the other entries.  Returns (sums,
    unconverged): an entry is flagged (a partial sum) where its bounds are
    still above REL_TOL of its sum when its `_budget` steps run out, or at
    a rate `covers` refuses.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    bad = lam[~((lam >= 0.0) & (lam < math.inf))]
    if bad.size:
        raise ValueError(f"Poisson rate must be >= 0 and finite, got {bad[0]}")
    j0, value, right, left = term(lam)
    total = _pois(j0, lam) * value  # a fresh array, so adding in place never writes into a term
    steps = np.where(covers(lam), _budget(lam), 0.0)
    open_, bound = np.ones(total.shape, dtype=bool), np.full(total.shape, math.inf)
    rows = zip(_summands(right, 1, j0, lam, open_), _summands(left, -1, j0, lam, open_))
    for n, ((s_hi, b_hi), (s_lo, b_lo)) in enumerate(rows, 1):
        live = open_ & (n <= steps)
        if not live.any():
            break
        np.add(total, s_hi, out=total, where=live)
        np.add(total, s_lo, out=total, where=live)
        np.add(b_hi, b_lo, out=bound, where=live)
        open_ &= ~live | (_EPS * np.maximum(total, _TINY) < bound)
    return total, open_ & (REL_TOL * np.maximum(total, _TINY) < bound)


def _summands(side, sign, j, lam, open_):
    """The rows (summand, tail bound) over all entries of one side of a
    `poisson_weighted_sum`, walking from the orders j, from blocks over
    the entries `live`: all at first, then those still `open_` when the
    side is sent for its next block."""
    (summand, rho), live = next(side), np.arange(lam.size)
    while True:
        # the walk's values are 0 past order 0
        orders = np.maximum(j[live] + sign * np.arange(1.0, len(summand) + 1.0)[:, None], 0.0)
        j = j + sign * len(summand)
        summand *= _pois(orders, lam[live])  # the walk's block, done with
        # the ratios may meet 0 * inf or x/0, and the bound inf/inf; each
        # only where the row gives no bound, which is then inf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rho *= lam[live] / (orders + 1.0) if sign > 0 else orders / lam[live]  # r, in place
            rho[orders <= 0.0] = 0.0  # nothing is left past order 0
            bound = np.where(rho < 1.0, rho / (1.0 - rho) * summand, math.inf)
        del rho, orders  # the rows alone are held while they are summed
        for row, tail in zip(summand, bound):  # rows over every entry
            out = np.zeros((2, lam.size))
            out[:, live] = row, tail
            yield out
        del summand, bound, row, tail  # freed before the next block is made
        live = np.flatnonzero(open_)
        summand, rho = side.send(live)


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


# `_stirling_correction` and `_log_a_beta_half` below order 16, by order
# (entry 0 unused); past 15 the entry taken is the last, and not used
_SMALL_STIRLING = np.array([0.0] + [math.lgamma(v + 1.0) - (v + 0.5) * math.log(v) + v - _HALF_LOG_2PI
                                    for v in range(1, 16)])
_SMALL_BETA = np.array([0.0] + [math.log(4**v / math.comb(2 * v, v)) for v in range(1, 16)])


def _stirling_correction(a):
    """log(a!) - (a + 1/2) log(a) + a - log(2 pi)/2 for integer orders a >= 1."""
    # Stirling series; the first omitted term is below 2e-16 at a = 16
    r = 1.0 / (a * a)
    large = (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (1.0 / 1680.0 - r / 1188.0)))) / a
    return np.where(a < 16.0, np.take(_SMALL_STIRLING, np.asarray(a, dtype=np.intp), mode="clip"), large)


def _log_norm(a):
    """log(a!) - a log(a) + a = log(2 pi a)/2 + stirling(a), for integer orders a >= 1."""
    return _HALF_LOG_2PI + 0.5 * np.log(a) + _stirling_correction(a)


def _pois(a, y):
    """The Poisson mass pois(a; y) = y^a e^-y / a! of the integer orders
    a >= 0 at y >= 0, elementwise over the broadcast arrays.

    Evaluated as exp(a (log u - u + 1) - log(2 pi a)/2 - stirling(a)) with
    u = y/a: log1p carries log u - u + 1 where u is near 1, so the exponent
    is accurate to a few ulp of itself plus eps |y - a|, the conditioning
    of the mass in y.  It is never formed as a running product, which
    would underflow long before the tails it multiplies do.
    """
    b = np.maximum(a, 1.0)  # the orders 0 are patched in below
    # in place, so that a block of orders holds few temporaries
    s = np.subtract(y, b, out=np.empty(np.broadcast_shapes(np.shape(a), np.shape(y))))
    s /= b
    log_u = np.divide(y, b, out=np.empty_like(s))
    # log(0) and a * -huge only send the mass to its 0 limit
    with np.errstate(divide="ignore", over="ignore"):
        np.log(log_u, out=log_u, where=s < -0.5)
        np.log1p(s, out=log_u, where=s >= -0.5)
        log_u -= s
        log_u *= b
        log_u -= _log_norm(b)
        np.exp(log_u, out=log_u)
    np.copyto(log_u, np.exp(-np.asarray(y)), where=np.equal(a, 0))
    return log_u


def _series(ratios, half, *params):
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

    `half` is an order from which every entry's ratios are at most 1/2.
    From there each term at least halves, the sum is at least 1 and
    1 - r at least 1/2, so every entry stops by term half + 54; if an
    entry is still open (a NaN never stops) when the next block would
    start past term half + 64, it raises ConvergenceError.
    """
    total = np.ones(params[0].size)
    open_ = np.arange(total.size)  # the entries still summing, with
    last = term = np.ones(total.size)  # each one's sum so far and last term
    n = 1
    while open_.size:
        if not n <= half + 64.0:
            raise ConvergenceError(f"a positive series is still open after {n - 1} terms")
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
        del ratio, rest, terms, sums, stop  # freed before the next block is made
    return total


def _anchor(a, y):
    """P(a, y) at every entry of y > 0, for the integer orders a >= 1 of
    the entries.

    Where a > y, P = pois(a; y) S with
    S = 1 + y/(a+1) + y^2/((a+1)(a+2)) + ...; where a <= y,
    P = 1 - pois(a-1; y) R with R = 1 + (a-1)/y + (a-1)(a-2)/y^2 + ...,
    so P is summed directly where it is below about 1/2 and through its
    complement where it is above.  Both series have positive terms with
    falling ratios below 1, at most 1/2 from the order n = a on (y/(a+n)
    with y < a; (a-n)/y is 0 there), and `_series` sums them.
    """
    direct = y < a

    def ratios(ns, y, direct, a):
        r = y / (a + ns)
        np.divide(np.maximum(a - ns, 0.0), y, out=r, where=~direct)
        return r

    total = _series(ratios, np.max(a, initial=0.0), y, direct, a)
    return np.where(direct, _pois(a, y) * total, 1.0 - _pois(a - 1.0, y) * total)


def _log_a_beta_half(a):
    """log(a B(a, 1/2)) for integer orders a >= 1.

    a B(a, 1/2) = 4^a / C(2a, a), which is sqrt(pi a) times
    exp(2 stirling(a) - stirling(2a)); below 16, where `_stirling_correction`
    cancels, the integer quotient is rounded once instead."""
    large = 0.5 * np.log(np.pi * a) + 2.0 * _stirling_correction(a) - _stirling_correction(2.0 * a)
    return np.where(a < 16.0, np.take(_SMALL_BETA, np.asarray(a, dtype=np.intp), mode="clip"), large)


def _off_zero(v):
    """v itself, unless an entry is within _TINY of 0, which becomes _TINY."""
    if np.fmin.reduce(np.abs(v), initial=np.inf) < _TINY:  # fmin skips NaN
        return np.where(np.abs(v) < _TINY, _TINY, v)
    return v


# the iterations `_lentz` allows an entry.  Press et al., Numerical Recipes
# (3rd ed., 2007), put the beta's fraction at O(sqrt(max(p, q)))
# iterations at worst on its side of the switch (section 6.4), and the
# gamma's as fast above g = q + 1 (section 6.2).  The most measured is 89
# for the beta's, over the orders 1 to 2e6 (past every order a covered
# rate reaches) and w on both sides of the switch, at a = 613 next to it,
# and 93 for the gamma's, over q in (0, 1) and g from just above q + 1 to
# 1e300, next to q + 1; the cap is about 2.75 times that
_LENTZ_ITERATIONS = 256


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

    An entry still open after _LENTZ_ITERATIONS iterations (a NaN never
    stops) raises ConvergenceError.
    """
    f, out = d, np.empty_like(d)
    open_ = np.arange(d.size)  # the entries still converging
    for k in range(1, _LENTZ_ITERATIONS + 1):
        for a, b in coefs(k, *params):
            d = 1.0 / _off_zero(a * d + b)
            c = _off_zero(b + a / c)
            step = d * c
            f = f * step
        more = ~(np.abs(step - 1.0) <= 2.0 * _EPS)
        if not more.all():
            out[open_[~more]] = f[~more]
            open_, c, d, f, *params = (v[more] for v in (open_, c, d, f, *params))
        if not open_.size:
            return out
    raise ConvergenceError(f"a continued fraction is still open after {_LENTZ_ITERATIONS} iterations")


def _beta_anchor(a, w, front):
    """I_w(a, 1/2) at every entry of w in [0, 1], for integer orders a >= 1
    (an array over w, or one order for all of it), given front = w^a (1 - w)^(1/2) / (a B(a, 1/2)).

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
    p = np.where(direct, a, 0.5)
    q = np.where(direct, 0.5, a)
    x = np.where(direct, w, 1.0 - w)

    def coefs(k, p, q, x):
        p2k = p + 2 * k
        return ((k * (q - k) * x / ((p2k - 1) * p2k), 1.0),
                (-(p + k) * (p + q + k) * x / (p2k * (p2k + 1)), 1.0))

    d = 1.0 / _off_zero(1.0 - (p + q) * x / (p + 1.0))
    h = _lentz(np.ones_like(x), d, coefs, p, q, x)
    return np.where(direct, front * h, 1.0 - 2.0 * a * front * h)


def upper_gamma(q, g):
    """Gamma(q, g), the (unregularized) upper incomplete gamma, at every
    entry of the broadcast arrays 0 < q < 1 and g > 0: the optical BER
    takes it at the cell-edge SNRs, where q lies in (1/6, 1/2).

    Below g = q + 1 it is Gamma(q) - gamma(q, g), with the lower function
    from its positive series g^q e^-g / q (1 + g/(q+1) + g^2/((q+1)(q+2))
    + ...) (DLMF 8.7.1), summed by `_series` (its ratios are at most 1/2
    from n = 3 on, as g < q + 1 <= 2); the difference loses at most
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
                   - out[series] * _series(lambda ns, q, g: g / (q + ns), 3.0, qs, gs) / qs)
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
    alone, and the other two regions are patched on their index sets,
    their rationals in the front of `work`.  The high rational runs only up
    to log(DBL_MAX), and the entries past it are set to 0 directly: there
    exp(-s) would be subnormal, and numpy's exp took 3.8 ms per 65536
    subnormal results against 0.05 ms per 65536 normal ones.
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
        num, den = _horner(_ERF_LOW, s_low, work[:, :low.size])
        out[low] = 1.0 - np.sqrt(s_low) * num / den
    high = np.flatnonzero((s >= 64.0) & (s <= _MAXLOG))
    if high.size:
        s_high = s[high]
        num, den = _horner(_ERFC_HIGH, np.sqrt(s_high), work[:, :high.size])
        out[high] = np.exp(-s_high) * num / den
    out[s > _MAXLOG] = 0.0
    return out
