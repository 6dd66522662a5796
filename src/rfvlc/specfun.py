"""The Poisson-mixture series behind the radio-hop closed forms.

The combined radio SNR is a noncentral chi-square variable, so its CDF and
its average BER are both Poisson mixtures of bounded terms.
`poisson_weighted_sum` evaluates such a mixture elementwise under one
fixed truncation budget (`REL_TOL`, `MAX_TERMS`) and flags the entries
that run out of terms; the closed forms raise them as a `ConvergenceError`
and never return silently wrong numbers.  The CDF's terms are regularized
incomplete gammas of integer order, which `GammaTerms` evaluates with
numpy alone, as Poisson tails, one multiply-add per term after an anchor
series; so the outage path needs no scipy.  `validate_snr` is the one
argument check shared by the SNR distributions of both hops.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "REL_TOL",
    "MAX_TERMS",
    "ConvergenceError",
    "poisson_weighted_sum",
    "GammaTerms",
    "validate_snr",
]


# The truncation budget of every Poisson-weighted series: the target
# relative error of the truncation, and the cap on the number of terms.
REL_TOL = 1e-10
MAX_TERMS = 512


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


def poisson_weighted_sum(lam, term):
    """Evaluate sum_{k>=0} pois(k; lam) * term(k) for term values in [0, 1],
    each entry of the 1-D array term(k) its own series sharing the rate.

    Terms are accumulated outward from the Poisson mode, so large `lam`
    costs O(sqrt(lam)) evaluations instead of O(lam) and the weights never
    underflow prematurely.  The remaining tail is bounded through the
    frontier weights themselves (geometric-ratio bound), which keeps the
    stopping rule meaningful even when a sum is many orders of magnitude
    below 1.  An entry stops once the bound is within REL_TOL of its
    own partial sum and is frozen from then on, so its value does not
    depend on the other entries.

    Returns (sums, unconverged): entries still open after MAX_TERMS are
    flagged in the boolean mask (their sums are partial).
    """
    if lam < 0.0:
        raise ValueError(f"Poisson rate must be >= 0, got {lam}")
    if lam == 0.0:
        first = term(0)
        return first, np.zeros(np.shape(first), dtype=bool)

    k0 = int(lam)
    p0 = math.exp(k0 * math.log(lam) - lam - math.lgamma(k0 + 1))
    total = p0 * term(k0)
    k_lo = k_hi = k0
    p_lo = p_hi = p0
    frozen = np.empty(np.shape(total))
    open_ = np.ones(frozen.shape, dtype=bool)

    for _ in range(MAX_TERMS):
        # Tail bound: remaining right terms decay at least geometrically with
        # ratio lam/(k_hi+2) once that ratio is < 1; the left side similarly
        # with ratio k_lo/lam, and terminates at k = 0 regardless.
        ratio_hi = lam / (k_hi + 2.0)
        bound = math.inf
        if ratio_hi < 1.0:
            bound = p_hi * (lam / (k_hi + 1.0)) / (1.0 - ratio_hi)
            if k_lo > 0:
                ratio_lo = k_lo / lam
                if ratio_lo < 1.0:
                    bound += p_lo * ratio_lo / (1.0 - ratio_lo)
                else:
                    bound = math.inf
        if bound < math.inf:
            stop = (bound <= REL_TOL * np.abs(total)) | (bound < 1e-300)
            newly = open_ & stop
            frozen[newly] = total[newly]
            open_ &= ~newly
            if not open_.any():
                return frozen, open_

        p_hi = p_hi * lam / (k_hi + 1.0)
        k_hi += 1
        total = total + p_hi * term(k_hi)
        if k_lo > 0:
            p_lo = p_lo * k_lo / lam
            k_lo -= 1
            total = total + p_lo * term(k_lo)

    frozen[open_] = total[open_]
    return frozen, open_


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_EPS = 2.0**-53
_BIG = np.finfo(float).max


def _stirling_correction(a):
    """log(a!) - (a + 1/2) log(a) + a - log(2 pi)/2 for an integer a >= 1."""
    if a < 16:
        return math.lgamma(a + 1.0) - (a + 0.5) * math.log(a) + a - _HALF_LOG_2PI
    # Stirling series; the first omitted term is below 2e-16 at a = 16
    r = 1.0 / (a * a)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (
        1.0 / 1680.0 - r / 1188.0)))) / a


def _pois(a, y):
    """The Poisson mass pois(a; y) = y^a e^-y / a! of an integer a >= 0 at
    every entry of the array y > 0.

    Evaluated as exp(a (log u - u + 1) - log(2 pi a)/2 - stirling(a)) with
    u = y/a: log1p carries log u - u + 1 where u is near 1, so the exponent
    is accurate to a few ulp of itself plus eps |y - a|, the conditioning
    of the mass in y.  It is never formed as a running product, which
    would underflow long before the tails it multiplies do.
    """
    if a == 0:
        return np.exp(-y)
    s = (y - a) / a
    # log(0) and a * -huge only send the mass to its 0 limit
    with np.errstate(divide="ignore", over="ignore"):
        log_u = np.where(s < -0.5, np.log(y / a), np.log1p(np.maximum(s, -0.5)))
        return np.exp(a * (log_u - s) - (_HALF_LOG_2PI + 0.5 * math.log(a)
                                            + _stirling_correction(a)))


def _anchor(a, y):
    """P(a, y) at every entry of y > 0, for an integer order a >= 1.

    Where a > y, P = pois(a; y) S with
    S = 1 + y/(a+1) + y^2/((a+1)(a+2)) + ...; where a <= y,
    P = 1 - pois(a-1; y) R with R = 1 + (a-1)/y + (a-1)(a-2)/y^2 + ...,
    so P is summed directly where it is below about 1/2 and through its
    complement where it is above.  Both series have positive terms with
    falling ratios below 1, and each entry stops on its own once the
    geometric bound on its tail is below eps of its partial sum, so its
    value does not depend on the other entries.
    """
    direct = y < a

    def ratio(n):
        return np.where(direct, y / (a + n), max(a - n, 0) / y)

    term = np.ones_like(y)
    total = np.ones_like(y)
    open_ = np.ones(y.shape, dtype=bool)
    r = ratio(1)
    n = 1
    while True:
        open_ &= term * r > _EPS * total * (1.0 - r)
        if not open_.any():
            break
        term = term * r
        total = np.where(open_, total + term, total)
        n += 1
        r = ratio(n)
    return np.where(direct, _pois(a, y) * total, 1.0 - _pois(a - 1, y) * total)


class GammaTerms:
    """term(j) = P(m + j, y) for the orders `poisson_weighted_sum` asks
    for, P(a, y) being the regularized lower incomplete gamma at every
    entry of the array y > 0.

    For an integer order a, P(a, y) = Pr(N >= a) with N ~ Poisson(y).  The
    first call anchors the walk at its order a0 (`_anchor`, one positive
    series per entry); after that only the neighbours of the two frontier
    orders may be asked for, each one multiply-add away:

        P(a - 1) = P(a) + pois(a - 1; y)             (left, positive)
        P(a + 1) = max(P(a) - pois(a; y), 0)         (right)

    A right step cancels, but its absolute error stays a few ulp of
    P(a0) per step.  That is small against the mixture it feeds: P falls
    in a and the Poisson weight at or below the mode a0 - m is about 1/2,
    so the mixture is at least about P(a0)/2, and after the O(sqrt(lam))
    steps of the walk its relative error stays about sqrt(lam) eps.
    Arguments above the float range are clamped to it, where P is 1.
    """

    def __init__(self, m, y):
        self._m = m
        self._y = np.minimum(np.asarray(y, dtype=float), _BIG)
        self._lo = self._hi = None  # (order, value) at each frontier

    def __call__(self, j):
        a = self._m + j
        if self._lo is None:
            p = _anchor(a, self._y)
            self._lo = self._hi = (a, p)
        elif a == self._lo[0] - 1:
            p = self._lo[1] + _pois(a, self._y)
            self._lo = (a, p)
        elif a == self._hi[0] + 1:
            p = np.maximum(self._hi[1] - _pois(a - 1, self._y), 0.0)
            self._hi = (a, p)
        else:
            raise ValueError(f"order {a} is not next to the walked orders "
                             f"{self._lo[0]}..{self._hi[0]}")
        return p
