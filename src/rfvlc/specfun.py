"""Special functions behind the link-performance closed forms.

Everything accepts floats and, where noted, numpy arrays.  Series are
truncated under an explicit accuracy budget (`Accuracy`); running out of
terms raises `ConvergenceError` rather than returning a silently wrong
number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

__all__ = [
    "Accuracy",
    "DEFAULT_ACCURACY",
    "ConvergenceError",
    "bessel_i_int",
    "erfc",
    "upper_inc_gamma",
]


class ConvergenceError(RuntimeError):
    """A truncated series failed to reach its tolerance within max_terms.

    `unconverged` is None, or the boolean mask of the failing elements when
    the error reports a batch evaluation (see `series_error`).
    """

    unconverged = None


@dataclass(frozen=True)
class Accuracy:
    """Truncation budget for series evaluation.

    rel_tol is the target relative error contributed by truncation,
    max_terms caps the number of series terms considered.
    """

    rel_tol: float = 1e-10
    max_terms: int = 512

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-3):
            raise ValueError(f"rel_tol must be in (0, 1e-3], got {self.rel_tol}")
        if self.max_terms < 16:
            raise ValueError(f"max_terms must be >= 16, got {self.max_terms}")


DEFAULT_ACCURACY = Accuracy()


def series_error(lam, acc=DEFAULT_ACCURACY, unconverged=None):
    """The ConvergenceError of a Poisson-weighted series at rate `lam` that
    ran out of terms; `unconverged` masks the failing elements of a batch."""
    exc = ConvergenceError(
        f"Poisson-weighted series did not converge: rate={lam:g}, "
        f"max_terms={acc.max_terms}, rel_tol={acc.rel_tol:g}"
    )
    exc.unconverged = unconverged
    return exc


def poisson_weighted_sum(lam, term, acc=DEFAULT_ACCURACY, absolute=False,
                         independent=False):
    """Evaluate sum_{k>=0} pois(k; lam) * term(k) for term values in [0, 1].

    Terms are accumulated outward from the Poisson mode, so large `lam`
    costs O(sqrt(lam)) evaluations instead of O(lam) and the weights never
    underflow prematurely.  The remaining tail is bounded through the
    frontier weights themselves (geometric-ratio bound), which keeps the
    stopping rule meaningful even when the sum is many orders of magnitude
    below 1.  With absolute=True the bound is compared against acc.rel_tol
    directly (suitable for probabilities); otherwise against
    acc.rel_tol * |partial sum|.

    term(k) may return a float or an ndarray of a fixed shape.  By default
    an array is one sum with one budget: the series stops once the bound
    meets the budget of its smallest nonzero entry, and running out of
    terms raises ConvergenceError.

    With independent=True, term(k) returns a 1-D array whose entries are
    separate sums sharing the rate.  Each entry stops at exactly the term
    where a scalar call for that entry alone would stop and is frozen from
    then on.  Returns (sums, unconverged): entries still open after
    acc.max_terms are flagged in the boolean mask (their sums are partial)
    instead of raising.
    """
    if lam < 0.0:
        raise ValueError(f"Poisson rate must be >= 0, got {lam}")
    if lam == 0.0:
        first = term(0)
        return (first, np.zeros(np.shape(first), dtype=bool)) if independent else first

    k0 = int(lam)
    p0 = math.exp(k0 * math.log(lam) - lam - math.lgamma(k0 + 1))
    total = p0 * term(k0)
    k_lo = k_hi = k0
    p_lo = p_hi = p0
    if independent:
        frozen = np.empty(np.shape(total))
        open_ = np.ones(frozen.shape, dtype=bool)

    for _ in range(acc.max_terms):
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
            if absolute:
                scale = acc.rel_tol
            elif independent:
                scale = acc.rel_tol * np.abs(total)
            else:
                mags = np.atleast_1d(np.abs(np.asarray(total, dtype=float)))
                nonzero = mags[mags > 0.0]
                scale = acc.rel_tol * float(nonzero.min()) if nonzero.size else 0.0
            stop = (bound <= scale) | (bound < 1e-300)
            if independent:
                newly = open_ & stop
                frozen[newly] = total[newly]
                open_ &= ~newly
                if not open_.any():
                    return frozen, open_
            elif stop:
                return total

        p_hi = p_hi * lam / (k_hi + 1.0)
        k_hi += 1
        total = total + p_hi * term(k_hi)
        if k_lo > 0:
            p_lo = p_lo * k_lo / lam
            k_lo -= 1
            total = total + p_lo * term(k_lo)

    if independent:
        frozen[open_] = total[open_]
        return frozen, open_
    raise series_error(lam, acc)


def bessel_i_int(order: int, x):
    """Modified Bessel function of the first kind, integer order >= 0.

    Vectorized over x (x >= 0).
    """
    if not isinstance(order, (int, np.integer)):
        raise ValueError(f"order must be an integer, got {order!r}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("x must be >= 0")
    out = sc.iv(order, x_arr)
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def erfc(x):
    """Complementary error function, vectorized."""
    out = sc.erfc(np.asarray(x, dtype=float))
    return float(out) if np.ndim(x) == 0 else out


def upper_inc_gamma(s: float, x):
    """Upper incomplete gamma Gamma(s, x) for s > 0, x >= 0 (non-regularized)."""
    if s <= 0.0:
        raise ValueError(f"s must be > 0, got {s}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("x must be >= 0")
    out = sc.gammaincc(s, x_arr) * sc.gamma(s)
    return float(out) if np.ndim(x) == 0 else out
