"""The Poisson-mixture series behind the radio-hop closed forms.

The combined radio SNR is a noncentral chi-square variable, so its CDF and
its average BER are both Poisson mixtures of bounded terms.
`poisson_weighted_sum` evaluates such a mixture elementwise under an
explicit accuracy budget (`Accuracy`); entries that run out of terms are
reported through `series_error` as a `ConvergenceError`, never returned as
silently wrong numbers.  `validate_snr` is the one argument check shared
by the SNR distributions of both hops.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Accuracy",
    "DEFAULT_ACCURACY",
    "ConvergenceError",
    "series_error",
    "poisson_weighted_sum",
    "validate_snr",
]


class ConvergenceError(RuntimeError):
    """A truncated series failed to reach its tolerance within max_terms.

    `unconverged` is the boolean mask of the failing elements (see
    `series_error`).
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


def series_error(lam, acc, unconverged):
    """The ConvergenceError of a Poisson-weighted series at rate `lam` that
    ran out of terms; `unconverged` masks the failing elements."""
    exc = ConvergenceError(
        f"Poisson-weighted series did not converge: rate={lam:g}, "
        f"max_terms={acc.max_terms}, rel_tol={acc.rel_tol:g}"
    )
    exc.unconverged = unconverged
    return exc


def validate_snr(gamma):
    """`gamma` as a float array, rejecting negative and NaN SNR values."""
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0.0) or np.any(np.isnan(g)):
        raise ValueError("snr values must be >= 0")
    return g


def poisson_weighted_sum(lam, term, acc=DEFAULT_ACCURACY):
    """Evaluate sum_{k>=0} pois(k; lam) * term(k) for term values in [0, 1],
    each entry of the 1-D array term(k) its own series sharing the rate.

    Terms are accumulated outward from the Poisson mode, so large `lam`
    costs O(sqrt(lam)) evaluations instead of O(lam) and the weights never
    underflow prematurely.  The remaining tail is bounded through the
    frontier weights themselves (geometric-ratio bound), which keeps the
    stopping rule meaningful even when a sum is many orders of magnitude
    below 1.  An entry stops once the bound is within acc.rel_tol of its
    own partial sum and is frozen from then on, so its value does not
    depend on the other entries.

    Returns (sums, unconverged): entries still open after acc.max_terms are
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
            stop = (bound <= acc.rel_tol * np.abs(total)) | (bound < 1e-300)
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
