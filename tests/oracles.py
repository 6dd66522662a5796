"""Independent reference routes used by the test suite.

Everything here deliberately avoids the library's own evaluation paths:
power series with exact factorials, scipy.stats distributions, direct
quadrature of defining integrals, and mpmath at high precision. Tests
compare library outputs against these, never against the library itself.
"""

import math

import mpmath
import numpy as np
from scipy import integrate, stats
from scipy import special as sc

from rfvlc import specfun
from rfvlc.specfun import (
    _BIG,
    _EPS,
    _HALF_LOG_2PI,
    MAX_TERMS,
    REL_TOL,
    ConvergenceError,
    _beta_anchor,
    _log_a_beta_half,
    _stirling_correction,
    erfc_sqrt,
)
from rfvlc.vlc_channel import VlcParams, derive

# The stated envelope of the closed forms.  Inside it every outage and BER
# converges within the series budget: Rician K from 0 up to 14 dB, 1 to 8
# branches, an average SNR per branch over [-10, 40] dB and an outage
# threshold over [0.1, 10], linear.  Just outside, K = 15 dB with 8
# branches at threshold 0.1 runs out of terms from 33 dB up.  The optical
# cell is the reference one with a semi-angle over [10, 85] degrees, a
# height over [0.5, 6] m and an optical power over [0.01, 5] W, each
# anywhere in its range.  `derive` accepts the whole box; it first refuses
# beams narrower than about 2.9 degrees at 0.5 m and 4.8 degrees at 6 m.
ENVELOPE = {
    "k_factor_db_max": 14.0,
    "branches": (1, 8),
    "avg_snr_db": (-10.0, 40.0),
    "outage_threshold": (0.1, 10.0),
    "semi_angle": (10.0, 85.0),
    "height": (0.5, 6.0),
    "optical_power": (0.01, 5.0),
}


def marcum_q_quad(order, a, b):
    """Generalized Marcum Q by quadrature of its defining integral.

    Integrand written with the exponentially scaled Bessel so the
    e^{ax} growth and the Gaussian decay cancel analytically.
    """
    def integrand(x):
        if x == 0.0:
            return 0.0
        if a == 0.0:
            return x ** (2 * order - 1) * math.exp(-0.5 * x * x) / (2.0 ** (order - 1) * math.gamma(order))
        return x * (x / a) ** (order - 1) * sc.ive(order - 1, a * x) * math.exp(-0.5 * (x - a) ** 2)

    val, err = integrate.quad(integrand, b, np.inf, epsabs=1e-14, epsrel=1e-12, limit=500)
    return val


def marcum_q_ncx2(order, a, b):
    """Marcum Q via the noncentral chi-square survival function."""
    if a == 0.0:
        return stats.chi2.sf(b * b, 2 * order)
    return stats.ncx2.sf(b * b, 2 * order, a * a)


def mrc_pdf_ref(snr, k_factor, branches, avg_snr):
    """Diversity-combined SNR density through scipy.stats.ncx2.

    Sum of `branches` i.i.d. line-of-sight fading branch SNRs is a
    noncentral chi-square with 2*branches dof, scaled by
    avg_snr / (2 (K+1)).
    """
    scale = avg_snr / (2.0 * (k_factor + 1.0))
    y = np.asarray(snr, dtype=float) / scale
    if k_factor == 0.0:
        return stats.chi2.pdf(y, 2 * branches) / scale
    return stats.ncx2.pdf(y, 2 * branches, 2.0 * k_factor * branches) / scale


def mrc_cdf_ref(snr, k_factor, branches, avg_snr):
    scale = avg_snr / (2.0 * (k_factor + 1.0))
    y = np.asarray(snr, dtype=float) / scale
    if k_factor == 0.0:
        return stats.chi2.cdf(y, 2 * branches)
    return stats.ncx2.cdf(y, 2 * branches, 2.0 * k_factor * branches)


def regularized_gamma_mp(a, y, dps=40):
    """P(a, y), the regularized lower incomplete gamma, by mpmath."""
    with mpmath.workdps(dps):
        return float(mpmath.gammainc(a, 0, mpmath.mpf(float(y)), regularized=True))


def stirling_correction_mp(a, dps=40):
    """log(a!) - (a + 1/2) log(a) + a - log(2 pi)/2 by mpmath."""
    with mpmath.workdps(dps):
        return float(mpmath.loggamma(a + 1) - (a + mpmath.mpf(1) / 2) * mpmath.log(a) + a
                     - mpmath.log(2 * mpmath.pi) / 2)


def pois_mp(a, y, dps=40):
    """The Poisson mass y^a e^-y / a! by mpmath, from the float y itself."""
    with mpmath.workdps(dps):
        y = mpmath.mpf(float(y))
        return float(mpmath.exp(a * mpmath.log(y) - y - mpmath.loggamma(a + 1)))


def regularized_beta_mp(a, b, w, dps=40):
    """I_w(a, b), the regularized incomplete beta, by mpmath."""
    with mpmath.workdps(dps):
        return float(mpmath.betainc(a, b, 0, mpmath.mpf(float(w)), regularized=True))


def upper_gamma_mp(q, g, dps=40):
    """Gamma(q, g), the unregularized upper incomplete gamma, by mpmath."""
    with mpmath.workdps(dps):
        return float(mpmath.gammainc(mpmath.mpf(float(q)), mpmath.mpf(float(g))))


def erfc_sqrt_mp(s, dps=40):
    """erfc(sqrt(s)) by mpmath, from the float s itself."""
    with mpmath.workdps(dps):
        return float(mpmath.erfc(mpmath.sqrt(mpmath.mpf(float(s)))))


def mrc_cdf_mp(snr, k_factor, branches, avg_snr, dps=40):
    """Diversity-combined SNR CDF by mpmath at `dps` digits: the Poisson
    mixture sum_j pois(j; K M) P(M + j, y), y = (K+1) snr / avg_snr, summed
    from j = 0 until its remainder, at most P(M + j, y) times the Poisson
    tail past j, is below 10^-dps of the sum."""
    with mpmath.workdps(dps):
        lam = mpmath.mpf(k_factor) * branches
        y = (mpmath.mpf(k_factor) + 1) * mpmath.mpf(float(snr)) / mpmath.mpf(avg_snr)
        total, j = mpmath.mpf(0), 0
        while True:
            if lam:
                weight = mpmath.exp(j * mpmath.log(lam) - lam - mpmath.loggamma(j + 1))
            else:
                weight = mpmath.mpf(j == 0)
            term = mpmath.gammainc(branches + j, 0, y, regularized=True)
            total += weight * term
            ratio = lam / (j + 2)
            if ratio < 1 and weight * term * ratio / (1 - ratio) <= mpmath.mpf(10) ** -dps * total:
                return float(total)
            j += 1


def mrc_ppf_ref(q, k_factor, branches, avg_snr):
    """Quantiles of the diversity-combined SNR through scipy.stats.ncx2."""
    scale = avg_snr / (2.0 * (k_factor + 1.0))
    if k_factor == 0.0:
        return scale * stats.chi2.ppf(q, 2 * branches)
    return scale * stats.ncx2.ppf(q, 2 * branches, 2.0 * k_factor * branches)


def mrc_rvs_ref(k_factor, branches, avg_snr, size, seed):
    """Independent sampling route for KS tests (scipy rvs, not the library)."""
    rng = np.random.default_rng(seed)
    scale = avg_snr / (2.0 * (k_factor + 1.0))
    if k_factor == 0.0:
        y = stats.chi2.rvs(2 * branches, size=size, random_state=rng)
    else:
        y = stats.ncx2.rvs(2 * branches, 2.0 * k_factor * branches, size=size, random_state=rng)
    return scale * y


def rf_ber_quad(k_factor, branches, avg_snr):
    """Radio-hop average BER by quadrature against the ncx2-based density."""
    def integrand(g):
        return 0.5 * sc.erfc(np.sqrt(g)) * mrc_pdf_ref(g, k_factor, branches, avg_snr)

    val, err = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-300, epsrel=1e-12, limit=1000)
    return val


def rayleigh_ber(avg_snr):
    """Closed-form single-branch average BER without line of sight."""
    return 0.5 * (1.0 - math.sqrt(avg_snr / (1.0 + avg_snr)))


def erfc_moment_quad(n, a, dps=50):
    """integral_0^inf t^(n-1) e^(-a t) erfc(sqrt t) dt via mpmath."""
    with mpmath.workdps(dps):
        f = lambda t: t ** (mpmath.mpf(n) - 1) * mpmath.e ** (-mpmath.mpf(a) * t) * mpmath.erfc(mpmath.sqrt(t))
        val = mpmath.quad(f, [0, 1, 10, 100, mpmath.inf])
        return float(val)


def meijer_ref(shift, z, dps=50):
    """mpmath.meijerg for the G^{2,1}_{2,2} case used by the library."""
    with mpmath.workdps(dps):
        val = mpmath.meijerg([[shift], [1]], [[0, mpmath.mpf(1) / 2], []], mpmath.mpf(z))
        return float(val)


# Special functions that sit on no library path, kept here as references:
# the Marcum Q route to the radio CDF and the Meijer-G/erfc-moment identity
# behind the radio BER series.  marcum_q sums with the scalar series below.
_SQRT_PI = math.sqrt(math.pi)


def marcum_q(order: int, a: float, b, *, rel_tol=REL_TOL, max_terms=MAX_TERMS):
    """Generalized Marcum Q-function Q_order(a, b), vectorized over b.

    Evaluated as the noncentral chi-square survival probability,
    sum_k pois(k; a^2/2) * Q(order+k, b^2/2) with Q the regularized upper
    incomplete gamma. The result is a probability; truncation keeps the
    absolute error below rel_tol.  Q_order(a, 0) is exactly 1.
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError(f"order must be an integer >= 1, got {order!r}")
    if a < 0.0:
        raise ValueError(f"a must be >= 0, got {a}")
    b_arr = np.asarray(b, dtype=float)
    if np.any(b_arr < 0.0):
        raise ValueError("b must be >= 0")

    y = 0.5 * b_arr * b_arr
    if a == 0.0:
        out = sc.gammaincc(order, y)
    else:
        out = poisson_weighted_sum(
            0.5 * a * a, lambda k: sc.gammaincc(order + k, y),
            rel_tol=rel_tol, max_terms=max_terms, absolute=True,
        )
    out = np.where(b_arr == 0.0, 1.0, out)  # exact at b = 0
    return float(out) if np.ndim(b) == 0 else out


def erfc_moment(n: float, a: float) -> float:
    """Integral of g^(n-1) * exp(-a g) * erfc(sqrt(g)) over g in (0, inf).

    Closed form for n > 0, a > 0:

        Gamma(n)/a^n
        - 2 Gamma(n + 1/2) / sqrt(pi) * (1+a)^-(n+1/2) * 2F1(1, n+1/2; 3/2; 1/(1+a))

    obtained by writing erfc as its Gaussian tail integral and integrating
    g first.  Accurate for moderate n (a few digits degrade beyond n ~ 20
    because the two terms approach each other); the linear-argument 2F1
    keeps scipy's hyp2f1 on its stable branch.
    """
    if n <= 0.0:
        raise ValueError(f"n must be > 0, got {n}")
    if a <= 0.0:
        raise ValueError(f"a must be > 0, got {a}")
    w = 1.0 / (1.0 + a)
    head = math.gamma(n) * a ** (-n)
    tail = (
        2.0
        * math.gamma(n + 0.5)
        / _SQRT_PI
        * (1.0 + a) ** (-(n + 0.5))
        * float(sc.hyp2f1(1.0, n + 0.5, 1.5, w))
    )
    return head - tail


def meijer_g_2122(shift: float, z: float) -> float:
    """Meijer G of kind G^{2,1}_{2,2}[z | (shift, 1); (0, 1/2)] for shift = 1 - n.

    Only the family with integer n >= 1 is supported; it is the one that
    appears in the average-error closed forms.  For that family

        G = sqrt(pi) * Gamma(n) * I(n, 1/2; 1/(1+z))

    where I is the regularized incomplete beta function.  Derivation: the
    G-function equals sqrt(pi) a^n * integral of t^(n-1) e^(-a t) erfc(sqrt t)
    with a = 1/z; substituting erfc(sqrt t) = (2/sqrt(pi)) * integral over
    s > 1 of sqrt(t) e^(-t s^2) ds and integrating t first gives
    2 Gamma(n+1/2)/sqrt(pi) * integral of (a+s^2)^-(n+1/2) ds, which the
    substitution u = s^2/(a+s^2) turns into the incomplete beta above.  The
    direct two-term hypergeometric difference cancels catastrophically for
    large n, while this form is a single positive term.
    """
    n_float = 1.0 - shift
    n = int(round(n_float))
    if n < 1 or abs(n_float - n) > 1e-9:
        raise ValueError(
            f"shift must equal 1 - n for an integer n >= 1, got {shift!r}"
        )
    if z <= 0.0:
        raise ValueError(f"z must be > 0, got {z}")
    return _SQRT_PI * math.gamma(n) * float(sc.betainc(n, 0.5, 1.0 / (1.0 + z)))


def vlc_pdf_ref(snr, derived):
    """Optical-hop SNR density evaluated straight from the geometry.

    Uses the radial-distance change of variables independently of the
    library's log-space arrangement.
    """
    d = derived
    m3 = d.lambert_order + 3.0
    out = np.zeros_like(np.asarray(snr, dtype=float))
    g = np.asarray(snr, dtype=float)
    inside = (g >= d.snr_min) & (g <= d.snr_max)
    c = d.mu_vlc * d.upsilon ** 2
    # snr(r) = c * (r^2 + L^2)^(-m3); invert for r^2 + L^2 and differentiate
    s2 = (c / g[inside]) ** (1.0 / m3)
    out_inside = s2 / (m3 * g[inside] * d.cell_radius ** 2)
    out[inside] = out_inside
    return out


def vlc_ber_quad(params: VlcParams, dps=30):
    """Optical-hop average BER by mpmath quadrature of pdf * erfc/2.

    Subdivision places points across the e^{-g} boundary layer near the
    lower SNR edge; without them the quadrature silently loses the mass
    that dominates the answer.  The integrand is divided by its value at
    the lower edge: mpmath's error estimate is absolute, so an unscaled
    integrand of order 1e-85 ends the refinement early, up to 6e-11
    relative off the closed form.
    """
    d = derive(params)
    with mpmath.workdps(dps):
        m3 = mpmath.mpf(d.lambert_order) + 3
        c = mpmath.mpf(d.mu_vlc) * mpmath.mpf(d.upsilon) ** 2
        rf2 = mpmath.mpf(d.cell_radius) ** 2
        gmin = mpmath.mpf(d.snr_min)
        gmax = mpmath.mpf(d.snr_max)

        def f(g):
            s2 = (c / g) ** (1 / m3)
            pdf = s2 / (m3 * g * rf2)
            return pdf * mpmath.erfc(mpmath.sqrt(g)) / 2

        f0 = f(gmin)
        pts = [gmin]
        for step in (2, 6, 15, 40, 120):
            cand = gmin + step
            if cand < gmax:
                pts.append(cand)
        for mult in (3, 30, 300):
            cand = gmin * mult
            if pts[-1] < cand < gmax:
                pts.append(cand)
        pts.append(gmax)
        return float(mpmath.quad(lambda g: f(g) / f0, pts) * f0)


def vlc_ber_closed_mp(derived, dps=60):
    """The optical-hop BER closed form of `vlc_avg_ber`, evaluated by
    mpmath at `dps` digits from the derived floats: the reference for its
    floating-point evaluation, where `vlc_ber_quad` checks the formula."""
    d = derived
    with mpmath.workdps(dps):
        m = mpmath.mpf(d.lambert_order)
        beta, q = 1 / (m + 3), (m + 1) / (2 * m + 6)

        def h(g):
            g = mpmath.mpf(g)
            return (g ** -beta * mpmath.erfc(mpmath.sqrt(g))
                    - mpmath.gammainc(q, g) / mpmath.sqrt(mpmath.pi))

        scale = mpmath.mpf(d.mu_vlc) * mpmath.mpf(d.upsilon) ** 2
        pref = scale**beta / (2 * mpmath.mpf(d.cell_radius) ** 2)
        return float(pref * (h(d.snr_min) - h(d.snr_max)))


def bitflip_ber_mc(sample_rf, sample_vlc, trials, seed):
    """Plain bit-flip Monte Carlo estimator for end-to-end BER.

    Draws per-hop SNRs with caller-supplied samplers, flips independent
    Bernoulli errors at each hop, and counts parity errors. Higher
    variance by construction than conditional-expectation averaging;
    used to check the library's estimator is at least this good.
    """
    rng = np.random.default_rng(seed)
    g1 = sample_rf(rng, trials)
    g2 = sample_vlc(rng, trials)
    p1 = 0.5 * sc.erfc(np.sqrt(g1))
    p2 = 0.5 * sc.erfc(np.sqrt(g2))
    e1 = rng.random(trials) < p1
    e2 = rng.random(trials) < p2
    err = np.logical_xor(e1, e2)
    p = err.mean()
    se = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return p, se


def per_point_mc(cfg, trials, seed, chunk_size=65536, ber=True):
    """Monte Carlo outage and BER of one config, chunk by chunk, as a
    reference loop for the library's shared-stream kernel.

    Same stream layout as the library: chunk i draws from SFC64 seeded
    with SeedSequence(seed, spawn_key=(i,)), first n pairs of normals, then
    n uniforms, then one row of n exponentials per radio branch beyond the
    first.  The radio gain is the noncentral chi-square form of the branch
    sum: (Z1/sqrt(2) + sqrt(M K))^2 + (Z2/sqrt(2))^2 plus the exponential
    rows, summed in row order, all times 1/(K+1).  The per-trial arithmetic
    and the reductions are written out here for this config alone, so the
    library must match it bit for bit.  erfc is the library's `erfc_sqrt`,
    which test_specfun checks against mpmath: this loop checks the stream
    layout and the reductions.  Returns ((outage, se), (ber, se)), or
    ((outage, se), None) without the erfc work when `ber` is false.
    """
    rf, d = cfg.rf, derive(cfg.vlc)
    shift = math.sqrt(rf.branches * rf.k_factor)
    count, partials = 0, []
    for idx, start in enumerate(range(0, trials, chunk_size)):
        n = min(chunk_size, trials - start)
        gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(idx,))))
        z = gen.standard_normal((n, 2))
        u = gen.random(n)
        e = gen.standard_exponential((rf.branches - 1, n))
        re = math.sqrt(0.5) * z[:, 0] + shift
        im = math.sqrt(0.5) * z[:, 1]
        snr_rf = re * re + im * im
        if rf.branches > 1:
            exp_sum = e[0]
            for row in e[1:]:
                exp_sum = exp_sum + row
            snr_rf = snr_rf + exp_sum
        snr_rf = (1.0 / (rf.k_factor + 1.0)) * snr_rf
        snr_rf *= rf.avg_snr
        scale = d.mu_vlc * d.upsilon**2
        snr_vlc = scale * (d.cell_radius**2 * u + d.height**2) ** -(d.lambert_order + 3.0)
        count += int(np.count_nonzero(np.minimum(snr_rf, snr_vlc) < cfg.outage_threshold))
        if not ber:
            continue
        x_rf = 0.5 * erfc_sqrt(snr_rf)
        x_vlc = 0.5 * erfc_sqrt(snr_vlc)
        partials.append([float(x_rf.sum()), float((x_rf * x_rf).sum()),
                         float(x_vlc.sum()), float((x_vlc * x_vlc).sum())])
    p = count / trials
    outage = (p, math.sqrt(p * (1.0 - p) / trials))
    if not ber:
        return outage, None
    s_rf, q_rf, s_vlc, q_vlc = (math.fsum(c[j] for c in partials) for j in range(4))
    m_rf, m_vlc = s_rf / trials, s_vlc / trials
    var_rf = max(q_rf - trials * m_rf * m_rf, 0.0) / (trials - 1)
    var_vlc = max(q_vlc - trials * m_vlc * m_vlc, 0.0) / (trials - 1)
    ber = (
        m_rf + m_vlc - 2.0 * m_rf * m_vlc,
        math.sqrt((1.0 - 2.0 * m_vlc) ** 2 * var_rf / trials
                  + (1.0 - 2.0 * m_rf) ** 2 * var_vlc / trials),
    )
    return outage, ber


# The scalar Poisson-mixture summation as it stood before the library
# gained its batched mode, kept verbatim as the reference for one series.
def poisson_weighted_sum(lam, term, *, rel_tol=REL_TOL, max_terms=MAX_TERMS, absolute=False):
    """Evaluate sum_{k>=0} pois(k; lam) * term(k) for term values in [0, 1].

    Terms are accumulated outward from the Poisson mode, so large `lam`
    costs O(sqrt(lam)) evaluations instead of O(lam) and the weights never
    underflow prematurely.  The remaining tail is bounded through the
    frontier weights themselves (geometric-ratio bound), which keeps the
    stopping rule meaningful even when the sum is many orders of magnitude
    below 1.  With absolute=True the bound is compared against rel_tol
    directly (suitable for probabilities); otherwise against
    rel_tol * |partial sum|.

    term(k) may return a float or an ndarray of a fixed shape.
    """
    if lam < 0.0:
        raise ValueError(f"Poisson rate must be >= 0, got {lam}")
    if lam == 0.0:
        return term(0)

    k0 = int(lam)
    p0 = math.exp(k0 * math.log(lam) - lam - math.lgamma(k0 + 1))
    total = p0 * term(k0)
    k_lo = k_hi = k0
    p_lo = p_hi = p0

    for _ in range(max_terms):
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
                scale = rel_tol
            else:
                mags = np.atleast_1d(np.abs(np.asarray(total, dtype=float)))
                nonzero = mags[mags > 0.0]
                scale = rel_tol * float(nonzero.min()) if nonzero.size else 0.0
            if bound <= scale or bound < 1e-300:
                return total

        p_hi = p_hi * lam / (k_hi + 1.0)
        k_hi += 1
        total = total + p_hi * term(k_hi)
        if k_lo > 0:
            p_lo = p_lo * k_lo / lam
            k_lo -= 1
            total = total + p_lo * term(k_lo)

    raise ConvergenceError(
        f"Poisson-weighted series did not converge: rate={lam:g}, "
        f"max_terms={max_terms}, rel_tol={rel_tol:g}"
    )


# The radio series walked one order per step, as it stood before the walk
# computed its steps a block of orders ahead, kept word for word (the
# budget read from `specfun` when a series runs) as the reference the
# block walk must equal bit for bit.
def step_weighted_sum(lam, term):
    """Evaluate sum_{k>=0} pois(k; lam) * term(k) for term values in [0, 1],
    each entry of the 1-D array term(k) its own series sharing the rate.

    Terms are accumulated outward from the Poisson mode, so large `lam`
    costs O(sqrt(lam)) evaluations instead of O(lam) and the weights never
    underflow prematurely.  The remaining tail is bounded through the
    frontier weights themselves (geometric-ratio bound), which keeps the
    stopping rule meaningful even when a sum is many orders of magnitude
    below 1.  An entry stops once the bound is within REL_TOL of its
    own partial sum, and later terms are added only to the entries still
    open, so its value does not depend on the other entries.  At lam = 0
    the first bound is 0 and the sum is term(0).

    Returns (sums, unconverged): entries still open after MAX_TERMS are
    flagged in the boolean mask (their sums are partial).
    """
    if lam < 0.0:
        raise ValueError(f"Poisson rate must be >= 0, got {lam}")
    k0 = int(lam)
    p0 = math.exp(-lam) if k0 == 0 else math.exp(k0 * math.log(lam) - lam - math.lgamma(k0 + 1))
    total = p0 * term(k0)  # a fresh array, so adding in place never writes into a term
    k_lo = k_hi = k0
    p_lo = p_hi = p0
    open_ = np.ones(total.shape, dtype=bool)

    for _ in range(specfun.MAX_TERMS):
        # Tail bound: the right terms fall at least geometrically with ratio
        # lam/(k_hi+2), below 1 as k_hi >= floor(lam) unless k_hi + 2 rounds
        # to lam (past 2**53); the left ones with ratio k_lo/lam, 1 on the
        # first step for an integer lam, and the left side ends at k = 0.
        ratio_hi = lam / (k_hi + 2.0)
        ratio_lo = k_lo / lam if k_lo > 0 else 0.0
        if ratio_hi < 1.0 and ratio_lo < 1.0:
            bound = (p_hi * (lam / (k_hi + 1.0)) / (1.0 - ratio_hi)
                     + p_lo * ratio_lo / (1.0 - ratio_lo))
            open_ &= ~((bound <= specfun.REL_TOL * np.abs(total)) | (bound < 1e-300))
            if not open_.any():
                break

        p_hi = p_hi * lam / (k_hi + 1.0)
        k_hi += 1
        np.add(total, p_hi * term(k_hi), out=total, where=open_)
        if k_lo > 0:
            p_lo = p_lo * k_lo / lam
            k_lo -= 1
            np.add(total, p_lo * term(k_lo), out=total, where=open_)
    return total, open_


def step_pois(a, y):
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


def step_anchor(a, y):
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
    return np.where(direct, step_pois(a, y) * total, 1.0 - step_pois(a - 1, y) * total)


class _StepWalk:
    """term(j) = T(m + j) for the orders `poisson_weighted_sum` asks for,
    T(a) being an array of terms that fall in the integer order a, with
    known steps d(a) = T(a) - T(a + 1) >= 0.  Both term families are tails
    Pr(N >= a) of a count N, Poisson for `GammaTerms` and negative binomial
    for `BetaTerms`, so d(a) is the mass Pr(N = a) of that count.

    The first call anchors the walk at its order a0 (`_start`); after that
    only the neighbours of the two frontier orders may be asked for, each
    one multiply-add away:

        T(a - 1) = T(a) + d(a - 1)               (left, positive)
        T(a + 1) = max(T(a) - d(a), 0)           (right)

    A right step cancels, but its absolute error stays a few ulp of
    T(a0) per step.  That is small against the mixture it feeds: T falls
    in a and the Poisson weight at or below the mode a0 - m is about 1/2,
    so the mixture is at least about T(a0)/2, and after the O(sqrt(lam))
    steps of the walk its relative error stays about sqrt(lam) eps.
    Subclasses give `_start(a)` = T(a) and `_step(a)` = d(a).
    """

    def __init__(self, m):
        self._m = m
        self._lo = self._hi = None  # (order, value) at each frontier

    def __call__(self, j):
        a = self._m + j
        if self._lo is None:
            p = self._start(a)
            self._lo = self._hi = (a, p)
        elif a == self._lo[0] - 1:
            p = self._lo[1] + self._step(a)
            self._lo = (a, p)
        elif a == self._hi[0] + 1:
            p = np.maximum(self._hi[1] - self._step(a - 1), 0.0)
            self._hi = (a, p)
        else:
            raise ValueError(f"order {a} is not next to the walked orders "
                             f"{self._lo[0]}..{self._hi[0]}")
        return p


class StepGammaTerms(_StepWalk):
    """term(j) = P(m + j, y), P(a, y) being the regularized lower
    incomplete gamma at every entry of the array y > 0: the terms of the
    radio CDF, walked as `_TermWalk` describes.

    For an integer order a, P(a, y) = Pr(N >= a) with N ~ Poisson(y), so
    the step is d(a) = pois(a; y), and the anchor is `_anchor`'s positive
    series.  Arguments above the float range are clamped to it, where P
    is 1.
    """

    def __init__(self, m, y):
        super().__init__(m)
        self._y = np.minimum(np.asarray(y, dtype=float), _BIG)

    def _start(self, a):
        return step_anchor(a, self._y)

    def _step(self, a):
        return step_pois(a, self._y)


class StepBetaTerms(_StepWalk):
    """term(j) = I_w(m + j, 1/2), I being the regularized incomplete beta
    at every entry of the array w in [0, 1]: the terms of the radio BER,
    walked as `_TermWalk` describes.

    The twin of `GammaTerms`: I_w(a, 1/2) = Pr(N >= a) with N negative
    binomial of shape 1/2 and failure probability w, so the step is its
    mass d(a) = w^a (1 - w)^(1/2) / (a B(a, 1/2)) (DLMF 8.17.20), formed
    from logs, so it never underflows before the value it changes does.
    The anchor is `_beta_anchor`'s continued fraction.
    """

    def __init__(self, m, w):
        super().__init__(m)
        self._w = np.asarray(w, dtype=float)
        with np.errstate(divide="ignore"):  # log(0) sends d to its 0 limit
            self._log_w = np.log(self._w)
            self._half_log_1mw = 0.5 * np.log1p(-self._w)

    def _start(self, a):
        return _beta_anchor(a, self._w, self._step(a))

    def _step(self, a):
        return np.exp(a * self._log_w + self._half_log_1mw - _log_a_beta_half(a))

