import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy import special as sc

import oracles
from rfvlc import rf_channel, specfun
from rfvlc.rf_channel import (
    RfParams,
    mrc_cdf_batch,
    mrc_snr_cdf,
    mrc_snr_pdf,
    rf_avg_ber,
    rf_avg_ber_batch,
    rician_snr_pdf,
    sample_mrc_snr,
)
from rfvlc.specfun import REL_TOL, ConvergenceError, poisson_weighted_sum
GRID = [
    (0.0, 1, 1.0),
    (0.0, 2, 0.5),
    (1.0, 1, 1.0),
    (1.0, 2, 4.0),
    (3.162, 2, 5.0),
    (3.162, 4, 10.0),
    (5.0, 3, 0.2),
    (10.0, 2, 100.0),
]


class TestRfParams:
    def test_accepts_valid(self):
        p = RfParams(k_factor=2.0, branches=3, avg_snr=1.5)
        assert p.branches == 3

    @pytest.mark.parametrize(
        "kw",
        [
            dict(k_factor=-0.1, branches=1, avg_snr=1.0),
            dict(k_factor=math.nan, branches=1, avg_snr=1.0),
            dict(k_factor=math.inf, branches=1, avg_snr=1.0),
            dict(k_factor=1.0, branches=0, avg_snr=1.0),
            dict(k_factor=1.0, branches=2.5, avg_snr=1.0),
            dict(k_factor=1.0, branches=1, avg_snr=0.0),
            dict(k_factor=1.0, branches=1, avg_snr=-2.0),
            dict(k_factor=1.0, branches=1, avg_snr=math.nan),
        ],
    )
    def test_rejects_invalid(self, kw):
        with pytest.raises(ValueError):
            RfParams(**kw)


class TestRicianPdf:
    def test_spot_value(self):
        # 2 e^{-3} I_0(2 sqrt 2), frozen via mpmath
        got = rician_snr_pdf(1.0, RfParams(k_factor=1.0, branches=1, avg_snr=1.0))
        assert got == pytest.approx(0.4234241679238870, rel=1e-13)

    def test_no_los_is_exponential(self):
        p = RfParams(k_factor=0.0, branches=1, avg_snr=2.5)
        g = np.linspace(0.0, 20.0, 41)
        np.testing.assert_allclose(rician_snr_pdf(g, p), np.exp(-g / 2.5) / 2.5, rtol=1e-14)

    @pytest.mark.parametrize("k,mu", [(0.0, 1.0), (1.0, 0.5), (3.162, 5.0), (15.0, 2.0)])
    def test_normalizes(self, k, mu):
        p = RfParams(k_factor=k, branches=1, avg_snr=mu)
        val, err = integrate.quad(lambda g: rician_snr_pdf(g, p), 0.0, np.inf, limit=300)
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_single_branch_equals_combined(self):
        g = np.linspace(0.0, 12.0, 25)
        for k, mu in [(0.0, 1.0), (2.0, 3.0), (7.0, 0.4)]:
            p = RfParams(k_factor=k, branches=1, avg_snr=mu)
            np.testing.assert_allclose(rician_snr_pdf(g, p), mrc_snr_pdf(g, p), rtol=1e-13)

    def test_rejects_negative_snr(self):
        p = RfParams(k_factor=1.0, branches=1, avg_snr=1.0)
        with pytest.raises(ValueError):
            rician_snr_pdf(-0.5, p)


class TestMrcPdf:
    @pytest.mark.parametrize("k,m,mu", GRID)
    def test_matches_ncx2(self, k, m, mu):
        p = RfParams(k_factor=k, branches=m, avg_snr=mu)
        g = np.linspace(1e-6, 12.0 * mu, 60)
        want = oracles.mrc_pdf_ref(g, k, m, mu)
        got = mrc_snr_pdf(g, p)
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-300)

    @pytest.mark.parametrize("k_db", [None, -20.0, -10.0, 0.0, 7.0, 14.0, 20.0, 30.0,
                                      oracles.ENVELOPE["k_factor_db_max"]])
    def test_matches_mpmath_over_the_envelope(self, k_db):
        # every branch count and six average SNRs of the envelope, the
        # density from 0 to 60 times the mean per branch and at the outage
        # thresholds' ends, to REL_TOL or to the smallest normal float
        # absolute: 0 is accepted where the true value is below it.  The
        # series stops within eps 1e-300 (`specfun._TINY`) of its sum, and
        # the density is (K+1)/mu <= 1e5 times the sum over the envelope
        k = 0.0 if k_db is None else 10.0 ** (k_db / 10.0)
        for m in range(oracles.ENVELOPE["branches"][0], oracles.ENVELOPE["branches"][1] + 1):
            for mu in 10.0 ** (np.linspace(*oracles.ENVELOPE["avg_snr_db"], 6) / 10.0):
                g = np.concatenate([[0.0, *oracles.ENVELOPE["outage_threshold"]],
                                    mu * np.geomspace(1e-3, 60.0, 12)])
                got = mrc_snr_pdf(g, RfParams(k_factor=k, branches=m, avg_snr=mu))
                want = [oracles.mrc_pdf_mp(v, k, m, mu) for v in g]
                np.testing.assert_allclose(got, want, rtol=REL_TOL, atol=np.finfo(float).tiny,
                                           err_msg=f"M = {m}, mu = {mu:g}")

    def test_vanishing_los_matches_gamma_limit(self):
        # K = 1e-9 with two branches at unit mean: the series at rate 2e-9
        # is within 1e-7 of the gamma density's e^-1
        p = RfParams(k_factor=1e-9, branches=2, avg_snr=1.0)
        assert mrc_snr_pdf(1.0, p) == pytest.approx(math.exp(-1.0), rel=1e-7)

    @pytest.mark.parametrize("m,mu", [(60, 1e6), (171, 1.0), (172, 1.0)])
    def test_gamma_limit_past_the_float_range_of_its_factors(self, m, mu):
        # mu ** m, (m - 1)! or g ** (m - 1) overflows here, while the density
        # itself is a float; where it is below the smallest normal float
        # (g = 1 at m = 172, g = 100 at m = 60) the check is absolute
        g = np.array([1.0, 100.0, 1e4])
        got = mrc_snr_pdf(g, RfParams(k_factor=0.0, branches=m, avg_snr=mu))
        np.testing.assert_allclose(got, stats.gamma.pdf(g, m, scale=mu), rtol=1e-13,
                                   atol=1e-13 * np.finfo(float).tiny)

    @pytest.mark.parametrize("k,m", [(0.0, 2), (0.0, 1), (1.0, 1), (1.0, 2)])
    def test_argument_past_the_float_range(self, k, m):
        # (k+1) g/mu overflows: the density is its limit 0 and the CDF
        # about 1, with no warning (pytest makes a RuntimeWarning an error)
        p = RfParams(k_factor=k, branches=m, avg_snr=1e-300)
        assert mrc_snr_pdf(1e300, p) == 0.0
        assert mrc_snr_pdf(np.array([1e300, 0.0]), p)[0] == 0.0
        assert mrc_snr_cdf(1e300, p) == pytest.approx(1.0, rel=1e-12)
        # at a subnormal mean (k+1) g/mu overflows from g = 1, and at one
        # branch the value at 0, (k+1)/mu e^-k, is past the float range
        p = p._replace(avg_snr=1e-310)
        assert mrc_snr_pdf(1.0, p) == 0.0
        assert mrc_snr_pdf(0.0, p) == (math.inf if m == 1 else 0.0)

    def test_value_at_origin(self):
        assert mrc_snr_pdf(0.0, RfParams(k_factor=2.0, branches=1, avg_snr=1.0)) == pytest.approx(
            3.0 * math.exp(-2.0), rel=1e-13
        )
        assert mrc_snr_pdf(0.0, RfParams(k_factor=2.0, branches=3, avg_snr=1.0)) == 0.0

    @pytest.mark.parametrize("k,m,mu", [(0.0, 2, 1.0), (1.0, 3, 2.0), (3.162, 4, 5.0)])
    def test_normalizes(self, k, m, mu):
        p = RfParams(k_factor=k, branches=m, avg_snr=mu)
        val, err = integrate.quad(lambda g: mrc_snr_pdf(g, p), 0.0, np.inf, limit=300)
        assert val == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("k", [0.0, 2.0])
    @pytest.mark.parametrize("m", [1, 3])
    def test_vanishes_at_infinity(self, k, m):
        # validate_snr lets +inf through, and the density's limit there is
        # 0; both formulas would give inf * 0, NaN with a RuntimeWarning
        p = RfParams(k_factor=k, branches=m, avg_snr=1.5)
        assert mrc_snr_pdf(math.inf, p) == 0.0
        assert rician_snr_pdf(math.inf, p) == 0.0
        assert mrc_snr_pdf(np.array([1.0, math.inf]), p).tolist() == [mrc_snr_pdf(1.0, p), 0.0]

    def test_mean_is_branches_times_avg(self):
        p = RfParams(k_factor=2.0, branches=3, avg_snr=1.5)
        val, err = integrate.quad(lambda g: g * mrc_snr_pdf(g, p), 0.0, np.inf, limit=300)
        assert val == pytest.approx(3 * 1.5, rel=1e-9)


class TestMrcCdf:
    @pytest.mark.parametrize("k,m,mu", GRID)
    def test_matches_ncx2(self, k, m, mu):
        p = RfParams(k_factor=k, branches=m, avg_snr=mu)
        g = np.geomspace(1e-3 * mu, 20.0 * mu, 50)
        want = oracles.mrc_cdf_ref(g, k, m, mu)
        got = mrc_snr_cdf(g, p)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-300)

    @pytest.mark.parametrize(
        "k_db, m, snr_db, thresholds_db",
        [
            (5.0, 2, 7.0, np.linspace(-30.0, 20.0, 11)),
            (17.0, 4, 20.0, np.linspace(-10.0, 30.0, 11)),
            # the last point of the benchmark's 600-point sweep: the walk's
            # first term P(204, 0.051) ~ 1e-648 underflows, the CDF does not
            (17.0, 4, 30.0, np.array([0.0])),
        ],
        ids=["K5dB-M2-7dB", "K17dB-M4-20dB", "K17dB-M4-30dB-underflow"],
    )
    def test_matches_mpmath(self, k_db, m, snr_db, thresholds_db):
        k, mu = 10.0 ** (k_db / 10.0), 10.0 ** (snr_db / 10.0)
        g = 10.0 ** (thresholds_db / 10.0)
        got = mrc_snr_cdf(g, RfParams(k_factor=k, branches=m, avg_snr=mu))
        want = [oracles.mrc_cdf_mp(x, k, m, mu) for x in g]
        assert min(want) > 1e-300
        np.testing.assert_allclose(got, want, rtol=REL_TOL, atol=0.0)

    def test_deep_left_tail_keeps_relative_accuracy(self):
        p = RfParams(k_factor=3.162, branches=4, avg_snr=10.0)
        got = mrc_snr_cdf(0.1, p)
        want = oracles.mrc_cdf_ref(0.1, 3.162, 4, 10.0)
        assert want < 1e-10  # genuinely deep tail
        assert got == pytest.approx(want, rel=1e-9)

    def test_at_zero(self):
        p = RfParams(k_factor=1.0, branches=2, avg_snr=1.0)
        assert mrc_snr_cdf(0.0, p) == 0.0
        out = mrc_snr_cdf(np.array([0.0, 1.0]), p)
        assert out[0] == 0.0 and 0.0 < out[1] < 1.0
        with pytest.raises(ValueError):
            mrc_snr_cdf(-1.0, p)

    def test_spot_value(self):
        # frozen from scipy.stats.ncx2.cdf(4/2 * 1, 4, 4) with scale 4/(2*2)
        p = RfParams(k_factor=1.0, branches=2, avg_snr=4.0)
        assert mrc_snr_cdf(1.0, p) == pytest.approx(0.01660859161858006, rel=1e-11)

    def test_matches_pdf_integration(self):
        # the distribution function is the integral of the density
        p = RfParams(k_factor=3.162, branches=2, avg_snr=5.0)
        grid = np.linspace(0.0, 25.0, 26)
        acc = 0.0
        for lo, hi in zip(grid[:-1], grid[1:]):
            piece, _ = integrate.quad(lambda g: mrc_snr_pdf(g, p), lo, hi, epsabs=1e-14, epsrel=1e-12)
            acc += piece
            assert mrc_snr_cdf(hi, p) == pytest.approx(acc, abs=1e-10)

    def test_derivative_matches_pdf(self):
        p = RfParams(k_factor=2.0, branches=3, avg_snr=2.0)
        h = 1e-5
        for g in [0.5, 2.0, 6.0, 12.0]:
            num = (mrc_snr_cdf(g + h, p) - mrc_snr_cdf(g - h, p)) / (2 * h)
            assert num == pytest.approx(mrc_snr_pdf(g, p), rel=1e-6)

    def test_monotone_nondecreasing(self):
        p = RfParams(k_factor=4.0, branches=2, avg_snr=3.0)
        f = mrc_snr_cdf(np.linspace(0.0, 40.0, 200), p)
        assert np.all(np.diff(f) >= 0.0)
        # the array's last entry is the lone call's, within the 1e-10 budget
        assert f[-1] == mrc_snr_cdf(40.0, p)
        want = oracles.mrc_cdf_ref(40.0, 4.0, 2, 3.0)
        assert abs(f[-1] - want) <= 1e-10

    @pytest.mark.parametrize("k,m,mu", [(4.0, 2, 3.0), (0.0, 1, 1.0), (50.0, 4, 10.0)])
    def test_array_entries_equal_lone_calls(self, k, m, mu):
        # each entry is its own series: no neighbour changes where it stops
        p = RfParams(k_factor=k, branches=m, avg_snr=mu)
        g = np.concatenate([np.linspace(0.0, 40.0, 200), np.geomspace(1e-8, 1e3, 50)])
        f = mrc_snr_cdf(g, p)
        assert f.tolist() == [mrc_snr_cdf(float(x), p) for x in g]
        grid = mrc_snr_cdf(g.reshape(10, 25), p)
        assert grid.shape == (10, 25) and grid.ravel().tolist() == f.tolist()

    def test_equals_marcum_complement(self):
        from oracles import marcum_q

        p = RfParams(k_factor=2.0, branches=3, avg_snr=2.0)
        for g in [0.1, 1.0, 5.0, 15.0]:
            a = math.sqrt(2.0 * p.k_factor * p.branches)
            b = math.sqrt(2.0 * (p.k_factor + 1.0) * g / p.avg_snr)
            # the complement route carries the series' 1e-10 absolute budget
            assert mrc_snr_cdf(g, p) == pytest.approx(1.0 - marcum_q(p.branches, a, b), abs=2e-10)


class TestSampling:
    def test_reproducible(self):
        p = RfParams(k_factor=1.0, branches=2, avg_snr=3.0)
        a = sample_mrc_snr(p, np.random.default_rng(7), size=5)
        b = sample_mrc_snr(p, np.random.default_rng(7), size=5)
        np.testing.assert_array_equal(a, b)

    def test_scalar_and_shape(self):
        p = RfParams(k_factor=1.0, branches=2, avg_snr=3.0)
        assert np.shape(sample_mrc_snr(p, np.random.default_rng(0))) == ()
        assert sample_mrc_snr(p, np.random.default_rng(0), size=(3, 4)).shape == (3, 4)

    @pytest.mark.parametrize("size, shape", [
        (None, ()), (6, (6,)), (np.int64(6), (6,)), ((2, 3), (2, 3)), ([2, 3], (2, 3)),
        (np.array([2, 3]), (2, 3)),
    ], ids=["none", "int", "numpy-int", "tuple", "list", "array"])
    def test_size_as_numpy_takes_it(self, size, shape):
        # the draws of a shape are the same whichever way it is given
        p = RfParams(k_factor=1.0, branches=3, avg_snr=3.0)
        draws = sample_mrc_snr(p, np.random.default_rng(11), size=size)
        assert np.shape(draws) == shape
        same = sample_mrc_snr(p, np.random.default_rng(11), size=shape)
        np.testing.assert_array_equal(draws, same)

    @pytest.mark.parametrize("k,m,mu", [(0.0, 1, 1.0), (1.0, 2, 4.0), (3.162, 4, 2.0)])
    def test_distribution_ks(self, k, m, mu):
        p = RfParams(k_factor=k, branches=m, avg_snr=mu)
        draws = sample_mrc_snr(p, np.random.default_rng(1234), size=200_000)
        stat = stats.kstest(draws, lambda x: oracles.mrc_cdf_ref(x, k, m, mu)).statistic
        assert stat < 0.005  # ~4.4x the 1/sqrt(n) scale at n=2e5

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [0.0, 10.0**0.5, 10.0**1.7], ids=["K0", "K5dB", "K17dB"])
    def test_distribution_matches_cdf(self, k, m):
        # binned chi-square of the noncentral chi-square draw against the
        # closed-form CDF, on 20 bins of equal reference probability; at
        # K = 0 the line-of-sight term of the draw is exactly 0
        mu, bins = 2.0, 20
        p = RfParams(k_factor=k, branches=m, avg_snr=mu)
        draws = sample_mrc_snr(p, np.random.default_rng(4200 + m), size=200_000)
        edges = oracles.mrc_ppf_ref(np.arange(1, bins) / bins, k, m, mu)
        expected = np.diff(np.concatenate(([0.0], mrc_snr_cdf(edges, p), [1.0]))) * draws.size
        observed = np.bincount(np.searchsorted(edges, draws), minlength=bins)
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(stat, bins - 1) > 1e-4, stat

    def test_distribution_ks_million(self):
        # reference configuration at a million draws, tight KS bound
        p = RfParams(k_factor=3.162, branches=2, avg_snr=1.0)
        draws = sample_mrc_snr(p, np.random.default_rng(20260816), size=1_000_000)
        stat = stats.kstest(draws, lambda x: oracles.mrc_cdf_ref(x, 3.162, 2, 1.0)).statistic
        assert stat < 0.002  # alpha ~ 1e-3 critical value at n=1e6

    def test_mean(self):
        p = RfParams(k_factor=2.0, branches=3, avg_snr=1.5)
        draws = sample_mrc_snr(p, np.random.default_rng(99), size=400_000)
        assert draws.mean() == pytest.approx(3 * 1.5, rel=5e-3)
        assert draws.min() > 0.0

    def test_rate_past_the_float_range_is_refused(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="finite"):
            sample_mrc_snr(RfParams(k_factor=1.7e308, branches=2, avg_snr=1.0), rng, size=4)
        # K M = 8e307 still squares to a float: the gain is M to rounding
        draws = sample_mrc_snr(RfParams(k_factor=1e307, branches=8, avg_snr=1.0), rng, size=1000)
        np.testing.assert_allclose(draws, 8.0, rtol=1e-14)


class TestGains:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(pairs=st.lists(st.tuples(st.floats(0.0, 1e4), st.integers(1, 8)), min_size=1,
                          max_size=6))
    def test_a_pair_ignores_the_other_pairs(self, pairs):
        # each (K, M) gain reads only the first M - 1 exponential rows, by
        # the same operations whatever else is asked for
        rng = np.random.default_rng(5)
        z, exps = rng.standard_normal((500, 2)), rng.standard_exponential((7, 500))
        together = rf_channel.mrc_gains(z.copy(), exps.copy(), pairs)
        assert sorted(together) == sorted(set(pairs))
        for k, m in pairs:
            alone = rf_channel.mrc_gains(z.copy(), exps[:m - 1].copy(), [(k, m)])
            np.testing.assert_array_equal(alone[k, m], together[k, m])

    def test_written_into_the_given_arrays(self):
        # the chunk kernel's reused scratch: the same gains, bit for bit,
        # each in its own given array but the pair with the most branches,
        # whose gain is formed in the exponential row it reads
        rng = np.random.default_rng(6)
        z, exps = rng.standard_normal((500, 2)), rng.standard_exponential((3, 500))
        pairs = [(50.0, 4), (0.0, 1), (3.162, 2), (0.5, 4)]
        fresh = rf_channel.mrc_gains(z.copy(), exps.copy(), pairs)
        out = {pair: np.full(500, np.nan) for pair in pairs}
        spent = exps.copy()
        given = rf_channel.mrc_gains(z.copy(), spent, pairs, lambda k, m: out[k, m])
        for pair in pairs:
            assert given[pair].tobytes() == fresh[pair].tobytes()
            assert given[pair] is out[pair] or pair == (50.0, 4)
        assert np.shares_memory(given[50.0, 4], spent[2]) and np.isnan(out[50.0, 4]).all()


class TestAvgBer:
    def test_spot_value(self):
        # frozen from quadrature against the ncx2 density (epsabs 1e-300)
        p = RfParams(k_factor=3.162, branches=2, avg_snr=5.0)
        assert rf_avg_ber(p) == pytest.approx(0.0010730749659135978, rel=1e-10, abs=0.0)

    def test_rayleigh_closed_form(self):
        for mu in [0.1, 1.0, 10.0, 1000.0]:
            p = RfParams(k_factor=0.0, branches=1, avg_snr=mu)
            assert rf_avg_ber(p) == pytest.approx(oracles.rayleigh_ber(mu), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k,m,mu", GRID)
    def test_matches_quadrature(self, k, m, mu):
        p = RfParams(k_factor=k, branches=m, avg_snr=mu)
        want = oracles.rf_ber_quad(k, m, mu)
        assert rf_avg_ber(p) == pytest.approx(want, rel=1e-8, abs=0.0)

    def test_extreme_diversity_stays_finite(self):
        # forces series indices past the Gamma overflow point of naive forms
        p = RfParams(k_factor=10.0, branches=2, avg_snr=100.0)
        val = rf_avg_ber(p)
        assert 0.0 < val < 1e-9
        assert val == pytest.approx(oracles.rf_ber_quad(10.0, 2, 100.0), rel=1e-8)

    def test_matches_meijer_term_route(self):
        # same series with each term routed through the Meijer-G reduction
        from oracles import meijer_g_2122, poisson_weighted_sum

        for k, m, mu in [(1.0, 2, 4.0), (0.5, 1, 1.0), (2.0, 3, 10.0)]:
            p = RfParams(k_factor=k, branches=m, avg_snr=mu)
            z = mu / (k + 1.0)

            def term(j):
                return meijer_g_2122(1 - (m + j), z) / (math.sqrt(math.pi) * math.gamma(m + j))

            want = 0.5 * poisson_weighted_sum(k * m, term)
            assert rf_avg_ber(p) == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_vanishing_snr_limit(self):
        # series truncation budget is 1e-10 relative on a value of 1/2
        p = RfParams(k_factor=2.0, branches=2, avg_snr=1e-300)
        assert rf_avg_ber(p) == pytest.approx(0.5, abs=1e-10)

    def test_monotone_in_snr_and_branches(self):
        vals = [rf_avg_ber(RfParams(k_factor=1.0, branches=2, avg_snr=mu)) for mu in np.geomspace(0.1, 100, 12)]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        by_m = [rf_avg_ber(RfParams(k_factor=1.0, branches=m, avg_snr=2.0)) for m in [1, 2, 3, 4]]
        assert all(x > y for x, y in zip(by_m, by_m[1:]))


class TestDiversityOrder:
    """At high average SNR mu the radio hop falls as mu^-M, M being the
    branch count, toward limits that need no series:

        F_rf(g) ~ e^(-KM) ((K+1) g/mu)^M / M!
        P_rf    ~ e^(-KM) ((K+1)/mu)^M Gamma(M + 1/2) / (2 sqrt(pi) M!)

    At g = 1 the closed forms over these limits are 1 + c (K-1) y + O(y^2),
    y = (K+1)/mu, c = M/(M+1) for the CDF and M(M+1/2)/(M+1) for the BER,
    so their gap to 1 falls about 100x per +20 dB, or about 10^4x at K = 1
    (0 dB), down to the rounding of both sides: each is an exponential of
    a log of size |L|, so a few |L| eps."""

    @staticmethod
    def gaps(k, m, mu_db):
        """|closed form / limit - 1| of the CDF at threshold 1 and of the
        BER, and the rounding floor of the comparison."""
        mu = 10.0 ** (mu_db / 10.0)
        p = RfParams(k_factor=k, branches=m, avg_snr=mu)
        log_cdf = -k * m + m * math.log((k + 1.0) / mu) - math.lgamma(m + 1.0)
        log_ber = log_cdf + math.lgamma(m + 0.5) - math.log(2.0 * math.sqrt(math.pi))
        gaps = (abs(mrc_snr_cdf(1.0, p) / math.exp(log_cdf) - 1.0),
                abs(rf_avg_ber(p) / math.exp(log_ber) - 1.0))
        return gaps, 4.0 * 2.0**-52 * max(abs(log_cdf), abs(log_ber))

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    @pytest.mark.parametrize("k_db", [0.0, 5.0, 10.0])
    def test_closed_forms_reach_their_limits(self, k_db, m):
        k = 10.0 ** (k_db / 10.0)
        fall = 1e-4 if k == 1.0 else 1e-2
        steps = [self.gaps(k, m, mu_db) for mu_db in (40.0, 60.0, 80.0, 100.0)]
        for (before, _), (after, floor) in zip(steps, steps[1:]):
            for b, a in zip(before, after):
                assert a <= floor or fall / 2.0 < a / b < fall * 2.0, (k_db, m, b, a)
        last, floor = steps[-1]
        assert max(last) < max(1e-7, floor)

    @pytest.mark.parametrize("closed_form", ["cdf", "ber"])
    def test_deep_left_tail_at_rate_253(self, closed_form):
        # each series starts at the peak of its own summand, so the deep
        # left tail converges
        p = RfParams(k_factor=10.0 ** 1.5, branches=8, avg_snr=1e6)
        value = mrc_snr_cdf(1.0, p) if closed_form == "cdf" else rf_avg_ber(p)
        assert value > 0.0


# Line-of-sight links whose radio series the mode-anchored walk of earlier
# versions could not sum (K in dB, M): at threshold 0.1 from K M = 253 on
BASELINE_ROWS = [(15.0, 8), (25.0, 1), (20.0, 4), (17.0, 8), (25.0, 2), (30.0, 1),
                 (30.0, 8), (40.0, 1)]


class TestLineOfSight:
    """The radio closed forms of strong line-of-sight links, rates 253 to
    1e4, over 51 average SNRs in [-10, 40] dB."""

    @pytest.mark.parametrize("k_db, m", BASELINE_ROWS)
    def test_every_point_converges(self, k_db, m):
        k = 10.0 ** (k_db / 10.0)
        params = [RfParams(k, m, 10.0 ** (s / 10.0)) for s in np.linspace(-10.0, 40.0, 51)]
        for threshold in (0.1, 1.0):
            assert np.all(np.isfinite(mrc_cdf_batch([threshold] * 51, params)))
        assert np.all(np.isfinite(rf_avg_ber_batch(params)))

    @pytest.mark.parametrize("k_db, m", BASELINE_ROWS)
    def test_matches_mpmath(self, k_db, m):
        # at -10, 15 and 40 dB; 0 where the true value underflows
        k = 10.0 ** (k_db / 10.0)
        for snr_db in (-10.0, 15.0, 40.0):
            mu = 10.0 ** (snr_db / 10.0)
            p = RfParams(k, m, mu)
            pairs = [(mrc_snr_cdf(g, p), oracles.mrc_cdf_peak_mp(g, k, m, mu, dps=20))
                     for g in (0.1, 1.0)]
            pairs.append((rf_avg_ber(p), oracles.rf_ber_mp(k, m, mu, dps=20)))
            for got, want in pairs:
                if want >= 1e-300:
                    assert got == pytest.approx(want, rel=REL_TOL, abs=0.0), (snr_db, want)
                else:
                    assert got <= 1e-300, (snr_db, want)

    @pytest.mark.parametrize("quantity", ["outage", "ber"])
    def test_branches_sweep_at_17_db(self, quantity):
        # rates 50 to 401: every branch count converges
        from golden.generate import config
        from rfvlc.config import SweepSpec, parse_config
        from rfvlc.sweep import run_sweep

        doc = config(k_db=17.0, branches=4, snr_db=20.0)
        records = run_sweep(parse_config(doc).system, SweepSpec("branches", 1, 8, 8, quantity), None)
        assert [r.axis_value for r in records] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        assert all(0.0 < r.analytic < 1.0 for r in records)

    def test_mixed_batch_is_one_pass(self, monkeypatch):
        # mixed K and branch counts, rates 0 to 1e4: one series pass per
        # closed form
        calls = []

        def counted(lam, term):
            calls.append(lam.size)
            return poisson_weighted_sum(lam, term)

        monkeypatch.setattr(rf_channel, "poisson_weighted_sum", counted)
        params = [RfParams(10.0 ** (k_db / 10.0) if k_db is not None else 0.0, m, 10.0 ** (s / 10.0))
                  for k_db, m, s in [(None, 1, 0.0), (5.0, 2, 7.0), (17.0, 4, 20.0), (40.0, 1, 10.0),
                                     (20.0, 8, -5.0), (5.0, 2, 30.0)]]
        mrc_cdf_batch([1.0] * len(params), params)
        rf_avg_ber_batch(params)
        assert calls == [len(params), len(params)]


def _scalar_or_failed(fn):
    try:
        return fn()
    except ConvergenceError:
        return None


def _check_batch(batch, lone, n):
    """Check batch(indices) against the lone calls lone(i), i < n: equal
    values bit for bit where every lone call converges, else a
    ConvergenceError masking exactly the lone failures, whose message is
    the first failure's; the converging entries, batched alone, then keep
    their lone values.  Returns (values, error): the values of the
    converging entries (NaN elsewhere), and the error or None."""
    lones = [_scalar_or_failed(lambda: lone(i)) for i in range(n)]
    ok = [i for i, v in enumerate(lones) if v is not None]
    values, error = np.full(n, np.nan), None
    try:
        values[:] = batch(range(n))
    except ConvergenceError as exc:
        error = exc
        assert exc.unconverged.tolist() == [v is None for v in lones]
        with pytest.raises(ConvergenceError) as first:
            lone(lones.index(None))
        assert str(exc) == str(first.value)
        values[ok] = batch(ok)
    assert len(ok) == n or error is not None
    assert values[ok].tolist() == [lones[i] for i in ok]
    return values, error


def _cdf_batch(gammas, params):
    return lambda idx: mrc_cdf_batch([gammas[i] for i in idx], [params[i] for i in idx])


def _ber_batch(params):
    return lambda idx: rf_avg_ber_batch([params[i] for i in idx])


class TestBatch:
    """One series pass over the batch gives each point its lone value, or
    raises for the points that fail."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        k_db=st.floats(0.0, 20.0),
        m=st.integers(1, 4),
        points=st.lists(
            st.tuples(st.floats(-10.0, 30.0), st.floats(-10.0, 20.0)),
            min_size=1, max_size=6,
        ),
    )
    # K = 20 dB with M = 4, whose series the mode-anchored walk of earlier
    # versions could not sum at 10 dB
    @example(k_db=20.0, m=4, points=[(0.0, 0.0), (10.0, 0.0), (5.0, 3.0)])
    def test_matches_lone_calls_and_oracle(self, k_db, m, points):
        k = 10.0 ** (k_db / 10.0)
        params = [RfParams(k_factor=k, branches=m, avg_snr=10.0 ** (s / 10.0)) for s, _ in points]
        gammas = [10.0 ** (t / 10.0) for _, t in points]
        n = len(params)
        _check_batch(_cdf_batch(gammas, params), lambda i: mrc_snr_cdf(gammas[i], params[i]), n)
        _check_batch(_ber_batch(params), lambda i: rf_avg_ber(params[i]), n)
        for p, g in zip(params, gammas):
            y = (k + 1.0) * g / p.avg_snr
            w = (k + 1.0) / (k + 1.0 + p.avg_snr)
            # every rate here converges; the scalar oracle's fixed budget of
            # 512 terms past the mode does not reach every one
            lone = mrc_snr_cdf(g, p)
            ref = _scalar_or_failed(lambda: float(oracles.poisson_weighted_sum(
                k * m, lambda j: sc.gammainc(m + j, y))))
            if ref is not None:
                # the oracle's terms are scipy's gammainc, the library's
                # its own Poisson tails: equal within the truncation budget
                assert lone == pytest.approx(ref, rel=REL_TOL, abs=0.0)
            lone = rf_avg_ber(p)
            ref = _scalar_or_failed(lambda: 0.5 * oracles.poisson_weighted_sum(
                k * m, lambda j: float(sc.betainc(m + j, 0.5, w))))
            if ref is not None:
                # the oracle's terms are scipy's betainc, the library's its
                # own incomplete-beta walk: equal within the truncation budget
                assert lone == pytest.approx(ref, rel=REL_TOL, abs=0.0)
            # the array form gives every entry its lone value, or names the
            # entries that fail
            lones = [_scalar_or_failed(lambda: mrc_snr_cdf(g, p)) for g in gammas]
            try:
                arr = mrc_snr_cdf(np.array(gammas), p)
            except ConvergenceError as exc:
                assert exc.unconverged.tolist() == [v is None for v in lones]
            else:
                assert arr.tolist() == lones

    def test_failure_names_the_points(self):
        # `covers` refuses the middle point's rate
        params = [RfParams(k_factor=k, branches=4, avg_snr=10.0 ** (s / 10.0))
                  for k, s in ((100.0, 0.0), (1e6, 10.0), (100.0, 5.0))]
        with pytest.raises(ConvergenceError, match="rate=4e[+]06") as info:
            mrc_cdf_batch([1.0] * 3, params)
        assert info.value.unconverged.tolist() == [False, True, False]
        with pytest.raises(ConvergenceError, match="rate=4e[+]06"):
            mrc_snr_cdf(1.0, params[1])
        _check_batch(_cdf_batch([1.0] * 3, params), lambda i: mrc_snr_cdf(1.0, params[i]), 3)

    def test_mixed_fading_matches_lone_calls(self):
        # interleaved fading; `covers` refuses K = 2e6 (rate 2e6), which fails
        # at every SNR, K = 100 with M = 4 (rate 400) and K = 1000 (rate
        # 1000) converge, and a rate-8e5 point comes first on the array
        cells = [(1.0, 1, 3.0, 1.0), (2e5, 4, 0.0, 1.0), (2e6, 1, 30.0, 1.0),
                 (100.0, 4, 20.0, 1.0), (0.0, 3, 0.0, 0.0), (1.0, 2, 7.0, 2.0),
                 (2e6, 1, 0.0, 1.0), (1000.0, 1, 3.0, 0.5)]
        params = [RfParams(k_factor=k, branches=m, avg_snr=10.0 ** (s / 10.0))
                  for k, m, s, _ in cells]
        gammas = [g for *_, g in cells]
        n = len(cells)
        cdf, cdf_error = _check_batch(
            _cdf_batch(gammas, params), lambda i: mrc_snr_cdf(gammas[i], params[i]), n)
        _, ber_error = _check_batch(_ber_batch(params), lambda i: rf_avg_ber(params[i]), n)
        for error in (cdf_error, ber_error):
            assert "rate=2e+06," in str(error)
            assert error.unconverged.tolist() == [False, False, True, False, False, False, True, False]
        assert cdf[4] == 0.0


class TestRefusedRates:
    @pytest.mark.parametrize("max_terms, first_refused", [(16, 2.52), (40, 28.9), (512, 7575.0)])
    def test_refused_only_where_no_sum_can_stop(self, monkeypatch, max_terms, first_refused):
        # a rate gets no series pass only where even the all-ones series,
        # the largest sum of terms in [0, 1], runs out of steps under the
        # budget: the default base and slope, with the ceiling MAX_STEPS
        # lowered to max_terms (read when a series runs)
        monkeypatch.setattr(specfun, "MAX_STEPS", max_terms)
        passes = []

        def counted(lam, term):
            passes.append(lam)
            return poisson_weighted_sum(lam, term)

        monkeypatch.setattr(rf_channel, "poisson_weighted_sum", counted)
        refused = []
        for lam in np.geomspace(1e-3, 4.0 * first_refused, 300):
            passes.clear()
            try:
                mrc_snr_cdf(1.0, RfParams(k_factor=float(lam), branches=1, avg_snr=1.0))
            except ConvergenceError:
                pass
            if not passes:
                refused.append(lam)
        self.check_all_ones_runs_out(monkeypatch, refused)
        assert refused and refused[0] == pytest.approx(first_refused, rel=0.1)

    @staticmethod
    def check_all_ones_runs_out(monkeypatch, rates):
        """The all-ones series, run over its whole budget at every rate
        `covers` refuses, is flagged at each."""
        monkeypatch.setattr(specfun, "covers", lambda lam: np.ones(np.shape(lam), dtype=bool))
        ones = oracles.block_terms(lambda k: np.ones(len(rates)))
        _, flagged = poisson_weighted_sum(np.array(rates), ones)
        assert flagged.all()

    def test_refused_exactly_where_not_covered(self, monkeypatch):
        # at the shipped budget a rate gets no series pass exactly where
        # `covers` refuses it, past about 1.19e6, and every rate below
        # converges, here from 1e-3 to 1e6 at one branch and 10 dB; just
        # past the cap, the all-ones series runs out of steps
        passes = []

        def counted(lam, term):
            passes.append(lam)
            return poisson_weighted_sum(lam, term)

        monkeypatch.setattr(rf_channel, "poisson_weighted_sum", counted)
        cap = math.nextafter(1189267.999904181, math.inf)  # the first rate refused
        rates = np.concatenate([np.geomspace(1e-3, 1e6, 7), [cap, 4e6]])
        params = [RfParams(k_factor=float(lam), branches=1, avg_snr=10.0) for lam in rates]
        with pytest.raises(ConvergenceError, match="rate=1.18927e[+]06, steps=6000") as info:
            mrc_cdf_batch([1.0] * rates.size, params)
        assert info.value.unconverged.tolist() == [False] * 7 + [True, True]
        assert [p.tolist() for p in passes] == [rates[:7].tolist()]
        # the density is refused there too, with its SNRs above 0 flagged:
        # its value at 0, exp(-K) (K+1)/mu at one branch, is 0 at such rates
        for p in params[7:]:
            passes.clear()
            message = re.escape(f"rate={p.k_factor:g}, steps=6000")
            with pytest.raises(ConvergenceError, match=message) as info:
                mrc_snr_pdf(np.array([1.0, 0.0, 2.0]), p)
            assert info.value.unconverged.tolist() == [True, False, True]
            assert not passes
        self.check_all_ones_runs_out(monkeypatch, [cap])
