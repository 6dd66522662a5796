import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sc
from scipy import stats

import oracles
from oracles import erfc_moment, marcum_q, meijer_g_2122
from rfvlc import rf_channel, specfun
from rfvlc.rf_channel import RfParams, mrc_cdf_batch, mrc_snr_cdf, rf_avg_ber_batch
from rfvlc.specfun import (
    BetaTerms,
    ConvergenceError,
    GammaTerms,
    erfc_sqrt,
    poisson_weighted_sum,
    upper_gamma,
    validate_snr,
)

SQRT_PI = 1.7724538509055160273


class TestMarcumQ:
    def test_spot_value(self):
        # scipy.stats.ncx2.sf(1, 4, 1), cross-checked against quadrature
        assert marcum_q(2, 1.0, 1.0) == pytest.approx(0.9407902191465287, abs=1e-10)

    def test_b_zero_is_exactly_one(self):
        assert marcum_q(1, 2.0, 0.0) == 1.0
        assert marcum_q(4, 0.0, 0.0) == 1.0
        out = marcum_q(3, 1.5, np.array([0.0, 1.0]))
        assert out[0] == 1.0

    @pytest.mark.parametrize("order", [1, 2, 4, 8])
    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 3.0])
    def test_matches_ncx2(self, order, a):
        for b in [0.25, 1.0, 2.0, 5.0]:
            want = oracles.marcum_q_ncx2(order, a, b)
            # the series carries an absolute truncation budget of 1e-10
            assert marcum_q(order, a, b) == pytest.approx(want, rel=1e-9, abs=2e-10), (order, a, b)

    @pytest.mark.parametrize("order,a,b", [(1, 1.0, 2.0), (2, 3.0, 1.0), (4, 0.5, 3.0), (8, 2.0, 6.0)])
    def test_matches_defining_integral(self, order, a, b):
        want = oracles.marcum_q_quad(order, a, b)
        assert marcum_q(order, a, b) == pytest.approx(want, rel=1e-8, abs=1e-12)

    def test_large_noncentrality(self):
        # lam = a^2 = 999, deep series; matches the distributional oracle
        want = oracles.marcum_q_ncx2(2, math.sqrt(999.0), 30.0)
        assert marcum_q(2, math.sqrt(999.0), 30.0) == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_monotone_decreasing_in_b(self):
        b = np.linspace(0.0, 8.0, 40)
        q = marcum_q(2, 1.5, b)
        assert np.all(np.diff(q) < 0.0)
        assert q[0] == 1.0

    def test_vectorized_matches_scalar(self):
        b = np.array([0.3, 1.0, 2.5])
        out = marcum_q(3, 1.2, b)
        for i, bi in enumerate(b):
            assert out[i] == marcum_q(3, 1.2, float(bi))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            marcum_q(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            marcum_q(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            marcum_q(1, -0.1, 1.0)
        with pytest.raises(ValueError):
            marcum_q(1, 1.0, -1.0)

    def test_truncation_reported(self):
        with pytest.raises(ConvergenceError):
            marcum_q(1, 40.0, 1.0, max_terms=16)


class TestErfcMoment:
    def test_exact_value(self):
        # n=1, a=3: (1 - 1/sqrt(1+a)) / a = 1/6 exactly
        assert erfc_moment(1.0, 3.0) == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_spot_values(self):
        # mpmath quadrature at 50 digits
        assert erfc_moment(2.0, 1.0) == pytest.approx(0.116116523516815594, rel=1e-12)
        assert erfc_moment(0.5, 2.0) == pytest.approx(0.762232380279952727, rel=1e-12)

    @pytest.mark.parametrize("n", [0.5, 1.0, 2.0, 3.5, 6.0])
    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0, 10.0])
    def test_matches_quadrature(self, n, a):
        want = oracles.erfc_moment_quad(n, a)
        assert erfc_moment(n, a) == pytest.approx(want, rel=1e-10)

    def test_decreasing_in_decay_rate(self):
        vals = [erfc_moment(2.0, a) for a in [0.5, 1.0, 2.0, 4.0, 8.0]]
        assert all(x > y > 0.0 for x, y in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            erfc_moment(0.0, 1.0)
        with pytest.raises(ValueError):
            erfc_moment(1.0, 0.0)


class TestMeijerG2122:
    def test_spot_values(self):
        # closed forms: shift 0 collapses to sqrt(pi) * (1 - (z/(1+z))^(1/2)) at n=1
        assert meijer_g_2122(0, 1.0 / 3.0) == pytest.approx(SQRT_PI / 2.0, rel=1e-13)
        assert meijer_g_2122(0, 1.0) == pytest.approx(0.519139713590015776, rel=1e-13)
        # mpmath.meijerg at 50 digits, n=3
        assert meijer_g_2122(-2, 2.0) == pytest.approx(0.0475016381127383677, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 17, 54])
    @pytest.mark.parametrize("z", [1.0 / 3.0, 1.0, 2.4, 9.0])
    def test_matches_mpmath(self, n, z):
        want = oracles.meijer_ref(1 - n, z)
        assert meijer_g_2122(1 - n, z) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0, 10.0])
    def test_consistent_with_erfc_moment(self, n, a):
        # two independently coded routes to the same integral
        lhs = meijer_g_2122(1 - n, 1.0 / a)
        rhs = SQRT_PI * a**n * erfc_moment(float(n), a) / 1.0
        assert lhs == pytest.approx(rhs, rel=5e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            meijer_g_2122(0.5, 1.0)
        with pytest.raises(ValueError):
            meijer_g_2122(1, 1.0)
        with pytest.raises(ValueError):
            meijer_g_2122(0, 0.0)
        with pytest.raises(ValueError):
            meijer_g_2122(0, -2.0)


class TestPoissonWeightedSum:
    def test_zero_rate_is_first_term(self):
        got, unconverged = poisson_weighted_sum(0.0, lambda k: np.array([k + 7.0, k + 2.0]))
        assert got.tolist() == [7.0, 2.0]
        assert unconverged.tolist() == [False, False]

    def test_unit_sum(self):
        # sum of the weights is 1 up to the relative truncation budget
        for lam in [0.3, 4.0, 120.0]:
            (got,), _ = poisson_weighted_sum(lam, lambda k: np.ones(1))
            assert got == pytest.approx(1.0, abs=3e-10)

    def test_known_generating_function(self):
        # E[t^K] = exp(lam (t - 1)), one entry per t
        lam, ts = 5.0, np.array([0.2, 0.7])
        got, _ = poisson_weighted_sum(lam, lambda k: ts**k)
        np.testing.assert_allclose(got, np.exp(lam * (ts - 1.0)), rtol=1e-11)

    def test_relative_accuracy_for_tiny_sums(self):
        # terms shrink like e^{-9k}; the sum is ~1e-5 times the largest weight
        lam = 30.0
        (got,), _ = poisson_weighted_sum(lam, lambda k: np.array([math.exp(-0.5 * k)]))
        want = math.exp(lam * (math.exp(-0.5) - 1.0))
        assert got == pytest.approx(want, rel=1e-10)

    def test_truncation_raises(self, monkeypatch):
        # the budget is read when a series runs, and the closed form's
        # error names it and carries the mask of the failing entries
        monkeypatch.setattr(specfun, "MAX_TERMS", 16)
        p = RfParams(k_factor=1250.0, branches=4, avg_snr=1.0)
        with pytest.raises(ConvergenceError) as info:
            mrc_snr_cdf(np.array([0.0, 1.0, 2.0]), p)
        assert str(info.value) == (
            "Poisson-weighted series did not converge: rate=5000, max_terms=16, rel_tol=1e-10"
        )
        assert info.value.unconverged.tolist() == [False, True, True]

    def test_error_carries_its_mask(self):
        mask = np.array([False, True])
        exc = ConvergenceError("no luck", mask)
        assert str(exc) == "no luck" and exc.unconverged is mask
        assert ConvergenceError("no mask").unconverged is None

    @pytest.mark.parametrize("lam", [0.0, 0.3, 30.0, 400.0])
    def test_independent_entries_match_scalar_calls(self, lam, monkeypatch):
        # each entry stops where the scalar oracle stops for it alone, bit
        # for bit, and is flagged exactly where that call runs out of terms
        monkeypatch.setattr(specfun, "REL_TOL", 1e-3)
        monkeypatch.setattr(specfun, "MAX_TERMS", 40)
        ts = np.array([1e-30, 1e-3, 0.3, 0.7, 1.0])
        got, unconverged = poisson_weighted_sum(lam, lambda k: ts**k)
        assert got.shape == unconverged.shape == ts.shape
        for t, value, flagged in zip(ts, got, unconverged):
            try:
                want = oracles.poisson_weighted_sum(lam, lambda k: t**k,
                                                    rel_tol=1e-3, max_terms=40)
            except ConvergenceError:
                assert flagged
            else:
                assert not flagged and value == want

    def test_negative_rate_is_refused(self):
        with pytest.raises(ValueError, match="rate must be >= 0"):
            poisson_weighted_sum(-1e-300, lambda k: np.ones(1))

    def test_unconverged_entries_are_flagged(self, monkeypatch):
        monkeypatch.setattr(specfun, "MAX_TERMS", 16)
        got, unconverged = poisson_weighted_sum(5000.0, lambda k: np.ones(3))
        assert unconverged.tolist() == [True, True, True]
        assert np.all((got > 0.0) & (got < 1.0))  # partial sums

    def test_rate_past_the_float_integers_is_flagged(self):
        # past 2**53 the right frontier's k + 2 rounds to the rate, so the
        # tail bound's ratio reaches 1: no bound, no stop, no division by 0
        _, unconverged = poisson_weighted_sum(1e17, lambda k: np.ones(2))
        assert unconverged.tolist() == [True, True]


# Where the weight pois(floor(lam) + 512; lam) crosses 2e-10 at the
# default budget: the last covered rate of each crossing; the next float up
# is refused.  The weight rises in lam between integers and drops where
# floor(lam) steps, so between the first and the last crossing the covered
# rates alternate with the refused ones.
CROSSINGS = [7549.984859638253, 7575.167261901771, 7580.010187196885]


class TestCovers:
    @pytest.mark.parametrize("lam", CROSSINGS)
    def test_one_float_on_each_side_of_a_crossing(self, lam):
        above = math.nextafter(lam, math.inf)
        assert specfun.covers(lam) and not specfun.covers(above)
        # the crossing is the weight's own, not a rounding artefact of it
        for rate in (lam, above):
            assert float(oracles.pois_mp(int(rate) + specfun.MAX_TERMS, rate)) == pytest.approx(
                2.0 * specfun.REL_TOL, rel=1e-12)

    def test_covered_up_to_the_first_crossing(self):
        lams = np.concatenate([[0.0, 1e-300, 0.5], np.linspace(1.0, CROSSINGS[0], 500)])
        assert all(specfun.covers(lam) for lam in lams)

    def test_refused_past_the_last_crossing(self):
        lams = np.linspace(math.nextafter(CROSSINGS[-1], math.inf), 2e4, 500)
        assert not any(specfun.covers(lam) for lam in lams)

    @pytest.mark.parametrize("lam", [math.nextafter(2.0**53, 0.0), 2.0**53, 1e300, math.inf])
    def test_refused_at_and_past_the_float_integers(self, lam):
        # just below 2**53 by its weight; from 2**53 on without it: past
        # about 4e18 the weight, about 1/sqrt(2 pi lam), is below 2 REL_TOL
        # although no 512 terms span the mass, and at inf it has no order
        assert specfun.covers(lam) is False

    @pytest.mark.parametrize("lam", [*CROSSINGS, *(math.nextafter(c, math.inf) for c in CROSSINGS),
                                     math.nextafter(2.0**53, 0.0), 2.0**53, math.inf])
    def test_mixture_refuses_exactly_the_uncovered_rates(self, lam):
        # `rf_channel._mixture` builds the terms of a rate's pass exactly
        # where the rule covers the rate, and flags a refused rate's
        # entries as a pass that ran out of terms would
        built = []

        def terms(m, x):
            built.append(m)
            return lambda j: np.ones(x.shape)  # the largest sum: it cannot stop here

        with pytest.raises(ConvergenceError) as info:
            rf_channel._mixture(np.array([lam, 1.0]), np.array([1, 2]), np.ones(2), terms)
        assert built == ([1, 2] if specfun.covers(lam) else [2])
        assert str(info.value) == ("Poisson-weighted series did not converge: "
                                   f"rate={lam:g}, max_terms=512, rel_tol=1e-10")
        assert info.value.unconverged.tolist() == [True, False]


# measured worst over these tests: 1.9e-13 relative at the anchors,
# 1.5e-13 on the left walk, 4.3e-14 of P(a0) on the right walk
GAMMA_REL = 5e-13
GAMMA_YS = np.geomspace(1e-3, 1e3, 25)


class TestGammaTerms:
    """P(a, y) of integer order against mpmath at 40 digits, for a in
    [1, 1200] and y in [1e-3, 1e3]: values near 1 (a << y) down to the
    float range (a >> y)."""

    @staticmethod
    def check_relative(got, a):
        for y, value in zip(GAMMA_YS, got):
            want = oracles.regularized_gamma_mp(a, y)
            if want >= 1e-300:
                assert value == pytest.approx(want, rel=GAMMA_REL, abs=0.0), (a, y)
            else:
                assert value <= 1e-300, (a, y)  # at the float range's edge

    @pytest.mark.parametrize("a", [1, 2, 3, 5, 8, 15, 16, 17, 40, 99, 204, 401, 700, 1000, 1178, 1200])
    def test_anchor(self, a):
        self.check_relative(GammaTerms(a, GAMMA_YS)(0), a)

    @pytest.mark.parametrize("a0", [1, 30, 204, 700, 1200])
    def test_walk(self, a0):
        # the orders poisson_weighted_sum asks for: the anchor, then right
        # and left neighbours in turn; left values keep relative accuracy,
        # right values an absolute error within GAMMA_REL of P(a0), which
        # includes the anchor's own error
        term = GammaTerms(1, GAMMA_YS)
        anchor = term(a0 - 1)
        lo = hi = a0
        for step in range(300):
            hi += 1
            right = term(hi - 1)
            assert np.all(right >= 0.0), hi
            if step % 9 == 0:
                want = np.array([oracles.regularized_gamma_mp(hi, y) for y in GAMMA_YS])
                assert np.all(np.abs(right - want) <= GAMMA_REL * anchor + 1e-300), hi
            if lo > 1:
                lo -= 1
                left = term(lo - 1)
                if step % 9 == 0 or lo == 1:
                    self.check_relative(left, lo)

    def test_underflowing_anchor(self):
        # the last point of a 600-point K = 17 dB, M = 4 sweep: the anchor
        # P(204, y) ~ 1e-648 is 0 in floats, the orders the walk reaches on
        # its left are not
        k = 10.0**1.7
        y = np.array([(k + 1.0) * 1.0 / 1000.0])
        term = GammaTerms(4, y)
        assert term(200)[0] == 0.0
        for a in range(203, 3, -1):
            got = term(a - 4)[0]
            if a % 20 == 0 or a == 4:
                want = oracles.regularized_gamma_mp(a, y[0])
                if want >= 1e-300:
                    assert got == pytest.approx(want, rel=GAMMA_REL, abs=0.0), a
                else:
                    assert got <= 1e-300, a

    def test_entries_equal_lone_calls(self):
        # the anchor series of each entry stops on its own; near y = a0 they
        # run longest, and a term past an entry's stop can move it an ulp
        ys = np.concatenate([GAMMA_YS, 50.0 + np.linspace(-21.0, 21.0, 41)])
        term = GammaTerms(3, ys)
        lones = [GammaTerms(3, ys[i:i + 1]) for i in range(ys.size)]
        for j in (47, 48, 46, 49, 45):
            got = term(j)
            assert got.tolist() == [lone(j)[0] for lone in lones]

    def test_rejects_orders_off_the_walk(self):
        # after the anchor, only the neighbours of the two frontier orders
        term = GammaTerms(2, GAMMA_YS)
        term(10)
        term(11)
        term(9)
        for j in (13, 7, 10):
            with pytest.raises(ValueError, match=f"^order {2 + j} is not next to the walked "
                                                 "orders 11..13$"):
                term(j)

    def test_saturates_above_the_float_range(self):
        assert GammaTerms(3, np.array([np.inf, 1e308]))(5).tolist() == [1.0, 1.0]


# measured worst over these tests: 1.3e-13 relative at the anchors,
# 1.2e-13 on the left walk, 9.5e-14 of I(a0) on the right walk
BETA_REL = 5e-13
BETA_WS = np.concatenate([np.geomspace(1e-4, 0.5, 13), 1.0 - np.geomspace(0.3, 1e-5, 12)])


class TestBetaTerms:
    """I_w(a, 1/2) of integer order against mpmath at 40 digits, for a in
    [1, 1200] and w in [1e-4, 1 - 1e-5]: values near 1 (w near 1) down to
    the float range (a large, w small), on both sides of the switch to
    the complement at w = (a + 1)/(a + 5/2)."""

    @staticmethod
    def check_relative(got, a):
        for w, value in zip(BETA_WS, got):
            want = oracles.regularized_beta_mp(a, 0.5, w)
            if want >= 1e-300:
                assert value == pytest.approx(want, rel=BETA_REL, abs=0.0), (a, w)
            else:
                assert value <= 1e-300, (a, w)  # at the float range's edge

    @pytest.mark.parametrize("a", [1, 2, 3, 5, 8, 15, 16, 17, 40, 99, 204, 401, 700, 1000, 1200])
    def test_anchor(self, a):
        self.check_relative(BetaTerms(a, BETA_WS)(0), a)

    @pytest.mark.parametrize("a0", [1, 30, 204, 700, 1200])
    def test_walk(self, a0):
        # as GammaTerms' walk: left values keep relative accuracy, right
        # values an absolute error within BETA_REL of I(a0)
        term = BetaTerms(1, BETA_WS)
        anchor = term(a0 - 1)
        lo = hi = a0
        for step in range(300):
            hi += 1
            right = term(hi - 1)
            assert np.all(right >= 0.0), hi
            if step % 9 == 0:
                want = np.array([oracles.regularized_beta_mp(hi, 0.5, w) for w in BETA_WS])
                assert np.all(np.abs(right - want) <= BETA_REL * anchor + 1e-300), hi
            if lo > 1:
                lo -= 1
                left = term(lo - 1)
                if step % 9 == 0 or lo == 1:
                    self.check_relative(left, lo)

    def test_underflowing_anchor(self):
        # I_w(208, 1/2) ~ 1e-416 is 0 in floats; the orders the walk
        # reaches on its left are not
        w = np.array([0.01])
        term = BetaTerms(4, w)
        assert term(204)[0] == 0.0
        for a in range(207, 3, -1):
            got = term(a - 4)[0]
            if a % 20 == 0 or a == 4:
                want = oracles.regularized_beta_mp(a, 0.5, w[0])
                if want >= 1e-300:
                    assert got == pytest.approx(want, rel=BETA_REL, abs=0.0), a
                else:
                    assert got <= 1e-300, a

    def test_entries_equal_lone_calls(self):
        # each entry's continued fraction stops on its own; entries on
        # both sides of the switch, near it, run longest
        switch = 48.0 / 49.5  # the anchor's order is 3 + 44
        ws = np.concatenate([BETA_WS, switch + np.linspace(-0.02, 0.02, 41)])
        term = BetaTerms(3, ws)
        lones = [BetaTerms(3, ws[i:i + 1]) for i in range(ws.size)]
        for j in (44, 45, 43, 46, 42):
            got = term(j)
            assert got.tolist() == [lone(j)[0] for lone in lones]

    @pytest.mark.parametrize("a", range(1, 65))
    def test_anchor_entries_equal_lone_calls(self, a):
        # the continued fraction runs on over the entries still converging
        # only; each entry's value is its lone call's, on both sides of the
        # switch to the complement, at w = 0 and w = 1 included
        switch = (a + 1.0) / (a + 2.5)
        ws = np.concatenate([np.linspace(0.0, 1.0, 11), BETA_WS[::3],
                             switch + np.array([-1e-2, -1e-6, 0.0, 1e-6, 1e-2]),
                             [math.nextafter(switch, 0.0), math.nextafter(switch, 1.0)]])
        direct = ws < switch
        assert direct.any() and not direct.all()
        front = BetaTerms(1, ws)._step(a)
        got = specfun._beta_anchor(a, ws, front)
        for i, value in enumerate(got):
            assert value == specfun._beta_anchor(a, ws[i:i + 1], front[i:i + 1])[0], ws[i]

    def test_rejects_orders_off_the_walk(self):
        # after the anchor, only the neighbours of the two frontier orders
        term = BetaTerms(2, BETA_WS)
        term(10)
        term(11)
        term(9)
        for j in (13, 7, 10):
            with pytest.raises(ValueError, match=f"^order {2 + j} is not next to the walked "
                                                 "orders 11..13$"):
                term(j)

    def test_step_is_the_negative_binomial_mass(self):
        # I_w(a, 1/2) = Pr(N >= a) for N negative binomial with shape 1/2
        # and failure probability w, so the step I(a) - I(a + 1) is
        # Pr(N = a).  scipy's mass is up to 2e-11 off where it is tiny
        # (a = 80, w = 2e-4, against a step within 1.1e-13 of mpmath)
        law = stats.nbinom(0.5, 1.0 - BETA_WS)
        for a in range(1, 1201):
            want = law.pmf(a)
            shown = want > 1e-300
            got = BetaTerms(1, BETA_WS)._step(a)
            np.testing.assert_allclose(got[shown], want[shown], rtol=3e-11, atol=0.0)

    def test_limits_at_the_ends(self):
        # w = 0 (no radio SNR is this high) and w = 1 (nor this low)
        term = BetaTerms(1, np.array([0.0, 1.0]))
        for j in (3, 4, 2, 5, 1):
            assert term(j).tolist() == [0.0, 1.0]


class TestPoissonMass:
    """`_stirling_correction` and `_pois` against mpmath at 40 digits."""

    def test_stirling_correction(self):
        # the Poisson mass carries this absolute error as a relative one.
        # Below 16 it is lgamma's cancelling difference (measured worst
        # 7.4e-15); from 16 on the Stirling series, whose first omitted
        # term is below 2e-16 (measured worst 1.1e-16, at 16), so an error
        # in its last kept term (2.4e-14 at 16) shows
        for a in range(1, 2001):
            want = oracles.stirling_correction_mp(a)
            assert abs(specfun._stirling_correction(a) - want) <= (1e-14 if a < 16 else 2e-16), a

    def test_pois(self):
        # within a few eps of the exponent's size plus eps |y - a|, the
        # mass's own conditioning (measured worst 2.7 such units), or at
        # the float range's edge; each row of a column of orders is the
        # array of its order alone, bit for bit
        ys = np.geomspace(1e-3, 1e5, 41)
        orders = [1, 2, 3, 7, 15, 16, 17, 40, 99, 204, 700, 1000, 2000, 5000, 20000, 100000]
        rows = specfun._pois(orders, ys)
        assert rows.shape == (len(orders), ys.size)
        for a, row in zip(orders, rows):
            assert row.tobytes() == specfun._pois(a, ys).tobytes(), a
            for y, got in zip(ys, row):
                want = oracles.pois_mp(a, y)
                if want >= 1e-300:
                    tol = 8.0 * 2.0**-53 * (1.0 + abs(math.log(want)) + abs(y - a))
                    assert got == pytest.approx(want, rel=tol, abs=0.0), (a, y)
                else:
                    assert got <= 1e-300, (a, y)


# Series budgets whose block ends fall before, at and past MAX_TERMS
BUDGETS = [(1e-10, 512), (1e-3, 40), (1e-10, 16)]


def _outcome(fn, *args):
    """The bytes of fn(*args), or the text and mask of its ConvergenceError."""
    try:
        return np.asarray(fn(*args)).tobytes()
    except ConvergenceError as exc:
        return str(exc), exc.unconverged.tolist()


def _stepwise_outcome(fn, *args):
    """`_outcome` with the radio series walked one order per step (the
    coverage rule `specfun.covers` on the reference mass too)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rf_channel, "poisson_weighted_sum", oracles.step_weighted_sum)
        mp.setattr(rf_channel, "GammaTerms", oracles.StepGammaTerms)
        mp.setattr(rf_channel, "BetaTerms", oracles.StepBetaTerms)
        mp.setattr(specfun, "_pois", oracles.step_pois)
        return _outcome(fn, *args)


_FADING = st.tuples(st.one_of(st.none(), st.floats(-10.0, 25.0)), st.integers(1, 8))
# average SNR and threshold in dB, out to where the anchors underflow
_POINTS = st.lists(st.tuples(st.floats(-10.0, 300.0), st.floats(-300.0, 30.0)),
                   min_size=1, max_size=12)


class TestBlockWalk:
    """The walk computes its steps a block of orders ahead; what it returns
    is the one-order-per-step walk's (`oracles.step_weighted_sum` and its
    term walks), bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(budget=st.sampled_from(BUDGETS),
           groups=st.lists(st.tuples(_FADING, _POINTS), min_size=1, max_size=3))
    @example(budget=BUDGETS[0],  # the benchmark's line-of-sight cell
             groups=[((17.0, 4), [(snr, 0.0) for snr in np.linspace(-10.0, 30.0, 12)])])
    def test_closed_forms_equal_the_stepwise_walk(self, budget, groups):
        params, gammas = [], []
        for (k_db, m), points in groups:
            k = 0.0 if k_db is None else 10.0 ** (k_db / 10.0)
            for snr_db, gamma_db in points:
                params.append(RfParams(k, m, 10.0 ** (snr_db / 10.0)))
                gammas.append(10.0 ** (gamma_db / 10.0))
        gammas = np.array(gammas)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(specfun, "REL_TOL", budget[0])
            mp.setattr(specfun, "MAX_TERMS", budget[1])
            for fn, args in ((mrc_cdf_batch, (gammas, params)), (rf_avg_ber_batch, (params,))):
                assert _outcome(fn, *args) == _stepwise_outcome(fn, *args), fn.__name__

    def test_anchor_below_the_float_range_warns_nothing(self):
        # y < a, so only the direct series' ratios y/(a + n) are formed; the
        # complement's (a - n)/y would overflow here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert GammaTerms(2, np.array([1e-310, 1.0]))(2)[0] == 0.0

    @settings(max_examples=25, deadline=None)
    @given(log_y=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=8),
           a0=st.integers(1, 3000))
    @example(log_y=[math.log10(1500.0), 1.0], a0=100)  # 0 at a0, not past 1500
    @example(log_y=[2.0, -2.0], a0=1000)  # 0 at a0, not below 100; w = 0.01 grows
    def test_dead_entries_stay_dead(self, log_y, a0):
        # once the reference step of an entry is 0.0 at an order beyond its
        # mode on a side, every later step on that side is 0.0 too, so the
        # walk computes no more of them: the Poisson mass on both sides,
        # the negative binomial mass (w = y/(1 + y), mode 0) on the right only
        y = 10.0 ** np.array(log_y)
        w = y / (1.0 + y)
        walks = [(GammaTerms(1, y), oracles.StepGammaTerms(1, y)),
                 (BetaTerms(1, w), oracles.StepBetaTerms(1, w))]
        for sign in (1, -1):
            orders = range(a0, max(a0 + 1201 * sign, 0), sign)
            for walk, reference in walks:
                steps = np.array([reference._step(a) for a in orders])
                beyond = np.array([sign * a >= sign * walk._mode for a in orders])
                dead = np.logical_or.accumulate((steps == 0.0) & beyond, axis=0)
                assert not steps[dead].any(), (type(walk).__name__, sign)


class TestUpperGamma:
    """Gamma(q, g) against mpmath at 40 digits, at both ends of the
    optical BER's q range (1/6, 1/2), on both sides of the switch from
    the series to the continued fraction at g = q + 1."""

    @pytest.mark.parametrize("q", [1.0 / 6.0 + 1e-12, 0.2, 0.3, 0.4, 0.5 - 1e-12])
    def test_matches_mpmath(self, q):
        gs = np.concatenate([np.geomspace(1e-300, 1e-3, 7), np.linspace(0.01, 3.0, 30),
                             [q + 1.0 - 1e-9, q + 1.0, q + 1.0 + 1e-9],
                             np.geomspace(3.0, 740.0, 20)])
        for g in gs:
            want = oracles.upper_gamma_mp(q, g)
            got = upper_gamma(q, float(g))
            if want >= 1e-300:
                assert got == pytest.approx(want, rel=2e-14, abs=0.0), g
            else:
                assert got <= 1e-300, g  # at the float range's edge

    def test_vanishes_past_the_float_range(self):
        assert upper_gamma(0.3, 1e300) == 0.0


class TestErfcSqrt:
    """erfc(sqrt(s)) against mpmath from the float s itself, over the SNRs
    the Monte Carlo kernel sees: every region of the rational fit and its
    edges, and the underflow from about s = 704 to 745."""

    S = np.concatenate([
        [0.0, 1e-300, 1e-20, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 64.0 - 2.0**-46, 64.0,
         64.0 + 2.0**-46, 700.0, 704.0, 705.0, 708.0, 709.0, 709.78, 709.79, 745.0, 746.0],
        np.geomspace(1e-12, 1.0, 60),
        np.linspace(0.0, 760.0, 1521),
        np.random.default_rng(3).uniform(0.0, 80.0, 400),
    ])

    def test_matches_mpmath(self):
        got = erfc_sqrt(self.S)
        tiny = np.finfo(float).tiny
        for s, value in zip(self.S, got):
            want = oracles.erfc_sqrt_mp(s)
            if want >= tiny:
                assert value == pytest.approx(want, rel=4e-15, abs=0.0), s
            else:
                assert 0.0 <= value < tiny, s  # 0 or subnormal

    def test_scratch_gives_the_same_values(self):
        n = self.S.size
        out, work = np.full(n, np.nan), np.full((2, n), np.nan)
        got = erfc_sqrt(self.S, out=out, work=work)
        assert got is out
        assert got.tolist() == erfc_sqrt(self.S).tolist()

    def test_beyond_the_float_range(self):
        assert erfc_sqrt(np.array([1e80, 1e300, np.inf])).tolist() == [0.0, 0.0, 0.0]


class TestValidateSnr:
    def test_passes_through_as_float_array(self):
        out = validate_snr([0.0, 2])
        assert out.dtype == float and out.tolist() == [0.0, 2.0]
        assert validate_snr(3).shape == ()

    @pytest.mark.parametrize("bad", [-1e-300, np.nan, [1.0, -2.0], [np.nan]])
    def test_rejects_negative_and_nan(self, bad):
        with pytest.raises(ValueError, match="^snr values must be >= 0$"):
            validate_snr(bad)


def test_public_names_resolve():
    # a name deleted from a module but left in its export list fails here
    import importlib

    for name in ("rfvlc", "rfvlc.specfun", "rfvlc.rf_channel", "rfvlc.vlc_channel",
                 "rfvlc.e2e", "rfvlc.montecarlo", "rfvlc.sweep", "rfvlc.config"):
        module = importlib.import_module(name)
        for exported in module.__all__:
            assert hasattr(module, exported), (name, exported)
