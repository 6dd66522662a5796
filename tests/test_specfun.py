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
from rfvlc.rf_channel import BetaTerms, GammaTerms
from rfvlc.specfun import (
    ConvergenceError,
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
        term = oracles.block_terms(lambda k: np.array([k + 7.0, k + 2.0]))
        got, unconverged = poisson_weighted_sum(np.zeros(2), term)
        assert got.tolist() == [7.0, 2.0]
        assert unconverged.tolist() == [False, False]

    def test_unit_sum(self):
        # sum of the weights is 1 up to the relative truncation budget
        for lam in [0.3, 4.0, 120.0]:
            (got,), _ = poisson_weighted_sum(lam, oracles.block_terms(lambda k: np.ones(1)))
            assert got == pytest.approx(1.0, abs=3e-10)

    def test_known_generating_function(self):
        # E[t^K] = exp(lam (t - 1)), one entry per t
        lam, ts = 5.0, np.array([0.2, 0.7])
        got, _ = poisson_weighted_sum(np.full(2, lam), oracles.block_terms(lambda k: ts**k))
        np.testing.assert_allclose(got, np.exp(lam * (ts - 1.0)), rtol=1e-11)

    def test_relative_accuracy_for_tiny_sums(self):
        # terms shrink like e^{-9k}; the sum is ~1e-5 times the largest weight
        lam = 30.0
        (got,), _ = poisson_weighted_sum(
            lam, oracles.block_terms(lambda k: np.array([math.exp(-0.5 * k)])))
        want = math.exp(lam * (math.exp(-0.5) - 1.0))
        assert got == pytest.approx(want, rel=1e-10)

    def test_truncation_raises(self, monkeypatch):
        # the budget is read when a series runs, and the closed form's
        # error names the rate and carries the mask of the failing entries
        monkeypatch.setattr(specfun, "TERMS_BASE", 16)
        monkeypatch.setattr(specfun, "TERMS_SLOPE", 0)
        p = RfParams(k_factor=1250.0, branches=4, avg_snr=1.0)
        with pytest.raises(ConvergenceError) as info:
            mrc_snr_cdf(np.array([0.0, 4.0, 8.0]), p)
        assert str(info.value) == (
            "Poisson-weighted series did not converge: rate=5000, steps=16, rel_tol=1e-10"
        )
        assert info.value.unconverged.tolist() == [False, True, True]

    def test_error_carries_its_mask(self):
        mask = np.array([False, True])
        exc = ConvergenceError("no luck", mask)
        assert str(exc) == "no luck" and exc.unconverged is mask
        assert ConvergenceError("no mask").unconverged is None

    @pytest.mark.parametrize("lam", [0.0, 0.3, 30.0, 400.0])
    def test_independent_entries_match_scalar_calls(self, lam, monkeypatch):
        # each entry stops where it stops alone, bit for bit, and is
        # flagged exactly where it runs out of terms alone; the entries'
        # rates differ, and the budget of 8 + sqrt(lam) steps leaves some
        # of them open
        monkeypatch.setattr(specfun, "TERMS_BASE", 8)
        monkeypatch.setattr(specfun, "TERMS_SLOPE", 1)
        ts = np.array([1e-30, 1e-3, 0.3, 0.7, 1.0, 0.999])
        rates = lam * np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.5])
        got, unconverged = poisson_weighted_sum(rates, oracles.block_terms(lambda k: ts**k))
        assert got.shape == unconverged.shape == ts.shape
        for i, (value, flagged) in enumerate(zip(got, unconverged)):
            (want,), (alone,) = poisson_weighted_sum(
                rates[i:i + 1], oracles.block_terms(lambda k: ts[i:i + 1]**k))
            assert flagged == alone and value == want
            if lam == 400.0 and ts[i] > 0.5:  # the budget runs out here
                assert flagged

    def test_negative_rate_is_refused(self):
        with pytest.raises(ValueError, match="rate must be >= 0"):
            poisson_weighted_sum(-1e-300, oracles.block_terms(lambda k: np.ones(1)))

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_is_refused(self, lam):
        # refused by its own check, before a term is asked for, and not as
        # an error of turning the rate into a start order
        def unasked(k):
            raise AssertionError("a term was asked for")

        with pytest.raises(ValueError, match=f"^Poisson rate must be >= 0 and finite, got {lam}$"):
            poisson_weighted_sum(lam, unasked)

    def test_unconverged_entries_are_flagged(self, monkeypatch):
        monkeypatch.setattr(specfun, "TERMS_BASE", 16)
        monkeypatch.setattr(specfun, "TERMS_SLOPE", 0)
        got, unconverged = poisson_weighted_sum(np.full(3, 5000.0),
                                                oracles.block_terms(lambda k: np.ones(3)))
        assert unconverged.tolist() == [True, True, True]
        assert np.all((got > 0.0) & (got < 1.0))  # partial sums

    @pytest.mark.parametrize("walk", [lambda: GammaTerms(4, GAMMA_YS),
                                      lambda: BetaTerms(4, BETA_WS)], ids=["gamma", "beta"])
    def test_a_walk_sums_the_same_through_a_wrapper(self, walk):
        # a plain function of one argument around the walk, as a tracer
        # that counts the calls of `term` puts there, gets the sums bit for
        # bit, and is called once per pass, with the rates
        rates = np.linspace(0.0, 400.0, 25)
        want = poisson_weighted_sum(rates, walk())
        inner, calls = walk(), []

        def wrapped(lam):
            calls.append(lam)
            return inner(lam)

        got = poisson_weighted_sum(rates, wrapped)
        assert len(calls) == 1 and calls[0].tolist() == rates.tolist()
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("walk, args", [(GammaTerms, np.geomspace(1e-2, 1e3, 9)),
                                            (BetaTerms, np.linspace(0.01, 0.99, 9))],
                             ids=["gamma", "beta"])
    def test_one_order_blocks_at_an_integer_rate(self, walk, args):
        # past _BLOCK_ELEMENTS entries an anchor's series sums one order
        # per block, while the walk's blocks keep their _WALK_ORDERS orders,
        # so the right anchors sit where they sit alone; each entry is its
        # lone call's
        x = np.tile(args, specfun._BLOCK_ELEMENTS // args.size + 1)
        assert specfun._block_len(x.size) == 1
        got, unconverged = poisson_weighted_sum(np.full(x.size, 40.0), walk(2, x))
        for i in range(args.size):
            (want,), (flagged,) = poisson_weighted_sum(np.array([40.0]), walk(2, args[i:i + 1]))
            assert got[i::args.size].tobytes() == np.full(x.size // args.size, want).tobytes()
            assert not flagged and not unconverged[i::args.size].any()

    def test_rate_past_the_float_integers_is_flagged(self):
        # past 2**53, where j + 1 rounds to the rate, `covers` refuses the
        # rate, so an entry takes no step and is flagged at once
        _, unconverged = poisson_weighted_sum(np.full(2, 1e17),
                                              oracles.block_terms(lambda k: np.ones(2)))
        assert unconverged.tolist() == [True, True]


# Rates where the fixed 512-term budget of the mode-anchored series once
# crossed between covering and refusing (the weight pois(floor(lam) + 512;
# lam) against 2e-10), now all far below the cap
OLD_CROSSINGS = [7549.984859638253, 7575.167261901771, 7580.010187196885]

# Where the all-ones weight pois(floor(lam) + MAX_STEPS + 1; lam) crosses
# REL_TOL at the default budget: the last covered rate of the first and of
# the last crossing; the next float up is refused.  The weight rises in lam
# between integers and drops where floor(lam) steps, so between the two
# crossings the covered rates alternate with the refused ones.
CROSSINGS = [1189267.999904181, 1189678.0007729116]


class TestCovers:
    @pytest.mark.parametrize("lam", OLD_CROSSINGS)
    def test_one_float_on_each_side_of_a_crossing(self, lam):
        # both floats are covered now, and both closed forms converge there
        rates = [lam, math.nextafter(lam, math.inf)]
        assert all(specfun.covers(rate) for rate in rates)
        params = [RfParams(k_factor=rate, branches=1, avg_snr=10.0) for rate in rates]
        assert np.all(mrc_cdf_batch([1e4, 1e4], params) > 0.0)
        assert np.all(rf_avg_ber_batch(params) > 0.0)

    @pytest.mark.parametrize("lam", CROSSINGS)
    def test_one_float_on_each_side_of_the_cap(self, lam):
        above = math.nextafter(lam, math.inf)
        assert specfun.covers(lam) and not specfun.covers(above)
        # the crossing is the weight's own, not a rounding artefact of it
        for rate in (lam, above):
            assert float(oracles.pois_mp(int(rate) + specfun.MAX_STEPS + 1, rate)) == pytest.approx(
                specfun.REL_TOL, rel=1e-11)
        rates = np.array([0.0, lam, above, -1e-300, math.nan])
        assert specfun.covers(rates).tolist() == [True, True, False, False, False]

    def test_covered_up_to_the_first_crossing(self):
        lams = np.concatenate([[0.0, 1e-300, 0.5], np.linspace(1.0, CROSSINGS[0], 500)])
        assert all(specfun.covers(lam) for lam in lams)

    def test_refused_past_the_last_crossing(self):
        lams = np.linspace(math.nextafter(CROSSINGS[-1], math.inf), 1e8, 500)
        assert not any(specfun.covers(lam) for lam in lams)

    @pytest.mark.parametrize("lam", [math.nextafter(2.0**53, 0.0), 2.0**53, 1e300, math.inf])
    def test_refused_at_and_past_the_float_integers(self, lam):
        assert specfun.covers(lam) is False

    @pytest.mark.parametrize("lam", [*OLD_CROSSINGS, *(math.nextafter(c, math.inf) for c in OLD_CROSSINGS),
                                     math.nextafter(2.0**53, 0.0), 2.0**53, math.inf])
    def test_mixture_refuses_exactly_the_uncovered_rates(self, lam):
        # `rf_channel._mixture` builds the terms of its one pass over the
        # entries whose rates the rule covers, and flags the others as
        # unconverged, unbuilt
        built = []

        def terms(m, x):
            built.append(m.tolist())
            return oracles.block_terms(lambda j: np.ones(x.shape))

        k, m = np.array([lam, 1.0]), np.array([1, 2])
        if specfun.covers(lam):
            got = rf_channel._mixture(k, m, np.ones(2), terms)
            assert built == [[1, 2]] and got == pytest.approx(1.0, rel=1e-15)
            return
        with pytest.raises(ConvergenceError) as info:
            rf_channel._mixture(k, m, np.ones(2), terms)
        assert built == [[2]]
        assert str(info.value) == ("Poisson-weighted series did not converge: "
                                   f"rate={lam:g}, steps=6000, rel_tol=1e-10")
        assert info.value.unconverged.tolist() == [True, False]


def _at(walk, j):
    """walk(lam) with its start moved to the order j for every entry:
    (j0, T(j0), right, left)."""
    entries = (walk._y if isinstance(walk, GammaTerms) else walk._w).size
    walk._start = lambda lam: np.full(entries, float(j))
    return walk(np.zeros(entries))


def _walked(walk, j, steps):
    """The values walk(j) gives at its anchor order a0 and `steps` orders
    out on each side: T(a0), T(a0 + 1), ..., T(a0 + steps), then T(a0 - 1),
    ..., T(a0 - steps)."""
    _, value, right, left = _at(walk, j)
    right, left = oracles.rows(right), oracles.rows(left)
    return [value] + [next(right) for _ in range(steps)] + [next(left) for _ in range(steps)]


# measured worst over these tests: 1.9e-13 relative at the anchors,
# 1.5e-13 on the left walk, 4.3e-14 of P(a0) on the right walk
GAMMA_REL = 5e-13
GAMMA_YS = np.geomspace(1e-3, 1e3, 25)


def check_right_anchors(walk, j, want):
    """The entries whose values the right side of walk, started at j,
    takes from an anchor at each block's far order, block by block."""
    anchored, value = [], walk._value
    _, _, right, _ = _at(walk, j)
    walk._value = lambda a, live: (anchored.append(live.tolist()), value(a, live))[1]
    for _ in want:
        next(right)
    assert anchored == want


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
        self.check_relative(_at(GammaTerms(a, GAMMA_YS), 0)[1], a)

    @pytest.mark.parametrize("a0", [1, 30, 204, 700, 1200])
    def test_walk(self, a0):
        # the anchor, then the rows of both sides outward; the values of
        # both sides keep relative accuracy, each right block past y being
        # anchored at its far order and each other one stepping from its
        # inner order by subtraction
        _, anchor, right, left = _at(GammaTerms(1, GAMMA_YS), a0 - 1)
        right, left = oracles.rows(right), oracles.rows(left)
        lo = hi = a0
        for step in range(300):
            hi += 1
            value = next(right)
            assert np.all(value >= 0.0), hi
            if step % 9 == 0 or step % 16 == 15:
                self.check_relative(value, hi)
            if lo > 1:
                lo -= 1
                value = next(left)
                if step % 9 == 0 or lo == 1:
                    self.check_relative(value, lo)

    def test_underflowing_anchor(self):
        # the last point of a 600-point K = 17 dB, M = 4 sweep: the anchor
        # P(204, y) ~ 1e-648 is 0 in floats, the orders the walk reaches on
        # its left are not
        k = 10.0**1.7
        y = np.array([(k + 1.0) * 1.0 / 1000.0])
        _, anchor, _, left = _at(GammaTerms(4, y), 200)
        assert anchor[0] == 0.0
        for a, value in zip(range(203, 3, -1), oracles.rows(left)):
            got = value[0]
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
        lones = [_walked(GammaTerms(3, ys[i:i + 1]), 47, 2) for i in range(ys.size)]
        for n, got in enumerate(_walked(GammaTerms(3, ys), 47, 2)):
            assert got.tolist() == [lone[n][0] for lone in lones]

    def test_saturates_above_the_float_range(self):
        assert _at(GammaTerms(3, np.array([np.inf, 1e308])), 5)[1].tolist() == [1.0, 1.0]

    def test_right_anchors_only_past_the_mean(self):
        # from a0 = 51, the right blocks' far orders are 59, 67, ..., 99,
        # 107: an entry at y = 100 is anchored from the seventh block on,
        # one at y = 5 in every block
        check_right_anchors(GammaTerms(1, np.array([100.0, 5.0])), 50, [[1]] * 6 + [[0, 1]] * 2)


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
        self.check_relative(_at(BetaTerms(a, BETA_WS), 0)[1], a)

    @pytest.mark.parametrize("a0", [1, 30, 204, 700, 1200])
    def test_walk(self, a0):
        # as GammaTerms' walk: the values of both sides keep relative
        # accuracy
        _, anchor, right, left = _at(BetaTerms(1, BETA_WS), a0 - 1)
        right, left = oracles.rows(right), oracles.rows(left)
        lo = hi = a0
        for step in range(300):
            hi += 1
            value = next(right)
            assert np.all(value >= 0.0), hi
            if step % 9 == 0 or step % 16 == 15:
                self.check_relative(value, hi)
            if lo > 1:
                lo -= 1
                value = next(left)
                if step % 9 == 0 or lo == 1:
                    self.check_relative(value, lo)

    def test_underflowing_anchor(self):
        # I_w(208, 1/2) ~ 1e-416 is 0 in floats; the orders the walk
        # reaches on its left are not
        w = np.array([0.01])
        _, anchor, _, left = _at(BetaTerms(4, w), 204)
        assert anchor[0] == 0.0
        for a, value in zip(range(207, 3, -1), oracles.rows(left)):
            got = value[0]
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
        lones = [_walked(BetaTerms(3, ws[i:i + 1]), 44, 2) for i in range(ws.size)]
        for n, got in enumerate(_walked(BetaTerms(3, ws), 44, 2)):
            assert got.tolist() == [lone[n][0] for lone in lones]

    def test_right_anchors_only_past_the_mean(self):
        # the counts' means at w = 0.99 and 0.5 are 49.5 and 0.5; from
        # a0 = 11 the right blocks' far orders are 19, 27, ..., 51
        check_right_anchors(BetaTerms(1, np.array([0.99, 0.5])), 10, [[1]] * 4 + [[0, 1]] * 2)

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
        for value in _walked(BetaTerms(1, np.array([0.0, 1.0])), 3, 2):
            assert value.tolist() == [0.0, 1.0]


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
        rows = specfun._pois(np.array(orders, dtype=float)[:, None], ys)
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


def _terms_summed(y):
    """The terms `_series` sums for e^y: up to the first term t with
    t <= eps S (1 - r), r = y/n its ratio and S the sum before it."""
    n, term, total = 1, 1.0, 1.0
    while term * (y / n) > 2.0**-53 * total * (1.0 - y / n):
        term *= y / n
        total += term
        n += 1
    return n


class TestSeries:
    """`_series`, the one positive-series loop (`_anchor`, `upper_gamma`)."""

    def test_sums_the_exponential(self):
        # ratios y/n, at most 1/2 from n = 2 y <= 80 on: each term summed
        # carries a rounding of its product and one of its addition
        # (measured worst 0.3 ulp per term)
        ys = np.linspace(0.0, 40.0, 401)
        got = specfun._series(lambda ns, y: y / ns, 80.0, ys)
        for y, value in zip(ys, got):
            want = oracles.exp_mp(y)
            assert value == pytest.approx(want, rel=2.0 * 2.0**-53 * _terms_summed(y), abs=0.0), y

    def test_entries_equal_lone_calls(self):
        # more entries than one block of 64 orders holds, so the shuffled
        # call sums in shorter blocks than the lone calls
        q = np.repeat([0.0, 0.25, 0.5], 100)
        y = np.tile(np.linspace(0.0, 40.0, 100), 3)
        order = np.random.default_rng(13).permutation(q.size)
        q, y = q[order], y[order]

        def ratios(ns, q, y):
            return y / (q + ns)  # at most 1/2 from n = 80 on

        got = specfun._series(ratios, 80.0, q, y)
        for i in range(q.size):
            assert got[i] == specfun._series(ratios, 80.0, q[i:i + 1], y[i:i + 1])[0], (q[i], y[i])


# Series budgets (TERMS_BASE, TERMS_SLOPE): the default, and two whose
# ends fall inside the walk's blocks
BUDGETS = [(64, 20), (8, 1), (4, 0)]


def _outcome(fn, *args):
    """The bytes of fn(*args), or the text and mask of its ConvergenceError."""
    try:
        return np.asarray(fn(*args)).tobytes()
    except ConvergenceError as exc:
        return str(exc), exc.unconverged.tolist()


def _stepwise_outcome(fn, *args):
    """`_outcome` with the radio series summed one order per step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rf_channel, "poisson_weighted_sum", oracles.step_weighted_sum)
        return _outcome(fn, *args)


_FADING = st.tuples(st.one_of(st.none(), st.floats(-10.0, 25.0)), st.integers(1, 8))
# average SNR and threshold in dB, out to where the anchors underflow
_POINTS = st.lists(st.tuples(st.floats(-10.0, 300.0), st.floats(-300.0, 30.0)),
                   min_size=1, max_size=12)


class TestBlockWalk:
    """The walk computes its values a block of orders at a time, and the sum
    its weights and bounds; what they return is the one-order-per-step
    sum's (`oracles.step_weighted_sum`), bit for bit."""

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
            mp.setattr(specfun, "TERMS_BASE", budget[0])
            mp.setattr(specfun, "TERMS_SLOPE", budget[1])
            for fn, args in ((mrc_cdf_batch, (gammas, params)), (rf_avg_ber_batch, (params,))):
                assert _outcome(fn, *args) == _stepwise_outcome(fn, *args), fn.__name__

    def test_anchor_below_the_float_range_warns_nothing(self):
        # y < a, so only the direct series' ratios y/(a + n) are formed; the
        # complement's (a - n)/y would overflow here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _at(GammaTerms(2, np.array([1e-310, 1.0])), 2)[1][0] == 0.0

    @pytest.mark.parametrize("a", [1, 2, 3, 16, 47, 204, 1200])
    def test_anchor_equals_the_stepwise_series(self, a):
        # the block series of `_anchor` is the one-term-per-step series of
        # `oracles.step_anchor` bit for bit, at one order and at an order
        # per entry, on both sides of the switch to the complement
        ys = np.concatenate([GAMMA_YS, a + np.linspace(-21.0, 21.0, 41).clip(-a + 1e-3)])
        orders = a + np.arange(ys.size) % 5
        for order in (np.full(ys.shape, float(a)), orders):
            assert specfun._anchor(order, ys).tobytes() == oracles.step_anchor(order, ys).tobytes()


class TestNaN:
    """A NaN argument raises at every public series entry point, where an
    anchor's series would never stop on it, and at both loops' callers."""

    @pytest.mark.parametrize("walk", [GammaTerms, BetaTerms])
    def test_term_walks(self, walk):
        with pytest.raises(ValueError, match="^snr values must be >= 0$"):
            walk(2, np.array([0.5, np.nan]))

    def test_sum(self):
        with pytest.raises(ValueError, match="^snr values must be >= 0$"):
            poisson_weighted_sum(3.0, GammaTerms(2, np.array([np.nan])))
        with pytest.raises(ValueError, match="^Poisson rate must be >= 0 and finite, got nan$"):
            poisson_weighted_sum(np.array([1.0, np.nan]), GammaTerms(2, np.ones(2)))

    def test_closed_forms(self):
        with pytest.raises(ValueError, match="^snr values must be >= 0$"):
            mrc_snr_cdf(np.array([1.0, np.nan]), RfParams(1.0, 2, 1.0))
        with pytest.raises(ValueError, match="^snr values must be >= 0$"):
            mrc_cdf_batch([np.nan], [RfParams(1.0, 2, 1.0)])
        with pytest.raises(ValueError, match="avg_snr must be finite"):
            rf_avg_ber_batch([RfParams(1.0, 2, np.nan)])

    def test_positive_series_ends(self):
        # the CDF anchor's series (`_series`) on a NaN argument or order:
        # its stop test is never true, and its cap ends it
        with pytest.raises(ConvergenceError, match="^a positive series is still open after 128 terms$"):
            specfun._anchor(np.array([3.0, 3.0]), np.array([np.nan, 2.0]))
        with pytest.raises(ConvergenceError, match="^a positive series is still open after 0 terms$"):
            specfun._anchor(np.array([np.nan, 3.0]), np.array([2.0, 2.0]))

    @pytest.mark.parametrize("call", [
        lambda: upper_gamma(0.3, np.nan),
        lambda: upper_gamma(np.nan, 0.5),
        lambda: upper_gamma(np.array([0.3, 0.3]), np.array([5.0, np.nan])),
        lambda: specfun._beta_anchor(np.array([3.0, 3.0]), np.array([np.nan, 0.5]), np.ones(2)),
        lambda: specfun._beta_anchor(np.array([3.0, 3.0]), np.array([0.99, np.nan]), np.ones(2)),
    ], ids=["gamma-g", "gamma-q", "gamma-array", "beta-direct", "beta-complement"])
    def test_continued_fractions_end(self, call):
        # both continued fractions (`_lentz`) keep a NaN entry open, and
        # their cap ends it, where it used to return NaN at once
        with pytest.raises(ConvergenceError, match="^a continued fraction is still open after 256 iterations$"):
            call()


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

    def test_array_entries_equal_lone_calls(self):
        # one call over both sides of the switch at g = q + 1, at several q,
        # the entries shuffled so that each side's run is interleaved
        qs = np.repeat([1.0 / 6.0 + 1e-12, 0.25, 0.4, 0.5 - 1e-12], 9)
        gs = qs + 1.0 + np.tile([-1.0, -0.5, -1e-9, 0.0, 1e-9, 0.5, 5.0, 100.0, 700.0], 4)
        order = np.random.default_rng(5).permutation(qs.size)
        q, g = qs[order], gs[order]
        lone = [upper_gamma(float(a), float(b)) for a, b in zip(q, g)]
        assert upper_gamma(q, g).tolist() == lone
        assert upper_gamma(q.reshape(4, 9), g.reshape(4, 9)).ravel().tolist() == lone
        assert upper_gamma(0.25, g).tolist() == [upper_gamma(0.25, float(b)) for b in g]


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
