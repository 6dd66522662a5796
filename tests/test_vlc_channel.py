import math

import numpy as np
import pytest
from scipy import integrate, stats

import oracles
from rfvlc.vlc_channel import (
    VlcDerived,
    VlcParams,
    channel_gain,
    derive,
    lambertian_order,
    sample_vlc_snr,
    vlc_avg_ber,
    vlc_snr_cdf,
    vlc_snr_pdf,
)


def cell(**kw):
    """Reference optical cell; override any field per test."""
    base = dict(
        semi_angle=60.0,
        height=2.0,
        area=1e-4,
        fov=60.0,
        refractive_index=1.5,
        filter_gain=1.0,
        responsivity=0.4,
        conv_efficiency=0.8,
        noise_psd=1e-21,
        bandwidth=2e7,
        optical_power=1.0,
    )
    base.update(kw)
    return VlcParams(**base)


def random_cell(rng):
    return VlcParams(
        semi_angle=rng.uniform(15.0, 80.0),
        height=rng.uniform(1.5, 4.0),
        area=rng.uniform(5e-5, 2e-4),
        fov=rng.uniform(40.0, 90.0),
        refractive_index=rng.uniform(1.0, 2.0),
        filter_gain=rng.uniform(0.5, 1.0),
        responsivity=rng.uniform(0.2, 0.8),
        conv_efficiency=rng.uniform(0.4, 1.0),
        noise_psd=10.0 ** rng.uniform(-22, -20),
        bandwidth=rng.uniform(1e7, 5e7),
        optical_power=rng.uniform(0.05, 2.0),
    )


class TestParams:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(semi_angle=0.0),
            dict(semi_angle=90.0),
            dict(semi_angle=-10.0),
            dict(fov=0.0),
            dict(fov=120.0),
            dict(refractive_index=0.9),
            dict(height=0.0),
            dict(area=-1e-4),
            dict(filter_gain=0.0),
            dict(responsivity=0.0),
            dict(conv_efficiency=0.0),
            dict(noise_psd=0.0),
            dict(bandwidth=0.0),
            dict(optical_power=0.0),
            dict(optical_power=math.nan, height=math.nan),
            dict(semi_angle=1e-9),
        ],
    )
    def test_rejects_invalid(self, kw):
        with pytest.raises(ValueError):
            cell(**kw)

    @pytest.mark.parametrize("field,value", [("refractive_index", math.nan),
                                             ("refractive_index", math.inf),
                                             ("optical_power", math.nan),
                                             ("optical_power", math.inf)])
    def test_rejects_non_finite(self, field, value):
        # refused by the field's own rule, which names it, not later by derive
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            cell(**{field: value})

    def test_power_exclusivity(self):
        with pytest.raises(ValueError):
            cell(optical_power=None)  # no power at all


class TestCheckSnrScale:
    """The float-range rules that derive applies when VlcParams is built."""

    # height ** (m + 1) overflows, underflows to 0; upsilon ** 2 overflows;
    # mu_vlc * upsilon ** 2 overflows; the squared power overflows; the
    # concentrator's sin(fov)^2 and the noise variance underflow to 0
    @pytest.mark.parametrize(
        "kw",
        [
            dict(semi_angle=1.0),
            dict(semi_angle=1.0, height=0.5),
            dict(semi_angle=2.5),
            dict(semi_angle=3.0),
            dict(optical_power=1e200),
            dict(fov=1e-200),
            dict(noise_psd=1e-200, bandwidth=1e-200),
        ],
    )
    def test_rejects_scale_outside_float_range(self, kw):
        # construction runs the rule
        with pytest.raises(ValueError, match="mu_vlc \\* upsilon\\^2 = (inf|0) is not"):
            cell(**kw)

    # the scale is finite, but height ** (m + 3) overflows (2.11 degrees)
    # or underflows to 0 (1e-160 m) in the channel gain, or the SNR at the
    # cell edge underflows to 0 (the closed-form BER divided by it), or the
    # SNR under the emitter overflows (Gamma(q, inf) and the Monte Carlo
    # multiply would be NaN and overflow)
    @pytest.mark.parametrize(
        "kw",
        [
            dict(semi_angle=2.11, area=1e-200),
            dict(height=1e-160, area=1e300),
            dict(height=1.5e37, area=1e-144),
            dict(height=0.5, area=1e148),
        ],
    )
    def test_rejects_snr_outside_float_range(self, kw):
        with pytest.raises(ValueError) as ei:
            cell(**kw)
        msg = str(ei.value)
        assert msg.startswith("the optical SNR mu_vlc * (upsilon / D ** (m + 3))^2 "
                              "cannot be evaluated as a float > 0")
        assert "= inf" not in msg

    @pytest.mark.parametrize("angle,height", [(3.5, 2.0), (60.0, 2.0), (1.0, 1.0), (5.0, 0.5)])
    def test_accepts_representable_scale(self, angle, height):
        d = derive(cell(semi_angle=angle, height=height))
        assert 0.0 < d.mu_vlc * d.upsilon**2 < math.inf
        assert 0.0 < d.snr_min < d.snr_max < math.inf


class TestLambertianOrder:
    def test_half_power_at_sixty_degrees(self):
        # cos 60 = 1/2 makes the mode number exactly 1
        assert lambertian_order(60.0) == pytest.approx(1.0, abs=1e-12)

    def test_spot_value(self):
        # frozen: -ln 2 / ln cos(70 deg)
        assert lambertian_order(70.0) == pytest.approx(0.646058770348734, rel=1e-12)

    def test_monotone_decreasing(self):
        vals = [lambertian_order(a) for a in [20.0, 35.0, 50.0, 65.0, 80.0]]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            lambertian_order(0.0)
        with pytest.raises(ValueError):
            lambertian_order(90.0)
        # cos(1e-9 degrees) rounds to 1: the order would divide by log 1 = 0
        with pytest.raises(ValueError, match="too small"):
            lambertian_order(1e-9)


class TestDerive:
    def test_reference_cell_frozen_values(self):
        d = derive(cell())
        assert d.lambert_order == pytest.approx(1.0, abs=1e-12)
        assert d.cell_radius == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-13, abs=0.0)
        assert d.concentrator == pytest.approx(3.0, rel=1e-13, abs=0.0)
        assert d.upsilon == pytest.approx(0.00015278874536821957, rel=1e-12, abs=0.0)
        assert d.gain_max == pytest.approx(9.549296585513723e-06, rel=1e-12, abs=0.0)
        assert d.gain_min == pytest.approx(5.968310365946082e-07, rel=1e-12, abs=0.0)
        assert d.mu_vlc == pytest.approx(3.2e13, rel=1e-12, abs=0.0)
        assert d.noise_var == pytest.approx(2e-14, rel=1e-13, abs=0.0)
        assert d.snr_min == pytest.approx(11.39863315976303, rel=1e-11, abs=0.0)
        assert d.snr_max == pytest.approx(2918.0500888993306, rel=1e-11, abs=0.0)

    def test_concentrator_formula(self):
        # n^2 / sin^2(fov)
        d = derive(cell(fov=45.0, refractive_index=1.4))
        assert d.concentrator == pytest.approx(1.4**2 / math.sin(math.radians(45.0)) ** 2, rel=1e-13)

    def test_snr_ratio_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = random_cell(rng)
            d = derive(p)
            want = ((d.cell_radius**2 + d.height**2) / d.height**2) ** (d.lambert_order + 3.0)
            assert d.snr_max / d.snr_min == pytest.approx(want, rel=1e-11)

    def test_snr_scales_with_power_squared(self):
        lo, hi = derive(cell(optical_power=0.5)), derive(cell(optical_power=2.0))
        assert hi.snr_min / lo.snr_min == pytest.approx(16.0, rel=1e-12)
        assert hi.snr_max / lo.snr_max == pytest.approx(16.0, rel=1e-12)
        assert hi.gain_max == lo.gain_max  # geometry alone


class TestChannelGain:
    def test_endpoints_match_derived(self):
        p = cell()
        d = derive(p)
        assert channel_gain(0.0, d) == pytest.approx(d.gain_max, rel=1e-13, abs=0.0)
        assert channel_gain(d.cell_radius, d) == pytest.approx(d.gain_min, rel=1e-13, abs=0.0)

    def test_matches_unreduced_geometry(self):
        # textbook Lambertian LOS gain, coded from scratch
        rng = np.random.default_rng(11)
        for _ in range(8):
            p = random_cell(rng)
            d = derive(p)
            r = rng.uniform(0.0, d.cell_radius)
            dist = math.hypot(r, p.height)
            cos_t = p.height / dist
            m = d.lambert_order
            want = (
                p.area * (m + 1.0) * p.responsivity / (2.0 * math.pi * dist * dist)
                * cos_t**m * p.filter_gain * d.concentrator * cos_t
            )
            assert channel_gain(r, d) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_monotone_decreasing_in_radius(self):
        d = derive(cell())
        g = channel_gain(np.linspace(0.0, d.cell_radius, 50), d)
        assert np.all(np.diff(g) < 0.0)

    def test_domain(self):
        d = derive(cell())
        with pytest.raises(ValueError):
            channel_gain(-0.1, d)
        with pytest.raises(ValueError):
            channel_gain(d.cell_radius * 1.01, d)
        with pytest.raises(ValueError):
            channel_gain(math.nan, d)
        with pytest.raises(ValueError):
            channel_gain(np.array([0.0, math.nan]), d)


class TestSnrPdf:
    def test_zero_outside_support(self):
        d = derive(cell())
        g = np.array([0.0, d.snr_min * 0.999, d.snr_max * 1.001, d.snr_max * 10])
        np.testing.assert_array_equal(vlc_snr_pdf(g, d), 0.0)

    def test_matches_geometry_route_inside(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            d = derive(random_cell(rng))
            g = np.geomspace(d.snr_min * 1.001, d.snr_max * 0.999, 40)
            np.testing.assert_allclose(vlc_snr_pdf(g, d), oracles.vlc_pdf_ref(g, d), rtol=1e-11)

    def test_normalizes(self):
        d = derive(cell())
        val, err = integrate.quad(
            lambda g: vlc_snr_pdf(g, d), d.snr_min, d.snr_max, limit=400, epsabs=1e-13, epsrel=1e-11
        )
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_decreasing_power_law(self):
        d = derive(cell())
        g = np.geomspace(d.snr_min * 1.01, d.snr_max * 0.99, 30)
        f = vlc_snr_pdf(g, d)
        assert np.all(np.diff(f) < 0.0)


class TestSnrCdf:
    def test_endpoint_identities_random_cells(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = derive(random_cell(rng))
            assert abs(vlc_snr_cdf(d.snr_min, d)) <= 1e-12
            assert abs(vlc_snr_cdf(d.snr_max, d) - 1.0) <= 1e-12

    def test_clamps_outside_support(self):
        d = derive(cell())
        out = vlc_snr_cdf(np.array([0.0, d.snr_min / 2, d.snr_max * 2, 1e30]), d)
        np.testing.assert_array_equal(out, [0.0, 0.0, 1.0, 1.0])
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_matches_pdf_integration(self):
        d = derive(cell())
        grid = np.geomspace(d.snr_min, d.snr_max, 12)
        acc = 0.0
        for lo, hi in zip(grid[:-1], grid[1:]):
            piece, _ = integrate.quad(lambda g: vlc_snr_pdf(g, d), lo, hi, epsabs=1e-14, epsrel=1e-12)
            acc += piece
            assert vlc_snr_cdf(hi, d) == pytest.approx(acc, abs=1e-9)

    def test_derivative_matches_pdf(self):
        d = derive(cell())
        for g in np.geomspace(d.snr_min * 1.5, d.snr_max * 0.7, 6):
            h = g * 1e-6
            num = (vlc_snr_cdf(g + h, d) - vlc_snr_cdf(g - h, d)) / (2 * h)
            assert num == pytest.approx(vlc_snr_pdf(g, d), rel=1e-5)

    def test_monotone(self):
        d = derive(cell())
        f = vlc_snr_cdf(np.geomspace(d.snr_min, d.snr_max, 200), d)
        assert np.all(np.diff(f) >= 0.0)


class TestSampling:
    def test_reproducible_and_bounded(self):
        p = cell()
        d = derive(p)
        a = sample_vlc_snr(d, np.random.default_rng(3), size=10_000)
        b = sample_vlc_snr(d, np.random.default_rng(3), size=10_000)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= d.snr_min * (1.0 - 1e-12)
        assert a.max() <= d.snr_max * (1.0 + 1e-12)

    def test_scalar_and_shape(self):
        d = derive(cell())
        one = sample_vlc_snr(d, np.random.default_rng(5))
        assert isinstance(one, float)
        assert one == sample_vlc_snr(d, np.random.default_rng(5), size=1)[0]
        grid = sample_vlc_snr(d, np.random.default_rng(5), size=(2, 3))
        assert grid.shape == (2, 3)
        np.testing.assert_array_equal(grid.ravel(), sample_vlc_snr(d, np.random.default_rng(5), size=6))

    @pytest.mark.parametrize("size, shape", [
        (None, ()), (6, (6,)), (np.int64(6), (6,)), ((2, 3), (2, 3)), ([2, 3], (2, 3)),
        (np.array([2, 3]), (2, 3)),
    ], ids=["none", "int", "numpy-int", "tuple", "list", "array"])
    def test_size_as_numpy_takes_it(self, size, shape):
        # the draws of a shape are the same whichever way it is given
        d = derive(cell())
        draws = sample_vlc_snr(d, np.random.default_rng(11), size=size)
        assert np.shape(draws) == shape
        same = sample_vlc_snr(d, np.random.default_rng(11), size=shape)
        np.testing.assert_array_equal(draws, same)

    def test_distribution_ks(self):
        d = derive(cell())
        draws = sample_vlc_snr(d, np.random.default_rng(77), size=1_000_000)
        stat = stats.kstest(draws, lambda x: vlc_snr_cdf(x, d)).statistic
        assert stat < 0.002  # alpha ~ 1e-3 critical value at n=1e6


QUAD_POWERS = np.geomspace(0.003, 3.0, 7)


class TestAvgBer:
    # 10 and 80 degrees put q = (m+1)/(2m+6) near each end of (1/6, 1/2)
    @pytest.mark.parametrize("semi_angle", [10.0, 30.0, 45.0, 60.0, 80.0])
    @pytest.mark.parametrize("height", [2.0, 3.0])
    def test_matches_quadrature(self, semi_angle, height):
        # no absolute slack: a BER that underflows must be 0 on both sides
        for power in QUAD_POWERS:
            p = cell(semi_angle=semi_angle, height=height, optical_power=float(power))
            want = oracles.vlc_ber_quad(p)
            assert vlc_avg_ber(derive(p)) == pytest.approx(want, rel=2e-11, abs=0.0), \
                (semi_angle, height, power)

    # cells of the grid above whose lower SNR edge is 184 to 633: the BER
    # is so small there that an unscaled integrand ends mpmath's refinement
    # early, 4.5e-11 to 5.8e-11 relative off
    @pytest.mark.parametrize(
        "semi_angle,height,power",
        [(45.0, 2.0, QUAD_POWERS[5]), (30.0, 2.0, QUAD_POWERS[4]), (10.0, 2.0, QUAD_POWERS[2]),
         (45.0, 3.0, QUAD_POWERS[6]), (30.0, 3.0, QUAD_POWERS[5]), (10.0, 3.0, QUAD_POWERS[3])],
    )
    def test_quadrature_oracle_matches_the_closed_form(self, semi_angle, height, power):
        p = cell(semi_angle=semi_angle, height=height, optical_power=float(power))
        want = oracles.vlc_ber_closed_mp(derive(p))
        assert oracles.vlc_ber_quad(p) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("semi_angle", [5.0, 10.0, 30.0, 60.0, 80.0, 89.0])
    def test_evaluates_the_closed_form_to_working_precision(self, semi_angle):
        # from q near 1/6 (wide beams) to q near 1/2 (narrow ones), and
        # lower SNR edges up to the hundreds, where the two terms of h cancel
        # to (1/2 - q)/g of either: erfc must be taken from the SNR itself
        # there (measured worst 1.4e-11, at 5 degrees, 1 m, 2.6 mW)
        for height in (1.0, 3.0):
            for power in np.geomspace(1e-3, 30.0, 12):
                d = derive(cell(semi_angle=semi_angle, height=height, optical_power=float(power)))
                want = oracles.vlc_ber_closed_mp(d)
                got = vlc_avg_ber(d)
                if want >= 1e-300:
                    assert got == pytest.approx(want, rel=1e-10, abs=0.0), (height, power)
                else:
                    assert 0.0 <= got <= 1e-300, (height, power)

    @pytest.mark.parametrize("name,lo,hi", [("optical_power", 0.01, 50.0), ("height", 0.3, 8.0),
                                            ("semi_angle", 5.0, 89.0)])
    def test_never_negative(self, name, lo, hi):
        # where the cell-edge SNR is near log(DBL_MAX), both ends of h are
        # subnormal and their difference can lose its sign (at 0.25 W and
        # 22.25 degrees it is -1.98e-310); each scan crosses such cells
        vals = [vlc_avg_ber(derive(cell(**{"optical_power": 0.25, name: float(v)})))
                for v in np.linspace(lo, hi, 2001)]
        assert min(vals) >= 0.0

    def test_vanishing_power_approaches_half(self):
        val = vlc_avg_ber(derive(cell(optical_power=1e-9)))
        assert val == pytest.approx(0.5, abs=1e-6)
        assert val < 0.5

    def test_monotone_decreasing_in_power(self):
        vals = [vlc_avg_ber(derive(cell(optical_power=p))) for p in np.geomspace(0.01, 2.0, 12)]
        assert all(x > y > 0.0 for x, y in zip(vals, vals[1:]))

    def test_monotone_increasing_in_semi_angle(self):
        vals = [vlc_avg_ber(derive(cell(semi_angle=a))) for a in [30.0, 40.0, 50.0, 60.0, 70.0]]
        assert all(x < y for x, y in zip(vals, vals[1:]))


class TestCellArrays:
    """The closed forms over a `VlcDerived` whose fields are arrays over
    cells give each cell its lone call's value bit for bit."""

    # semi-angle, height and power vary; the low-power and wide-beam cells
    # have an edge SNR below q + 1, where Gamma(q, g) takes its series
    CELLS = [cell(), cell(optical_power=0.01), cell(semi_angle=80.0), cell(semi_angle=30.0),
             cell(height=4.0), cell(semi_angle=10.0, height=0.5, optical_power=5.0)]

    def test_entries_equal_lone_calls(self):
        lone = [derive(p) for p in self.CELLS]
        cells = VlcDerived(*np.array(lone).T)
        inside = np.sqrt(cells.snr_min * cells.snr_max)
        assert vlc_avg_ber(cells).tolist() == [vlc_avg_ber(d) for d in lone]
        assert vlc_snr_pdf(inside, cells).tolist() == [vlc_snr_pdf(g, d) for g, d in zip(inside, lone)]
        for g in (inside, 1.0, [0.1, 1.0, 10.0, 200.0, 1e3, 1e6]):
            want = [vlc_snr_cdf(x, d) for x, d in zip(np.broadcast_to(g, inside.shape), lone)]
            assert vlc_snr_cdf(g, cells).tolist() == want
