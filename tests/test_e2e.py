import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import ENVELOPE
from rfvlc.e2e import (
    SystemConfig,
    ber_batch,
    ber_floor,
    e2e_avg_ber,
    e2e_cdf,
    outage_batch,
    outage_floor,
    outage_probability,
)
from rfvlc.rf_channel import RfParams, mrc_snr_cdf, rf_avg_ber
from rfvlc.specfun import REL_TOL, ConvergenceError
from rfvlc.vlc_channel import VlcParams, derive, vlc_avg_ber, vlc_snr_cdf


def make_cfg(threshold=1.0, avg_snr=5.0, optical_power=0.25, branches=2, k_factor=3.162):
    rf = RfParams(k_factor=k_factor, branches=branches, avg_snr=avg_snr)
    vlc = VlcParams(
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
        optical_power=optical_power,
    )
    return SystemConfig(rf=rf, vlc=vlc, outage_threshold=threshold)


class TestSystemConfig:
    def test_rejects_bad_threshold(self):
        for bad in [0.0, -1.0, math.nan, math.inf]:
            with pytest.raises(ValueError):
                make_cfg(threshold=bad)


class TestE2eCdf:
    def test_series_combining_identity(self):
        # decode-and-forward link fails iff either hop is below threshold
        cfg = make_cfg()
        d = derive(cfg.vlc)
        g = np.geomspace(0.01, 300.0, 40)
        f1 = mrc_snr_cdf(g, cfg.rf)
        f2 = vlc_snr_cdf(g, d)
        want = 1.0 - (1.0 - f1) * (1.0 - f2)
        np.testing.assert_allclose(e2e_cdf(g, cfg), want, rtol=1e-12, atol=1e-15)

    def test_reduces_to_rf_below_optical_support(self):
        cfg = make_cfg()
        d = derive(cfg.vlc)
        g = d.snr_min * 0.5
        assert e2e_cdf(g, cfg) == mrc_snr_cdf(g, cfg.rf)

    def test_saturates_above_optical_support(self):
        cfg = make_cfg()
        d = derive(cfg.vlc)
        assert e2e_cdf(d.snr_max * 2.0, cfg) == 1.0

    def test_bounds_and_monotonicity(self):
        cfg = make_cfg()
        f = e2e_cdf(np.geomspace(1e-3, 1e4, 300), cfg)
        assert np.all((f >= 0.0) & (f <= 1.0))
        # monotone to machine rounding of the combining expression
        assert np.all(np.diff(f) >= -4e-16)

    def test_dominates_each_hop(self):
        # the weakest link can only make outage more likely
        cfg = make_cfg()
        d = derive(cfg.vlc)
        g = np.geomspace(0.1, 500.0, 30)
        f = e2e_cdf(g, cfg)
        assert np.all(f >= mrc_snr_cdf(g, cfg.rf) - 1e-15)
        assert np.all(f >= vlc_snr_cdf(g, d) - 1e-15)

    def test_empirical_minimum_distribution(self):
        # KS check against direct simulation of min(rf snr, optical snr)
        from scipy import stats

        import oracles
        from rfvlc.vlc_channel import sample_vlc_snr

        cfg = make_cfg()
        d = derive(cfg.vlc)
        n = 1_000_000
        g1 = oracles.mrc_rvs_ref(cfg.rf.k_factor, cfg.rf.branches, cfg.rf.avg_snr, n, seed=314)
        g2 = sample_vlc_snr(d, np.random.default_rng(159), size=n)
        stat = stats.kstest(np.minimum(g1, g2), lambda x: e2e_cdf(x, cfg)).statistic
        assert stat < 0.002


class TestOutage:
    def test_is_cdf_at_threshold(self):
        cfg = make_cfg(threshold=1.0)
        assert outage_probability(cfg) == e2e_cdf(1.0, cfg)

    def test_spot_value(self):
        # frozen: reference configuration, threshold 1
        assert outage_probability(make_cfg()) == pytest.approx(0.10969812690047864, rel=1e-11)

    def test_floor_is_optical_cdf_at_threshold(self):
        cfg = make_cfg()
        d = derive(cfg.vlc)
        assert outage_floor(cfg) == vlc_snr_cdf(cfg.outage_threshold, d)

    def test_outage_approaches_floor_at_high_radio_snr(self):
        cfg = make_cfg(avg_snr=1e6)
        floor = outage_floor(cfg)
        assert floor > 0.0
        assert outage_probability(cfg) == pytest.approx(floor, rel=1e-6)

    def test_outage_exceeds_floor(self):
        cfg = make_cfg(avg_snr=2.0)
        assert outage_probability(cfg) > outage_floor(cfg)

    def test_vanishes_with_threshold(self):
        # below the optical support only the radio tail contributes
        vals = [outage_probability(make_cfg(threshold=t)) for t in [1e-3, 1e-6, 1e-9]]
        assert vals[0] > vals[1] > vals[2] > 0.0
        assert vals[2] < 1e-17


class TestE2eBer:
    def test_combines_hop_error_rates(self):
        # error propagates unless both hops flip the same bit
        cfg = make_cfg()
        p1 = rf_avg_ber(cfg.rf)
        p2 = vlc_avg_ber(derive(cfg.vlc))
        want = p1 + p2 - 2.0 * p1 * p2
        assert e2e_avg_ber(cfg) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_spot_value(self):
        assert e2e_avg_ber(make_cfg()) == pytest.approx(0.02282710950834901, rel=1e-11)

    def test_floor_is_radio_ber(self):
        cfg = make_cfg()
        assert ber_floor(cfg) == rf_avg_ber(cfg.rf)

    def test_ber_approaches_floor_at_high_optical_power(self):
        cfg = make_cfg(optical_power=0.25 * 1e4)
        assert e2e_avg_ber(cfg) == pytest.approx(ber_floor(cfg), abs=1e-9, rel=1e-9)

    def test_ber_descends_to_floor_in_power_decades(self):
        floor = ber_floor(make_cfg())
        vals = [e2e_avg_ber(make_cfg(optical_power=0.0025 * 10.0**k)) for k in range(5)]
        # non-strict overall: the optical term underflows against the radio
        # floor once transmit power is high enough
        assert all(x >= y for x, y in zip(vals, vals[1:]))
        assert vals[0] > vals[1] > vals[2] > vals[3]
        assert all(v >= floor for v in vals)
        assert vals[-1] - floor < 1e-9

    def test_bounded_by_half(self):
        # a chain of two sub-half error rates stays below half
        for mu in [0.001, 0.1, 10.0]:
            cfg = make_cfg(avg_snr=mu, optical_power=0.01)
            assert 0.0 < e2e_avg_ber(cfg) < 0.5

    def test_monotone_in_radio_snr(self):
        vals = [e2e_avg_ber(make_cfg(avg_snr=mu)) for mu in np.geomspace(0.1, 100.0, 10)]
        assert all(x > y for x, y in zip(vals, vals[1:]))


def _lone_or_error(fn):
    try:
        return fn()
    except ConvergenceError as exc:
        return exc


class TestBatches:
    """`outage_batch` and `ber_batch` give every config its lone value and
    floor, or raise for the configs whose radio series fail."""

    # K, branches, radio SNR, optical power and threshold all vary, and two
    # configs repeat an optical cell and a fading group
    CONVERGING = [
        make_cfg(),
        make_cfg(threshold=0.1, avg_snr=50.0, optical_power=5.0, branches=1, k_factor=0.0),
        make_cfg(threshold=3.0, avg_snr=2.0, optical_power=0.01, branches=4, k_factor=50.0),
        make_cfg(threshold=1e-3, avg_snr=0.5, branches=3, k_factor=1.0),
        make_cfg(avg_snr=20.0, optical_power=5.0),
        make_cfg(threshold=2.0, avg_snr=1.0, optical_power=1.0, branches=1, k_factor=1000.0),
    ]

    def test_values_and_floors_match_lone_calls(self):
        cfgs = self.CONVERGING
        for batch, lone, floor in ((outage_batch, outage_probability, outage_floor),
                                   (ber_batch, e2e_avg_ber, ber_floor)):
            values, floors = batch(cfgs)
            assert values.tolist() == [lone(c) for c in cfgs]
            assert floors.tolist() == [floor(c) for c in cfgs]

    def test_optical_hop_matches_each_cell_alone(self):
        # distinct cells across semi-angle, height and power, one repeated,
        # some with a cell edge below q + 1 (Gamma(q, g) by its series)
        cells = [dict(), dict(optical_power=0.01), dict(semi_angle=80.0), dict(semi_angle=30.0),
                 dict(height=4.0), dict(height=3.0, optical_power=0.05),
                 dict(semi_angle=20.0, height=1.0, optical_power=2.0), dict()]
        thresholds = [1.0, 0.1, 3.0, 200.0, 1e-3, 1.0, 1e6, 5.0]
        base = make_cfg()
        cfgs = [base._replace(vlc=base.vlc._replace(**kw), outage_threshold=t)
                for kw, t in zip(cells, thresholds)]
        _, f_vlc = outage_batch(cfgs)
        assert f_vlc.tolist() == [vlc_snr_cdf(c.outage_threshold, derive(c.vlc)) for c in cfgs]
        values, p_rf = ber_batch(cfgs)
        p_vlc = [vlc_avg_ber(derive(c.vlc)) for c in cfgs]
        assert values.tolist() == [r + v - 2.0 * r * v for r, v in zip(p_rf.tolist(), p_vlc)]

    def test_empty_batches(self):
        # a sweep whose first grid point fails passes no configs
        for batch in (outage_batch, ber_batch):
            values, floors = batch([])
            assert values.shape == floors.shape == (0,)

    def test_failing_entries_raise_for_the_batch(self):
        # `covers` refuses rates 3e6 and 2e6, which fail both closed forms;
        # K = 20 dB with M = 4 (rate 400) converges.  The first failing
        # entry names its rate.
        cfgs = self.CONVERGING[:3] + [
            make_cfg(avg_snr=1.0, branches=1, k_factor=3e6),
            make_cfg(avg_snr=10.0, branches=4, k_factor=100.0),
            make_cfg(avg_snr=1000.0, branches=1, k_factor=2e6),
        ]
        for batch, lone, rate in ((outage_batch, outage_probability, "rate=3e[+]06,"),
                                  (ber_batch, e2e_avg_ber, "rate=3e[+]06,")):
            lones = [_lone_or_error(lambda: lone(c)) for c in cfgs]
            with pytest.raises(ConvergenceError, match=rate) as info:
                batch(cfgs)
            failed = [isinstance(v, ConvergenceError) for v in lones]
            assert info.value.unconverged.tolist() == failed
            assert str(info.value) == str(lones[failed.index(True)])


_SNR_DB = ENVELOPE["avg_snr_db"]
_LOG_THRESHOLD = tuple(math.log10(t) for t in ENVELOPE["outage_threshold"])
_BRANCHES = range(ENVELOPE["branches"][0], ENVELOPE["branches"][1] + 1)


class TestEnvelope:
    """Over `oracles.ENVELOPE`, at the reference optical cell, both closed
    forms converge, lie between their floor and their ceiling, and do not
    rise with the average radio SNR beyond the series' relative error; over
    its optical cells they move with the cell as its SNR law does."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        k_db=st.none() | st.floats(-20.0, ENVELOPE["k_factor_db_max"]),
        branches=st.integers(*ENVELOPE["branches"]),
        log_threshold=st.floats(*_LOG_THRESHOLD),
        snrs_db=st.lists(st.floats(*_SNR_DB), min_size=2, max_size=12, unique=True),
    )
    @example(k_db=ENVELOPE["k_factor_db_max"], branches=ENVELOPE["branches"][1],
             log_threshold=_LOG_THRESHOLD[0], snrs_db=list(np.linspace(*_SNR_DB, 51)))
    @example(k_db=None, branches=1, log_threshold=_LOG_THRESHOLD[1], snrs_db=list(_SNR_DB))
    def test_bounded_and_non_increasing_in_snr(self, k_db, branches, log_threshold, snrs_db):
        k = 0.0 if k_db is None else 10.0 ** (k_db / 10.0)
        cfgs = [make_cfg(threshold=10.0**log_threshold, avg_snr=10.0 ** (s / 10.0),
                         branches=branches, k_factor=k) for s in sorted(snrs_db)]
        # either batch raises ConvergenceError if any point runs out of terms
        for (values, floor), ceiling in ((outage_batch(cfgs), 1.0), (ber_batch(cfgs), 0.5)):
            assert np.all((floor <= values) & (values <= ceiling))
            assert np.all(np.diff(values) <= REL_TOL * values[:-1])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        k_db=st.none() | st.floats(-20.0, ENVELOPE["k_factor_db_max"]),
        branches=st.integers(*ENVELOPE["branches"]),
        log_threshold=st.floats(*_LOG_THRESHOLD),
        snrs_db=st.lists(st.floats(*_SNR_DB), max_size=10, unique=True),
    )
    # the slowest approach: F_rf = 1 - exp(-10/mu), ~1e-3 of its start at 40 dB
    @example(k_db=None, branches=1, log_threshold=_LOG_THRESHOLD[1], snrs_db=[])
    def test_outage_tends_to_its_floor(self, k_db, branches, log_threshold, snrs_db):
        # the outage less its floor is F_rf (1 - F_vlc): >= 0 and falling
        # with the average radio SNR, and at 40 dB at most 1e-2 of its
        # value at -10 dB
        k = 0.0 if k_db is None else 10.0 ** (k_db / 10.0)
        cfgs = [make_cfg(threshold=10.0**log_threshold, avg_snr=10.0 ** (s / 10.0),
                         branches=branches, k_factor=k) for s in sorted({*snrs_db, *_SNR_DB})]
        values, floor = outage_batch(cfgs)
        gap = values - floor
        assert np.all(gap >= 0.0)
        assert np.all(np.diff(gap) <= REL_TOL * gap[:-1])
        if gap[0] > 0.0:
            assert gap[-1] <= 1e-2 * gap[0]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        k_db=st.none() | st.floats(-20.0, ENVELOPE["k_factor_db_max"]),
        branches=st.integers(*ENVELOPE["branches"]),
        snr_db=st.floats(*_SNR_DB),
        log_thresholds=st.lists(st.floats(*_LOG_THRESHOLD), min_size=2, max_size=10, unique=True),
    )
    def test_outage_rises_with_the_threshold_and_falls_with_branches(self, k_db, branches, snr_db,
                                                                     log_thresholds):
        # within 2 REL_TOL relative, the truncation error of two sums; the
        # branches add at a fixed per-branch SNR, so each adds a
        # nonnegative SNR to the combiner's
        k = 0.0 if k_db is None else 10.0 ** (k_db / 10.0)
        avg_snr = 10.0 ** (snr_db / 10.0)
        thresholds = [10.0**t for t in sorted(log_thresholds)]
        rising, _ = outage_batch([make_cfg(threshold=t, avg_snr=avg_snr, branches=branches,
                                           k_factor=k) for t in thresholds])
        assert np.all(rising[:-1] <= rising[1:] * (1.0 + 2.0 * REL_TOL))
        for t in (thresholds[0], thresholds[-1]):
            falling, _ = outage_batch([make_cfg(threshold=t, avg_snr=avg_snr, branches=m,
                                                k_factor=k) for m in _BRANCHES])
            assert np.all(falling[1:] <= falling[:-1] * (1.0 + 2.0 * REL_TOL))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        axis=st.sampled_from([("semi_angle", 1.0), ("height", 1.0), ("optical_power", -1.0)]),
        cell=st.fixed_dictionaries({name: st.floats(*ENVELOPE[name])
                                    for name in ("semi_angle", "height", "optical_power")}),
        k_db=st.none() | st.floats(-20.0, ENVELOPE["k_factor_db_max"]),
        branches=st.integers(*ENVELOPE["branches"]),
        snr_db=st.floats(*_SNR_DB),
        log_threshold=st.floats(*_LOG_THRESHOLD),
        data=st.data(),
    )
    def test_monotone_in_the_optical_cell(self, axis, cell, k_db, branches, snr_db,
                                          log_threshold, data):
        # the outage, its floor (the optical CDF) and the BER rise with the
        # semi-angle and the height and fall with the optical power, each
        # step against the trend at most 1e-14 of the value: the sum minus
        # product of two hop values moves by an ulp or so where one moves
        name, trend = axis
        k = 0.0 if k_db is None else 10.0 ** (k_db / 10.0)
        base = make_cfg(threshold=10.0**log_threshold, avg_snr=10.0 ** (snr_db / 10.0),
                        branches=branches, k_factor=k)
        grid = data.draw(st.lists(st.floats(*ENVELOPE[name]), min_size=2, max_size=12,
                                  unique=True))
        cfgs = [base._replace(vlc=base.vlc._replace(**{**cell, name: v}))
                for v in sorted(grid)]
        outage, floor = outage_batch(cfgs)
        ber, _ = ber_batch(cfgs)
        for series in (outage, floor, ber):
            assert np.all(trend * (series[1:] - series[:-1]) >= -1e-14 * series[:-1])
