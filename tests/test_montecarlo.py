import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rfvlc.e2e import e2e_avg_ber, outage_probability
from rfvlc.config import SweepSpec
from rfvlc.e2e import ber_floor, outage_floor
from rfvlc import _mc_numpy, specfun
from rfvlc.montecarlo import (
    CHUNK_SIZE,
    EstimateWithError,
    McOptions,
    _point_args,
    simulate,
    simulate_ber,
    simulate_outage,
)
from rfvlc.rf_channel import mrc_gains, sample_mrc_snr
from rfvlc.specfun import erfc_sqrt
from rfvlc.sweep import ResultRecord, apply_axis, axis_grid, emit_csv, run_sweep
from rfvlc.vlc_channel import derive, sample_vlc_snr
from test_e2e import make_cfg


class TestOptionsAndValidation:
    def test_defaults(self):
        o = McOptions()
        assert (o.trials, o.seed, o.workers) == (1_000_000, 0, 1)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(trials=999),
            dict(trials=0),
            dict(trials=10.5),
            dict(seed=-1),
            dict(seed=2**64),
            dict(workers=0),
        ],
    )
    def test_rejects_invalid_options(self, kw):
        with pytest.raises(ValueError):
            McOptions(**kw)

    def test_simulate_validates_run_args(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            simulate_outage(cfg, trials=999, seed=0)
        with pytest.raises(ValueError):
            simulate_outage(cfg, trials=10_000, seed=-3)
        with pytest.raises(ValueError):
            simulate_outage(cfg, trials=10_000, seed=0, workers=0)

    def test_simulate_accepts_mixed_fading(self):
        # no draw depends on K, so K factors and branch counts may mix,
        # neighbours that differ in K alone included
        cfgs = [make_cfg(k_factor=1.0), make_cfg(k_factor=2.0), make_cfg(k_factor=2.0, branches=1)]
        pairs = simulate(cfgs, trials=10_000, seed=0, ber=True)
        assert pairs == [simulate([c], trials=10_000, seed=0, ber=True)[0] for c in cfgs]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_simulate_rejects_an_overflowing_rate(self, workers):
        # K M past the float range would square to inf; K M = 8e307 does not
        cfgs = [make_cfg(k_factor=1e307, branches=8), make_cfg(k_factor=1.7e308, branches=2)]
        with pytest.raises(ValueError, match="finite"):
            simulate(cfgs, trials=2 * CHUNK_SIZE, seed=0, workers=workers)

    def test_no_configs_no_estimates(self, monkeypatch):
        # an empty list draws nothing, though its run arguments are checked
        monkeypatch.setattr(_mc_numpy, "chunk_stats", None)
        assert simulate([], trials=10_000, seed=0, ber=True) == []
        with pytest.raises(ValueError):
            simulate([], trials=999, seed=0)

    def test_minimum_trials_boundary(self):
        out = simulate_outage(make_cfg(), trials=1000, seed=1)
        assert out.trials == 1000


class TestEstimateWithError:
    def test_reliability_flag(self):
        good = EstimateWithError(estimate=0.01, std_error=1e-4, trials=100_000, seed=0)
        assert good.reliable  # 1000 expected events
        rare = EstimateWithError(estimate=1e-6, std_error=1e-6, trials=10_000, seed=0)
        assert not rare.reliable
        # a precise estimate of a rare quantity, as the conditional BER
        # estimator gives, is reliable with far fewer than 100 events
        precise = EstimateWithError(estimate=1e-6, std_error=1e-8, trials=100_000, seed=0)
        assert precise.reliable
        # no spread at all is no evidence
        assert not EstimateWithError(estimate=0.0, std_error=0.0, trials=10_000, seed=0).reliable


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        cfg = make_cfg()
        a = simulate_outage(cfg, trials=50_000, seed=42)
        b = simulate_outage(cfg, trials=50_000, seed=42)
        assert (a.estimate, a.std_error) == (b.estimate, b.std_error)
        c = simulate_ber(cfg, trials=50_000, seed=42)
        d = simulate_ber(cfg, trials=50_000, seed=42)
        assert (c.estimate, c.std_error) == (d.estimate, d.std_error)

    def test_worker_count_invariant(self):
        cfg = make_cfg()
        # span several chunks, not a multiple of the chunk size
        one = simulate_ber(cfg, trials=150_001, seed=9, workers=1)
        three = simulate_ber(cfg, trials=150_001, seed=9, workers=3)
        eight = simulate_ber(cfg, trials=150_001, seed=9, workers=8)
        assert one == three == eight

    def test_different_seeds_differ(self):
        cfg = make_cfg()
        a = simulate_outage(cfg, trials=50_000, seed=1)
        b = simulate_outage(cfg, trials=50_000, seed=2)
        assert a.estimate != b.estimate

    def test_trials_change_changes_estimate(self):
        cfg = make_cfg()
        a = simulate_outage(cfg, trials=65_536, seed=7)
        b = simulate_outage(cfg, trials=65_537, seed=7)
        assert a.trials != b.trials
        assert a.estimate != b.estimate


# three full chunks and a remainder chunk
SHARED_TRIALS = 3 * 65536 + 17
SWEEPS = {
    "rf_avg_snr_db": dict(start=0.0, stop=20.0, points=4),
    "optical_power_w": dict(start=0.05, stop=2.0, points=4, scale="log"),
    "semi_angle_deg": dict(start=20.0, stop=70.0, points=4),
    "branches": dict(start=1.0, stop=3.0, points=3),
    # LOS-heavy fading (K = 17 dB, M = 4): Poisson rate 200, long series
    "rf_avg_snr_db_los": dict(axis="rf_avg_snr_db", start=-10.0, stop=30.0, points=5,
                              cfg=dict(k_factor=10.0**1.7, branches=4)),
}


def per_point_sweep(cfg, spec, trials, seed):
    """The sweep records built point by point, with each point simulated
    alone by the reference loop."""
    records = []
    for value in axis_grid(spec):
        point = apply_axis(cfg, spec.axis, float(value))
        outage, ber = oracles.per_point_mc(point, trials, seed)
        if spec.quantity == "outage":
            analytic, floor, (est, se) = outage_probability(point), outage_floor(point), outage
        else:
            analytic, floor, (est, se) = e2e_avg_ber(point), ber_floor(point), ber
        records.append(ResultRecord(float(value), analytic, est, se, floor))
    return records


class ErfcCalled(Exception):
    pass


class TestSharedStream:
    @pytest.mark.parametrize("quantity", ["outage", "ber"])
    @pytest.mark.parametrize("case", sorted(SWEEPS))
    def test_sweep_matches_per_point_loop(self, case, quantity, monkeypatch):
        import rfvlc.sweep

        calls = []

        def counted(cfgs, *args, **kwargs):
            calls.append(len(cfgs))
            return simulate(cfgs, *args, **kwargs)

        monkeypatch.setattr(rfvlc.sweep, "simulate", counted)
        sweep = dict(SWEEPS[case])
        cfg = make_cfg(**sweep.pop("cfg", {}))
        spec = SweepSpec(axis=sweep.pop("axis", case), quantity=quantity, **sweep)
        want = per_point_sweep(cfg, spec, SHARED_TRIALS, seed=5)
        for workers in (1, 3):
            mc = McOptions(trials=SHARED_TRIALS, seed=5, workers=workers)
            got = run_sweep(cfg, spec, mc)
            assert got == want  # exact floats, not only their 12-digit CSV form
            assert emit_csv(got) == emit_csv(want)
        # every axis, branches included, is one Monte Carlo pass per sweep
        assert calls == [spec.points, spec.points]

    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(
        k_db=st.lists(st.floats(0.0, 14.0), min_size=2, max_size=2, unique=True),
        branches=st.integers(1, 8),
        mus_db=st.lists(st.floats(-10.0, 40.0), min_size=8, max_size=9),
        others=st.lists(st.tuples(st.floats(0.0, 14.0), st.integers(1, 8),
                                  st.floats(-10.0, 40.0), st.sampled_from([0.05, 0.25, 2.0]),
                                  st.sampled_from([30.0, 60.0, 70.0]), st.floats(0.1, 10.0)),
                        max_size=6),
        order=st.randoms(use_true_random=False),
    )
    def test_mixed_fading_matches_lone_calls(self, k_db, branches, mus_db, others, order):
        # an outage sort group at each of two K factors, among configs that
        # differ in K, branch count, radio scale, optical cell and threshold
        def cfg(k, m, mu, power=0.25, semi_angle=60.0, threshold=1.0):
            c = make_cfg(k_factor=10.0 ** (k / 10.0), branches=m, avg_snr=10.0 ** (mu / 10.0),
                         optical_power=power, threshold=threshold)
            return apply_axis(c, "semi_angle_deg", semi_angle)

        cfgs = [cfg(k, branches, mu) for k in k_db for mu in mus_db]
        cfgs += [cfg(*other) for other in others]
        order.shuffle(cfgs)
        assert len(_mc_numpy.shared_groups([_point_args(c) for c in cfgs])) == 2
        trials = 2 * CHUNK_SIZE + 17
        lone = [simulate([c], trials, 3, ber=True)[0] for c in cfgs]
        for workers in (1, 3):
            assert simulate(cfgs, trials, 3, workers=workers, ber=True) == lone
            pairs = simulate(cfgs, trials, 3, workers=workers)
            assert [outage for outage, _ in pairs] == [outage for outage, _ in lone]

    def test_one_pass_matches_single_config_calls(self):
        # branch counts may mix: fewer branches read a prefix of the draws
        # for more, so each config keeps the stream of its lone call
        cfgs = [make_cfg(avg_snr=2.0, threshold=0.5, branches=3),
                make_cfg(optical_power=0.1, branches=3),
                make_cfg(avg_snr=2.0, threshold=0.5, branches=3),
                make_cfg(branches=1, threshold=0.5),
                make_cfg(branches=4, optical_power=0.1),
                make_cfg(branches=2)]
        pairs = simulate(cfgs, SHARED_TRIALS, 8, workers=2, ber=True)
        for cfg, (outage, ber) in zip(cfgs, pairs):
            assert outage == simulate_outage(cfg, SHARED_TRIALS, 8)
            assert ber == simulate_ber(cfg, SHARED_TRIALS, 8)
            (p, p_se), (b, b_se) = oracles.per_point_mc(cfg, SHARED_TRIALS, 8)
            assert (outage.estimate, outage.std_error) == (p, p_se)
            assert (ber.estimate, ber.std_error) == (b, b_se)

    def test_outage_only_never_reaches_erfc(self, monkeypatch):
        import rfvlc._mc_numpy

        def erfc_sqrt(s, out=None, work=None):
            raise ErfcCalled

        monkeypatch.setattr(rfvlc._mc_numpy, "erfc_sqrt", erfc_sqrt)
        cfgs = [make_cfg(avg_snr=a) for a in (1.0, 5.0)]
        assert simulate_outage(cfgs[0], trials=70_000, seed=1).trials == 70_000
        assert all(ber is None for _, ber in simulate(cfgs, 70_000, 1, workers=2))
        spec = SweepSpec(axis="optical_power_w", start=0.1, stop=1.0, points=3,
                         quantity="outage")
        run_sweep(cfgs[0], spec, McOptions(trials=70_000, seed=1, workers=2))
        # the patch is live: a BER pass does reach it
        with pytest.raises(ErfcCalled):
            simulate_ber(cfgs[0], trials=70_000, seed=1)


def chunk_zero_gains(seed, branches, k_factor=3.162, n=CHUNK_SIZE):
    """The radio gains of chunk 0 of a `simulate` run with this seed, drawn
    by the stream contract."""
    gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(0,))))
    z = gen.standard_normal((n, 2))
    gen.random(n)
    exps = gen.standard_exponential((branches - 1, n))
    return mrc_gains(z, exps, [(k_factor, branches)])[k_factor, branches]


def scales_landing_on(x, gamma_th):
    """Scales s with gamma_th / s equal to x and to each float next to x,
    or None when the division reaches one of the three from no scale."""
    found = []
    for target in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)):
        lo = hi = gamma_th / target
        near = [lo]
        for _ in range(8):
            lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)
            near += [lo, hi]
        hits = [float(s) for s in near if gamma_th / s == target]
        if not hits:
            return None
        found += hits
    return found


def scales_landing_near(values, gamma_th, picks):
    """`scales_landing_on` for the first value, from each pick on, of the
    sorted `values` that some scale lands on."""
    ordered = np.sort(values)
    found = []
    for i in picks:
        while (scales := scales_landing_on(ordered[i], gamma_th)) is None:
            i += 1
        found += scales
    return found


def assert_grouped_exact(cfgs, trials, seed, sizes):
    """An outage pass over `cfgs`, at 1 and 3 workers, forms sort groups
    of the given sizes and gives each config exactly its lone
    `simulate_outage` call and the reference loop."""
    points = [_point_args(c) for c in cfgs]
    formed = _mc_numpy.shared_groups(points)
    assert sorted(len(m) for m in formed) == sorted(sizes)
    lone = [simulate_outage(c, trials, seed) for c in cfgs]
    for cfg, est in zip(cfgs, lone):
        (p, se), _ = oracles.per_point_mc(cfg, trials, seed, ber=False)
        assert (est.estimate, est.std_error) == (p, se)
    for workers in (1, 3):
        pairs = simulate(cfgs, trials, seed, workers=workers)
        assert [outage for outage, _ in pairs] == lone


class TestSortedCount:
    """Points that differ only in the radio scale share one sort per chunk;
    their counts must be the direct counts, trial for trial."""

    def test_scales_landing_on_drawn_gains(self):
        gains = chunk_zero_gains(seed=4, branches=2)
        mus = scales_landing_near(gains, 1.0, [0, 20_000, 32_768, 60_000])
        cfgs = [make_cfg(avg_snr=mu) for mu in mus]
        assert_grouped_exact(cfgs, SHARED_TRIALS, 4, [len(mus)])

    def test_repeated_and_descending_scales(self):
        # at 0.05 W the optical hop alone puts a share of trials in outage
        mus = [5.0, 5.0, 2.0, 5.0, 2.0] + list(np.logspace(3, -1, 9))
        cfgs = [make_cfg(avg_snr=float(mu), optical_power=0.05) for mu in mus]
        assert_grouped_exact(cfgs, SHARED_TRIALS, 6, [len(mus)])

    def test_scales_across_the_float_range(self):
        mus = np.logspace(-300, 300, 13)
        cfgs = [make_cfg(avg_snr=float(mu)) for mu in np.concatenate([mus, mus[::-2]])]
        assert_grouped_exact(cfgs, SHARED_TRIALS, 7, [len(cfgs)])

    def test_optical_power_sweep_is_counted_directly(self):
        cfgs = [make_cfg(optical_power=float(p)) for p in np.logspace(-2, 0.5, 7)]
        assert_grouped_exact(cfgs, SHARED_TRIALS, 8, [])

    def test_groups_mixed_with_singletons_and_branch_counts(self):
        radio = [make_cfg(avg_snr=float(mu), branches=3) for mu in np.logspace(-0.5, 1.5, 8)]
        optical = [make_cfg(optical_power=p, branches=1) for p in (0.02, 0.05, 0.1, 0.2)]
        single = [make_cfg(branches=4), make_cfg(avg_snr=2.0, threshold=0.5),
                  make_cfg(optical_power=0.05, avg_snr=8.0, branches=3)]
        cfgs = [single[0], *radio[:2], optical[0], single[1], *radio[2:], *optical[1:], single[2]]
        assert_grouped_exact(cfgs, SHARED_TRIALS, 9, [8])
        # a BER pass shares no sort, and gives the same outage estimates
        pairs = simulate(cfgs, SHARED_TRIALS, 9, workers=3, ber=True)
        assert [o for o, _ in pairs] == [o for o, _ in simulate(cfgs, SHARED_TRIALS, 9)]
        for cfg, (_, ber) in zip(cfgs, pairs):
            assert ber == simulate_ber(cfg, SHARED_TRIALS, 9)

    def test_two_hundred_point_grid(self):
        spec = SweepSpec(axis="rf_avg_snr_db", start=-10.0, stop=30.0, points=200,
                         quantity="outage")
        cfgs = [apply_axis(make_cfg(), spec.axis, float(v)) for v in axis_grid(spec)]
        assert_grouped_exact(cfgs, CHUNK_SIZE + 999, 10, [200])

    def test_zero_threshold(self):
        # kernel level, since a config's threshold is > 0: no SNR is below 0
        _, *law = _point_args(make_cfg())[3]
        scales = (1e-300, 1e-100, 1.0, 1e300, 5.0, 1e100, 0.5, 2.0)
        points = ([(3.162, 2, mu, (1e3, *law), 0.0) for mu in scales]
                  + [(3.162, 1, 5.0, (s, *law), 0.0) for s in scales])
        groups = _mc_numpy.shared_groups(points)
        assert groups == [list(range(8))]
        stats = _mc_numpy.chunk_stats(np.random.SFC64(13), 4000, points, False, groups, {})
        assert stats == [(0,)] * len(points)

    def test_runs_of_equal_keys(self):
        # the draws hold no ties; the search must still step over whole
        # runs of equal keys, and over the keys of trials whose optical
        # SNR is below the threshold
        values = np.random.default_rng(14).random(40) * 4.0
        gains = np.repeat(np.append(values, 0.0), 50)
        snr_vlc = np.tile([0.1, 1.0, 3.0], gains.size // 3 + 1)[:gains.size]
        mus = scales_landing_near(values, 1.0, [0, 10, 20, 30]) + [1e-300, 1e300]
        want = [int(np.count_nonzero(np.minimum(snr_vlc, gains * mu) < 1.0)) for mu in mus]
        assert _mc_numpy._sorted_counts(snr_vlc.copy(), gains, mus, 1.0) == want


class TestScratch:
    def test_reused_arrays_give_the_fresh_results(self):
        # one scratch dict through chunks that grow and shrink it, change
        # the branch count and switch between BER, direct and sorted counts
        _, *law = _point_args(make_cfg())[3]
        sweep = [(3.162, 2, float(mu), (1e3, *law), 1.0) for mu in np.logspace(-0.5, 1.5, 8)]
        mixed = [(3.162, 3, 2.0, (1e3, *law), 1.0), (3.162, 1, 5.0, (40.0, *law), 2.0)]
        scratch = {}
        for seed, n, points, ber in [(1, 5000, mixed, True), (2, 9000, sweep, False),
                                     (3, 3000, mixed, False), (4, 7000, sweep[:1], True),
                                     (5, 9000, [(3.162, 1, 5.0, (40.0, *law), 2.0)], True)]:
            groups = () if ber else _mc_numpy.shared_groups(points)
            fresh = _mc_numpy.chunk_stats(np.random.SFC64(seed), n, points, ber, groups, {})
            reused = _mc_numpy.chunk_stats(np.random.SFC64(seed), n, points, ber, groups,
                                           scratch)
            assert reused == fresh
        assert scratch["normals"].size == 2 * 9000

    # a grouped outage sweep, a direct outage point, a BER point, and a BER
    # pass over mixed fading with one and four branches
    MIXES = pytest.mark.parametrize("points, ber", [
        ([_point_args(make_cfg(avg_snr=float(mu))) for mu in np.logspace(0.0, 2.0, 21)], False),
        ([_point_args(make_cfg())], False),
        ([_point_args(make_cfg())], True),
        ([_point_args(make_cfg(branches=1)), _point_args(make_cfg(branches=4, avg_snr=2.0))], True),
    ], ids=["grouped-outage-sweep", "direct-outage", "ber", "mixed-fading-ber"])

    @MIXES
    @pytest.mark.parametrize("n", [CHUNK_SIZE, 2_000_000 % CHUNK_SIZE, 40004, 9000, 17])
    def test_equals_the_whole_chunk_route(self, points, ber, n):
        # the kernel evaluates a chunk one node at a time and adds the
        # nodes' sums; the reference takes one erfc call and one numpy sum
        # over the whole chunk, and counts every point directly.  A full
        # chunk and 2e6 trials' last one split into two equal nodes, whose
        # four views fill the spent normals; 40004 trials split into 20000
        # and 20004, and three views of the longer node fit there; 9000
        # and 17 trials are one node each (17 below numpy's 128-entry
        # pairwise block), two of whose views fit there
        groups = () if ber else _mc_numpy.shared_groups(points)
        for seed in (1, 2):
            got = _mc_numpy.chunk_stats(np.random.SFC64(seed), n, points, ber, groups, {})
            assert got == oracles.chunk_stats_ref(np.random.SFC64(seed), n, points, ber)
            assert all(type(count) is int for count, *_ in got)

    @pytest.mark.parametrize("points, ber, held", [
        ([_point_args(make_cfg())], True, 5),
        ([_point_args(make_cfg())], False, 4),
        ([_point_args(make_cfg(avg_snr=float(mu))) for mu in np.logspace(0.0, 2.0, 21)], False, 4),
    ], ids=["ber", "direct-outage", "grouped-outage"])
    def test_a_thread_holds_a_few_chunks_of_doubles(self, points, ber, held):
        # at M = 2 and one (K, M) pair: the normal pairs, the uniforms and
        # the exponential row, which holds the gain, and on a BER pass the
        # node array, whose Horner scratch is one full chunk's two nodes
        groups = () if ber else _mc_numpy.shared_groups(points)
        scratch = {}
        _mc_numpy.chunk_stats(np.random.SFC64(1), CHUNK_SIZE, points, ber, groups, scratch)
        assert sum(array.size for array in scratch.values()) == held * CHUNK_SIZE

    @MIXES
    def test_a_warm_chunk_allocates_nothing_chunk_sized(self, points, ber):
        # a thread's second chunk draws into and computes in the arrays of
        # its first: it adds or replaces no scratch array, and what it
        # allocates besides (boolean masks, erfc's sub-block patches) stays
        # far below one chunk of doubles
        import tracemalloc

        n = CHUNK_SIZE
        groups = () if ber else _mc_numpy.shared_groups(points)
        assert len(groups) == (1 if len(points) == 21 else 0)
        scratch = {}
        _mc_numpy.chunk_stats(np.random.SFC64(1), n, points, ber, groups, scratch)
        held = dict(scratch)
        tracemalloc.start()
        try:
            warm = _mc_numpy.chunk_stats(np.random.SFC64(2), n, points, ber, groups, scratch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scratch.keys() == held.keys()
        assert all(scratch[name] is array for name, array in held.items())
        # no single allocation of n doubles, since the peak bounds each
        assert peak < 8 * n
        assert peak < 256 * 1024
        assert warm == _mc_numpy.chunk_stats(np.random.SFC64(2), n, points, ber, groups, {})


class TestBlockedErfc:
    """The kernel's erfc, taken a node at a time, against one `erfc_sqrt`
    call over the whole chunk, bit for bit."""

    EDGES = [0.0, np.nextafter(1.0, 0.0), 1.0, np.nextafter(64.0, 0.0), 64.0,
             np.nextafter(specfun._MAXLOG, 0.0), specfun._MAXLOG, np.nextafter(specfun._MAXLOG, np.inf),
             745.0, 1e308, np.inf]

    @staticmethod
    def snrs(n):
        # the edges at the start and across the first node boundaries,
        # then random SNRs uniform on [0, 2000] and log-uniform over
        # [e^-30, e^8], shuffled
        rng = np.random.default_rng(21)
        random = np.concatenate([rng.uniform(0.0, 2000.0, 50_000), np.exp(rng.uniform(-30.0, 8.0, 50_000))])
        s = np.concatenate([TestBlockedErfc.EDGES, rng.permutation(random)])
        for boundary in (1000, 32768):
            s[boundary - 5:boundary + 6] = TestBlockedErfc.EDGES
        return s[:n]

    @pytest.mark.parametrize("block", [_mc_numpy.ERFC_BLOCK, 1000, 4096])
    @pytest.mark.parametrize("n", [CHUNK_SIZE, 2_000_000 % CHUNK_SIZE, 17])
    def test_equals_one_whole_call(self, monkeypatch, block, n):
        # 1000 divides neither chunk length; 2e6 trials end on a short
        # chunk of 33920, and 17 trials are less than one node
        monkeypatch.setattr(_mc_numpy, "ERFC_BLOCK", block)
        s = self.snrs(n)
        assert np.isin(self.EDGES, s).all()
        x = 0.5 * erfc_sqrt(s)
        nodes = []

        def moments(start, stop):
            nodes.append((start, stop))
            result, work = np.full(stop - start, np.nan), np.full((2, stop - start), np.nan)
            sums = _mc_numpy._moments(s[start:stop], result, work)
            # the node's result array ends squared
            assert result.tobytes() == (x[start:stop] ** 2).tobytes()
            return np.array(sums)

        got = _mc_numpy._pairwise(0, n, moments)
        assert tuple(got) == (float(x.sum()), float((x * x).sum()))
        # the nodes tile the chunk in order, each at most one block and
        # the chunk one node where it is no longer
        assert [start for start, _ in nodes] == [0] + [stop for _, stop in nodes[:-1]]
        assert nodes[-1][1] == n
        assert max(stop - start for start, stop in nodes) <= block
        assert (len(nodes) == 1) == (n <= block)


class TestNodeSums:
    """The summation order the kernel relies on: numpy's sum of a float
    array equals the sums of its nodes added in the order of
    `_mc_numpy._pairwise`, bit for bit.  This pins numpy's pairwise split
    (n/2 rounded down to a multiple of 8, past 128 entries); a numpy
    release that changes it fails here."""

    @staticmethod
    def check(n, seed):
        # values over many magnitudes, so that any other order of the
        # additions rounds differently somewhere
        rng = np.random.default_rng(seed)
        x = rng.random(n) * np.exp(rng.uniform(-30.0, 30.0, n))
        got = _mc_numpy._pairwise(0, n, lambda start, stop: x[start:stop].sum())
        assert got.tobytes() == x.sum().tobytes()

    @pytest.mark.parametrize("block", [_mc_numpy.ERFC_BLOCK, 1000, 4096])
    @pytest.mark.parametrize("n", [CHUNK_SIZE, 2_000_000 % CHUNK_SIZE, 17])
    def test_named_lengths(self, monkeypatch, block, n):
        monkeypatch.setattr(_mc_numpy, "ERFC_BLOCK", block)
        for seed in range(5):
            self.check(n, seed)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, CHUNK_SIZE), block=st.sampled_from([_mc_numpy.ERFC_BLOCK, 1000, 4096]),
           seed=st.integers(0, 2**32 - 1))
    def test_any_length(self, n, block, seed):
        # monkeypatch is function-scoped, so the block is set by hand here
        saved = _mc_numpy.ERFC_BLOCK
        _mc_numpy.ERFC_BLOCK = block
        try:
            self.check(n, seed)
        finally:
            _mc_numpy.ERFC_BLOCK = saved


class RecordingThread:
    """A stand-in for threading.Thread that records each thread started and
    runs its target on the calling thread."""

    started = []

    def __init__(self, target, args):
        self.target, self.args = target, args

    def start(self):
        self.started.append(self.args)
        self.target(*self.args)

    def join(self):
        pass


class TestThreads:
    @pytest.mark.parametrize(
        "workers, trials, started",
        [(10**6, SHARED_TRIALS, [(1,), (2,), (3,)]), (2, SHARED_TRIALS, [(1,)]),
         (10**6, 65536, []), (1, SHARED_TRIALS, [])],
    )
    def test_at_most_one_thread_per_chunk(self, monkeypatch, workers, trials, started):
        # SHARED_TRIALS is four chunks; the calling thread runs the first share
        import threading

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(RecordingThread, "started", [])
        monkeypatch.setattr(threading, "Thread", RecordingThread)
        chunk_stats, drawn = _mc_numpy.chunk_stats, []

        def counting(bitgen, *args):
            drawn.append(bitgen.seed_seq.spawn_key)
            return chunk_stats(bitgen, *args)

        monkeypatch.setattr(_mc_numpy, "chunk_stats", counting)
        cfg = make_cfg()
        got = simulate([cfg], trials, 3, workers=workers)
        assert RecordingThread.started == started
        assert sorted(drawn) == [(i,) for i in range(-(-trials // CHUNK_SIZE))]
        monkeypatch.undo()
        assert got == simulate([cfg], trials, 3)

    @pytest.mark.parametrize("cpus, started", [(2, [(1,)]), (3, [(1,), (2,)]), (None, [])])
    def test_at_most_one_thread_per_cpu(self, monkeypatch, cpus, started):
        # a run of many workers starts no more threads than there are CPUs,
        # the calling thread among them; an unknown CPU count means one
        import threading

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(RecordingThread, "started", [])
        monkeypatch.setattr(threading, "Thread", RecordingThread)
        got = simulate([make_cfg()], SHARED_TRIALS, 3, workers=10**6)
        assert RecordingThread.started == started
        monkeypatch.undo()
        assert got == simulate([make_cfg()], SHARED_TRIALS, 3)

    @pytest.mark.parametrize("failing", [0, 1, 3])
    def test_a_chunk_error_reaches_the_caller(self, monkeypatch, failing):
        # chunk 0 runs on the calling thread, chunks 1 and 3 on the other
        chunk_stats = _mc_numpy.chunk_stats

        def flaky(bitgen, *args):
            if bitgen.seed_seq.spawn_key == (failing,):
                raise MemoryError(f"chunk {failing}")
            return chunk_stats(bitgen, *args)

        monkeypatch.setattr(_mc_numpy, "chunk_stats", flaky)
        with pytest.raises(MemoryError, match=f"chunk {failing}"):
            simulate([make_cfg()], SHARED_TRIALS, 3, workers=2)


class TestAgainstAnalytic:
    def test_outage_within_error_bars(self):
        for cfg, seed in [(make_cfg(), 11), (make_cfg(avg_snr=2.0, branches=1), 12)]:
            want = outage_probability(cfg)
            got = simulate_outage(cfg, trials=400_000, seed=seed)
            assert abs(got.estimate - want) < 4.0 * got.std_error
            # binomial error bar sanity
            assert got.std_error == pytest.approx(
                math.sqrt(got.estimate * (1 - got.estimate) / got.trials), rel=1e-12, abs=0.0
            )

    def test_ber_within_error_bars(self):
        for cfg, seed in [(make_cfg(), 21), (make_cfg(avg_snr=1.0, optical_power=0.1), 22)]:
            want = e2e_avg_ber(cfg)
            got = simulate_ber(cfg, trials=400_000, seed=seed)
            assert abs(got.estimate - want) < 4.0 * got.std_error
            assert 0.0 <= got.estimate <= 0.5

    def test_degenerate_outage_is_zero(self):
        # threshold far below both hops' support
        cfg = make_cfg(threshold=1e-8, avg_snr=1e4)
        got = simulate_outage(cfg, trials=10_000, seed=3)
        assert got.estimate == 0.0
        assert got.std_error == 0.0
        assert not got.reliable

    def test_ber_reduces_to_radio_hop_when_optical_is_clean(self):
        from rfvlc.rf_channel import rf_avg_ber

        cfg = make_cfg(optical_power=2500.0)
        got = simulate_ber(cfg, trials=200_000, seed=31)
        assert abs(got.estimate - rf_avg_ber(cfg.rf)) < 4.0 * got.std_error

    def test_coverage_calibration(self):
        # analytic value inside estimate +- 2 se for >= 90% of 50 seeds
        cfg = make_cfg()
        want = outage_probability(cfg)
        hits = 0
        for seed in range(100, 150):
            got = simulate_outage(cfg, trials=100_000, seed=seed)
            hits += abs(got.estimate - want) <= 2.0 * got.std_error
        assert hits >= 45

    def test_conditional_estimator_beats_bitflip(self):
        # same trial budget, lower variance than flipping actual bits
        cfg = make_cfg()
        d = derive(cfg.vlc)
        trials = 200_000
        got = simulate_ber(cfg, trials=trials, seed=41)
        _, bitflip_se = oracles.bitflip_ber_mc(
            lambda rng, n: sample_mrc_snr(cfg.rf, rng, size=n),
            lambda rng, n: sample_vlc_snr(d, rng, size=n),
            trials,
            seed=41,
        )
        assert got.std_error < bitflip_se
