"""Acceptance gate: eight criteria, one visible pass/fail line each.

Each test prints `[ACCEPTANCE] criterion N (...): PASS|FAIL` straight to
the terminal (bypassing capture) so the verdict survives in any log.
"""

import contextlib
import math

import numpy as np
import pytest
from scipy import integrate

import oracles
from oracles import erfc_moment, meijer_g_2122
from test_e2e import make_cfg
from test_vlc_channel import cell, random_cell

from rfvlc.config import SweepSpec, db_to_linear
from rfvlc.e2e import ber_floor, e2e_avg_ber, outage_floor, outage_probability
from rfvlc.montecarlo import McOptions, simulate_ber, simulate_outage
from rfvlc.rf_channel import RfParams, mrc_snr_cdf, mrc_snr_pdf, rf_avg_ber
from rfvlc.sweep import emit_csv, run_sweep
from rfvlc.vlc_channel import derive, vlc_avg_ber, vlc_snr_cdf

SQRT_PI = math.sqrt(math.pi)
K_GRID = [0.0, 1.0, 3.162]
M_GRID = [1, 2, 4]
MU_GRID = [0.1, 1.0, 10.0]


@contextlib.contextmanager
def verdict(capsys, num, desc):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[ACCEPTANCE] criterion {num} ({desc}): FAIL")
        raise
    with capsys.disabled():
        print(f"[ACCEPTANCE] criterion {num} ({desc}): PASS")


def test_criterion_1_distribution_validity(capsys):
    with verdict(capsys, 1, "combined-snr pdf normalizes, cdf matches pdf integration"):
        for k in K_GRID:
            for m in M_GRID:
                for mu in MU_GRID:
                    p = RfParams(k_factor=k, branches=m, avg_snr=mu)
                    total, _ = integrate.quad(
                        lambda g: mrc_snr_pdf(g, p), 0.0, np.inf, limit=300
                    )
                    assert abs(total - 1.0) <= 1e-6, (k, m, mu, total)

                    grid = np.linspace(0.0, 10.0 * m * mu, 51)
                    acc = 0.0
                    for lo, hi in zip(grid[:-1], grid[1:]):
                        piece, _ = integrate.quad(
                            lambda g: mrc_snr_pdf(g, p), lo, hi,
                            epsabs=1e-12, epsrel=1e-11, limit=200,
                        )
                        acc += piece
                        diff = abs(mrc_snr_cdf(hi, p) - acc)
                        assert diff <= 1e-8, (k, m, mu, hi, diff)


def test_criterion_2_optical_cdf_endpoint_identities(capsys):
    with verdict(capsys, 2, "optical snr cdf hits exactly 0 and 1 at the support edges"):
        rng = np.random.default_rng(20260816)
        for _ in range(20):
            d = derive(random_cell(rng))
            assert abs(vlc_snr_cdf(d.snr_min, d)) <= 1e-12
            assert abs(vlc_snr_cdf(d.snr_max, d) - 1.0) <= 1e-12


def test_criterion_3_ber_closed_forms_match_quadrature(capsys):
    with verdict(capsys, 3, "hop-average BER closed forms match adaptive quadrature"):
        # radio hop: series form vs quadrature of the defining integral
        for k in [1.0, 3.162]:
            for m in M_GRID:
                for mu in MU_GRID:
                    p = RfParams(k_factor=k, branches=m, avg_snr=mu)
                    want = oracles.rf_ber_quad(k, m, mu)
                    got = rf_avg_ber(p)
                    assert abs(got - want) <= 1e-8 * want, (k, m, mu, got, want)
        # no line of sight, single branch: exact closed form
        for mu in MU_GRID:
            p = RfParams(k_factor=0.0, branches=1, avg_snr=mu)
            want = oracles.rayleigh_ber(mu)
            assert abs(rf_avg_ber(p) - want) <= 1e-10 * want

        # optical hop over three decades of transmit power; the span tops
        # out where the tightest geometry reaches snr_min ~ 1e2, the edge
        # of full closed-form accuracy (difference terms share their
        # leading asymptotics, so error grows ~linearly with snr_min)
        for semi_angle in [30.0, 45.0, 60.0]:
            for height in [2.0, 3.0]:
                for power in np.geomspace(2e-4, 0.2, 7):
                    p = cell(semi_angle=semi_angle, height=height, optical_power=float(power))
                    want = oracles.vlc_ber_quad(p)
                    got = vlc_avg_ber(derive(p))
                    assert abs(got - want) <= 1e-10 * want, (semi_angle, height, power)


def test_criterion_4_meijer_identity(capsys):
    with verdict(capsys, 4, "Meijer-G reduction agrees with the erfc-moment integral"):
        for n in range(1, 7):
            for a in [0.5, 1.0, 3.0, 10.0]:
                lhs = meijer_g_2122(1 - n, 1.0 / a)
                rhs = SQRT_PI * a**n * erfc_moment(float(n), a)
                assert abs(lhs - rhs) <= 1e-8 * abs(rhs), (n, a)
        assert abs(meijer_g_2122(0, 1.0 / 3.0) - SQRT_PI / 2.0) <= 1e-12


def test_criterion_5_analytic_within_monte_carlo_error_bars(capsys):
    with verdict(capsys, 5, "closed forms within 3 standard errors of 1e6-trial MC"):
        mu = db_to_linear(6.0)
        i = 0
        for m in M_GRID:
            for k_db in [0.0, 5.0]:
                for power in [0.15, 0.5]:
                    cfg = make_cfg(
                        threshold=1.0,
                        avg_snr=mu,
                        optical_power=power,
                        branches=m,
                        k_factor=db_to_linear(k_db),
                    )
                    seed = 7700 + 13 * i
                    i += 1
                    got_o = simulate_outage(cfg, trials=1_000_000, seed=seed)
                    want_o = outage_probability(cfg)
                    assert abs(got_o.estimate - want_o) <= 3.0 * got_o.std_error, (
                        m, k_db, power, "outage", want_o, got_o,
                    )
                    got_b = simulate_ber(cfg, trials=1_000_000, seed=seed)
                    want_b = e2e_avg_ber(cfg)
                    assert abs(got_b.estimate - want_b) <= 3.0 * got_b.std_error, (
                        m, k_db, power, "ber", want_b, got_b,
                    )
        assert i == 12


def test_criterion_6_floors(capsys):
    with verdict(capsys, 6, "outage and BER floors reproduced"):
        base = make_cfg(threshold=1.0, avg_snr=db_to_linear(6.0), optical_power=0.15)

        high_rf = make_cfg(threshold=1.0, avg_snr=1e6 * base.outage_threshold,
                           optical_power=0.15)
        floor = outage_floor(high_rf)
        assert floor > 0.0
        assert abs(outage_probability(high_rf) - floor) <= 1e-6 * floor

        high_opt = make_cfg(threshold=1.0, avg_snr=db_to_linear(6.0),
                            optical_power=0.15 * 1e4)
        assert abs(e2e_avg_ber(high_opt) - ber_floor(high_opt)) <= 1e-9
        assert ber_floor(high_opt) == rf_avg_ber(high_opt.rf)


def test_criterion_7_figure_trends(capsys):
    with verdict(capsys, 7, "sweep trends: snr and power help, wider beams hurt"):
        no_mc = None

        # outage falls with radio snr and more branches never hurt
        spec = SweepSpec(axis="rf_avg_snr_db", start=0.0, stop=40.0, points=21,
                         quantity="outage")
        by_m = {}
        for m in M_GRID:
            cfg = make_cfg(threshold=1.0, avg_snr=1.0, optical_power=0.15,
                           branches=m, k_factor=1.0)
            vals = np.array([r.analytic for r in run_sweep(cfg, spec, no_mc)])
            assert np.all(np.diff(vals) <= 1e-15), m
            by_m[m] = vals
        assert np.all(by_m[2] <= by_m[1] + 1e-15)
        assert np.all(by_m[4] <= by_m[2] + 1e-15)

        # ber grows with the emitter semi-angle at fixed power and height
        spec = SweepSpec(axis="semi_angle_deg", start=30.0, stop=70.0, points=21,
                         quantity="ber")
        cfg = make_cfg(threshold=1.0, avg_snr=db_to_linear(6.0), optical_power=0.25)
        vals = np.array([r.analytic for r in run_sweep(cfg, spec, no_mc)])
        assert np.all(np.diff(vals) >= -1e-16)
        assert vals[-1] > vals[0]

        # ber falls with transmit optical power
        spec = SweepSpec(axis="optical_power_w", start=0.02, stop=2.0, points=21,
                         quantity="ber", scale="log")
        vals = np.array([r.analytic for r in run_sweep(cfg, spec, no_mc)])
        assert np.all(np.diff(vals) <= 1e-16)
        assert vals[-1] < vals[0]


def test_criterion_8_byte_identical_csv_across_workers(capsys, tmp_path):
    with verdict(capsys, 8, "same config/trials/seed gives byte-identical CSV for 1 or N workers"):
        cfg = make_cfg(threshold=1.0, avg_snr=db_to_linear(6.0), optical_power=0.25)
        spec = SweepSpec(axis="rf_avg_snr_db", start=0.0, stop=20.0, points=6,
                         quantity="outage")
        runs = {}
        for workers in (1, 4):
            mc = McOptions(trials=200_001, seed=9, workers=workers)
            runs[workers] = emit_csv(run_sweep(cfg, spec, mc))
        assert runs[1] == runs[4]
        assert runs[1].startswith("axis,analytic,mc_estimate,mc_std_error,floor\n")

        # end to end through the command line as well
        import rfvlc.cli as cli
        from rfvlc.config import emit_config, parse_config

        doc = emit_config(parse_config(
            "outage_threshold = 1.0\n"
            "[rf]\nk_factor_db = 6\nbranches = 2\navg_snr_db = 6\n"
            "[vlc]\nsemi_angle_deg = 60\nheight_m = 2\narea_m2 = 1e-4\nfov_deg = 60\n"
            "refractive_index = 1.5\nfilter_gain = 1.0\nresponsivity = 0.4\n"
            "conv_efficiency = 0.8\nnoise_psd = 1e-21\nbandwidth_hz = 2e7\n"
            "optical_power_w = 0.25\n"
            "[sweep]\naxis = rf_avg_snr_db\nstart = 0\nstop = 20\npoints = 6\n"
            "quantity = outage\n"
            "[mc]\ntrials = 200001\nseed = 9\n"
        ))
        cfg_path = tmp_path / "det.cfg"
        cfg_path.write_text(doc, encoding="utf-8")
        outs = {}
        for workers in (1, 4):
            dest = tmp_path / f"w{workers}.csv"
            rc = cli.main([
                "sweep", "--config", str(cfg_path),
                "--workers", str(workers), "--out", str(dest),
            ])
            assert rc == 0
            outs[workers] = dest.read_bytes()
        assert outs[1] == outs[4]
