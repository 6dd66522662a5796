import ast
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rfvlc.cli as cli
import rfvlc.rf_channel as rf_channel
from rfvlc.config import (
    ConfigError,
    SweepSpec,
    db_to_linear,
    emit_config,
    parse_config,
)
from rfvlc.montecarlo import EstimateWithError, McOptions
from rfvlc.sweep import apply_axis, axis_grid, emit_csv, run_sweep

DOC = """\
# two-hop link budget
outage_threshold = 1.0

[rf]
k_factor_db = 5        # Rician factor, dB
branches = 2
avg_snr_db = 7

[vlc]
semi_angle_deg = 60
height_m = 2
area_m2 = 1e-4
fov_deg = 60
refractive_index = 1.5
filter_gain = 1.0
responsivity = 0.4
conv_efficiency = 0.8
noise_psd = 1e-21
bandwidth_hz = 2e7
optical_power_w = 0.25

[sweep]
axis = rf_avg_snr_db
start = 0
stop = 20
points = 5
quantity = outage

[mc]
trials = 20000
seed = 7
workers = 2
"""


def doc_with(**edits):
    """DOC with `key = value` lines swapped in (first occurrence)."""
    text = DOC
    for key, value in edits.items():
        out, done = [], False
        for line in text.splitlines():
            if not done and line.split("=")[0].strip() == key:
                if value is None:
                    done = True
                    continue
                out.append(f"{key} = {value}")
                done = True
            else:
                out.append(line)
        assert done, key
        text = "\n".join(out) + "\n"
    return text


class TestUnits:
    def test_db_round_trip(self):
        for x in [0.01, 1.0, 3.162, 1e4]:
            assert db_to_linear(10.0 * math.log10(x)) == pytest.approx(x, rel=1e-14)
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
        assert db_to_linear(0.0) == 1.0


class TestParse:
    def test_canonical_document(self):
        parsed = parse_config(DOC)
        rf = parsed.system.rf
        assert rf.k_factor == pytest.approx(db_to_linear(5.0), rel=1e-15)
        assert rf.branches == 2
        assert rf.avg_snr == pytest.approx(db_to_linear(7.0), rel=1e-15)
        assert parsed.system.outage_threshold == 1.0
        assert parsed.system.vlc.optical_power == 0.25
        assert parsed.sweep == SweepSpec(
            axis="rf_avg_snr_db", start=0.0, stop=20.0, points=5, quantity="outage"
        )
        assert parsed.sweep.scale == "linear"
        assert (parsed.mc.trials, parsed.mc.seed, parsed.mc.workers) == (20000, 7, 2)

    def test_threshold_in_db(self):
        parsed = parse_config(doc_with(outage_threshold=None) .replace(
            "# two-hop link budget", "outage_threshold_db = 3"))
        assert parsed.system.outage_threshold == pytest.approx(db_to_linear(3.0), rel=1e-15)

    def test_led_pair(self):
        text = doc_with(optical_power_w=None) + "\n[does-not-happen]\n"
        text = text.replace("\n[does-not-happen]\n", "")
        text = text.replace("bandwidth_hz = 2e7", "bandwidth_hz = 2e7\nled_count = 4\nled_power_w = 0.0625")
        parsed = parse_config(text)
        assert parsed.system.vlc.optical_power == pytest.approx(0.25, rel=1e-15)

    def test_sections_optional(self):
        text = DOC.split("[sweep]")[0]
        parsed = parse_config(text)
        assert parsed.sweep is None
        assert parsed.mc.trials == 1_000_000 and parsed.mc.seed == 0 and parsed.mc.workers == 1

    @pytest.mark.parametrize(
        "mangle,needle",
        [
            (lambda t: t.replace("[rf]", "[radio]"), "unknown section"),
            (lambda t: t.replace("[rf]\n", "[rf]\nweird_key = 3\n"), "weird_key"),
            (lambda t: t.replace("[rf]\n", "[rf]\nbranches = 4\n"), "duplicate key"),
            (lambda t: t + "\n[mc]\n", "duplicate section"),
            (lambda t: t.replace("branches = 2", "branches"), "key = value"),
            (lambda t: t.replace("branches = 2", "branches = two"), "needs a int"),
            (lambda t: t.replace("height_m = 2", "height_m = tall"), "needs a float"),
            (lambda t: t.replace("[rf]\n", "[rf]\nk_factor = 3.162\n"), "not both"),
            (lambda t: t.replace("k_factor_db = 5", "unrelated = 1"), "k_factor"),
            (lambda t: t.replace("branches = 2", "other = 2"), "branches"),
            (lambda t: t.replace("outage_threshold = 1.0", "x = 1"), "outage_threshold"),
            (
                lambda t: "outage_threshold = 1.0\n\n[vlc]" + t.split("[vlc]", 1)[1],
                "missing required section",
            ),
            (lambda t: t.replace("optical_power_w = 0.25", "led_count = 4"), "led_power"),
            (
                lambda t: t.replace("optical_power_w = 0.25", "optical_power_w = 0.25\nled_count = 4\nled_power_w = 1"),
                "not both",
            ),
            (lambda t: t.replace("outage_threshold = 1.0", "outage_threshold = -2"), "outage_threshold"),
            (lambda t: t.replace("semi_angle_deg = 60", "semi_angle_deg = 95"), "semi_angle"),
            (lambda t: t.replace("trials = 20000", "trials = 50"), "trials"),
            (lambda t: t.replace("points = 5", "points = 1"), "points"),
            (lambda t: t.replace("axis = rf_avg_snr_db", "axis = voltage"), "axis"),
            (lambda t: t.replace("quantity = outage", "quantity = latency"), "quantity"),
            (lambda t: t.replace("start = 0\nstop = 20", "start = 20\nstop = 3"), "start < stop"),
            (lambda t: t.replace("[sweep]", "[sweep]\nscale = cubic"), "scale"),
            (lambda t: t.replace("outage_threshold = 1.0", "outage_threshold_db = 4000"),
             "'outage_threshold_db': 4000 dB overflows"),
            (lambda t: t.replace("k_factor_db = 5", "k_factor_db = 4000"), "'k_factor_db'"),
            (lambda t: t.replace("avg_snr_db = 7", "avg_snr_db = 4000"), "'avg_snr_db'"),
            (lambda t: t.replace("semi_angle_deg = 60", "semi_angle_deg = 1e-9"), "too small"),
            (
                lambda t: t.replace("optical_power_w = 0.25", f"led_count = {'9' * 400}\nled_power_w = 0.01"),
                "[vlc]: key 'led_count': led_count * led_power_w overflows a float",
            ),
            # the first problem in key order is the one reported
            (
                lambda t: t.replace("semi_angle_deg = 60\n", "").replace("height_m = 2", "height_m = tall"),
                "[vlc]: missing required key 'semi_angle_deg'",
            ),
            (
                lambda t: t.replace("area_m2 = 1e-4\n", "").replace("height_m = 2", "height_m = tall"),
                "key 'height_m' needs a float",
            ),
            (
                lambda t: t.replace("[rf]\n", "[rf]\nk_factor = 3.162\n").replace("branches = 2\n", ""),
                "give 'k_factor' or 'k_factor_db', not both",
            ),
            (
                lambda t: t.replace("[rf]\n", "[rf]\nweird_key = 3\n").replace("height_m = 2", "height_m = tall"),
                "unknown key 'weird_key' in [rf]",
            ),
            (
                lambda t: t.replace("optical_power_w = 0.25", "led_count = 4").replace("points = 5", "points = 1"),
                "[vlc]: missing optical power",
            ),
            (
                lambda t: t.replace("k_factor_db = 5", "k_factor = -1").replace("trials = 20000", "trials = 50"),
                "[rf]: k_factor",
            ),
            # the LED-pair rule is applied while the key table is read, so
            # it comes before the check for unknown keys
            (
                lambda t: t.replace("optical_power_w = 0.25", "led_count = 4\nmystery = 1"),
                "[vlc]: missing optical power; give optical_power_w",
            ),
            (
                lambda t: t.replace("points = 5", "points = 1").replace("trials = 20000", "trials = 50"),
                "[sweep]: points",
            ),
            # the blocks are built in the order [rf], [vlc], top level,
            # [sweep], [mc], the top level's keys and values together
            (
                lambda t: t.replace("outage_threshold = 1.0", "outage_threshold = 1.0\nmystery = 1")
                .replace("branches = 2", "branches = 0"),
                "[rf]: branches must be an integer >= 1, got 0",
            ),
            (
                lambda t: t.replace("outage_threshold = 1.0", "outage_threshold = -1")
                .replace("axis = rf_avg_snr_db", "axis = voltage"),
                "top level: outage_threshold must be finite and > 0, got -1.0",
            ),
            (lambda t: t.replace("[rf]", "[rf"), "malformed section header '[rf'"),
            (
                lambda t: t.replace("optical_power_w = 0.25", "led_count = 0\nled_power_w = 0.1"),
                "[vlc]: led_count must be >= 1, got 0",
            ),
            (
                lambda t: t.replace("axis = rf_avg_snr_db", "axis = branches")
                .replace("start = 0", "start = 1.5").replace("stop = 20", "stop = 4")
                .replace("points = 5", "points = 3"),
                "[sweep]: branches axis requires a grid of integers >= 1",
            ),
        ],
    )
    def test_rejections_name_the_problem(self, mangle, needle):
        with pytest.raises(ConfigError) as ei:
            parse_config(mangle(DOC))
        assert needle in str(ei.value)
        # every message says where the problem is
        assert re.match(r"(line \d+|\[(rf|vlc|sweep|mc)\]|top level): |missing required section ",
                        str(ei.value))

    def test_error_reports_line_number(self):
        bad = DOC.replace("branches = 2", "branches = two")
        lineno = next(i for i, l in enumerate(DOC.splitlines(), 1) if l.startswith("branches"))
        with pytest.raises(ConfigError) as ei:
            parse_config(bad)
        assert f"line {lineno}" in str(ei.value)

    def test_log_sweep_validation(self):
        text = doc_with(start="0", stop="20")  # no-op rewrite, keep values
        text = text.replace("points = 5", "points = 5\nscale = log")
        with pytest.raises(ConfigError) as ei:
            parse_config(text)
        assert "log" in str(ei.value)


def _number(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _documents(draw):
    """A valid config document, its keys in any order within each section,
    SNR-like values spelled linear or in dB, the optical power given
    directly or as the LED pair, and [sweep]/[mc] present or not."""

    def linear_or_db(key, lo_db, hi_db):
        x_db = draw(_number(lo_db, hi_db))
        if draw(st.booleans()):
            return f"{key}_db = {x_db!r}"
        return f"{key} = {10.0 ** (x_db / 10.0)!r}"

    def section(name, lines):
        header = [f"[{name}]"] if name else []
        return "\n".join(header + draw(st.permutations(lines)))

    blocks = [section("", [linear_or_db("outage_threshold", -20.0, 20.0)])]
    blocks.append(section("rf", [
        linear_or_db("k_factor", -10.0, 20.0),
        f"branches = {draw(st.integers(1, 8))}",
        linear_or_db("avg_snr", -10.0, 40.0),
    ]))
    vlc = [
        f"semi_angle_deg = {draw(_number(20.0, 80.0))!r}",
        f"height_m = {draw(_number(1.0, 5.0))!r}",
        f"area_m2 = {draw(_number(1e-5, 1e-3))!r}",
        f"fov_deg = {draw(_number(30.0, 90.0))!r}",
        f"refractive_index = {draw(_number(1.0, 2.0))!r}",
        f"filter_gain = {draw(_number(0.5, 2.0))!r}",
        f"responsivity = {draw(_number(0.1, 1.0))!r}",
        f"conv_efficiency = {draw(_number(0.1, 1.0))!r}",
        f"noise_psd = {draw(_number(1e-22, 1e-20))!r}",
        f"bandwidth_hz = {draw(_number(1e6, 1e8))!r}",
    ]
    if draw(st.booleans()):
        vlc.append(f"optical_power_w = {draw(_number(0.01, 10.0))!r}")
    else:
        vlc += [f"led_count = {draw(st.integers(1, 50))}",
                f"led_power_w = {draw(_number(1e-3, 0.5))!r}"]
    blocks.append(section("vlc", vlc))
    if draw(st.booleans()):
        axis = draw(st.sampled_from(['rf_avg_snr_db', 'optical_power_w', 'semi_angle_deg', 'branches']))
        if axis == "branches":
            # a linear grid of integers >= 1, as the spec requires
            start, points = draw(st.integers(1, 8)), draw(st.integers(2, 8))
            stop = start + draw(st.integers(1, 4)) * (points - 1)
            scales = ["linear"]
        else:
            start, points = draw(_number(0.1, 10.0)), draw(st.integers(2, 50))
            stop = start + draw(_number(0.5, 30.0))
            scales = ["linear", "log"]
        sweep = [
            f"axis = {axis}",
            f"start = {float(start)!r}",
            f"stop = {float(stop)!r}",
            f"points = {points}",
            f"quantity = {draw(st.sampled_from(['outage', 'ber']))}",
        ]
        if draw(st.booleans()):
            sweep.append(f"scale = {draw(st.sampled_from(scales))}")
        blocks.append(section("sweep", sweep))
    if draw(st.booleans()):
        mc = draw(st.lists(st.sampled_from([
            f"trials = {draw(st.integers(1000, 10**7))}",
            f"seed = {draw(st.integers(0, 2**64 - 1))}",
            f"workers = {draw(st.integers(1, 8))}",
        ]), unique=True))
        blocks.append(section("mc", mc))
    return "\n\n".join(blocks) + "\n"


class TestEmit:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(doc=_documents())
    def test_round_trip_property(self, doc):
        parsed = parse_config(doc)
        text = emit_config(parsed)
        assert parse_config(text) == parsed
        assert emit_config(parse_config(text)) == text

    def test_round_trip_exact(self):
        parsed = parse_config(DOC)
        assert parse_config(emit_config(parsed)) == parsed

    def test_round_trip_without_optional_sections(self):
        parsed = parse_config(DOC.split("[sweep]")[0])
        again = parse_config(emit_config(parsed))
        assert again == parsed
        assert again.sweep is None

    def test_led_pair_round_trip(self):
        # the pair is written back as its product, under optical_power_w
        doc = DOC.replace("optical_power_w = 0.25", "led_count = 3\nled_power_w = 0.1")
        parsed = parse_config(doc)
        text = emit_config(parsed)
        assert "optical_power_w = 0.30000000000000004\n" in text and "led_" not in text
        assert parse_config(text) == parsed

    def test_emitted_values_are_linear(self):
        text = emit_config(parse_config(DOC))
        assert "k_factor = 3.1622776601683795" in text
        assert "k_factor_db" not in text and "avg_snr_db =" not in text


@pytest.mark.parametrize("build,value,message", [
    (lambda v: rf_channel.RfParams(1.0, v, 10.0), 2, "branches must be an integer >= 1"),
    (lambda v: McOptions(trials=v), 4096, "trials must be an integer >= 1000"),
    (lambda v: McOptions(seed=v), 1, "seed must be an unsigned 64-bit integer"),
    (lambda v: McOptions(workers=v), 1, "workers must be an integer >= 1"),
    (lambda v: SweepSpec("rf_avg_snr_db", 0.0, 20.0, v, "outage"), 2,
     "points must be an integer >= 2"),
], ids=["branches", "trials", "seed", "workers", "points"])
def test_one_integer_rule(build, value, message):
    # an int or a numpy integer is accepted, a bool or a float is not
    for accepted in (value, np.int64(value), np.uint16(value)):
        build(accepted)
    for refused in (True, float(value)):
        with pytest.raises(ValueError, match=re.escape(f"{message}, got {refused!r}")):
            build(refused)


class TestAxisGrid:
    def test_linear_and_log(self):
        lin = axis_grid(SweepSpec("rf_avg_snr_db", 0.0, 20.0, 5, "outage"))
        np.testing.assert_allclose(lin, [0, 5, 10, 15, 20])
        log = axis_grid(SweepSpec("optical_power_w", 0.01, 1.0, 3, "ber", scale="log"))
        np.testing.assert_allclose(log, [0.01, 0.1, 1.0], rtol=1e-12)

    def test_branch_grid_must_be_integral(self):
        grid = axis_grid(SweepSpec("branches", 1.0, 4.0, 4, "outage"))
        np.testing.assert_allclose(grid, [1, 2, 3, 4])
        # the spec checks its own grid when it is built
        with pytest.raises(ValueError) as ei:
            SweepSpec("branches", 1.0, 4.0, 5, "outage")
        assert "integer" in str(ei.value)


class TestApplyAxis:
    def test_each_axis(self):
        cfg = parse_config(DOC).system
        c1 = apply_axis(cfg, "rf_avg_snr_db", 13.0)
        assert c1.rf.avg_snr == pytest.approx(db_to_linear(13.0), rel=1e-15)
        c2 = apply_axis(cfg, "optical_power_w", 0.5)
        assert c2.vlc.optical_power == 0.5
        c3 = apply_axis(cfg, "semi_angle_deg", 45.0)
        assert c3.vlc.semi_angle == 45.0
        c4 = apply_axis(cfg, "branches", 3.0)
        assert c4.rf.branches == 3 and isinstance(c4.rf.branches, int)
        # original untouched
        assert cfg.rf.branches == 2 and cfg.vlc.optical_power == 0.25

    def test_unknown_axis(self):
        cfg = parse_config(DOC).system
        with pytest.raises(ValueError):
            apply_axis(cfg, "noise_floor", 1.0)


class TestRunSweep:
    def test_analytic_only(self):
        parsed = parse_config(DOC)
        records = run_sweep(parsed.system, parsed.sweep, None)
        assert len(records) == 5
        vals = [r.analytic for r in records]
        assert all(x > y for x, y in zip(vals, vals[1:]))  # outage falls with snr
        assert all(r.mc_estimate is None and r.mc_std_error is None for r in records)
        assert all(r.floor == records[0].floor for r in records)  # axis leaves floor alone

    def test_with_mc(self):
        parsed = parse_config(DOC)
        records = run_sweep(parsed.system, parsed.sweep, parsed.mc)
        for r in records:
            assert r.mc_estimate is not None
            assert abs(r.mc_estimate - r.analytic) < 6.0 * r.mc_std_error + 1e-9

    def test_convergence_error_carries_grid_mask(self):
        # K = 20 dB with M = 4 over 0..20 dB: the series runs out of terms
        # from 10 dB on, and entry i of the mask is grid point i
        from rfvlc.specfun import ConvergenceError

        parsed = parse_config(doc_with(k_factor_db="20", branches="4"))
        with pytest.raises(ConvergenceError) as ei:
            run_sweep(parsed.system, parsed.sweep, None)
        assert ei.value.unconverged.tolist() == [False, False, True, True, True]

    def test_error_carries_axis_context(self):
        from rfvlc.specfun import ConvergenceError

        parsed = parse_config(doc_with(k_factor_db="50", branches="4"))
        with pytest.raises(ConvergenceError) as ei:
            run_sweep(parsed.system, parsed.sweep, None)
        assert "rf_avg_snr_db = 0" in str(ei.value)

    @pytest.mark.parametrize("quantity", ["outage", "ber"])
    def test_first_failing_grid_point_raises(self, quantity):
        # K = 20 dB with M = 4: the series runs out of terms at 1000 dB, and
        # 4000 dB overflows to an infinite SNR later on the same grid
        from rfvlc.specfun import ConvergenceError

        parsed = parse_config(doc_with(k_factor_db="20", branches="4"))
        spec = SweepSpec("rf_avg_snr_db", 0.0, 4000.0, 5, quantity)
        with pytest.raises(ConvergenceError, match="^at rf_avg_snr_db = 1000: "):
            run_sweep(parsed.system, spec, None)
        # with every series converging, the later failure is the first one
        with pytest.raises(ValueError, match="^at rf_avg_snr_db = 4000: "):
            run_sweep(parse_config(DOC).system, spec, None)
        spec = SweepSpec("semi_angle_deg", 30.0, 90.0, 3, quantity)
        with pytest.raises(ValueError, match="^at semi_angle_deg = 90: "):
            run_sweep(parse_config(DOC).system, spec, None)

    def test_degenerate_span(self):
        # a two-point grid over a vanishing span gives twin records
        parsed = parse_config(DOC)
        spec = SweepSpec("rf_avg_snr_db", 10.0, 10.0 + 1e-9, 2, "outage")
        a, b = run_sweep(parsed.system, spec, None)
        assert a.analytic == pytest.approx(b.analytic, rel=1e-8)
        assert a.floor == b.floor

    def test_ber_floor_column_is_radio_ber(self):
        from rfvlc.rf_channel import rf_avg_ber

        parsed = parse_config(DOC)
        spec = SweepSpec("optical_power_w", 0.05, 0.5, 4, "ber", scale="log")
        records = run_sweep(parsed.system, spec, None)
        want = rf_avg_ber(parsed.system.rf)
        assert all(r.floor == want for r in records)


class TestCsv:
    def test_format(self):
        parsed = parse_config(DOC)
        records = run_sweep(parsed.system, parsed.sweep, parsed.mc)
        text = emit_csv(records)
        lines = text.split("\n")
        assert lines[0] == "axis,analytic,mc_estimate,mc_std_error,floor"
        assert len(lines) == 7 and lines[-1] == ""  # header + 5 rows + trailing newline
        assert "\r" not in text
        first = lines[1].split(",")
        assert len(first) == 5
        assert float(first[0]) == 0.0
        # twelve significant digits
        assert first[1] == f"{records[0].analytic:.12g}"

    def test_parse_back_round_trip(self):
        # reading the emitted text back recovers every value to at least
        # ten significant digits
        parsed = parse_config(DOC)
        records = run_sweep(parsed.system, parsed.sweep, parsed.mc)
        lines = emit_csv(records).strip().split("\n")[1:]
        for row, rec in zip(lines, records):
            axis, analytic, est, se, floor = row.split(",")
            assert float(axis) == pytest.approx(rec.axis_value, rel=1e-10, abs=1e-300)
            assert float(analytic) == pytest.approx(rec.analytic, rel=1e-10, abs=1e-300)
            assert float(est) == pytest.approx(rec.mc_estimate, rel=1e-10, abs=1e-300)
            assert float(se) == pytest.approx(rec.mc_std_error, rel=1e-10, abs=1e-300)
            assert float(floor) == pytest.approx(rec.floor, rel=1e-10, abs=1e-300)

    def test_disabled_mc_leaves_cells_empty(self):
        parsed = parse_config(DOC)
        text = emit_csv(run_sweep(parsed.system, parsed.sweep, None))
        row = text.split("\n")[1].split(",")
        assert row[2] == "" and row[3] == ""
        assert row[1] != "" and row[4] != ""


def _child_env():
    """The environment of a child interpreter that imports the package this
    test imported, installed or not."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


@pytest.fixture()
def cfg_file(tmp_path):
    def write(text, name="link.cfg"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestCli:
    def test_outage_report(self, cfg_file, capsys):
        rc = cli.main(["outage", "--config", cfg_file(DOC)])
        out = capsys.readouterr().out
        assert rc == 0
        got = dict(line.split(" = ") for line in out.strip().splitlines())
        assert got["quantity"] == "outage"
        assert float(got["analytic"]) == pytest.approx(0.110, abs=0.01)
        assert float(got["mc_estimate"]) == pytest.approx(float(got["analytic"]), abs=0.02)
        assert got["mc_trials"] == "20000" and got["mc_seed"] == "7"
        assert float(got["floor"]) < float(got["analytic"])

    def test_ber_report_no_mc(self, cfg_file, capsys):
        rc = cli.main(["ber", "--config", cfg_file(DOC), "--no-mc"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mc_estimate" not in out
        assert "analytic = " in out

    def test_overrides(self, cfg_file, capsys):
        rc = cli.main(["outage", "--config", cfg_file(DOC), "--trials", "4096", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        got = dict(line.split(" = ") for line in out.strip().splitlines())
        assert got["mc_trials"] == "4096" and got["mc_seed"] == "3"

    @pytest.mark.parametrize("quantity", ["outage", "ber"])
    def test_point_report_runs_one_radio_series(self, cfg_file, capsys, monkeypatch, quantity):
        # the analytic value and its floor come from one batch call
        real, calls = rf_channel.poisson_weighted_sum, []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(rf_channel, "poisson_weighted_sum", counted)
        assert cli.main([quantity, "--config", cfg_file(DOC), "--no-mc"]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_sweep_to_file(self, cfg_file, tmp_path, capsys):
        dest = tmp_path / "out.csv"
        rc = cli.main(["sweep", "--config", cfg_file(DOC), "--out", str(dest)])
        capsys.readouterr()
        assert rc == 0
        text = dest.read_text(encoding="utf-8")
        assert text.startswith("axis,analytic,mc_estimate,mc_std_error,floor\n")
        assert len(text.split("\n")) == 7

    def test_sweep_needs_sweep_section(self, cfg_file, capsys):
        rc = cli.main(["sweep", "--config", cfg_file(DOC.split("[sweep]")[0])])
        err = capsys.readouterr().err
        assert rc == 2
        assert "sweep" in err

    def test_validate_passes(self, cfg_file, capsys):
        rc = cli.main(["validate", "--config", cfg_file(DOC), "--trials", "50000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "validation passed" in out
        assert "outage:" in out and "ber:" in out

    def test_validate_gate_failure(self, cfg_file, capsys, monkeypatch):
        real = cli.simulate

        def skewed(cfgs, trials, seed, **kw):
            skew = EstimateWithError(estimate=0.9, std_error=1e-6, trials=trials, seed=seed)
            return [(skew, ber) for _, ber in real(cfgs, trials, seed, **kw)]

        monkeypatch.setattr(cli, "simulate", skewed)
        rc = cli.main(["validate", "--config", cfg_file(DOC), "--trials", "2000"])
        out = capsys.readouterr().out
        assert rc == 4
        assert "FAIL" in out
        lines = out.splitlines()
        assert lines[0].startswith("outage:") and lines[0].endswith("FAIL")
        assert lines[1].startswith("ber:") and lines[1].endswith("OK")

    def test_validate_draws_each_chunk_once(self, cfg_file, capsys, monkeypatch):
        real, keys = np.random.SFC64, []

        def counted(seed_seq):
            keys.append(seed_seq.spawn_key)
            return real(seed_seq)

        monkeypatch.setattr(np.random, "SFC64", counted)
        rc = cli.main(["validate", "--config", cfg_file(DOC), "--trials", str(2 * 65536 + 1)])
        assert rc == 0
        assert "validation passed" in capsys.readouterr().out
        assert sorted(keys) == [(0,), (1,), (2,)]

    def test_mid_grid_convergence_error_matches_no_mc(self, cfg_file, capsys):
        # K = 20 dB with M = 4 converges at 0 and 5 dB, not at 10 dB
        path = cfg_file(doc_with(k_factor_db="20", branches="4"))
        reports = []
        for extra in ([], ["--no-mc"]):
            rc = cli.main(["sweep", "--config", path] + extra)
            captured = capsys.readouterr()
            reports.append((rc, captured.out, captured.err))
        assert reports[0] == reports[1]
        rc, out, err = reports[0]
        assert rc == 3 and out == ""
        assert err == (
            "convergence error: at rf_avg_snr_db = 10: Poisson-weighted series did not "
            "converge: rate=400, max_terms=512, rel_tol=1e-10\n"
        )

    @pytest.mark.parametrize("command", ["outage", "ber"])
    @pytest.mark.parametrize("k_line, branches, rate", [
        ("k_factor_db = 100", 1, "1e+10"),
        ("k_factor = 1e20", 1, "1e+20"),
        ("k_factor = 1e300", 1, "1e+300"),
        ("k_factor = 1e308", 2, "inf"),  # K * M overflows
    ])
    def test_rate_beyond_the_budget_is_refused_unbuilt(self, cfg_file, capsys, monkeypatch,
                                                      command, k_line, branches, rate):
        # no term is built for a rate no sum could converge at, where an
        # anchor would run for minutes or a float overflow
        def unbuilt(*args):
            raise AssertionError("a series term was built")

        monkeypatch.setattr(rf_channel, "GammaTerms", unbuilt)
        monkeypatch.setattr(rf_channel, "BetaTerms", unbuilt)
        doc = (DOC.replace("k_factor_db = 5", k_line).replace("branches = 2", f"branches = {branches}")
               .replace("avg_snr_db = 7", "avg_snr_db = 0"))
        rc = cli.main([command, "--no-mc", "--config", cfg_file(doc)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (3, "")
        assert captured.err == ("convergence error: Poisson-weighted series did not converge: "
                                f"rate={rate}, max_terms=512, rel_tol=1e-10\n")

    @pytest.mark.parametrize("command", ["outage", "sweep"])
    def test_unwritable_out_is_config_error(self, cfg_file, tmp_path, capsys, command):
        dest = tmp_path / "missing" / "x"
        rc = cli.main([command, "--config", cfg_file(DOC), "--no-mc", "--out", str(dest)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err.startswith("config error: cannot write output file: ")
        assert not dest.parent.exists()

    @pytest.mark.parametrize("text", [DOC, DOC.partition("\n")[2]], ids=["comment", "key"])
    def test_byte_order_mark_is_dropped(self, tmp_path, capsys, text):
        # the mark would otherwise start the first line's key (or comment)
        outs = []
        for encoding in ("utf-8", "utf-8-sig"):
            path = tmp_path / f"{encoding}.cfg"
            path.write_text(text, encoding=encoding)
            assert cli.main(["outage", "--config", str(path)]) == 0
            outs.append(capsys.readouterr().out.encode())
        assert outs[0] == outs[1]

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        rc = cli.main(["outage", "--config", str(tmp_path / "absent.cfg")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_config_exit_code(self, cfg_file, capsys):
        rc = cli.main(["outage", "--config", cfg_file(DOC.replace("[rf]", "[radio]"))])
        assert rc == 2

    @pytest.mark.parametrize("extra", [[], ["--no-mc"]])
    def test_sweep_grid_errors_are_config_errors(self, cfg_file, capsys, extra):
        # a dB grid past the float range, and a semi-angle with no finite
        # Lambertian order, fail at their grid point with exit 2
        for edits, prefix in (
            (dict(stop="4000", points="3"), "at rf_avg_snr_db = 4000: "),
            (dict(axis="semi_angle_deg", start="1e-9", stop="30"), "at semi_angle_deg = 1e-09: "),
        ):
            rc = cli.main(["sweep", "--config", cfg_file(doc_with(**edits))] + extra)
            captured = capsys.readouterr()
            assert (rc, captured.out) == (2, "")
            assert captured.err.startswith("config error: " + prefix)

    @pytest.mark.parametrize(
        "command,angle,height",
        [
            (["outage", "--no-mc"], "1", "2"),    # height ** (m + 1) overflowed
            (["outage", "--no-mc"], "1", "0.5"),  # ... underflowed to 0
            (["outage"], "2.5", "2"),             # upsilon ** 2 overflowed in MC
            (["outage", "--no-mc"], "2.5", "2"),  # printed numbers before
            (["validate"], "2.5", "2"),
            (["outage"], "3", "2"),               # MC saw an infinite optical SNR
        ],
        ids=["no-mc-1deg-2m", "no-mc-1deg-0.5m", "mc-2.5deg-2m", "no-mc-2.5deg-2m",
             "validate-2.5deg-2m", "mc-3deg-2m"],
    )
    def test_narrow_beam_is_config_error(self, cfg_file, capsys, command, angle, height):
        path = cfg_file(doc_with(semi_angle_deg=angle, height_m=height))
        rc = cli.main(command + ["--config", path])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err.startswith("config error: [vlc]: the optical SNR scale")
        assert f"semi_angle {angle} degrees" in captured.err

    @pytest.mark.parametrize("command", [["outage", "--no-mc"], ["outage"], ["validate"]])
    @pytest.mark.parametrize(
        "edits",
        [dict(semi_angle_deg="2.11", area_m2="1e-200"),  # height ** (m + 3) overflowed
         dict(height_m="1e-160", area_m2="1e300")],      # ... underflowed to 0
        ids=["2.11deg-1e-200m2", "1e-160m-1e300m2"],
    )
    def test_snr_outside_float_range_is_config_error(self, cfg_file, capsys, command, edits):
        rc = cli.main(command + ["--config", cfg_file(doc_with(**edits))])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err.startswith("config error: [vlc]: the optical SNR mu_vlc * (upsilon")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("extra", [[], ["--no-mc"]])
    def test_narrow_beam_sweep_names_the_grid_point(self, cfg_file, capsys, extra):
        path = cfg_file(doc_with(axis="semi_angle_deg", start="0.5", stop="8", points="16"))
        rc = cli.main(["sweep", "--config", path] + extra)
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err.startswith("config error: at semi_angle_deg = 0.5: the optical SNR")

    def test_narrow_accepted_beam_validates(self, cfg_file, capsys):
        # a threshold inside the optical SNR range: at 3 degrees the Monte
        # Carlo saw an infinite optical SNR and reported no outage where the
        # closed form gives 0.39; at 3.5 degrees both agree
        # on the outage; the BER estimate has no spread, so it carries no
        # evidence and its row is inconclusive
        doc = doc_with(semi_angle_deg="3.5", avg_snr_db="90")
        path = cfg_file(doc.replace("outage_threshold = 1.0", "outage_threshold = 5e6"))
        assert cli.main(["validate", "--config", path]) == 5
        outage, ber, summary = capsys.readouterr().out.splitlines()
        assert outage.startswith("outage:") and outage.endswith("-> OK")
        assert ber.startswith("ber:") and ber.endswith("-> INCONCLUSIVE")
        assert summary.startswith("validation inconclusive ")

    def test_validate_without_evidence_is_inconclusive(self, cfg_file, capsys):
        # at 5 W both hops almost never fail: no outage event and a BER
        # estimate many orders below the closed form sit inside the absolute
        # gate slack, so they agree, but neither is evidence
        path = cfg_file(doc_with(branches="4", avg_snr_db="25", optical_power_w="5"))
        assert cli.main(["validate", "--config", path, "--trials", "200000"]) == 5
        lines = capsys.readouterr().out.splitlines()
        assert [line.rsplit(" -> ", 1)[-1] for line in lines[:2]] == ["INCONCLUSIVE"] * 2
        assert lines[2].startswith("validation inconclusive ")
        assert not any("validation passed" in line for line in lines)
        # the BER row's z is some 1e44 standard errors: six significant
        # digits of it, not the float's noise as a 45-digit integer
        for line in lines[:2]:
            z = re.search(r", z = (\S+) -> ", line).group(1)
            assert len(re.sub(r"e.*|\D", "", z).lstrip("0")) <= 6, line

    def test_precise_estimate_far_from_the_closed_form_is_inconclusive(self, cfg_file, capsys):
        # at 2 W the radio BER is carried by deep fades that 2e5 plain
        # draws never reach: the estimate is precise (relative SE 2%) but
        # 1.7e11 standard errors below the closed form, inside the absolute
        # failure slack; that is no evidence either way, so no OK
        path = cfg_file(doc_with(branches="4", avg_snr_db="25", optical_power_w="2"))
        assert cli.main(["validate", "--config", path, "--trials", "200000"]) == 5
        outage, ber, summary = capsys.readouterr().out.splitlines()
        assert outage == ("outage: analytic = 4.10692739275e-15, mc = 0, se = 0, "
                          "z = inf -> INCONCLUSIVE")
        assert ber == ("ber: analytic = 1.45746260321e-14, mc = 4.46913421755e-24, "
                       "se = 8.51599786519e-26, z = 1.71144e+11 -> INCONCLUSIVE")
        assert summary.startswith("validation inconclusive ")

    def test_bad_override_exit_code(self, cfg_file, capsys):
        for extra in ([], ["--no-mc"]):
            rc = cli.main(["outage", "--config", cfg_file(DOC), "--trials", "10"] + extra)
            captured = capsys.readouterr()
            assert (rc, captured.out) == (2, "")
            assert captured.err == "config error: trials must be an integer >= 1000, got 10\n"

    def test_convergence_exit_code(self, cfg_file, capsys):
        rc = cli.main(["outage", "--config", cfg_file(doc_with(k_factor_db="50", branches="4")), "--no-mc"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "convergence error" in err

    def test_console_script_entry_point(self, cfg_file):
        proc = subprocess.run(
            [sys.executable, "-m", "rfvlc.cli", "ber", "--config", cfg_file(DOC), "--no-mc"],
            capture_output=True,
            text=True,
            timeout=120,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert "analytic = " in proc.stdout


def _fresh_interpreter(code):
    """The last stdout line of `code` run in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


class _ScipyImports(ast.NodeVisitor):
    """Every scipy import statement of a module, as the dotted name of the
    function or class that encloses it ("" at module level)."""

    def __init__(self):
        self.scope, self.found = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Import(self, node):
        self.found += [".".join(self.scope) for alias in node.names
                       if alias.name.split(".")[0] == "scipy"]

    def visit_ImportFrom(self, node):
        if node.level == 0 and node.module.split(".")[0] == "scipy":
            self.found.append(".".join(self.scope))


class TestScipyImport:
    """No command imports scipy, closed form or Monte Carlo: only the radio
    density `mrc_snr_pdf` needs it, and no command calls it."""

    def test_only_the_radio_density_imports_scipy(self):
        found = []
        for path in sorted(pathlib.Path(rf_channel.__file__).parent.glob("*.py")):
            visitor = _ScipyImports()
            visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
            found += [(path.stem, scope) for scope in visitor.found]
        assert found == [("rf_channel", "mrc_snr_pdf")]

    @pytest.mark.parametrize("module", ["rfvlc", "rfvlc.cli"])
    def test_import_leaves_scipy_out(self, module):
        assert _fresh_interpreter(f"import sys, {module}; print('scipy' in sys.modules)") == "False"

    @pytest.mark.parametrize(
        "args, loaded",
        [
            (["outage"], False),
            (["outage", "--no-mc"], False),
            (["sweep"], False),
            (["sweep", "--no-mc"], False),
            (["ber", "--no-mc"], False),
            (["ber"], False),
            (["validate"], False),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
    )
    def test_commands(self, cfg_file, args, loaded):
        argv = args[:1] + ["--config", cfg_file(DOC), "--trials", "20000"] + args[1:]
        code = ("import sys, rfvlc.cli; rc = rfvlc.cli.main(%r); "
                "print(rc, 'scipy' in sys.modules)" % argv)
        assert _fresh_interpreter(code) == f"0 {loaded}"

    @pytest.mark.parametrize("extra", [[], ["--no-mc"]], ids=["mc", "no-mc"])
    def test_ber_sweeps(self, cfg_file, extra):
        path = cfg_file(doc_with(quantity="ber"))
        argv = ["sweep", "--config", path, "--trials", "20000"] + extra
        code = ("import sys, rfvlc.cli; rc = rfvlc.cli.main(%r); "
                "print(rc, 'scipy' in sys.modules)" % argv)
        assert _fresh_interpreter(code) == "0 False"

    def test_first_import_in_worker_threads(self, cfg_file):
        # the first BER pass reaches erfc in two pool threads at once: it
        # imports nothing there, and the estimate equals the one-thread one
        code = (
            "import sys; from rfvlc import parse_config, simulate_ber\n"
            f"cfg = parse_config(open({cfg_file(DOC)!r}).read()).system\n"
            "two = simulate_ber(cfg, 3 * 65536 + 17, 5, workers=2)\n"
            "one = simulate_ber(cfg, 3 * 65536 + 17, 5, workers=1)\n"
            "print(two == one, 'scipy' in sys.modules)"
        )
        assert _fresh_interpreter(code) == "True False"


class TestPoolImport:
    """The Monte Carlo runs its chunks on plain threads and never imports
    concurrent.futures, with one thread or with several."""

    def test_commands_leave_concurrent_futures_out(self, cfg_file):
        path = cfg_file(DOC)  # [mc] workers = 2, trials = 20000: one chunk
        code = (
            "import sys, rfvlc.cli\n"
            f"a = rfvlc.cli.main(['validate', '--config', {path!r}, '--workers', '1'])\n"
            f"b = rfvlc.cli.main(['sweep', '--config', {path!r}, '--no-mc'])\n"
            f"c = rfvlc.cli.main(['outage', '--config', {path!r}])\n"
            f"d = rfvlc.cli.main(['outage', '--config', {path!r}, '--trials', '70000'])\n"
            "print(a, b, c, d, 'concurrent.futures' in sys.modules)"
        )
        assert _fresh_interpreter(code) == "0 0 0 0 False"


class TestExit:
    """The CLI freezes its import graph, so the collections at exit skip it;
    nothing else about how a command ends may change."""

    def test_only_the_cli_import_freezes(self):
        code = ("import gc, rfvlc; bare = gc.get_freeze_count(); import rfvlc.cli; "
                "print(bare, gc.get_freeze_count() > 0, gc.isenabled())")
        assert _fresh_interpreter(code) == "0 True True"

    @pytest.mark.parametrize("points", [5, 600])
    def test_output_reaches_a_pipe_in_full(self, cfg_file, tmp_path, points):
        # a pipe's stdout is block-buffered unless PYTHONUNBUFFERED is set,
        # so the child runs without it: 5 rows stay in the buffer until the
        # flush at exit, and 600 rows are several buffers long
        doc = doc_with(k_factor_db=17, branches=4, start=-10, stop=30, points=points)
        path, dest = cfg_file(doc), tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", path, "--no-mc", "--out", str(dest)]) == 0
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run(
            [sys.executable, "-m", "rfvlc.cli", "sweep", "--config", path, "--no-mc"],
            stdout=subprocess.PIPE, timeout=120, env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout == dest.read_bytes()
        assert proc.stdout.count(b"\n") == points + 1
