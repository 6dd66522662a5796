"""The benchmark's workloads: config generation from the seed, and output checks.

Every workload is one `rfvlc` CLI command on a generated config.  The seed
sets `[mc] seed` on the Monte Carlo workloads and, on the analytic one,
shifts the grid by a seed-derived fraction of one grid step; nothing else
depends on it.

The checks do not rely on bit-identity of the random stream, which a
later change may alter on purpose.  The analytic outage column is compared
with an independent route (scipy's noncentral chi-square CDF for the radio
hop, combined with the optical CDF as F_rf + F_vlc - F_rf F_vlc), and the
Monte Carlo column with the analytic one, in standard errors.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass

CSV_HEADER = "axis,analytic,mc_estimate,mc_std_error,floor"
ANALYTIC_REL_TOL = 1e-9
MC_GATE_SE = 4.0
MC_GATE_ABS = 1e-12
RELIABLE_EVENTS = 100.0

THRESHOLD = 1.0
VLC = {
    "semi_angle_deg": 60.0,
    "height_m": 2.0,
    "area_m2": 1e-4,
    "fov_deg": 60.0,
    "refractive_index": 1.5,
    "filter_gain": 1.0,
    "responsivity": 0.4,
    "conv_efficiency": 0.8,
    "noise_psd": 1e-21,
    "bandwidth_hz": 2e7,
    "optical_power_w": 0.25,
}
REF_RF = {"k_factor_db": 5.0, "branches": 2, "avg_snr_db": 7.0}
LOS_RF = {"k_factor_db": 17.0, "branches": 4, "avg_snr_db": 7.0}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                # CLI subcommand
    rf: dict
    sweep: dict | None = None   # [sweep] section; None for validate
    trials: int = 0             # [mc] trials; 0 means --no-mc
    workers: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "validate-ref",
            "MC-dominated single point: both estimates at the reference cell, "
            "one thread, sweep layer bypassed, closed forms negligible",
            "validate", REF_RF, trials=2_000_000, workers=1,
        ),
        Workload(
            "sweep-outage-mc",
            "21-point outage sweep with 1e6 trials per point on a 2-thread pool; "
            "redraws the same chunk stream at every point",
            "sweep", REF_RF,
            sweep={"axis": "rf_avg_snr_db", "start": 0.0, "stop": 20.0,
                   "points": 21, "quantity": "outage"},
            trials=1_000_000, workers=2,
        ),
        Workload(
            "sweep-outage-los-analytic",
            "600-point closed-form outage sweep at K = 17 dB, M = 4: long "
            "Poisson-mixture series, Monte Carlo bypassed",
            "sweep", LOS_RF,
            sweep={"axis": "rf_avg_snr_db", "start": -10.0, "stop": 30.0,
                   "points": 600, "quantity": "outage"},
        ),
    )
}


def sections(w: Workload, seed: int) -> dict:
    """The config document for workload `w` under `seed`, as sections."""
    doc = {"": {"outage_threshold": THRESHOLD}, "rf": dict(w.rf), "vlc": dict(VLC)}
    if w.sweep is not None:
        sweep = dict(w.sweep)
        if w.trials == 0:
            step = (sweep["stop"] - sweep["start"]) / (sweep["points"] - 1)
            offset = random.Random(seed).random() * step
            sweep["start"] += offset
            sweep["stop"] += offset
        doc["sweep"] = sweep
    if w.trials:
        doc["mc"] = {"trials": w.trials, "seed": seed % 2**64, "workers": w.workers}
    return doc


def config_text(doc: dict) -> str:
    lines = []
    for name, keys in doc.items():
        if name:
            lines.append(f"[{name}]")
        lines += [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
                  for k, v in keys.items()]
    return "\n".join(lines) + "\n"


def cli_args(w: Workload, config_path: str, out_path: str) -> list[str]:
    args = [w.command, "--config", config_path, "--out", out_path]
    if w.command != "validate" and w.trials == 0:
        args.append("--no-mc")
    return args


def seed_dependence(w: Workload, seed: int) -> list[str]:
    """Config keys that differ between `seed` and `seed + 1`."""
    a, b = sections(w, seed), sections(w, seed + 1)
    return sorted(f"{s}.{k}" for s in a for k in a[s] if a[s][k] != b[s][k])


def expected_seed_keys(w: Workload) -> list[str]:
    return ["mc.seed"] if w.trials else ["sweep.start", "sweep.stop"]


def _db(x):
    return 10.0 ** (x / 10.0)


def independent_outage(doc: dict, avg_snr_db):
    """Outage from scipy's noncentral chi-square CDF for the radio hop and
    the package's optical CDF, combined as F_rf + F_vlc - F_rf F_vlc."""
    import numpy as np
    from scipy import stats

    from rfvlc.vlc_channel import VlcParams, derive, vlc_snr_cdf

    rf, vlc = doc["rf"], doc["vlc"]
    k, m = _db(rf["k_factor_db"]), rf["branches"]
    threshold = doc[""]["outage_threshold"]
    mu = _db(np.asarray(avg_snr_db, dtype=float))
    f_rf = stats.ncx2.cdf(2.0 * (k + 1.0) * threshold / mu, 2 * m, 2.0 * k * m)
    params = VlcParams(
        semi_angle=vlc["semi_angle_deg"], height=vlc["height_m"], area=vlc["area_m2"],
        fov=vlc["fov_deg"], refractive_index=vlc["refractive_index"],
        filter_gain=vlc["filter_gain"], responsivity=vlc["responsivity"],
        conv_efficiency=vlc["conv_efficiency"], noise_psd=vlc["noise_psd"],
        bandwidth=vlc["bandwidth_hz"], optical_power=vlc["optical_power_w"],
    )
    f_vlc = vlc_snr_cdf(threshold, derive(params))
    return f_rf + f_vlc - f_rf * f_vlc


@dataclass
class Checked:
    problems: list
    estimates: int   # Monte Carlo estimates in the output
    points: int      # parameter points evaluated


def _mc_problem(label, analytic, est, se, trials):
    if est * trials < RELIABLE_EVENTS:
        return None
    if abs(est - analytic) > MC_GATE_SE * se + MC_GATE_ABS:
        return (f"{label}: mc {est:.6g} is {abs(est - analytic) / se:.1f} standard "
                f"errors from analytic {analytic:.6g}")
    return None


def _rel_problem(label, got, want):
    if abs(got - want) > ANALYTIC_REL_TOL * abs(want):
        return f"{label}: analytic {got:.12g} differs from independent {want:.12g}"
    return None


def check(w: Workload, doc: dict, text: str) -> Checked:
    """Problems found in the output `text` of workload `w` on config `doc`."""
    if w.command == "validate":
        return _check_validate(w, doc, text)
    return _check_sweep(w, doc, text)


_VALIDATE_ROW = re.compile(
    r"^(\w+): analytic = (\S+), mc = (\S+), se = (\S+), z = \S+ -> (OK|FAIL)$", re.M)


def _check_validate(w, doc, text):
    problems = []
    rows = {m[1]: tuple(float(x) for x in m.groups()[1:4])
            for m in _VALIDATE_ROW.finditer(text)}
    if sorted(rows) != ["ber", "outage"]:
        problems.append(f"expected outage and ber rows, got {sorted(rows)}")
    if not re.search(r"^validation passed\b", text, re.M):
        problems.append("no 'validation passed' line")
    if "outage" in rows:
        analytic = rows["outage"][0]
        want = float(independent_outage(doc, doc["rf"]["avg_snr_db"]))
        problems.append(_rel_problem("outage", analytic, want))
    for name, (analytic, est, se) in rows.items():
        problems.append(_mc_problem(name, analytic, est, se, w.trials))
    return Checked([p for p in problems if p], len(rows), 1)


def _check_sweep(w, doc, text):
    import numpy as np

    sweep = doc["sweep"]
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        return Checked([f"bad CSV framing: header {lines[0]!r}"], 0, 0)
    rows = [line.split(",") for line in lines[1:-1]]
    if len(rows) != sweep["points"] or any(len(r) != 5 for r in rows):
        return Checked([f"expected {sweep['points']} rows of 5 cells, got {len(rows)}"],
                       0, len(rows))
    grid = np.linspace(sweep["start"], sweep["stop"], sweep["points"])
    axis = np.array([float(r[0]) for r in rows])
    analytic = np.array([float(r[1]) for r in rows])
    problems = []
    if np.any(np.abs(axis - grid) > 1e-9 * np.maximum(1.0, np.abs(grid))):
        problems.append("axis column does not match the configured grid")
    want = independent_outage(doc, grid)
    bad = np.abs(analytic - want) > ANALYTIC_REL_TOL * np.abs(want)
    if np.any(bad):
        i = int(np.argmax(bad))
        problems.append(_rel_problem(f"row {i}", analytic[i], want[i]))
    estimates = 0
    for i, r in enumerate(rows):
        if w.trials == 0:
            if r[2] or r[3]:
                problems.append(f"row {i}: MC cells filled under --no-mc")
            continue
        if not (r[2] and r[3]):
            problems.append(f"row {i}: MC cells empty")
            continue
        estimates += 1
        problems.append(_mc_problem(f"row {i}", analytic[i], float(r[2]), float(r[3]),
                                    w.trials))
    return Checked([p for p in problems if p], estimates, len(rows))
