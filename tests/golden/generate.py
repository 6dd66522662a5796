"""Write the golden command-line cases beside this file.

Each case is one JSON file holding the argv, the config text, and the exit
code, stdout, stderr and `--out` file text of one in-process
`rfvlc.cli.main` run; `tests/test_golden.py` reruns every case and wants
the same bytes back.  Run from the repository root:

    PYTHONPATH=src python tests/golden/generate.py

Rerun it only for a change that means to alter the command line's output,
and say in CHANGES.md which cases changed and why.
"""
import contextlib
import io
import json
import pathlib
import random
import tempfile

from rfvlc import cli

HERE = pathlib.Path(__file__).resolve().parent

VLC = """\
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
"""


def config(k_db=5.0, branches=2, snr_db=7.0, sweep=None, mc=None, power_w=0.25):
    """Config text: threshold 1, the given radio hop, the reference optical
    hop at the given optical power, and optional [sweep] and [mc] sections
    given as dicts."""
    vlc = VLC.replace("optical_power_w = 0.25", f"optical_power_w = {power_w}")
    text = (f"outage_threshold = 1.0\n\n[rf]\nk_factor_db = {k_db}\n"
            f"branches = {branches}\navg_snr_db = {snr_db}\n\n{vlc}")
    for name, keys in (("sweep", sweep), ("mc", mc)):
        if keys:
            text += f"\n[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
    return text


def _sweep(axis, start, stop, points, quantity, scale="linear"):
    return {"axis": axis, "start": start, "stop": stop, "points": points,
            "quantity": quantity, "scale": scale}


def cases():
    """{name: (argv, config text)}; "{config}" and "{out}" in argv stand
    for the config file and the output file."""
    run = ["--config", "{config}"]
    to_file = run + ["--out", "{out}"]
    mc = {"trials": 140000, "seed": 1, "workers": 2}
    # the benchmark's three workloads, Monte Carlo cut to 2e5 trials; the
    # analytic grid is shifted off round numbers as the benchmark does
    shift = random.Random(3).random() * 40.0 / 599
    out = {
        "bench-validate-ref": (["validate"] + to_file, config(
            mc={"trials": 200000, "seed": 8, "workers": 1})),
        "bench-sweep-outage-mc": (["sweep"] + to_file, config(
            sweep=_sweep("rf_avg_snr_db", 0.0, 20.0, 21, "outage"),
            mc={"trials": 200000, "seed": 8, "workers": 2})),
        "bench-sweep-outage-los-analytic": (["sweep", "--no-mc"] + to_file, config(
            k_db=17.0, branches=4,
            sweep=_sweep("rf_avg_snr_db", -10.0 + shift, 30.0 + shift, 600, "outage"))),
    }
    grids = {
        "rf_avg_snr_db": (0.0, 20.0, 11, "linear"),
        "optical_power_w": (0.05, 1.0, 8, "log"),
        "semi_angle_deg": (20.0, 70.0, 6, "linear"),
        "branches": (1, 4, 4, "linear"),
    }
    for axis, (start, stop, points, scale) in grids.items():
        for quantity in ("outage", "ber"):
            out[f"sweep-{axis}-{quantity}"] = (["sweep"] + run, config(
                sweep=_sweep(axis, start, stop, points, quantity, scale), mc=mc))
    for command in ("outage", "ber"):
        out[command] = ([command] + run, config(mc=mc))
        out[f"{command}-no-mc"] = ([command, "--no-mc"] + run, config(mc=mc))
        # at 1 W the radio hop dominates, and 1000 trials see 3 outages and
        # a BER of 24% relative standard error: the report adds mc_warning
        out[f"{command}-unreliable"] = ([command] + run, config(
            power_w=1.0, mc={"trials": 1000, "seed": 1}))
    for quantity in ("outage", "ber"):
        # K from 10 to 30 dB at M = 4: the series rate K M passes 300 near 19 dB
        spec = _sweep("k_factor_db", 10.0, 30.0, 11, quantity)
        out[f"sweep-k_factor_db-{quantity}"] = (["sweep"] + run, config(
            branches=4, sweep=spec, mc=mc))
        out[f"sweep-k_factor_db-{quantity}-no-mc"] = (["sweep", "--no-mc"] + run, config(
            branches=4, sweep=spec))
    out["validate"] = (["validate"] + run + ["--trials", "140000", "--seed", "5"], config())
    for quantity in ("outage", "ber"):
        # K = 20 dB with M = 4, rate 400
        out[f"unconverged-{quantity}"] = (["sweep", "--no-mc"] + run, config(
            k_db=20.0, branches=4,
            sweep=_sweep("rf_avg_snr_db", -10.0, 40.0, 51, quantity)))
        # rates 100 to 800: once past what a mode-anchored series could sum
        out[f"unconverged-branches-{quantity}"] = (["sweep", "--no-mc"] + run, config(
            k_db=20.0, snr_db=20.0, sweep=_sweep("branches", 1, 8, 8, quantity)))
    # K = 60 dB with M = 4, a rate `specfun.covers` refuses: exit 3
    out["refused-rate"] = (["sweep", "--no-mc"] + run, config(
        k_db=60.0, branches=4, sweep=_sweep("rf_avg_snr_db", 0.0, 20.0, 3, "outage")))
    out["config-error"] = (["outage"] + run, config(branches=0))
    return out


def run_case(argv, config_text, workdir):
    """Run `rfvlc.cli.main` on one case in `workdir`; returns its record."""
    config_path, out_path = workdir / "case.ini", workdir / "out.txt"
    config_path.write_text(config_text, encoding="utf-8")
    out_path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([a.format(config=config_path, out=out_path) for a in argv])
    return {
        "argv": argv,
        "config": config_text,
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "out": out_path.read_bytes().decode("utf-8") if out_path.exists() else None,
    }


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, text) in cases().items():
            record = run_case(argv, text, pathlib.Path(tmp))
            (HERE / f"{name}.json").write_text(
                json.dumps(record, indent=1) + "\n", encoding="utf-8")
            print(f"{name}: exit {record['exit']}")


if __name__ == "__main__":
    main()
