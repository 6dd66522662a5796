"""Command line interface.

Subcommands:
    outage     analytic outage probability at the configured threshold,
               plus a Monte Carlo estimate unless --no-mc
    ber        same for the end-to-end average bit error rate
    sweep      run the [sweep] section, emit CSV
    validate   compare analytic against Monte Carlo for both quantities:
               a row FAILs on disagreement beyond 4 standard errors (plus
               an absolute 1e-12), is OK when its estimate is reliable
               (relative standard error at most 10%) and within 4
               standard errors, and is INCONCLUSIVE otherwise: agreement
               on an unreliable estimate is no evidence, and neither is a
               precise estimate that missed the events carrying the value

Exit codes: 0 success, 2 configuration error, 3 series convergence
failure, 4 validation gate failure, 5 validation inconclusive (no row
failed, but some estimate was unreliable).

Importing this module freezes the import graph (`gc.freeze()`), which is
about 21k objects, numpy's among them.  They live until the process ends
anyway, and without the freeze the collections at exit traverse and free
them: from `main`'s return to process end took a median 22-24 ms per
command before and 6-7 ms after (25 fresh processes per benchmark
workload, 2-vCPU shared host, Python 3.11, numpy 2.4).  The collector
stays on for everything made after the import.
"""
from __future__ import annotations

import argparse
import gc
import math
import sys

from .config import ConfigError, ParsedConfig, parse_config
from .e2e import SystemConfig, ber_batch, e2e_avg_ber, outage_batch, outage_probability
from .montecarlo import McOptions, simulate, simulate_ber, simulate_outage
from .specfun import ConvergenceError
from .sweep import emit_csv, run_sweep

# The modules, classes and functions imported so far live until the process
# ends, so exempting them from collection changes nothing while it runs, and
# the collections at exit no longer traverse and free them.  At module level,
# so a caller running main many times freezes once, and `import rfvlc` alone
# freezes nothing.
gc.freeze()

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_VALIDATION = 4
EXIT_INCONCLUSIVE = 5

# |analytic - estimate| beyond this many standard errors fails validation,
# and a row is OK only within it
VALIDATION_GATE_SE = 4.0
# absolute slack added to the failure gate, which never divides by the
# standard error: it keeps a zero-event row, such as analytic 4.1e-15
# against mc = 0, se = 0, INCONCLUSIVE instead of FAIL
VALIDATION_GATE_ABS = 1e-12


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rfvlc",
        description="Outage and BER analysis of a two-hop radio/optical relay link.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("outage", "outage probability at the configured threshold"),
        ("ber", "end-to-end average bit error rate"),
        ("sweep", "run the [sweep] section and emit CSV"),
        ("validate", "gate the closed forms against Monte Carlo"),
    ):
        q = sub.add_parser(name, help=doc)
        q.add_argument("--config", required=True, help="path to the config file")
        q.add_argument("--trials", type=int, help="override Monte Carlo trial count")
        q.add_argument("--seed", type=int, help="override Monte Carlo seed")
        q.add_argument("--workers", type=int, help="override worker thread count")
        q.add_argument("--out", help="write output to this file instead of stdout")
        if name != "validate":
            q.add_argument(
                "--no-mc", action="store_true", help="skip the Monte Carlo columns"
            )
    return p


def _load(args) -> ParsedConfig:
    try:
        with open(args.config, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    parsed = parse_config(text)
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if overrides:
        parsed = parsed._replace(mc=parsed.mc._replace(**overrides))
    return parsed


def _write(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file: {exc}") from None
    else:
        sys.stdout.write(text)


def _point_report(quantity: str, cfg: SystemConfig, mc: McOptions | None) -> str:
    if quantity == "outage":
        batch, runner = outage_batch, simulate_outage
    else:
        batch, runner = ber_batch, simulate_ber
    (analytic,), (floor,) = batch([cfg])
    lines = [
        f"quantity = {quantity}",
        f"analytic = {analytic:.12g}",
        f"floor = {floor:.12g}",
    ]
    if mc is not None:
        est = runner(cfg, mc.trials, mc.seed, workers=mc.workers)
        lines += [
            f"mc_estimate = {est.estimate:.12g}",
            f"mc_std_error = {est.std_error:.12g}",
            f"mc_trials = {est.trials}",
            f"mc_seed = {est.seed}",
        ]
        if not est.reliable:
            lines.append(
                "mc_warning = relative standard error above 10%; estimate unreliable"
            )
    return "\n".join(lines) + "\n"


def _validate_report(parsed: ParsedConfig) -> tuple[str, int]:
    """The validate report and its exit code."""
    cfg, mc = parsed.system, parsed.mc
    closed = outage_probability(cfg), e2e_avg_ber(cfg)
    [estimates] = simulate([cfg], mc.trials, mc.seed, workers=mc.workers, ber=True)
    lines, verdicts = [], set()
    for name, analytic, est in zip(("outage", "ber"), closed, estimates):
        diff = abs(analytic - est.estimate)
        if est.std_error > 0.0:
            z = diff / est.std_error
        else:  # no spread: any gap is infinitely many standard errors
            z = 0.0 if diff == 0.0 else math.inf
        if diff > VALIDATION_GATE_SE * est.std_error + VALIDATION_GATE_ABS:
            verdict = "FAIL"
        elif est.reliable and z <= VALIDATION_GATE_SE:
            verdict = "OK"
        else:
            verdict = "INCONCLUSIVE"
        verdicts.add(verdict)
        lines.append(
            f"{name}: analytic = {analytic:.12g}, mc = {est.estimate:.12g}, "
            f"se = {est.std_error:.12g}, z = {z:.6g} -> {verdict}"
        )
    if "FAIL" in verdicts:
        summary, code = "FAILED", EXIT_VALIDATION
    elif "INCONCLUSIVE" in verdicts:
        summary, code = "inconclusive", EXIT_INCONCLUSIVE
    else:
        summary, code = "passed", EXIT_OK
    lines.append(f"validation {summary} "
                 f"(gate: {VALIDATION_GATE_SE:g} standard errors, "
                 f"trials = {mc.trials}, seed = {mc.seed})")
    return "\n".join(lines) + "\n", code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        parsed = _load(args)
        mc = None if getattr(args, "no_mc", False) else parsed.mc
        if args.command == "sweep":
            if parsed.sweep is None:
                raise ConfigError("the sweep command needs a [sweep] section")
            records = run_sweep(parsed.system, parsed.sweep, mc)
            _write(args, emit_csv(records))
        elif args.command in ("outage", "ber"):
            _write(args, _point_report(args.command, parsed.system, mc))
        else:
            report, code = _validate_report(parsed)
            _write(args, report)
            return code
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
