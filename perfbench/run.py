"""Layered benchmark of the rfvlc command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one `rfvlc` command, run in a fresh interpreter, one
process at a time (a closed loop with a single client), on the working
tree's `src/` with BLAS/OpenMP pinned to one thread.  The run repeats the
command for about S seconds, the first run being an untimed warm-up,
checks every output, and reports medians.

--trace 0 reports the end-to-end metrics: wall time, set-up time (fresh
interpreter until `import rfvlc.cli` returns), CPU time and peak RSS of the
child (time and CPU from os.wait4, peak RSS from the child's VmHWM).

The three times are given at a fixed host speed.  The benchmark runs on a
few vCPUs of a shared host whose other tenants slow every instruction by
up to about 1.7x, in phases that last from seconds to many minutes, so raw
times of the same code differ by more than any useful regression bound
between runs made minutes apart.  The parent therefore times a fixed
calibration round (see `calibrate`) just before and just after every
command, and scales that command's times by CAL_REF_S over the mean of
the two rounds.  The calibration code belongs to the benchmark and never
changes with the program, so a change to rfvlc moves the scaled times as
much as the raw ones.  The raw medians and the host slowdown are printed
in the text lines.

--trace 1 alternates traced and untraced runs and reports per-layer
metrics: calls, busy time and self time at each module boundary (see
tracer.py), series-term and trial counts, import times from
`python -X importtime`, and the tracing overhead.  The names printed must
match BENCHMARK.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it list every
metric with its quartiles, the error rate, MC trials/s and points/s, and
the machine facts.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RFVLC_MC_BACKEND", None)

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = Path(os.path.realpath(ROOT / "src"))
WORK = ROOT / ".perfbench_work"
MIN_RUNS = 3        # untraced runs per --trace 0 measurement
MIN_TRACED = 2      # traced runs, each paired with an untraced one, per --trace 1
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 60  # a CLI run takes a few seconds; a hung one is killed
# One calibration round on a quiet host (2 vCPUs, Intel Xeon, Python 3.11,
# numpy 2.4, scipy 1.17); scaled times read as seconds at that speed.
CAL_REF_S = 0.028

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Run:
    ok: bool
    problems: list
    output: bytes = b""
    wall_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    scale: float = 1.0   # CAL_REF_S / calibration round around this run
    estimates: int = 0
    points: int = 0
    trace: dict = field(default_factory=dict)


def calibrate():
    """Seconds one fixed round of work takes on this host now, averaged over
    the CPUs this process may use.

    The vCPUs of a shared host are slowed separately, each by the tenants
    beside it, and the command may run on any of them (or on all, with
    workers = 2), so the round runs once pinned to each CPU in turn.  It
    runs in this process, between commands, never beside one.
    """
    cpus = os.sched_getaffinity(0)
    rounds = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            rounds.append(calibration_round())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(rounds)


def calibration_round():
    """Seconds one round takes on the current CPU: the geometric mean of
    three loops, one for each kind of work the CLI does: vectorised numpy
    and scipy (the Monte Carlo kernel), scalar scipy calls from Python (the
    closed-form series) and object churn in the interpreter (imports,
    config, CSV).
    """
    import numpy as np
    from scipy import special

    def vector():
        rng = np.random.default_rng(1)
        return sum(float(special.erfc(0.7 * x).sum() + (x * x).sum())
                   for x in (rng.standard_normal(250_000) for _ in range(4)))

    def scalar():
        return sum(float(special.gammaincc(3.0 + i % 7, 0.5 * (i % 13)))
                   + float(special.i0e(0.1 * (i % 11))) for i in range(15_000))

    def objects():
        table = {i: (i, str(i)) for i in range(60_000)}
        return float(sum(len(v[1]) for v in table.values()))

    log_sum = 0.0
    for loop in (vector, scalar, objects):
        start = time.perf_counter()
        if not math.isfinite(loop()):
            raise RuntimeError("calibration loop produced a non-finite sum")
        log_sum += math.log(time.perf_counter() - start)
    return math.exp(log_sum / 3.0)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PERFBENCH_SRC"] = str(SRC)
    return env


class Bench:
    def __init__(self, workload, seed, workdir):
        self.w = workloads.WORKLOADS[workload]
        self.doc = workloads.sections(self.w, seed)
        self.workdir = workdir
        self.config = workdir / "link.cfg"
        self.config.write_text(workloads.config_text(self.doc), encoding="utf-8")
        self.env = child_env()
        self.runs = []
        calibrate()  # the first round pays for imports and page faults
        self.cal_s = calibrate()

    def run(self, traced=False):
        """One CLI command in a fresh interpreter; checked and recorded."""
        cycle_start = time.monotonic()
        stamp, out = self.workdir / "stamp", self.workdir / "out"
        trace_file, err_file = self.workdir / "trace.json", self.workdir / "stderr"
        for f in (stamp, out, trace_file):
            f.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "child.py"), str(stamp)]
        if traced:
            argv += ["--trace", str(trace_file)]
        argv += ["--"] + workloads.cli_args(self.w, str(self.config), str(out))
        with open(err_file, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            end = time.monotonic()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0 or not out.exists() or not stamp.exists():
            tail = err_file.read_text(encoding="utf-8", errors="replace")[-400:]
            run = Run(False, [f"exit code {code}: {tail.strip()}"])
        else:
            imported_at, peak_kib = stamp.read_text().split()
            output = out.read_bytes()
            checked = workloads.check(self.w, self.doc, output.decode("utf-8"))
            run = Run(not checked.problems, checked.problems, output,
                      wall_s=end - start,
                      setup_s=float(imported_at) - start,
                      cpu_s=usage.ru_utime + usage.ru_stime,
                      peak_rss_mb=int(peak_kib) / 1024.0,
                      estimates=checked.estimates, points=checked.points)
            if traced:
                run.trace = json.loads(trace_file.read_text(encoding="utf-8"))
        cal_before, self.cal_s = self.cal_s, calibrate()
        run.scale = CAL_REF_S / ((cal_before + self.cal_s) / 2.0)
        self.runs.append(run)
        self.last_cycle_s = time.monotonic() - cycle_start
        return run

    def fits(self, deadline, runs):
        """Whether `runs` more runs, as long as the last one, end by `deadline`."""
        return time.monotonic() + runs * self.last_cycle_s <= deadline

    def importtime(self):
        """Median cumulative import time of numpy, scipy and rfvlc (less the
        first two) from `python -X importtime -c 'import rfvlc.cli'`."""
        samples = []
        for _ in range(IMPORTTIME_RUNS):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import rfvlc.cli"],
                env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                check=True, timeout=60)
            samples.append(parse_importtime(proc.stderr))
        return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def parse_importtime(text):
    """Cumulative seconds of the outermost numpy* and scipy* imports (one
    nested in the other counts for the outer one), and of rfvlc less those.

    importtime prints a module after the modules it imported, one level of
    indentation deeper per nesting level, so walking the lines backwards
    visits each parent before its children.
    """
    totals = {"numpy": 0.0, "scipy": 0.0, "rfvlc": 0.0}
    ancestors = []
    for line in reversed(text.splitlines()):
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        ancestors = ancestors[:depth] + [name]
        top = name.split(".")[0]
        outer = {a.split(".")[0] for a in ancestors[:-1]}
        nested = top in outer if top == "rfvlc" else bool(outer & {"numpy", "scipy"})
        if top in totals and not nested:
            totals[top] += int(parts[1]) * 1e-6
    totals["rfvlc"] -= totals["numpy"] + totals["scipy"]
    return totals


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(bench, runs):
    """Medians over the runs; times scaled to the reference host speed."""
    metrics, notes = {}, {}
    for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
                       ("peak_rss_mb", "MiB")):
        scaled = unit == "s"
        values = [getattr(r, name) * (r.scale if scaled else 1.0) for r in runs]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        notes[name] = quartiles(values)
        if scaled:
            notes[f"raw_{name}"] = quartiles([getattr(r, name) for r in runs])
    notes["host_slowdown"] = quartiles([1.0 / r.scale for r in runs])
    w = bench.w
    if w.trials:
        notes["mc_trials_per_s"] = quartiles(
            [w.trials * r.estimates / (r.wall_s * r.scale) for r in runs])
    if w.sweep is not None:
        notes["points_per_s"] = quartiles([r.points / (r.wall_s * r.scale) for r in runs])
    return metrics, notes


def per_layer(bench, traced, untraced, imports):
    """Per-layer metrics; times are medians over the traced runs."""
    def med(fn):
        return statistics.median(fn(r.trace) for r in traced)

    first = traced[0].trace
    metrics = {}
    for b in tracer.BOUNDARIES:
        p = b.lstrip("_")  # metric names start with a letter
        metrics[f"{p}.calls"] = (first["boundaries"][b]["calls"], "count")
        metrics[f"{p}.busy_s"] = (med(lambda t: t["boundaries"][b]["busy_s"]), "s")
        metrics[f"{p}.self_s"] = (med(lambda t: t["boundaries"][b]["self_s"]), "s")

    def busy(t, *names):
        return sum(t["boundaries"][n]["busy_s"] for n in names)

    chunks = first["boundaries"][tracer.CHUNK]["calls"]
    simulate_calls = sum(first["boundaries"][n]["calls"] for n in tracer.SIMULATE)
    drawn = first["counts"]["trials_drawn"]
    wanted = bench.w.trials * traced[0].estimates
    terms = first["counts"]["series_terms"]
    series_calls = first["boundaries"][tracer.SERIES]["calls"]
    metrics["mc_numpy.chunk_ms"] = (
        med(lambda t: busy(t, tracer.CHUNK)) / chunks * 1e3 if chunks else 0.0, "ms")
    metrics["montecarlo.trials_drawn"] = (drawn, "count")
    metrics["montecarlo.draws_per_estimate"] = (drawn / wanted if wanted else 0.0,
                                                "ratio")
    metrics["montecarlo.parallelism"] = (
        med(lambda t: busy(t, tracer.CHUNK) / busy(t, *tracer.SIMULATE))
        if chunks and simulate_calls else 0.0, "ratio")
    metrics["specfun.series_terms"] = (terms, "count")
    metrics["specfun.terms_per_call"] = (terms / series_calls if series_calls else 0.0,
                                         "count")
    for lib in ("numpy", "scipy", "rfvlc"):
        metrics[f"import.{lib}_s"] = (imports[lib], "s")
    metrics["trace.overhead_s"] = (
        statistics.median(r.wall_s - r.setup_s for r in traced)
        - statistics.median(r.wall_s - r.setup_s for r in untraced), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def counts(run):
    """The exact counts of a traced run, which must repeat run to run."""
    t = run.trace
    return {b: v["calls"] for b, v in t["boundaries"].items()}, t["counts"]


def machine_facts():
    import numpy
    import scipy

    import rfvlc
    from rfvlc import montecarlo

    backend = getattr(montecarlo, "default_backend", None)
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "mc_backend": backend() if backend else "numpy (single kernel)",
        "rfvlc": rfvlc.__file__,
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (SRC / "rfvlc" / "cli.py").is_file():
        print(f"no rfvlc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    facts = machine_facts()
    if os.path.commonpath([os.path.realpath(facts["rfvlc"]), str(SRC)]) != str(SRC):
        print(f"rfvlc imported from {facts['rfvlc']}, outside {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        return measure(args, facts, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, facts, workdir):
    bench = Bench(args.workload, args.seed, workdir)
    w = bench.w
    problems = []
    seed_keys = workloads.seed_dependence(w, args.seed)
    if seed_keys != workloads.expected_seed_keys(w):
        problems.append(f"seed changes {seed_keys}")

    # The S seconds include the warm-up run, which fills file caches and
    # writes bytecode caches and is not timed.  No run starts that would
    # likely end after the deadline, so a measurement takes about S seconds.
    deadline = time.monotonic() + args.seconds
    bench.run()
    if args.trace:
        imports = bench.importtime()
        traced, untraced = [], []
        while len(traced) < MIN_TRACED or bench.fits(deadline, 2):
            traced.append(bench.run(traced=True))
            untraced.append(bench.run())
    else:
        timed = []
        while len(timed) < MIN_RUNS or bench.fits(deadline, 1):
            timed.append(bench.run())

    failed = [r for r in bench.runs if not r.ok]
    for r in failed:
        problems += r.problems
    # every run has the same config and seed, traced or not, so the outputs
    # must be byte-identical
    outputs = {r.output for r in bench.runs if r.ok}
    if len(outputs) > 1:
        problems.append("outputs differ between runs (traced or untraced) of one config")

    notes, metrics = {}, {}
    if args.trace:
        traced = [r for r in traced if r.ok]
        untraced = [r for r in untraced if r.ok]
        if traced and untraced:
            if any(counts(r) != counts(traced[0]) for r in traced[1:]):
                problems.append("counts differ between traced runs")
            metrics = per_layer(bench, traced, untraced, imports)
    else:
        timed = [r for r in timed if r.ok]
        if timed:
            metrics, notes = end_to_end(bench, timed)

    if metrics and {k: v["unit"] for k, v in metrics.items()} != declared_metrics(args.trace):
        problems.append("printed metrics do not match BENCHMARK.json")

    print(f"workload {w.name} seed {args.seed} trace {args.trace}: {w.why}")
    for key, value in facts.items():
        print(f"  {key}: {value}")
    for absent in (traced[0].trace["absent"] if args.trace and metrics else ()):
        print(f"  boundary absent at this commit: {absent}")
    for name, m in metrics.items():
        if name in notes:
            q1, q2, q3 = notes[name]
            print(f"  {name} = {q2:.6g} {m['unit']} (quartiles {q1:.6g} .. {q3:.6g}, "
                  f"n = {len(timed)})")
        else:
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, unit in (("raw_wall_s", "s"), ("raw_setup_s", "s"), ("raw_cpu_s", "s"),
                       ("host_slowdown", "x"),
                       ("mc_trials_per_s", "1/s"), ("points_per_s", "1/s")):
        if name in notes:
            q1, q2, q3 = notes[name]
            print(f"  {name} = {q2:.6g} {unit} (quartiles {q1:.6g} .. {q3:.6g})")
    print(f"  error_rate = {len(failed) / len(bench.runs):.6g} "
          f"({len(failed)} of {len(bench.runs)} runs failed)")
    for problem, times in collections.Counter(problems).items():
        print(f"  PROBLEM ({times}x): {problem}")

    print(json.dumps({
        "correct": not problems,
        "attempted": len(bench.runs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
