"""Run one bootperc benchmark workload and print its metrics.

    python3 bench/run.py --workload exact_law --seed 1 --seconds 35 --trace 0

Workloads: exact_law, sampler_batch, tail_mc (see bench/README.md).  For
`--seconds` seconds a run repeats rounds of

1. one warm pass over the workload's in-process operations, checking
   every output against its reference (`solve_s` is the mean pass);
2. `PER_ROUND` calls of the workload's `bootperc` command as a
   subprocess, whose stdout must be correct and byte-identical across
   calls (`cli_s` is the mean call);
3. `PER_ROUND` fresh interpreters that import bootperc and make the
   workload's first call (`setup_s` is the median, split into
   `setup.import_s` and `setup.first_call_s`),

and tops the set-up probes and CLI calls up to `MIN_SAMPLES` each.  Every
operation, call and probe is timed between two runs of a fixed reference
kernel, and all times are scaled to the machine speed of
bench/reference.py; the raw wall times are printed as `*_wall_s` details.
Pass and CLI times are reported as means: a run holds only three to ten
of each, and over ten seeds their means spread about half as much as
their medians.

With `--trace 1` passes alternate between untraced and traced; traced
passes wrap the library's public functions in spans (bench/spans.py) and
the run reports per-layer self time instead of the end-to-end metrics.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Lines before it list every metric,
the headline metrics of the workload, per-call timers and counts, and the
machine.  The same data goes to bench/out/, spans too when traced.
The run exits 2 without printing a result when src/bootperc is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: BLAS/OpenMP pools are capped at one thread; the library is single-threaded
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: set-up probes and CLI calls per round; these samples are short and
#: noisy, so a run takes more of them than passes
PER_ROUND = 2
#: fewest set-up probes and CLI calls whose median a run reports
MIN_SAMPLES = 5
SUBPROCESS_TIMEOUT_S = 120


class Tally:
    """Operations attempted and failed over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def run(self, name: str, fn, *args) -> None:
        """Call fn(*args) as one operation; a raise or failed check is
        reported on stderr and counted, and the run goes on."""
        from workloads import CheckFailed

        self.attempted += 1
        try:
            fn(*args)
        except CheckFailed as exc:
            self.fail(name, str(exc))
        except Exception:  # noqa: BLE001 - any raise is a failed operation
            self.fail(name, traceback.format_exc())

    def fail(self, name: str, why: str) -> None:
        self.failures.append((name, why))
        print(f"FAILED {name}: {why}", file=sys.stderr)


def median(values):
    return statistics.median(values)


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def subprocess_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit,
            "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
            "seed": seed}


def run_probe(workload: str, clock, samples: list) -> None:
    """Time one fresh-interpreter set-up; append (wall_s, import_s,
    first_call_s) to `samples`."""
    proc, wall = clock.time(
        subprocess.run, [sys.executable, str(BENCH / "probe.py"), workload],
        capture_output=True, text=True, cwd=ROOT, env=subprocess_env(),
        timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probe exited {proc.returncode}: {proc.stderr}")
    got = json.loads(proc.stdout.splitlines()[-1])
    samples.append((wall, got["import_s"], got["first_call_s"]))


def run_pass(wl, tally: Tally, clock, tracer=None):
    """One pass over the workload's operations: (wall_s, Record), the wall
    time summed over operations, without the reference kernel between."""
    from workloads import Record

    rec = Record()
    wall = 0.0
    for name, fn in wl.ops():
        def call():
            with tracer.span(f"bench.{name}", "bench") if tracer else nullcontext():
                tally.run(name, fn, rec)

        wall += clock.time(call)[1]
    return wall, rec


class CliCalls:
    """The workload's CLI command as a subprocess.  The first output is
    checked against the library; later ones must repeat it byte for byte."""

    def __init__(self, wl):
        self.wl = wl
        self.cmd = [sys.executable, "-m", "bootperc.cli", *wl.cli_args()]
        self.walls: list = []
        self.first = None

    def call(self, clock, tracer=None) -> None:
        def run():
            with tracer.span(f"cli.{self.cmd[3]}", "cli") if tracer else nullcontext():
                return subprocess.run(self.cmd, capture_output=True, cwd=ROOT,
                                      env=subprocess_env(),
                                      timeout=SUBPROCESS_TIMEOUT_S)

        proc, wall = clock.time(run)
        self.walls.append(wall)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode()}")
        if self.first is None:
            self.first = proc.stdout
            self.wl.check_cli(proc.stdout.decode())
        elif proc.stdout != self.first:
            raise RuntimeError("stdout differs from the first call")


def pass_details(wl, recs: list, scale: float) -> dict:
    """Medians over passes of the headline metrics, per-call timers,
    per-call percentiles and counts: {name: (value, unit)}, times and
    rates scaled to the reference machine speed."""
    out = {}
    for name, unit in wl.HEADLINE.items():
        value = median([wl.headline(r)[name] for r in recs])
        out[name] = (value * scale if unit == "s" else value / scale, unit)
    for name in sorted(recs[0].timers):
        out[name] = (median([r.timers[name] for r in recs]) * scale, "s")
        samples = [s * scale for r in recs for s in r.samples[name]]
        if len(samples) > len(recs):
            stem = name.removesuffix("_s")
            out[f"{stem}.call_p50_s"] = (median(samples), "s")
            out[f"{stem}.call_p90_s"] = (p90(samples), "s")
    for name in sorted(recs[-1].values):
        out[name] = recs[-1].values[name]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and two repeats, for bench/test_smoke.py")
    args = ap.parse_args(argv)

    if not (SRC / "bootperc" / "__init__.py").is_file():
        print(f"error: no bootperc source under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import probe
    from reference import ReferenceClock
    from spans import LIBRARY_LAYERS, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    tally = Tally()
    wl = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    minimum = 2 if args.smoke else MIN_SAMPLES
    setup, cli = [], CliCalls(wl)
    tracer = Tracer() if args.trace else None
    untraced, traced = [], []

    def set_up():
        tally.run("setup_probe", run_probe, args.workload, clock, setup)

    def cli_call():
        if tracer:
            tracer.pass_id = "cli"
        tally.run("cli", cli.call, clock, tracer)

    # Rounds of one pass, CLI calls and set-up probes spread every
    # metric's samples over the whole run, so a slow spell of the machine
    # weighs on all of them alike.  A round starts while at least half of
    # the previous one still fits before the deadline, so on average the
    # rounds fill `--seconds`; a traced run alternates untraced and traced
    # passes and needs one of each.
    for name in WORKLOADS:  # lazy set-up, such as scipy.special, before timing
        probe.first_call(name)
    clock = ReferenceClock()
    deadline = time.perf_counter() + args.seconds
    last_round = 0.0
    while (time.perf_counter() + last_round / 2 <= deadline or not untraced
           or (tracer and not traced)):
        begin = time.perf_counter()
        if tracer and len(untraced) > len(traced):
            tracer.pass_id = len(traced)
            with tracer.installed():
                traced.append(run_pass(wl, tally, clock, tracer))
        else:
            untraced.append(run_pass(wl, tally, clock))
        for _ in range(PER_ROUND):
            cli_call()
            set_up()
        last_round = time.perf_counter() - begin
    while len(setup) < minimum or len(cli.walls) < minimum:
        if len(cli.walls) < minimum:
            cli_call()
        if len(setup) < minimum:
            set_up()
    if not setup or not cli.first:
        print("error: every set-up probe or every CLI call failed; "
              "no metrics to report", file=sys.stderr)
        return 1

    scale = clock.factor
    solve = [wall * scale for wall, _ in untraced]
    cli_s = [wall * scale for wall in cli.walls]
    if tracer:
        selfs = [tracer.self_times(i) for i in range(len(traced))]
        calls = [tracer.calls(i) for i in range(len(traced))]
        metrics = {
            "setup.import_s": (median([s[1] for s in setup]) * scale, "s"),
            "setup.first_call_s": (median([s[2] for s in setup]) * scale, "s"),
            **{f"{layer}.self_s": (median([s.get(layer, 0.0) for s in selfs])
                                   * scale, "s")
               for layer in (*LIBRARY_LAYERS, "bench")},
            **{f"{layer}.calls": (median([c.get(layer, 0) for c in calls]), "count")
               for layer in LIBRARY_LAYERS},
            "cli.self_s": (statistics.fmean(cli_s), "s"),
            "cli.p90_s": (p90(cli_s), "s"),
            "trace_overhead_s": (statistics.fmean([w for w, _ in traced]) * scale
                                 - statistics.fmean(solve), "s"),
        }
    else:
        metrics = {
            "setup_s": (median([s[0] for s in setup]) * scale, "s"),
            "solve_s": (statistics.fmean(solve), "s"),
            "cli_s": (statistics.fmean(cli_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    details = pass_details(wl, [rec for _, rec in untraced], scale)
    details |= {
        "solve_wall_s": (statistics.fmean([wall for wall, _ in untraced]), "s"),
        "cli_wall_s": (statistics.fmean(cli.walls), "s"),
        "setup_wall_s": (median([s[0] for s in setup]), "s"),
        "reference_s": (median(clock.references), "s"),
        "reference_factor": (scale, "1"),
    }
    failed = len(tally.failures)
    details["failed_frac"] = (failed / tally.attempted, "1")
    env = environment(args.seed)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "env": env,
                   "wall_samples": {"pass_s": [w for w, _ in untraced],
                                    "traced_pass_s": [w for w, _ in traced],
                                    "cli_s": cli.walls,
                                    "setup_s": [s[0] for s in setup],
                                    "reference_s": clock.references},
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in (metrics | details).items()},
                   "failures": tally.failures}, fh, indent=1)
    if tracer:
        tracer.write(OUT / f"{stem}.spans.jsonl")

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(untraced)} untraced + {len(traced)} traced  "
          f"set-up probes {len(setup)}  cli calls {len(cli.walls)}")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# times are scaled to the reference machine speed "
          "(bench/reference.py); *_wall_s are raw")
    print("# wait time is not measured: the library is single-threaded "
          "and has no queues")
    for title, group in (("metrics", metrics), ("details", details)):
        print(f"# {title}")
        for name, (value, unit) in group.items():
            print(f"{name:<52} {value:<24.10g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
