"""Set-up probe: import bootperc in a fresh interpreter and make the
workload's first call, the one that pays lazy set-up such as the
`scipy.special` import behind the binomial schedules.

    python3 bench/probe.py <workload>

prints {"import_s": ..., "first_call_s": ...} as its only line.  The
caller times the whole subprocess for `setup_s`.  Only bootperc is
imported before the clock starts its first interval, so numpy's import
counts toward `import_s` as it would for a user.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def first_call(workload: str):
    """A small call of the workload's kind, on a fresh import."""
    from bootperc.core import ModelParams
    from bootperc.process import RngSpec

    if workload == "exact_law":
        from bootperc import oracle
        return oracle.exact_stop_cdf(ModelParams(n=500, p=500 ** -0.7, r=2, a=13), 18)
    if workload == "sampler_batch":
        from bootperc import process
        return process.final_sizes_activation(
            ModelParams(n=6, p=0.4, r=2, a=2), 1000, RngSpec(0, 0))
    if workload == "tail_mc":
        from bootperc import montecarlo
        return montecarlo.estimate_tail_splitting(
            ModelParams(n=500, p=500 ** -0.7, r=2, a=13), 18, 4, 200,
            RngSpec(0, 0))
    raise SystemExit(f"unknown workload {workload!r}")


def main() -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import bootperc  # noqa: F401
    imported = time.perf_counter()
    first_call(sys.argv[1])
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start,
                      "first_call_s": done - imported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
