"""Command-line interface: every operation behind reproducible flags.

Commands emit either JSON (with a config echo) or plot-ready CSV whose
first line is a '# config ...' comment carrying the same echo.  Numbers
are serialized with 17 significant digits and log-scale fields carry an
explicit base tag, so outputs round-trip and reruns with identical flags
are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .core import (ModelParams, SequenceSpec, classify_regime,
                   critical_quantities)
from .errors import BootpercError, MemoryGuardError, ParameterError
from .montecarlo import (estimate_tail, estimate_tail_splitting,
                         rate_convergence_study)
from .oracle import PMF_NODE_CAP, exact_pmf, exact_stop_cdf
from .process import SAMPLER_BATCHES, RngSpec
from .ratefun import family_from_string, minimize_rate, rate_J, tail_exponent

__all__ = ["main"]

#: rate --curve-points above this is refused before the grid is allocated
CURVE_POINT_CAP = 10 ** 6

#: each kind of tail run: the flags it needs, then the others it reads
#: (_MC_FLAGS those of every Monte Carlo run); it refuses any other flag
#: set away from its value in a bare `tail MODE`
_MC_FLAGS = " replicates seed stream"
_TAIL_RUNS = {
    "predict": ("spec n family eps", ""),
    "estimate": ("n p r a family eps", _MC_FLAGS),
    "estimate --splitting": ("n p r a tau", "splitting levels" + _MC_FLAGS),
    "study --method exact_dp": ("spec family eps ladder", "method cap"),
    "study --method splitting": ("spec family eps ladder",
                                 "method levels" + _MC_FLAGS),
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _echo(args: argparse.Namespace) -> dict:
    # `out` is where the echo itself lands; everything else reproduces the run
    skip = {"func", "config", "out"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def _write(args, text: str) -> None:
    out = getattr(args, "out", None) or "-"
    if out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _emit_json(args, result: dict) -> None:
    _write(args, json.dumps({"config": _echo(args), "result": result},
                            sort_keys=True, default=_fmt))


def _emit_csv(args, header: list, rows) -> None:
    lines = ["# config " + json.dumps(_echo(args), sort_keys=True, default=_fmt)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write(args, "\n".join(lines))


def _parse_ladder(text: str) -> list:
    try:
        ladder = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad ladder {text!r}") from exc
    if not all(n.is_integer() for n in ladder):
        raise ParameterError(f"ladder n must be whole numbers, got {text!r}")
    return [int(n) for n in ladder]


def _load_spec(path: str) -> SequenceSpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParameterError(f"cannot read spec file {path}: {exc}") from exc
    return SequenceSpec.from_json(text)


def _params(args) -> ModelParams:
    return ModelParams(n=args.n, p=args.p, r=args.r, a=args.a)


def _check_format(args, prints: str, run: str) -> None:
    """Refuse a --format other than the one format `run` prints."""
    if args.format != prints:
        raise ParameterError(
            f"{run} prints {prints} only, not --format {args.format}")


# ---------------------------------------------------------------------------
# command bodies

def cmd_critical(args) -> int:
    crit = critical_quantities(ModelParams(n=args.n, p=args.p, r=args.r, a=1))
    result = {"t_c": crit.t_c, "a_c": crit.a_c, "b_c": crit.b_c,
              "b_c_prime": crit.b_c_prime, "ln_b_c": crit.log_b_c,
              "ln_b_c_prime": crit.log_b_c_prime, "log_base": "e"}
    if args.format == "json":
        _emit_json(args, result)
    else:
        keys = ["t_c", "a_c", "b_c", "b_c_prime", "ln_b_c", "ln_b_c_prime"]
        _emit_csv(args, keys, [[result[k] for k in keys]])
    return 0


def cmd_regime(args) -> int:
    _check_format(args, "json", "regime")
    regime = classify_regime(_load_spec(args.spec))
    result = {"regime": regime.label, "b": regime.b, "gamma": regime.gamma}
    _emit_json(args, {k: v for k, v in result.items() if v is not None})
    return 0


def cmd_rate(args) -> int:
    _check_format(args, "json", "rate")
    if not args.curve_out and (args.curve_max, args.curve_points) != (None, 200):
        raise ParameterError("--curve-max and --curve-points need --curve-out")
    x0, j0 = minimize_rate(args.alpha, args.r)
    if args.curve_out:
        x_hi = 3.0 * args.alpha / args.r if args.curve_max is None \
            else args.curve_max
        if not 0.0 < x_hi < math.inf:
            raise ParameterError(f"--curve-max must be finite and > 0, got {x_hi!r}")
        if args.curve_points < 1:
            raise ParameterError("--curve-points must be at least 1")
        if args.curve_points > CURVE_POINT_CAP:
            raise MemoryGuardError(
                f"--curve-points above the cap {CURVE_POINT_CAP}")
        xs = np.linspace(0.0, x_hi, args.curve_points)
        rows = [(float(x), rate_J(float(x), args.alpha, args.r)[1]) for x in xs]
        lines = ["x,J"] + [f"{_fmt(x)},{_fmt(j)}" for x, j in rows]
        Path(args.curve_out).write_text("\n".join(lines) + "\n")
    _emit_json(args, {"x0": x0, "J_x0": j0})
    return 0


def cmd_simulate(args) -> int:
    if args.emit == "rows":
        _check_format(args, "csv", "simulate --emit rows")
    params = _params(args)
    rng = RngSpec(seed=args.seed, stream=args.stream)
    sizes = SAMPLER_BATCHES[args.sampler](params, args.replicates, rng)
    if args.emit == "rows":
        rows = [(i, int(v), int(v)) for i, v in enumerate(sizes)]
        _emit_csv(args, ["replicate", "final_size", "stop_time"], rows)
        return 0
    values, counts = (x.tolist() for x in np.unique(sizes, return_counts=True))
    if args.format == "json":
        _emit_json(args, {"histogram": dict(zip(map(str, values), counts)),
                          "replicates": args.replicates})
    else:
        _emit_csv(args, ["final_size", "count"], zip(values, counts))
    return 0


def cmd_exact(args) -> int:
    params = _params(args)
    if args.truncate is not None:
        value = exact_stop_cdf(params, args.truncate, cap=args.cap)
        _emit_json(args, {"tau": args.truncate, "prob": float(value),
                          "ln_prob": value.ln(), "log2_prob": value.log2(),
                          "log_base": "e_and_2"})
        return 0
    pmf = exact_pmf(params, cap=args.cap)
    if args.format == "json":
        result = {"probs": {str(k): p for k, p, _ in pmf.csv_rows()},
                  "log2_probs": {str(k): l2 for k, _, l2 in pmf.csv_rows()},
                  "truncation_bound": pmf.truncation_bound}
        _emit_json(args, result)
    else:
        _emit_csv(args, ["k", "prob", "log2_prob"], pmf.csv_rows())
    return 0


def cmd_tail(sub: argparse.ArgumentParser, args) -> int:
    """`sub` is the tail subparser, which holds every flag's default."""
    kind = {"estimate": "estimate --splitting" if args.splitting else "estimate",
            "study": f"study --method {args.method}"}.get(args.mode, args.mode)
    needs, reads = (names.split() for names in _TAIL_RUNS[kind])
    missing = [n for n in needs if getattr(args, n) is None]
    unread = [n for n, v in vars(args).items() if v != sub.get_default(n)
              and n not in {"command", "mode", "out", *needs, *reads}]
    for names, what in ((missing, "requires"), (unread, "does not read")):
        if names:
            flags = ", ".join("--" + n.replace("_", "-") for n in names)
            raise ParameterError(f"tail {kind} {what} {flags}")
    if args.mode == "predict":
        spec = _load_spec(args.spec)
        regime = classify_regime(spec)
        te = tail_exponent(spec, args.n, family_from_string(args.family),
                           args.eps, regime)
        _emit_json(args, json.loads(te.to_json()) | {"regime": regime.label})
        return 0
    if args.mode == "estimate":
        params = _params(args)
        rng = RngSpec(seed=args.seed, stream=args.stream)
        if args.splitting:
            est = estimate_tail_splitting(params, args.tau, args.levels,
                                          args.replicates, rng)
        else:
            est = estimate_tail(params, family_from_string(args.family),
                                args.eps, args.replicates, rng)
        result = est.to_dict()
        if est.p_hat == 0.0 and not args.splitting:
            result["note"] = "no hits; consider --splitting for rare events"
        _emit_json(args, result)
        return 0
    # study
    spec = _load_spec(args.spec)
    rows = rate_convergence_study(
        spec, family_from_string(args.family), args.eps,
        _parse_ladder(args.ladder), method=args.method,
        replicates=args.replicates, rng=RngSpec(args.seed, args.stream),
        levels=args.levels,
        cap=PMF_NODE_CAP if args.cap is None else args.cap)
    _emit_csv(args, ["n", "v_n", "p_hat", "log_p", "normalized", "target"],
              [(r.n, r.v_n, r.p_hat, r.log_p, r.normalized, r.target)
               for r in rows])
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def _add_common(sub, *, seed=False, fmt=None):
    sub.add_argument("--out", default="-", help="output path, '-' for stdout")
    if fmt:
        sub.add_argument("--format", choices=["csv", "json"], default=fmt)
    if seed:
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--stream", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bootperc",
        description="bootstrap percolation on G(n,p): exact law, samplers, "
                    "and tail-exponent predictions")
    parser.add_argument("--config", help="JSON file of flag defaults")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("critical", help="critical quantities t_c, a_c, b_c")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--r", type=int, required=True)
    _add_common(s, fmt="json")
    s.set_defaults(func=cmd_critical)

    s = subs.add_parser("regime", help="classify b_c regime of a spec file")
    s.add_argument("--spec", required=True)
    _add_common(s, fmt="json")
    s.set_defaults(func=cmd_regime)

    s = subs.add_parser("rate", help="minimize the early-stop rate J")
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--curve-out", default=None)
    s.add_argument("--curve-points", type=int, default=200)
    s.add_argument("--curve-max", type=float, default=None)
    _add_common(s, fmt="json")
    s.set_defaults(func=cmd_rate)

    s = subs.add_parser("simulate", help="replicate a sampler, emit histogram")
    s.add_argument("--sampler", choices=sorted(SAMPLER_BATCHES), required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--a", type=int, required=True)
    s.add_argument("--replicates", type=int, required=True)
    s.add_argument("--emit", choices=["histogram", "rows"], default="histogram")
    _add_common(s, seed=True, fmt="csv")
    s.set_defaults(func=cmd_simulate)

    s = subs.add_parser("exact", help="exact pmf of A*, or P(T <= tau)")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--a", type=int, required=True)
    s.add_argument("--truncate", type=int, default=None, metavar="TAU")
    s.add_argument("--cap", type=int, default=PMF_NODE_CAP,
                   help="refuse n above this for the pmf, or more chain "
                   "states than this for --truncate")
    _add_common(s, fmt="csv")
    s.set_defaults(func=cmd_exact)

    s = subs.add_parser("tail", help="tail exponents: predict/estimate/study")
    s.add_argument("mode", choices=["predict", "estimate", "study"])
    s.add_argument("--spec", default=None)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--p", type=float, default=None)
    s.add_argument("--r", type=int, default=None)
    s.add_argument("--a", type=int, default=None)
    s.add_argument("--family", default=None, help="e.g. const:1.0, asym_bc:1.0")
    s.add_argument("--eps", type=float, default=None)
    s.add_argument("--replicates", type=int, default=10_000)
    s.add_argument("--ladder", default=None, help="study: comma list of n")
    s.add_argument("--method", choices=["exact_dp", "splitting"],
                   default="exact_dp")
    s.add_argument("--splitting", action="store_true")
    s.add_argument("--tau", type=int, default=None)
    s.add_argument("--levels", type=int, default=4)
    # default None keeps "cap" out of every other tail command's echo
    s.add_argument("--cap", type=int, default=None,
                   help="study --method exact_dp only: refuse more chain "
                   f"states than this (default {PMF_NODE_CAP})")
    _add_common(s, seed=True, fmt="json")
    s.set_defaults(func=partial(cmd_tail, s))

    return parser


def _inject_config(argv: list) -> list:
    """Insert flags from a --config PATH (or --config=PATH) JSON file right
    after the subcommand, so explicit command-line flags still win."""
    at = next((i for i, tok in enumerate(argv)
               if tok == "--config" or tok.startswith("--config=")), None)
    if at is None:
        return argv
    if argv[at] == "--config":
        path = argv[at + 1] if at + 1 < len(argv) else ""
        rest = argv[:at] + argv[at + 2:]
    else:
        path, rest = argv[at].partition("=")[2], argv[:at] + argv[at + 1:]
    if not path:
        raise ParameterError("--config needs a path")
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ParameterError("config file must hold a JSON object")
    extra = []
    for key, value in sorted(doc.items()):
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                extra.append(flag)
        else:
            extra.extend([flag, str(value)])
    if not rest:
        raise ParameterError("a subcommand is required")
    head = rest[:1]
    if head[0] == "tail" and len(rest) > 1 and not rest[1].startswith("-"):
        head = rest[:2]
    return head + extra + rest[len(head):]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _inject_config(argv)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BootpercError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
