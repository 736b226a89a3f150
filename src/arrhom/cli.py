"""Command-line interface.

Subcommands: h1 | bounds | sharp-pairs | oracle | fuzz | render | validate.
Reports are UTF-8 JSON on stdout with sorted keys, so identical input and
seed give byte-identical output; diagnostics go to stderr.

Exit codes: 0 success, 1 parse error, 2 admissibility rejection, 3 internal
consistency failure (oracle or chamber-count mismatch).  The environment
variable ARR_SEED overrides --seed.

The argument parser is built on the first :func:`main` call and reused by
later calls in the same process.  Only callers that run several commands
in one process (the tests, the benchmark harness) gain from this; a
one-shot ``arrhom`` process builds it once either way.  ``parse_args``
returns a fresh namespace on every call and the parser keeps no state
between calls, so repeated in-process calls print what one-shot processes
print.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .cyclo import MAX_ORDER
from .errors import (
    ArrhomError,
    NotALocalSystem,
    ParseError,
    TrivialOnLine,
)
from .fox import oracle_h1
from .fuzz import MAX_LINES, MAX_SHARP_LINES, corpus, run_trial, sharp_corpus
from .geometry import normalize, sharp_pairs
from .io import build_report, dump_instance, parse_instance, report_to_json
from .render import render_svg

__all__ = ["MAX_LINES", "MAX_SHARP_LINES", "MAX_TRIALS", "main"]

# The corpus and every trial's payload are built before the first trial
# runs: 2000 trials took 2.1 s and 8.6 MB, so this bound keeps that under
# about 10 s and 43 MB.
MAX_TRIALS = 10000


def _read_instance(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(str(exc), path) from None
    return parse_instance(text)


def _seed(args) -> int:
    env = os.environ.get("ARR_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"not an integer: {env!r}", "ARR_SEED") from None
    return args.seed


def _emit(doc: dict) -> None:
    sys.stdout.write(report_to_json(doc))


def _cmd_validate(args) -> int:
    arr, system = _read_instance(args.input)
    rep = system.validate(arr)
    _emit(
        {
            "lines": arr.n,
            "admissible": rep.ok,
            "product_ok": rep.product_ok,
            "trivial_lines": list(rep.trivial_lines),
            "message": rep.message,
        }
    )
    return 0 if rep.ok else 2


def _cmd_h1(args) -> int:
    arr, system = _read_instance(args.input)
    if args.float and system.is_exact:
        system = system.to_float()
    system.require_admissible(arr)
    report = build_report(
        arr,
        system,
        seed=_seed(args),
        with_oracle=not args.no_oracle and system.is_exact,
        with_certificates=args.certificates,
    )
    _emit(report)
    cons = report["consistency"]
    if not all(v for v in cons.values()):
        print("internal consistency failure: " + json.dumps(cons), file=sys.stderr)
        return 3
    return 0


def _cmd_bounds(args) -> int:
    arr, system = _read_instance(args.input)
    system.require_admissible(arr)
    report = build_report(
        arr, system, seed=_seed(args), with_oracle=False, with_certificates=True
    )
    fragment = {
        "bounds": report["bounds"],
        "h1": report["h1"],
        "theorems": report["theorems"],
        "beta_certificates": report.get("beta_certificates", []),
    }
    _emit(fragment)
    return 0


def _cmd_sharp_pairs(args) -> int:
    arr, _system = _read_instance(args.input)
    _emit({"sharp_pairs": [list(p) for p in sharp_pairs(arr)]})
    return 0


def _cmd_oracle(args) -> int:
    arr, system = _read_instance(args.input)
    if not 0 <= args.line < arr.n:
        raise ParseError(f"must be a line index in 0..{arr.n - 1}, got {args.line}", "--line")
    system.require_admissible(arr)
    value = oracle_h1(arr, system, args.line)
    _emit({"oracle_h1": value, "decone_line": args.line})
    return 0


def _cmd_render(args) -> int:
    arr, system = _read_instance(args.input)
    narr, _rec = normalize(arr, _seed(args))
    svg = render_svg(narr, system)
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        print(f"cannot write {args.output}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _fuzz_one(payload):
    kind, seed_i, doc = payload
    arr, system = parse_instance(json.dumps(doc))
    result = run_trial(
        arr,
        system,
        seed=seed_i,
        with_oracle=True,
        all_decones=arr.n <= 5,
        with_certificate=True,
        extra_seeds=1,
    )
    return kind, seed_i, result.h1, result.violations


def _check_fuzz_args(args) -> None:
    """Reject option values the corpus generators cannot honour."""
    fewest = 3 if args.sharp_only else 2  # a sharp pair needs a non-pencil
    most = MAX_SHARP_LINES if args.sharp_only else MAX_LINES
    if not 0 <= args.trials <= MAX_TRIALS:
        raise ParseError(f"must be from 0 to {MAX_TRIALS}, got {args.trials}", "--trials")
    if args.jobs < 1:
        raise ParseError(f"must be at least 1, got {args.jobs}", "--jobs")
    if args.lines and not fewest <= args.lines <= most:
        raise ParseError(f"must be 0 (any) or from {fewest} to {most}, got {args.lines}", "--lines")
    if not args.lines and not 3 <= args.max_lines <= most:
        raise ParseError(f"must be from 3 to {most}, got {args.max_lines}", "--max-lines")
    if args.order and not 2 <= args.order <= MAX_ORDER:
        raise ParseError(f"must be 0 (any) or from 2 to {MAX_ORDER}, got {args.order}", "--order")
    if args.order == 2 and not args.sharp_only and (not args.lines or args.lines % 2):
        raise ParseError("order 2 needs an even --lines", "--order")


def _cmd_fuzz(args) -> int:
    _check_fuzz_args(args)
    seed = _seed(args)
    if args.trials == 0:
        _emit({"trials": 0, "violations": 0})
        return 0
    n_range = (args.lines, args.lines) if args.lines else (3, args.max_lines)
    if args.sharp_only:
        instances = sharp_corpus(seed, args.trials, n_range=n_range)
    else:
        d_range = (args.order, args.order) if args.order else (2, 6)
        instances = corpus(seed, args.trials, n_range=n_range, d_range=d_range)
    payloads = [
        (inst.label, seed + i, dump_instance(inst.arrangement, inst.system))
        for i, inst in enumerate(instances)
    ]
    # a process pool may start all its workers at the first submit; results
    # come back in order, so the output does not depend on the pool size
    workers = min(args.jobs, args.trials, os.cpu_count() or 1)
    if workers > 1:
        # imported here: multiprocessing costs every other command about
        # 30 ms and 2.6 MB at start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_fuzz_one, payloads))
    else:
        results = [_fuzz_one(p) for p in payloads]
    violations = []
    for (label, seed_i, value, viol), payload in zip(results, payloads):
        if viol:
            dump_path = f"violation-{seed_i}.json"
            with open(dump_path, "w", encoding="utf-8") as fh:
                json.dump(payload[2], fh, sort_keys=True, indent=2)
            violations.append(
                {"label": label, "seed": seed_i, "h1": value, "violations": viol, "dump": dump_path}
            )
    summary = {
        "trials": args.trials,
        "sharp_only": args.sharp_only,
        "violations": len(violations),
        "h1_histogram": _histogram(r[2] for r in results),
        "details": violations,
    }
    _emit(summary)
    return 0 if not violations else 3


def _histogram(values) -> dict:
    out = {}
    for v in values:
        out[str(v)] = out.get(str(v), 0) + 1
    return dict(sorted(out.items()))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrhom",
        description="Twisted first Betti numbers of complexified real line arrangements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check admissibility of an arrangement file")
    p.add_argument("input")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("h1", help="compute h1 with bounds, census and oracle check")
    p.add_argument("input")
    p.add_argument("--float", action="store_true", help="run in floating-point mode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-oracle", action="store_true")
    p.add_argument("--certificates", action="store_true", help="include neighbor certificates")
    p.set_defaults(func=_cmd_h1)

    p = sub.add_parser("bounds", help="per-line bounds and neighbor certificates")
    p.add_argument("input")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sharp-pairs", help="list sharp pairs of the arrangement")
    p.add_argument("input")
    p.set_defaults(func=_cmd_sharp_pairs)

    p = sub.add_parser("oracle", help="independent h1 via Fox calculus")
    p.add_argument("input")
    p.add_argument("--line", type=int, default=0, help="line sent to infinity")
    p.add_argument("--seed", type=int, default=0, help="ignored: the chart does not depend on it")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("fuzz", help="randomized consistency harness")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--lines", type=int, default=0, help="fix the line count")
    p.add_argument("--max-lines", type=int, default=8)
    p.add_argument("--order", type=int, default=0, help="fix the monodromy order")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sharp-only", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("render", help="SVG of the normalized real figure")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (NotALocalSystem, TrivialOnLine) as exc:
        print(f"not an admissible local system: {exc}", file=sys.stderr)
        return 2
    except ArrhomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
