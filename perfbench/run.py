"""Benchmark of arrhom: verified `arrhom h1` reports and the fuzz battery.

    python3 perfbench/run.py --workload grid-exact --seed 3 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout.  Load is a closed loop in this one process: the next instance
starts when the previous one has been checked.  Workloads (the reasons for
each are in ``perfbench/README.md``):

``grid-exact``  ``arrhom h1`` (oracle on) on the 9-line triangular grid, order 3
``grid-float``  ``arrhom h1`` on the same 9-line grid, unit values that are
                not roots of unity
``battery``     ``fuzz.run_trial`` with the settings of ``arrhom fuzz`` on a
                fixed 100-instance corpus of 3-6 lines, in whole passes
``quad``        the complete quadrilateral; a tiny pass for the self-test

``--seed`` picks the normalization seeds: the CLI ``--seed`` of each report
(rotating through a pool whose report digests are recorded) or the trial
seeds of the battery.  With ``--trace 0`` the last line of stdout carries the
end-to-end metrics; with ``--trace 1`` the run measures half its time
untraced, replays the same instances with every layer wrapped, and carries
the per-layer metrics.  Spans are written to ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 7
# triangular grid sizes: a vertical and a horizontal lines, 2a-3 diagonals
GRID_EXACT_A = 3
GRID_FLOAT_A = 3
BATTERY_SIZE = 100
BATTERY_LINES = (3, 6)

# h1, dim A and rank K written out by hand.  grid a=3 is the value of an
# independent elimination mod a prime p = 1 (mod 3); the quadrilateral is the
# paper's example; the float grid (same lines, other values) was computed when
# the benchmark was defined and agrees with the floating-point Fox oracle.
HAND_EXPECTED = {
    "grid-exact": {"h1": 1, "dim_A": 30, "rank": 29},
    "grid-float": {"h1": 0, "dim_A": 21, "rank": 21},
    "quad": {"h1": 1, "dim_A": 12, "rank": 11},
}

QUADRILATERAL = [[0, 1, 0], [1, 0, 0], [1, -1, 0], [1, 1, -1], [1, 0, -1], [0, 1, -1]]


# ---------------------------------------------------------------------------
# instances


def grid_lines(a: int) -> list:
    """The lines x=i, y=j (0 <= i, j < a) and x+y=c (1 <= c <= 2a-3)."""
    return (
        [[1, 0, -i] for i in range(a)]
        + [[0, 1, -j] for j in range(a)]
        + [[1, 1, -c] for c in range(1, 2 * a - 2)]
    )


def grid_exact_doc(a: int) -> dict:
    """Order 3, exponents 1; the last one or two raised to 2 to sum to 0 mod 3."""
    lines = grid_lines(a)
    exps = [1] * len(lines)
    for k in range(1, 1 + (-len(lines)) % 3):
        exps[-k] = 2
    return {"lines": lines, "local_system": {"order": 3, "exponents": exps}}


def _gmul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _gpow(p, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = _gmul(out, p)
    return out


def _conj(p):
    return (p[0], -p[1])


def grid_float_doc(a: int) -> dict:
    """Unit values u*w^i, v*w^j and 1/(u*v*w^c) that are not roots of unity.

    u, v and w are Gaussian rationals of modulus 1, so the arithmetic is exact
    and the float values are the same on every machine.  Every triple point
    (i, j, i+j) is resonant; the last diagonal is then corrected so that the
    product of all values is 1, which takes it out of resonance.
    """
    u = (Fraction(5, 13), Fraction(12, 13))
    v = (Fraction(8, 17), Fraction(15, 17))
    w = (Fraction(3, 5), Fraction(4, 5))
    vals = [_gmul(u, _gpow(w, i)) for i in range(a)]
    vals += [_gmul(v, _gpow(w, j)) for j in range(a)]
    vals += [_conj(_gmul(_gmul(u, v), _gpow(w, c))) for c in range(1, 2 * a - 2)]
    total = (Fraction(1), Fraction(0))
    for x in vals:
        total = _gmul(total, x)
    vals[-1] = _gmul(vals[-1], _conj(total))
    return {
        "lines": grid_lines(a),
        "local_system": {"values": [[float(re), float(im)] for re, im in vals]},
    }


# ---------------------------------------------------------------------------
# workloads


class Report:
    """One `arrhom h1` report per instance, through the CLI entry point."""

    pass_size = 1

    def __init__(self, name, doc, ar, record):
        self.ar = ar
        self.expected = HAND_EXPECTED[name]
        self.digests = record["digests"]
        self.path = WORK / f"{name}.json"
        self.path.write_text(json.dumps(doc), encoding="utf-8")
        self.report_bytes = 0

    def items(self, seed):
        pool = len(self.digests)
        k = 0
        while True:
            yield (seed + k) % pool
            k += 1

    def call(self, cli_seed):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.ar.cli.main(["h1", str(self.path), "--seed", str(cli_seed)])
        return code, buf.getvalue()

    def check(self, cli_seed, result) -> list:
        code, out = result
        self.report_bytes += len(out.encode("utf-8"))
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if hashlib.sha256(out.encode("utf-8")).hexdigest() != self.digests[str(cli_seed)]:
            problems.append("report bytes differ from the recorded digest")
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return problems + ["report is not JSON"]
        for key, want in self.expected.items():
            if report.get(key) != want:
                problems.append(f"{key}={report.get(key)}, expected {want}")
        if not all(report.get("consistency", {}).values()):
            problems.append(f"consistency check failed: {report.get('consistency')}")
        oracle = report.get("oracle")
        if oracle is not None and oracle.get("h1") != self.expected["h1"]:
            problems.append(f"oracle h1={oracle.get('h1')}, expected {self.expected['h1']}")
        return problems

    def finish(self, seeds_used) -> dict:
        """Checks off the user path, run after the timed region."""
        problems = {}
        text = self.path.read_text(encoding="utf-8")
        arr, system = self.ar.io.parse_instance(text)
        if not system.is_exact:  # the report carries no oracle in float mode
            for s in sorted(set(seeds_used)):
                try:
                    value = self.ar.fox.oracle_h1(arr, system, 0, s)
                except Exception as exc:  # counted like a wrong value
                    value = f"{type(exc).__name__}: {exc}"
                if value != self.expected["h1"]:
                    problems[s] = f"float oracle h1={value}, expected {self.expected['h1']}"
        return problems


class Battery:
    """fuzz.run_trial on a fixed corpus, with the settings of `arrhom fuzz`."""

    pass_size = BATTERY_SIZE

    def __init__(self, ar, record):
        self.ar = ar
        self.expected_h1 = record["h1"]
        insts = ar.fuzz.corpus(record["corpus_seed"], BATTERY_SIZE, n_range=BATTERY_LINES)
        self.docs = [json.dumps(ar.io.dump_instance(i.arrangement, i.system)) for i in insts]
        self.report_bytes = 0

    def items(self, seed):
        k = 0
        while True:
            yield ((seed + k) % BATTERY_SIZE, seed + k)
            k += 1

    def call(self, item):
        index, trial_seed = item
        arr, system = self.ar.io.parse_instance(self.docs[index])
        return self.ar.fuzz.run_trial(
            arr,
            system,
            seed=trial_seed,
            with_oracle=True,
            all_decones=arr.n <= 5,
            with_certificate=True,
            extra_seeds=1,
        )

    def check(self, item, result) -> list:
        index, _ = item
        problems = list(result.violations)
        if result.h1 != self.expected_h1[index]:
            problems.append(f"h1={result.h1}, expected {self.expected_h1[index]}")
        return problems

    def finish(self, items_used) -> dict:
        return {}


class Arrhom:
    """The program's modules, imported from the checkout."""

    def __init__(self):
        for name in [k for k in sys.modules if k == "arrhom" or k.startswith("arrhom.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("arrhom.cli")
        self.fox = importlib.import_module("arrhom.fox")
        self.fuzz = importlib.import_module("arrhom.fuzz")
        self.homology = importlib.import_module("arrhom.homology")
        self.io = importlib.import_module("arrhom.io")
        self.local_system = importlib.import_module("arrhom.local_system")
        where = Path(sys.modules["arrhom"].__file__).resolve()
        if SRC not in where.parents:
            raise ImportError(f"arrhom was imported from {where}, not from {SRC}")


def make_workload(name: str, expected: dict):
    """Import the program, then generate and serialise the workload's inputs."""
    ar = Arrhom()
    if name == "battery":
        return Battery(ar, expected["battery"])
    doc = {
        "grid-exact": lambda: grid_exact_doc(GRID_EXACT_A),
        "grid-float": lambda: grid_float_doc(GRID_FLOAT_A),
        "quad": lambda: {"lines": QUADRILATERAL, "local_system": {"order": 3, "exponents": [1] * 6}},
    }[name]()
    return Report(name, doc, ar, expected[name])


# ---------------------------------------------------------------------------
# measurement


def run_pass(workload, items, seconds, unit, tracer=None):
    """Closed loop over items until the next unit of work would pass `seconds`.

    Returns (items run, seconds per item, problems per item, wall seconds).
    At least one unit always runs.
    """
    done, times, problems = [], [], []
    start = time.perf_counter()
    for item in items:
        if tracer is not None:
            tracer.instance = len(done)
        t0 = time.perf_counter()
        try:
            result = workload.call(item)
        except Exception as exc:  # a failed instance is counted, not fatal
            t1 = time.perf_counter()
            found = [f"raised {type(exc).__name__}: {exc}"]
        else:
            t1 = time.perf_counter()
            found = workload.check(item, result)
        done.append(item)
        times.append(t1 - t0)
        problems.append(found)
        if len(done) % unit == 0:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(done) * unit > seconds:
                break
    return done, times, problems, time.perf_counter() - start


def p90(times) -> float:
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def attribute(done, problems, late):
    """Merge problems found after the timed region into the per-item lists."""
    for item, found in zip(done, problems):
        if item in late:
            found.append(late[item])
    return sum(1 for found in problems if found)


def report_problems(done, problems):
    for item, found in zip(done, problems):
        for p in found:
            print(f"FAIL {item}: {p}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["grid-exact", "grid-float", "battery", "quad"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "arrhom" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'arrhom'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True, exist_ok=True)
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

    # set-up: import, input generation and serialisation, repeated
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = make_workload(args.workload, expected)
        setup.append(time.perf_counter() - t0)

    if args.trace == 0:
        done, times, problems, wall = run_pass(
            workload, workload.items(args.seed), args.seconds, workload.pass_size
        )
        failed = attribute(done, problems, workload.finish(done))
        report_problems(done, problems)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "instances_per_s": (len(done) / wall, "1/s"),
            "instance_p50_s": (statistics.median(times), "s"),
            "instance_p90_s": (p90(times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        from tracer import Tracer

        done, _, problems, untraced = run_pass(workload, workload.items(args.seed), args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        workload.report_bytes = 0
        try:
            _, _, traced_problems, traced = run_pass(workload, iter(done), float("inf"), 1, tracer)
        finally:
            tracer.uninstall()
        problems = [a + b for a, b in zip(problems, traced_problems)]
        failed = attribute(done, problems, workload.finish(done))
        report_problems(done, problems)
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = tracer.metrics()
        n = len(done)
        metrics.update(
            {
                "homology.h1.per_instance": (tracer.calls["homology.h1"] / n, "calls/instance"),
                "io.report_bytes": (workload.report_bytes, "B"),
                "trace.instances": (n, "count"),
                "trace.overhead_s": (traced - untraced, "s"),
                "failure_rate": (failed / n, "ratio"),
            }
        )

    result = {
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
