"""Self-test of the benchmark on the complete quadrilateral.

    python3 -m pytest -q perfbench

Each test runs a pass of one or two seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def declared(kind) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_quad_pass_prints_every_metric_with_its_unit(trace, kind):
    out = result_of(bench("--workload", "quad", "--seed", "5", "--seconds", "1", "--trace", trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == declared(kind)
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_quad_trace_pins_the_repeated_work_of_one_report():
    out = result_of(bench("--workload", "quad", "--seed", "0", "--seconds", "2", "--trace", "1"))
    m = {name: v["value"] for name, v in out["metrics"].items()}
    reports = m["trace.instances"]
    # one `arrhom h1` report runs h1 twice and enumerates chambers four times
    assert m["homology.h1.calls"] == 2 * reports
    assert m["homology.h1.per_instance"] == 2
    assert m["geometry.chambers.calls"] == 4 * reports
    assert m["io.build_report.calls"] == reports


def run_in_process(monkeypatch, tmp_path, expected) -> dict:
    (tmp_path / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    monkeypatch.setattr(run, "HERE", tmp_path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", "quad", "--seed", "0", "--seconds", "0.5"])
    assert code == 0
    return json.loads(buf.getvalue().splitlines()[-1])


def recorded() -> dict:
    return json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


def test_gate_counts_a_wrong_expected_value(monkeypatch, tmp_path):
    monkeypatch.setitem(run.HAND_EXPECTED, "quad", dict(run.HAND_EXPECTED["quad"], h1=2))
    out = run_in_process(monkeypatch, tmp_path, recorded())
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] >= 1


def test_gate_counts_changed_report_bytes(monkeypatch, tmp_path):
    expected = recorded()
    expected["quad"]["digests"] = {s: "0" * 64 for s in expected["quad"]["digests"]}
    out = run_in_process(monkeypatch, tmp_path, expected)
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] >= 1


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "battery", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
