"""Golden sha256 digests of `arrhom h1 --certificates` reports.

The instances are the acceptance corpus members with 3-6 lines (corpus seed
20240810), each at its own normalization seed, plus a few of them in float
mode.  Reports are byte-identical for a fixed input and seed, so a refactor
that keeps the program's output unchanged keeps every digest.  The instance
documents are stored with the digests, so the check does not depend on the
corpus generator.

Re-record only when a change is meant to alter report bytes, and say so:

    PYTHONPATH=src python3 tests/test_report_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from arrhom.cli import main

DATA = Path(__file__).with_name("report_digests.json")
CORPUS_SEED = 20240810
EXACT_CASES = 30
FLOAT_CASES = 4


def report_digest(doc: dict, seed: int, float_mode: bool, workdir: Path):
    path = Path(workdir) / "instance.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    args = ["h1", str(path), "--seed", str(seed), "--certificates"]
    if float_mode:
        args.append("--float")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def record() -> list:
    from arrhom.fuzz import corpus
    from arrhom.io import dump_instance

    insts = corpus(CORPUS_SEED, 200, n_range=(3, 8), d_range=(2, 6))
    small = [(i, inst) for i, inst in enumerate(insts) if inst.arrangement.n <= 6][:EXACT_CASES]
    spread = small[:: EXACT_CASES // FLOAT_CASES][:FLOAT_CASES]
    picks = [(i, inst, False) for i, inst in small] + [(i, inst, True) for i, inst in spread]
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, inst, float_mode in picks:
            doc = dump_instance(inst.arrangement, inst.system)
            code, digest = report_digest(doc, i, float_mode, tmp)
            cases.append(
                {"corpus_index": i, "seed": i, "float": float_mode, "exit_code": code,
                 "instance": doc, "sha256": digest}
            )
    return cases


CASES = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else []


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{c['corpus_index']}{'-float' if c['float'] else ''}" for c in CASES]
)
def test_report_bytes_match_recorded_digest(case, tmp_path, monkeypatch):
    monkeypatch.delenv("ARR_SEED", raising=False)
    code, digest = report_digest(case["instance"], case["seed"], case["float"], tmp_path)
    assert code == case["exit_code"]
    assert digest == case["sha256"]


def test_digest_table_covers_exact_and_float_reports():
    assert sum(not c["float"] for c in CASES) == EXACT_CASES
    assert sum(c["float"] for c in CASES) == FLOAT_CASES
    assert all(3 <= len(c["instance"]["lines"]) <= 6 for c in CASES)


if __name__ == "__main__":
    os.environ.pop("ARR_SEED", None)
    DATA.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DATA}", file=sys.stderr)
