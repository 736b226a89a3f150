import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from arrhom import cli, fuzz
from arrhom.cli import main
from arrhom.cyclo import MAX_ORDER
from arrhom.geometry import Line, normalize
from arrhom.io import MAX_DIGITS, parse_instance, parse_rational, rational_str
from arrhom.errors import ParseError
from frame_helpers import mat_apply_point


A3_DOC = {
    "lines": [[0, 1, 0], [1, 0, 0], [1, -1, 0], [1, 1, -1], [1, 0, -1], [0, 1, -1]],
    "local_system": {"order": 3, "exponents": [1, 1, 1, 1, 1, 1]},
}


@pytest.fixture
def a3_file(tmp_path):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(A3_DOC))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_rational_strings():
    assert parse_rational("3/2", "x") == Fraction(3, 2)
    assert parse_rational(-7, "x") == -7
    assert rational_str(Fraction(3, 2)) == "3/2"
    assert rational_str(Fraction(4, 2)) == "2"
    with pytest.raises(ParseError):
        parse_rational("3/0", "x")
    with pytest.raises(ParseError):
        parse_rational(1.5, "x")


def test_parse_instance_roundtrip():
    arr, ls = parse_instance(json.dumps(A3_DOC))
    assert arr.n == 6 and ls.order == 3


def test_h1_command(a3_file, capsys):
    code, out, err = _run(capsys, "h1", a3_file)
    assert code == 0
    report = json.loads(out)
    assert report["h1"] == 1
    assert report["rank"] == 11
    assert report["dim_A"] == 12
    assert report["matrix"]["rows"] == 14
    assert report["oracle"]["agrees"] is True
    assert report["bounds"]["min"] == 1
    assert report["census"]["bounded_chambers"] == 6


def test_h1_byte_stability(a3_file, capsys):
    code1, out1, _ = _run(capsys, "h1", a3_file, "--seed", "7")
    code2, out2, _ = _run(capsys, "h1", a3_file, "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def _run_or_exit(capsys, argv):
    """(exit code, stdout, stderr) of one call, a usage error's SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_parser_serves_every_call_of_a_process(a3_file, capsys):
    # the cached parser carries nothing from one call to the next: a mixed
    # sequence prints what a freshly built parser prints for each call
    sequence = [
        ["h1", a3_file, "--float", "--seed", "2"],
        ["h1", a3_file],
        ["h1", a3_file, "--certificates", "--no-oracle"],
        ["h1", a3_file, "--seed", "two"],
        ["validate", a3_file],
        ["h1", a3_file],
    ]
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(_run_or_exit(capsys, argv))
    cli._build_parser.cache_clear()
    reused = [_run_or_exit(capsys, argv) for argv in sequence]
    assert cli._build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [r[0] for r in reused] == [0, 0, 0, ("SystemExit", 2), 0, 0]
    assert "usage: arrhom h1" in reused[3][2]


def test_h1_float_mode(a3_file, capsys):
    code, out, _ = _run(capsys, "h1", a3_file, "--float")
    assert code == 0
    assert json.loads(out)["h1"] == 1


def test_normalization_record_roundtrip(a3_file, capsys):
    code, out, _ = _run(capsys, "h1", a3_file, "--no-oracle", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    arr, _ls = parse_instance(json.dumps(A3_DOC))
    matrix = tuple(
        tuple(Fraction(v) for v in row) for row in report["normalization"]["matrix"]
    )
    narr, rec = normalize(arr, seed=3)
    assert matrix == rec.matrix
    # applying the recorded map to the input reproduces the reported points
    reported = {
        (Fraction(p["x"]), Fraction(p["y"]))
        for p in report["census"]["points"]
        if "x" in p
    }
    recomputed = set()
    for p in arr.points:
        X, Y, Z = mat_apply_point(matrix, p.coords)
        assert Z != 0
        recomputed.add((X / Z, Y / Z))
    assert reported == recomputed


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"lines": [[0,1,0],["3/0",1,0]], "local_system": {"order":2,"exponents":[1,1]}}')
    code, _out, err = _run(capsys, "h1", str(bad))
    assert code == 1
    assert "lines[1][0]" in err


@pytest.mark.parametrize(
    "bad_value",
    ['["abc", 0]', "[NaN, 0]", "[true, 0]", "[1, Infinity]", "[1e999, 0]", "[null, 0]"],
    ids=["non-numeric", "nan", "boolean", "infinite", "overflow", "null"],
)
def test_float_values_parse_error(tmp_path, capsys, bad_value):
    one = "[1.0, 0.0]"
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"lines": [[0,1,0],[1,0,0],[1,-1,0]], '
        f'"local_system": {{"values": [{one}, {bad_value}, {one}]}}}}'
    )
    code, out, err = _run(capsys, "h1", str(bad))
    assert code == 1 and out == ""
    assert "local_system.values[1]" in err and "Traceback" not in err


def test_boolean_order_parse_error(tmp_path, capsys):
    # bool is a subclass of int, so `true` must be rejected explicitly
    doc = {"lines": A3_DOC["lines"], "local_system": {"order": True, "exponents": [1] * 6}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "h1", str(bad))
    assert code == 1 and out == ""
    assert "local_system.order" in err and "Traceback" not in err


@pytest.mark.parametrize("order", [MAX_ORDER + 1, 10**9, 2**61])
def test_order_above_the_maximum_is_a_parse_error(tmp_path, capsys, order):
    # 10^9 used to end in a MemoryError traceback, and from 2^61 on the
    # search for a prime p = 1 (mod d) below 2^61 never returned
    doc = {
        "lines": [[0, 1, 0], [1, 0, 0], [1, -1, 0], [1, 1, -1]],
        "local_system": {"order": order, "exponents": [1, 1, 1, -3]},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "h1", str(path))
    assert code == 1 and out == ""
    assert "local_system.order" in err and f"at most {MAX_ORDER}" in err
    assert "Traceback" not in err


def test_order_at_the_maximum_is_accepted():
    doc = dict(A3_DOC, local_system={"order": MAX_ORDER, "exponents": [1, 2, -3, -3, 2, 1]})
    _arr, ls = parse_instance(json.dumps(doc))
    assert ls.order == MAX_ORDER


def test_admissibility_exit_code(tmp_path, capsys):
    doc = {
        "lines": [[0, 1, 0], [1, 0, 0], [1, -1, 0], [1, 1, -1]],
        "local_system": {"order": 3, "exponents": [1, 1, 1, 1]},
    }
    path = tmp_path / "inadm.json"
    path.write_text(json.dumps(doc))
    code, _out, err = _run(capsys, "h1", str(path))
    assert code == 2


def test_validate_command(a3_file, capsys):
    code, out, _ = _run(capsys, "validate", a3_file)
    assert code == 0
    assert json.loads(out)["admissible"] is True


def test_bounds_command(a3_file, capsys):
    code, out, _ = _run(capsys, "bounds", a3_file)
    assert code == 0
    frag = json.loads(out)
    assert frag["bounds"]["min"] == 1
    assert all(e["r0"] == 1 and e["cdo"] == 2 for e in frag["bounds"]["per_line"])
    assert all(c["status"] == "ok" for c in frag["beta_certificates"])


def test_bounds_pencil_marker(tmp_path, capsys):
    doc = {
        "lines": [[1, -1, 0], [1, 1, 0], [2, -1, 0], [1, -2, 0]],
        "local_system": {"order": 4, "exponents": [1, 1, 1, 1]},
    }
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "bounds", str(path))
    assert code == 0
    frag = json.loads(out)
    assert all(e["r0"] is None and "not applicable" in e["r0_note"] for e in frag["bounds"]["per_line"])
    assert frag["h1"] == 2


def test_sharp_pairs_command(a3_file, capsys):
    code, out, _ = _run(capsys, "sharp-pairs", a3_file)
    assert code == 0
    assert len(json.loads(out)["sharp_pairs"]) == 12


def test_oracle_command(a3_file, capsys):
    code, out, _ = _run(capsys, "oracle", a3_file, "--line", "4")
    assert code == 0
    assert json.loads(out)["oracle_h1"] == 1


def test_render_command(a3_file, tmp_path, capsys):
    out_path = tmp_path / "fig.svg"
    code, _out, _err = _run(capsys, "render", a3_file, "-o", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert svg.count("<line") == 6
    assert svg.count("<circle") == 7
    assert svg.count('class="pt resonant"') == 4
    assert svg.count("<polygon") == 6


def test_render_two_lines(tmp_path, capsys):
    doc = {
        "lines": [[0, 1, 0], [1, -1, 0]],
        "local_system": {"order": 2, "exponents": [1, 1]},
    }
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    out_path = tmp_path / "two.svg"
    code, _out, _err = _run(capsys, "render", str(path), "-o", str(out_path))
    assert code == 0
    assert out_path.read_text().count("<circle") == 1


def test_render_unwritable_path(a3_file, capsys):
    code, _out, err = _run(capsys, "render", a3_file, "-o", "/nonexistent-dir/x.svg")
    assert code == 1


def test_env_seed_override(a3_file, capsys, monkeypatch):
    monkeypatch.setenv("ARR_SEED", "9")
    code, out, _ = _run(capsys, "h1", a3_file, "--no-oracle", "--seed", "0")
    assert code == 0
    assert json.loads(out)["normalization"]["seed"] == 9


@pytest.mark.parametrize(
    "env_seed, argv, option",
    [
        ("abc", ("h1", "{a3}", "--no-oracle"), "ARR_SEED"),
        (None, ("oracle", "{a3}", "--line", "99"), "--line"),
        (None, ("oracle", "{a3}", "--line", "-1"), "--line"),
        (None, ("fuzz", "--lines", "1"), "--lines"),
        (None, ("fuzz", "--lines", "2", "--sharp-only"), "--lines"),
        (None, ("fuzz", "--max-lines", "2"), "--max-lines"),
        (None, ("fuzz", "--order", "1"), "--order"),
        (None, ("fuzz", "--order", "2", "--lines", "3"), "--order"),
        (None, ("fuzz", "--trials", "-1"), "--trials"),
        (None, ("fuzz", "--order", str(MAX_ORDER + 1)), "--order"),
        (None, ("fuzz", "--jobs", "0"), "--jobs"),
        (None, ("fuzz", "--jobs", "-3"), "--jobs"),
        (None, ("fuzz", "--lines", "20", "--trials", "1"), "--lines"),
        (None, ("fuzz", "--lines", "18", "--sharp-only", "--trials", "1"), "--lines"),
        (None, ("fuzz", "--max-lines", "400"), "--max-lines"),
        (None, ("fuzz", "--max-lines", "18", "--sharp-only"), "--max-lines"),
    ],
)
def test_bad_option_values_exit_1(a3_file, capsys, monkeypatch, tmp_path, env_seed, argv, option):
    # each used to end in a traceback, a hang or a misleading exit code
    monkeypatch.chdir(tmp_path)
    if env_seed is not None:
        monkeypatch.setenv("ARR_SEED", env_seed)
    code, out, err = _run(capsys, *(a.format(a3=a3_file) for a in argv))
    assert code == 1
    assert out == ""
    assert option in err


def test_float_values_file(tmp_path, capsys):
    import cmath

    w = cmath.exp(2j * cmath.pi / 3)
    doc = {
        "lines": A3_DOC["lines"],
        "local_system": {"values": [[w.real, w.imag]] * 6},
    }
    path = tmp_path / "a3f.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "h1", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["h1"] == 1 and report["oracle"] is None


def test_fuzz_trials_are_bounded_before_any_corpus_is_built(capsys, monkeypatch):
    def no_corpus(*args, **kwargs):
        raise AssertionError("a corpus was built for an out-of-range --trials")

    monkeypatch.setattr(cli, "corpus", no_corpus)
    monkeypatch.setattr(cli, "sharp_corpus", no_corpus)
    for trials in (cli.MAX_TRIALS + 1, 10**12):
        for extra in ((), ("--sharp-only",)):
            code, out, err = _run(capsys, "fuzz", "--trials", str(trials), *extra)
            assert (code, out) == (1, "")
            assert "--trials" in err and str(cli.MAX_TRIALS) in err and "Traceback" not in err
    # the bound itself is accepted
    cli._check_fuzz_args(cli._build_parser().parse_args(["fuzz", "--trials", str(cli.MAX_TRIALS)]))


def test_fuzz_line_bounds_are_what_every_generator_reaches(tmp_path, capsys, monkeypatch):
    # a pencil draws distinct slopes p/q with |p| <= 4, q <= 3, and the
    # sharp corpus's conic tangents distinct t with |p| <= 5, q <= 2: one
    # line more than there are values would never be drawn
    assert len({Fraction(p, q) for p in range(-4, 5) for q in range(1, 4)}) == cli.MAX_LINES
    assert len({Fraction(p, q) for p in range(-5, 6) for q in range(1, 3)}) == cli.MAX_SHARP_LINES
    monkeypatch.chdir(tmp_path)
    for argv in (("--lines", str(cli.MAX_LINES)), ("--sharp-only", "--lines", str(cli.MAX_SHARP_LINES))):
        code, out, err = _run(capsys, "fuzz", "--trials", "2", "--seed", "0", *argv)
        assert (code, json.loads(out)["violations"]) == (0, 0), err


def test_corpora_past_their_line_bounds_raise_instead_of_hanging():
    # called from Python, not only through the CLI: one line more than the
    # generators can draw is a ValueError naming the bound, before any draw;
    # a fresh process under a timeout, since the failure this guards is a hang
    code = (
        "from arrhom.fuzz import corpus, sharp_corpus\n"
        "for make, n in ((corpus, 20), (sharp_corpus, 18)):\n"
        "    try:\n"
        "        make(0, 1, n_range=(3, n))\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"the corpus draws at most {cli.MAX_LINES} lines, not 20",
        f"the sharp corpus draws at most {cli.MAX_SHARP_LINES} lines, not 18",
    ]
    assert (cli.MAX_LINES, cli.MAX_SHARP_LINES) == (fuzz.MAX_LINES, fuzz.MAX_SHARP_LINES) == (19, 17)


def test_fuzz_zero_trials(capsys):
    code, out, _ = _run(capsys, "fuzz", "--trials", "0")
    assert code == 0
    assert json.loads(out)["violations"] == 0


def test_fuzz_small_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(capsys, "fuzz", "--trials", "4", "--seed", "11", "--max-lines", "5")
    assert code == 0
    summary = json.loads(out)
    assert summary["trials"] == 4 and summary["violations"] == 0


def test_fuzz_sharp_only(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(capsys, "fuzz", "--trials", "3", "--sharp-only", "--seed", "2", "--max-lines", "5")
    assert code == 0
    assert json.loads(out)["violations"] == 0


def test_fuzz_worker_pool(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(capsys, "fuzz", "--trials", "4", "--seed", "13", "--max-lines", "5", "--jobs", "2")
    assert code == 0
    summary = json.loads(out)
    assert summary["trials"] == 4 and summary["violations"] == 0


def test_only_a_fuzz_pool_imports_multiprocessing():
    # a process pool costs every command about 30 ms and 2.6 MB at start-up
    code = "import sys, arrhom.cli; print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


class _RecordingPool:
    """A stand-in for ProcessPoolExecutor that records its size and runs in
    this process, so no test ever starts a worker per requested job."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs, cpus, size",
    [(100000, 8, 3), (100000, 2, 2), (2, 8, 2), (100000, None, None), (1, 8, None)],
    ids=["trials", "cpus", "jobs", "unknown-cpus", "serial"],
)
def test_fuzz_pool_is_at_most_jobs_trials_and_cpus(tmp_path, capsys, monkeypatch, jobs, cpus, size):
    monkeypatch.chdir(tmp_path)
    argv = ("fuzz", "--trials", "3", "--seed", "5", "--max-lines", "4")
    serial = _run(capsys, *argv)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert _run(capsys, *argv, "--jobs", str(jobs)) == serial
    assert _RecordingPool.sizes == ([] if size is None else [size])


def _instance_text(first_line: str, exponents: str = "[1, 1, 1, 1, 1]") -> str:
    """An instance as JSON text, which can hold integers that ``json.dumps``
    would refuse to write."""
    return (
        f'{{"lines": [{first_line}, [0, 1, 0], [1, 0, 0], [1, 1, -1], [1, -1, 2]], '
        f'"local_system": {{"order": 5, "exponents": {exponents}}}}}'
    )


@pytest.mark.parametrize("command", ["validate", "h1"])
@pytest.mark.parametrize(
    "text, where",
    [
        (_instance_text(f"[{'7' * 5000}, 0, 1]"), "lines[0][0]"),
        (_instance_text("[1, 2, 3]", f"[{'1' * 5000}, 1, 1, 1, 1]"), "local_system.exponents[0]"),
        (_instance_text('["1e5000", 0, 1]'), "lines[0]"),
        (_instance_text('[1, "1e100000000", 1]'), "lines[0][1]"),
        (_instance_text('[1, 1, "1e-100000000"]'), "lines[0][2]"),
        (_instance_text(f"[{10**MAX_DIGITS}, 1, 0]"), "lines[0]"),
        (_instance_text(f'[1, 1, "1/{10**MAX_DIGITS}"]'), "lines[0]"),
        ("[" * 100000, "$"),
    ],
    ids=[
        "json-int-5000-digits",
        "exponent-5000-digits",
        "exponent-part-5000",
        "exponent-part-1e8",
        "negative-exponent-part-1e8",
        "coefficient-one-digit-too-many",
        "denominator-one-digit-too-many",
        "nesting",
    ],
)
def test_oversized_numbers_are_parse_errors(tmp_path, capsys, command, text, where):
    # each used to end in a ValueError traceback from json or from printing
    # the report, or to hang while building a huge integer
    path = tmp_path / "big.json"
    path.write_text(text)
    code, out, err = _run(capsys, command, str(path))
    assert code == 1 and out == ""
    assert err.startswith("parse error") and where in err
    assert "Traceback" not in err


def test_largest_coefficients_report(tmp_path, capsys):
    # every canonical coefficient at MAX_DIGITS digits, parallel lines
    # included, so the basic frame needs a projective map
    c = 10**MAX_DIGITS - 1
    path = tmp_path / "largest.json"
    path.write_text(_instance_text(f"[0, 1, {-c}]").replace("[1, -1, 2]", f"[{c}, {2 - c}, 1]"))
    code, out, err = _run(capsys, "h1", str(path), "--certificates")
    assert code == 0 and "Traceback" not in err
    report = json.loads(out)
    assert report["input"]["lines"][0] == ["0", "1", str(-c)]
    assert all(report["consistency"].values())
