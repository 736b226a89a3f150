"""Record the reference data the benchmark checks against: perfbench/expected.json.

    python3 perfbench/record.py

Run once at the commit that defines the benchmark.  For each report workload
it stores the sha256 of the `arrhom h1` report for every CLI seed in its pool;
for the battery, the expected h1 of every corpus instance (each confirmed by
the Fox oracle).  It also stores the size of each instance: lines, points,
resonant points, bounded chambers, relation matrix shape and nonzeros.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run

POOL = 8
BATTERY_CORPUS_SEED = 20240810  # the seed of the acceptance suite's general corpus


def size_of(ar, arr, system) -> dict:
    rep = ar.homology.h1(arr, system, 0)
    narr = rep.arrangement
    return {
        "lines": arr.n,
        "points": len(narr.points),
        "resonant_points": len(ar.local_system.resonant_points(narr, system)),
        "bounded_chambers": rep.num_chamber_rows,
        "matrix_rows": rep.num_rows,
        "matrix_cols": rep.dim_A,
        "nonzeros": sum(len(r.coeffs) for r in rep.rows),
    }


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(parents=True, exist_ok=True)
    out = {}
    unrecorded = {"digests": {str(s): "" for s in range(POOL)}}
    for name in ("grid-exact", "grid-float", "quad"):
        wl = run.make_workload(name, {name: unrecorded})
        digests = {}
        for s in range(POOL):
            code, text = wl.call(s)
            if code != 0:
                raise SystemExit(f"{name}: arrhom h1 --seed {s} exited {code}")
            digests[str(s)] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        arr, system = wl.ar.io.parse_instance(wl.path.read_text(encoding="utf-8"))
        out[name] = {"digests": digests, "size": size_of(wl.ar, arr, system)}
        print(name, out[name]["size"], file=sys.stderr)

    ar = run.Arrhom()
    insts = ar.fuzz.corpus(BATTERY_CORPUS_SEED, run.BATTERY_SIZE, n_range=run.BATTERY_LINES)
    h1s, sizes = [], []
    for inst in insts:
        value = ar.homology.h1(inst.arrangement, inst.system, 0).h1
        if ar.fox.oracle_h1(inst.arrangement, inst.system, 0, 0) != value:
            raise SystemExit(f"oracle disagrees on battery instance {len(h1s)}")
        h1s.append(value)
        sizes.append(size_of(ar, inst.arrangement, inst.system))
    out["battery"] = {"corpus_seed": BATTERY_CORPUS_SEED, "h1": h1s, "sizes": sizes}

    path = run.HERE / "expected.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
