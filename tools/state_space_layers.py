"""Per-layer CPU times and memory of the state space and the solver.

Run from the repository root:

    python3 tools/state_space_layers.py --label NAME [--repeats R] [--out FILE]

The package is imported from the ``src/`` next to this directory.  The
solves are ``solve_equilibrium`` at lam = mu = 1, nu = 2 and fill K/2.
Four layers are recorded:

* ``count_arrays``: building ``core.count_arrays(K)`` at K in
  {20, 40, 80}, with every cache in ``core`` cleared before each build;
* ``first_solve``: one solve in a fresh interpreter, at K in
  {20, 40, 80, 200, 1000}; the import is not timed;
* ``warm_solve``: the same solve repeated in this process after one
  warm-up call;
* ``peak_kib``: the ``tracemalloc`` peak of one warm solve.

Each time is taken ``R`` times on ``time.process_time`` (first solves:
``R`` fresh interpreters), and medians and quartiles in milliseconds
are merged into ``FILE`` (default ``BENCH_state_space.json`` at the
repository root) under ``NAME``, with the Python, numpy and duores
versions and the core count, so two checkouts can record into one file.
A capacity whose solve raises the state budget's ``ValueError`` is
recorded as ``"refused"``.  Times are raw CPU times, not scaled to a
reference speed, so compare only runs taken back to back on one machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import duores  # noqa: E402
from duores import core, equilibrium  # noqa: E402

ARRAY_K = (20, 40, 80)
SOLVE_K = (20, 40, 80, 200, 1000)
REFUSED = "refused"


def _solve(K: int):
    return equilibrium.solve_equilibrium(core.ModelParams(lam=1.0, mu=1.0, nu=2.0, K=K), K / 2)


def _refused(K: int) -> bool:
    try:
        _solve(K)
    except ValueError as err:
        if "state budget" in str(err):
            return True
        raise
    return False


def _clear_core_caches() -> None:
    for obj in vars(core).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def _summary(samples: list) -> dict:
    q1, med, q3 = statistics.quantiles(samples, n=4)
    return {"median_ms": round(med, 3), "q1_ms": round(q1, 3), "q3_ms": round(q3, 3),
            "n": len(samples)}


def _cpu_ms(fn, repeats: int, before=None) -> dict:
    samples = []
    for _ in range(repeats):
        if before is not None:
            before()
        t0 = time.process_time()
        fn()
        samples.append(1e3 * (time.process_time() - t0))
    return _summary(samples)


def _first_solve_ms(K: int, repeats: int):
    samples = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, __file__, "--first-solve", str(K)],
                             check=True, capture_output=True, text=True).stdout.strip()
        if out == REFUSED:
            return REFUSED
        samples.append(float(out))
    return _summary(samples)


def _peak_kib(K: int) -> int:
    tracemalloc.start()
    try:
        _solve(K)
        return round(tracemalloc.get_traced_memory()[1] / 1024)
    finally:
        tracemalloc.stop()


def measure(repeats: int) -> dict:
    layers = {
        "count_arrays": {K: _cpu_ms(lambda: core.count_arrays(K), repeats,
                                    before=_clear_core_caches) for K in ARRAY_K},
        "first_solve": {K: _first_solve_ms(K, repeats) for K in SOLVE_K},
        "warm_solve": {},
        "peak_kib": {},
    }
    for K in SOLVE_K:
        if _refused(K):  # also the warm-up call
            layers["warm_solve"][K] = layers["peak_kib"][K] = REFUSED
            continue
        layers["warm_solve"][K] = _cpu_ms(lambda: _solve(K), repeats)
        layers["peak_kib"][K] = _peak_kib(K)
        _clear_core_caches()  # drop the per-state tables of a large K before the next
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label")
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_state_space.json")
    ap.add_argument("--first-solve", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.first_solve is not None:  # one solve in this fresh interpreter
        t0 = time.process_time()
        print(REFUSED if _refused(args.first_solve) else 1e3 * (time.process_time() - t0))
        return 0
    if args.label is None:
        ap.error("--label is required")
    if args.repeats < 2:
        ap.error("--repeats must be >= 2")

    record = {
        "python": platform.python_version(), "numpy": np.__version__,
        "duores": duores.__version__, "nproc": os.cpu_count(),
        "layers": measure(args.repeats),
    }
    data = json.loads(args.out.read_text()) if args.out.is_file() else {}
    data[args.label] = record
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    for layer, rows in record["layers"].items():
        for K, row in rows.items():
            shown = row["median_ms"] if isinstance(row, dict) else row
            print(f"{args.label} {layer} K={K}: {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
