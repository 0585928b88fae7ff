"""Per-layer CPU times of the ``flow`` path at K = 15.

Run from the repository root:

    python3 tools/flow_layers.py --label NAME [--repeats R] [--out FILE]

The package is imported from the ``src/`` next to this directory.  The
inputs are those of the benchmark's ``flow`` workload: K = 15,
lam = mu = 1, nu = 2, fill 7.5, a perturbation of size 0.1, T = 5 at
dt = 0.25 / (lam + nu K + mu K), and the trajectory thinned to 11
measures for the write.  Three layers are timed, each ``R`` times on
``time.process_time`` after one warm-up call:

* ``write``: ``io.write_timed_measure_csv`` of the thinned trajectory;
* ``perturb``: ``experiments.fill_preserving_perturbation`` of the
  fixed point;
* ``integrate``: ``meanfield.integrate`` from the perturbed start.

Medians and quartiles in milliseconds are merged into ``FILE`` (default
``BENCH_flow_layers.json`` at the repository root) under ``NAME``, with
the Python, numpy and duores versions and the core count, so two
checkouts can record into one file.  Times are raw CPU times, not
scaled to a reference speed, so compare only runs taken back to back
on one machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import duores  # noqa: E402
from duores import core, equilibrium, experiments, meanfield  # noqa: E402
from duores import io as dio  # noqa: E402


def _cpu_ms(fn, repeats: int) -> dict:
    fn()
    samples = []
    for _ in range(repeats):
        t0 = time.process_time()
        fn()
        samples.append(1e3 * (time.process_time() - t0))
    q1, med, q3 = statistics.quantiles(samples, n=4)
    return {"median_ms": round(med, 3), "q1_ms": round(q1, 3), "q3_ms": round(q3, 3),
            "n": repeats}


def measure(repeats: int) -> dict:
    p = core.ModelParams(lam=1.0, mu=1.0, nu=2.0, K=15)
    dt = 0.25 / p.rate_bound
    pi = equilibrium.product_form(equilibrium.solve_equilibrium(p, 7.5).rho, p.K)
    start = experiments.fill_preserving_perturbation(pi, 0.1)
    traj = meanfield.integrate(start, p, 5.0, dt)
    every = max(1, (len(traj) - 1) // 10)
    kept = traj[::every]
    if kept[-1][0] != traj[-1][0]:
        kept.append(traj[-1])
    times, measures = [t for t, _ in kept], [m for _, m in kept]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "trajectory.csv"
        return {
            "write": _cpu_ms(lambda: dio.write_timed_measure_csv(times, measures, out), repeats),
            "perturb": _cpu_ms(lambda: experiments.fill_preserving_perturbation(pi, 0.1),
                               repeats),
            "integrate": _cpu_ms(lambda: meanfield.integrate(start, p, 5.0, dt), repeats),
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--repeats", type=int, default=15)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_flow_layers.json")
    args = ap.parse_args(argv)
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
    for name, row in record["layers"].items():
        print(f"{args.label} {name}: median {row['median_ms']} ms "
              f"(q1 {row['q1_ms']}, q3 {row['q3_ms']}, n={row['n']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
