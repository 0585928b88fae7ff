"""Outcome counts of the fixed-point solver over a grid of capacities,
reservation speeds and fills.

Run from the repository root:

    python3 tools/solver_outcomes.py --label NAME [--out FILE]

The package is imported from the ``src/`` next to this directory.  Each
solve is ``solve_equilibrium`` at lam = mu = 1 on the grid

* K in {1, 2, 3, 5, 10, 20, 40, 80};
* nu/mu = 10^k for k = -4..3;
* s/K at 50 evenly spaced points from 0.01 to 0.99, then 0.995 and 0.999;

3328 solves in all.  Every solve ends in one of six outcomes:

* ``solved``: a report with ``max_residual <= 1e-10``;
* ``solved_above_tol``: a report with a larger residual;
* ``value_error``: the named ``ValueError`` of a fill out of reach;
* ``runtime_error``: the generic ``RuntimeError`` of a fill bisection
  that stopped short;
* ``multiple_equilibria``: ``MultipleEquilibriaError``;
* ``assertion_error``: the ``rho2`` identity assertion.

The counts per ``(K, nu/mu)`` cell and in total, with the CPU time of
the whole grid and the Python, numpy and duores versions, are merged
into ``FILE`` (default ``BENCH_solver_outcomes.json`` at the repository
root) under ``NAME``, so two checkouts can record into one file.  The
counts are deterministic; the CPU time is raw, so compare it only
between runs taken back to back on one machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from collections import Counter
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import duores  # noqa: E402
from duores import core, equilibrium  # noqa: E402

K_VALUES = (1, 2, 3, 5, 10, 20, 40, 80)
NU_OVER_MU = tuple(10.0 ** k for k in range(-4, 4))
FILLS = tuple(np.linspace(0.01, 0.99, 50).tolist()) + (0.995, 0.999)
RESIDUAL_TOL = 1e-10
OUTCOMES = ("solved", "solved_above_tol", "value_error", "runtime_error",
            "multiple_equilibria", "assertion_error")


def outcome(K: int, nu_over_mu: float, s_over_K: float) -> str:
    p = core.ModelParams(lam=1.0, mu=1.0, nu=nu_over_mu, K=K)
    try:
        rep = equilibrium.solve_equilibrium(p, s_over_K * K)
    except equilibrium.MultipleEquilibriaError:  # a RuntimeError; tested first
        return "multiple_equilibria"
    except ValueError:
        return "value_error"
    except RuntimeError:
        return "runtime_error"
    except AssertionError:
        return "assertion_error"
    return "solved" if rep.max_residual <= RESIDUAL_TOL else "solved_above_tol"


def measure() -> tuple[dict, dict, float]:
    cells, totals = {}, Counter()
    t0 = time.process_time()
    for K in K_VALUES:
        for nu in NU_OVER_MU:
            counts = Counter(outcome(K, nu, f) for f in FILLS)
            cells[f"K={K} nu/mu={nu!r}"] = {name: counts[name] for name in OUTCOMES}
            totals.update(counts)
    cpu_s = time.process_time() - t0
    return cells, {name: totals[name] for name in OUTCOMES}, cpu_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_solver_outcomes.json")
    args = ap.parse_args(argv)

    cells, totals, cpu_s = measure()
    record = {
        "python": platform.python_version(), "numpy": np.__version__,
        "duores": duores.__version__, "nproc": os.cpu_count(),
        "grid": {"K": list(K_VALUES), "nu_over_mu": list(NU_OVER_MU),
                 "s_over_K": list(FILLS), "residual_tol": RESIDUAL_TOL},
        "cpu_s": round(cpu_s, 3),
        "totals": totals,
        "cells": cells,
    }
    data = json.loads(args.out.read_text()) if args.out.is_file() else {}
    data[args.label] = record
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    print(f"{args.label}: {sum(totals.values())} solves in {cpu_s:.1f} s CPU: "
          + ", ".join(f"{name} {n}" for name, n in totals.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
