"""Simulator events per second: ``run`` against N, plain and audited,
and ``step`` on a one-station cycle.

Run from the repository root:

    python3 tools/simulate_layers.py --label NAME [--repeats R] [--out FILE]

The package is imported from the ``src/`` next to this directory.  The
``run`` inputs are those of the benchmark's ``network`` study: K = 3,
lam = mu = 1, nu = 2, fill s = 1.5 (M = 1.5 N cars), T = 5 with
snapshots every 0.5, at N in {250, 1000, 4000}.  The initial placement
is drawn once per N and passed as ``initial``, so only the events and
the snapshots are timed.  The number of events each run fires is
counted by a ``step`` replay on the same stream, outside the timed part.

The ``step`` layer is the loop of the tiny-network test: one station of
capacity 2 holding one car, lam = 2, nu = 4, mu = 1, so the chain cycles
through three states; one sample is ``STEP_EVENTS`` calls of ``step``.

Each layer is timed ``R`` times on ``time.process_time`` after one
warm-up call.  Medians and quartiles in events per second (quartiles
of the per-sample rates) are merged into ``FILE`` (default
``BENCH_simulate_layers.json`` at the repository root) under ``NAME``,
with the Python, numpy and duores versions and the core count, so two
checkouts can record into one file.  Rates are raw CPU rates, not scaled
to a reference speed, so compare only runs taken back to back on one
machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import duores  # noqa: E402
from duores import simulate  # noqa: E402
from duores.core import ModelParams  # noqa: E402

RUN_N = (250, 1000, 4000)
S, T = 1.5, 5.0
SAMPLE_TIMES = tuple(0.5 * k for k in range(11))
STEP_EVENTS = 20_000


def _rates(fn, events: int, repeats: int) -> dict:
    fn()
    rates = []
    for _ in range(repeats):
        t0 = time.process_time()
        fn()
        rates.append(events / (time.process_time() - t0))
    q1, med, q3 = statistics.quantiles(rates, n=4)
    return {"median_per_s": round(med), "q1_per_s": round(q1), "q3_per_s": round(q3),
            "events": events, "n": repeats}


def _events_by_T(p, cfg, initial) -> int:
    """Events ``run(p, cfg, initial)`` fires on ``[0, T]``, by a ``step``
    replay on the same generator stream."""
    st = initial.copy()
    rng = np.random.default_rng(cfg.seed)
    n = 0
    while st.total_rate(p) > 0.0:
        simulate.step(st, p, rng)
        if st.t > cfg.T:
            break
        n += 1
    return n


def measure(repeats: int) -> dict:
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3)
    layers = {}
    for N in RUN_N:
        M = round(S * N)
        initial = simulate.init_uniform(N, M, p.K, seed=N)
        cfg = simulate.SimConfig(N=N, M=M, T=T, sample_times=SAMPLE_TIMES, seed=N + 1)
        events = _events_by_T(p, cfg, initial)
        for audit in (False, True):
            name = f"run_N{N}" + ("_audit" if audit else "")
            layers[name] = _rates(lambda: simulate.run(p, cfg, initial=initial, audit=audit),
                                  events, repeats)

    cycle = ModelParams(lam=2.0, mu=1.0, nu=4.0, K=2)
    zero = np.zeros(1, dtype=np.int64)
    start = simulate.SimState(zero.copy(), zero.copy(), np.ones(1, dtype=np.int64),
                              zero.copy())

    def steps():
        st, rng = start.copy(), np.random.default_rng(777)
        for _ in range(STEP_EVENTS):
            simulate.step(st, cycle, rng)

    layers["step_cycle"] = _rates(steps, STEP_EVENTS, repeats)
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_simulate_layers.json")
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
        print(f"{args.label} {name}: median {row['median_per_s']} events/s "
              f"(q1 {row['q1_per_s']}, q3 {row['q3_per_s']}, "
              f"{row['events']} events, n={row['n']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
