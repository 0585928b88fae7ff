"""duores benchmark: one command for every end-to-end and per-layer figure.

Run from the repository root:

    python3 bench/run.py --workload {network,flow,sweep} --seed N \\
        --seconds S --trace {0,1}

The package is imported from ``src/`` next to this directory, never from
an installed copy.  A run sets its workload up from the seed, then runs
passes on the same inputs until ``--seconds`` have gone by (at least
one whole pass; later ones may stop at the deadline), checks every
operation's output, and prints human-readable lines followed by one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``attempted`` and ``failed`` count each distinct operation once, so
they depend on the seed only.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
an untraced and a traced pass and reports the per-layer metrics from
the traced ones; the spans are written to
``.bench_work/spans-<workload>-seed<seed>.json``.

Which per-layer figures should move which end-to-end metric:

    simulate.*                      network cpu_s, op_ms_*
    meanfield.*                     flow cpu_s, peak_rss_mb (network: no change)
    core.*                          flow cpu_s (one Measure per step)
    equilibrium.*                   sweep op_ms_*, cpu_s, ok_ratio (flow: no change)
    io.*                            flow cpu_s
    experiments.self_share          network cpu_s

Every end-to-end time is CPU time (this process's threads plus child
processes that ended) at the reference speed: scaled by ``REF_S`` over
the mean CPU time of the two runs of the fixed kernel in
``reference.py`` that bracket it.  CPU time rather than elapsed time,
because on a shared virtual machine elapsed time also counts the
intervals in which the hypervisor runs other guests (steal time); the
reference speed, because the CPU itself runs the same code up to 1.5x
slower for stretches of tens of seconds while other guests load the
core or its caches, and a whole run can fall into one such stretch.

``cpu_s`` is the median over the run's whole passes of a pass's time.
``op_ms_p50``/``op_ms_p95`` are percentiles over the distinct
operations, failed ones included, of each operation's median time over
its repeats.  The tail is p95, the highest percentile with ten
samples beyond it among ``sweep``'s 245 solves (12 lie beyond).  It is
not p90: about a tenth of the solves are K = 20 solves that fail after
their full bisection budget, so p90 falls on the edge of that slow
cluster and jumps from seed to seed, while p95 lies inside it.  ``setup_s`` is the median time of importing duores and
building the workload, in this process and in fresh ones, each scaled
by the median of three kernel runs right after it.

Spans are timed on the elapsed clock; shares are self time over the
traced pass elapsed time ``trace.wall_s``, and counts are per pass.
``trace.overhead_s`` is traced minus untraced pass CPU time.

``ok_ratio`` is 1 - fail_ratio, the share of operations that neither
raised nor failed their output check; the JSON line's ``failed`` and
``attempted`` give the fail ratio's base.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# One thread for numpy's linear algebra, set before numpy is imported
# here or in a set-up probe: the workloads are single-threaded, and idle
# BLAS threads spinning on a small machine would be timed as work.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from reference import Pace, at_reference, kernel_median
from summary import Tally, beyond, percentile, tail_percentile
from tracing import Tracer, span_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 6  # set-up is also timed in this many fresh processes
MIN_PASSES = 1  # whole passes of every run, so every operation is counted

END_TO_END = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "op_ms_p50": "ms",
    "op_ms_p95": "ms",
}

PER_LAYER = {
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "simulate.self_share": "ratio",
    "simulate.run.self_share": "ratio",
    "simulate.run_audit.self_share": "ratio",
    "simulate.events": "count",
    "simulate.events.arrival": "count",
    "simulate.events.blocked": "count",
    "simulate.events.pickup": "count",
    "simulate.events.return": "count",
    "simulate.accept_ratio": "ratio",
    "simulate.events_per_s": "1/s",
    "simulate.audit_events_per_s": "1/s",
    "meanfield.self_share": "ratio",
    "meanfield.integrate.self_share": "ratio",
    "meanfield.integrate_at.self_share": "ratio",
    "meanfield.rk4_steps": "count",
    "meanfield.drift_evals": "count",
    "meanfield.steps_per_s": "1/s",
    "meanfield.kept_bytes": "bytes",
    "core.self_share": "ratio",
    "core.measure_new.calls": "count",
    "core.measure_new.self_share": "ratio",
    "core.functionals.self_share": "ratio",
    "equilibrium.self_share": "ratio",
    "equilibrium.solve.calls": "count",
    "equilibrium.solve.self_share": "ratio",
    "equilibrium.outer_iterations": "count",
    "equilibrium.fill_evaluations": "count",
    "equilibrium.solve_phi.calls": "count",
    "equilibrium.f_simple.calls": "count",
    "equilibrium.ok_ratio": "ratio",
    "io.self_share": "ratio",
    "io.write.self_share": "ratio",
    "io.bytes_written": "bytes",
    "experiments.self_share": "ratio",
}

LAYERS = ("simulate", "meanfield", "core", "equilibrium", "io", "experiments")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``unknown`` in an exported tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else "unknown"


def _setup_probe(workload: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter, at the
    reference speed."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


def scaled_pass(p, pace: Pace) -> float:
    """A pass's CPU time at the reference speed: each operation scaled
    by the kernel runs around it, the rest by those around the pass."""
    ops = sum(at_reference(sec, pace.around(tick)) for _, sec, tick in p.op_s)
    rest = p.cpu_s - sum(sec for _, sec, _ in p.op_s)
    return ops + at_reference(rest, pace.around(p.tick))


def end_to_end(passes, pace: Pace, tally: Tally, setup_samples) -> tuple[dict, list]:
    runs: dict = {}
    for p in passes:
        for key, sec, tick in p.op_s:
            runs.setdefault(key, []).append(at_reference(sec, pace.around(tick)))
    ops_ms = [1e3 * statistics.median(v) for v in runs.values()]
    whole = [p for p in passes if p.complete]
    metrics = {
        "cpu_s": statistics.median(scaled_pass(p, pace) for p in whole),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - tally.fail_ratio,
        "op_ms_p50": percentile(ops_ms, 50) if ops_ms else 0.0,
        "op_ms_p95": percentile(ops_ms, 95) if ops_ms else 0.0,
    }
    tail = tail_percentile(len(ops_ms))
    notes = [
        f"passes {len(passes)} ({len(whole)} whole), "
        f"pass cpu_s {[round(p.cpu_s, 4) for p in passes]}, "
        f"kernel cpu_s {[round(s, 4) for s in pace.samples]}, "
        f"wall_s {[round(p.wall_s, 4) for p in passes]}",
        f"setup_s samples {[round(s, 4) for s in setup_samples]}",
        f"fail_ratio {tally.fail_ratio:.4f} ({tally.failed}/{tally.attempted})",
        f"op_ms over n={len(ops_ms)} operations, each the median of "
        f"{min(map(len, runs.values()), default=0)} to "
        f"{max(map(len, runs.values()), default=0)} runs; "
        f"p95 has {beyond(len(ops_ms), 950)} samples beyond it; highest percentile "
        f"with >= 10 beyond: {'none' if tail is None else f'p{tail:g}'}",
    ]
    return metrics, notes


def per_layer(plain, traced, tracer: Tracer, events) -> dict:
    n = len(traced)
    traced_wall = sum(p.wall_s for p in traced)
    totals = span_totals(tracer.spans)

    def total(name, key):
        return totals.get(name, {}).get(key, 0.0)

    def share(*names):
        return _ratio(sum(total(nm, "self_s") for nm in names), traced_wall)

    stats = Counter()
    for p in traced:
        stats.update(p.stats)
    stats = {k: v / n for k, v in stats.items()}
    counts = {k: v / n for k, v in tracer.counts.items()}

    plain_ev = events.get("plain", Counter())
    audit_ev = events.get("audit", Counter())
    all_ev = plain_ev + audit_ev
    steps = stats.get("meanfield.rk4_steps", 0.0)
    solves = total("equilibrium.solve", "calls") / n
    m = {
        "trace.wall_s": statistics.median(p.wall_s for p in traced),
        "trace.overhead_s": statistics.median(t.cpu_s - u.cpu_s for t, u in zip(traced, plain)),
        "trace.spans": len(tracer.spans) / n,
        "simulate.run.self_share": share("simulate.run"),
        "simulate.run_audit.self_share": share("simulate.run_audit"),
        "simulate.events": sum(all_ev.values()),
        "simulate.accept_ratio": _ratio(all_ev["arrival"], all_ev["arrival"] + all_ev["blocked"]),
        "simulate.events_per_s": _ratio(sum(plain_ev.values()), total("simulate.run", "total_s") / n),
        "simulate.audit_events_per_s": _ratio(sum(audit_ev.values()),
                                              total("simulate.run_audit", "total_s") / n),
        "meanfield.integrate.self_share": share("meanfield.integrate"),
        "meanfield.integrate_at.self_share": share("meanfield.integrate_at"),
        "meanfield.rk4_steps": steps,
        "meanfield.drift_evals": 4 * steps,
        "meanfield.steps_per_s": _ratio(
            steps, (total("meanfield.integrate", "total_s")
                    + total("meanfield.integrate_at", "total_s")) / n),
        "meanfield.kept_bytes": stats.get("meanfield.kept_bytes", 0.0),
        "core.measure_new.calls": total("core.measure_new", "calls") / n,
        "core.measure_new.self_share": share("core.measure_new"),
        "core.functionals.self_share": share("core.functionals"),
        "equilibrium.solve.calls": solves,
        "equilibrium.solve.self_share": share("equilibrium.solve"),
        "equilibrium.outer_iterations": stats.get("equilibrium.outer_iterations", 0.0),
        "equilibrium.fill_evaluations": stats.get("equilibrium.fill_evaluations", 0.0),
        "equilibrium.solve_phi.calls": counts.get("equilibrium.solve_phi", 0.0),
        "equilibrium.f_simple.calls": counts.get("equilibrium.f_simple", 0.0),
        "equilibrium.ok_ratio": _ratio(stats.get("equilibrium.ok", 0.0), solves),
        "io.write.self_share": share("io.write"),
        "io.bytes_written": stats.get("io.bytes_written", 0.0),
        "experiments.self_share": share("experiments"),
    }
    for kind in ("arrival", "blocked", "pickup", "return"):
        m[f"simulate.events.{kind}"] = all_ev[kind]
    for layer in LAYERS:
        names = [nm for nm in totals if nm == layer or nm.startswith(layer + ".")]
        m[f"{layer}.self_share"] = share(*names)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("network", "flow", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "duores" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'duores'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"

    t0 = time.process_time()
    import duores
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_s = at_reference(time.process_time() - t0, kernel_median())
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    if not Path(duores.__file__).resolve().is_relative_to(SRC):
        print(f"error: duores imported from {duores.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import numpy as np

    tally = Tally()
    plain, traced = [], []
    tracer = Tracer() if args.trace else None
    try:
        pace = Pace()
        deadline = time.perf_counter() + args.seconds
        while len(plain) + len(traced) < MIN_PASSES or time.perf_counter() < deadline:
            whole = len(plain) < MIN_PASSES or tracer is not None
            plain.append(wl.run_pass(tally, pace, deadline=None if whole else deadline))
            if tracer is not None:
                with pace.held():  # so the traced pass's spans cover all of it
                    traced.append(wl.run_pass(tally, pace, tracer))
        pace.tick()  # closes the bracket around the last operations
        events = wl.replay(traced[0], tally) if traced and hasattr(wl, "replay") else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(plain), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "duores": duores.__version__, "commit": _git_commit(),
    }
    if args.workload == "network":
        env["snapshot_sha256"] = wl.digest
    print("env " + json.dumps(env))
    infos = [p.info for p in plain if p.info]
    if infos:
        print(f"{args.workload} first pass: " + json.dumps(infos[0]))
    for msg, count in tally.errors.most_common():
        print(f"raised x{count}: {msg}")
    for msg in tally.check_failures[:20]:
        print(f"CHECK FAILED: {msg}")

    if tracer is None:
        setup = [setup_s] + [_setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        metrics, notes = end_to_end(plain, pace, tally, setup)
        spec = END_TO_END
    else:
        metrics = per_layer(plain, traced, tracer, events)
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w") as fh:
            json.dump(tracer.to_records(), fh)
        notes = [f"traced passes {len(traced)}; spans written to {spans_path.relative_to(ROOT)}"]
        spec = PER_LAYER
    for line in notes:
        print(line)
    for name, unit in spec.items():
        print(f"{args.workload} {name} = {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in spec.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
