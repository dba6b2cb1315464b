"""Benchmark for igmatch: seeded workloads through the public entry points.

Usage, from the repository root:

    python3 perfbench/run.py --workload clawfree --seed 1 --seconds 10 --trace 0

One process, one thread, one closed-loop client: each solve starts when the
previous one has returned.  A run first makes its cases from the seed and
computes their expected answers (untimed).  With ``--trace 0`` it then runs
SETUP_PASSES cold passes over all cases, each after clearing the package's
module-level caches (``setup_s`` is their median), and then warm passes until
``--seconds`` have gone by; the other end-to-end metrics come from the warm
passes.  With ``--trace 1`` it wraps every layer's boundary function, runs
one cold and one warm traced pass (a fixed amount of work, so counts repeat
exactly), and then alternates untraced and traced warm passes until
``--seconds`` have gone by to measure the tracing overhead.

Right before every solve the run times ``reference()``, a fixed piece of
pure-Python work that shares no code with the package, and the latency and
throughput metrics are solve times divided by that reference time (unit
``ref``).  On a shared virtual machine the speed of the whole processor
drifts by up to 1.8x over minutes, moving raw wall times by as much from run
to run; the reference, timed a moment earlier on the same core, drifts with
it.  Raw wall-clock figures are printed as detail lines.

Every result is checked; a wrong answer or invalid witness exits with code 1
and prints no metrics.  A solve that raises SizeCapError, InputError or
InternalError, or runs past SOLVE_LIMIT_S, counts as failed.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import gc
import json
import os
import random
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isdir(os.path.join(SRC, "igmatch")):
    # measure the checkout's own sources, never an installed copy
    sys.exit(f"no igmatch package under {SRC}")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

from igmatch.errors import InputError, InternalError  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_PASSES = 3
SOLVE_LIMIT_S = 30
REFERENCE_VERTICES = 18


def _reference_graph(n):
    """Adjacency sets of a fixed graph on n vertices with edge density about
    1/5, drawn from a linear congruential sequence of its own, so that it
    never depends on the seed."""
    adj = [set() for _ in range(n)]
    x = 7
    for a in range(n):
        for b in range(a + 1, n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            if x % 5 == 0:
                adj[a].add(b)
                adj[b].add(a)
    return [frozenset(s) for s in adj]


_REF_ADJ = _reference_graph(REFERENCE_VERTICES)


def _max_independent(cands, adj):
    """Size of a largest independent set inside cands, by plain branching."""
    if not cands:
        return 0
    v = min(cands)
    rest = cands - {v}
    best = 1 + _max_independent(rest - adj[v], adj)
    if adj[v] & rest:
        best = max(best, _max_independent(rest, adj))
    return best


def reference():
    """Fixed pure-Python work of the same kind as the solvers' (recursion,
    frozenset algebra, small allocations) that shares no code with igmatch.
    Garbage collection is held off inside it, and everything it allocates
    is freed before it returns, so its time does not depend on the package's
    heap."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _max_independent(frozenset(range(REFERENCE_VERTICES)), _REF_ADJ)
    finally:
        if was_enabled:
            gc.enable()


class SolveTimeout(Exception):
    """A solve ran past SOLVE_LIMIT_S."""


def _alarm(signum, frame):
    raise SolveTimeout(f"solve exceeded {SOLVE_LIMIT_S} s")


class _NoProbe:
    """Stands in for the trace recorder when tracing is off."""

    @staticmethod
    def span(layer, fn, *args):
        return fn(*args)

    @staticmethod
    def add(key, n):
        pass

    @staticmethod
    def reset_stack():
        pass


class Tally:
    """Per-solve times and failures of one or more passes."""

    def __init__(self):
        self.times = []  # wall seconds, completed solves only
        self.refs = []  # wall seconds of the reference timed before each of them
        self.rel = []  # each solve's time divided by its reference time
        self.attempted = 0
        self.failures = {}  # (case label, exception class) -> count

    def busy_s(self):
        return sum(self.times)


def run_pass(cases, tally, probe=_NoProbe):
    """Run every case once, each after timing reference(); return the summed
    solve time in seconds."""
    total = 0.0
    for case in cases:
        tally.attempted += 1
        t0 = time.perf_counter()
        reference()
        ref = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, SOLVE_LIMIT_S)
        t0 = time.perf_counter()
        try:
            result = case.solve(probe)
        except (InputError, InternalError, SolveTimeout) as exc:
            elapsed = time.perf_counter() - t0
            key = (case.label, type(exc).__name__)
            tally.failures[key] = tally.failures.get(key, 0) + 1
            probe.reset_stack()
            total += elapsed
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        total += elapsed
        tally.times.append(elapsed)
        tally.refs.append(ref)
        tally.rel.append(elapsed / ref)
        case.check(result)
    return total


def clear_caches():
    """Empty every module-level cache of the package (dicts or objects with
    a ``clear`` method named ``*_CACHE``, and functools caches)."""
    for name, mod in list(sys.modules.items()):
        if name != "igmatch" and not name.startswith("igmatch."):
            continue
        for attr, value in list(vars(mod).items()):
            if attr.endswith("_CACHE") and hasattr(value, "clear"):
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timed_run(cases, seconds):
    """Cold passes for setup_s, then whole warm passes until the deadline.

    Latency and throughput are computed per warm pass (every pass has at
    least 100 completed solves, so ten or more lie beyond its p90) and the
    median over passes is reported, which keeps a short slow spell of the
    machine from moving the figures."""
    cold = []
    setup_tally = Tally()
    for _ in range(SETUP_PASSES):
        clear_caches()
        cold.append(run_pass(cases, setup_tally))
    warm = []
    deadline = time.perf_counter() + seconds
    while not warm or time.perf_counter() < deadline:
        tally = Tally()
        run_pass(cases, tally)
        warm.append(tally)
    rel, wall = [], []
    for tally in warm:
        p90 = _p90(tally.rel)
        rel.append((statistics.median(tally.rel), p90, 1000.0 * len(tally.rel) / sum(tally.rel),
                    sum(1 for x in tally.rel if x > p90)))
        ms = [1000.0 * t for t in tally.times]
        wall.append((statistics.median(ms), _p90(ms), len(ms) / tally.busy_s()))
    completed = sum(len(t.times) for t in warm)
    attempted = sum(t.attempted for t in warm)
    metrics = {
        "solve_p50_ref": (statistics.median(p[0] for p in rel), "ref"),
        "solve_p90_ref": (statistics.median(p[1] for p in rel), "ref"),
        "solves_per_kref": (statistics.median(p[2] for p in rel), "1/kref"),
        "setup_s": (statistics.median(cold), "s"),
        "ok_frac": (completed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "warm_passes": len(warm),
        "samples_per_pass": len(warm[0].times),
        "samples_beyond_p90_per_pass": min(p[3] for p in rel),
        "cold_passes_s": [round(c, 4) for c in cold],
        "fail_frac": (attempted - completed) / attempted,
        "wall_solve_ms_p50": round(statistics.median(p[0] for p in wall), 4),
        "wall_solve_ms_p90": round(statistics.median(p[1] for p in wall), 4),
        "wall_solves_per_s": round(statistics.median(p[2] for p in wall), 3),
        "reference_ms": round(1000.0 * statistics.median(r for t in warm for r in t.refs), 4),
    }
    return metrics, [setup_tally] + warm, info


def traced_run(cases, seconds):
    tracer = layers.Tracer()
    tracer.install()
    traced = Tally()
    counted = tracer.recorder
    clear_caches()
    run_pass(cases, traced, counted)
    run_pass(cases, traced, counted)
    metrics = {name: (fn(counted), unit) for name, unit, _better, fn in layers.PER_LAYER}

    # overhead: alternate untraced and traced warm passes over the same
    # cases, comparing their summed reference-relative solve times
    tracer.recorder = layers.Recorder()
    plain, traced_passes = [], []
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline:
        tracer.uninstall()
        plain.append(Tally())
        run_pass(cases, plain[-1])
        tracer.install()
        traced_passes.append(Tally())
        run_pass(cases, traced_passes[-1], tracer.recorder)
    tracer.uninstall()
    base = statistics.median(sum(t.rel) for t in plain)
    with_trace = statistics.median(sum(t.rel) for t in traced_passes)
    metrics["trace.overhead_frac"] = ((with_trace - base) / base, "ratio")
    info = {"absent_layers": tracer.absent, "overhead_pairs": len(plain)}
    return metrics, [traced] + plain + traced_passes, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _alarm)
    cases = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    try:
        if args.trace:
            metrics, tallies, info = traced_run(cases, args.seconds)
        else:
            metrics, tallies, info = timed_run(cases, args.seconds)
    except workloads.WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 1

    attempted = sum(t.attempted for t in tallies)
    failures = {}
    for t in tallies:
        for key, n in t.failures.items():
            failures[key] = failures.get(key, 0) + n
    print(f"workload {args.workload}, seed {args.seed}, {len(cases)} cases per pass, "
          f"trace {args.trace}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    for (label, cls), n in sorted(failures.items()):
        print(f"  failed: {label}: {cls} x{n}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
