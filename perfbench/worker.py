"""One benchmark process: set up a workload, then run its ops.

Started by ``run.py`` in a fresh interpreter so the package's module-level
caches start cold, as they do for a command-line user.  It prints ``ready``
once set-up is done, then (unless ``--setup-only``) one JSON line with the
results.

    python3 perfbench/worker.py --workload NAME --seed N (--seconds S | --fixed)
                                [--trace [--spans PATH]] [--setup-only] [--smoke]

``--seconds`` runs ops for that long and at least 100 of them; ``--fixed``
runs exactly the workload's ``trace_ops`` ops, as the traced run and its
untraced replay do.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from paritytree import progress_measure  # noqa: E402

HARD_LIMIT_S = 150.0  # a run never outlives the 180 s the caller allows
MIN_OPS = 100  # so that at least 10 samples lie beyond op_ms_p90
SETUP_CAL_RUNS = 7
# Time of calibrate() on the machine the benchmark was built on (2-vCPU Xeon
# VM, Python 3.11.7) when it ran fastest.  Reported times are scaled to that
# speed; the constant only sets the scale and must never change.
CAL_REF_S = 0.35e-3


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python kernel that calls no package
    code but does the same kind of work: seeded random draws, set and
    frozenset membership, recursion over nested lists, dicts and sorting.

    The machine this was built on runs Python code up to twice as fast or
    slow from one second to the next (other tenants share its cores), and
    the kernel, timed just before and after an op, slows down with it."""
    t0 = time.perf_counter()
    game = workloads.random_game(random.Random(12345), 40, 8, (1, 3))
    won: set[int] = set()
    for _ in range(6):
        for v, succ in enumerate(game.successors):
            if any(w in won for w in succ) or game.priority[v] % 3 == 0:
                won.add(v)
        won = {v for v in frozenset(won) if v % 2 == 0}
    codes = workloads.leaf_codes(workloads.succinct_shape(7, 3), 3)
    sorted({code: i for i, code in enumerate(codes)}.items())
    return time.perf_counter() - t0


def summary(latencies: list[float], cals: list[float]) -> dict:
    """Op metrics at reference speed: each op's time is scaled by
    CAL_REF_S over its calibration time.  The raw wall-time figures are
    kept under ``raw_``."""
    out = {"cal_ms": statistics.median(cals) * 1e3}
    scaled = [t * CAL_REF_S / c for t, c in zip(latencies, cals)]
    for prefix, times in (("", scaled), ("raw_", latencies)):
        out[prefix + "ops_per_s"] = len(times) / sum(times)
        out[prefix + "op_ms_p50"] = statistics.median(times) * 1e3
        out[prefix + "op_ms_p90"] = (
            statistics.quantiles(times, n=10, method="inclusive")[-1]
            if len(times) > 1 else times[0]) * 1e3
    return out


def run_ops(wl, tr, seconds: float | None, ops: int | None, min_ops: int):
    """Run ops until ``ops`` are done, or until ``seconds`` have passed and at
    least ``min_ops`` are done.  Returns the op count, the latencies of the
    ops that passed their check with the mean calibration time around each,
    the failures, and the fifo lift total of the first ``wl.trace_ops`` ops."""
    started = time.perf_counter()
    latencies: list[float] = []
    cals: list[float] = []
    errors: list[str] = []
    lifts_first = 0
    i = 0
    while True:
        elapsed = time.perf_counter() - started
        if ops is not None and i >= ops:
            break
        if ops is None and elapsed >= seconds and i >= min_ops:
            break
        if elapsed >= HARD_LIMIT_S:
            break
        inp = wl.make_input(i)
        cal_before = calibrate()
        tr.op = i
        tr.active = True
        try:
            t0 = time.perf_counter()
            answer = wl.run(inp, tr)
            t1 = time.perf_counter()
            tr.count("progress_measure.lifts", answer.lifts)
        except Exception as exc:  # a failed op is counted, the run goes on
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            i += 1
            continue
        finally:
            tr.active = False
        cal = (cal_before + calibrate()) / 2
        if i < wl.trace_ops:
            lifts_first += answer.lifts
        try:
            err = wl.check(inp, answer)
        except Exception as exc:
            err = f"check raised {type(exc).__name__}: {exc}"
        if err is None:
            latencies.append(t1 - t0)
            cals.append(cal)
        else:
            errors.append(f"op {i}: {err}")
        i += 1
    return i, latencies, cals, errors, lifts_first


def memory_pass(wl, ops: int) -> float:
    """Largest tracemalloc peak (MB) reached inside one value_iteration call,
    above what was allocated when the call began, over the first ops."""
    import tracemalloc

    original = progress_measure.value_iteration
    peak = 0

    def measured(*args, **kwargs):
        nonlocal peak
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return original(*args, **kwargs)
        finally:
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)

    progress_measure.value_iteration = measured
    tracemalloc.start()
    try:
        for i in range(ops):
            wl.run(wl.make_input(i), tracing.NullTracer())
    finally:
        tracemalloc.stop()
        progress_measure.value_iteration = original
    return peak / 2**20


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--fixed", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    tr = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        workloads.install_hooks(tr)
        tr.active = True
    wl.setup(tr)
    tr.active = False
    print("ready", flush=True)
    # scales this process's set-up time to reference speed (see calibrate)
    setup_scale = CAL_REF_S / statistics.median(calibrate() for _ in range(SETUP_CAL_RUNS))
    if args.setup_only:
        print(json.dumps({"setup_scale": setup_scale}))
        return 0

    started = time.perf_counter()
    done, latencies, cals, errors, lifts_first = run_ops(
        wl, tr, args.seconds, wl.trace_ops if args.fixed else None,
        max(MIN_OPS, wl.trace_ops))
    wall = time.perf_counter() - started
    result = {
        "ops": done,
        "failed": len(errors),
        "errors": errors[:5],
        "samples": len(latencies),
        "timed_s": sum(latencies),
        "wall_s": wall,
        "lift_ops": min(done, wl.trace_ops),
        "lifts": lifts_first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_scale": setup_scale,
    }
    if latencies:
        result.update(summary(latencies, cals))
    if args.trace:
        tr.restore()
        if args.spans:
            tr.write_spans(args.spans)
        result["self_s"] = tr.self_times()
        result["counters"] = dict(tr.counters)
        result["unhooked"] = tr.missing
        result["traced_peak_mb"] = memory_pass(wl, done) if wl.calls_vi else 0.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
