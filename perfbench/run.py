"""paritytree benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run starts fresh interpreters
(``worker.py``) that import the package from ``src/``; nothing is installed.

``--trace 0`` (end-to-end): several set-up-only processes give ``setup_s``
as a median, then one process runs ops in a closed loop, one at a time on
one thread, for ``--seconds`` and at least 100 ops, checking each answer
outside the timed interval.

``--trace 1`` (per layer): one process runs the workload's fixed number of
ops with spans and counters on, then a second, untraced process runs the
same ops; the difference of their timed wall times is the tracing overhead.

Before the last line the run prints a ``{"record": ...}`` line (machine,
Python, git sha, seed, fifo lift total over the first ops) and appends it to
``perfbench/out/runs.jsonl``.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("crosscheck-small", "vi-succinct", "zielonka-deep", "tree-search")
SETUP_PROBES = 6  # set-up-only processes per end-to-end run, besides the measured one
CHILD_TIMEOUT_S = 170.0

SPAN_METRICS = {  # span name -> per-layer metric (self time, seconds)
    "game_core.parse": "game_core.parse_s",
    "game_core.validate": "game_core.validate_s",
    "oracle.solve": "oracle.solve_s",
    "zielonka.solve": "zielonka.solve_s",
    "zielonka.signature": "zielonka.signature_s",
    "progress_measure.vi": "progress_measure.vi_s",
    "universal_tree.build": "universal_tree.build_s",
    "universal_tree.leaf_count": "universal_tree.leaf_count_s",
    "universal_tree.is_universal": "universal_tree.is_universal_s",
    "universal_tree.minimal_search": "universal_tree.minimal_search_s",
    "bounds.grid": "bounds.grid_s",
}
COUNTERS = ("zielonka.pre_calls", "zielonka.pre_vertices_scanned",
            "progress_measure.lifts", "progress_measure.lift_attempts",
            "progress_measure.min_geq_calls", "universal_tree.min_leaf_geq_calls",
            "universal_tree.embed_calls")


class BenchError(RuntimeError):
    pass


def run_worker(args, *extra: str) -> tuple[float, dict]:
    """Run one worker to its end.  Returns the seconds from spawning it until
    it printed 'ready', and the JSON object on its last line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra] + (["--smoke"] if args.smoke else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - started
            # read through the same buffered pipe: readline may already hold
            # the result line when the worker prints it right after 'ready'
            out = proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise BenchError(f"worker {' '.join(extra)} timed out") from None
        except BaseException:
            proc.kill()
            raise
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(extra)} exited with code {proc.returncode}")
    try:
        return ready, json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"worker {' '.join(extra)} printed no result") from None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args) -> tuple[dict, dict, list[str]]:
    # Half the set-up probes run before the measured process and half after
    # it, so that their median spans the run rather than one moment of it.
    # Each set-up time is scaled to reference speed by the calibration the
    # process ran right after set-up (see worker.calibrate).
    def probe(*extra):
        ready, res = run_worker(args, *extra)
        setups.append(ready)
        scaled.append(ready * res["setup_scale"])
        return res

    setups: list[float] = []
    scaled: list[float] = []
    for _ in range(SETUP_PROBES // 2):
        probe("--setup-only")
    res = probe("--seconds", str(args.seconds))
    for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
        probe("--setup-only")
    res["raw_setup_samples_s"] = setups
    metrics = {
        "setup_s": metric(statistics.median(scaled), "s"),
        "ops_per_s": metric(res.get("ops_per_s", 0.0), "1/s"),
        "op_ms_p50": metric(res.get("op_ms_p50", 0.0), "ms"),
        "op_ms_p90": metric(res.get("op_ms_p90", 0.0), "ms"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    return metrics, res, []


def per_layer(args) -> tuple[dict, dict, list[str]]:
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    _, traced = run_worker(args, "--fixed", "--trace", "--spans", str(spans))
    _, untraced = run_worker(args, "--fixed")
    traced["untraced_timed_s"] = untraced["timed_s"]
    flags = []
    if untraced["lifts"] != traced["lifts"]:
        flags.append(f"fifo lift total {traced['lifts']} traced differs from "
                     f"{untraced['lifts']} untraced")
    return layer_metrics(traced, untraced), traced, flags


def layer_metrics(traced: dict, untraced: dict) -> dict:
    self_s = traced["self_s"]
    counters = traced["counters"]
    metrics = {name: metric(self_s.get(span, 0.0), "s") for span, name in SPAN_METRICS.items()}
    for name in COUNTERS:
        metrics[name] = metric(counters.get(name, 0), "count")
    lifts = counters.get("progress_measure.lifts", 0)
    attempts = counters.get("progress_measure.lift_attempts", 0)
    calls = counters.get("progress_measure.min_geq_calls", 0)
    misses = counters.get("universal_tree.min_leaf_geq_calls", 0)
    metrics["progress_measure.useful_lift_ratio"] = metric(
        lifts / attempts if attempts else 0.0, "ratio")
    metrics["progress_measure.min_geq_hit_ratio"] = metric(
        1 - misses / calls if calls else 0.0, "ratio")
    metrics["progress_measure.traced_peak_mb"] = metric(traced["traced_peak_mb"], "MB")
    metrics["trace.overhead_s"] = metric(traced["timed_s"] - untraced["timed_s"], "s")
    return metrics


def machine() -> dict:
    u = os.uname()
    return {"node": u.nodename, "system": u.sysname, "release": u.release,
            "machine": u.machine, "cpus": os.cpu_count()}


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "paritytree").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def lift_flags(args, digest: str, lift_ops: int, lifts: int) -> list[str]:
    """Compare the fifo lift total with earlier runs of the same seed and
    sources in this checkout, and remember it."""
    path = OUT / "lifts.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{args.workload}:{args.seed}:{lift_ops}:{digest[:16]}{':smoke' if args.smoke else ''}"
    flags = []
    if key in known and known[key] != lifts:
        flags.append(f"fifo lift total {lifts} over the first {lift_ops} ops differs "
                     f"from {known[key]} in an earlier run of seed {args.seed}")
    known.setdefault(key, lifts)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return flags


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="paritytree benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and op counts, for the benchmark's own test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "paritytree" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'paritytree'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    try:
        metrics, run, flags = (per_layer if args.trace else end_to_end)(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    digest = source_digest()
    flags += lift_flags(args, digest, run["lift_ops"], run["lifts"])
    for flag in flags:
        print(f"warning: {flag}", file=sys.stderr)
    attempted, failed = run["ops"], run["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "machine": machine(), "python": platform.python_version(),
        "git_sha": git_sha(), "src_sha256": digest,
        "fifo_lifts": {"ops": run["lift_ops"], "total": run["lifts"]},
        "flags": flags, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "errors": run["errors"], "samples": run["samples"],
        "timed_s": run["timed_s"], "wall_s": run["wall_s"],
        **{k: run[k] for k in ("raw_setup_samples_s", "cal_ms", "raw_ops_per_s", "raw_op_ms_p50",
                     "raw_op_ms_p90", "untraced_timed_s", "unhooked") if k in run},
        "metrics": metrics,
    }
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
