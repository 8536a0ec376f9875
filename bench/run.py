"""Agile Eye benchmark: four seeded workloads against the checkout's src/.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs in fresh child processes (bench/child.py), one at a
time, with BLAS pinned to one thread and no extra threads of its own.
Set-up time is the median over several children, each importing the
entry module and running one warm-up op.  The timed child runs a closed
loop with one caller for --seconds and checks every output against an
oracle that uses no package code.  Every timing is reported at reference
speed: scaled by a fixed reference kernel timed beside it (reference.py),
so that the host's changes of speed cancel out.  Prints one line per
workload, then one JSON object: end-to-end metrics with --trace 0,
per-layer metrics from a separately traced run with --trace 1.  Exits 2,
printing no result, when the checkout holds no package source.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "bench" / "child.py"
BUILD = ROOT / ".bench_build"
WORKLOADS = ("pose_queries", "singular_queries", "track_paths", "sweep_cli")
# Set-up-only children run before and after the timed child, so that the
# samples span the run; set-up time is the median of the five.
SETUP_CHILDREN_EACH_SIDE = 2
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("AGILE_CONFIG", None)  # package defaults only
    # Cached bytecode, as an installed package has: set-up time is import
    # and warm-up, not compilation.  __pycache__ stays inside the checkout.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(BUILD / "tmp")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def l3_bytes() -> int | None:
    try:
        out = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        ).stdout.strip()
        return int(out) or None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def environment(versions: dict) -> str:
    l3 = l3_bytes()
    parts = [f"{k}={v}" for k, v in versions.items()]
    parts += [f"nproc={len(os.sched_getaffinity(0))}", "blas_threads=1"]
    if l3 is None:
        parts.append("l3_bytes=unknown")
        return "env: " + " ".join(parts)
    # A float64 n^3 grid array spills 4x the last-level cache only when
    # 8 n^3 > 4 L3; sweep grids here stay far below that.
    n_min = math.ceil((4 * l3 / 8) ** (1 / 3))
    parts.append(f"l3_bytes={l3}")
    parts.append(
        f"llc_rule=unmet(one float64 grid array needs n>={n_min} to exceed 4xL3;"
        " run_sweep needs ~2.4 GB at n=256)"
    )
    return "env: " + " ".join(parts)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (child result, metrics as {name: {value, unit}})."""
    BUILD.mkdir(exist_ok=True)
    (BUILD / "tmp").mkdir(exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        (BUILD / "trace").mkdir(exist_ok=True)
        out = BUILD / "trace" / f"{name}-seed{seed}.jsonl"
        res = run_child(*common, "--trace", "1", "--trace-out", str(out))
        metrics = {k: {"value": res["layers"][k], "unit": u} for k, u in PER_LAYER.items()}
        return res, metrics
    def setup_samples():
        return [
            run_child("--workload", name, "--setup-only")["setup_s"]
            for _ in range(SETUP_CHILDREN_EACH_SIDE)
        ]

    samples = setup_samples()
    res = run_child(*common, "--trace", "0")
    samples += [res["setup_s"]] + setup_samples()
    res["setup_samples"] = samples
    values = {
        "setup_s": statistics.median(samples),
        "units_per_s": res["units_per_s"],
        "op_p50_ms": res["op_p50_s"] * 1e3,
        "op_tail_ms": res["op_tail_s"] * 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return res, {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def describe(name: str, res: dict, metrics: dict, trace: bool) -> str:
    head = f"{name}: ops_attempted={res['attempted']} ops_failed={res['failed']}"
    if trace:
        body = " ".join(f"{k}={v['value']:.6g}" for k, v in metrics.items())
        return f"{head} (traced) {body}"
    m = {k: v["value"] for k, v in metrics.items()}
    ref_min, ref_med, ref_max = res["ref_ms"]
    return (
        f"{head} setup_s={m['setup_s']:.4f} (median of {len(res['setup_samples'])})"
        f" units_per_s={m['units_per_s']:.2f} op_p50_ms={m['op_p50_ms']:.4f}"
        f" op_tail_ms={m['op_tail_ms']:.4f} (p{res['tail_percentile']:.4g},"
        f" {res['tail_beyond']} of {res['tail_samples']} samples beyond)"
        f" peak_rss_mb={m['peak_rss_mb']:.1f} corpus={res['corpus']}"
        f"\n  {name} as measured: units_per_s={res['raw_units_per_s']:.2f}"
        f" setup_s={res['setup_raw_s']:.4f}; reference kernel"
        f" {ref_min:.3f}/{ref_med:.3f}/{ref_max:.3f} ms (min/median/max of"
        f" {res['ref_samples']}) against {res['ref_nominal_ms']:.3f} ms nominal"
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "agile_eye" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1

    print(environment(next(iter(results.values()))[0]["versions"]))
    for name, (res, metrics) in results.items():
        print(describe(name, res, metrics, bool(args.trace)))
        for msg in res["failure_messages"]:
            print(f"  {name} failure: {msg}")
    attempted = sum(r["attempted"] for r, _ in results.values())
    failed = sum(r["failed"] for r, _ in results.values())
    if len(names) == 1:
        metrics = results[names[0]][1]
    else:
        metrics = {f"{n}.{k}": v for n, (_, m) in results.items() for k, v in m.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
