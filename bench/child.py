"""One workload in a fresh process: set-up, timed closed loop, oracle.

    python3 bench/child.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/child.py --workload NAME --setup-only

Started by run.py with PYTHONPATH pointing at the checkout's src/ and BLAS
pinned to one thread.  Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time

from workloads import WORKLOADS  # pure Python: numpy loads with the package

# Op time between two samples of the reference kernel (reference.py).
BLOCK_S = 0.1
MAX_FAILURE_MESSAGES = 5


def setup(work):
    """Import the entry module and run one warm-up op.

    Returns (set-up seconds, import seconds, api), as measured.  The
    warm-up input is generated before the clock starts.
    """
    warm = work.warmup_item()
    t0 = time.perf_counter()
    importlib.import_module(work.entry)
    t_import = time.perf_counter() - t0
    import tracing

    api = tracing.Api()
    work.op(api, work.prepare(warm))
    return time.perf_counter() - t0, t_import, api


def whole_passes(ops, size):
    """The ops of every whole pass of `size`; a trailing partial pass is
    dropped unless it is the only one, so every run weighs the corpus's
    inputs alike."""
    n = len(ops) - len(ops) % size
    return ops[:n] if n else ops


def nearest_rank(values, percentile):
    """(value at the nearest-rank percentile, samples beyond it)."""
    ranked = sorted(values)
    rank = max(1, int(-(-percentile * len(ranked) // 100)))  # ceil
    return ranked[rank - 1], len(ranked) - rank


class Loop:
    """Closed loop, one caller: the next op starts when the previous one
    and its oracle check are done.  Only op time is timed.

    With `gauge`, the reference kernel runs before the first op and after
    every BLOCK_S of op time, and each op's time is also given at
    reference speed, scaled by the mean of the two samples around its
    block."""

    def __init__(self, work, api, items, tracer=None, gauge=False):
        self.work, self.api, self.items, self.tracer = work, api, items, tracer
        self.gauge = gauge
        self.durations = []  # seconds per op
        self.units = []  # per op: units completed, 0 if it failed
        self.failures = []  # messages of failed ops
        self.next_index = 0  # position in the corpus
        self.refs = []  # reference kernel seconds, one sample per block edge
        self.block_of = []  # per op: its block, between refs[b] and refs[b + 1]

    def one(self):
        work, item = self.work, self.items[self.next_index % len(self.items)]
        self.next_index += 1
        t0 = time.perf_counter_ns()
        try:
            out = work.op(self.api, item)
            err = None
        except Exception as exc:  # an op that raises counts as failed
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter_ns() - t0
        self.durations.append(dt * 1e-9)
        if err is None:
            try:
                err = work.check(item, out)
            except Exception as exc:  # output the oracle cannot even read
                err = f"malformed output: {type(exc).__name__}: {exc}"
        self.units.append(0)
        if err is None:
            self.units[-1] = work.units(item, out)
            if self.tracer is not None and hasattr(work, "trace_counts"):
                work.trace_counts(item, out, self.tracer.counts)
        else:
            self.failures.append(err)

    def run_for(self, seconds, whole_passes=False):
        if self.gauge:
            import reference

            self.refs.append(reference.median_of(reference.sample, 1))
        t_end = time.perf_counter() + seconds
        n = len(self.items)
        block_s = 0.0
        while True:
            at_boundary = self.next_index % n == 0
            if time.perf_counter() >= t_end and (at_boundary or not whole_passes):
                break
            self.one()
            self.block_of.append(len(self.refs) - 1)
            block_s += self.durations[-1]
            if self.gauge and block_s >= BLOCK_S:
                self.refs.append(reference.sample())
                block_s = 0.0
        if self.gauge and block_s > 0.0:
            self.refs.append(reference.sample())

    def scaled_durations(self):
        """Op seconds at reference speed."""
        import reference

        scale = [
            2.0 * reference.NOMINAL_S / (a + b) for a, b in zip(self.refs, self.refs[1:])
        ]
        return [d * scale[b] for d, b in zip(self.durations, self.block_of)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    work = WORKLOADS[args.workload]()
    setup_s, import_s, api = setup(work)
    import reference

    # Set-up at reference import speed, gauged right after it.
    result = {
        "setup_s": setup_s
        * reference.IMPORT_NOMINAL_S
        / reference.median_of(reference.import_sample, 7),
        "setup_raw_s": setup_s,
    }
    if args.setup_only:
        print(json.dumps(result))
        return

    items = [work.prepare(it) for it in work.corpus(args.seed)]
    result["corpus"] = len(items)
    if args.trace:
        traced_metrics(work, api, items, args, result, import_s)
    else:
        loop = Loop(work, api, items, gauge=True)
        loop.run_for(args.seconds, work.whole_passes)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        loop.failures += work.finish()
        scaled = whole_passes(list(zip(loop.scaled_durations(), loop.units)), len(items))
        raw = whole_passes(list(zip(loop.durations, loop.units)), len(items))
        op_tail, beyond = nearest_rank([d for d, _ in scaled], work.tail_percentile)
        result.update(
            units_per_s=sum(u for _, u in scaled) / sum(d for d, _ in scaled),
            op_p50_s=statistics.median(d for d, _ in scaled),
            op_tail_s=op_tail,
            tail_percentile=work.tail_percentile,
            tail_beyond=beyond,
            tail_samples=len(scaled),
            raw_units_per_s=sum(u for _, u in raw) / sum(d for d, _ in raw),
            ref_samples=len(loop.refs),
            ref_nominal_ms=1e3 * reference.NOMINAL_S,
            ref_ms=[1e3 * min(loop.refs), 1e3 * statistics.median(loop.refs), 1e3 * max(loop.refs)],
        )
        finish_result(result, loop)
    result["versions"] = versions()
    print(json.dumps(result))


def finish_result(result, *loops):
    result["attempted"] = sum(len(lp.durations) for lp in loops)
    failures = [m for lp in loops for m in lp.failures]
    result["failed"] = len(failures)
    result["failure_messages"] = failures[:MAX_FAILURE_MESSAGES]


def traced_metrics(work, api, items, args, result, import_s):
    """Untraced whole passes for half the time, then exactly one traced
    pass over the corpus: the overhead compares equal mixes, and every
    count repeats exactly for a given seed."""
    import tracing

    plain = Loop(work, api, items)
    plain.run_for(args.seconds / 2.0, whole_passes=True)
    tracer = tracing.Tracer()
    traced_api = tracing.Api(tracer)
    traced = Loop(work, traced_api, items, tracer)
    try:
        for k in range(len(items)):
            tracer.op_id = k
            traced.one()
    finally:
        traced_api.restore()
    traced.failures += work.finish()
    finish_result(result, plain, traced)
    untraced_ups = sum(plain.units) / sum(plain.durations)
    traced_ups = sum(traced.units) / sum(traced.durations)
    result["layers"] = layer_metrics(tracer, import_s)
    result["layers"].update(
        {
            "trace.units_per_s": traced_ups,
            "untraced.units_per_s": untraced_ups,
            "trace.overhead_pct": 100.0 * (1.0 - traced_ups / untraced_ups),
        }
    )
    missing = set(tracing.PER_LAYER) ^ set(result["layers"])
    if missing:
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {missing}")
    if args.trace_out:
        tracer.write(args.trace_out)


def layer_metrics(tracer, import_s):
    """Per-layer metrics; per-call times include nested spans."""
    import tracing

    tot, c = tracer.totals(), tracer.counts

    def per(total_ns, count, scale):
        return total_ns / count / scale if count else 0.0

    m = {}
    for name in tracing.US_PER_CALL:
        m[name + ".us_per_call"] = per(tot[name], c[name + ".calls"], 1e3)
        m[name + ".calls"] = c[name + ".calls"]
    m["modes.track_path.us_per_waypoint"] = per(
        tot["modes.track_path"], c["modes.track_path.waypoints"], 1e3
    )
    # Emit is cli.main minus run_sweep, per record emitted.
    emit_ns = tracer.minus_children("cli.main", "sweep.run_sweep")
    record_cells = c["sweep.iter_records.items"]
    m["sweep.run_sweep.ns_per_cell"] = per(tot["sweep.run_sweep"], c["sweep.cells"], 1.0)
    m["sweep.iter_records.ns_per_cell"] = per(
        tracer.busy_ns["sweep.iter_records"], record_cells, 1.0
    )
    m["cli.sweep.emit.ns_per_cell"] = per(emit_ns, record_cells, 1.0)
    m["import.entry_module.s"] = import_s
    for name in tracing.COUNTS:
        m[name] = c[name]
    return m


def versions():
    from importlib.metadata import version

    out = {"python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy", "click"):
        out[pkg] = version(pkg)
    return out


if __name__ == "__main__":
    sys.exit(main())
