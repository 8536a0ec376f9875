"""Layer-boundary tracing done from outside the package.

`Api` is the set of package entry points the workloads call.  Untraced,
its attributes are the package functions themselves.  Traced, each is a
wrapper that records a span (name, start, end, parent span, op id) and
counts derived from the returned value; spans and counts stay in memory
until `Tracer.write`.  Calls the package makes to itself are seen by
replacing the module attribute it looks up (`agile_eye.modes.solve_dk`,
`agile_eye.cli.run_sweep`, `agile_eye.cli.iter_records`) for the duration
of the traced phase; nothing under src/ is edited.
"""

from __future__ import annotations

import json
import time
from collections import Counter

CLASSIFY_BUCKETS = ("regular", "self_motion", "band", "trivial")

US_PER_CALL = (
    "so3.euler_to_rotation",
    "ik.solve_ik",
    "dk.solve_dk",
    "modes.assembly_mode_id",
    "modes.working_mode_signature",
    *(f"singularity.classify.{b}" for b in CLASSIFY_BUCKETS),
)
# Counts with their units; they repeat exactly for a given seed.
COUNTS = {
    "ik.arbitrary_legs": "count",
    "dk.branch.finite": "count",
    "dk.branch.self_motion": "count",
    "dk.branch.trivial_only": "count",
    "singularity.kind.regular": "count",
    "singularity.kind.self_motion": "count",
    "singularity.kind.lockup": "count",
    "singularity.kind.infinitesimal_at_trivial": "count",
    "modes.track_path.calls": "count",
    "modes.track_path.waypoints": "count",
    "modes.track_path.crossings": "count",
    "cli.main.calls": "count",
    "sweep.run_sweep.calls": "count",
    "sweep.iter_records.calls": "count",
    "sweep.cells": "count",
    "cli.sweep.bytes_written": "B",
    "sweep.arrays.bytes_computed": "B",
}
# Every metric a traced run reports, with its unit.  A layer the workload
# never reaches reports 0 calls and 0 time.
PER_LAYER = {
    **{f"{n}.us_per_call": "us" for n in US_PER_CALL},
    "modes.track_path.us_per_waypoint": "us",
    "sweep.run_sweep.ns_per_cell": "ns",
    "sweep.iter_records.ns_per_cell": "ns",
    "cli.sweep.emit.ns_per_cell": "ns",
    "import.entry_module.s": "s",
    **{f"{n}.calls": "count" for n in US_PER_CALL},
    **COUNTS,
    "trace.units_per_s": "1/s",
    "untraced.units_per_s": "1/s",
    "trace.overhead_pct": "%",
}


def _ik_counts(out, counts):
    counts["ik.arbitrary_legs"] += sum(1 for leg in out.legs if leg.arbitrary)


def _dk_counts(out, counts):
    counts[f"dk.branch.{out.branch}"] += 1


def _classify_counts(out, counts):
    counts[f"singularity.kind.{out.kind}"] += 1


def _track_counts(out, counts):
    counts["modes.track_path.waypoints"] += len(out.orientations)
    counts["modes.track_path.crossings"] += out.crossing is not None


def _sweep_counts(out, counts):
    n = len(out.grid)
    counts["sweep.cells"] += n**3
    # Bytes of the arrays run_sweep returns, computed from their shapes;
    # not a measurement of memory traffic.
    counts["sweep.arrays.bytes_computed"] += (
        out.grid.nbytes + out.det_a.nbytes + out.degeneracy.nbytes + out.component_id.nbytes
    )


class Tracer:
    def __init__(self):
        # (span id, name, start ns, end ns, parent span id or -1, op id),
        # appended when the span ends
        self.spans = []
        self.counts = Counter()
        self.busy_ns = Counter()  # generator layers: time inside next()
        self._stack = [-1]
        self._next_id = 0
        self.op_id = -1

    def wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        calls = name + ".calls"

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, self.op_id))
            counts[calls] += 1
            if count is not None:
                count(out, counts)
            return out

        return traced

    def wrap_generator(self, name, fn):
        """Span for the call, plus busy time spent producing items."""
        busy, counts = self.busy_ns, self.counts
        clock = time.perf_counter_ns
        wrapped = self.wrap(name, fn)

        def traced(*args, **kwargs):
            gen = wrapped(*args, **kwargs)
            while True:
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    busy[name] += clock() - t0
                    return
                busy[name] += clock() - t0
                counts[name + ".items"] += 1
                yield item

        return traced

    def totals(self):
        """Inclusive ns per span name."""
        tot = Counter()
        for _, name, t0, t1, _, _ in self.spans:
            tot[name] += t1 - t0
        return tot

    def minus_children(self, parent_name, child_name):
        """Total ns of parent_name spans less their direct child_name spans."""
        total = 0
        parents = set()
        for sid, name, t0, t1, _, _ in self.spans:
            if name == parent_name:
                total += t1 - t0
                parents.add(sid)
        for _, name, t0, t1, parent, _ in self.spans:
            if name == child_name and parent in parents:
                total -= t1 - t0
        return total

    def write(self, path):
        """Spans as JSON lines, then one line of counts."""
        keys = ("id", "name", "start_ns", "end_ns", "parent", "op")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts),
                                 "busy_ns": dict(self.busy_ns)}) + "\n")


class Api:
    """The package functions the workloads call, optionally traced."""

    def __init__(self, tracer: Tracer | None = None):
        import agile_eye as ae
        from agile_eye import cli

        self.tracer = tracer
        self._patched = []
        w = (lambda name, fn, count=None: fn) if tracer is None else tracer.wrap
        self.euler_to_rotation = w("so3.euler_to_rotation", ae.euler_to_rotation)
        self.solve_ik = w("ik.solve_ik", ae.solve_ik, _ik_counts)
        self.solve_dk = w("dk.solve_dk", ae.solve_dk, _dk_counts)
        self.assembly_mode_id = w("modes.assembly_mode_id", ae.assembly_mode_id)
        self.working_mode_signature = w(
            "modes.working_mode_signature", ae.working_mode_signature
        )
        self.classify = {
            b: w(f"singularity.classify.{b}", ae.classify_configuration, _classify_counts)
            for b in CLASSIFY_BUCKETS
        }
        self.track_path = w("modes.track_path", ae.track_path, _track_counts)
        self.cli_main = w("cli.main", cli.main.main)
        if tracer is not None:
            import agile_eye.modes as modes

            self._patch(modes, "solve_dk", self.solve_dk)
            self._patch(cli, "run_sweep", tracer.wrap("sweep.run_sweep", cli.run_sweep, _sweep_counts))
            self._patch(cli, "iter_records", tracer.wrap_generator("sweep.iter_records", cli.iter_records))

    def _patch(self, module, attr, value):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()
