"""A fixed reference kernel that gauges the host's speed at a moment.

The 2-core host the benchmark was tuned on changes speed by up to 1.9x,
for seconds at a time, with no descheduling (process time tracks wall
time).  Every timing metric is therefore timed next to this kernel and
reported at reference speed:

    reported = measured * NOMINAL_S / (kernel time measured beside it)

that is, as it would read on a host where the kernel takes NOMINAL_S.
Set-up time, which is mostly importing, is gauged the same way by a
second kernel that imports a fixed set of standard-library modules
(`import_sample`): the host's changes of speed move imports less than
they move the compute kernel.

Both kernels are the benchmark's own code and call nothing in the
package, so a change to the package moves the reported times exactly as
it moves the measured ones.  The compute kernel's four parts mix the kinds of work the workloads
do (interpreted float math, 3x3 rotation math in small numpy calls,
string formatting and json, whole-array numpy), each about a quarter of
its time, because the host's speed changes move them by different
amounts.

Importing this module imports numpy: do it only after set-up is timed.
"""

from __future__ import annotations

import importlib.util
import io
import json
import math
import statistics
import time

import numpy as np

NOMINAL_S = 0.003  # about the kernel's time on the 2-core tuning host
IMPORT_NOMINAL_S = 0.009  # about import_sample's time on the same host
# Pure-Python standard-library modules whose bodies only define names.
IMPORT_MODULES = (
    "argparse", "calendar", "difflib", "tarfile", "zipfile", "textwrap", "pickle", "ast",
)

_A = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
_ROWS = [{f"k{i}": [i * 0.5, "x" * (i % 7), {"a": i}]} for i in range(120)]
_GRID = np.random.default_rng(0).random((27, 27, 27))


def _floats():
    s = 0.0
    for i in range(3000):
        x = i * 0.001
        s += math.sin(x) * math.cos(x) + (x if i & 1 else -x)
    return s


def _small_numpy():
    """3x3 rotations built from angles and compared, as the package's
    kinematics do, one small numpy call at a time."""
    s = 0.0
    for i in range(50):
        c, d = math.cos(i * 0.1), math.sin(i * 0.1)
        a = np.array([[c, -d, 0.0], [d, c, 0.0], [0.0, 0.0, 1.0]])
        b = _A @ a
        s += float(np.sum(a * b)) + float(np.linalg.det(b))
    return s


def _text():
    rows = json.loads(json.dumps(_ROWS))
    out = io.StringIO()
    for row in rows:
        for k, v in row.items():
            out.write(f"{k},{v[0]:.17g},{v[1]}\n")
    order = sorted(range(1000), key=lambda x: (x * 7919) % 1009)
    return len(out.getvalue()) + order[0]


def _arrays():
    a = np.sin(_GRID) * np.cos(_GRID)
    return float(a.sum()) + int(((a > 0.1) & (_GRID < 0.9)).sum())


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter_ns()
    _floats()
    _small_numpy()
    _text()
    _arrays()
    return (time.perf_counter_ns() - t0) * 1e-9


def import_sample() -> float:
    """Seconds to import IMPORT_MODULES now: find each, load its cached
    bytecode and run it, into module objects left out of sys.modules."""
    t0 = time.perf_counter_ns()
    for name in IMPORT_MODULES:
        spec = importlib.util.find_spec(name)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    return (time.perf_counter_ns() - t0) * 1e-9


def median_of(kernel, n: int) -> float:
    """Median of n runs of kernel, after one discarded warm-up run."""
    kernel()
    return statistics.median(kernel() for _ in range(n))
