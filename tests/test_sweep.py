import math
import os
import subprocess
import sys

import numpy as np

from agile_eye import (
    JointTriplet,
    classify_joint_degeneracy,
    det_a_closed_form,
    iter_records,
    joint_grid,
    run_sweep,
)


def test_joint_grid_interval():
    g = joint_grid(16)
    assert len(g) == 16
    assert g[-1] == math.pi
    assert g[0] > -math.pi
    assert np.all(np.diff(g) > 0)
    assert 0.0 in g  # multiples of four hit the special angles exactly


def test_det_values_match_closed_form():
    result = run_sweep(8)
    g = result.grid
    for i1, i2, i3 in ((0, 0, 0), (3, 5, 1), (7, 7, 7), (2, 6, 4)):
        j = JointTriplet(g[i1], g[i2], g[i3])
        assert result.det_a[i1, i2, i3] == det_a_closed_form(j)


def test_degeneracy_tags_match_classifier():
    result = run_sweep(16)
    g = result.grid
    tags = ("generic", "self_motion", "trivial_only")
    hits = {t: 0 for t in tags}
    for i1 in range(16):
        for i2 in range(16):
            for i3 in range(16):
                tag = tags[result.degeneracy[i1, i2, i3]]
                expected = classify_joint_degeneracy(
                    JointTriplet(g[i1], g[i2], g[i3])
                ).kind
                assert tag == expected
                hits[tag] += 1
    # a grid divisible by 4 lands exactly on degenerate joints
    assert hits["self_motion"] > 0
    assert hits["trivial_only"] > 0


def test_components_and_walls():
    result = run_sweep(16)
    comp = result.component_id
    det = result.det_a
    wall = np.abs(det) <= 1e-7
    assert np.all(comp[wall] == -1)
    assert np.all(comp[~wall] >= 0)
    labels = np.unique(comp[comp >= 0])
    assert labels.tolist() == list(range(len(labels)))
    # neighbors of equal sign share a component (sampled)
    rng = np.random.default_rng(3)
    for _ in range(500):
        i1, i2, i3 = rng.integers(0, 16, 3)
        if wall[i1, i2, i3]:
            continue
        for axis, delta in ((0, 1), (1, 1), (2, 1)):
            idx = [i1, i2, i3]
            idx[axis] = (idx[axis] + delta) % 16
            n1, n2, n3 = idx
            if wall[n1, n2, n3]:
                continue
            if np.sign(det[n1, n2, n3]) == np.sign(det[i1, i2, i3]):
                assert comp[n1, n2, n3] == comp[i1, i2, i3]


def test_component_counts_stable_small():
    a = run_sweep(16).summary
    b = run_sweep(24).summary
    assert a["components_positive"] == b["components_positive"]
    assert a["components_negative"] == b["components_negative"]


def test_singular_fraction_shrinks():
    a = run_sweep(16).summary["singular_cell_fraction"]
    b = run_sweep(32).summary["singular_cell_fraction"]
    assert 0 < b < a


def test_records_iteration_order_and_content():
    result = run_sweep(8)
    records = list(iter_records(result))
    assert len(records) == 8**3
    g = result.grid
    assert records[0].theta1 == g[0] and records[0].theta3 == g[0]
    assert records[1].theta3 == g[1]  # theta3 varies fastest
    assert records[-1].theta1 == g[-1]
    for rec in records[:20]:
        assert rec.degeneracy in ("generic", "self_motion", "trivial_only")


def test_sweep_deterministic():
    a = run_sweep(12)
    b = run_sweep(12)
    np.testing.assert_array_equal(a.det_a, b.det_a)
    np.testing.assert_array_equal(a.component_id, b.component_id)
    assert a.summary == b.summary


def test_package_import_does_not_load_scipy():
    # scipy.ndimage is needed only by run_sweep's labelling
    import agile_eye

    src = os.path.dirname(os.path.dirname(agile_eye.__file__))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, agile_eye, agile_eye.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
