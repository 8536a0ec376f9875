"""Self-test of the benchmark's oracles.

    python3 bench/selftest.py

Each oracle first accepts the package's real output for a few inputs,
then must count a failure for a deliberately wrong answer: a perturbed
direct-kinematics orientation, a wrong IK joint, signature or mode id, a
flipped classification, a dropped or spurious crossing, a corrupted
records line and a wrong summary.  Exits 1 if any case misbehaves.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import geom  # noqa: E402
import sweep_oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Api  # noqa: E402

RESULTS = []


def case(name, message):
    """A wrong answer must produce a failure message."""
    RESULTS.append((name, message is not None, message))


def accepts(name, message):
    RESULTS.append((name, message is None, message))


def first(items, pred):
    return next(it for it in items if pred(it))


def test_geometry():
    for k, t in enumerate(geom.TRIVIAL, 1):
        ok = abs(geom.det3(t) - 1.0) < 1e-15 and all(
            abs(x) == 1.0 for x in geom.leg_fold(t)
        )
        accepts(f"geom: trivial orientation {k} is proper with v_i = +-u_i",
                None if ok else "not a trivial orientation")
    for f in range(1, 7):
        r = geom.family_curve(f, 0.7)
        leg = (f - 1) // 2
        fold = geom.leg_fold(r)[leg]
        ok = fold == (1.0 if f % 2 else -1.0) and geom.family_distance(r, f) < 1e-7
        accepts(f"geom: family {f} folds leg {leg + 1} as labelled", None if ok else str(fold))
    a, b = (0.3, 0.4, 0.5), (0.3, 0.4, 0.5 + 1e-3)
    accepts("geom: tiny segment off the singular set is clear",
            None if geom.certify_segment(a, b, 0.05) == geom.CLEAR else "not clear")
    # q2(t, 0, pi/2 +- 0.1) changes sign with t3 when t1 = 0
    status = geom.certify_segment((0.0, 0.0, 1.4), (0.0, 0.0, 1.8), 0.05)
    accepts("geom: segment through q2 = 0 is certified crossing",
            None if status == geom.CROSSING else status)


def test_pose(api):
    w = workloads.PoseQueries()
    items = [w.prepare(w._item(random.Random(s))) for s in range(3)]
    for it in items:
        accepts("pose: real output accepted", w.check(it, w.op(api, it)))
    it = items[0]
    r, ik, per = w.op(api, it)

    def with_entry(k, **change):
        j, mode, sig, cls = per[k]
        entry = {"j": j, "mode": mode, "sig": sig, "cls": cls, **change}
        new = list(per)
        new[k] = (entry["j"], entry["mode"], entry["sig"], entry["cls"])
        return r, ik, new

    j = per[0][0]
    case("pose: IK joint perturbed by 1e-6",
         w.check(it, with_entry(0, j=type(j)(j.theta1 + 1e-6, j.theta2, j.theta3))))
    case("pose: IK solution repeated", w.check(it, (r, ik, [per[0]] * 8)))
    case("pose: IK solution missing", w.check(it, (r, ik, per[:7])))
    case("pose: assembly mode id off by one", w.check(it, with_entry(1, mode=per[1][1] % 4 + 1)))
    sig = per[2][2]
    case("pose: signature sign flipped",
         w.check(it, with_entry(2, sig=type(sig)(-sig.s1, sig.s2, sig.s3))))
    cls = per[3][3]
    case("pose: regular configuration classified lockup",
         w.check(it, with_entry(3, cls=dataclasses.replace(cls, kind="lockup", trivial_id=1))))
    case("pose: rotation matrix perturbed", w.check(it, (r + 1e-9, ik, per)))


def test_singular(api):
    w = workloads.SingularQueries()
    rng = random.Random(5)
    items = {c: w.prepare(w._item(rng, c)) for c, _ in workloads.SINGULAR_MIX}
    outs = {c: w.op(api, it) for c, it in items.items()}
    for c, it in items.items():
        accepts(f"singular: real output accepted ({c})", w.check(it, outs[c]))
    sm = outs["self_motion"]
    case("singular: self-motion flipped to lockup",
         w.check(items["self_motion"], dataclasses.replace(sm, kind="lockup", family_id=None, trivial_id=1)))
    case("singular: self-motion family id wrong",
         w.check(items["self_motion"], dataclasses.replace(sm, family_id=sm.family_id % 6 + 1)))
    case("singular: band configuration reported regular",
         w.check(items["band"], dataclasses.replace(outs["band"], kind="regular", family_id=None)))
    lk = outs["lockup"]
    case("singular: lockup flipped to infinitesimal",
         w.check(items["lockup"], dataclasses.replace(lk, kind="infinitesimal_at_trivial")))
    case("singular: lockup trivial id wrong",
         w.check(items["lockup"], dataclasses.replace(lk, trivial_id=lk.trivial_id % 4 + 1)))
    case("singular: condition-pair joints reported finite",
         w.check(items["dk_pair"], dataclasses.replace(outs["dk_pair"], branch="finite")))
    case("singular: condition pair misnamed",
         w.check(items["dk_pair"], dataclasses.replace(outs["dk_pair"], pair=outs["dk_pair"].pair % 3 + 1)))
    case("singular: trivial-only joints reported self-motion",
         w.check(items["dk_trivial_only"], dataclasses.replace(outs["dk_trivial_only"], branch="self_motion")))


def test_track(api):
    w = workloads.TrackPaths()
    rng = random.Random(7)
    items = [w.prepare(w._item(rng, i)) for i in range(8)]
    for it in items:
        accepts("track: real output accepted", w.check(it, w.op(api, it)))
    clear = first(items, lambda it: it.first_crossing is None)
    cross = first(items, lambda it: it.first_crossing is not None)
    out = w.op(api, cross)
    case("track: crossing dropped",
         w.check(cross, dataclasses.replace(out, crossing=None)))
    seg = cross.first_crossing
    case("track: crossing reported after the certified one",
         w.check(cross, dataclasses.replace(out, crossing=dataclasses.replace(out.crossing, segment=seg + 1))))
    out = w.op(api, clear)
    crossing_type = type(w.op(api, cross).crossing)
    case("track: crossing reported on a certified-clear segment",
         w.check(clear, dataclasses.replace(
             out, crossing=crossing_type(3, "spurious"),
             orientations=out.orientations[:4], eulers=out.eulers[:4])))
    k = 5
    bumped = list(out.orientations)
    bumped[k] = geom_to_np(geom.matmul(geom.as_tuple(bumped[k]), geom.rx(1e-6)))
    case("track: direct-kinematics orientation perturbed by 1e-6 rad",
         w.check(clear, dataclasses.replace(out, orientations=tuple(bumped))))
    # the half-turn about the platform x axis is another assembly mode of
    # the same joints: still closed, but a different working mode
    switched = list(out.orientations)
    switched[k] = geom_to_np(geom.matmul(geom.as_tuple(switched[k]), geom.rx(math.pi)))
    eulers = list(out.eulers)
    e = eulers[k]
    eulers[k] = type(e)(e.phi, e.theta, e.psi + math.pi)
    case("track: assembly mode switched mid-path",
         w.check(clear, dataclasses.replace(out, orientations=tuple(switched), eulers=tuple(eulers))))
    case("track: waypoint dropped",
         w.check(clear, dataclasses.replace(out, orientations=out.orientations[:-1], eulers=out.eulers[:-1])))


def geom_to_np(m):
    import numpy as np

    return np.array(m, dtype=float)


def test_sweep(api):
    n, tol = 12, 1e-7
    w = workloads.SweepCli()
    item = w.prepare(workloads.SweepItem(0, n, True, tol, "json", spot=tuple(range(0, n**3, 97))))
    summary = w.op(api, item)
    with open(w._path(item), "rb") as fh:
        data = fh.read()
    oracle = sweep_oracle.expected(n, tol)
    accepts("sweep: real records accepted", sweep_oracle.check_records(data, oracle, item.spot))
    accepts("sweep: real summary accepted", sweep_oracle.check_summary(summary, oracle, "json"))
    lines = data.split(b"\n")
    k = 1 + item.spot[3]

    def with_line(text):
        new = list(lines)
        new[k] = text
        return b"\n".join(new)

    f = lines[k].split(b",")
    case("sweep: component id corrupted",
         sweep_oracle.check_records(with_line(b",".join(f[:5] + [str(int(f[5]) + 1).encode()])), oracle, item.spot))
    case("sweep: degeneracy tag corrupted",
         sweep_oracle.check_records(with_line(b",".join(f[:4] + [b"self_motion", f[5]])), oracle, item.spot))
    case("sweep: det_a digit changed",
         sweep_oracle.check_records(with_line(b",".join(f[:3] + [str(float(f[3]) + 1e-9).encode()] + f[4:])), oracle, item.spot))
    case("sweep: float printed short",
         sweep_oracle.check_records(with_line(b",".join([format(float(f[0]), ".6g").encode()] + f[1:])), oracle, item.spot))
    case("sweep: line dropped", sweep_oracle.check_records(b"\n".join(lines[:k] + lines[k + 1:]), oracle, item.spot))
    swapped = list(lines)
    swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
    case("sweep: two lines out of scan order", sweep_oracle.check_records(b"\n".join(swapped), oracle, item.spot))
    bad = summary.replace('"components_positive": 1', '"components_positive": 2')
    case("sweep: summary component count wrong", sweep_oracle.check_summary(bad, oracle, "json"))
    # the same grid written twice must give identical bytes
    w.check(item, summary)
    w.op(api, item)
    with open(w._path(item), "ab") as fh:
        fh.write(b"\n")
    w.check(item, summary)
    got = w.finish()
    accepts("sweep: first run of a grid accepted", None if len(got) == 1 else got)
    case("sweep: records differ between runs of one grid", (got or [None])[-1])
    large = w.prepare(workloads.SweepItem(1, n, False, tol, "csv"))
    text = w.op(api, large)
    w.check(large, text)
    accepts("sweep: summary-only grid accepted", (w.finish() or [None])[0])
    w.check(large, text.replace("components_negative,1", "components_negative,3"))
    case("sweep: summary-only grid with a wrong count", (w.finish() or [None])[0])


def main() -> int:
    os.chdir(ROOT)
    api = Api()
    test_geometry()
    test_pose(api)
    test_singular(api)
    test_track(api)
    test_sweep(api)
    bad = 0
    for name, ok, message in RESULTS:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({message})" if message else ""))
        bad += not ok
    print(f"{len(RESULTS) - bad}/{len(RESULTS)} oracle self-test cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
