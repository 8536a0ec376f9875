"""The four benchmark workloads: seeded inputs, the op, and its oracle.

Generators and oracles use `geom` (and `sweep_oracle`), never the package
under test.  Inputs are built from independent geometry and kept or
redrawn only on that geometry, never on what the package returns.

Each workload provides
  entry            module whose import is the set-up cost
  unit             what `units_per_s` counts
  whole_passes     stop the timed loop only at a pass boundary
  tail_percentile  nearest-rank percentile reported as op_tail_ms
  warmup_item()    one input for the untimed warm-up op
  corpus(seed)     the list of inputs the closed loop cycles through
  prepare(item)    convert an input to package types (after the import)
  op(api, item)    the timed call(s) into the package
  units(item, out) work units the op completed
  check(item, out) None if the output passes the oracle, else a message
  finish()         post-loop checks; returns the failure messages
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import geom

# Largest |w_i . v_i| accepted for a returned configuration.
CLOSURE_TOL = 1e-9


def _random_euler(rng, theta_margin=0.2):
    return (
        rng.uniform(-math.pi, math.pi),
        rng.uniform(-0.5 * math.pi + theta_margin, 0.5 * math.pi - theta_margin),
        rng.uniform(-math.pi, math.pi),
    )


def _min_trivial_distance(r) -> float:
    return min(geom.rot_angle(r, t) for t in geom.TRIVIAL)


def _np(r):
    import numpy as np

    return np.array(r, dtype=float)


# ---------------------------------------------------------------- pose


@dataclass
class PoseItem:
    euler: tuple
    r: tuple
    legs: tuple  # per leg (a, a + pi)
    expect: dict  # (i1, i2, i3) -> (signature label, mode id)


class PoseQueries:
    """Controller path: orientation -> all 8 working modes, each with its
    assembly mode id, working-mode signature and (regular) class."""

    name = "pose_queries"
    unit = "orientation"
    entry = "agile_eye"
    whole_passes = False
    tail_percentile = 99.0
    corpus_size = 1500
    # Margins that keep every input clearly regular (independent geometry).
    MARGIN = 1e-3

    def _item(self, rng) -> PoseItem:
        while True:
            e = _random_euler(rng)
            r = geom.euler_rot(*e)
            legs = geom.leg_ik(r)
            if None in legs or _min_trivial_distance(r) < 1e-2:
                continue
            if max(abs(x) for x in geom.leg_fold(r)) > 1.0 - self.MARGIN:
                continue
            expect = {}
            for combo in _combos():
                j = tuple(legs[i][combo[i]] for i in range(3))
                q = geom.q2(*j)
                b = geom.b_diag(j, r)
                if abs(q) < self.MARGIN or min(abs(x) for x in b) < self.MARGIN:
                    break
                sig = geom.signature(j, r)
                expect[combo] = (
                    geom.signature_label(sig),
                    geom.expected_mode_id(sig, 1 if q > 0 else -1),
                )
            else:
                return PoseItem(e, r, legs, expect)

    def warmup_item(self):
        return self._item(random.Random(-1))

    def corpus(self, seed):
        rng = random.Random(seed)
        return [self._item(rng) for _ in range(self.corpus_size)]

    def prepare(self, item):
        return item

    def op(self, api, item):
        r = api.euler_to_rotation(item.euler)
        ik = api.solve_ik(r)
        per = [
            (
                j,
                api.assembly_mode_id(j, r),
                api.working_mode_signature(j, r),
                api.classify["regular"](j, r),
            )
            for j in ik.enumerated
        ]
        return r, ik, per

    def units(self, item, out):
        return 1

    def check(self, item, out):
        r, ik, per = out
        if geom.frobenius(geom.as_tuple(r), item.r) > 1e-12:
            return "euler_to_rotation differs from Rz Ry Rx"
        if len(per) != 8 or any(leg.arbitrary for leg in ik.legs):
            return f"expected 8 IK solutions, got {len(per)}"
        seen = set()
        for j, mode, sig, cls in per:
            jt = j.as_tuple()
            combo = _match_combo(jt, item.legs)
            if combo is None:
                return f"IK solution {jt} is not a per-leg root"
            if max(abs(x) for x in geom.residuals(jt, item.r)) > CLOSURE_TOL:
                return f"IK solution {jt} does not close"
            seen.add(combo)
            label, mode_id = item.expect[combo]
            if sig.label != label:
                return f"signature {sig.label} != {label} at {jt}"
            if sig.s1 * sig.s2 * sig.s3 != (1 if geom.q2(*jt) > 0 else -1):
                return f"signature product != sign(q2) at {jt}"
            if mode != mode_id:
                return f"assembly mode {mode} != {mode_id} at {jt}"
            if cls.kind != "regular":
                return f"classified {cls.kind}, expected regular, at {jt}"
        if len(seen) != 8:
            return "IK solutions repeat a working mode"
        return None

    def finish(self):
        return []


def _combos():
    return [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]


def _match_combo(jt, legs):
    combo = []
    for x, pair in zip(jt, legs):
        hits = [k for k in (0, 1) if abs(geom.wrap(x - pair[k])) < 1e-9]
        if len(hits) != 1:
            return None
        combo.append(hits[0])
    return tuple(combo)


# ------------------------------------------------------------ singular

# Category -> share of the corpus.  Fixed shares keep op_p50 inside the
# self-motion group and the tail inside the band group on every seed.
SINGULAR_MIX = (
    ("dk_pair", 0.10),
    ("dk_trivial_only", 0.10),
    ("lockup", 0.10),
    ("infinitesimal", 0.10),
    ("self_motion", 0.35),
    ("band", 0.25),
)
BAND_OFFSET = 1e-8  # joints this far off a condition pair


@dataclass
class SingularItem:
    category: str
    joints: tuple
    r: tuple | None
    expect: tuple  # classify: (kind, family_id, trivial_id); dk: (branch, pair)
    jt: object = None  # package JointTriplet
    rn: object = None  # numpy orientation


class SingularQueries:
    """Configurations on or within 1e-8 of the singular set."""

    name = "singular_queries"
    unit = "configuration"
    entry = "agile_eye"
    whole_passes = False
    tail_percentile = 99.0
    corpus_size = 800

    @staticmethod
    def _generic_angle(rng):
        while True:
            t = rng.uniform(-math.pi, math.pi)
            if min(abs(math.sin(t)), abs(math.cos(t))) >= 0.05:
                return t

    def _q2_zero_joints(self, rng):
        # t3 from tan t3 = -c1 c2 / (s1 s2): q2 = 0 with no condition pair
        while True:
            t1, t2 = self._generic_angle(rng), self._generic_angle(rng)
            t3 = math.atan2(
                -math.cos(t1) * math.cos(t2), math.sin(t1) * math.sin(t2)
            )
            j = (t1, t2, t3)
            if geom.min_trig(j) >= 0.05:
                return j

    def _self_motion(self, rng):
        # A point on family f away from the other curves and the trivial
        # orientations; joints from IK with the singular leg filled by 0.
        while True:
            f = rng.randint(1, 6)
            r = geom.family_curve(f, rng.uniform(-math.pi, math.pi))
            others = [geom.family_distance(r, g) for g in range(1, 7) if g != f]
            if min(others) < 0.1 or _min_trivial_distance(r) < 0.1:
                continue
            legs = geom.leg_ik(r, tol=1e-9)
            j = tuple(0.0 if leg is None else leg[rng.randint(0, 1)] for leg in legs)
            pair = (f + 1) // 2
            if geom.condition_pair(j) == pair:
                return f, pair, j, r

    def _item(self, rng, cat) -> SingularItem:
        if cat == "self_motion":
            f, _, j, r = self._self_motion(rng)
            return SingularItem(cat, j, r, ("self_motion", f, None))
        if cat == "band":
            f, pair, j, r = self._self_motion(rng)
            # perturb one of the two joints the pair constrains
            legs = {1: (1, 2), 2: (2, 0), 3: (0, 1)}[pair]
            k = legs[rng.randint(0, 1)]
            j = list(j)
            j[k] += rng.choice((-1.0, 1.0)) * BAND_OFFSET * rng.uniform(0.5, 2.0)
            j = tuple(j)
            return SingularItem(cat, j, r, ("self_motion", f, None))
        if cat == "lockup":
            while True:
                j = tuple(self._generic_angle(rng) for _ in range(3))
                if abs(geom.q2(*j)) >= 0.05:
                    break
            k = rng.randint(1, 4)
            return SingularItem(cat, j, geom.TRIVIAL[k - 1], ("lockup", None, k))
        if cat == "infinitesimal":
            k = rng.randint(1, 4)
            return SingularItem(
                cat,
                self._q2_zero_joints(rng),
                geom.TRIVIAL[k - 1],
                ("infinitesimal_at_trivial", None, k),
            )
        if cat == "dk_pair":
            pair = rng.randint(1, 3)
            zero_sin = rng.choice((0.0, math.pi))
            zero_cos = rng.choice((0.5 * math.pi, -0.5 * math.pi))
            free = self._generic_angle(rng)
            # pair 1: sin t2 = cos t3 = 0; 2: sin t3 = cos t1 = 0; 3: sin t1 = cos t2 = 0
            j = {
                1: (free, zero_sin, zero_cos),
                2: (zero_cos, free, zero_sin),
                3: (zero_sin, zero_cos, free),
            }[pair]
            return SingularItem(cat, j, None, ("self_motion", pair))
        if cat == "dk_trivial_only":
            return SingularItem(cat, self._q2_zero_joints(rng), None, ("trivial_only", None))
        raise ValueError(cat)

    def warmup_item(self):
        return self._item(random.Random(-1), "self_motion")

    def corpus(self, seed):
        rng = random.Random(seed)
        cats = []
        for cat, share in SINGULAR_MIX:
            cats += [cat] * round(share * self.corpus_size)
        rng.shuffle(cats)
        return [self._item(rng, c) for c in cats]

    def prepare(self, item):
        from agile_eye import JointTriplet

        item.jt = JointTriplet(*item.joints)
        item.rn = None if item.r is None else _np(item.r)
        return item

    _BUCKET = {
        "self_motion": "self_motion",
        "band": "band",
        "lockup": "trivial",
        "infinitesimal": "trivial",
    }

    def op(self, api, item):
        if item.r is None:
            return api.solve_dk(item.jt)
        return api.classify[self._BUCKET[item.category]](item.jt, item.rn)

    def units(self, item, out):
        return 1

    def check(self, item, out):
        if item.r is None:
            branch, pair = item.expect
            if out.branch != branch:
                return f"{item.category} {item.joints}: branch {out.branch} != {branch}"
            if pair is not None and (
                out.pair != pair or tuple(out.families) != geom.PAIR_FAMILIES[pair]
            ):
                return f"{item.category}: pair {out.pair} families {out.families}"
            if out.solutions is not None:
                return f"{item.category}: degenerate branch carries finite solutions"
            if any(
                geom.frobenius(geom.as_tuple(m), t) != 0.0
                for m, t in zip(out.trivial, geom.TRIVIAL)
            ) or len(out.trivial) != 4:
                return f"{item.category}: trivial orientations differ"
            return None
        got = (out.kind, out.family_id, out.trivial_id)
        if got != item.expect:
            return f"{item.category} {item.joints}: classified {got}, built as {item.expect}"
        return None

    def finish(self):
        return []


# -------------------------------------------------------------- track

TRACK_WAYPOINTS = 50
TRACK_STEPS = (0.03, 0.08, 0.15, 0.3, 0.5)  # max joint move per segment, rad
TRACK_CROSS_STEP = 0.6
TRACK_CROSS_EVERY = 4  # every 4th path crosses q2 = 0
PATH_MARGIN = 0.1  # generated in-domain segments keep |q2| >= this
ORACLE_CLEAR = 0.05  # a crossing reported where |q2| >= this is wrong


@dataclass
class TrackItem:
    waypoints: tuple
    start: tuple
    start_sig: tuple
    status: tuple  # certify_segment per segment, at ORACLE_CLEAR
    first_crossing: int | None
    path: object = None
    start_np: object = None


class TrackPaths:
    """track_path on 50-waypoint joint paths; most stay in one sign domain."""

    name = "track_paths"
    unit = "waypoint"
    entry = "agile_eye"
    whole_passes = False
    tail_percentile = 99.0
    corpus_size = 360

    @staticmethod
    def _step(rng, a, size):
        d = [rng.gauss(0.0, 1.0) for _ in range(3)]
        m = max(abs(x) for x in d) or 1.0
        return tuple(geom.wrap(x + size * y / m) for x, y in zip(a, d))

    def _path(self, rng, step, crossing):
        while True:
            e = _random_euler(rng)
            r = geom.euler_rot(*e)
            legs = geom.leg_ik(r)
            if None in legs:
                continue
            j0 = tuple(leg[rng.randint(0, 1)] for leg in legs)
            if abs(geom.q2(*j0)) >= 2 * PATH_MARGIN and min(
                abs(b) for b in geom.b_diag(j0, r)
            ) >= 1e-3:
                break
        cross_at = rng.randint(5, TRACK_WAYPOINTS - 6) if crossing else None
        pts = [j0]
        while len(pts) < TRACK_WAYPOINTS:
            a = pts[-1]
            seg = len(pts) - 1
            for _ in range(500):
                if seg == cross_at:
                    b = self._step(rng, a, TRACK_CROSS_STEP)
                    qa, qb = geom.q2(*a), geom.q2(*b)
                    ok = (qa > 0) != (qb > 0) and abs(qb) >= PATH_MARGIN
                else:
                    b = self._step(rng, a, step)
                    ok = geom.certify_segment(a, b, PATH_MARGIN) == geom.CLEAR
                if ok:
                    pts.append(b)
                    break
            else:
                return None  # boxed in; the caller draws a new path
        status = tuple(
            geom.certify_segment(pts[k], pts[k + 1], ORACLE_CLEAR)
            for k in range(len(pts) - 1)
        )
        first = next((k for k, s in enumerate(status) if s == geom.CROSSING), None)
        return TrackItem(tuple(pts), r, geom.signature(j0, r), status, first)

    def _item(self, rng, idx):
        step = TRACK_STEPS[idx % len(TRACK_STEPS)]
        crossing = idx % TRACK_CROSS_EVERY == TRACK_CROSS_EVERY - 1
        while True:
            item = self._path(rng, step, crossing)
            if item is not None:
                return item

    def warmup_item(self):
        return self._item(random.Random(-1), 0)

    def corpus(self, seed):
        rng = random.Random(seed)
        return [self._item(rng, i) for i in range(self.corpus_size)]

    def prepare(self, item):
        from agile_eye import JointTriplet

        item.path = [JointTriplet(*p) for p in item.waypoints]
        item.start_np = _np(item.start)
        return item

    def op(self, api, item):
        return api.track_path(item.path, item.start_np)

    def units(self, item, out):
        return len(out.orientations)

    def check(self, item, out):
        reported = None if out.crossing is None else out.crossing.segment
        if reported is None:
            if item.first_crossing is not None:
                return f"crossing at segment {item.first_crossing} not reported"
            expected_len = len(item.waypoints)
        else:
            if item.status[reported] == geom.CLEAR:
                return f"crossing reported on certified-clear segment {reported}"
            if item.first_crossing is not None and reported > item.first_crossing:
                return f"crossing reported at {reported}, after segment {item.first_crossing}"
            expected_len = reported + 1
        if len(out.orientations) != expected_len or len(out.eulers) != expected_len:
            return f"reached {len(out.orientations)} waypoints, expected {expected_len}"
        if geom.frobenius(geom.as_tuple(out.orientations[0]), item.start) > 1e-9:
            return "first orientation is not the start"
        for k, (m, e) in enumerate(zip(out.orientations, out.eulers)):
            r = geom.as_tuple(m)
            j = item.waypoints[k]
            if max(abs(x) for x in geom.residuals(j, r)) > CLOSURE_TOL:
                return f"waypoint {k}: orientation does not close"
            if geom.frobenius(geom.euler_rot(*e.as_tuple()), r) > 1e-9:
                return f"waypoint {k}: Euler angles and matrix disagree"
            if geom.signature(j, r) != item.start_sig:
                return f"waypoint {k}: working mode left the start's"
        return None

    def finish(self):
        return []


# -------------------------------------------------------------- sweep

SWEEP_RECORD_N = 40
SWEEP_LARGE_N = 128
SWEEP_RECORD_OPS = 4  # per pass, plus one large summary-only grid
SWEEP_SPOT_LINES = 64
OUT_DIR = os.path.join(".bench_build", "sweep")


@dataclass
class SweepItem:
    index: int
    n: int
    records: bool
    tol_singular: float
    fmt: str
    spot: tuple = ()
    args: list = field(default_factory=list)
    bytes: int = 0  # size of the last records file written


class SweepCli:
    """`agile sweep` through cli.main, in-process."""

    name = "sweep_cli"
    unit = "cell"
    entry = "agile_eye.cli"
    whole_passes = True
    tail_percentile = 90.0

    def __init__(self):
        self._first = {}  # corpus index -> digest of its first records file
        self._deferred = []  # (item, summary text, records digest) per op

    def warmup_item(self):
        return SweepItem(-1, 8, False, 1e-7, "json")

    def corpus(self, seed):
        rng = random.Random(seed)
        items = [
            SweepItem(
                k,
                SWEEP_RECORD_N if k < SWEEP_RECORD_OPS else SWEEP_LARGE_N,
                k < SWEEP_RECORD_OPS,
                # singular tolerance log-uniform in [5e-8, 2e-7]
                1e-7 * 2.0 ** rng.uniform(-1.0, 1.0),
                rng.choice(("json", "csv")),
            )
            for k in range(SWEEP_RECORD_OPS + 1)
        ]
        rng.shuffle(items)
        for it in items:
            if it.records:
                it.spot = tuple(sorted(rng.sample(range(it.n**3), SWEEP_SPOT_LINES)))
        return items

    def prepare(self, item):
        os.makedirs(OUT_DIR, exist_ok=True)
        item.args = [
            "--tol-singular", repr(item.tol_singular), "--format", item.fmt,
            "sweep", "--grid-n", str(item.n),
        ]
        if item.records:
            item.args += ["--records-out", self._path(item)]
        else:
            item.args.append("--no-records")
        return item

    @staticmethod
    def _path(item):
        return os.path.join(OUT_DIR, f"records-{item.index}.csv")

    def op(self, api, item):
        buf = io.StringIO()
        with redirect_stdout(buf):
            api.cli_main(args=item.args, prog_name="agile", standalone_mode=False)
        return buf.getvalue()

    def units(self, item, out):
        return item.n**3

    def trace_counts(self, item, out, counts):
        counts["cli.sweep.bytes_written"] += len(out.encode()) + item.bytes

    def check(self, item, out):
        """Defer to finish(), which runs after the loop's peak RSS has been
        read: the oracle needs large arrays of its own.  The first records
        file of each grid is kept for it; later ones must match its digest
        and are removed at once, so dirty pages do not pile up."""
        digest = None
        if item.records:
            path = self._path(item)
            with open(path, "rb") as fh:
                data = fh.read()
            item.bytes = len(data)
            digest = hashlib.sha256(data).hexdigest()
            if item.index in self._first:
                os.remove(path)
            else:
                os.replace(path, path + ".first")
                self._first[item.index] = digest
        self._deferred.append((item, out, digest))
        return None

    def finish(self):
        import sweep_oracle

        verdicts, failures = {}, []
        for item, out, digest in self._deferred:
            if item.index not in verdicts:
                oracle = sweep_oracle.expected(item.n, item.tol_singular)
                msg = None
                if item.records:
                    path = self._path(item) + ".first"
                    with open(path, "rb") as fh:
                        msg = sweep_oracle.check_records(fh.read(), oracle, item.spot)
                    os.remove(path)
                verdicts[item.index] = (oracle, msg)
            oracle, msg = verdicts[item.index]
            if msg is None and digest != self._first.get(item.index):
                msg = "records differ between runs of the same grid"
            if msg is None:
                msg = sweep_oracle.check_summary(out, oracle, item.fmt)
            if msg is not None:
                failures.append(msg)
        self._deferred.clear()
        return failures


WORKLOADS = {
    w.name: w for w in (PoseQueries, SingularQueries, TrackPaths, SweepCli)
}
