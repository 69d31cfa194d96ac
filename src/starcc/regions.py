"""The sixteen certification regions, their inequality plans, box covers,
and the partition audit.

Region constraints are affine in (r3, r5) with coefficients that are
either exact machine numbers (decimal bounds like 1.3 are *defined* as
their float literals) or golden-constant expressions (b/2, 2/b, 1+b, the
slant (2/a) r5 + 1) carried both as canonical floats (for membership) and
as interval enclosures (for the conservative box-vs-region tests used by
the cover and the certifier — a box is discarded only when it certainly
misses the region closure).  Cover bounding boxes and zone edges take the
enclosure endpoints, lo for a lower edge and hi for an upper edge, so a
cover never misses an ulp-wide sliver next to an irrational edge (the
float B/2 lies above the exact b/2, the float 2/B below the exact 2/b).

Two documented deviations from the paper's printed tables:

* J11's lower r3 bound is 2/b, not b/2 (as printed it would overlap
  J9/J12/J13/J16 and contain the solution point (1,1) itself,
  contradicting its own strict-inequality claim); justified in the
  partition audit and the region-plan tests.
* J16 certifies the single pair lambda_31 < lambda_11, which the paper
  uses on J16's last band only.  The paper splits J16 at r3 = 1.13067,
  1.152781 and 1.201923 into four r3 strips that certify, left to right,
  lambda_21 < lambda_41, lambda_21 < lambda_11, |y1| > 0 and
  lambda_31 < lambda_11.  Its middle break must move right to 1.153,
  since the y1 = 0 symmetry line exits J16's top edge at
  r3 = (5.6 + 2a)/a^2 = 1.15278640450...; and along r5 = 1, y1 vanishes
  at r3 = 1.2019250523, 2.05e-6 right of the last break, which drives
  that plan to depth 33.  Measured at width 0.02, the four-strip plan
  needs 14 634 leaves, depth 33 and has min gap 1.32e-8; the single pair
  needs 4 358 leaves, depth 14 and has min gap 8.39e-7.  The proved
  theorem is the same, and every region rests on one kind of certified
  statement, a strict inequality between two multipliers.

Plans: each region certifies one ordered pair lambda_low < lambda_high.
Two regions carry corner sub-plans where the main pair degenerates at a
closure collision: J1 near (0,0) (bodies 3, 5 collide at the origin) and
J4 near (b/2, 0) (bodies 2, 5 collide at the origin); there the certifier
switches to a pair whose lambda functions never reference the colliding
pair's distance.  One router, `RegionPlan.route`, gives every box of an
array its check in one vectorized pass; the certifier, the verifier and
the gap plot all use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .geometry import A, B, quasi_points
from .intervals import VInterval, pentagon_constants
from .kernel import in_domain

# Default geometry knobs shared with the certifier.
DELTA_B0 = 0.02
TRUNCATION_R5 = 10.0
CORNER_ZONE_SIDE = 0.06

REGION_IDS = tuple(f"J{n}" for n in range(1, 17))


class TruncationRequired(ValueError):
    """The bbox (and so the cover) of an unbounded region needs a
    truncation bound."""


_IV1 = VInterval(1.0, 1.0)


def _iv(x: float) -> VInterval:
    return VInterval(x, x)


@lru_cache(maxsize=1)
def _golden():
    """Float values and interval enclosures of the golden constants that
    the region tables use, built once."""
    pc = pentagon_constants()
    return {
        "b/2": (B / 2.0, pc.b * 0.5),
        "2/b": (2.0 / B, 2.0 / pc.b),
        "1+b": (1.0 + B, pc.b + _IV1),
        "(2-b)/2": ((2.0 - B) / 2.0, (2.0 - pc.b) * 0.5),
        "b": (B, pc.b),
        # slant coefficient 2/a (equal to b/2 but kept in printed form)
        "2/a": (2.0 / A, 2.0 / pc.a),
    }


@dataclass(frozen=True)
class Constraint:
    """a*r3 + b*r5 + c OP 0 with OP in {'<','<=','>','>='}.

    Float coefficients define membership; the interval coefficients bound
    them for rigorous box tests.
    """

    a: float
    b: float
    c: float
    op: str
    a_iv: VInterval
    b_iv: VInterval
    c_iv: VInterval

    def holds(self, r3, r5):
        g = self.a * r3 + self.b * r5 + self.c
        if self.op == "<":
            return g < 0.0
        if self.op == "<=":
            return g <= 0.0
        if self.op == ">":
            return g > 0.0
        return g >= 0.0

    def boundary_distance(self, r3, r5):
        """|g| / |grad g|: distance of the point to the constraint line."""
        g = self.a * r3 + self.b * r5 + self.c
        return abs(g) / math.hypot(self.a, self.b)

    def certainly_outside_closure(self, r3_iv: VInterval, r5_iv: VInterval):
        """Boolean array: boxes that certainly miss {g OP' 0} with OP' the
        closed version of OP (soundly evaluated with coefficient enclosures)."""
        g = self.a_iv * r3_iv + self.b_iv * r5_iv + self.c_iv
        if self.op in ("<", "<="):
            return g.lo > 0.0
        return g.hi < 0.0


def _c(kind: str, op: str, value, golden_key: Optional[str] = None) -> Constraint:
    """Helpers for the three constraint shapes that occur:

    kind 'r3': r3 OP value;  kind 'r5': r5 OP value;
    kind 'slant-r2': r3 < r5 + b/2  (written r3 - r5 - b/2 < 0)
    kind 'slant-r4': r3 < (2/a) r5 + 1
    """
    g = _golden()
    if kind in ("r3", "r5"):
        if golden_key is not None:
            vf, viv = g[golden_key]
        else:
            vf, viv = float(value), _iv(float(value))
        a, b = (1.0, 0.0) if kind == "r3" else (0.0, 1.0)
        a_iv, b_iv = (_IV1, _iv(0.0)) if kind == "r3" else (_iv(0.0), _IV1)
        # r3 OP v  <=>  r3 - v OP 0
        return Constraint(a, b, -vf, op, a_iv, b_iv, -viv)
    if kind == "slant-r2":
        vf, viv = g["b/2"]
        return Constraint(1.0, -1.0, -vf, op, _IV1, _iv(-1.0), -viv)
    if kind == "slant-r4":
        vf, viv = g["2/a"]
        return Constraint(1.0, -vf, -1.0, op, _IV1, -viv, _iv(-1.0))
    raise ValueError(kind)


@dataclass(frozen=True)
class Region:
    """One certification region."""

    id: str
    constraints: Tuple[Constraint, ...]
    unbounded: bool = False

    def contains(self, p) -> bool:
        r3, r5 = float(p[0]), float(p[1])
        return all(c.holds(r3, r5) for c in self.constraints)

    def boundary_distance(self, p) -> float:
        r3, r5 = float(p[0]), float(p[1])
        return min(c.boundary_distance(r3, r5) for c in self.constraints)

    def boxes_outside_closure(self, lo3, hi3, lo5, hi5) -> np.ndarray:
        """Boolean array marking boxes certainly disjoint from closure(region)."""
        r3_iv = VInterval(np.asarray(lo3), np.asarray(hi3))
        r5_iv = VInterval(np.asarray(lo5), np.asarray(hi5))
        out = np.zeros(np.asarray(lo3).shape, dtype=bool)
        for c in self.constraints:
            out |= c.certainly_outside_closure(r3_iv, r5_iv)
        return out

    def bbox(self, truncation: Optional[float] = None):
        """(r3lo, r3hi, r5lo, r5hi) hull of the (truncated) region.

        Raises ValueError when the hull is empty or inverted, as it is for
        an unbounded region truncated at or below its r5 floor."""
        box = tuple(float(e) for e in _BBOXES[self.id](truncation))
        if not (box[0] < box[1] and box[2] < box[3]):
            raise ValueError(
                f"{self.id}: truncation {truncation!r} leaves the empty box {box}")
        return box


def _build_regions():
    bb = {
        "J1": (
            (_c("r3", ">", 0.0), _c("r3", "<=", None, "b/2"),
             _c("r5", ">", 0.0), _c("r5", "<=", None, "b/2")),
            False,
        ),
        "J2": (
            (_c("r3", ">", 0.0), _c("r3", "<=", None, "b/2"),
             _c("r5", ">", None, "b/2"), _c("r5", "<=", 1.0)),
            False,
        ),
        "J3": (
            (_c("r3", ">", None, "b/2"), _c("r3", "<", 1.0),
             _c("r5", ">=", None, "(2-b)/2"), _c("r5", "<", None, "b/2")),
            False,
        ),
        "J4": (
            (_c("r3", ">", None, "b/2"), _c("slant-r2", "<", None),
             _c("r5", ">=", 0.0), _c("r5", "<", None, "(2-b)/2")),
            False,
        ),
        "J5": (
            (_c("r3", ">", 1.0), _c("slant-r2", "<", None),
             _c("r5", ">=", None, "(2-b)/2"), _c("r5", "<", None, "b/2")),
            False,
        ),
        "J6": (
            # r3 - b/2 <= r5 is implied by the strict slant bound; kept as
            # printed in the region table
            (_c("r3", ">", None, "b"), _c("slant-r2", "<", None),
             _c("slant-r2", "<=", None), _c("r5", "<", 1.0)),
            False,
        ),
        "J7": (
            (_c("r3", ">", None, "b/2"), _c("r3", "<", 1.0),
             _c("r5", ">=", None, "b/2"), _c("r5", "<", 1.0)),
            False,
        ),
        "J8": (
            (_c("r3", ">", 1.0), _c("r3", "<", None, "b"),
             _c("r5", ">=", None, "b/2"), _c("r5", "<", 1.0)),
            False,
        ),
        "J9": (
            (_c("r3", ">", 0.0), _c("r3", "<", 1.0), _c("r5", ">=", 1.0)),
            True,
        ),
        "J10": (
            (_c("r3", ">", 1.0), _c("r3", "<", None, "2/b"),
             _c("r5", ">=", None, "1+b")),
            True,
        ),
        # lower bound corrected from the printed b/2 (see module docstring)
        "J11": (
            (_c("r3", ">", None, "2/b"), _c("slant-r4", "<", None),
             _c("r5", ">=", 1.0), _c("r5", "<", 3.036)),
            False,
        ),
        "J12": (
            (_c("r3", ">", 1.3), _c("r3", "<", None, "2/b"),
             _c("r5", ">=", 1.0), _c("r5", "<", 2.05)),
            False,
        ),
        "J13": (
            (_c("r3", ">", 1.0), _c("r3", "<", 1.3),
             _c("r5", ">=", 1.4), _c("r5", "<", 2.05)),
            False,
        ),
        "J14": (
            (_c("r3", ">", 1.0), _c("r3", "<", None, "2/b"),
             _c("r5", ">=", 2.05), _c("r5", "<", None, "1+b")),
            False,
        ),
        "J15": (
            (_c("r3", ">", None, "2/b"), _c("slant-r4", "<", None),
             _c("r5", ">=", 3.036)),
            True,
        ),
        "J16": (
            (_c("r3", ">", 1.0), _c("r3", "<", 1.3),
             _c("r5", ">", 1.0), _c("r5", "<", 1.4)),
            False,
        ),
    }
    return {rid: Region(rid, cons, unb) for rid, (cons, unb) in bb.items()}


def _need_trunc(t):
    if t is None:
        raise TruncationRequired("unbounded region: pass a truncation r5 bound")
    return float(t)


# interval enclosures of the golden constants, keyed as in _golden()
_G = {key: iv for key, (_, iv) in _golden().items()}


def _slant_r3(r5: float) -> float:
    """Upper r3 edge (2/a) r5 + 1 of the slant r4 = 0 at r5, rounded outward."""
    return float((_G["2/a"] * r5 + _IV1).hi)


# (r3lo, r3hi, r5lo, r5hi): enclosure lo for lower edges, hi for upper ones
_BBOXES = {
    "J1": lambda t: (0.0, _G["b/2"].hi, 0.0, _G["b/2"].hi),
    "J2": lambda t: (0.0, _G["b/2"].hi, _G["b/2"].lo, 1.0),
    "J3": lambda t: (_G["b/2"].lo, 1.0, _G["(2-b)/2"].lo, _G["b/2"].hi),
    "J4": lambda t: (_G["b/2"].lo, 1.0, 0.0, _G["(2-b)/2"].hi),
    "J5": lambda t: (1.0, _G["b"].hi, _G["(2-b)/2"].lo, _G["b/2"].hi),
    "J6": lambda t: (_G["b"].lo, (_IV1 + _G["b/2"]).hi, _G["b/2"].lo, 1.0),
    "J7": lambda t: (_G["b/2"].lo, 1.0, _G["b/2"].lo, 1.0),
    "J8": lambda t: (1.0, _G["b"].hi, _G["b/2"].lo, 1.0),
    "J9": lambda t: (0.0, 1.0, 1.0, _need_trunc(t)),
    "J10": lambda t: (1.0, _G["2/b"].hi, _G["1+b"].lo, _need_trunc(t)),
    "J11": lambda t: (_G["2/b"].lo, _slant_r3(3.036), 1.0, 3.036),
    "J12": lambda t: (1.3, _G["2/b"].hi, 1.0, 2.05),
    "J13": lambda t: (1.0, 1.3, 1.4, 2.05),
    "J14": lambda t: (1.0, _G["2/b"].hi, 2.05, _G["1+b"].hi),
    "J15": lambda t: (_G["2/b"].lo, _slant_r3(_need_trunc(t)), 3.036, _need_trunc(t)),
    "J16": lambda t: (1.0, 1.3, 1.0, 1.4),
}

_REGIONS = _build_regions()


def region_def(rid: str) -> Region:
    return _REGIONS[rid]


def region_excises_b0(rid: str, delta: float = DELTA_B0) -> bool:
    """True unless closure(region) certainly misses the square [1-d, 1+d]^2.

    A region that only touches the square's boundary is excised too; that
    is sound, since the local certificate covers the whole square."""
    lo, hi = np.array([1.0 - delta]), np.array([1.0 + delta])
    return not _REGIONS[rid].boxes_outside_closure(lo, hi, lo, hi)[0]


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairCheck:
    """Certify lambda_low < lambda_high strictly on each box."""

    low: Tuple[int, int]
    high: Tuple[int, int]

    def describe(self):
        return f"lambda_{self.low[0]}{self.low[1]} < lambda_{self.high[0]}{self.high[1]}"


@dataclass(frozen=True)
class CornerZone:
    """Boxes fully inside this rectangle switch to the alternate check."""

    r3_lo: float
    r3_hi: float
    r5_lo: float
    r5_hi: float
    check: PairCheck
    reason: str


@dataclass(frozen=True)
class RegionPlan:
    region: str
    main: PairCheck
    zones: Tuple[CornerZone, ...] = ()

    def route(self, lo3, hi3, lo5, hi5):
        """The plan's checks (main, then zones) and the index of the check
        each box uses, for arrays of boxes.

        A box takes the main check unless it lies inside a zone; the last
        zone that matches wins."""
        checks = [self.main]
        cid = np.zeros(lo3.shape, dtype=np.int64)
        for z in self.zones:
            m = (lo3 >= z.r3_lo) & (hi3 <= z.r3_hi) & (lo5 >= z.r5_lo) & (hi5 <= z.r5_hi)
            cid[m] = len(checks)
            checks.append(z.check)
        return checks, cid


_PAIRS = {
    "J1": PairCheck((1, 1), (3, 1)),
    "J2": PairCheck((4, 1), (3, 1)),
    "J3": PairCheck((1, 1), (5, 2)),
    "J4": PairCheck((1, 1), (5, 2)),
    "J5": PairCheck((1, 1), (5, 2)),
    "J6": PairCheck((3, 1), (1, 1)),
    "J7": PairCheck((4, 2), (5, 2)),
    "J8": PairCheck((3, 2), (2, 2)),
    "J9": PairCheck((4, 1), (1, 1)),
    "J10": PairCheck((4, 1), (1, 1)),
    "J11": PairCheck((5, 1), (1, 1)),
    "J12": PairCheck((5, 1), (1, 1)),
    "J13": PairCheck((5, 1), (1, 1)),
    "J14": PairCheck((3, 1), (1, 1)),
    "J15": PairCheck((5, 2), (1, 1)),
    # a documented deviation from the paper's four-strip plan (module docstring)
    "J16": PairCheck((3, 1), (1, 1)),
}


def region_plan(rid: str) -> RegionPlan:
    if rid == "J1":
        return RegionPlan(
            "J1",
            main=_PAIRS["J1"],
            zones=(
                CornerZone(
                    0.0, CORNER_ZONE_SIDE, 0.0, CORNER_ZONE_SIDE,
                    PairCheck((4, 1), (1, 1)),
                    "bodies 3 and 5 collide at the origin corner (0,0); "
                    "lambda_41/lambda_11 never reference r_35",
                ),
            ),
        )
    if rid == "J4":
        return RegionPlan(
            "J4",
            main=_PAIRS["J4"],
            zones=(
                CornerZone(
                    float(_G["b/2"].lo), 1.0, 0.0, CORNER_ZONE_SIDE,
                    PairCheck((1, 1), (3, 1)),
                    "bodies 2 and 5 collide at the origin corner (b/2, 0); "
                    "lambda_11/lambda_31 never reference r_25 or divide by r2",
                ),
            ),
        )
    if rid in _PAIRS:
        return RegionPlan(rid, main=_PAIRS[rid])
    raise KeyError(rid)


# ---------------------------------------------------------------------------
# Covers
# ---------------------------------------------------------------------------


def _snap_edges(lo: float, hi: float, width: float, snaps=()):
    """Grid edges lo..hi with cells <= width, passing exactly through the
    snap values that fall strictly inside (lo, hi)."""
    pts = [lo, hi]
    for s in snaps:
        if lo < s < hi:
            pts.append(float(s))
    pts = sorted(set(pts))
    edges = [pts[0]]
    for left, right in zip(pts[:-1], pts[1:]):
        n = max(1, int(math.ceil((right - left) / width - 1e-12)))
        seg = np.linspace(left, right, n + 1)
        edges.extend(seg[1:].tolist())
    return np.asarray(edges)


def _excises(rid: str, delta: Optional[float]) -> bool:
    return delta is not None and region_excises_b0(rid, delta)


def _region_snaps(rid: str, delta: Optional[float]):
    """Per-region grid lines that box edges must align with."""
    s3, s5 = [], []
    if _excises(rid, delta):
        s3 += [1.0 - delta, 1.0 + delta]
        s5 += [1.0 - delta, 1.0 + delta]
    plan = region_plan(rid)
    for z in plan.zones:
        s3 += [z.r3_lo, z.r3_hi]
        s5 += [z.r5_lo, z.r5_hi]
    return s3, s5


def cover_arrays(
    rid: str,
    max_box_width: float,
    truncation: Optional[float] = None,
    delta: Optional[float] = DELTA_B0,
):
    """Boxes covering closure(region) minus the open excised square.

    Returns (lo3, hi3, lo5, hi5) arrays.  Boxes are kept unless they
    certainly miss the region closure (conservative interval test), so the
    union always covers the region; boxes may overhang a slanted boundary
    by less than one cell.  delta=None excises nothing, which is what a
    certificate recording no delta_b0 claims.  An unbounded region needs
    a truncation (TruncationRequired otherwise); a bounded one ignores it.
    """
    reg = region_def(rid)
    r3lo, r3hi, r5lo, r5hi = reg.bbox(truncation)
    s3, s5 = _region_snaps(rid, delta)
    e3 = _snap_edges(r3lo, r3hi, max_box_width, s3)
    e5 = _snap_edges(r5lo, r5hi, max_box_width, s5)
    lo3, lo5 = np.meshgrid(e3[:-1], e5[:-1], indexing="ij")
    hi3, hi5 = np.meshgrid(e3[1:], e5[1:], indexing="ij")
    lo3, hi3, lo5, hi5 = (a.ravel() for a in (lo3, hi3, lo5, hi5))
    keep = ~reg.boxes_outside_closure(lo3, hi3, lo5, hi5)
    if _excises(rid, delta):
        inside_b0 = (
            (lo3 >= 1.0 - delta) & (hi3 <= 1.0 + delta)
            & (lo5 >= 1.0 - delta) & (hi5 <= 1.0 + delta)
        )
        keep &= ~inside_b0
    return lo3[keep], hi3[keep], lo5[keep], hi5[keep]


# ---------------------------------------------------------------------------
# Partition audit
# ---------------------------------------------------------------------------


@dataclass
class PartitionReport:
    samples_in_domain: int
    in_zero_regions: int
    in_one_region: int
    in_multiple_regions: int
    interior_multiples: int
    uncovered_fraction: float
    anomalies: list  # up to 32 (r3, r5, [region ids]) tuples

    def summary(self) -> str:
        return (
            f"{self.samples_in_domain} domain samples: "
            f"{self.in_one_region} single, {self.in_multiple_regions} multi "
            f"({self.interior_multiples} interior), "
            f"uncovered fraction {self.uncovered_fraction:.3e}"
        )


BOUNDARY_FUZZ = 1e-9


def _membership_matrix(r3: np.ndarray, r5: np.ndarray) -> np.ndarray:
    """(n_points, 16) boolean membership, fully vectorized."""
    cols = []
    for rid in REGION_IDS:
        m = np.ones(r3.shape, dtype=bool)
        for c in region_def(rid).constraints:
            m &= c.holds(r3, r5)
        cols.append(m)
    return np.column_stack(cols)


def partition_audit(samples: int, window=None, seed: int = 0) -> PartitionReport:
    """R2 quasi-random audit of disjointness and coverage over window ∩ S.

    Multi-membership points within BOUNDARY_FUZZ of a region boundary are
    expected (shared closed edges); interior multiples indicate a genuine
    region overlap and are surfaced as anomalies.
    """
    if window is None:
        t = TRUNCATION_R5
        window = (0.0, (2 / A) * t + 1.0, 0.0, t)
    r3lo, r3hi, r5lo, r5hi = window
    pts = quasi_points(samples, seed)
    r3 = r3lo + pts[:, 0] * (r3hi - r3lo)
    r5 = r5lo + pts[:, 1] * (r5hi - r5lo)
    dom = in_domain((r3, r5))
    r3, r5 = r3[dom], r5[dom]
    member = _membership_matrix(r3, r5)
    counts = member.sum(axis=1)
    multi_idx = np.flatnonzero(counts >= 2)
    anomalies = []
    interior = 0
    for idx in multi_idx[:256]:
        rids = [REGION_IDS[j] for j in np.flatnonzero(member[idx])]
        p = (float(r3[idx]), float(r5[idx]))
        near_boundary = any(
            region_def(rid).boundary_distance(p) <= BOUNDARY_FUZZ for rid in rids
        )
        if not near_boundary:
            interior += 1
            if len(anomalies) < 32:
                anomalies.append((p[0], p[1], rids))
    n = int(r3.size)
    zero = int((counts == 0).sum())
    return PartitionReport(
        samples_in_domain=n,
        in_zero_regions=zero,
        in_one_region=int((counts == 1).sum()),
        in_multiple_regions=int(multi_idx.size),
        interior_multiples=interior,
        uncovered_fraction=(zero / n) if n else 0.0,
        anomalies=anomalies,
    )
