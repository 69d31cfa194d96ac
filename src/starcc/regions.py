"""The sixteen certification regions, their inequality plans, box covers,
and the partition audit.

The region table `_TABLE` states each region once, in one row built at
import; `region_def` and `region_plan` look rows up.  A row holds:

* the constraints, affine in (r3, r5), with coefficients that are either
  exact machine numbers (decimal bounds like 1.3 are *defined* as their
  float literals) or golden-constant expressions (b/2, 2/b, 1+b, the
  slant (2/a) r5 + 1) carried both as canonical floats (for membership)
  and as interval enclosures (for the conservative box-vs-region tests
  used by the cover and the certifier — a box is discarded only when it
  certainly misses the region closure);
* the edges (r3lo, r3hi, r5lo, r5hi) of the cover's bounding box.  An
  edge named by a golden constant takes the enclosure endpoint, lo for a
  lower edge and hi for an upper edge, so a cover never misses an
  ulp-wide sliver next to an irrational edge (the float B/2 lies above
  the exact b/2, the float 2/B below the exact 2/b).  Two markers stand
  for edges that the run fixes: an r5 top of `_CUT` is the run's
  truncation, and a region is unbounded exactly when its r5 top is the
  cut; an r3 top of `_SLANT` lies on the slant r4 = 0 at the r5 top.
  The edges are stated rather than derived from the constraints, since
  derived ones differ in the last bits on J4, J5 and J6, which would
  change those covers;
* the plan: the pairs the region certifies.

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

Plans: a plan is a set of ordered pairs lambda_low < lambda_high, and a
box is certified when one of them holds strictly on it.  Fourteen regions
need one pair.  J1 and J4 add a second pair for their collision corners,
J1 near (0,0) (bodies 3 and 5 collide at the origin) and J4 near
(b/2, 0) (bodies 2 and 5 collide at the origin), where the first pair
degenerates; the second pair's lambda functions never reference the
colliding pair's distance.  The certifier bounds every pair of the plan
on every box and keeps the largest lower bound (`certify._batch_bounds`),
so no rule says which box takes which pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .geometry import A, B, quasi_points
from .intervals import VInterval, pentagon_constants
from .kernel import in_domain

# Default geometry knobs shared with the certifier.
DELTA_B0 = 0.02
TRUNCATION_R5 = 10.0

REGION_IDS = tuple(f"J{n}" for n in range(1, 17))

# edge markers: the r5 top is the run's cut; the r3 top is on the slant r4 = 0
_CUT = "cut"
_SLANT = "slant"


class TruncationRequired(ValueError):
    """The bbox (and so the cover) of an unbounded region needs a
    truncation bound."""


_IV1 = VInterval(1.0, 1.0)


def _iv(x: float) -> VInterval:
    return VInterval(x, x)


_PC = pentagon_constants()
# float values and interval enclosures of the golden constants the table names
_GOLDEN = {
    "b/2": (B / 2.0, _PC.b * 0.5),
    "2/b": (2.0 / B, 2.0 / _PC.b),
    "1+b": (1.0 + B, _PC.b + _IV1),
    "(2-b)/2": ((2.0 - B) / 2.0, (2.0 - _PC.b) * 0.5),
    "b": (B, _PC.b),
    "1+b/2": (1.0 + B / 2.0, _IV1 + _PC.b * 0.5),
    # slant coefficient 2/a (equal to b/2 but kept in printed form)
    "2/a": (2.0 / A, 2.0 / _PC.a),
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


def _c(kind: str, op: str, value=None) -> Constraint:
    """One constraint of a row, in one of the shapes that occur:

    kind 'r3': r3 OP value;  kind 'r5': r5 OP value  (value a float or a
    golden key);  kind 'slant-r2': r3 OP r5 + b/2;  kind 'slant-r4':
    r3 OP (2/a) r5 + 1.
    """
    if kind == "slant-r2":
        vf, viv = _GOLDEN["b/2"]
        return Constraint(1.0, -1.0, -vf, op, _IV1, _iv(-1.0), -viv)
    if kind == "slant-r4":
        vf, viv = _GOLDEN["2/a"]
        return Constraint(1.0, -vf, -1.0, op, _IV1, -viv, _iv(-1.0))
    vf, viv = _GOLDEN[value] if isinstance(value, str) else (
        float(value), _iv(float(value)))
    # r3 OP v  <=>  r3 - v OP 0
    if kind == "r3":
        return Constraint(1.0, 0.0, -vf, op, _IV1, _iv(0.0), -viv)
    return Constraint(0.0, 1.0, -vf, op, _iv(0.0), _IV1, -viv)


def _edges(named) -> tuple:
    """(r3lo, r3hi, r5lo, r5hi) from floats, markers and golden keys; a
    golden key takes its enclosure's lo on a lower edge, hi on an upper."""
    out = []
    for k, e in enumerate(named):
        if e in _GOLDEN:
            iv = _GOLDEN[e][1]
            e = float(iv.hi if k % 2 else iv.lo)
        elif e not in (_CUT, _SLANT):
            e = float(e)
        out.append(e)
    return tuple(out)


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
class RegionPlan:
    """The pairs a region certifies: every box must satisfy one of them."""

    region: str
    pairs: Tuple[PairCheck, ...]


# ---------------------------------------------------------------------------
# The region table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """One row of the region table."""

    id: str
    constraints: Tuple[Constraint, ...]
    edges: tuple  # (r3lo, r3hi, r5lo, r5hi); floats, _SLANT or _CUT
    plan: RegionPlan

    @property
    def unbounded(self) -> bool:
        return self.edges[3] == _CUT

    def holds(self, r3, r5):
        """Membership of the points (r3, r5), elementwise on arrays."""
        inside = True
        for c in self.constraints:
            inside = inside & c.holds(r3, r5)
        return inside

    def contains(self, p) -> bool:
        return bool(self.holds(float(p[0]), float(p[1])))

    def boundary_distance(self, p) -> float:
        r3, r5 = float(p[0]), float(p[1])
        return min(c.boundary_distance(r3, r5) for c in self.constraints)

    def boxes_outside_closure(self, lo3, hi3, lo5, hi5) -> np.ndarray:
        """Boolean array marking boxes certainly disjoint from closure(region).

        The r3 and r5 edges broadcast against each other, and so does the
        result: a column of r3 edges and a row of r5 edges mark a grid."""
        r3_iv = VInterval(np.asarray(lo3), np.asarray(hi3))
        r5_iv = VInterval(np.asarray(lo5), np.asarray(hi5))
        out = np.zeros(np.broadcast_shapes(r3_iv.lo.shape, r5_iv.lo.shape), dtype=bool)
        for c in self.constraints:
            out |= c.certainly_outside_closure(r3_iv, r5_iv)
        return out

    def _hull(self, truncation: Optional[float] = None):
        """The edges with the cut at the truncation and the slant r3 top
        at the r5 top, rounded outward; not checked for emptiness."""
        r3lo, r3hi, r5lo, r5hi = self.edges
        if r5hi == _CUT:
            if truncation is None:
                raise TruncationRequired(
                    f"{self.id}: unbounded region: pass a truncation r5 bound")
            r5hi = float(truncation)
        if r3hi == _SLANT:
            r3hi = float((_GOLDEN["2/a"][1] * r5hi + _IV1).hi)
        return r3lo, r3hi, r5lo, r5hi

    def bbox(self, truncation: Optional[float] = None):
        """(r3lo, r3hi, r5lo, r5hi) hull of the (truncated) region.

        Raises TruncationRequired for an unbounded region without a
        truncation, and ValueError when the hull is empty or inverted, as
        it is for an unbounded region truncated at or below its r5 floor;
        both messages begin with the region id."""
        box = self._hull(truncation)
        if not (box[0] < box[1] and box[2] < box[3]):
            raise ValueError(
                f"{self.id}: truncation {truncation!r} leaves the empty box {box}")
        return box


def _row(rid, constraints, edges, *pairs) -> Region:
    """A region from its constraint, edge and plan entries; a pair is
    (low, high)."""
    plan = RegionPlan(rid, tuple(PairCheck(*pair) for pair in pairs))
    return Region(rid, tuple(_c(*c) for c in constraints), _edges(edges), plan)


# id; constraints; edges (r3lo, r3hi, r5lo, r5hi); pairs (low, high)
_TABLE = (
    _row("J1", [("r3", ">", 0.0), ("r3", "<=", "b/2"),
                ("r5", ">", 0.0), ("r5", "<=", "b/2")],
         (0.0, "b/2", 0.0, "b/2"), ((1, 1), (3, 1)),
         # bodies 3 and 5 collide at the corner (0, 0); lambda_41 and
         # lambda_11 never reference r_35
         ((4, 1), (1, 1))),
    _row("J2", [("r3", ">", 0.0), ("r3", "<=", "b/2"),
                ("r5", ">", "b/2"), ("r5", "<=", 1.0)],
         (0.0, "b/2", "b/2", 1.0), ((4, 1), (3, 1))),
    _row("J3", [("r3", ">", "b/2"), ("r3", "<", 1.0),
                ("r5", ">=", "(2-b)/2"), ("r5", "<", "b/2")],
         ("b/2", 1.0, "(2-b)/2", "b/2"), ((1, 1), (5, 2))),
    _row("J4", [("r3", ">", "b/2"), ("slant-r2", "<"),
                ("r5", ">=", 0.0), ("r5", "<", "(2-b)/2")],
         ("b/2", 1.0, 0.0, "(2-b)/2"), ((1, 1), (5, 2)),
         # bodies 2 and 5 collide at the corner (b/2, 0); lambda_11 and
         # lambda_31 never reference r_25 or divide by r2
         ((1, 1), (3, 1))),
    _row("J5", [("r3", ">", 1.0), ("slant-r2", "<"),
                ("r5", ">=", "(2-b)/2"), ("r5", "<", "b/2")],
         (1.0, "b", "(2-b)/2", "b/2"), ((1, 1), (5, 2))),
    # r3 - b/2 <= r5 is implied by the strict slant bound; kept as printed
    # in the region table
    _row("J6", [("r3", ">", "b"), ("slant-r2", "<"),
                ("slant-r2", "<="), ("r5", "<", 1.0)],
         ("b", "1+b/2", "b/2", 1.0), ((3, 1), (1, 1))),
    _row("J7", [("r3", ">", "b/2"), ("r3", "<", 1.0),
                ("r5", ">=", "b/2"), ("r5", "<", 1.0)],
         ("b/2", 1.0, "b/2", 1.0), ((4, 2), (5, 2))),
    _row("J8", [("r3", ">", 1.0), ("r3", "<", "b"),
                ("r5", ">=", "b/2"), ("r5", "<", 1.0)],
         (1.0, "b", "b/2", 1.0), ((3, 2), (2, 2))),
    _row("J9", [("r3", ">", 0.0), ("r3", "<", 1.0), ("r5", ">=", 1.0)],
         (0.0, 1.0, 1.0, _CUT), ((4, 1), (1, 1))),
    _row("J10", [("r3", ">", 1.0), ("r3", "<", "2/b"), ("r5", ">=", "1+b")],
         (1.0, "2/b", "1+b", _CUT), ((4, 1), (1, 1))),
    # lower bound corrected from the printed b/2 (see module docstring)
    _row("J11", [("r3", ">", "2/b"), ("slant-r4", "<"),
                 ("r5", ">=", 1.0), ("r5", "<", 3.036)],
         ("2/b", _SLANT, 1.0, 3.036), ((5, 1), (1, 1))),
    _row("J12", [("r3", ">", 1.3), ("r3", "<", "2/b"),
                 ("r5", ">=", 1.0), ("r5", "<", 2.05)],
         (1.3, "2/b", 1.0, 2.05), ((5, 1), (1, 1))),
    _row("J13", [("r3", ">", 1.0), ("r3", "<", 1.3),
                 ("r5", ">=", 1.4), ("r5", "<", 2.05)],
         (1.0, 1.3, 1.4, 2.05), ((5, 1), (1, 1))),
    _row("J14", [("r3", ">", 1.0), ("r3", "<", "2/b"),
                 ("r5", ">=", 2.05), ("r5", "<", "1+b")],
         (1.0, "2/b", 2.05, "1+b"), ((3, 1), (1, 1))),
    _row("J15", [("r3", ">", "2/b"), ("slant-r4", "<"), ("r5", ">=", 3.036)],
         ("2/b", _SLANT, 3.036, _CUT), ((5, 2), (1, 1))),
    # a documented deviation from the paper's four-strip plan (module docstring)
    _row("J16", [("r3", ">", 1.0), ("r3", "<", 1.3),
                 ("r5", ">", 1.0), ("r5", "<", 1.4)],
         (1.0, 1.3, 1.0, 1.4), ((3, 1), (1, 1))),
)
_REGIONS = {reg.id: reg for reg in _TABLE}


def region_def(rid: str) -> Region:
    return _REGIONS[rid]


def region_plan(rid: str) -> RegionPlan:
    return _REGIONS[rid].plan


def region_excises_b0(rid: str, delta: float = DELTA_B0) -> bool:
    """True unless closure(region) certainly misses the square [1-d, 1+d]^2.

    A region that only touches the square's boundary is excised too; that
    is sound, since the local certificate covers the whole square."""
    lo, hi = np.array([1.0 - delta]), np.array([1.0 + delta])
    return not _REGIONS[rid].boxes_outside_closure(lo, hi, lo, hi)[0]


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


def grid_cover(bbox, width: float, square=None, outside=None):
    """The cells of a grid of width <= width on bbox = (r3lo, r3hi, r5lo,
    r5hi), as (lo3, hi3, lo5, hi5) arrays, r3-major.

    Given square = (lo, hi), the grid lines pass through lo and hi on both
    axes and the cells inside [lo, hi]^2 are left out; given outside, so
    are the cells that outside(lo3, hi3, lo5, hi5) marks.  Both tests run
    on the grid's edge vectors, r3 as a column and r5 as a row, so a
    coefficient times an edge is computed once per column or row and only
    the sums run per cell; the per-cell operations are the same, so every
    bit is the one a test of each cell on its own gives.  Only the kept
    cells' edges are gathered."""
    r3lo, r3hi, r5lo, r5hi = bbox
    snaps = square or ()
    e3 = _snap_edges(r3lo, r3hi, width, snaps)
    e5 = _snap_edges(r5lo, r5hi, width, snaps)
    lo3, hi3 = e3[:-1, None], e3[1:, None]
    lo5, hi5 = e5[None, :-1], e5[None, 1:]
    keep = np.ones((lo3.size, lo5.size), dtype=bool)
    if outside is not None:
        keep &= ~outside(lo3, hi3, lo5, hi5)
    if square is not None:
        lo, hi = square
        keep &= ~((lo3 >= lo) & (hi3 <= hi) & (lo5 >= lo) & (hi5 <= hi))
    i3, i5 = np.nonzero(keep)
    return e3[i3], e3[i3 + 1], e5[i5], e5[i5 + 1]


def cover_arrays(
    rid: str,
    max_box_width: float,
    truncation: Optional[float] = None,
    delta: Optional[float] = DELTA_B0,
):
    """Boxes covering closure(region) minus the open excised square.

    Returns (lo3, hi3, lo5, hi5) arrays, r3-major.  Boxes are kept unless
    they certainly miss the region closure (conservative interval test),
    so the union always covers the region; boxes may overhang a slanted
    boundary by less than one cell.  delta=None excises nothing, which is
    what a certificate recording no delta_b0 claims.  An unbounded region
    needs a truncation (TruncationRequired otherwise); a bounded one
    ignores it.  The grid is grid_cover's, with the closure test and the
    excised square.
    """
    reg = region_def(rid)
    square = (1.0 - delta, 1.0 + delta) if _excises(rid, delta) else None
    return grid_cover(reg.bbox(truncation), max_box_width, square,
                      reg.boxes_outside_closure)


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
    return np.column_stack([reg.holds(r3, r5) for reg in _TABLE])


def partition_audit(samples: int, window=None, seed: int = 0) -> PartitionReport:
    """R2 quasi-random audit of disjointness and coverage over window ∩ S.

    Multi-membership points within BOUNDARY_FUZZ of a region boundary are
    expected (shared closed edges); interior multiples indicate a genuine
    region overlap and are surfaced as anomalies.  quasi_points raises
    DomainError unless samples and seed are integers >= 0.
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
