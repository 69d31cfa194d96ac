"""Star-configuration geometry for five equal masses.

Five bodies of mass 1 sit at the fixed angles theta_i = 2*pi*(i-1)/5 with
polar radii r_1..r_5 and r_1 = 1.  Requiring the center of mass at the
origin determines r_2 and r_4 linearly from the free pair (r_3, r_5):

    r2 = 1 + (a/2) * (r5 - r3)
    r4 = (a/2) * (1 - r3) + r5

with the golden constants a = sqrt(5)+1, b = sqrt(5)-1.  These closed forms
are the exact solution of the 2x2 center-of-mass system (the pentagon
cosines are b/4 and -a/4, and a*b = 4 collapses the algebra).  The open
domain of admissible free pairs is

    S = { (r3, r5) : r3 > 0, r5 > 0, r5 > r3 - b/2, r5 > (a*r3 - a)/2 }

and the two slanted constraints are exactly the r2 > 0 and r4 > 0 loci
(since 2/a = b/2 and 2/b = a/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

SQRT5 = math.sqrt(5.0)
A = SQRT5 + 1.0
B = SQRT5 - 1.0

N_BODIES = 5

# cos/sin of 2*pi*k/5 for k = 0..4, in exact golden/surd form.  COS[k] is
# exactly representable from SQRT5; the sines come from the standard
# sin 72 = sqrt(10 + 2*sqrt(5))/4 and sin 36 = sqrt(10 - 2*sqrt(5))/4.
SIN72 = math.sqrt(10.0 + 2.0 * SQRT5) / 4.0
SIN36 = math.sqrt(10.0 - 2.0 * SQRT5) / 4.0
COS = (1.0, B / 4.0, -A / 4.0, -A / 4.0, B / 4.0)
SIN = (0.0, SIN72, SIN36, -SIN36, -SIN72)

COLLISION_TOL = 1e-12


class DomainError(ValueError):
    """Point outside the admissible open domain S (r2 or r4 not positive)."""


class CollisionError(ValueError):
    """Two bodies closer than the collision tolerance."""


class FreePoint(NamedTuple):
    """The two free radii (r3, r5) that parametrize a star configuration."""

    r3: float
    r5: float


@dataclass(frozen=True)
class StarRadii:
    """All five polar radii; r1 is fixed to 1 and r2, r4 follow from closure."""

    r1: float
    r2: float
    r3: float
    r4: float
    r5: float

    def as_tuple(self):
        return (self.r1, self.r2, self.r3, self.r4, self.r5)


def angles():
    """The five body angles (0, 2pi/5, 4pi/5, 6pi/5, 8pi/5)."""
    return tuple(2.0 * math.pi * k / 5.0 for k in range(N_BODIES))


def closure_r2(r3, r5):
    """r2 from the center-of-mass closure; works on floats and arrays."""
    return 1.0 + (A / 2.0) * (r5 - r3)


def closure_r4(r3, r5):
    """r4 from the center-of-mass closure; works on floats and arrays."""
    return (A / 2.0) * (1.0 - r3) + r5


def close_center_of_mass(p: FreePoint) -> StarRadii:
    """Complete (r3, r5) to all five radii with the center of mass at 0.

    Raises DomainError when the induced r2 or r4 is not strictly positive,
    i.e. when p lies outside S.
    """
    r3, r5 = float(p[0]), float(p[1])
    r2 = closure_r2(r3, r5)
    r4 = closure_r4(r3, r5)
    if not (r2 > 0.0 and r4 > 0.0 and r3 > 0.0 and r5 > 0.0):
        raise DomainError(f"({r3}, {r5}) closes to r2={r2}, r4={r4}; outside S")
    return StarRadii(1.0, r2, r3, r4, r5)


def positions(s: StarRadii) -> np.ndarray:
    """Cartesian positions q_i = r_i (cos theta_i, sin theta_i), shape (5, 2)."""
    r = np.asarray(s.as_tuple())
    return np.stack([r * COS, r * SIN], axis=1)


def mutual_distances(pos: np.ndarray) -> np.ndarray:
    """Symmetric 5x5 matrix of pairwise distances r_ij.

    Raises CollisionError if any off-diagonal distance is below 1e-12.
    """
    diff = pos[:, None, :] - pos[None, :, :]
    d = np.sqrt((diff**2).sum(axis=2))
    off = d[~np.eye(N_BODIES, dtype=bool)]
    if np.any(off < COLLISION_TOL):
        raise CollisionError("two bodies coincide (distance < 1e-12)")
    return d


def in_domain(p) -> bool:
    """Strict membership in the open domain S (no tolerance)."""
    r3, r5 = float(p[0]), float(p[1])
    return (
        r3 > 0.0
        and r5 > 0.0
        and r5 > r3 - B / 2.0
        and r5 > (A * r3 - A) / 2.0
    )


def nz() -> float:
    """The distinguished zeta value 4(b-1)/(2-b); algebraically equal to b."""
    return 4.0 * (B - 1.0) / (2.0 - B)


# The plastic number, the real root of x^3 = x + 1.  Its reciprocal powers
# (1/rho, 1/rho^2) are the increments of the R2 sequence, the 2-D Kronecker
# sequence with the best known uniformity.
PLASTIC = 1.32471795724474602596
_R2_STEP = np.array([1.0 / PLASTIC, 1.0 / PLASTIC**2])


def quasi_points(n: int, seed: int) -> np.ndarray:
    """The first n points of the seeded R2 sequence in [0, 1)^2, shape (n, 2).

    Point k (k = 1..n) is frac(shift + k * (1/rho, 1/rho^2)) with rho the
    plastic number and shift = np.random.default_rng(seed).random(2).  The
    points depend only on (k, seed), so a longer run extends a shorter one.
    Scan starts and the partition audit draw from here.
    """
    shift = np.random.default_rng(seed).random(2)
    k = np.arange(1, int(n) + 1, dtype=float)[:, None]
    return (shift + k * _R2_STEP) % 1.0
