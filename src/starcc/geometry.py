"""Star-configuration geometry for five equal masses: constants and points.

Five bodies of mass 1 sit on the fixed rays theta_i = 2*pi*(i-1)/5 with
polar radii r_1..r_5 and r_1 = 1.  Requiring the center of mass at the
origin determines r_2 and r_4 linearly from the free pair (r_3, r_5):

    r2 = 1 + (a/2) * (r5 - r3)
    r4 = (a/2) * (1 - r3) + r5

with the golden constants a = sqrt(5)+1, b = sqrt(5)-1.  These closed forms
are the exact solution of the 2x2 center-of-mass system (the pentagon
cosines are b/4 and -a/4, and a*b = 4 collapses the algebra).  The open
domain of admissible free pairs is

    S = { (r3, r5) : r3 > 0, r5 > 0, r2 > 0, r4 > 0 }

whose two slanted edges r2 = 0 and r4 = 0 are the lines r5 = r3 - b/2 and
r5 = (a/2)(r3 - 1).  On S every body sits at a positive radius on its own
ray, so no two bodies meet.

This module holds the constants (a, b, the pentagon cosines and sines),
the DomainError that every float route raises outside S (and that
_check_count and _check_tolerance raise for a bad count or tolerance),
and the R2 quasi-random points.
The closure formula, the domain test (in_domain), body coordinates and
distances are written once, in the kernel module.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # quasi_points imports numpy when it runs
    import numpy as np

SQRT5 = math.sqrt(5.0)
A = SQRT5 + 1.0
B = SQRT5 - 1.0

# cos/sin of 2*pi*k/5 for k = 0..4, in exact golden/surd form.  COS[k] is
# exactly representable from SQRT5; the sines come from the standard
# sin 72 = sqrt(10 + 2*sqrt(5))/4 and sin 36 = sqrt(10 - 2*sqrt(5))/4.
SIN72 = math.sqrt(10.0 + 2.0 * SQRT5) / 4.0
SIN36 = math.sqrt(10.0 - 2.0 * SQRT5) / 4.0
COS = (1.0, B / 4.0, -A / 4.0, -A / 4.0, B / 4.0)
SIN = (0.0, SIN72, SIN36, -SIN36, -SIN72)


class DomainError(ValueError):
    """Point outside the admissible open domain S (r2 or r4 not positive)."""


def _check_count(name: str, value, least: int = 0) -> None:
    """DomainError naming the field unless value is an integer (not a
    bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise DomainError(f"{name} {value!r} must be an integer >= {least}")


def _check_tolerance(tol) -> None:
    """DomainError unless tol is finite and > 0."""
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tolerance {tol} must be finite and > 0")


# The plastic number, the real root of x^3 = x + 1.  Its reciprocal powers
# (1/rho, 1/rho^2) are the increments of the R2 sequence, the 2-D Kronecker
# sequence with the best known uniformity.
PLASTIC = 1.32471795724474602596


# Most points or cells one array may hold: quasi-random points, plot grids
# and the boxes of one certification run stop here before allocating.
GRID_CAP = 4_000_000


def quasi_points(n: int, seed: int) -> np.ndarray:
    """The first n points of the seeded R2 sequence in [0, 1)^2, shape (n, 2).

    Point k (k = 1..n) is frac(shift + k * (1/rho, 1/rho^2)) with rho the
    plastic number and shift = np.random.default_rng(seed).random(2).  The
    points depend only on (k, seed), so a longer run extends a shorter one.
    Scan starts and the partition audit draw from here.  Raises
    DomainError (a ValueError) unless n and seed are integers >= 0 (not
    bools, _check_count) and n <= GRID_CAP.  numpy is imported here, the
    one user in this module, so that geometry and kernel load without it.
    """
    import numpy as np

    _check_count("point count", n)
    _check_count("seed", seed)
    if n > GRID_CAP:
        raise DomainError(f"{n} quasi-random points asked for; at most {GRID_CAP}")
    shift = np.random.default_rng(seed).random(2)
    k = np.arange(1, int(n) + 1, dtype=float)[:, None]
    return (shift + k * np.array([1.0 / PLASTIC, 1.0 / PLASTIC**2])) % 1.0
