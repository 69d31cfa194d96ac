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
and the R2 quasi-random points.  Their seed shift is the first two doubles
of the PCG64 stream that numpy's SeedSequence(seed) seeds, computed on
Python integers (_seed_shift), so no starcc path loads numpy.random; the
tests hold it to np.random.default_rng(seed).random(2), bit for bit.
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


# Word masks and PCG64's 128-bit LCG multiplier, for _seed_shift.
_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value: int, const: list, mult: int = 0x931E8875) -> int:
    """SeedSequence's hashmix: value hashed with const[0], which advances
    by mult (generate_state hashes the pool words with its own mult)."""
    value ^= const[0]
    const[0] = (const[0] * mult) & _M32
    value = (value * const[0]) & _M32
    return value ^ (value >> 16)


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix of two pool words."""
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ (r >> 16)


def _seed_shift(seed: int) -> list:
    """The two doubles of a PCG64 generator seeded by SeedSequence(seed):
    the values np.random.default_rng(seed).random(2) returns, computed on
    Python integers.  The seed's 32-bit words (low first) fill and mix a
    four-word pool; the pool gives four 64-bit words, PCG64's state and
    stream; each double is (x >> 11) * 2**-53 of one XSL-RR output."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = [0x43B0D7E5]
    pool = [_hashmix(words[i] if i < len(words) else 0, const) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], const))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, const))
    const = [0x8B51F9DD]
    state32 = [_hashmix(pool[i % 4], const, 0x58F38DED) for i in range(8)]
    s0, s1, i0, i1 = (state32[2 * i] | state32[2 * i + 1] << 32 for i in range(4))
    inc = (((i0 << 64 | i1) << 1) | 1) & _M128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
    out = []
    for _ in range(2):
        state = (state * _PCG_MULT + inc) & _M128
        x, rot = ((state >> 64) ^ state) & _M64, state >> 122
        x = ((x >> rot) | (x << (64 - rot))) & _M64
        out.append((x >> 11) * 2.0**-53)
    return out


def quasi_points(n: int, seed: int) -> np.ndarray:
    """The first n points of the seeded R2 sequence in [0, 1)^2, shape (n, 2).

    Point k (k = 1..n) is frac(shift + k * (1/rho, 1/rho^2)) with rho the
    plastic number and shift the first two doubles of the PCG64 stream
    that SeedSequence(seed) seeds (_seed_shift, on Python integers, so
    that no starcc path loads numpy.random; tests check it bit for bit
    against np.random.default_rng(seed).random(2)).  The points depend
    only on (k, seed), so a longer run extends a shorter one.  Each column
    is built in place in one C-contiguous array.  Scan starts and the
    partition audit draw from here.  Raises DomainError (a ValueError)
    unless n and seed are integers >= 0 (not bools, _check_count) and
    n <= GRID_CAP.  numpy is imported here, the one user in this module,
    so that geometry and kernel load without it.
    """
    import numpy as np

    _check_count("point count", n)
    _check_count("seed", seed)
    if n > GRID_CAP:
        raise DomainError(f"{n} quasi-random points asked for; at most {GRID_CAP}")
    k = np.arange(1, int(n) + 1, dtype=float)
    pts = np.empty((int(n), 2))
    for j, (inc, shift) in enumerate(zip((1.0 / PLASTIC, 1.0 / PLASTIC**2),
                                         _seed_shift(int(seed)))):
        col = pts[:, j]
        np.multiply(k, inc, out=col)
        col += shift
        np.remainder(col, 1.0, out=col)
    return pts
