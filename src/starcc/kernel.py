"""Shared formula kernel for the reduced two-variable system.

Everything here is written once, generically over the operand type.
There are three backends: plain floats, which also run elementwise on
numpy arrays (the solver's vectorized path); vector intervals, 0-d or one
lane per box (the certifier's hot path and the public enclosures); and
first-order interval jets (the Krawczyk Jacobian).  A backend supplies the
pentagon constants in its own representation plus the two non-field
operations (tight square, x^(-3/2)); the formulas below use only +, -, *,
/ and those two hooks, so operator overloading does the rest.

The force-balance functions: with q_i = r_i (cos t_i, sin t_i) and m = 1,

    N_ik(r3, r5)      = sum_{j != i} (q_ik - q_jk) / r_ij^3
    lambda_ik(r3, r5) = N_ik / q_ik                    for (i,k) != (1,2)
    y1(r3, r5)        = N_12 = -sum_{j != 1} q_j2 / r_1j^3   (q_12 = 0)

A point is a central configuration iff all nine lambda_ik coincide and
y1 = 0.  Indices are 1-based bodies i in 1..5 and components k in {1, 2}.
The square subsystem F = (lambda_11 - lambda_31, lambda_11 - lambda_51)
(LOCAL_PAIRS, local_gaps) is stated here once for every backend: the
solver refines it on floats, and the local certificate encloses it on
vector intervals at (1, 1) and differentiates it on interval jets.

Each lambda_ik touches only the four distances r_ij (j != i); the kernel
computes exactly those, on first use.  That matters: at isolated closure
corners two *other* bodies can collide (e.g. bodies 2 and 4 both at the
origin when r2 = r4 = 0), and an eager all-pairs distance pass would
evaluate 1/r_24^3 there for no reason.  The lambdas of one evaluation,
one (r3, r5) on one backend, share a cache: each body's coordinates and
each r_ij^(-3) are computed once, so x^(-3/2), the costliest interval
operation, runs once per distance rather than once per lambda.  A cached
value comes from the same operations on the same operands, so sharing
changes no bit; a cache is valid for its own (r3, r5) only.

The closure radii r2, r4 (derived_radii) are also the domain test:
in_domain checks r3, r5 finite and > 0 and r2, r4 > 0 with these
formulas, so every float route (forces, solver, partition audit, plot
grids) decides membership in S the same way, to the last bit.
"""

from __future__ import annotations

import math

from .geometry import A, COS, SIN

# Lanes per array kernel call: a longer array is evaluated in contiguous
# slices of _BLOCK lanes, so that the temporaries of one call stay in the
# L2 cache.  Every kernel operation is elementwise, so the bits of a lane do
# not depend on the slicing.
_BLOCK = 16384

LAMBDA_INDICES = tuple(
    (i, k) for i in range(1, 6) for k in (1, 2) if (i, k) != (1, 2)
)


class FloatBackend:
    """Plain IEEE floats; also works elementwise on numpy arrays."""

    cos = COS
    sin = SIN
    one = 1.0
    half_a = A / 2.0

    @staticmethod
    def sq(x):
        return x * x

    @staticmethod
    def powneg32(x):
        return x**-1.5


def derived_radii(bk, r3, r5):
    """All five radii as backend values: (r1, r2, r3, r4, r5), 0-indexed."""
    one, ha = bk.one, bk.half_a
    r2 = one + ha * (r5 - r3)
    r4 = ha * (one - r3) + r5
    return (one, r2, r3, r4, r5)


def in_domain(p):
    """Strict membership of p = (r3, r5) in the open domain S: r3, r5
    finite and > 0, and the closure radii r2, r4 > 0.  Works elementwise
    when r3 and r5 are arrays (returns a boolean array then)."""
    r3, r5 = p[0], p[1]
    _, r2, _, r4, _ = derived_radii(FloatBackend, r3, r5)
    return (
        (r3 > 0.0) & (r3 < math.inf) & (r5 > 0.0) & (r5 < math.inf)
        & (r2 > 0.0) & (r4 > 0.0)
    )


def coordinate(bk, radii, i, k):
    """q_ik = r_i * (cos|sin)(theta_i); i is 1-based, k in {1, 2}."""
    c = bk.cos[i - 1] if k == 1 else bk.sin[i - 1]
    return radii[i - 1] * c


def dist2(bk, radii, i, j):
    """Squared distance r_ij^2 between bodies i and j (1-based)."""
    dx = coordinate(bk, radii, i, 1) - coordinate(bk, radii, j, 1)
    dy = coordinate(bk, radii, i, 2) - coordinate(bk, radii, j, 2)
    return bk.sq(dx) + bk.sq(dy)


def lambda_num(bk, radii, i, k, cache=None):
    """Numerator N_ik = sum over the four j != i of (q_ik - q_jk)/r_ij^3.

    cache holds what the lambdas of one evaluation share: each body's
    coordinates (key j) and each r_ij^(-3) (key (i, j), i < j), computed on
    first use by the same operations as without a cache, so a shared cache
    changes no bit.  It is valid for one (r3, r5) and one backend only."""
    if cache is None:
        cache = {}
    for j in range(1, 6):  # N_ik reads every body
        if j not in cache:
            cache[j] = (coordinate(bk, radii, j, 1), coordinate(bk, radii, j, 2))
    qi = cache[i]
    total = None
    for j in range(1, 6):
        if j == i:
            continue
        qj = cache[j]
        key = (min(i, j), max(i, j))
        if key not in cache:
            cache[key] = bk.powneg32(bk.sq(qi[0] - qj[0]) + bk.sq(qi[1] - qj[1]))
        term = (qi[k - 1] - qj[k - 1]) * cache[key]
        total = term if total is None else total + term
    return total


def lambda_den(bk, radii, i, k):
    """Denominator q_ik of the lambda quotient."""
    return coordinate(bk, radii, i, k)


def lambda_quot(bk, r3, r5, i, k, cache=None):
    """lambda_ik = N_ik / q_ik.  Caller guarantees q_ik is invertible."""
    radii = derived_radii(bk, r3, r5)
    return lambda_num(bk, radii, i, k, cache) / lambda_den(bk, radii, i, k)


def y1_num(bk, r3, r5, cache=None):
    """Body-1 y-equation numerator (q_12 = 0, so no quotient exists)."""
    radii = derived_radii(bk, r3, r5)
    return lambda_num(bk, radii, 1, 2, cache)


# The pairs of F, well-conditioned at the pentagon point (1, 1); a pair
# (a, b) is the gap lambda_a - lambda_b.
LOCAL_PAIRS = (((1, 1), (3, 1)), ((1, 1), (5, 1)))


def local_gaps(bk, r3, r5):
    """F(r3, r5): lambda_a - lambda_b for each (a, b) in LOCAL_PAIRS, from
    one set of radii and one cache shared by the three lambdas."""
    radii = derived_radii(bk, r3, r5)
    cache: dict = {}
    lam = {}
    for i, k in sorted({idx for pair in LOCAL_PAIRS for idx in pair}):
        lam[i, k] = lambda_num(bk, radii, i, k, cache) / lambda_den(bk, radii, i, k)
    return tuple(lam[a] - lam[b] for a, b in LOCAL_PAIRS)


# Fixed signs of the nine q_ik denominators everywhere on the open domain S
# (the rays are fixed and every radius is positive on S).  These back
# the cleared-denominator certification forms in the certify module.
Q_SIGN = {
    (1, 1): +1,
    (2, 1): +1,
    (2, 2): +1,
    (3, 1): -1,
    (3, 2): +1,
    (4, 1): -1,
    (4, 2): -1,
    (5, 1): +1,
    (5, 2): -1,
}
