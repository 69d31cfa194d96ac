"""Potential, moment of inertia, configuration measure, and the reduced
force-balance functions lambda_ik / y1.

Two moment conventions coexist deliberately:

* ``moment_I`` is the dynamical moment I = (1/2) sum m r_i^2 (the one in
  lambda = U / (2 I); regular pentagon -> 5/2).
* ``config_measure`` uses the pairwise-normalized moment
  I~ = (1/(4 sum m)) sum_{i<j} m_i m_j r_ij^2, which for center of mass at
  the origin equals (1/4) sum m r_i^2 = I/2.  The closed-form Hessian
  targets reproduced by ``hessian_measure`` — entries (5/4)(25+13*sqrt5),
  -(5/8)(25+13*sqrt5), (5/4)(5+7*sqrt5), determinant 125(85+31*sqrt5)/32 —
  are the Hessian of I~ * U^2; using I instead gives exactly twice each
  entry.  Critical points are identical under either scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from . import kernel
from .geometry import (
    DomainError,
    FreePoint,
    StarRadii,
    close_center_of_mass,
    mutual_distances,
    positions,
)

NEAR_ZERO_DENOMINATOR_TOL = 1e-12

# All nine lambda values at the regular pentagon (1,1), frozen by direct
# summation; equals U/(2I) there.
LAMBDA_STAR = 1.3763819204711734

# Closed-form Hessian of the configuration measure at (1,1) and its
# determinant (see module docstring).
_S5 = math.sqrt(5.0)
HESSIAN_CLOSED_FORM = (
    (1.25 * (25.0 + 13.0 * _S5), -0.625 * (25.0 + 13.0 * _S5)),
    (-0.625 * (25.0 + 13.0 * _S5), 1.25 * (5.0 + 7.0 * _S5)),
)
HESSIAN_CLOSED_FORM_DET = 125.0 * (85.0 + 31.0 * _S5) / 32.0


class NearZeroDenominator(ArithmeticError):
    """|q_ik| below 1e-12; the quotient is numerically meaningless."""


def _check_index(idx) -> Tuple[int, int]:
    i, k = int(idx[0]), int(idx[1])
    if not (1 <= i <= 5 and k in (1, 2)) or (i, k) == (1, 2):
        raise ValueError(f"invalid lambda index ({i}, {k})")
    return i, k


def potential_U(s: StarRadii) -> float:
    """Newtonian potential sum over the ten pairs, unit masses."""
    d = mutual_distances(positions(s))
    iu, ju = np.triu_indices(5, k=1)
    return float((1.0 / d[iu, ju]).sum())


def moment_I(s: StarRadii) -> float:
    """Moment of inertia (1/2) sum m r_i^2 about the origin."""
    r = np.asarray(s.as_tuple())
    return float(0.5 * (r**2).sum())


def config_measure(p) -> float:
    """The scale-invariant configuration measure I~ * U^2 (see module doc)."""
    s = close_center_of_mass(FreePoint(p[0], p[1]))
    return 0.5 * moment_I(s) * potential_U(s) ** 2


def lambda_component(idx, p) -> float:
    """lambda_ik(r3, r5) = N_ik / q_ik at a point of the open domain."""
    i, k = _check_index(idx)
    s = close_center_of_mass(FreePoint(p[0], p[1]))
    bk = kernel.FloatBackend
    radii = s.as_tuple()
    den = kernel.lambda_den(bk, radii, i, k)
    if abs(den) < NEAR_ZERO_DENOMINATOR_TOL:
        raise NearZeroDenominator(f"|q_{i}{k}| = {abs(den)} at {tuple(p)}")
    return kernel.lambda_num(bk, radii, i, k) / den


def lambda_summands(idx, p):
    """The four per-neighbor terms of N_ik/q_ik in ascending-j order.

    Their sum equals lambda_component; useful for seeing which neighbor
    dominates the balance at a given point.
    """
    i, k = _check_index(idx)
    s = close_center_of_mass(FreePoint(p[0], p[1]))
    bk = kernel.FloatBackend
    radii = s.as_tuple()
    den = kernel.lambda_den(bk, radii, i, k)
    if abs(den) < NEAR_ZERO_DENOMINATOR_TOL:
        raise NearZeroDenominator(f"|q_{i}{k}| = {abs(den)} at {tuple(p)}")
    return tuple(t / den for t in kernel.lambda_num_terms(bk, radii, i, k))


def y1_residual(p) -> float:
    """Numerator of the body-1 y equation, -sum_{j!=1} q_j2 / r_1j^3.

    There is no quotient for (1,2) because q_12 = 0 identically; a central
    configuration must make this numerator vanish outright.
    """
    s = close_center_of_mass(FreePoint(p[0], p[1]))
    radii = s.as_tuple()
    return kernel.lambda_num(kernel.FloatBackend, radii, 1, 2)


@dataclass(frozen=True)
class ResidualVector:
    """All nine lambda values, the y1 numerator, and the lambda spread."""

    lambda_values: Dict[Tuple[int, int], float]
    y1: float
    pairwise_spread: float

    def is_solution(self, spread_tol=1e-12, y1_tol=1e-13) -> bool:
        return self.pairwise_spread <= spread_tol and abs(self.y1) <= y1_tol


def residual_vector(p) -> ResidualVector:
    """Evaluate the full system: nine lambdas, y1, and max-min spread."""
    s = close_center_of_mass(FreePoint(p[0], p[1]))
    bk = kernel.FloatBackend
    radii = s.as_tuple()
    cache = {}
    values = {}
    for i, k in kernel.LAMBDA_INDICES:
        den = kernel.lambda_den(bk, radii, i, k)
        if abs(den) < NEAR_ZERO_DENOMINATOR_TOL:
            raise NearZeroDenominator(f"|q_{i}{k}| = {abs(den)} at {tuple(p)}")
        values[(i, k)] = kernel.lambda_num(bk, radii, i, k, cache) / den
    y1 = kernel.lambda_num(bk, radii, 1, 2, cache)
    spread = max(values.values()) - min(values.values())
    return ResidualVector(values, y1, spread)


def _central_gradient(p, h):
    r3, r5 = float(p[0]), float(p[1])
    g3 = (config_measure((r3 + h, r5)) - config_measure((r3 - h, r5))) / (2 * h)
    g5 = (config_measure((r3, r5 + h)) - config_measure((r3, r5 - h))) / (2 * h)
    return np.array([g3, g5])


def gradient_measure(p, h: float = 1e-4, richardson: bool = True) -> np.ndarray:
    """Finite-difference gradient of config_measure; Richardson-extrapolated
    (steps h and h/2) by default, which removes the O(h^2) truncation term."""
    if richardson:
        return (4.0 * _central_gradient(p, h / 2) - _central_gradient(p, h)) / 3.0
    return _central_gradient(p, h)


def _central_hessian(p, h):
    r3, r5 = float(p[0]), float(p[1])
    f = config_measure
    f0 = f((r3, r5))
    h11 = (f((r3 + h, r5)) - 2 * f0 + f((r3 - h, r5))) / (h * h)
    h22 = (f((r3, r5 + h)) - 2 * f0 + f((r3, r5 - h))) / (h * h)
    h12 = (
        f((r3 + h, r5 + h))
        - f((r3 + h, r5 - h))
        - f((r3 - h, r5 + h))
        + f((r3 - h, r5 - h))
    ) / (4 * h * h)
    return np.array([[h11, h12], [h12, h22]])


def hessian_measure(p, h: float = 1e-4, richardson: bool = True) -> np.ndarray:
    """Central-difference Hessian of config_measure at p.

    With richardson=True (default) the O(h^2) error term is cancelled by
    combining steps h and h/2; at (1,1) and h = 1e-4 this reproduces the
    closed forms to better than 1e-5 relative.  The stencil must stay
    inside the domain or DomainError propagates.
    """
    if not (1e-6 <= h <= 1e-2):
        raise ValueError(f"step {h} outside [1e-6, 1e-2]")
    if richardson:
        return (4.0 * _central_hessian(p, h / 2) - _central_hessian(p, h)) / 3.0
    return _central_hessian(p, h)
