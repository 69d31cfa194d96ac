"""Potential, moment of inertia, configuration measure, and the reduced
force-balance functions lambda_ik / y1, all in floats.

Every function takes a point p = (r3, r5) of the open domain S and
evaluates through the kernel with its float backend: _radii closes the
center of mass with kernel.derived_radii after kernel.in_domain has
accepted p (DomainError otherwise), and _quotient is the one checked
lambda quotient (NearZeroDenominator when |q_ik| < 1e-12).

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
from .geometry import DomainError

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

# the ten body pairs (i < j, 1-based) in numpy's triu_indices order
_PAIRS = tuple((i, j) for i in range(1, 6) for j in range(i + 1, 6))

_BK = kernel.FloatBackend


class NearZeroDenominator(ArithmeticError):
    """|q_ik| below 1e-12; the quotient is numerically meaningless."""


def _check_index(idx) -> Tuple[int, int]:
    i, k = int(idx[0]), int(idx[1])
    if not (1 <= i <= 5 and k in (1, 2)) or (i, k) == (1, 2):
        raise ValueError(f"invalid lambda index ({i}, {k})")
    return i, k


def _radii(p):
    """The five radii at p = (r3, r5); DomainError outside S."""
    r3, r5 = float(p[0]), float(p[1])
    radii = kernel.derived_radii(_BK, r3, r5)
    if not kernel.in_domain((r3, r5)):
        raise DomainError(
            f"({r3}, {r5}) closes to r2={radii[1]}, r4={radii[3]}; outside S")
    return radii


def _quotient(radii, i, k, cache=None) -> float:
    """lambda_ik = N_ik / q_ik; NearZeroDenominator when |q_ik| < 1e-12."""
    den = kernel.lambda_den(_BK, radii, i, k)
    if abs(den) < NEAR_ZERO_DENOMINATOR_TOL:
        raise NearZeroDenominator(
            f"|q_{i}{k}| = {abs(den)} at {(radii[2], radii[4])}")
    return kernel.lambda_num(_BK, radii, i, k, cache) / den


def potential_U(p) -> float:
    """Newtonian potential sum over the ten pairs, unit masses."""
    radii = _radii(p)
    inv = [1.0 / math.sqrt(kernel.dist2(_BK, radii, i, j)) for i, j in _PAIRS]
    return float(np.array(inv).sum())


def moment_I(p) -> float:
    """Moment of inertia (1/2) sum m r_i^2 about the origin."""
    r = np.asarray(_radii(p))
    return float(0.5 * (r**2).sum())


def config_measure(p) -> float:
    """The scale-invariant configuration measure I~ * U^2 (see module doc)."""
    return 0.5 * moment_I(p) * potential_U(p) ** 2


def lambda_component(idx, p) -> float:
    """lambda_ik(r3, r5) = N_ik / q_ik at a point of the open domain."""
    i, k = _check_index(idx)
    return _quotient(_radii(p), i, k)


def y1_residual(p) -> float:
    """Numerator of the body-1 y equation, -sum_{j!=1} q_j2 / r_1j^3.

    There is no quotient for (1,2) because q_12 = 0 identically; a central
    configuration must make this numerator vanish outright.
    """
    return kernel.lambda_num(_BK, _radii(p), 1, 2)


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
    radii = _radii(p)
    cache = {}
    values = {(i, k): _quotient(radii, i, k, cache)
              for i, k in kernel.LAMBDA_INDICES}
    y1 = kernel.lambda_num(_BK, radii, 1, 2, cache)
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
