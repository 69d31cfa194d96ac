import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from starcc import geometry
from starcc.geometry import (
    A,
    B,
    DomainError,
    FreePoint,
    StarRadii,
    close_center_of_mass,
    closure_r2,
    closure_r4,
    in_domain,
    mutual_distances,
    positions,
    quasi_points,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_golden_constants():
    assert A == math.sqrt(5.0) + 1.0
    assert B == math.sqrt(5.0) - 1.0
    assert A * B == pytest.approx(4.0, rel=1e-15)
    assert A / 2.0 == pytest.approx(GOLDEN, rel=1e-15)
    assert 2.0 / B == pytest.approx(GOLDEN, rel=1e-15)


def test_closure_matches_hand_values():
    # r2 = 1 + (a/2)(r5 - r3), r4 = (a/2)(1 - r3) + r5
    assert closure_r2(1.3, 0.8) == pytest.approx(0.19098300562505255, rel=1e-15)
    assert closure_r4(1.3, 0.8) == pytest.approx(0.3145898033750315, rel=1e-15)
    assert closure_r2(1.0, 1.0) == 1.0
    assert closure_r4(1.0, 1.0) == 1.0


def test_close_center_of_mass_zeroes_the_centroid():
    s = close_center_of_mass(FreePoint(1.17, 0.93))
    com = positions(s).sum(axis=0)
    assert np.allclose(com, 0.0, atol=1e-14)


@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.05, max_value=3.0),
)
def test_closure_com_identity_everywhere(r3, r5):
    if not in_domain((r3, r5)):
        return
    s = close_center_of_mass(FreePoint(r3, r5))
    com = positions(s).sum(axis=0)
    scale = max(1.0, abs(r3), abs(r5))
    assert np.all(np.abs(com) < 1e-12 * scale)


def test_pentagon_distances():
    s = close_center_of_mass(FreePoint(1.0, 1.0))
    d = mutual_distances(positions(s))
    side = 2.0 * math.sin(math.pi / 5.0)
    diag = 2.0 * math.sin(2.0 * math.pi / 5.0)
    assert d[0, 1] == pytest.approx(side, rel=1e-15)
    assert d[0, 2] == pytest.approx(diag, rel=1e-15)
    assert d[1, 4] == pytest.approx(diag, rel=1e-15)
    assert d[4, 0] == pytest.approx(side, rel=1e-15)
    # symmetry of the distance matrix
    assert np.allclose(d, d.T)


def test_domain_membership():
    assert in_domain((1.0, 1.0))
    assert in_domain((0.1, 0.1))
    assert not in_domain((3.0, 0.1))     # r2, r4 close negative
    assert not in_domain((-1.0, 1.0))
    assert not in_domain((1.0, 0.0))


def test_outside_domain_raises():
    with pytest.raises(DomainError):
        close_center_of_mass(FreePoint(3.0, 0.1))


def test_collision_detected():
    stacked = np.zeros((5, 2))
    stacked[0] = (1.0, 0.0)
    with pytest.raises(geometry.CollisionError):
        mutual_distances(stacked)


@given(
    st.floats(min_value=0.01, max_value=4.0),
    st.floats(min_value=0.01, max_value=4.0),
)
def test_in_domain_iff_closure_radii_positive(r3, r5):
    member = in_domain((r3, r5))
    assert member == (closure_r2(r3, r5) > 0.0 and closure_r4(r3, r5) > 0.0)


# ---------------------------------------------------------------------------
# quasi_points: the R2 sequence behind scans and audits


def test_quasi_points_shape_and_range():
    pts = quasi_points(1000, 0)
    assert pts.shape == (1000, 2)
    assert pts.min() >= 0.0 and pts.max() < 1.0
    assert quasi_points(0, 0).shape == (0, 2)


def test_quasi_points_are_seeded():
    assert np.array_equal(quasi_points(500, 3), quasi_points(500, 3))
    assert not np.array_equal(quasi_points(500, 3), quasi_points(500, 4))


def test_quasi_points_longer_run_extends_shorter():
    # grid_scan relies on this: more starts only add starts
    for seed in (0, 5, 7, 11):
        assert np.array_equal(quasi_points(800, seed)[:200], quasi_points(200, seed))


@pytest.mark.parametrize("seed", range(5))
def test_quasi_points_fill_a_grid_evenly(seed):
    pts = quasi_points(4096, seed)
    counts, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=16,
                                  range=[[0.0, 1.0], [0.0, 1.0]])
    # 16 expected per cell; i.i.d. uniform points would stray much further
    assert counts.min() >= 12 and counts.max() <= 20


_NO_SCIPY_SCRIPT = """
import sys
import starcc
import starcc.cli
from starcc.certify import (certify_inequality, certify_local_uniqueness,
                            verify_certificate, verify_local_certificate)
from starcc.regions import partition_audit
from starcc.solver import grid_scan

partition_audit(2000)
grid_scan(((0.8, 1.2), (0.8, 1.2)), 64)
verify_certificate(certify_inequality("J5", max_box_width=0.1))
verify_local_certificate(certify_local_uniqueness())
print(" ".join(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_pipeline_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(geometry.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
