import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from starcc import geometry
from starcc.forces import NearZeroDenominator, residual_vector
from starcc.geometry import A, B, DomainError, quasi_points
from starcc.kernel import (
    FloatBackend,
    coordinate,
    derived_radii,
    dist2,
    in_domain,
    lambda_quot,
    local_gaps,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _radii(r3, r5):
    return derived_radii(FloatBackend, r3, r5)


def _centroid(r3, r5):
    radii = _radii(r3, r5)
    return [sum(coordinate(FloatBackend, radii, i, k) for i in range(1, 6))
            for k in (1, 2)]


def test_golden_constants():
    assert A == math.sqrt(5.0) + 1.0
    assert B == math.sqrt(5.0) - 1.0
    assert A * B == pytest.approx(4.0, rel=1e-15)
    assert A / 2.0 == pytest.approx(GOLDEN, rel=1e-15)
    assert 2.0 / B == pytest.approx(GOLDEN, rel=1e-15)


def test_closure_matches_hand_values():
    # r2 = 1 + (a/2)(r5 - r3), r4 = (a/2)(1 - r3) + r5
    _, r2, _, r4, _ = _radii(1.3, 0.8)
    assert r2 == pytest.approx(0.19098300562505255, rel=1e-15)
    assert r4 == pytest.approx(0.3145898033750315, rel=1e-15)
    assert _radii(1.0, 1.0) == (1.0, 1.0, 1.0, 1.0, 1.0)


def test_close_center_of_mass_zeroes_the_centroid():
    assert np.allclose(_centroid(1.17, 0.93), 0.0, atol=1e-14)


@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.05, max_value=3.0),
)
def test_closure_com_identity_everywhere(r3, r5):
    if not in_domain((r3, r5)):
        return
    scale = max(1.0, abs(r3), abs(r5))
    assert np.all(np.abs(_centroid(r3, r5)) < 1e-12 * scale)


def test_pentagon_distances():
    radii = _radii(1.0, 1.0)
    d = {(i, j): math.sqrt(dist2(FloatBackend, radii, i, j))
         for i in range(1, 6) for j in range(1, 6)}
    side = 2.0 * math.sin(math.pi / 5.0)
    diag = 2.0 * math.sin(2.0 * math.pi / 5.0)
    assert d[1, 2] == pytest.approx(side, rel=1e-15)
    assert d[1, 3] == pytest.approx(diag, rel=1e-15)
    assert d[2, 5] == pytest.approx(diag, rel=1e-15)
    assert d[5, 1] == pytest.approx(side, rel=1e-15)
    # symmetry of the distances
    assert all(d[i, j] == d[j, i] for i, j in d)


def test_domain_membership():
    assert in_domain((1.0, 1.0))
    assert in_domain((0.1, 0.1))
    assert not in_domain((3.0, 0.1))     # r2, r4 close negative
    assert not in_domain((-1.0, 1.0))
    assert not in_domain((1.0, 0.0))
    # r5 = inf closes to r2 = r4 = inf > 0, and is still outside S
    for p in ((1.0, math.inf), (math.inf, 1.0), (math.inf, math.inf), (1.0, math.nan)):
        assert not in_domain(p)
    assert not np.any(in_domain((np.array([1.0, np.inf]), np.array([np.inf, 1.0]))))


@given(
    st.floats(min_value=0.01, max_value=4.0),
    st.floats(min_value=0.01, max_value=4.0),
)
def test_in_domain_iff_closure_radii_positive(r3, r5):
    member = in_domain((r3, r5))
    _, r2, _, r4, _ = _radii(r3, r5)
    assert member == (r2 > 0.0 and r4 > 0.0)


def _slant_neighbours():
    """Points within two ulps of r5 on both slant lines, r2 = 0 (r5 = r3 -
    b/2) and r4 = 0 (r5 = (a/2)(r3 - 1)); the printed slant inequalities
    and the closure radii disagree on many of them."""
    r3 = np.concatenate([np.linspace(0.7, 3.0, 97), np.linspace(1.05, 3.0, 97)])
    r5 = np.concatenate([r3[:97] - B / 2.0, (A / 2.0) * (r3[97:] - 1.0)])
    steps = [r5]
    for _ in range(2):
        steps = [np.nextafter(steps[0], -np.inf)] + steps + [np.nextafter(steps[-1], np.inf)]
    return np.tile(r3, len(steps)), np.concatenate(steps)


def test_in_domain_agrees_with_the_float_evaluation_next_to_the_slant_lines():
    r3, r5 = _slant_neighbours()
    member = in_domain((r3, r5))
    # both sides of both lines occur, so the test discriminates
    assert 0 < member.sum() < member.size
    for a, b, m in zip(r3.tolist(), r5.tolist(), member.tolist()):
        assert in_domain((a, b)) == m
        try:
            residual_vector((a, b))
            raised = False
        except DomainError:
            raised = True
        except NearZeroDenominator:  # q_21 or q_42 ~ 0 inside S
            raised = False
        assert m == (not raised), (a, b)


def test_in_domain_on_arrays_matches_scalar_calls():
    pts = quasi_points(2000, 1) * 4.0 - 0.5
    member = in_domain((pts[:, 0], pts[:, 1]))
    assert member.dtype == bool and member.shape == (2000,)
    assert member.tolist() == [bool(in_domain((a, b))) for a, b in pts.tolist()]
    assert 0 < member.sum() < member.size


# ---------------------------------------------------------------------------
# quasi_points: the R2 sequence behind scans and audits


def test_quasi_points_shape_and_range():
    pts = quasi_points(1000, 0)
    assert pts.shape == (1000, 2)
    assert pts.min() >= 0.0 and pts.max() < 1.0
    assert quasi_points(0, 0).shape == (0, 2)


@pytest.mark.parametrize("n", [10.5, 10.0, True, "10"], ids=["fraction", "float", "bool", "str"])
def test_quasi_points_refuse_a_count_that_is_not_an_integer(n):
    # 10.5 used to give 10 points, and True one
    with pytest.raises(ValueError, match="integer"):
        quasi_points(n, 0)
    assert quasi_points(np.int64(3), 0).shape == (3, 2)


def test_quasi_points_are_seeded():
    assert np.array_equal(quasi_points(500, 3), quasi_points(500, 3))
    assert not np.array_equal(quasi_points(500, 3), quasi_points(500, 4))


def test_quasi_points_longer_run_extends_shorter():
    # grid_scan relies on this: more starts only add starts
    for seed in (0, 5, 7, 11):
        assert np.array_equal(quasi_points(800, seed)[:200], quasi_points(200, seed))


# seeds whose entropy is wider than one 32-bit word
_WIDE_SEEDS = (2**32, 2**64 + 5, 2**100 + 3)


def test_seed_shift_is_default_rngs_draw_bit_for_bit():
    # numpy.random is the oracle of the stdlib shift; no starcc path loads it
    for seed in (*range(1000), *_WIDE_SEEDS):
        assert geometry._seed_shift(seed) == np.random.default_rng(seed).random(2).tolist(), seed
    for seed in (np.int64(0), np.int64(7), np.int64(2**62 + 1)):
        assert geometry._seed_shift(int(seed)) == np.random.default_rng(seed).random(2).tolist()
        assert quasi_points(3, seed).tobytes() == quasi_points(3, int(seed)).tobytes()


# SHA-256 of quasi_points(100_000, seed).tobytes(), taken when the shift was
# drawn from np.random.default_rng and the points built as one expression
_QUASI_PINS = {
    0: "dd85542604264ffe89f8995ce7d943445f6536e889c6372550cc4a30fd23e172",
    1: "f89d75b60906747f3edf1d039c2c1dbf34633ff19eb8a6396e084422f0480cd0",
    3: "a5288569c36504c9bc2d4d7a892ef8176fe9f56082e901ff0bbc9e663a8b6afc",
}


@pytest.mark.parametrize("seed", sorted(_QUASI_PINS))
def test_quasi_points_bits_are_pinned(seed):
    pts = quasi_points(100_000, seed)
    assert pts.flags.c_contiguous
    assert hashlib.sha256(pts.tobytes()).hexdigest() == _QUASI_PINS[seed]


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


# module -> (the starcc modules a fresh import of it loads, exactly, or
# None; the modules it must not load).  The package itself imports nothing,
# so a module's import closure is its own dependency graph.
_IMPORT_CLOSURES = {
    "starcc": ({"starcc"}, {"numpy"}),
    "geometry": ({"starcc", "starcc.geometry"}, {"numpy"}),
    "intervals": ({"starcc", "starcc.intervals"}, set()),
    "kernel": ({"starcc", "starcc.geometry", "starcc.kernel"}, {"numpy"}),
    "forces": (None, set()),
    "regions": (None, set()),
    "pool": (None, set()),
    "solver": (None, {"starcc.certify", "starcc.regions"}),
    "certify": (None, {"starcc.solver"}),
    "cli": (None, set()),
}


def _fresh(code: str):
    """Run code in a fresh interpreter that imports this starcc; return
    its stdout."""
    src = os.path.dirname(os.path.dirname(geometry.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", sorted(_IMPORT_CLOSURES))
def test_each_module_imports_in_a_fresh_process(module):
    # an in-process test imports starcc once for the whole session, which
    # can hide an import cycle that a first import of one module trips
    name = module if module == "starcc" else f"starcc.{module}"
    out = _fresh(f"import sys, {name}; print(*sorted(sys.modules))")
    loaded = set(out.split())
    exactly, never = _IMPORT_CLOSURES[module]
    if exactly is not None:
        assert {m for m in loaded if m.split(".")[0] == "starcc"} == exactly
    assert not loaded & never, sorted(loaded & never)


def test_the_kernel_evaluates_with_numpy_blocked():
    # the trusted base of a stdlib checker: with every import of numpy
    # failing, the kernel evaluates F at the pentagon and one lambda on
    # plain floats, to the bits this process gets; _IMPORT_CLOSURES checks
    # imports only, so a lazy `import numpy` in a kernel function fails here
    out = _fresh('import sys; sys.modules["numpy"] = None\n'
                 "from starcc.kernel import FloatBackend, lambda_quot, local_gaps\n"
                 "print(*(x.hex() for x in (*local_gaps(FloatBackend, 1.0, 1.0),"
                 " lambda_quot(FloatBackend, 0.7, 1.3, 3, 1))))")
    want = (*local_gaps(FloatBackend, 1.0, 1.0), lambda_quot(FloatBackend, 0.7, 1.3, 3, 1))
    assert out.split() == [x.hex() for x in want]


def test_scan_and_audit_load_no_numpy_random():
    # numpy.random costs a fresh process about 5.6 MB and 12 ms to import
    out = _fresh("import sys\n"
                 "from starcc.regions import partition_audit\n"
                 "from starcc.solver import grid_scan\n"
                 "grid_scan(((0.2, 3.0), (0.2, 3.0)), 2000)\n"
                 "partition_audit(1000)\n"
                 "print(*sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    assert out.split() == []
