import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from starcc.certify import (
    FORMAT_VERSION,
    BudgetExhausted,
    Certificate,
    CertificationRefuted,
    ContractionFailure,
    CoverageGap,
    LeafBoundViolation,
    LocalUniquenessCertificate,
    MalformedCertificate,
    RunConfig,
    _batch_bounds,
    _bisect,
    _contraction_evidence,
    _hex_bytes,
    _replay,
    build_fingerprint,
    certify_all,
    certify_inequality,
    certify_local_uniqueness,
    verify_certificate,
    verify_local_certificate,
)
from starcc.intervals import Box2, DualBackend, dual_vars
from starcc import certify, kernel, pool, regions
from starcc.regions import PairCheck, RegionPlan, cover_arrays, region_def, region_plan


@pytest.fixture(scope="module")
def j4_cert():
    return certify_inequality("J4", max_box_width=0.05)


@pytest.fixture(scope="module")
def j9_cert():
    return certify_inequality("J9", max_box_width=0.1, truncation=10.0)


@pytest.fixture(scope="module")
def local_cert():
    return certify_local_uniqueness()


def test_j4_certificate_shape(j4_cert):
    assert j4_cert.region == "J4"
    assert j4_cert.n_leaves() == 46
    assert j4_cert.min_bound == pytest.approx(1.0454212771322322, rel=1e-12)
    assert np.all(j4_cert.bounds > 0.0)
    assert j4_cert.min_bound == j4_cert.bounds.min()
    assert j4_cert.truncation is None
    assert j4_cert.excluded is None  # J4 does not touch B0


def test_truncation_recorded(j9_cert):
    assert j9_cert.truncation == 10.0
    assert j9_cert.excluded == (0.98, 1.02, 0.98, 1.02)
    assert np.all(j9_cert.bounds > 0.0)


def test_certificates_verify(j4_cert, j9_cert):
    assert verify_certificate(j4_cert)
    assert verify_certificate(j9_cert)


def test_certification_is_deterministic(j4_cert):
    again = certify_inequality("J4", max_box_width=0.05)
    a, b = json.loads(again.to_json()), json.loads(j4_cert.to_json())
    a["stats"].pop("wall_seconds")
    b["stats"].pop("wall_seconds")
    assert a == b


def test_payload_round_trip(j4_cert):
    payload = json.loads(j4_cert.to_json())
    assert payload["format"] == FORMAT_VERSION
    back = Certificate.from_payload(payload)
    assert back.to_json() == j4_cert.to_json()
    assert verify_certificate(back)


def test_leaves_are_sorted_canonically(j4_cert):
    order = np.lexsort((j4_cert.hi5, j4_cert.lo5, j4_cert.hi3, j4_cert.lo3))
    assert np.array_equal(order, np.arange(j4_cert.n_leaves()))


def test_tampered_bound_is_rejected(j4_cert):
    payload = json.loads(j4_cert.to_json())
    row = payload["leaves"][3]
    row[5] = (float.fromhex(row[5]) * 1.5).hex()
    bad = Certificate.from_payload(payload)
    with pytest.raises((LeafBoundViolation, ValueError)):
        verify_certificate(bad)


def test_dropped_leaf_breaks_coverage(j9_cert):
    payload = json.loads(j9_cert.to_json())
    del payload["leaves"][10]
    # min_bound might still match, so recompute it honestly
    payload["min_bound"] = min(float.fromhex(r[5]) for r in payload["leaves"]).hex()
    bad = Certificate.from_payload(payload)
    with pytest.raises(CoverageGap):
        verify_certificate(bad)


def test_wrong_fingerprint_is_rejected(j4_cert):
    payload = json.loads(j4_cert.to_json())
    payload["fingerprint"] = "0" * 64
    bad = Certificate.from_payload(payload)
    with pytest.raises(ValueError):
        verify_certificate(bad)


def test_truncated_payload_is_malformed(j4_cert):
    payload = json.loads(j4_cert.to_json())
    del payload["leaves"]
    with pytest.raises(MalformedCertificate):
        Certificate.from_payload(payload)


def test_reversed_orientation_refutes():
    plan = region_plan("J3")
    flipped = RegionPlan(
        region=plan.region,
        main=PairCheck(low=plan.main.high, high=plan.main.low),
    )
    with pytest.raises(CertificationRefuted):
        certify_inequality("J3", max_box_width=0.1, plan=flipped)


def test_tiny_budget_exhausts():
    with pytest.raises(BudgetExhausted):
        certify_inequality("J7", max_box_width=0.05, max_depth=2)


def test_grid_beyond_the_box_cap_is_refused_before_it_is_built():
    # a far cut or a tiny width would ask numpy for a meshgrid of gigabyte
    # size; an infinite cut is out of the range rule before cells count
    with pytest.raises(BudgetExhausted, match="cells"):
        certify_inequality("J15", max_box_width=0.1, truncation=1e7)
    with pytest.raises(ValueError, match="finite"):
        certify_inequality("J15", max_box_width=0.1, truncation=math.inf)
    with pytest.raises(BudgetExhausted, match="cells"):
        certify_inequality("J7", max_box_width=1e-5)


def test_truncation_at_or_below_the_floor_is_refused():
    # J15 starts at r5 = 3.036 and J10 at 1 + b
    for rid, t in (("J15", 2.0), ("J15", 3.036), ("J10", 2.0)):
        with pytest.raises(ValueError, match="empty"):
            certify_inequality(rid, max_box_width=0.1, truncation=t)
    with pytest.raises(ValueError, match="finite"):
        certify_inequality("J9", max_box_width=0.1, truncation=math.nan)


@pytest.mark.parametrize("kwargs", [
    {"max_box_width": -1.0},
    {"max_box_width": 0.7},
    {"delta": 0.6},
], ids=["width-negative", "width-0.7", "delta-0.6"])
def test_certifier_refuses_a_header_the_verifier_rejects(monkeypatch, kwargs):
    # verify_certificate rejects each of these headers as malformed, so
    # the certifier must refuse them before it builds a grid
    def no_grid(*args, **kw):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(certify, "cover_arrays", no_grid)
    with pytest.raises(ValueError):
        certify_inequality("J13", **kwargs)


def test_certificate_truncated_below_the_floor_is_malformed(monkeypatch):
    # a genuine J15 certificate whose header claims the cut r5 <= 2
    payload = json.loads(certify_inequality("J15", 0.1, truncation=10.0).to_json())
    payload["truncation"] = (2.0).hex()
    with pytest.raises(MalformedCertificate, match="truncation"):
        verify_certificate(Certificate.from_payload(payload))
    # the certificate an unchecked bbox writes: sorted edges turn J15's
    # r5 range [3.036, 2] into [2, 3.036], whose boxes only touch J15;
    # _hull is bbox without its emptiness check, on the row's own edges
    with monkeypatch.context() as m:
        m.setattr(regions.Region, "bbox", regions.Region._hull)
        forged = certify_inequality("J15", 0.1, truncation=2.0)
    assert forged.n_leaves() > 0 and forged.hi5.max() <= 3.036
    with pytest.raises(MalformedCertificate, match="truncation"):
        verify_certificate(Certificate.from_payload(json.loads(forged.to_json())))


def test_no_excision_fails_next_to_the_solution():
    with pytest.raises(BudgetExhausted) as err:
        certify_inequality("J16", max_box_width=0.05, delta=0.0, max_depth=8)
    assert "unresolved" in str(err.value)


@pytest.fixture(scope="module")
def j16_cert():
    return certify_inequality("J16", max_box_width=0.05)


def test_j16_single_pair_certifies_with_margin(j16_cert):
    # one pair on all of J16: the paper's four-strip plan needed depth 35
    # and min gap 1.6e-8 at this width
    assert j16_cert.plan == "J16{main=lambda_31 < lambda_11}"
    assert set(j16_cert.forms.tolist()) <= {"q", "c"}
    assert j16_cert.stats["max_depth"] <= 16
    assert j16_cert.min_bound > 1e-7
    assert verify_certificate(j16_cert)


def test_leaf_with_a_y1_form_is_rejected(j16_cert):
    # a |y1| statement is not a form any plan certifies
    payload = json.loads(j16_cert.to_json())
    payload["leaves"][0][4] = "y+"
    with pytest.raises(LeafBoundViolation):
        verify_certificate(Certificate.from_payload(payload))


def test_cleared_denominator_form_used_on_collision_edge():
    # J1 touches r3 = 0 where q_31 straddles zero: some leaves must carry
    # the cleared-denominator form, and they verify bit-exactly too.
    cert = certify_inequality("J1", max_box_width=0.05)
    forms = set(cert.forms.tolist())
    assert "c" in forms and "q" in forms
    assert verify_certificate(cert)


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def test_certificate_bytes_are_pinned(j4_cert, local_cert):
    # any change to a leaf, a bound, a form, the leaf order or the
    # fingerprint changes these digests
    payload = j4_cert.to_payload()
    del payload["stats"]  # wall time varies
    assert _sha256(payload) == (
        "31e8ed45a5a8cb2b26037dab157923f37818894d8f980b09b978609078127d5d"
    )
    assert _sha256(local_cert.to_payload()["annulus"]) == (
        "97b00e2e0e8f76563b909867b27867a56807f0d50955a6d7d4ffb8c6af561bfa"
    )


# ---------------------------------------------------------------------------
# the leaf writer: to_json must be json.dumps(to_payload()) byte for byte,
# so the pins above also pin the bytes a certificate file holds

_SUBNORMAL_MIN = 5e-324
_SUBNORMAL_MAX = math.nextafter(2.2250738585072014e-308, 0.0)
_HEX_EDGES = [
    0.0, -0.0, _SUBNORMAL_MIN, -_SUBNORMAL_MIN, _SUBNORMAL_MAX, -_SUBNORMAL_MAX,
    2.2250738585072014e-308, -2.2250738585072014e-308,  # DBL_MIN, p-1022
    1.7976931348623157e308, -1.7976931348623157e308,  # DBL_MAX, p+1023
    math.inf, -math.inf, math.nan, -math.nan,
    1.0, -1.0, 0.5, 1.5, 2.0 ** -7, 2.0 ** 9, 3.0 ** -40, 3.0 ** 40,  # 1-2 digits
    2.0 ** -100, 7.0 ** 200, 2.0 ** -999, 2.0 ** 1000, 0.1, -0.02,  # 3-4 digits
]


def _hex_mismatch(x):
    """None if _hex_bytes(x), pad bytes dropped, spells float.hex() of
    every lane; else the first lane that differs (a short message, so
    that a failure on 10^6 lanes does not diff megabytes)."""
    x = np.asarray(x, dtype=float)
    m = _hex_bytes(x)
    m = np.concatenate([m, np.full((m.shape[0], 1), ord("\n"), np.uint8)], axis=1)
    got = m[m != 0].tobytes().decode("ascii").split("\n")[:-1]
    want = [float(v).hex() for v in x.tolist()]
    if got == want:
        return None
    if len(got) != len(want):
        return f"{len(got)} lanes for {len(want)}"
    j = next(j for j, (g, w) in enumerate(zip(got, want)) if g != w)
    return f"lane {j}: {got[j]!r} != float.hex() {want[j]!r}"


def _text_mismatch(got: str, want: str):
    """None if equal, else where the two texts first differ."""
    if got == want:
        return None
    j = next((j for j, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
    k = max(j - 40, 0)
    return f"byte {j}: {got[k:j + 40]!r} != {want[k:j + 40]!r}"


@pytest.mark.parametrize("value", _HEX_EDGES, ids=repr)
def test_hex_encoder_matches_float_hex_on_one_lane(value):
    assert _hex_mismatch([value]) is None


def test_hex_encoder_matches_float_hex_on_odd_lengths():
    for n in (3, 7, 2 * (len(_HEX_EDGES) // 2) - 1):
        x = np.array(_HEX_EDGES[:n])
        assert _hex_mismatch(x) is None
        assert _hex_mismatch(x[::-1]) is None


def test_hex_encoder_matches_float_hex_on_every_exponent():
    rng = np.random.default_rng(7)
    biased = np.arange(2048, dtype=np.uint64)
    mantissa = rng.integers(0, 2**52, size=2048, dtype=np.uint64)
    sign = rng.integers(0, 2, size=2048, dtype=np.uint64) << np.uint64(63)
    x = (sign | (biased << np.uint64(52)) | mantissa).view(np.float64)
    assert _hex_mismatch(x) is None


def test_hex_encoder_matches_float_hex_on_random_bit_patterns():
    rng = np.random.default_rng(20)
    x = rng.integers(0, 2**64, size=10**6, dtype=np.uint64).view(np.float64)
    assert _hex_mismatch(x) is None


@pytest.fixture(scope="module")
def zero_edge_certs():
    """Certificates whose leaves touch r3 = 0: the writer copies those
    endpoints from float.hex() one by one."""
    return [
        certify_inequality("J1", max_box_width=0.1),
        certify_inequality("J2", max_box_width=0.1),
        certify_inequality("J9", max_box_width=0.1, truncation=10.0),
    ]


def test_to_json_is_json_dumps_of_the_payload(zero_edge_certs, j4_cert, local_cert):
    assert [int(np.count_nonzero(c.lo3 == 0.0)) for c in zero_edge_certs] == [7, 4, 91]
    j15 = certify_inequality("J15", max_box_width=0.1, truncation=10.0)
    for cert in zero_edge_certs + [j15, j4_cert, local_cert]:
        assert _text_mismatch(cert.to_json(), json.dumps(cert.to_payload())) is None


@pytest.mark.parametrize("label", ['"', "\\", "\u00e9", "\x01", "\x00q"], ids=repr)
def test_to_json_of_a_label_that_needs_escaping(j4_cert, label):
    payload = j4_cert.to_payload()
    payload["leaves"][3][4] = label
    cert = Certificate.from_payload(payload)
    assert cert.forms[3] == label
    text = cert.to_json()
    assert _text_mismatch(text, json.dumps(cert.to_payload())) is None
    assert json.loads(text)["leaves"][3][4] == label


def test_fingerprint_is_stable():
    assert build_fingerprint() == (
        "26ebe8b5faeb0f20b248023b22b474ddd42fdd50ac5b14048e9d3bb59f078389"
    )


# ---------------------------------------------------------------------------
# coverage replay: the leaves must be exactly the terminal boxes of a
# bisection of the cover the header implies


@pytest.fixture(scope="module")
def j5_cert():
    return certify_inequality("J5", max_box_width=0.1)


def _with_rows(cert, edit):
    """Certificate whose leaf rows are edit(rows), min_bound kept honest."""
    payload = json.loads(cert.to_json())
    payload["leaves"] = edit(payload["leaves"])
    payload["min_bound"] = min(float.fromhex(r[5]) for r in payload["leaves"]).hex()
    return Certificate.from_payload(payload)


def test_replay_needs_bisection_below_the_initial_cover(j5_cert):
    # the single-leaf drops below only test the replay if some leaf is a
    # bisected child, not an initial cell
    assert j5_cert.stats["max_depth"] > 0
    assert j5_cert.n_leaves() > j5_cert.stats["boxes_initial"]


def test_every_single_leaf_deletion_is_a_coverage_gap(j5_cert):
    for j in range(j5_cert.n_leaves()):
        bad = _with_rows(j5_cert, lambda rows: rows[:j] + rows[j + 1:])
        with pytest.raises(CoverageGap):
            verify_certificate(bad)


def test_duplicated_leaf_is_a_coverage_gap(j5_cert):
    bad = _with_rows(j5_cert, lambda rows: rows[:4] + [rows[3]] + rows[4:])
    with pytest.raises(CoverageGap, match="shares its terminal box"):
        verify_certificate(bad)


@pytest.mark.parametrize("edge", [0, 1, 2, 3])
def test_leaf_edge_moved_by_one_ulp_is_a_coverage_gap(j5_cert, edge):
    def nudge(rows):
        row = rows[7]
        toward = math.inf if edge % 2 == 0 else -math.inf  # shrink the leaf
        row[edge] = math.nextafter(float.fromhex(row[edge]), toward).hex()
        return rows

    payload = json.loads(j5_cert.to_json())
    payload["leaves"] = nudge(payload["leaves"])
    # re-sign the nudged leaf honestly so only coverage can object
    bad = Certificate.from_payload(payload)
    plan = region_plan("J5")
    lo, _, form = _batch_bounds(plan, bad.lo3, bad.hi3, bad.lo5, bad.hi5)
    bad.bounds, bad.forms = lo, form
    bad.min_bound = float(lo.min())
    with pytest.raises(CoverageGap):
        verify_certificate(bad)


def test_extra_leaf_outside_the_closure_is_a_coverage_gap(j4_cert):
    # J4's slanted edge makes the bisection drop some children of the
    # uncertified initial cells; a leaf on one of them is a stray
    reg = region_def("J4")
    cover = cover_arrays("J4", 0.05, None, None)
    leaves = (j4_cert.lo3, j4_cert.hi3, j4_cert.lo5, j4_cert.hi5)
    cells = set(zip(*leaves))
    split = np.array([cell not in cells for cell in zip(*cover)])
    children = _bisect(*(a[split] for a in cover))
    dropped = reg.boxes_outside_closure(*children)
    assert dropped.any()
    j = int(np.flatnonzero(dropped)[0])
    _replay(cover, leaves, reg.boxes_outside_closure, "J4")
    extra = tuple(np.append(a, c[j]) for a, c in zip(leaves, children))
    with pytest.raises(CoverageGap, match="drops as outside"):
        _replay(cover, extra, reg.boxes_outside_closure, "J4")


@pytest.mark.parametrize("field, value", [
    ("max_box_width", (1e-6).hex()),  # a grid far larger than the leaf set
    ("truncation", (10.0).hex()),     # J4 is bounded
    ("excluded", [(0.9).hex(), (1.1).hex(), (0.9).hex(), (1.1).hex()]),
])
def test_header_that_the_certifier_cannot_write_is_malformed(j4_cert, field, value):
    payload = json.loads(j4_cert.to_json())
    payload[field] = value
    with pytest.raises(MalformedCertificate, match=field):
        verify_certificate(Certificate.from_payload(payload))


@pytest.mark.parametrize("field, value", [
    ("inner_delta", (0.03).hex()),  # wider than the window
    ("subdivision", 10**6),         # 10^12 Jacobian lanes
    ("inner_delta", (0.001).hex()),  # the construction is fixed
    ("subdivision", 4),
    ("delta", (0.002).hex()),       # no annulus left
])
def test_local_header_out_of_range_is_malformed(local_cert, field, value):
    payload = json.loads(local_cert.to_json())
    payload[field] = value
    with pytest.raises(MalformedCertificate, match=field):
        verify_local_certificate(LocalUniquenessCertificate.from_payload(payload))


@pytest.mark.parametrize("field, pad", [
    ("center", lambda v: v + ["garbage"]),
    ("f_center", lambda v: [row + ["garbage"] for row in v]),
    ("det_jacobian", lambda v: v + [v[-1]]),
], ids=["center", "f_center", "det_jacobian"])
def test_padded_local_header_is_malformed(local_cert, field, pad):
    # every interval entry is exactly a [lo, hi] pair of hex floats
    payload = json.loads(local_cert.to_json())
    payload[field] = pad(payload[field])
    with pytest.raises(MalformedCertificate):
        verify_local_certificate(LocalUniquenessCertificate.from_payload(payload))


def test_dropped_annulus_leaf_is_a_coverage_gap(local_cert):
    payload = json.loads(local_cert.to_json())
    del payload["annulus"][1234]
    bad = LocalUniquenessCertificate.from_payload(payload)
    with pytest.raises(CoverageGap, match="annulus"):
        verify_local_certificate(bad)


# ---------------------------------------------------------------------------
# local uniqueness


def test_local_certificate_contracts(local_cert):
    lc = local_cert
    assert lc.delta == 0.02
    assert lc.containment_margin > 0.0
    assert lc.containment_margin == pytest.approx(0.0016354039811699028, rel=1e-9)
    lo, hi = lc.det_jacobian
    assert lo > 0.0  # interval Jacobian certainly nonsingular
    assert lc.posteriori_residual < 1e-10
    assert lc.ann_lo3.size == 4276
    assert np.all(lc.ann_bound > 0.0)


def test_local_certificate_verifies(local_cert):
    assert verify_local_certificate(local_cert)


def test_local_certificate_round_trip(local_cert):
    payload = json.loads(local_cert.to_json())
    back = LocalUniquenessCertificate.from_payload(payload)
    assert back.to_json() == local_cert.to_json()
    assert verify_local_certificate(back)


def test_local_tampered_annulus_is_rejected(local_cert):
    payload = json.loads(local_cert.to_json())
    row = payload["annulus"][100]
    row[4] = "2+" if row[4] != "2+" else "1-"
    bad = LocalUniquenessCertificate.from_payload(payload)
    with pytest.raises((LeafBoundViolation, ValueError)):
        verify_local_certificate(bad)


def test_local_tampered_margin_is_rejected(local_cert):
    payload = json.loads(local_cert.to_json())
    payload["containment_margin"] = (local_cert.containment_margin * 2.0).hex()
    bad = LocalUniquenessCertificate.from_payload(payload)
    with pytest.raises((LeafBoundViolation, ValueError)):
        verify_local_certificate(bad)


def test_local_forged_center_is_rejected(local_cert):
    payload = json.loads(local_cert.to_json())
    payload["center"] = [(1.5).hex(), (0.5).hex()]
    bad = LocalUniquenessCertificate.from_payload(payload)
    with pytest.raises(MalformedCertificate, match="center"):
        verify_local_certificate(bad)


def test_local_forged_pair_map_is_rejected(local_cert):
    payload = json.loads(local_cert.to_json())
    payload["pair_map"] = ["lambda_11 - lambda_31", "lambda_11 - lambda_22"]
    bad = LocalUniquenessCertificate.from_payload(payload)
    with pytest.raises(MalformedCertificate, match="pair_map"):
        verify_local_certificate(bad)


def test_lane_jacobian_equals_hull_of_scalar_jets(local_cert):
    # the 8x8 sub-box Jacobian runs as one VInterval-lane call; it must
    # reproduce the hull of the 64 one-box local_gaps jet calls bit for bit
    n, d = local_cert.subdivision, local_cert.inner_delta
    edges = np.linspace(1.0 - d, 1.0 + d, n + 1)
    hull = [[None, None], [None, None]]
    for i in range(n):
        for j in range(n):
            sub = Box2.from_bounds(edges[i], edges[i + 1], edges[j], edges[j + 1])
            for r, g in enumerate(kernel.local_gaps(DualBackend(), *dual_vars(sub))):
                for c, dv in enumerate((g.d3, g.d5)):
                    h = hull[r][c]
                    hull[r][c] = (dv.lo, dv.hi) if h is None else (
                        np.minimum(h[0], dv.lo), np.maximum(h[1], dv.hi))
    scalar = [[(float(lo).hex(), float(hi).hex()) for lo, hi in row] for row in hull]
    lanes = _contraction_evidence(d, n)["jacobian"]
    assert [[(lo.hex(), hi.hex()) for lo, hi in row] for row in lanes] == scalar
    assert lanes == local_cert.jacobian


def test_local_rejects_out_of_range_delta():
    with pytest.raises(Exception):
        certify_local_uniqueness(delta=0.9)


# ---------------------------------------------------------------------------
# the full bundle


@pytest.fixture(scope="module")
def manifest_two_threads():
    # two CPUs, so that the two workers run on a process pool on any machine
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "cpu_count", lambda: 2)
        return certify_all(RunConfig(max_box_width=0.1, threads=2))


def test_certify_all_summary(manifest_two_threads):
    manifest = manifest_two_threads
    assert manifest.verdict == "UNIQUE-IN-WINDOW"
    assert set(manifest.certificates) == {f"J{i}" for i in range(1, 17)}
    for cert in manifest.certificates.values():
        assert cert.min_bound > 0.0
    assert manifest.solution_witness["is_solution"]
    assert manifest.solution_witness["gap_enclosures_contain_zero"]
    summary = manifest.summary_payload()
    assert summary["kind"] == "manifest"
    assert summary["regions"]["J4"]["min_bound"] > 0.0


def test_certify_all_is_independent_of_the_thread_count(manifest_two_threads):
    # regions are submitted largest first; the payloads and the manifest's
    # J1..J16 order must not show which thread ran what, or when
    one = certify_all(RunConfig(max_box_width=0.1, threads=1))
    two = manifest_two_threads

    def payloads(manifest):
        out = {}
        for rid, cert in manifest.certificates.items():
            p = cert.to_payload()
            p["stats"].pop("wall_seconds")
            out[rid] = p
        return out

    assert list(one.certificates) == list(two.certificates) == list(regions.REGION_IDS)
    assert list(two.summary_payload()["regions"]) == list(regions.REGION_IDS)
    assert payloads(one) == payloads(two)
    assert one.local.to_json() == two.local.to_json()


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(delta_b0=0.7).validate()
    with pytest.raises(ValueError):
        RunConfig(max_box_width=0.0).validate()
    with pytest.raises(ValueError):
        RunConfig(threads=0).validate()
    for truncation in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            RunConfig(truncation=truncation).validate()
    assert RunConfig(delta_b0=0.0).validate()  # explicit no-excision mode


# ---------------------------------------------------------------------------
# the process pool and the blocked lanes


def test_worker_count_is_capped_by_the_jobs_and_the_cpus(monkeypatch):
    # a fork-started pool starts every worker at once, so a huge --threads
    # must not become a huge number of processes; nothing is started here
    cpus = os.cpu_count() or 1
    assert pool._worker_count(10**6, 17) == min(17, cpus)
    assert pool._worker_count(1, 17) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert pool._worker_count(10**6, 17) == 17
    assert pool._worker_count(10**6, 0) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pool._worker_count(10**6, 17) == 1


def test_budget_exhausted_in_a_worker_matches_the_in_process_run(monkeypatch):
    # max_depth 0 leaves J1 (the first region in REGION_IDS order to need
    # a bisection) unresolved; the pool must raise what the serial run does
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    seen = []
    for threads in (1, 2):
        with pytest.raises(BudgetExhausted) as info:
            certify_all(RunConfig(max_box_width=0.1, max_depth=0, threads=threads))
        seen.append((type(info.value), str(info.value)))
    assert seen[0] == seen[1]
    assert seen[0][0] is BudgetExhausted
    assert seen[0][1].startswith("J1: ")


def _kill_own_worker(k):
    """A _fan_out job whose second instance kills the process running it."""
    if k == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return k


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool needs os.fork")
def test_fan_out_raises_broken_process_pool_when_a_worker_dies(monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers: a pool
    caught = []

    def run():
        try:
            list(pool._fan_out(_kill_own_worker, [(0,), (1,)], 2, lambda job: 0))
        except BaseException as exc:  # handed to the test thread below
            caught.append(exc)

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout=60)
    assert not t.is_alive(), "the pool hangs on a dead worker"
    assert len(caught) == 1 and isinstance(caught[0], BrokenProcessPool), caught


def _unblocked_bounds(plan, lo3, hi3, lo5, hi5):
    """_batch_bounds as one kernel call per check over all the lanes."""
    checks, cid = plan.route(lo3, hi3, lo5, hi5)
    lo, hi = np.empty(lo3.size), np.empty(lo3.size)
    form = np.empty(lo3.size, dtype="<U2")
    for k, chk in enumerate(checks):
        m = cid == k
        if np.any(m):
            lo[m], hi[m], form[m] = certify._pair_bounds(
                chk, lo3[m], hi3[m], lo5[m], hi5[m])
    return lo, hi, form


@pytest.mark.parametrize("rid", ["J15", "J1"])
@pytest.mark.parametrize("size", [
    certify._BLOCK - 1, certify._BLOCK, certify._BLOCK + 1, 3 * certify._BLOCK + 7,
], ids=["block-1", "block", "block+1", "3block+7"])
def test_blocked_bounds_equal_one_kernel_call(rid, size):
    cover = cover_arrays(rid, 0.02, 10.0, None)
    pick = np.resize(np.arange(cover[0].size), size)
    if rid == "J1":
        # J1's corner zone needs the cleared form: put its boxes on both
        # sides of every slice edge, and at the end
        zone = np.flatnonzero(_unblocked_bounds(region_plan(rid), *cover)[2] == "c")
        for edge in list(range(certify._BLOCK, size, certify._BLOCK)) + [size]:
            at = np.arange(max(edge - 3, 0), min(edge + 3, size))
            pick[at] = zone[: at.size]
    lanes = tuple(a[pick] for a in cover)
    got = _batch_bounds(region_plan(rid), *lanes)
    want = _unblocked_bounds(region_plan(rid), *lanes)
    for g, w in zip(got[:2], want[:2]):
        assert g.tobytes() == w.tobytes()
    assert np.array_equal(got[2], want[2])
    if rid == "J1":
        assert np.all(got[2][certify._BLOCK - 3 : certify._BLOCK + 3] == "c")


def test_importing_starcc_loads_no_pool_machinery():
    # the pool is imported by its first use; `import starcc` (and the
    # solver that `scan` runs) must not pay for it
    root = Path(__file__).resolve().parents[1]
    path = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = ("import sys, starcc, starcc.solver; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    p = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                       text=True, check=True, timeout=120)
    assert p.stdout.strip() == "[]"
