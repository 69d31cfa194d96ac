import gc
import hashlib
import json
import math
import mmap
import os
import re
import signal
import subprocess
import sys
import threading
import tracemalloc
from contextlib import suppress
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from starcc.certify import (
    FORMAT_VERSION,
    BudgetExhausted,
    Certificate,
    CertificationRefuted,
    ContractionFailure,
    CoverageGap,
    LocalUniquenessCertificate,
    MalformedCertificate,
    RunConfig,
    _batch_bounds,
    _contraction_evidence,
    _hex_bytes,
    build_fingerprint,
    certify_all,
    certify_inequality,
    certify_local_uniqueness,
    verify_certificate,
    verify_local_certificate,
)
from starcc.geometry import DomainError
from starcc.intervals import Box2, Dual, DualBackend, VectorBackend, VInterval, dual_vars
from starcc import certify, cli, kernel, pool, regions
from starcc.regions import (
    DELTA_B0,
    TRUNCATION_R5,
    PairCheck,
    RegionPlan,
    cover_arrays,
    grid_cover,
    region_def,
    region_plan,
)


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
    assert j4_cert.n_leaves() == 43
    assert j4_cert.min_bound == pytest.approx(0.27766476908678767, rel=1e-12)
    assert np.all(j4_cert.bounds > 0.0)
    assert j4_cert.min_bound == j4_cert.bounds.min()
    # every region records the run's scope, though J4 is bounded and does
    # not touch B0
    assert (j4_cert.delta_b0, j4_cert.truncation) == (DELTA_B0, TRUNCATION_R5)


def test_truncation_recorded(j9_cert):
    assert (j9_cert.delta_b0, j9_cert.truncation) == (0.02, 10.0)
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


def _key_arrays(seed=39):
    """Four key arrays of 0, 1 and 2, so that every key ties often: empty,
    one row, seeded draws of 2 to 17 rows, each also sorted, sorted with one
    adjacent pair swapped, and reversed."""
    rng = np.random.default_rng(seed)
    yield np.empty((4, 0))
    yield rng.integers(0, 3, (4, 1)).astype(float)
    for n in (2, 3, 5, 17):
        for _ in range(40):
            keys = rng.integers(0, 3, (4, n)).astype(float)
            ordered = keys[:, np.lexsort(keys[::-1])]
            swapped = ordered.copy()
            j = rng.integers(n - 1)
            swapped[:, [j, j + 1]] = swapped[:, [j + 1, j]]
            yield from (keys, ordered, swapped, ordered[:, ::-1])


def test_lex_ordered_is_true_exactly_when_lexsort_keeps_every_row():
    # _branch_and_bound skips its np.lexsort when _lex_ordered says the
    # leaves are already in its order; the skip must change no byte
    seen = set()
    for keys in _key_arrays():
        want = np.array_equal(np.lexsort(keys[::-1]), np.arange(keys.shape[1]))
        assert certify._lex_ordered(tuple(keys)) is want, keys
        seen.add(want)
    assert seen == {True, False}


def test_verifiers_take_only_their_certificate_class(j4_cert, local_cert):
    # a payload dict or its JSON text is refused: callers parse it with
    # from_payload first
    for verify, cert, other in ((verify_certificate, j4_cert, local_cert),
                                (verify_local_certificate, local_cert, j4_cert)):
        text = cert.to_json()
        for raw in (text, json.loads(text), other):
            with pytest.raises(MalformedCertificate, match="cannot interpret"):
                verify(raw)


def test_reversed_orientation_refutes():
    plan = region_plan("J3")
    flipped = RegionPlan(plan.region, tuple(
        PairCheck(low=p.high, high=p.low) for p in plan.pairs))
    with pytest.raises(CertificationRefuted):
        certify_inequality("J3", max_box_width=0.1, plan=flipped)


def _alone(check, *box):
    """One pair's (lower, upper, form), evaluated alone: the pair-set
    bound of the one-pair plan, so no other pair shares its cache."""
    return _batch_bounds(RegionPlan("alone", (check,)), *box)[:3]


def test_the_second_pair_carries_the_collision_corner():
    # bodies 3 and 5 collide at (0, 0): J1's first pair reads r_35 and is
    # NaN on the cover box at that corner, and its second pair certifies it
    plan = region_plan("J1")
    cover = cover_arrays("J1", 0.02, TRUNCATION_R5)
    corner = (cover[0] == 0.0) & (cover[2] == 0.0)
    assert corner.sum() == 1
    lo, hi, form, pair = _batch_bounds(plan, *cover)
    assert pair[corner] == [1] and lo[corner] > 0.0
    first = _alone(plan.pairs[0], *(a[corner] for a in cover))
    assert np.isnan(first[0]).all()


@pytest.mark.parametrize("rid", ["J1", "J4"])
def test_the_pair_set_bound_is_the_best_pair_on_every_box(rid):
    plan = region_plan(rid)
    cover = cover_arrays(rid, 0.02, TRUNCATION_R5)
    lo, hi, form, pair = _batch_bounds(plan, *cover)
    per_pair = [_alone(c, *cover) for c in plan.pairs]
    lane = np.arange(lo.size)
    for k, (klo, khi, kform) in enumerate(per_pair):
        finite = ~np.isnan(klo)
        assert np.all(lo[finite] >= klo[finite]), plan.pairs[k]
        assert np.all(np.isnan(hi[np.isnan(khi)]))
        assert np.all(np.isnan(hi) | (hi >= khi))
    # the carrying pair's own bound and form, bit for bit
    assert np.array_equal(lo, np.array([p[0] for p in per_pair])[pair, lane], equal_nan=True)
    assert np.array_equal(form, np.array([p[2] for p in per_pair])[pair, lane])
    assert set(pair.tolist()) == {0, 1}


def test_a_negative_pair_next_to_an_undecided_pair_is_bisected(monkeypatch):
    # on J1's corner box the first pair is NaN and the reversed second pair
    # is finite negative: the box is bisected, since the first pair may
    # still hold on its children; with the reversed pair alone it refutes
    first, second = region_plan("J1").pairs
    reversed_second = PairCheck(low=second.high, high=second.low)
    cover = cover_arrays("J1", 0.02, TRUNCATION_R5)
    corner = [a[(cover[0] == 0.0) & (cover[2] == 0.0)] for a in cover]
    lo, hi, _, pair = _batch_bounds(RegionPlan("J1", (first, reversed_second)), *corner)
    assert pair == [1] and lo < 0.0 and np.isnan(hi)
    # the corner box alone was bisected: its two children are left
    monkeypatch.setattr(certify, "MAX_DEPTH", 0)
    with pytest.raises(BudgetExhausted, match="2 boxes unresolved at depth 0"):
        certify_inequality("J1", 0.02, plan=RegionPlan("J1", (first, reversed_second)))
    with pytest.raises(CertificationRefuted):
        certify_inequality("J1", 0.02, plan=RegionPlan("J1", (reversed_second,)))


def test_tiny_budget_exhausts(monkeypatch):
    monkeypatch.setattr(certify, "MAX_DEPTH", 2)
    with pytest.raises(BudgetExhausted):
        certify_inequality("J7", max_box_width=0.05)


def test_grid_beyond_the_box_cap_is_refused_before_it_is_built():
    # a far cut or a tiny width would ask numpy for a cell grid of gigabyte
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
    {"delta": None},
    {"truncation": None},
], ids=["width-negative", "width-0.7", "delta-0.6", "delta-None", "truncation-None"])
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


def test_no_excision_fails_next_to_the_solution(monkeypatch):
    monkeypatch.setattr(certify, "MAX_DEPTH", 8)
    with pytest.raises(BudgetExhausted) as err:
        certify_inequality("J16", max_box_width=0.05, delta=0.0)
    assert "unresolved" in str(err.value)


@pytest.fixture(scope="module")
def j16_cert():
    return certify_inequality("J16", max_box_width=0.05)


def test_j16_single_pair_certifies_with_margin(j16_cert):
    # one pair on all of J16: the paper's four-strip plan needed depth 35
    # and min gap 1.6e-8 at this width
    assert j16_cert.plan == "J16{lambda_31 < lambda_11}"
    assert set(j16_cert.forms.tolist()) <= {"q", "c"}
    assert j16_cert.stats["max_depth"] <= 16
    assert j16_cert.min_bound > 1e-7
    assert verify_certificate(j16_cert)


def _seventh_entry(row):
    return row + [row[5]]


@pytest.mark.parametrize("width, rid, row, edit", [
    (0.1, "J4", 3, lambda row: row[:5]),
    (0.1, "J4", 3, _seventh_entry),
    (0.1, "J4", 3, lambda row: row[:4] + ["q\x00", row[5]]),
    (0.1, "J4", 3, lambda row: row[:4] + ["qzz", row[5]]),
    (0.02, "J15", 59980, _seventh_entry),
], ids=["5-entries", "7-entries", "q-nul", "qzz", "w0.02-J15-last-row-7-entries"])
def test_reader_refuses_a_leaf_row_it_cannot_hold(certified, tmp_path, capsys,
                                                  width, rid, row, edit):
    # a seventh entry used to be dropped and "q\x00" read as "q" (the <U2
    # cast), so the edited file verified; "qzz" was read as "qz".  No chunk
    # of the reader holds the last row of the width-0.02 J15 with a seventh
    # entry, so the file goes to json.loads of its whole text, and the
    # rejection still names the row
    payload = json.loads(certified(width).certificates[rid].to_json())
    payload["leaves"][row] = edit(payload["leaves"][row])
    with pytest.raises(MalformedCertificate, match=rf"row {row} is not \[r3_lo, "):
        Certificate.from_payload(payload)
    path = tmp_path / f"{rid}.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["verify", str(path)]) == cli.EXIT_VERIFY
    assert capsys.readouterr().err.startswith(
        f"REJECT: {path}: bad inequality certificate: row {row} is not [r3_lo, ")


@pytest.mark.parametrize("edit", [
    lambda row: row + [row[5]],
    lambda row: row[:4] + ["3+", row[5]],
    lambda row: row[:4] + [row[4] + "\x00", row[5]],
], ids=["7-entries", "component-3", "nul"])
def test_reader_refuses_an_annulus_row_it_cannot_hold(local_cert, edit):
    # an annulus row takes the region forms, nothing else
    payload = json.loads(local_cert.to_json())
    payload["annulus"][5] = edit(payload["annulus"][5])
    with pytest.raises(MalformedCertificate, match=r"row 5 is not .* in \('q', 'c'\)"):
        LocalUniquenessCertificate.from_payload(payload)


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
        "0576e7f428501efca0f292d266471ef81128edde1670b41802d9feb2713558ba"
    )
    rows = local_cert.to_payload()["annulus"]
    assert _sha256(rows) == (
        "f71e5a4c798ab6eaa6f31418324ece23262e2ba99cebe1cf2a127ee209e4cf2e"
    )
    # the boxes alone: those of the component-labelled annulus before it
    # became a pair-set plan
    assert _sha256([row[:4] for row in rows]) == (
        "28f09bf828fd9351dab83c41f8679c4692bae7ca08f82dfef27b65351e199420"
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


@pytest.mark.parametrize("label", ['"', "\\", "\u00e9", "\x01", "\x00q", "", "qc"],
                         ids=repr)
def test_to_json_refuses_a_label_outside_the_form_alphabet(j4_cert, label):
    # the reader refuses such a label, so the writer does too, naming the row;
    # the certifier's labels are one character, so the copy is widened to two
    forms = j4_cert.forms.astype("<U2")
    forms[3] = label
    cert = replace(j4_cert, forms=forms)
    assert cert.forms[3] == label
    with pytest.raises(ValueError, match=f"^row 3 has form {re.escape(repr(label))}, "):
        cert.to_json()


def test_fingerprint_is_stable():
    assert build_fingerprint() == (
        "f30d235fe4573812435e6c0149387e7fd5e3e96074d9770f53aa2262d6b4d294"
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
    lo, _, form, _ = _batch_bounds(plan, bad.lo3, bad.hi3, bad.lo5, bad.hi5)
    bad.bounds, bad.forms = lo, form
    bad.min_bound = float(lo.min())
    with pytest.raises(CoverageGap):
        verify_certificate(bad)


def test_editing_a_payload_leaves_the_certificate_alone(j4_cert):
    j4_cert.to_payload()["stats"].pop("wall_seconds")
    assert "wall_seconds" in j4_cert.stats


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


def _annulus_pair_bounds(cert):
    """Each pair of the annulus plan, alone, on the stored leaves."""
    box = (cert.ann_lo3, cert.ann_hi3, cert.ann_lo5, cert.ann_hi5)
    return [_alone(check, *box) for check in certify._ANNULUS_PLAN.pairs]


def test_each_annulus_bound_is_the_largest_over_the_four_pairs(local_cert):
    assert [c.describe() for c in certify._ANNULUS_PLAN.pairs] == [
        "lambda_31 < lambda_11", "lambda_11 < lambda_31",
        "lambda_51 < lambda_11", "lambda_11 < lambda_51"]
    pairs = _annulus_pair_bounds(local_cert)
    lows = np.array([lo for lo, _, _ in pairs])
    assert not np.any(np.isnan(lows))
    assert np.array_equal(local_cert.ann_bound, lows.max(axis=0))
    assert set(local_cert.ann_form.tolist()) == {"q"}
    # a reversed pair's lower bound is minus the pair's upper bound, bit
    # for bit: the four pairs bound each gap component's distance from 0
    for k in (0, 2):
        assert np.array_equal(pairs[k + 1][0], -pairs[k][1])
        assert np.array_equal(pairs[k][0], -pairs[k + 1][1])


def test_a_component_labelled_local_certificate_is_malformed(local_cert, tmp_path):
    # rebuild the rows the annulus had before it became a pair-set plan:
    # the first of the codes 1+, 1-, 2+, 2- whose distance from zero is
    # certified positive, with that distance as the bound
    pairs = _annulus_pair_bounds(local_cert)
    codes = ("1+", pairs[0][0]), ("1-", -pairs[0][1]), ("2+", pairs[2][0]), ("2-", -pairs[2][1])
    payload = json.loads(local_cert.to_json())
    for j, row in enumerate(payload["annulus"]):
        code, bound = next((c, float(v[j])) for c, v in codes if v[j] > 0.0)
        assert bound <= local_cert.ann_bound[j]
        row[4:] = [code, bound.hex()]
    assert _sha256(payload["annulus"]) == (
        "97b00e2e0e8f76563b909867b27867a56807f0d50955a6d7d4ffb8c6af561bfa"
    )
    path = tmp_path / "local.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["verify", str(path)]) == cli.EXIT_VERIFY
    # one such row among the current ones is named
    j = next(j for j, row in enumerate(payload["annulus"]) if row[4] == "1+")
    current = json.loads(local_cert.to_json())
    current["annulus"][j] = payload["annulus"][j]
    with pytest.raises(MalformedCertificate, match=rf"row {j} is not .*'1\+'"):
        LocalUniquenessCertificate.from_payload(current)


def test_the_local_certifier_refuses_evidence_that_fails_the_acceptance_rule(monkeypatch):
    # the rows of CONTROLS pin each branch of the rule (_check_contraction)
    # through the verifier; the certifier applies the same rule
    evidence = dict(_contraction_evidence(certify.INNER_DELTA, certify.SUBDIVISION),
                    posteriori_residual=2e-10)
    monkeypatch.setattr(certify, "_contraction_evidence", lambda *args: evidence)
    with pytest.raises(ContractionFailure, match=r"^center residual 2\.000e-10 > 1e-10$"):
        certify_local_uniqueness()


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
def manifest_two_threads(certified):
    return certified(0.1)


@pytest.fixture(scope="module")
def manifest_one_thread():
    return certify_all(RunConfig(max_box_width=0.1, threads=1))


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


def test_certify_all_is_independent_of_the_thread_count(manifest_one_thread,
                                                       manifest_two_threads):
    # regions are submitted largest first; the payloads and the manifest's
    # J1..J16 order must not show which thread ran what, or when
    one = manifest_one_thread
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


def _pieces(manifest):
    return dict(manifest.certificates, local=manifest.local)


def test_a_forked_run_hands_back_the_leaf_arrays_of_the_in_process_run(
        manifest_one_thread, manifest_two_threads):
    # the forked jobs' arrays come back through the spool files
    one, two = _pieces(manifest_one_thread), _pieces(manifest_two_threads)
    for piece, cert in two.items():
        for want, got in zip(one[piece]._leaves(), cert._leaves()):
            assert type(got) is np.ndarray and got.flags.writeable, piece
            assert got.dtype == want.dtype and got.shape == want.shape, piece
            assert got.tobytes() == want.tobytes(), piece
    assert [a.dtype.str for a in two["J1"]._leaves()] == ["<f8"] * 4 + ["<U1", "<f8"]
    assert two["local"].ann_form.dtype.str == "<U1"
    # each piece's six arrays are views of one copy-on-write map of its file
    for piece, cert in two.items():
        maps = [_map_of(a) for a in cert._leaves()]
        assert isinstance(maps[0], mmap.mmap) and all(m is maps[0] for m in maps), piece
    got, want = two["J15"].bounds, one["J15"].bounds
    saved, first = want.tobytes(), got[0]
    try:
        got[0] = -first
        assert got[0] == -first and want.tobytes() == saved
    finally:
        got[0] = first


def _map_of(array):
    """The object at the end of array's chain of bases."""
    while isinstance(array, np.ndarray):
        array = array.base
    return array.obj if isinstance(array, memoryview) else array


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_forked_manifest_holds_one_descriptor_per_piece_until_freed(monkeypatch, spools):
    # a map keeps a duplicate descriptor of its deleted spool file
    def descriptors():
        out = []
        for fd in os.listdir("/proc/self/fd"):
            with suppress(FileNotFoundError):  # listdir's own descriptor
                out.append(os.readlink(f"/proc/self/fd/{fd}"))
        return out

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    before = descriptors()
    manifest = certify_all(RunConfig(max_box_width=0.1, threads=2))
    [spool] = [os.path.realpath(p) for p in spools if Path(p).name.startswith("starcc-")]
    during = descriptors()
    held = sorted(t for t in during if t.startswith(spool))
    assert held == sorted(f"{os.path.join(spool, p)}.npy (deleted)"
                          for p in ("local",) + regions.REGION_IDS)
    assert len(during) == len(before) + len(held)
    del manifest
    gc.collect()
    after = descriptors()
    assert len(after) == len(before) and not any(t.startswith(spool) for t in after)


def _without_wall_time(cert) -> dict:
    payload = cert.to_payload()
    payload.get("stats", {}).pop("wall_seconds", None)
    return payload


@pytest.mark.parametrize("piece", ["J4", "local"])
def test_a_job_given_a_spool_saves_its_leaf_arrays_and_returns_none_for_them(
        tmp_path, piece):
    cfg = RunConfig(max_box_width=0.1)
    want = certify._certify_piece(piece, cfg)
    got = certify._certify_piece(piece, cfg, str(tmp_path))
    assert all(getattr(got, key) is None for key in got._LEAVES)
    assert _without_wall_time(replace(got, **dict(zip(got._LEAVES, want._leaves())))) \
        == _without_wall_time(want)
    assert [p.name for p in tmp_path.iterdir()] == [f"{piece}.npy"]
    with open(tmp_path / f"{piece}.npy", "rb") as fh:
        for leaves in want._leaves():
            saved = np.load(fh)
            assert saved.dtype == leaves.dtype and saved.tobytes() == leaves.tobytes()
        assert fh.read() == b""
    back = certify._unspool(str(tmp_path), piece, got)
    assert _without_wall_time(back) == _without_wall_time(want)
    assert list(tmp_path.iterdir()) == []


def test_unspool_maps_every_array_np_save_writes(tmp_path):
    # the dtypes the pieces save, a 2-D array in Fortran order, a version
    # 2.0 header, and an empty last array, whose offset is the map's end
    arrays = [np.arange(3.0), np.array(list("ab+-"), dtype="<U1"),
              np.asfortranarray(np.arange(6.0).reshape(2, 3)), np.array(-0.0),
              np.array([], dtype="<U1"), np.array([], dtype="<f8")]
    cert = certify._certify_piece("J4", RunConfig(max_box_width=0.1), str(tmp_path))
    with open(tmp_path / "J4.npy", "wb") as fh:
        for i, a in enumerate(arrays):
            np.lib.format.write_array(fh, a, version=(2, 0) if i == 3 else (1, 0))
    back = certify._unspool(str(tmp_path), "J4", cert)
    assert list(tmp_path.iterdir()) == []
    for want, got in zip(arrays, back._leaves()):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes() and got.flags.writeable
    assert isinstance(_map_of(back.lo3), mmap.mmap) and _map_of(back.bounds) is _map_of(back.lo3)


@pytest.fixture
def spools(monkeypatch, tmp_path):
    """The directories tempfile makes from here on, all under tmp_path."""
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    made = []
    real = tempfile.mkdtemp

    def mkdtemp(*args, **kw):
        made.append(real(*args, **kw))
        return made[-1]

    monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
    return made


def _refuted_witness():
    return {"is_solution": False}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool needs os.fork")
@pytest.mark.parametrize("patch, error", [
    ({}, None),
    ({"MAX_DEPTH": 0}, BudgetExhausted),
    # raised in this process after the local piece came back, while the
    # workers still certify regions and save their arrays to the spool
    ({"_solution_witness": _refuted_witness}, ContractionFailure),
], ids=["certified", "out-of-depth", "witness-refuted"])
def test_a_forked_run_removes_its_spool(monkeypatch, tmp_path, spools, patch, error):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for name, value in patch.items():
        monkeypatch.setattr(certify, name, value)
    if error is None:
        certify_all(RunConfig(max_box_width=0.1, threads=2))
    else:
        with pytest.raises(error):
            certify_all(RunConfig(max_box_width=0.1, threads=2))
    # multiprocessing may make a pymp-* directory of its own here
    made = [Path(p) for p in spools if Path(p).name.startswith("starcc-")]
    assert len(made) == 1 and made[0].parent == tmp_path
    assert list(tmp_path.glob("starcc-*")) == []


@pytest.mark.parametrize("threads, cpus", [(1, 2), (2, 1)])
def test_an_in_process_run_makes_no_spool(monkeypatch, tmp_path, spools, threads, cpus):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    certify_all(RunConfig(max_box_width=0.1, threads=threads))
    assert spools == [] and list(tmp_path.iterdir()) == []


# sha256 of json.dumps of each piece's payload without stats.wall_seconds,
# in the bundles certified at three box widths, truncated at r5 <= 10 on two
# workers: 0.1 is the bundle of the tests above, 0.02 and 0.01 are the
# bundles that perfbench's bundle and certify-fine workloads certify
BUNDLE_PINS = {
    0.1: {
        "J1": "9c7b35db0a2dae6ddaa8e1c409c5e76daf8cde996c4f294bfc5e7fee95a559a4",
        "J2": "5de63f55d959d69cc3abe7a46fb768a345d68640b816ae1d3b0d89e3c80c0dd6",
        "J3": "27362fb631bfc4b7cbe74066ff2fe5a5ee548ba1036e58585c07ea87fe8634fc",
        "J4": "13241fe1c6aac96ecc6420bb3dd2db60c5663531c676a4427b83da6b8341ef6b",
        "J5": "24cbbc647c8960cb029534fae0064322edbc4963f5475fa88ec133e8088df5ed",
        "J6": "0c1e67c55c8f1a1dde233478c60ba9fbabc1cd784aaab4452e120420e98384d2",
        "J7": "ec65ac36f16a08bcb165a6b1179175e582926ebebb5294c9d2ba9bf595b08058",
        "J8": "e659fbb136bfce18aed37322deee4454c4ac021479b85260490445dcec24389b",
        "J9": "e53fe161d5a3b550809d1deee67fca47a6ebf9a1980b9b400e60fc94f6ec9e9a",
        "J10": "92dcda2c90fa19268e06cb43fe9790dedba4496c00c907dd1ed53fcab14ea11c",
        "J11": "1a37022ab1e14613321ec9e852c3d0d3faaaf0114c8fb5d6b7e9d31cc06c29a6",
        "J12": "010d768f93528d481632b8f260123c093701240dbf432fee1fdd2782e0daa698",
        "J13": "883d1f5bc0c1a605f00ccd7b207257eee7d69a965c74486e4b445394c6c0a42e",
        "J14": "26ffaf4f4b520c0143cbbbd3a8787190412a48670fcc64f6f3e956d5746b49ce",
        "J15": "22c3114013589a372770978ca7055d31848a171b38fa7f3bbea3bab8a9ab784c",
        "J16": "f0e159dc28621fd8448825f1333451c591ab3ea5678fea6ce9800579f49c62aa",
        "local": "4cfebdbc2b4ff9d99e6266ab8f694f1b088660d99e8dbb7d59ea5fcfb34aa718",
    },
    0.02: {
        "J1": "75970726228ac1e3dea7423edd495cd44107d638823dd1f38ee467bd623cb54c",
        "J2": "816217dda092206a7a1befe17a91af358451a8dfbee563570c522469f8930c33",
        "J3": "57613b15302d5855e183a41c938b0c3e17c711fef37a67a884e75c437a2f717c",
        "J4": "8c4257b29cbcef8d27bb5f023b30230e1d790137e3e78b29704f9da446687440",
        "J5": "0ab0ad60e6753866569e9f525547762031c49d92fc7b0be633f4afe919fd8b85",
        "J6": "590aa5ae9747220314026154e81d2a037c8f79179d25bb0d2061e6e03770ebf8",
        "J7": "2cecc559baf83ac7ab453c27e659ea17d673efb3314e34e0c1b22ae175a2756d",
        "J8": "1b89adedfd18142446d736defd4843b2324112538862c9078c4cae6ef4ef0d4a",
        "J9": "7cd4af7e2caf4fb54732a6121351e98543780936febf5a8f53301ac432a8a179",
        "J10": "e4ef2d5eb5e0b39f612b5b877bf06fc7538da3525922d5a9533cfef70ee68074",
        "J11": "ae156b5ff2668676c8124390f1440b06257db3049b53eec73a40c20398ad6b3e",
        "J12": "e87253fce6536e73d1474434870a65945e0c124b98f4a37be774fcee3e7bb471",
        "J13": "7d0bbd07675504010baa8d9e9dacb6f6475ea009059fb3a98d9d3c93f00a9cb9",
        "J14": "66df110677c8dc3ee177a2b64a74ea895616641d02009bb5d59f881065010358",
        "J15": "82b64b1ee04820e1c15e7ad9ec0a5cd4c6c6ca10d3eebbc8827e280916b1c363",
        "J16": "211f46a79e20b3709a8d37251c81e07f9ac88fdc5efdbf3a094e00375c31d6d3",
        "local": "4cfebdbc2b4ff9d99e6266ab8f694f1b088660d99e8dbb7d59ea5fcfb34aa718",
    },
    0.01: {
        "J1": "40ef05ecfe14f192edde19e877b7a9949490c8e718a4d5c9b0fbddd6f04f96e0",
        "J2": "d1951336e8c43d3675a1ce424195588058b9d4aef45ee2a32618eaf4722b673d",
        "J3": "536d6d4ad3a780c3dac55221a23476c4566cb0d60e52c06bf5f36e1b5374fb4e",
        "J4": "58e45eae22b60cebd542c0664798bd8b48886bcd3242157e802482c1b9ad822f",
        "J5": "18226fb004232e3b1c3067d01fe614bf5cbd9fe44e732552641a2dbd816375bf",
        "J6": "cf297da3dc7d716af219223af4a33ebe11a0b06b282513e16ba6230ef5c75c23",
        "J7": "1b98ac5de3baa3446f9ecac2b571731c3990e388c853c954776ecd2a43af919d",
        "J8": "6bcf2a87bea59de764a3457cee11d70617922a0a0019dab498f319bb3e9f0353",
        "J9": "aa3c17c6b48295bca01e0a321874bd273178b1f6f73a3ebcf2ee496adc447c42",
        "J10": "fb50dcca4587f3310f7f974aebba5c3827f6d7dffd9ceb193a8c63f6ae4403aa",
        "J11": "4a9807a2aebe0832fb5cca73af688237c6a2bfe8d66f53484a13bdba5cb6f4e8",
        "J12": "8bc738bc66d44b74783305a8f1c3217b11b0535ba9359746677adfb85c4ba85d",
        "J13": "c846db0a63d30970367d4fc7ac35e34f793d08cae75bd58a47f4aa8a5f7d09b1",
        "J14": "cdc532ab995645a908e9546d55df428e5a4c18d2727b4ab46213d6ab6fd49853",
        "J15": "847a4a9bf007229e1cbf5a41549b75197c7f58eeba86438b7b28cbbb2ffc3350",
        "J16": "fb623a812a509a3e67e27943b0c6919f29335fbebc9fedd2437375596dae9258",
        "local": "4cfebdbc2b4ff9d99e6266ab8f694f1b088660d99e8dbb7d59ea5fcfb34aa718",
    },
}


def _digest(cert) -> str:
    """The pin of a piece: its to_json() without the wall time, which is
    faster than json.dumps of to_payload() and gives the same text."""
    if isinstance(cert, Certificate):  # a local certificate records no time
        cert = replace(cert, stats={k: v for k, v in cert.stats.items()
                                    if k != "wall_seconds"})
    return hashlib.sha256(cert.to_json().encode()).hexdigest()


@pytest.mark.parametrize("width", BUNDLE_PINS)
def test_every_piece_of_the_bundle_is_pinned(certified, width):
    manifest = certified(width)
    got = {piece: _digest(cert) for piece, cert in _pieces(manifest).items()}
    assert got == BUNDLE_PINS[width]


@pytest.mark.parametrize("field, value", [
    ("threads", 2.5), ("threads", True), ("threads", "2"),
])
def test_run_config_rejects_a_bad_count(field, value):
    # unchecked, a float thread count fails inside the pool, and True runs
    with pytest.raises(DomainError, match=field):
        RunConfig(**{field: value}).validate()


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
    # depth 0 leaves the local piece's annulus (the first job) unresolved,
    # in the forked workers too; the pool must raise what the serial run does
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(certify, "MAX_DEPTH", 0)
    seen = []
    for threads in (1, 2):
        with pytest.raises(BudgetExhausted) as info:
            certify_all(RunConfig(max_box_width=0.1, threads=threads))
        seen.append((type(info.value), str(info.value)))
    assert seen[0] == seen[1]
    assert seen[0][0] is BudgetExhausted
    assert seen[0][1].startswith("annulus: ")


@pytest.mark.parametrize("width, threads", [(0.1, 1), (0.1, 2), (0.02, 2)],
                         ids=["1", "2", "w0.02"])
def test_each_piece_a_job_writes_is_to_json_of_the_returned_certificate(
        monkeypatch, tmp_path, width, threads):
    # the pool's jobs write the pieces; the manifest they return must hold
    # the very certificates whose bytes are on disk, and each file is the
    # json.dumps text of what it holds (at width 0.02 too, where J15's
    # 59 981 rows are written in 30 blocks)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    manifest = certify_all(RunConfig(max_box_width=width, threads=threads,
                                     output_dir=str(tmp_path)))
    pieces = _pieces(manifest)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{piece}.json" for piece in pieces)
    for piece, cert in pieces.items():
        text = (tmp_path / f"{piece}.json").read_text(encoding="utf-8")
        assert text == cert.to_json(), piece
        assert text == json.dumps(json.loads(text)), piece


@pytest.mark.parametrize("threads", [1, 2])
def test_certify_all_without_a_directory_writes_nothing(monkeypatch, tmp_path,
                                                        threads):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.chdir(tmp_path)
    certify_all(RunConfig(max_box_width=0.1, threads=threads))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("threads", [1, 2])
def test_certify_all_rejects_a_missing_output_dir_before_any_job(monkeypatch, tmp_path,
                                                                 threads):
    # the local job used to find out when it wrote local.json, after the
    # pool had started
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    ran = []
    monkeypatch.setattr(certify, "_certify_piece", lambda *job: ran.append(job))
    missing = tmp_path / "missing"
    message = re.escape(f"no output directory {str(missing)!r}")
    with pytest.raises(FileNotFoundError, match=message):
        certify_all(RunConfig(max_box_width=0.1, threads=threads, output_dir=str(missing)))
    assert ran == [] and not missing.exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool needs os.fork")
def test_certify_all_rejects_the_local_window_before_it_forks(monkeypatch):
    # the local certificate's window rule fails first whatever the worker
    # count, so a pool would only make the error wait for running jobs
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(DomainError, match=r"window half-width delta 0\.0 outside"):
        certify_all(RunConfig(max_box_width=0.1, delta_b0=0.0, threads=2))
    assert forks == []


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


_THRESHOLDS_SET = []  # pool._set_thresholds calls, as the test below records them


def _thresholds_set_here(k):
    """A _fan_out job: the threshold calls its worker made or forked with."""
    return list(_THRESHOLDS_SET)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool needs os.fork")
def test_fan_out_sets_collect_thresholds_after_the_workers_fork(monkeypatch):
    # the workers must fork before _COLLECT is set (their numpy temporaries
    # stay on the heap), and the caller must leave the pool with _COMPUTE
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers: a pool
    monkeypatch.setattr(pool, "_set_thresholds", lambda *t: _THRESHOLDS_SET.append(t))
    _THRESHOLDS_SET.clear()
    seen = list(pool._fan_out(_thresholds_set_here, [(0,), (1,), (2,)], 2, lambda job: 0))
    assert seen == [[], [], []]
    assert _THRESHOLDS_SET == [pool._COLLECT, pool._COMPUTE]
    _THRESHOLDS_SET.clear()


def _unblocked_bounds(plan, lo3, hi3, lo5, hi5):
    """_batch_bounds as one kernel call per pair over all the lanes, each
    pair alone, with the pairs stacked: the lane's bound is the largest
    that is not NaN (fmax skips NaN), and its pair the first that reaches
    it (pair 0 where every pair is NaN)."""
    with mock.patch.object(certify, "_BLOCK", max(lo3.size, 1)):
        lows, highs, forms = (np.array(a) for a in zip(*(
            _alone(c, lo3, hi3, lo5, hi5) for c in plan.pairs)))
    lo = np.fmax.reduce(lows, axis=0)
    pair = np.argmax(lows == lo, axis=0)
    return lo, highs.max(axis=0), forms[pair, np.arange(lo.size)], pair


def _unexcised_cover(rid, width):
    """rid's grid at width, truncated at r5 <= 10, with only the cells that
    certainly miss its closure left out: no square is excised, so the
    covers of J7, J8, J9 and J16 keep the boxes around (1, 1)."""
    reg = region_def(rid)
    return grid_cover(reg.bbox(TRUNCATION_R5), width, None, reg.boxes_outside_closure)


@pytest.mark.parametrize("rid", ["J15", "J1", "annulus-0.02", "annulus-0.1"])
@pytest.mark.parametrize("size", [
    certify._BLOCK - 1, certify._BLOCK, certify._BLOCK + 1, 3 * certify._BLOCK + 7,
], ids=["block-1", "block", "block+1", "3block+7"])
def test_blocked_bounds_equal_one_kernel_call(rid, size):
    # the sliced evaluation, where the pairs of a slice share one cache,
    # against each pair alone on all the lanes at once; all four pairs of
    # the annulus plan read lambda_11, and two each read lambda_31, lambda_51
    if rid.startswith("annulus"):
        plan = certify._ANNULUS_PLAN
        cover = certify._annulus_cover(float(rid.split("-")[1]))
    else:
        plan = region_plan(rid)
        cover = _unexcised_cover(rid, 0.02)
    pick = np.resize(np.arange(cover[0].size), size)
    if rid == "J1":
        # J1's second pair carries the boxes at its collision corner: put
        # them on both sides of every slice edge, and at the end
        corner = np.flatnonzero(_unblocked_bounds(plan, *cover)[3] == 1)
        for edge in list(range(certify._BLOCK, size, certify._BLOCK)) + [size]:
            at = np.arange(max(edge - 3, 0), min(edge + 3, size))
            pick[at] = np.resize(corner, at.size)
    lanes = tuple(a[pick] for a in cover)
    got = _batch_bounds(plan, *lanes)
    want = _unblocked_bounds(plan, *lanes)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    if rid == "J1":
        assert np.all(got[3][certify._BLOCK - 3 : certify._BLOCK + 3] == 1)


def _index_groups():
    """The lambdas one evaluation shares a cache between: each plan pair's
    (low, high), F's three, and all nine with y1 (as residual_vector)."""
    groups = []
    for rid in regions.REGION_IDS:
        groups += [(c.low, c.high) for c in region_plan(rid).pairs]
    groups.append(tuple(sorted({idx for pair in kernel.LOCAL_PAIRS for idx in pair})))
    groups.append(kernel.LAMBDA_INDICES + ((1, 2),))
    return groups


def _bits(v) -> bytes:
    """Every bit of a kernel value on any backend."""
    if isinstance(v, Dual):
        return b"".join(_bits(p) for p in (v.v, v.d3, v.d5))
    if isinstance(v, VInterval):
        return v.lo.tobytes() + v.hi.tobytes()
    return np.asarray(v, dtype=np.float64).tobytes()


@pytest.mark.parametrize("backend", ["float", "float-scalar", "vector", "masked", "dual"])
def test_a_shared_kernel_cache_changes_no_bit(backend):
    if backend == "masked":
        # J1's cover without an excision reaches the collision corner
        # (0, 0), where r_35 touches zero; J4's reaches (b/2, 0)
        lanes = [np.concatenate(a) for a in zip(_unexcised_cover("J1", 0.05),
                                                _unexcised_cover("J4", 0.05))]
    else:
        lanes = _unexcised_cover("J16", 0.05)
    box = Box2(VInterval(lanes[0], lanes[1]), VInterval(lanes[2], lanes[3]))
    n = lanes[0].size
    make = {
        "float": lambda: kernel.FloatBackend,
        "float-scalar": lambda: kernel.FloatBackend,
        "vector": VectorBackend,
        "masked": certify._MaskedBackend,
        "dual": DualBackend,
    }[backend]
    point = {"float": (box.r3.mid(), box.r5.mid()), "float-scalar": (1.1, 1.2),
             "dual": dual_vars(box)}.get(backend, box)
    radii = kernel.derived_radii(make(), *point)
    nan = np.zeros(n, dtype=bool)
    for group in _index_groups():
        shared, cache = make(), {}
        for idx in group:
            got = kernel.lambda_num(shared, radii, *idx, cache)
            assert _bits(got) == _bits(kernel.lambda_num(make(), radii, *idx)), (group, idx)
            if backend == "masked":
                # NaN exactly where one of the lambda's four distances touches 0
                i = idx[0]
                touch = np.logical_or.reduce([
                    kernel.dist2(shared, radii, i, j).lo <= 0.0 for j in range(1, 6) if j != i])
                assert np.array_equal(np.isnan(got.lo), touch), (group, idx)
                assert np.array_equal(np.isnan(got.hi), touch), (group, idx)
                nan |= touch
    if backend == "masked":
        assert nan.any() and not nan.all()


# the regions whose width-0.05 cover without an excision has boxes of
# both forms: J1 and J2 reach the r3 = 0 edge, J4 the r5 = 0 edge and J8
# the q22 = 0 corner of its closure
_MIXED_FORM_REGIONS = ("J1", "J2", "J4", "J8")


def _cover_pair_bounds(rid, keep=None):
    """_pair_bounds of every pair of rid's plan on its width-0.05 cover
    (the lanes keep of it), one evaluation and cache shared by the pairs."""
    lanes = _unexcised_cover(rid, 0.05)
    keep = slice(None) if keep is None else keep
    eng, cache = certify._MaskedBackend(), {}
    r3, r5 = (VInterval(lanes[k][keep], lanes[k + 1][keep]) for k in (0, 2))
    radii = kernel.derived_radii(eng, r3, r5)
    return [certify._pair_bounds(check, eng, radii, cache) for check in region_plan(rid).pairs]


def _cleared(bounds):
    return np.logical_or.reduce([form == certify.FORM_CLEARED for *_, form in bounds])


def test_the_mixed_form_regions_are_every_region_whose_cover_mixes_forms():
    mixed = [rid for rid in regions.REGION_IDS if _cleared(_cover_pair_bounds(rid)).any()]
    assert tuple(mixed) == _MIXED_FORM_REGIONS


@pytest.mark.parametrize("rid", _MIXED_FORM_REGIONS)
def test_a_slice_without_a_straddling_denominator_keeps_the_lane_wise_bits(rid):
    """_pair_bounds computes only the quotient form on a slice where no
    denominator straddles 0; the same boxes next to ones where some q does
    (the r3 = 0 edge of J1 and J2, the r5 = 0 edge of J4, the q22 = 0
    corner of J8) take the cleared form on those lanes alone, and every
    other lane keeps the same bits."""
    every = _cover_pair_bounds(rid)
    cleared = _cleared(every)
    assert cleared.any() and not cleared.all()
    for whole, alone in zip(every, _cover_pair_bounds(rid, ~cleared)):
        lo, hi, form = (a[~cleared] for a in whole)
        assert alone[0].tobytes() == lo.tobytes()
        assert alone[1].tobytes() == hi.tobytes()
        assert np.array_equal(alone[2], form) and alone[2].dtype == form.dtype
        assert (alone[2] == certify.FORM_QUOTIENT).all()


@pytest.mark.parametrize("boxes", ["J1", "mixed"])
def test_a_straddling_denominator_masks_its_quotient_per_lane(boxes):
    # _quotient is NaN on exactly the lanes where its q straddles 0 (and
    # where a distance of the lambda touches 0), not on the whole slice,
    # and every other lane has the bits of _quotient on those lanes alone.
    # J1's cover reaches the r3 = 0 edge and the (0, 0) corner; the mixed
    # slice puts every 16th seeded box on the r3 = 0 edge
    if boxes == "J1":
        lanes = _unexcised_cover("J1", 0.05)
    else:
        lanes = [a.copy() for a in _seeded_boxes()]
        lanes[0][5::16] = 0.0

    def quotient(idx, keep):
        eng, cache = certify._MaskedBackend(), {}
        r3, r5 = (VInterval(lanes[k][keep], lanes[k + 1][keep]) for k in (0, 2))
        radii = kernel.derived_radii(eng, r3, r5)
        straddle, lam = certify._quotient(idx, eng, radii, cache)
        n = kernel.lambda_num(eng, radii, *idx, cache=cache)
        return straddle, lam, kernel.lambda_den(eng, radii, *idx), n

    every = np.ones(lanes[0].size, dtype=bool)
    mixed = []
    for idx in kernel.LAMBDA_INDICES:
        straddle, lam, q, n = quotient(idx, every)
        assert np.array_equal(straddle, q.straddles_zero()), idx
        undecided = straddle | np.isnan(n.lo)
        assert np.array_equal(np.isnan(lam.lo), undecided), idx
        assert np.array_equal(np.isnan(lam.hi), undecided), idx
        if boxes == "mixed":
            assert not np.isnan(n.lo).any(), idx
        if not straddle.any():
            continue
        assert not straddle.all(), idx
        mixed.append(idx)
        keep = ~straddle
        alone_straddle, alone = quotient(idx, keep)[:2]
        assert not alone_straddle.any(), idx
        assert alone.lo.tobytes() == lam.lo[keep].tobytes(), idx
        assert alone.hi.tobytes() == lam.hi[keep].tobytes(), idx
    assert mixed == ([(3, 1), (3, 2)] if boxes == "mixed" else
                     [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)])


def _seeded_boxes(n=4096, seed=26):
    """n seeded boxes of width <= 0.05 where every radius and q is
    positive and bounded away from 0; every eighth box is a point."""
    rng = np.random.default_rng(seed)
    lo3 = rng.uniform(0.3, 2.0, n)
    lo5 = np.maximum(lo3 + rng.uniform(-0.3, 0.45, n), 0.2)
    w3, w5 = rng.uniform(0.0, 0.05, (2, n))
    w3[::8] = w5[::8] = 0.0
    return lo3, lo3 + w3, lo5, lo5 + w5


def _corner_boxes():
    """_seeded_boxes with every 16th box at the collision corner (0, 0),
    where r_35 touches 0 (NaN lanes on _MaskedBackend), and every 16th
    from the fifth on at r3 = 0, where q_3k straddles 0."""
    lo3, hi3, lo5, hi5 = (a.copy() for a in _seeded_boxes())
    lo3[::16] = lo5[::16] = 0.0
    lo3[5::16] = 0.0
    return lo3, hi3, lo5, hi5


# SHA-256 of every bit of the nine lambda enclosures (numerator and
# quotient) on the seeded boxes, taken before the interval arithmetic
# rounded both ends of a result in one decision and carried its sign
_LAMBDA_BITS = {
    "vector": "551adc6a005a9056e98af5bbb6d8d75be86b71f5c8a521851ac378749ac7c603",
    "vector-0d": "44ddf294a2c7c489bd9db4887510780bbcabc6c0922a2caa38df94077983d32c",
    "masked": "f2da5129bc8ab3dd4fdd86f9c9565cef40815313fdb477d86b9547c5eca22100",
    "dual": "468719f7968be48a5c18a4cc9cce06e8f1f7db3fc0d3b29a17e4d4b0a5918acb",
    "dual-nan": "2118ccb7e2cb0bb8c8279e3e383875a0a43844f2c2d9e94a9fcab88331129f8c",
    "float": "bfe0cdc8876ade077a9f7d2c2df4e598bf041731273d9e4220b353905e5d1f2c",
}


@pytest.mark.parametrize("backend", sorted(_LAMBDA_BITS))
def test_the_kernel_gives_the_pinned_bits_of_every_lambda(backend):
    lo3, hi3, lo5, hi5 = _corner_boxes() if backend == "masked" else _seeded_boxes()
    if backend == "dual-nan":
        lo3, hi3 = lo3.copy(), hi3.copy()
        lo3[::16] = hi3[::16] = np.nan
    box = Box2(VInterval(lo3, hi3), VInterval(lo5, hi5))
    make = {"vector": VectorBackend, "vector-0d": VectorBackend,
            "masked": certify._MaskedBackend, "dual": DualBackend,
            "dual-nan": DualBackend, "float": lambda: kernel.FloatBackend}[backend]
    if backend == "vector-0d":
        points = [Box2(VInterval(lo3[j], hi3[j]), VInterval(lo5[j], hi5[j]))
                  for j in range(16)]
    elif backend == "float":
        points = [(box.r3.mid(), box.r5.mid())]
    elif backend.startswith("dual"):
        points = [dual_vars(box)]
    else:
        points = [box]
    h = hashlib.sha256()
    nan = 0
    for p in points:
        bk, cache = make(), {}
        radii = kernel.derived_radii(bk, *p)
        for idx in kernel.LAMBDA_INDICES:
            n = kernel.lambda_num(bk, radii, *idx, cache)
            q = kernel.lambda_den(bk, radii, *idx)
            if backend == "masked":
                st = q.straddles_zero()
                q = VInterval(np.where(st, 1.0, q.lo), np.where(st, 1.0, q.hi))
                nan += int(np.isnan(n.lo).sum())
            h.update(_bits(n) + _bits(n / q))
    if backend == "masked":
        assert 0 < nan < 9 * lo3.size
    assert h.hexdigest() == _LAMBDA_BITS[backend]


def _lambda_num_without_reuse(bk, radii, i, k, cache=None):
    """kernel.lambda_num as it was before a new distance's differences were
    reused for the lambda's own term: the reference for bits and memory."""
    for j in range(1, 6):
        if j not in cache:
            cache[j] = tuple(kernel.coordinate(bk, radii, j, c) for c in (1, 2))
    qi, total = cache[i], None
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


def test_reusing_the_differences_changes_no_bit_and_no_peak_memory(monkeypatch):
    # one slice of a one-pair plan, as verify recomputes J15: a difference
    # kept alive one step too long costs a lane array pair (256 KiB here)
    lanes = [np.tile(a, 4) for a in _seeded_boxes()]
    assert lanes[0].size == kernel._BLOCK
    plan = region_plan("J15")
    runs = {}
    for name, num in (("reference", _lambda_num_without_reuse),
                      ("kernel", kernel.lambda_num)):
        monkeypatch.setattr(kernel, "lambda_num", num)
        _batch_bounds(plan, *lanes)
        tracemalloc.start()
        try:
            out = _batch_bounds(plan, *lanes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        runs[name] = out, peak
    (got, peak), (want, ref_peak) = runs["kernel"], runs["reference"]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    assert peak <= ref_peak + 64 * 1024, (peak, ref_peak)


def _all_pairs_plan() -> RegionPlan:
    idx = kernel.LAMBDA_INDICES
    return RegionPlan("all", tuple(PairCheck(a, b) for a in idx for b in idx if a != b))


@pytest.mark.parametrize("boxes", ["inside", "corner"])
def test_an_all_pairs_plan_costs_nine_lambdas_per_slice(boxes, monkeypatch):
    # each lambda's quotient is computed once per slice and shared by
    # every pair that reads it; a pair's bounds are those of its own
    # one-pair plan, bit for bit
    plan = _all_pairs_plan()
    assert len(plan.pairs) == 72
    lanes = _seeded_boxes() if boxes == "inside" else _corner_boxes()
    block = 1024
    monkeypatch.setattr(certify, "_BLOCK", block)
    calls = []
    num = kernel.lambda_num
    monkeypatch.setattr(kernel, "lambda_num", lambda *a, **k: calls.append(a[2:4]) or num(*a, **k))
    lo, hi, form, pair = _batch_bounds(plan, *lanes)
    n_slices = lanes[0].size // block
    again = 0  # a pair with a straddling lane computes its two N again
    for start in range(0, lanes[0].size, block):
        eng = certify._MaskedBackend()
        r3, r5 = (VInterval(lanes[k][start:start + block], lanes[k + 1][start:start + block])
                  for k in (0, 2))
        radii = kernel.derived_radii(eng, r3, r5)
        straddles = {idx for idx in kernel.LAMBDA_INDICES
                     if kernel.lambda_den(eng, radii, *idx).straddles_zero().any()}
        again += 2 * sum(c.low in straddles or c.high in straddles for c in plan.pairs)
    if boxes == "inside":  # no q straddles 0: each lambda once per slice
        assert again == 0
        assert sorted(calls) == sorted(kernel.LAMBDA_INDICES * n_slices)
    else:  # 9 per slice and 2 per pair with a straddling lane: 36 + 576
        assert len(calls) == 9 * n_slices + again == 612
    singles = [_batch_bounds(RegionPlan("one", (check,)), *lanes) for check in plan.pairs]
    for start in range(0, lanes[0].size, block):
        s = slice(start, start + block)
        eng, cache = certify._MaskedBackend(), {}
        r3, r5 = (VInterval(lanes[k][s], lanes[k + 1][s]) for k in (0, 2))
        radii = kernel.derived_radii(eng, r3, r5)
        for check, one in zip(plan.pairs, singles):
            got = certify._pair_bounds(check, eng, radii, cache)
            assert got[0].tobytes() == one[0][s].tobytes(), check
            assert got[1].tobytes() == one[1][s].tobytes(), check
            assert np.array_equal(got[2], one[2][s]), check
    # the all-pairs bound is the first largest lower bound that is not NaN
    los = np.array([one[0] for one in singles])
    best = np.where(np.isnan(los), -np.inf, los).argmax(axis=0)
    cols = np.arange(lo.size)
    assert lo.tobytes() == los[best, cols].tobytes()
    assert np.array_equal(pair, np.where(np.isnan(los).all(axis=0), 0, best))
    assert np.array_equal(form, np.array([one[2] for one in singles])[pair, cols])
    assert hi.tobytes() == np.max([one[1] for one in singles], axis=0).tobytes()


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
