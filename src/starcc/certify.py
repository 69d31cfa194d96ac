"""Branch-and-bound certification of the region inequalities and the
Krawczyk local-uniqueness certificate around the regular pentagon.

The batch engine evaluates a region's plan over whole arrays of boxes at
once (VInterval lanes).  A plan is a set of pairs lambda_low <
lambda_high; every pair is bounded on every lane, and the lane keeps the
largest lower bound (_batch_bounds).  A pair's bound is a certified lower
bound of the gap lambda_high - lambda_low.  When both denominators q are
bounded away from zero the quotient form N/q is used; when a q encloses
zero (boxes touching the r3 = 0 edge, or the q22 = 0 closure corner of
J8) the engine switches to the cleared-denominator form
(N_high q_low - N_low q_high) * sign(q_low q_high), whose positivity is
equivalent to the gap's on the open region where the q signs are fixed.

One rule, _masked, makes a lane undecidable: it runs on a [1, 1]
stand-in and comes out NaN.  A distance enclosure touching zero (only
for boxes hanging over a collision corner of the closure) is masked in
its r_ij^(-3) (_MaskedBackend), so every lambda and pair bound that
reads it is NaN there, and the pairs of a plan share one evaluation per
slice of boxes.  A straddling q is masked in its lambda's quotient N/q,
which the slice's cache keeps with the straddle mask (_quotient), so a
plan of any number of pairs computes each of the nine quotients once per
slice; N and q are computed again for the cleared form only where a q
straddles 0.  A lane whose pair bound is NaN takes another pair's
bound, and it is NaN, so bisected, only when every pair is.  One loop,
_branch_and_bound, grows both the sixteen region certificates and the
annulus around the Krawczyk window, whose plan is the four ordered pairs
of the two gap components of kernel.LOCAL_PAIRS (a box where one of them
holds strictly has no zero of the gap map): boxes with certified bound
> 0 become leaves; the rest are bisected along their wider side
(_bisect), children certainly outside the region closure are dropped,
and the loop continues until done or the depth budget MAX_DEPTH runs
out.
A region box on which every pair's certified *upper* bound is negative
(with its center inside the region) disproves the plan outright and
aborts with CertificationRefuted — this is what the reversed-orientation
negative control exercises.

Certificates serialize every leaf as one row of float.hex() endpoints,
so that verification can recompute each bound bit-for-bit and replay the
bisection from the cover the header implies to check that the leaves tile
it exactly (_check_leaves, _replay).  A certificate file is exactly
json.dumps(to_payload()), whose rows _leaf_rows builds; _write_json
writes the same bytes to a file without a Python string per endpoint,
_WRITE_ROWS rows at a time, through the numpy float.hex() encoder
_hex_bytes and the row joiner _leaf_rows_json, and to_json is _write_json
into a string.

Every rule a certificate header obeys is stated once, here, and the
certifier, the verifier and the CLI all call it:

* the cut rule, recorded_cuts: which delta_b0 and truncation a region
  records under a run's delta and truncation (and _excluded, the square
  a recorded delta_b0 excludes);
* the range rule, _check_cuts: the widths, deltas and truncations a run
  may take and a header may hold; RunConfig.validate and
  certify_inequality refuse what _check_header rejects;
* the header codec, _hex/_unhex: floats as float.hex() strings, tuples
  as lists, None as null;
* the local construction: the center (1, 1), kernel.LOCAL_PAIRS,
  INNER_DELTA and SUBDIVISION are constants the verifier requires
  exactly; only the window half-width delta varies, within
  _check_window's range.  The map F it contracts is kernel.local_gaps:
  on vector intervals at the center (f_center) and on interval jets over
  the inner box's sub-boxes (the Jacobian).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import time
from contextlib import closing, nullcontext, suppress
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import Dict, Optional, Tuple

import numpy as np

from . import kernel
from .kernel import _BLOCK
from .forces import residual_vector
from .geometry import GRID_CAP, DomainError, _check_count
from .intervals import (
    Box2,
    DualBackend,
    VectorBackend,
    VInterval,
    dual_vars,
    pentagon_constants,
)
from .regions import (
    DELTA_B0,
    REGION_IDS,
    TRUNCATION_R5,
    PairCheck,
    Region,
    RegionPlan,
    cover_arrays,
    grid_cover,
    region_def,
    region_excises_b0,
    region_plan,
)
from .pool import _fan_out, _forks

FORMAT_VERSION = "starcc-certificate/1"
# the one verdict certify_all can reach; every failure raises instead
VERDICT = "UNIQUE-IN-WINDOW"

FORM_QUOTIENT = "q"
FORM_CLEARED = "c"
_FORMS = (FORM_QUOTIENT, FORM_CLEARED)


class BudgetExhausted(RuntimeError):
    """The bisection budget ran out with boxes still unresolved."""


class CertificationRefuted(RuntimeError):
    """A box inside the region has a certified negative gap."""


class ContractionFailure(RuntimeError):
    """The Krawczyk image is not strictly inside the window (or the
    Jacobian enclosure is singular, or the center residual too large)."""


class MalformedCertificate(ValueError):
    """Structurally invalid certificate, or one issued by a different
    build/plan than this verifier."""


class LeafBoundViolation(ValueError):
    """A stored leaf bound does not match its bit-exact recomputation or
    is not strictly positive."""


class CoverageGap(ValueError):
    """The leaves are not exactly the terminal boxes of a bisection of the
    cover that the certificate header implies: a kept box holds no leaf, a
    leaf nests in no box or in a box the bisection drops, or a terminal
    box holds two leaves."""


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


# bisection generations _branch_and_bound runs before BudgetExhausted, for
# the regions and for the annulus; read at each call
MAX_DEPTH = 48
# a run's scope: the RunConfig fields a bundle manifest's config holds, and
# no others
_SCOPE = ("max_box_width", "delta_b0", "truncation")


@dataclass
class RunConfig:
    """One run of certify_all: its scope (_SCOPE), which the manifest
    records, and how it runs (the rest)."""

    max_box_width: float = 0.02
    delta_b0: float = DELTA_B0
    truncation: float = TRUNCATION_R5
    threads: int = 4  # worker processes of certify_all (see pool._worker_count)
    output_dir: Optional[str] = None

    def validate(self) -> "RunConfig":
        _check_cuts(self.max_box_width, self.delta_b0, self.truncation)
        _check_count("threads", self.threads, 1)
        return self


def _check_cuts(max_box_width: float, delta_b0: Optional[float] = None,
                truncation: Optional[float] = None) -> None:
    """The range rule for the cuts of a run and of a certificate header
    (None: not recorded): 0 < max_box_width <= 0.5, 0 <= delta_b0 < 0.5
    and 1 + max_box_width < truncation < inf.  delta_b0 = 0 is allowed on
    purpose: it disables the B0 excision, which shows that certification
    must then fail next to the solution at (1, 1).  Raises ValueError
    naming the field."""
    w = max_box_width
    if not (0.0 < w <= 0.5):
        raise ValueError(f"max_box_width {w!r} outside (0, 0.5]")
    if delta_b0 is not None and not (0.0 <= delta_b0 < 0.5):
        raise ValueError(f"delta_b0 {delta_b0!r} outside [0, 0.5)")
    if truncation is not None and not (1.0 + w < truncation < math.inf):
        raise ValueError(
            f"truncation {truncation!r} must be finite and above"
            f" 1 + max_box_width")


def recorded_cuts(region_id: str, delta: Optional[float],
                  truncation: Optional[float]):
    """The cut rule: the (delta_b0, truncation) that a certificate of the
    region records under a run's delta and truncation.

    delta_b0 is delta when the region's closure may meet the square
    [1-delta, 1+delta]^2 (region_excises_b0), and truncation is kept for
    the unbounded regions; otherwise each is None, which excises or cuts
    nothing."""
    return (
        float(delta)
        if delta is not None and region_excises_b0(region_id, delta) else None,
        float(truncation)
        if truncation is not None and region_def(region_id).unbounded else None,
    )


def _excluded(delta_b0: Optional[float]):
    """The square (lo3, hi3, lo5, hi5) a header with this delta_b0 excludes."""
    d = delta_b0
    return None if d is None else (1.0 - d, 1.0 + d, 1.0 - d, 1.0 + d)


# ---------------------------------------------------------------------------
# Batch bound engine
# ---------------------------------------------------------------------------


def _masked(bad, x: VInterval, f) -> VInterval:
    """f(x) with NaN on the bad lanes, where f runs on a [1, 1] stand-in:
    the one rule for a lane the arithmetic cannot decide.  f is
    elementwise, so the other lanes keep the bits of f(x)."""
    if not bad.any():
        return f(x)
    y = f(VInterval(np.where(bad, 1.0, x.lo), np.where(bad, 1.0, x.hi)))
    return VInterval(np.where(bad, np.nan, y.lo), np.where(bad, np.nan, y.hi))


class _MaskedBackend(VectorBackend):
    """VectorBackend whose x^(-3/2) is NaN, not an exception, on lanes where
    the squared-distance enclosure touches zero (_masked), so every lambda
    that reads that distance is NaN there and the others are not.  It holds
    no state, so one evaluation's radii and cache can serve any set of
    lambdas."""

    def powneg32(self, x: VInterval) -> VInterval:  # type: ignore[override]
        return _masked(x.lo <= 0.0, x, VInterval.powneg32)


def _quotient(idx, eng: _MaskedBackend, radii, cache: dict):
    """(straddle, N/q) of lambda idx on the slice of radii: the lanes where
    its q straddles 0, and its quotient, NaN there (_masked).  It is kept
    in the slice's cache under ("lambda", idx), which no kernel key equals,
    so every pair that reads the lambda shares it; N and q are not kept."""
    key = ("lambda", idx)
    if key not in cache:
        q = kernel.lambda_den(eng, radii, *idx)  # 0-d for body 1
        n = kernel.lambda_num(eng, radii, *idx, cache=cache)
        straddle = q.straddles_zero()
        cache[key] = straddle, _masked(straddle, q, n.__truediv__)
    return cache[key]


def _pair_bounds(check: PairCheck, eng: _MaskedBackend, radii, cache: dict):
    """Certified (lower, upper) bounds of the gap and the form used, per
    lane of radii, from the lambdas of one evaluation on eng and its shared
    cache; NaN bounds mark the lanes where a distance of either lambda
    touches zero (undecidable).

    A lane takes the quotient form lambda_high - lambda_low of the two
    quotients in the slice's cache (_quotient) unless one of its two
    denominators straddles 0, where it takes the cleared form; so a plan
    computes each lambda's quotient once per slice whatever its number of
    pairs, and N and q are computed again only for a pair with a
    straddling lane.  The bits are those of the lane-wise choice."""
    st_lo, lam_lo = _quotient(check.low, eng, radii, cache)
    st_hi, lam_hi = _quotient(check.high, eng, radii, cache)
    gap = lam_hi - lam_lo
    straddle = st_lo | st_hi
    if not straddle.any():
        return gap.lo, gap.hi, np.full(gap.lo.shape, FORM_QUOTIENT)

    # cleared form: (N_high q_low - N_low q_high) * sign(q_low q_high)
    n_lo = kernel.lambda_num(eng, radii, *check.low, cache=cache)
    n_hi = kernel.lambda_num(eng, radii, *check.high, cache=cache)
    q_lo = kernel.lambda_den(eng, radii, *check.low)
    q_hi = kernel.lambda_den(eng, radii, *check.high)
    expr = n_hi * q_lo - n_lo * q_hi
    s = kernel.Q_SIGN[check.low] * kernel.Q_SIGN[check.high]
    cl_lo, cl_hi = (expr.lo, expr.hi) if s > 0 else (-expr.hi, -expr.lo)

    lo = np.where(straddle, cl_lo, gap.lo)
    hi = np.where(straddle, cl_hi, gap.hi)
    return lo, hi, np.where(straddle, FORM_CLEARED, FORM_QUOTIENT)


def _batch_bounds(plan: RegionPlan, lo3, hi3, lo5, hi5):
    """The pair-set bound: _pair_bounds of every pair of the plan on every
    box.  Per box, returns the largest lower bound that is not NaN, that
    pair's form and its index in plan.pairs (the first such pair on ties;
    pair 0 and NaN when every pair is NaN), and the largest upper bound,
    NaN when any pair's is, so that a box is certified negative only when
    every pair is.

    The lanes are evaluated in contiguous slices of at most _BLOCK, so the
    kernel's temporaries stay in cache; each slice has one backend, one set
    of radii and one cache, which every pair reads, so a lambda and its
    quotient are computed once per slice.  Every operation is elementwise
    and a cached value is the one computed alone, so the bits depend
    neither on the slicing nor on the other pairs of the plan."""
    n = lo3.size
    lo = np.empty(n)
    hi = np.empty(n)
    form = np.empty(n, dtype="<U1")
    pair = np.empty(n, dtype=np.int64)
    for start in range(0, n, _BLOCK):
        s = slice(start, start + _BLOCK)
        eng, cache = _MaskedBackend(), {}
        radii = kernel.derived_radii(eng, VInterval(lo3[s], hi3[s]), VInterval(lo5[s], hi5[s]))
        blo, bhi, bform, bpair = lo[s], hi[s], form[s], pair[s]  # views into the outputs
        blo[:], bhi[:], bform[:] = _pair_bounds(plan.pairs[0], eng, radii, cache)
        bpair[:] = 0
        for k, check in enumerate(plan.pairs[1:], 1):
            klo, khi, kform = _pair_bounds(check, eng, radii, cache)
            take = (klo > blo) | (np.isnan(blo) & ~np.isnan(klo))
            blo[take], bform[take], bpair[take] = klo[take], kform[take], k
            np.maximum(bhi, khi, out=bhi)  # maximum propagates NaN
    return lo, hi, form, pair


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def plan_signature(plan: RegionPlan) -> str:
    return plan.region + "{" + ";".join(p.describe() for p in plan.pairs) + "}"


def build_fingerprint() -> str:
    """sha256 over the format version, the golden-constant enclosures, the
    region tables and the plans — anything that would change certified
    numbers if it changed."""
    h = hashlib.sha256()
    h.update(FORMAT_VERSION.encode())
    pc = pentagon_constants()
    for iv in (pc.sqrt5, pc.a, pc.b, pc.half_a, pc.half_b) + pc.cos + pc.sin:
        h.update(f"{float(iv.lo).hex()}|{float(iv.hi).hex()};".encode())
    for rid in REGION_IDS:
        for c in region_def(rid).constraints:
            h.update(
                f"{rid}:{c.a.hex()},{c.b.hex()},{c.c.hex()},{c.op};".encode()
            )
        h.update(plan_signature(region_plan(rid)).encode())
    return h.hexdigest()


def _leaf_rows(lo3, hi3, lo5, hi5, forms, bounds) -> list:
    """Leaves as [lo3, hi3, lo5, hi5, form, bound] rows, floats in hex."""
    return [
        [
            float(a).hex(),
            float(b).hex(),
            float(c).hex(),
            float(d).hex(),
            str(f),
            float(g).hex(),
        ]
        for a, b, c, d, f, g in zip(lo3, hi3, lo5, hi5, forms, bounds)
    ]


@lru_cache(maxsize=1)
def _hex_tables():
    """Lookup tables of _hex_bytes, built on first use (a process that
    writes no certificate never pays for them): the hex digits, the two
    hex digits of every byte, the "p" exponent tail of every biased
    exponent with its digits right-aligned in the five bytes after the
    "p" (0 = no byte), and "0x1."."""
    digits = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
    byte = np.arange(256)
    pairs = np.stack((digits[byte >> 4], digits[byte & 0xF]), axis=1)
    e = np.arange(2048) - 1023
    a = np.abs(e)
    tails = np.zeros((2048, 6), dtype=np.uint8)
    tails[:, 0] = ord("p")
    tails[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    for col, scale in ((2, 1000), (3, 100), (4, 10)):
        tails[:, col] = np.where(a >= scale, ord("0") + a // scale % 10, 0)
    tails[:, 5] = ord("0") + a % 10
    # two- and four-byte units, so that one write fills several bytes
    prefix = np.frombuffer(b"0x1.", dtype=np.uint32)
    tables = (digits, pairs.view(np.uint16).ravel(), tails.view(np.uint16), prefix)
    for t in tables:
        t.flags.writeable = False  # shared by every caller
    return tables


_HEX_WIDTH = 24  # len("-0x1.fffffffffffffp+1023")
# rows per block of _write_json: a block's byte matrix, mask and text
# copies peak at about 420 bytes a row, so a block stays small beside the
# 127 bytes a row takes in the file
_WRITE_ROWS = 2048


def _hex_bytes(x, out: Optional[np.ndarray] = None) -> np.ndarray:
    """float.hex() of every lane of x, as an (n, 24) uint8 matrix in
    which 0 means "no byte" (written into out if given).

    Normal lanes are built from the IEEE-754 bit pattern: the sign, "0x1.",
    the 13 mantissa nibbles, "p" and the signed decimal exponent without
    leading zeros.  Lanes with a biased exponent of 0 or 0x7FF (zeros,
    subnormals, infinities, NaN) are copied from float.hex() one by one."""
    digits, pairs, tails, prefix = _hex_tables()
    x = np.ascontiguousarray(x, dtype="<f8").ravel()
    n = x.size
    if out is None:
        out = np.empty((n, _HEX_WIDTH), dtype=np.uint8)
    # little-endian bytes: byte 7 holds the sign and the top of the
    # exponent, the low nibble of byte 6 the top mantissa nibble
    b = x.view(np.uint8).reshape(n, 8)
    biased = ((b[:, 7].astype(np.intp) & 0x7F) << 4) | (b[:, 6] >> 4)
    np.multiply(b[:, 7] >> 7, ord("-"), out=out[:, 0])
    out[:, 1:5].view(np.uint32)[:] = prefix
    out[:, 5] = digits[b[:, 6] & 0xF]
    out[:, 6:18].view(np.uint16)[:] = pairs.take(b[:, 5::-1])
    out[:, 18:].view(np.uint16)[:] = tails.take(biased, axis=0)
    for j in np.flatnonzero((biased == 0) | (biased == 0x7FF)):
        s = float(x[j]).hex().encode()
        out[j] = 0
        out[j, : len(s)] = np.frombuffer(s, dtype=np.uint8)
    return out


def _form_codes(forms) -> np.ndarray:
    """The form labels as uint8 codes.  ValueError naming the first row
    whose label is not one character of _FORMS, as _parse_leaf_rows
    refuses it on read."""
    f = np.asarray(forms)
    bad = np.flatnonzero((f != FORM_QUOTIENT) & (f != FORM_CLEARED))
    if bad.size:
        j = int(bad[0])
        raise ValueError(f"row {j} has form {str(f[j])!r}, not one of {_FORMS}")
    return f.astype("<U1", copy=False).view(np.uint32).astype(np.uint8)


def _leaf_rows_json(lo3, hi3, lo5, hi5, forms, bounds) -> str:
    """json.dumps(_leaf_rows(...)) between its brackets, byte for byte,
    without building a Python string per endpoint.

    Each row is laid out in one byte matrix: '["', the four hex endpoints
    separated by '", "', the form, '", "', the hex bound and '"], ', with
    the last row's ', ' left out.  The hex pad bytes are then dropped.  A
    label outside _FORMS raises ValueError (_form_codes)."""
    labels = _form_codes(forms)
    sep = np.frombuffer(b'", "', dtype=np.uint8)
    rows = np.empty((labels.size, 2 + 5 * (_HEX_WIDTH + 4) + 1 + 4), dtype=np.uint8)
    rows[:, :2] = np.frombuffer(b'["', dtype=np.uint8)
    at = 2
    for v in (lo3, hi3, lo5, hi5):
        _hex_bytes(v, rows[:, at : at + _HEX_WIDTH])
        rows[:, at + _HEX_WIDTH : at + _HEX_WIDTH + 4] = sep
        at += _HEX_WIDTH + 4
    rows[:, at] = labels
    rows[:, at + 1 : at + 5] = sep
    at += 5
    _hex_bytes(bounds, rows[:, at : at + _HEX_WIDTH])
    rows[:, at + _HEX_WIDTH :] = np.frombuffer(b'"], ', dtype=np.uint8)
    rows[-1:, -2:] = 0  # the last row ends at its "]"
    return rows[rows != 0].tobytes().decode("ascii")


def _json_with(payload: dict, key: str, text: str) -> str:
    """json.dumps(payload) with the value under key replaced by the
    already-encoded JSON text (default separators, keys in order)."""
    return "{" + ", ".join(
        f"{json.dumps(k)}: {text if k == key else json.dumps(v)}"
        for k, v in payload.items()
    ) + "}"


def _write_json(fh, cert) -> None:
    """Write json.dumps(cert.to_payload()), byte for byte, to the text file
    fh: the header from _json_with around the rows key cert._ROWS, and the
    rows in blocks of _WRITE_ROWS (_leaf_rows_json of each block, joined by
    ", "), so that no text of the whole certificate is built."""
    # json.dumps escapes every control character, so the one NUL is the rows'
    head, tail = _json_with(cert._payload(None), cert._ROWS, "\0").split("\0")
    leaves = cert._leaves()
    fh.write(head + "[")
    for start in range(0, len(leaves[0]), _WRITE_ROWS):
        if start:
            fh.write(", ")
        fh.write(_leaf_rows_json(*(a[start : start + _WRITE_ROWS] for a in leaves)))
    fh.write("]" + tail)


def _json_text(cert) -> str:
    """_write_json into a string: the certificate's to_json()."""
    buf = io.StringIO()
    _write_json(buf, cert)
    return buf.getvalue()


def _parse_leaf_rows(rows):
    """Inverse of _leaf_rows: the (lo3, hi3, lo5, hi5, forms, bounds)
    arrays of the rows.  ValueError naming the first row that is not six
    entries with a form in _FORMS: the arrays would drop the rest."""
    for j, r in enumerate(rows):
        if type(r) is not list or len(r) != 6 or r[4] not in _FORMS:
            raise ValueError(
                f"row {j} is not [r3_lo, r3_hi, r5_lo, r5_hi, form, bound]"
                f" with form in {_FORMS}: {r!r:.200}")
    fh = float.fromhex
    lo3, hi3, lo5, hi5 = (np.array([fh(r[i]) for r in rows]) for i in range(4))
    forms = np.array([r[4] for r in rows], dtype="<U1")
    bounds = np.array([fh(r[5]) for r in rows])
    return lo3, hi3, lo5, hi5, forms, bounds


def _hex(v):
    """The header codec: a float as its float.hex() string, a tuple as the
    list of its encoded items, None as None (JSON null)."""
    if v is None:
        return None
    if isinstance(v, (tuple, list)):
        return [_hex(x) for x in v]
    return float(v).hex()


def _unhex(v):
    """Inverse of _hex: hex strings to floats, lists to tuples, null to None."""
    if v is None:
        return None
    if isinstance(v, list):
        return tuple(_unhex(x) for x in v)
    return float.fromhex(v)


def _decode(cls, d: dict, kind: str, plain):
    """The cls certificate of payload d: the cls._HEXED fields through
    _unhex, the rows under cls._ROWS as the cls._LEAVES arrays, and the
    fields plain(d) gives as they are.  The rows may also be given already
    parsed, as the tuple _parse_leaf_rows returns (cli._load_payload reads
    them so).  Raises MalformedCertificate; rows under the other kind's key
    (_ROWS_KEYS) are named as a kind that does not match them, and any
    other key that d lacks as a missing field."""
    try:
        if d["format"] != FORMAT_VERSION or d["kind"] != kind:
            raise MalformedCertificate(
                f"unsupported format {d.get('format')!r}/{d.get('kind')!r}"
            )
        if cls._ROWS not in d:
            for key in _ROWS_KEYS:
                if key in d:
                    raise MalformedCertificate(
                        f"bad {kind} certificate: kind {kind!r} does not match its"
                        f" rows key {key!r} (a {kind} certificate has {cls._ROWS!r})")
        rows = d[cls._ROWS]
        if type(rows) is not tuple:  # JSON gives lists, never tuples
            rows = _parse_leaf_rows(rows)
        return cls(
            **{key: _unhex(d[key]) for key in cls._HEXED},
            **dict(zip(cls._LEAVES, rows)),
            **plain(d),
        )
    except MalformedCertificate:
        raise
    except KeyError as exc:
        raise MalformedCertificate(
            f"bad {kind} certificate: missing field {exc.args[0]!r}") from exc
    except Exception as exc:
        raise MalformedCertificate(f"bad {kind} certificate: {exc}") from exc


@dataclass
class Certificate:
    """Verified-inequality certificate for one region.

    Leaves are parallel arrays; `bounds` holds the leaf's largest
    certified lower bound over the gaps of the plan's pairs, all strictly
    positive.
    """

    region: str
    plan: str
    max_box_width: float
    delta_b0: Optional[float]
    truncation: Optional[float]
    excluded: Optional[Tuple[float, float, float, float]]
    lo3: np.ndarray
    hi3: np.ndarray
    lo5: np.ndarray
    hi5: np.ndarray
    bounds: np.ndarray
    forms: np.ndarray
    min_bound: float = 0.0
    stats: Dict[str, float] = field(default_factory=dict)
    fingerprint: str = ""

    _HEXED = ("max_box_width", "delta_b0", "truncation", "excluded", "min_bound")
    _LEAVES = ("lo3", "hi3", "lo5", "hi5", "forms", "bounds")
    _ROWS = "leaves"

    def n_leaves(self) -> int:
        return int(self.lo3.size)

    def _leaves(self):
        return tuple(getattr(self, key) for key in self._LEAVES)

    def to_payload(self) -> dict:
        return self._payload(_leaf_rows(*self._leaves()))

    def to_json(self) -> str:
        """json.dumps(self.to_payload()), byte for byte."""
        return _json_text(self)

    def _payload(self, rows) -> dict:
        return {
            "format": FORMAT_VERSION,
            "kind": "inequality",
            "region": self.region,
            "plan": self.plan,
            **{key: _hex(getattr(self, key)) for key in self._HEXED},
            "stats": dict(self.stats),  # editing a payload leaves self alone
            "fingerprint": self.fingerprint,
            "leaves": rows,
        }

    @staticmethod
    def from_payload(d: dict) -> "Certificate":
        return _decode(Certificate, d, "inequality", lambda d: {
            "region": d["region"],
            "plan": d["plan"],
            "stats": dict(d.get("stats", {})),
            "fingerprint": d["fingerprint"],
        })


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------

_BOX_CAP = GRID_CAP


def _grid_cells(rid: str, width: float, truncation: Optional[float]) -> float:
    """Upper bound on the cells of the region's initial grid (snap lines
    add at most a few edges per axis); a bounded region ignores the
    truncation.  Raises ValueError on an empty truncated bbox."""
    r3lo, r3hi, r5lo, r5hi = region_def(rid).bbox(truncation)
    return ((r3hi - r3lo) / width + 8.0) * ((r5hi - r5lo) / width + 8.0)


def _bisect(l3, h3, l5, h5):
    """Split every box at the midpoint of its wider side (r3 on ties).

    Returns the children as (lo3, hi3, lo5, hi5): the lower halves of all
    boxes first, then the upper halves in the same order.  The certifier
    and the verifier's replay share this rule, so a replayed tree reaches
    the certified leaves bit for bit."""
    split3 = (h3 - l3) >= (h5 - l5)
    m3 = 0.5 * (l3 + h3)
    m5 = 0.5 * (l5 + h5)
    return (
        np.concatenate([l3, np.where(split3, m3, l3)]),
        np.concatenate([np.where(split3, m3, h3), h3]),
        np.concatenate([l5, np.where(split3, l5, m5)]),
        np.concatenate([np.where(split3, h5, m5), h5]),
    )


def _lex_ordered(keys) -> bool:
    """Whether the rows of the key arrays are already in the order
    np.lexsort(keys[::-1]) gives, first key first: every row compares <=
    the next.  The sort is stable, so it would then return every row in
    place, and skipping it changes no byte."""
    le = keys[-1][:-1] <= keys[-1][1:]
    for k in keys[-2::-1]:
        a, b = k[:-1], k[1:]
        le = (a < b) | ((a == b) & le)
    return bool(le.all())


def _branch_and_bound(plan: RegionPlan, boxes, region: Optional[Region] = None):
    """Certify the plan on every box of the initial cover, bisecting until
    done.

    _batch_bounds gives each box a certified lower bound and its form; a
    box with bound > 0 becomes a leaf (NaN never does).  The others are
    split by _bisect.  Given the region, the children that its
    boxes_outside_closure certifies to miss the closure are dropped, and a
    box with a certified negative upper bound whose center lies in the
    region raises CertificationRefuted; without one, neither happens.
    Raises BudgetExhausted once boxes remain after MAX_DEPTH generations
    or more than _BOX_CAP boxes were made.  Errors name plan.region.
    Returns the leaves (lo3, hi3, lo5, hi5, forms, bounds) sorted
    lexicographically, and the counters a certificate's stats record.
    """
    what = plan.region
    lo3, hi3, lo5, hi5 = boxes
    del boxes  # so that the first bisection frees the initial cover
    n_initial = int(lo3.size)
    parts = []
    depth = 0
    evals = 0
    total_boxes = n_initial
    while lo3.size:
        if depth > MAX_DEPTH:
            j = int(np.argmax(hi3 - lo3))
            raise BudgetExhausted(
                f"{what}: {lo3.size} boxes unresolved at depth {MAX_DEPTH}, "
                f"e.g. r3=[{lo3[j]}, {hi3[j]}], r5=[{lo5[j]}, {hi5[j]}]"
            )
        if total_boxes > _BOX_CAP:
            raise BudgetExhausted(f"{what}: box count exceeded {_BOX_CAP}")
        bound, upper, form, _ = _batch_bounds(plan, lo3, hi3, lo5, hi5)
        refuted = () if region is None else np.flatnonzero(
            np.isfinite(upper) & (upper < 0.0))
        for j in refuted:
            if region.contains((0.5 * (lo3[j] + hi3[j]), 0.5 * (lo5[j] + hi5[j]))):
                raise CertificationRefuted(
                    f"{what}: certified negative gap {upper[j]:.6g} on "
                    f"r3=[{lo3[j]}, {hi3[j]}], r5=[{lo5[j]}, {hi5[j]}]"
                )
        evals += int(lo3.size)
        ok = bound > 0.0  # NaN compares false
        if np.any(ok):
            parts.append((lo3[ok], hi3[ok], lo5[ok], hi5[ok], form[ok], bound[ok]))
        rest = ~ok
        if not np.any(rest):
            break
        lo3, hi3, lo5, hi5 = _bisect(lo3[rest], hi3[rest], lo5[rest], hi5[rest])
        if region is not None:
            keep = ~region.boxes_outside_closure(lo3, hi3, lo5, hi5)
            lo3, hi3, lo5, hi5 = lo3[keep], hi3[keep], lo5[keep], hi5[keep]
        total_boxes += int(lo3.size)
        depth += 1

    if not parts:
        raise BudgetExhausted(f"{what}: no box could be certified")
    leaves = [np.concatenate([p[i] for p in parts]) for i in range(6)]
    if not _lex_ordered(leaves[:4]):
        order = np.lexsort((leaves[3], leaves[2], leaves[1], leaves[0]))
        leaves = [a[order] for a in leaves]
    stats = {
        "boxes_initial": n_initial,
        "boxes_total": total_boxes,
        "leaves": int(leaves[0].size),
        "max_depth": depth,
        "evaluations": evals,
    }
    return tuple(leaves), stats


def certify_inequality(
    region_id: str,
    max_box_width: float = 0.02,
    truncation: Optional[float] = None,
    delta: float = DELTA_B0,
    plan: Optional[RegionPlan] = None,
) -> Certificate:
    """Certify the region's plan over its whole cover.

    delta and truncation are the run's cuts; the region records and uses
    what recorded_cuts gives for them.  Raises ValueError, before any grid
    is built, for a header _check_header would reject,
    CertificationRefuted if a box inside the region has a certified
    negative gap, BudgetExhausted if the grid exceeds _BOX_CAP cells or
    boxes remain unresolved after MAX_DEPTH bisection generations.
    """
    t0 = time.perf_counter()
    reg = region_def(region_id)
    delta_b0, cut = recorded_cuts(region_id, delta, truncation)
    _check_cuts(max_box_width, delta_b0, cut)
    cells = _grid_cells(region_id, max_box_width, cut)
    if cells > _BOX_CAP:
        raise BudgetExhausted(
            f"{region_id}: width {max_box_width!r} and truncation"
            f" {cut!r} imply a grid of {cells:.3g} cells")
    the_plan = plan if plan is not None else region_plan(region_id)
    (lo3, hi3, lo5, hi5, forms, leaf_bounds), stats = _branch_and_bound(
        the_plan,
        cover_arrays(region_id, max_box_width, cut, delta_b0),
        reg,
    )
    stats["wall_seconds"] = round(time.perf_counter() - t0, 3)
    return Certificate(
        region=region_id,
        plan=plan_signature(the_plan),
        max_box_width=float(max_box_width),
        delta_b0=delta_b0,
        truncation=cut,
        excluded=_excluded(delta_b0),
        lo3=lo3,
        hi3=hi3,
        lo5=lo5,
        hi5=hi5,
        bounds=leaf_bounds,
        forms=forms,
        min_bound=float(leaf_bounds.min()),
        stats=stats,
        fingerprint=build_fingerprint(),
    )


# ---------------------------------------------------------------------------
# Krawczyk local uniqueness
# ---------------------------------------------------------------------------

# The Krawczyk contraction runs on a small box around the pentagon point;
# the rest of the window is handled by certified zero-exclusion, because
# the Jacobian of the gap map varies too much across the full window for
# a single contraction test to close (the exact-range operator norm is
# already 0.92 there).  The center, the inner box and its Jacobian
# sub-boxes per axis are fixed; a certificate records them, and the
# verifier requires the recorded values exactly.
CENTER = (1.0, 1.0)
INNER_DELTA = 0.002
SUBDIVISION = 8
ANNULUS_BOX_WIDTH = 0.002
# Largest center residual |F(1, 1)| the local certifier accepts.
_POSTERIORI_TOL = 1e-10


def _pair_labels() -> Tuple[str, str]:
    """The pair_map a local certificate records for kernel.LOCAL_PAIRS."""
    return tuple(
        f"lambda_{a[0]}{a[1]} - lambda_{b[0]}{b[1]}" for a, b in kernel.LOCAL_PAIRS
    )


def _check_window(delta, error=DomainError) -> None:
    """The range rule of the local window: INNER_DELTA < delta < 0.5."""
    if not (isinstance(delta, float) and INNER_DELTA < delta < 0.5):
        raise error(f"window half-width delta {delta!r} outside ({INNER_DELTA}, 0.5)")


@dataclass
class LocalUniquenessCertificate:
    """Evidence that the window holds exactly one zero of the two-gap map.

    Structure: the Krawczyk map contracts the inner (1±INNER_DELTA) box
    into itself (existence and uniqueness there, with a nonsingular
    Jacobian enclosure), and every box of the surrounding annulus is a
    leaf of _ANNULUS_PLAN: one of the two gap components has a certified
    sign on it, so no zero lies outside the inner box.  Like a region
    leaf, an annulus leaf stores the form and the largest certified lower
    bound over the plan's pairs (_batch_bounds).  The center residual pins
    that unique zero to the pentagon point."""

    delta: float
    inner_delta: float
    center: Tuple[float, float]
    pair_map: Tuple[str, str]
    subdivision: int
    y_matrix: Tuple[Tuple[float, float], Tuple[float, float]]
    f_center: Tuple[Tuple[float, float], ...]
    jacobian: Tuple[Tuple[Tuple[float, float], ...], ...]
    det_jacobian: Tuple[float, float]
    k_image: Tuple[Tuple[float, float], ...]
    containment_margin: float
    posteriori_residual: float
    ann_lo3: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ann_hi3: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ann_lo5: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ann_hi5: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ann_form: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype="<U1"))
    ann_bound: np.ndarray = field(default_factory=lambda: np.zeros(0))
    fingerprint: str = ""

    _HEXED = ("delta", "inner_delta", "center", "y_matrix", "f_center", "jacobian",
              "det_jacobian", "k_image", "containment_margin", "posteriori_residual")
    _LEAVES = ("ann_lo3", "ann_hi3", "ann_lo5", "ann_hi5", "ann_form", "ann_bound")
    _ROWS = "annulus"

    def _leaves(self):
        return tuple(getattr(self, key) for key in self._LEAVES)

    def to_payload(self) -> dict:
        return self._payload(_leaf_rows(*self._leaves()))

    def to_json(self) -> str:
        """json.dumps(self.to_payload()), byte for byte."""
        return _json_text(self)

    def _payload(self, rows) -> dict:
        return {
            "format": FORMAT_VERSION,
            "kind": "local-uniqueness",
            "delta": _hex(self.delta),
            "inner_delta": _hex(self.inner_delta),
            "center": _hex(self.center),
            "pair_map": list(self.pair_map),
            "subdivision": self.subdivision,
            "y_matrix": _hex(self.y_matrix),
            "f_center": _hex(self.f_center),
            "jacobian": _hex(self.jacobian),
            "det_jacobian": _hex(self.det_jacobian),
            "k_image": _hex(self.k_image),
            "containment_margin": _hex(self.containment_margin),
            "posteriori_residual": _hex(self.posteriori_residual),
            "annulus": rows,
            "fingerprint": self.fingerprint,
        }

    @staticmethod
    def from_payload(d: dict) -> "LocalUniquenessCertificate":
        return _decode(LocalUniquenessCertificate, d, "local-uniqueness", lambda d: {
            "pair_map": tuple(d["pair_map"]),
            "subdivision": d["subdivision"],
            "fingerprint": d["fingerprint"],
        })


# the rows key of each certificate kind
_ROWS_KEYS = (Certificate._ROWS, LocalUniquenessCertificate._ROWS)


def _contraction_evidence(inner_delta: float, subdivision: int):
    """Krawczyk enclosures on the inner box around CENTER, computed
    rigorously; the keys are LocalUniquenessCertificate fields."""
    inner = Box2.from_bounds(
        1.0 - inner_delta, 1.0 + inner_delta, 1.0 - inner_delta, 1.0 + inner_delta
    )

    fm = kernel.local_gaps(VectorBackend(), *Box2.point(*CENTER))

    # Jacobian enclosure over the inner box: hull over a subdivision grid,
    # one VInterval lane per sub-box.
    edges = np.linspace(float(inner.r3.lo), float(inner.r3.hi), subdivision + 1)
    i0, j0 = np.divmod(np.arange(subdivision * subdivision), subdivision)
    subs = Box2(
        VInterval(edges[i0], edges[i0 + 1]), VInterval(edges[j0], edges[j0 + 1])
    )
    J = [
        [VInterval(dv.lo.min(), dv.hi.max()) for dv in (g.d3, g.d5)]
        for g in kernel.local_gaps(DualBackend(), *dual_vars(subs))
    ]

    det = J[0][0] * J[1][1] - J[0][1] * J[1][0]

    # midpoint Jacobian -> approximate inverse Y (plain floats)
    jm = [[float(J[r][c].mid()) for c in range(2)] for r in range(2)]
    dm = jm[0][0] * jm[1][1] - jm[0][1] * jm[1][0]
    Y = ((jm[1][1] / dm, -jm[0][1] / dm), (-jm[1][0] / dm, jm[0][0] / dm))

    # K = m - Y F(m) + (I - Y J)(X - m)
    dx = inner.r3 - CENTER[0]
    dy = inner.r5 - CENTER[1]
    K = []
    for r in range(2):
        yr = Y[r]
        shift = yr[0] * fm[0] + yr[1] * fm[1]
        R0 = (1.0 if r == 0 else 0.0) - (yr[0] * J[0][0] + yr[1] * J[1][0])
        R1 = (1.0 if r == 1 else 0.0) - (yr[0] * J[0][1] + yr[1] * J[1][1])
        K.append(CENTER[r] - shift + R0 * dx + R1 * dy)

    def ends(iv):
        return (float(iv.lo), float(iv.hi))

    f_center = tuple(ends(g) for g in fm)
    k_image = tuple(ends(k) for k in K)
    (i3, I3), (i5, I5) = ends(inner.r3), ends(inner.r5)
    return {
        "f_center": f_center,
        "jacobian": tuple(tuple(ends(J[r][c]) for c in range(2)) for r in range(2)),
        "det_jacobian": ends(det),
        "y_matrix": Y,
        "k_image": k_image,
        "containment_margin": min(
            k_image[0][0] - i3, I3 - k_image[0][1], k_image[1][0] - i5, I5 - k_image[1][1]
        ),
        "posteriori_residual": max(max(abs(lo), abs(hi)) for lo, hi in f_center),
    }


# For each gap component lambda_a - lambda_b of F, the pairs that give it
# a certified sign: lambda_b < lambda_a (positive) and lambda_a < lambda_b
# (negative).
_ANNULUS_PLAN = RegionPlan("annulus", tuple(
    PairCheck(low, high) for a, b in kernel.LOCAL_PAIRS for low, high in ((b, a), (a, b))))


def _annulus_cover(delta):
    """Grid boxes of width <= ANNULUS_BOX_WIDTH covering the window
    [1-delta, 1+delta]^2 minus the inner box, as (lo3, hi3, lo5, hi5)."""
    return grid_cover((1.0 - delta, 1.0 + delta) * 2, ANNULUS_BOX_WIDTH,
                      (1.0 - INNER_DELTA, 1.0 + INNER_DELTA))


def _check_contraction(ev: dict) -> None:
    """The acceptance rule of the Krawczyk evidence ev (_contraction_evidence):
    the image strictly inside the inner box, a Jacobian determinant
    enclosure without 0 and a center residual within _POSTERIORI_TOL."""
    if ev["containment_margin"] <= 0.0:
        raise ContractionFailure("Krawczyk image not strictly contained"
                                 f" (margin {ev['containment_margin']:.3e})")
    dlo, dhi = ev["det_jacobian"]
    if dlo <= 0.0 <= dhi:
        raise ContractionFailure(f"Jacobian enclosure det [{dlo}, {dhi}] contains 0")
    if ev["posteriori_residual"] > _POSTERIORI_TOL:
        raise ContractionFailure(
            f"center residual {ev['posteriori_residual']:.3e} > {_POSTERIORI_TOL}")


def certify_local_uniqueness(delta: float = DELTA_B0) -> LocalUniquenessCertificate:
    """Certificate that the (1±delta) square holds exactly one zero of
    the two-gap map, and the center is that zero to within
    _POSTERIORI_TOL."""
    _check_window(float(delta))
    ev = _contraction_evidence(INNER_DELTA, SUBDIVISION)
    _check_contraction(ev)
    ann, _ = _branch_and_bound(_ANNULUS_PLAN, _annulus_cover(delta))
    return LocalUniquenessCertificate(
        delta=float(delta),
        inner_delta=INNER_DELTA,
        center=CENTER,
        pair_map=_pair_labels(),
        subdivision=SUBDIVISION,
        **ev,
        ann_lo3=ann[0],
        ann_hi3=ann[1],
        ann_lo5=ann[2],
        ann_hi5=ann[3],
        ann_form=ann[4],
        ann_bound=ann[5],
        fingerprint=build_fingerprint(),
    )


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def _require(cert, cls):
    """cert, which must be a cls instance: callers parse a payload with
    cls.from_payload first."""
    if not isinstance(cert, cls):
        raise MalformedCertificate(
            f"cannot interpret {type(cert).__name__} as {cls.__name__}"
        )
    return cert


def _at(leaves, j) -> str:
    lo3, hi3, lo5, hi5 = leaves[:4]
    return (
        f"leaf {j} at r3=[{float(lo3[j])!r}, {float(hi3[j])!r}],"
        f" r5=[{float(lo5[j])!r}, {float(hi5[j])!r}]"
    )


def _check_leaves(plan: RegionPlan, leaves, cover, outside) -> None:
    """The leaf check both verifiers share.

    leaves is (lo3, hi3, lo5, hi5, forms, bounds) as stored.  Every bound
    must be finite and positive and equal, together with its form, the
    plan's pair-set bound (_batch_bounds) recomputed bit for bit; then
    the leaves must tile the cover (_replay with outside).  Errors name
    plan.region.
    """
    what = plan.region
    lo3, hi3, lo5, hi5, forms, bounds = leaves
    if lo3.size == 0:
        raise MalformedCertificate(f"{what}: certificate has no leaves")
    if not np.all(np.isfinite(bounds)) or not np.all(bounds > 0.0):
        raise LeafBoundViolation(
            f"{what}: stored bounds must all be finite and positive"
        )
    got, _, form, _ = _batch_bounds(plan, lo3, hi3, lo5, hi5)
    same = (got == bounds) & (form == forms)
    if not np.all(same):
        j = int(np.flatnonzero(~same)[0])
        raise LeafBoundViolation(
            f"{what}: {_at(leaves, j)}: stored bound {float(bounds[j])!r}/"
            f"{forms[j]} recomputes to {float(got[j])!r}/{form[j]}"
        )
    _replay(cover, (lo3, hi3, lo5, hi5), outside, what)


def _check_header(c: Certificate) -> None:
    """The header fields that define the cover must be ones the certifier
    can have written: cuts within the range rule (_check_cuts), a fixed
    point of the cut rule (recorded_cuts), `excluded` the square of
    delta_b0, and a cover of sane size."""
    w = c.max_box_width
    try:
        _check_cuts(w, c.delta_b0, c.truncation)
    except (TypeError, ValueError) as exc:
        raise MalformedCertificate(f"{c.region}: {exc}") from exc
    try:
        cells = _grid_cells(c.region, w, c.truncation)
    except ValueError as exc:  # Region.bbox names the region
        raise MalformedCertificate(str(exc)) from exc
    want = recorded_cuts(c.region, c.delta_b0, c.truncation)
    if want != (c.delta_b0, c.truncation):
        raise MalformedCertificate(
            f"{c.region}: records delta_b0 {c.delta_b0!r} and truncation"
            f" {c.truncation!r}, but the cut rule records {want!r} for them"
        )
    if c.excluded != _excluded(c.delta_b0):
        raise MalformedCertificate(
            f"{c.region}: excluded {c.excluded!r} is not the square of"
            f" delta_b0 {c.delta_b0!r}"
        )
    # every kept cell of the cover holds a leaf, so a header whose grid
    # dwarfs the leaf count cannot verify; refuse it before building it
    if cells > 16 * c.n_leaves() + 65536:
        raise MalformedCertificate(
            f"{c.region}: max_box_width {w!r} implies a grid of"
            f" {cells:.3g} cells for {c.n_leaves()} leaves"
        )


def verify_certificate(cert) -> bool:
    """Re-derive everything a region certificate claims.

    * fingerprint and plan must match this build exactly;
    * every leaf bound is recomputed bit-for-bit and must be positive;
    * the leaves must be exactly the terminal boxes of a bisection of the
      cover that the header (region, max_box_width, truncation, delta_b0)
      implies (coverage replay, see _replay).
    """
    c = _require(cert, Certificate)
    if c.region not in REGION_IDS:
        raise MalformedCertificate(f"unknown region {c.region!r}")
    if c.fingerprint != build_fingerprint():
        raise MalformedCertificate("fingerprint does not match this build")
    plan = region_plan(c.region)
    if c.plan != plan_signature(plan):
        raise MalformedCertificate("plan does not match this build")
    _check_header(c)
    _check_leaves(
        plan,
        c._leaves(),
        cover_arrays(c.region, c.max_box_width, c.truncation, c.delta_b0),
        region_def(c.region).boxes_outside_closure,
    )
    if float(c.bounds.min()) != c.min_bound:
        raise LeafBoundViolation("min_bound does not equal the leaf minimum")
    return True


def _replay(cover, leaves, outside, what: str) -> None:
    """Check that the leaves are exactly the terminal boxes of a bisection
    of the initial cover under the certifier's split rule (_bisect).

    Generation by generation, every box owns the leaves nested in it.  A
    box equal to its single leaf is terminal; every other box is bisected,
    each of its leaves must nest in one child, and the children that
    `outside(lo3, hi3, lo5, hi5)` certifies to miss the region closure are
    dropped (outside=None drops none).  CoverageGap is raised when a kept
    box holds no leaf, a leaf nests in no box, a terminal box holds a
    second leaf, or a leaf lies in a dropped child.  Acceptance therefore
    means the leaves tile the cover minus certified-outside boxes, exactly
    and without overlap.  Work is O(leaves x depth), all in numpy.
    """
    lo3, hi3, lo5, hi5 = leaves

    def nests(j, k, b3, B3, b5, B5):
        return (
            (lo3[j] >= b3[k])
            & (hi3[j] <= B3[k])
            & (lo5[j] >= b5[k])
            & (hi5[j] <= B5[k])
        )

    flat = ~((lo3 < hi3) & (lo5 < hi5))  # also catches NaN
    if np.any(flat):
        raise CoverageGap(
            f"{what}: {_at(leaves, int(np.flatnonzero(flat)[0]))} has an empty interior"
        )

    b3, B3, b5, B5 = cover
    # The initial cover is a grid with some cells left out, so the only
    # cell a leaf can nest in is the one whose lower grid lines are the
    # last ones at or below the leaf's lower corner; nesting is then
    # checked exactly.
    u3, col = np.unique(b3, return_inverse=True)
    u5, row = np.unique(b5, return_inverse=True)
    cell = np.full((u3.size, u5.size), -1, dtype=np.int64)
    cell[col, row] = np.arange(b3.size)
    i3 = np.searchsorted(u3, lo3, side="right") - 1
    i5 = np.searchsorted(u5, lo5, side="right") - 1
    act = np.arange(lo3.size)
    own = np.where((i3 >= 0) & (i5 >= 0), cell[i3, i5], -1)
    stray = (own < 0) | ~nests(act, own, b3, B3, b5, B5)
    if np.any(stray):
        raise CoverageGap(
            f"{what}: {_at(leaves, int(np.flatnonzero(stray)[0]))} lies in no box of"
            f" the initial cover"
        )

    depth = 0
    while True:
        counts = np.bincount(own, minlength=b3.size)
        if np.any(counts == 0):
            k = int(np.flatnonzero(counts == 0)[0])
            raise CoverageGap(
                f"{what}: box r3=[{float(b3[k])!r}, {float(B3[k])!r}],"
                f" r5=[{float(b5[k])!r}, {float(B5[k])!r}] at bisection depth"
                f" {depth} holds no leaf"
            )
        eq = (
            (lo3[act] == b3[own])
            & (hi3[act] == B3[own])
            & (lo5[act] == b5[own])
            & (hi5[act] == B5[own])
        )
        crowded = eq & (counts[own] > 1)
        if np.any(crowded):
            raise CoverageGap(
                f"{what}: {_at(leaves, int(act[np.flatnonzero(crowded)[0]]))} shares"
                f" its terminal box with another leaf"
            )
        split = np.ones(b3.size, dtype=bool)
        split[own[eq]] = False
        act, own = act[~eq], own[~eq]
        if act.size == 0:
            return

        half = int(np.count_nonzero(split))
        c3, C3, c5, C5 = _bisect(b3[split], B3[split], b5[split], B5[split])
        k = (np.cumsum(split) - 1)[own]
        in_low = nests(act, k, c3, C3, c5, C5)
        child = np.where(in_low, k, k + half)
        straddle = ~in_low & ~nests(act, child, c3, C3, c5, C5)
        if np.any(straddle):
            raise CoverageGap(
                f"{what}: {_at(leaves, int(act[np.flatnonzero(straddle)[0]]))} straddles"
                f" the split of its box at bisection depth {depth}"
            )
        keep = np.ones(2 * half, dtype=bool)
        if outside is not None:
            keep = ~outside(c3, C3, c5, C5)
        lost = ~keep[child]
        if np.any(lost):
            raise CoverageGap(
                f"{what}: {_at(leaves, int(act[np.flatnonzero(lost)[0]]))} lies in a"
                f" box the bisection drops as outside the region closure"
            )
        own = (np.cumsum(keep) - 1)[child]
        b3, B3, b5, B5 = c3[keep], C3[keep], c5[keep], C5[keep]
        depth += 1


def _same_shape(a, b) -> bool:
    """True if the nested tuples a and b have the same structure."""
    if isinstance(b, tuple):
        return (isinstance(a, tuple) and len(a) == len(b)
                and all(map(_same_shape, a, b)))
    return not isinstance(a, tuple)


def verify_local_certificate(cert) -> bool:
    """Require the fixed construction (center, pair_map, inner_delta and
    subdivision exactly) and a window delta in range, recompute the
    contraction evidence and every annulus bound (the pair-set bound of
    _ANNULUS_PLAN) bit-for-bit, re-check the acceptance rule
    (_check_contraction) and replay the annulus cover from the
    recorded delta."""
    cert = _require(cert, LocalUniquenessCertificate)
    if cert.fingerprint != build_fingerprint():
        raise MalformedCertificate("fingerprint does not match this build")
    fixed = {
        "center": CENTER,
        "pair_map": _pair_labels(),
        "inner_delta": INNER_DELTA,
        "subdivision": SUBDIVISION,
    }
    for key, want in fixed.items():
        got = getattr(cert, key)
        if got != want:
            raise MalformedCertificate(f"{key} {got!r} is not the fixed {want!r}")
    _check_window(cert.delta, MalformedCertificate)
    evidence = _contraction_evidence(INNER_DELTA, SUBDIVISION)
    for key, want in evidence.items():
        got = getattr(cert, key)
        if not _same_shape(got, want):
            raise MalformedCertificate(
                f"local certificate field {key} {got!r} is not shaped like {want!r}")
        if got != want:
            raise LeafBoundViolation(f"local certificate field {key} does not recompute")
    _check_contraction(evidence)  # which every stored field now equals

    _check_leaves(_ANNULUS_PLAN, cert._leaves(), _annulus_cover(cert.delta), None)
    return True


# ---------------------------------------------------------------------------
# The full run
# ---------------------------------------------------------------------------


def _summary(cert) -> dict:
    """What the bundle manifest states of a verified piece, apart from the
    informative stats: a region's min_bound and leaf count, or the local
    certificate's containment margin and center residual."""
    if isinstance(cert, LocalUniquenessCertificate):
        return {"containment_margin": cert.containment_margin,
                "posteriori_residual": cert.posteriori_residual}
    return {"min_bound": cert.min_bound, "leaves": cert.n_leaves()}


@dataclass
class CertificationManifest:
    verdict: str
    config: Dict[str, object]
    local: LocalUniquenessCertificate
    certificates: Dict[str, Certificate]
    solution_witness: Dict[str, object]
    wall_seconds: float
    fingerprint: str

    def summary_payload(self) -> dict:
        return {
            "format": FORMAT_VERSION,
            "kind": "manifest",
            "verdict": self.verdict,
            "config": self.config,
            "fingerprint": self.fingerprint,
            "wall_seconds": self.wall_seconds,
            "solution_witness": self.solution_witness,
            "local": _summary(self.local),
            "regions": {rid: {**_summary(cert), "stats": cert.stats}
                        for rid, cert in self.certificates.items()},
        }


def _solution_witness() -> Dict[str, object]:
    """Floating and interval evidence that the pentagon point solves the
    central-configuration system."""
    res = residual_vector((1.0, 1.0))
    bk, pt = VectorBackend(), Box2.point(1.0, 1.0)
    g1, g2 = kernel.local_gaps(bk, *pt)
    y1 = kernel.y1_num(bk, *pt)
    return {
        "pairwise_spread": res.pairwise_spread,
        "y1": res.y1,
        "is_solution": res.is_solution(),
        "gap_enclosures_contain_zero": bool(g1.contains(0.0) and g2.contains(0.0)),
        "y1_enclosure_contains_zero": bool(y1.contains(0.0)),
    }


def _certify_piece(piece: str, cfg: RunConfig, spool: Optional[str] = None):
    """The job for one piece of the bundle: the certificate of region
    `piece`, or the local certificate for piece "local".  Given
    cfg.output_dir, the job also writes the certificate's JSON to
    <output_dir>/<piece>.json (_write_json, so no text of the whole file is
    built).  Given a spool directory, it saves the six arrays of
    cert._leaves() one after another with np.save to <spool>/<piece>.npy
    and returns the certificate with those six fields None, which
    _unspool fills again; so no JSON text and no leaf array crosses the
    pool."""
    if piece == "local":
        cert = certify_local_uniqueness(delta=cfg.delta_b0)
    else:
        cert = certify_inequality(
            piece,
            max_box_width=cfg.max_box_width,
            truncation=cfg.truncation,
            delta=cfg.delta_b0,
        )
    if cfg.output_dir is not None:
        with open(os.path.join(cfg.output_dir, f"{piece}.json"), "w",
                  encoding="utf-8") as fh:
            _write_json(fh, cert)
    if spool is None:
        return cert
    with open(os.path.join(spool, f"{piece}.npy"), "wb") as fh:
        for leaves in cert._leaves():
            np.save(fh, leaves)
    return replace(cert, **dict.fromkeys(cert._LEAVES))


def _unspool(spool: str, piece: str, cert):
    """cert, returned by _certify_piece(piece, cfg, spool), with its leaf
    arrays read back from <spool>/<piece>.npy as plain writeable arrays
    of the dtypes they were saved with; the file is deleted."""
    path = os.path.join(spool, f"{piece}.npy")
    with open(path, "rb") as fh:
        leaves = [np.load(fh) for _ in cert._LEAVES]
    os.remove(path)
    return replace(cert, **dict(zip(cert._LEAVES, leaves)))


def certify_all(config: Optional[RunConfig] = None) -> CertificationManifest:
    """Local certificate + all sixteen region certificates.

    Verdict VERDICT requires every piece; any failure raises.
    The seventeen pieces are independent jobs for pool._fan_out: up to
    cfg.threads fork-started worker processes (pool._worker_count caps them;
    one runs every piece in this process).  The pool takes the local
    certificate first and then the regions largest first, by _grid_cells,
    so that the longest one (J15) starts at once instead of setting the
    wall time from the back of the queue.  Certificates do not depend on
    the worker count or the order.  A failure raises the first one in the
    order local certificate, solution witness, J1..J16, whatever the
    worker count, and the manifest lists the regions in REGION_IDS order.

    When the run forks (pool._forks), each job saves its leaf arrays to a
    spool directory that tempfile makes (prefix "starcc-", under TMPDIR
    when that is writable), and they are read back here in job order
    (_unspool), so no JSON text and no leaf array crosses the pool.  The
    directory is removed once the pool has closed, after a failure too.
    A spool that cannot be made raises tempfile's OSError, which names the
    path.  In process no spool is made.

    Given cfg.output_dir, the job that certifies a piece writes it there,
    and any manifest.json there is removed before the first job starts, so
    a run that fails part way leaves no manifest over a mix of old and new
    pieces; the caller writes the new one last.  An output_dir that is not
    a directory raises FileNotFoundError before any job.  Without an
    output_dir nothing is written.
    """
    cfg = (config or RunConfig()).validate()
    # the local certificate's window rule fails first, before any fork
    _check_window(float(cfg.delta_b0))
    if cfg.output_dir is not None:
        if not os.path.isdir(cfg.output_dir):
            raise FileNotFoundError(f"no output directory {cfg.output_dir!r}")
        with suppress(FileNotFoundError):
            os.remove(os.path.join(cfg.output_dir, "manifest.json"))
    t0 = time.perf_counter()

    def cost(job) -> float:
        piece = job[0]
        if piece == "local":
            return math.inf
        return _grid_cells(piece, cfg.max_box_width, cfg.truncation)

    pieces = ("local",) + REGION_IDS
    spool_dir = nullcontext()  # in process: no spool
    if _forks(cfg.threads, len(pieces)):
        import tempfile  # on first use, so that `import starcc` stays light

        spool_dir = tempfile.TemporaryDirectory(prefix="starcc-")
    with spool_dir as spool:
        jobs = [(p, cfg, spool) for p in pieces]
        # closed before the spool goes: shutdown waits for the started jobs
        with closing(_fan_out(_certify_piece, jobs, cfg.threads, cost)) as results:
            if spool is not None:
                results = map(partial(_unspool, spool), pieces, results)
            local = next(results)
            witness = _solution_witness()
            if not witness["is_solution"]:
                raise ContractionFailure("pentagon point fails the residual gate")
            certs = dict(zip(REGION_IDS, results))

    return CertificationManifest(
        verdict=VERDICT,
        config={key: getattr(cfg, key) for key in _SCOPE},
        local=local,
        certificates=certs,
        solution_witness=witness,
        wall_seconds=round(time.perf_counter() - t0, 3),
        fingerprint=build_fingerprint(),
    )
