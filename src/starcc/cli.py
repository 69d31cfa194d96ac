"""Command-line front end.

Subcommands
    eval      evaluate lambda values / the full residual at a point
    hessian   finite-difference Hessian check against the closed forms
    certify   produce region + local certificates (one region or all)
    verify    independently re-check certificate files or a bundle dir
    scan      multi-start Newton scan, prints a RootReport as JSON
    plotdata  CSV grids (region ids, residual fields, per-region gaps)

Exit codes: 0 success; 2 domain error / bad window / bad config;
3 certification refuted or contraction failure; 4 budget exhausted;
5 verification rejected.  CSV floats carry 17 significant digits,
evaluated values print with 15; see docs/formats.md for the column and
JSON layouts.  A run of `certify` is set by its flags alone; the output
directory for certificates resolves in order: --output flag,
STARCC_OUTPUT_DIR, then ./certificates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import closing
from typing import List, Optional

import numpy as np

from . import kernel
from .certify import (
    FORMAT_VERSION,
    VERDICT,
    BudgetExhausted,
    Certificate,
    CertificationRefuted,
    ContractionFailure,
    LocalUniquenessCertificate,
    MalformedCertificate,
    RunConfig,
    _ROWS_KEYS,
    _SCOPE,
    _certify_piece,
    _parse_leaf_rows,
    _solution_witness,
    _summary,
    certify_all,
    verify_certificate,
    verify_local_certificate,
)
from .forces import (
    HESSIAN_CLOSED_FORM,
    HESSIAN_CLOSED_FORM_DET,
    hessian_measure,
    lambda_component,
    residual_vector,
)
from .geometry import GRID_CAP, DomainError, _check_tolerance
from .pool import _fan_out
from .regions import REGION_IDS, TRUNCATION_R5, region_def, region_plan
from .solver import grid_scan

OUTPUT_DIR_ENV = "STARCC_OUTPUT_DIR"
DEFAULT_OUTPUT_DIR = "certificates"

EXIT_DOMAIN = 2
EXIT_CERTIFICATION = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5

# the RunConfig field each `certify` option sets, by the option's dest
_FLAGS = {"width": "max_box_width", "delta": "delta_b0", "truncate_r5": "truncation",
          "threads": "threads", "output": "output_dir"}


def _g15(x: float) -> str:
    return f"{float(x):.15g}"


def _g17(x: float) -> str:
    return f"{float(x):.17g}"


def _load_run_config(args) -> RunConfig:
    """Defaults <- STARCC_OUTPUT_DIR <- flags."""
    values = {}
    env_dir = os.environ.get(OUTPUT_DIR_ENV)
    if env_dir:
        values["output_dir"] = env_dir
    for dest, key in _FLAGS.items():
        v = getattr(args, dest)
        if v is not None:
            values[key] = v
    return RunConfig(**values).validate()


def _resolve_outdir(cfg: RunConfig) -> str:
    """Put the directory certificates go to on cfg, made if missing."""
    cfg.output_dir = cfg.output_dir or DEFAULT_OUTPUT_DIR
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


# ---------------------------------------------------------------------------
# eval


def _parse_index(text: str):
    if len(text) == 2 and text.isdigit():
        idx = (int(text[0]), int(text[1]))
        if idx in kernel.LAMBDA_INDICES:
            return idx
    valid = ", ".join(f"{i}{k}" for i, k in kernel.LAMBDA_INDICES)
    raise ValueError(f"index must be one of {valid} (got {text!r})")


def cmd_eval(args) -> int:
    p = (args.r3, args.r5)
    if args.index is not None:
        idx = _parse_index(args.index)
        value = lambda_component(idx, p)
        if args.json:
            print(json.dumps({"r3": p[0], "r5": p[1],
                              f"lambda_{idx[0]}{idx[1]}": value}))
        else:
            print(f"lambda_{idx[0]}{idx[1]}({_g15(p[0])}, {_g15(p[1])}) = {_g15(value)}")
        return 0
    res = residual_vector(p)
    if args.json:
        print(json.dumps({
            "r3": p[0], "r5": p[1],
            "lambda": {f"{i}{k}": v for (i, k), v in res.lambda_values.items()},
            "y1": res.y1, "spread": res.pairwise_spread,
        }, indent=2))
        return 0
    for (i, k), v in sorted(res.lambda_values.items()):
        print(f"lambda_{i}{k} = {_g15(v)}")
    print(f"y1     = {_g15(res.y1)}")
    print(f"spread = {_g15(res.pairwise_spread)}")
    return 0


# ---------------------------------------------------------------------------
# hessian


def cmd_hessian(args) -> int:
    _check_tolerance(args.tol)
    h = hessian_measure((1.0, 1.0), h=args.step, richardson=not args.no_richardson)
    det = float(np.linalg.det(h))
    targets = HESSIAN_CLOSED_FORM
    entries = {
        "h11": (h[0, 0], targets[0][0]),
        "h12": (h[0, 1], targets[0][1]),
        "h22": (h[1, 1], targets[1][1]),
        "det": (det, HESSIAN_CLOSED_FORM_DET),
    }
    rel = {k: abs(v - t) / abs(t) for k, (v, t) in entries.items()}
    worst = max(rel.values())
    verdict = "PASS" if worst <= args.tol else "FAIL"
    record = {
        "point": [1.0, 1.0],
        "step": args.step,
        "richardson": not args.no_richardson,
        "numeric": {k: v for k, (v, _) in entries.items()},
        "closed_form": {k: t for k, (_, t) in entries.items()},
        "relative_error": rel,
        "leading_minors_positive": bool(h[0, 0] > 0.0 and det > 0.0),
        "tolerance": args.tol,
        "verdict": verdict,
    }
    if args.json:
        print(json.dumps(record, indent=2))
        return 0
    print(f"Hessian of the configuration measure at (1, 1), step {args.step:g}:")
    for k in ("h11", "h12", "h22", "det"):
        v, t = entries[k]
        print(f"  {k}: numeric {_g15(v)}  closed form {_g15(t)}"
              f"  rel.err {rel[k]:.3e}")
    print(f"  leading minors positive: {record['leading_minors_positive']}"
          " (local minimum)")
    print(f"  worst relative error {worst:.3e} vs tolerance {args.tol:g}"
          f" -> {verdict}")
    if verdict == "FAIL":
        print("  note: the check is O(h^2); steps above ~1e-3 trade accuracy"
              " for stencil width and are expected to miss the tolerance.")
    return 0


# ---------------------------------------------------------------------------
# certify


def _print_region_row(cert: Certificate) -> None:
    s = cert.stats
    print(f"  {cert.region:<4} leaves {cert.n_leaves():>6}  depth {s['max_depth']:>2}"
          f"  min_gap {cert.min_bound:.6e}  {s['wall_seconds']:7.2f}s")


def _scope(delta: float, truncation: float) -> str:
    """What a bundle's verdict covers: its r5 cut and window half-width."""
    return f"r5 <= {truncation:g}, window delta {delta:g}"


def cmd_certify(args) -> int:
    target = args.target
    if target != "all" and target not in REGION_IDS:
        raise ValueError(f"unknown region {target!r}; use J1..J16 or 'all'")
    cfg = _load_run_config(args)
    outdir = _resolve_outdir(cfg)

    if target == "all":
        # the pool's jobs write the pieces; the manifest goes last
        manifest = certify_all(cfg)
        for rid in REGION_IDS:
            _print_region_row(manifest.certificates[rid])
        with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest.summary_payload(), fh, indent=2)
        loc = manifest.local
        print(f"  local uniqueness on [1-{loc.delta:g}, 1+{loc.delta:g}]^2:"
              f" containment margin {loc.containment_margin:.4e},"
              f" residual {loc.posteriori_residual:.2e},"
              f" annulus leaves {loc.ann_lo3.size}")
        print(f"verdict: {manifest.verdict}  ({_scope(cfg.delta_b0, cfg.truncation)};"
              f" {manifest.wall_seconds:.2f}s total,"
              f" fingerprint {manifest.fingerprint[:16]})")
        print(f"bundle written to {outdir}")
        return 0

    cert = _certify_piece(target, cfg)
    _print_region_row(cert)
    if region_def(target).unbounded:
        print(f"  truncated at r5 <= {cert.truncation:g} (recorded in the certificate)")
    print(f"certificate written to {os.path.join(outdir, target + '.json')}")
    return 0


# ---------------------------------------------------------------------------
# verify


# json's own pieces, which json.decoder.JSONObject walks an object with
_scan_once = json.JSONDecoder().scan_once
_ws = json.decoder.WHITESPACE.match
# the top-level arrays of leaf rows (under certify._ROWS_KEYS), read in
# chunks of about _CHUNK_ROWS rows: a row as written takes 127 bytes of
# text, and json.loads makes about 470 bytes of lists and strings of it,
# so a chunk's text and lists stay small beside the 44 bytes of leaf
# arrays that each row of the file is read into
_CHUNK_ROWS = 512
# the reader takes text from the file _READ_CHARS characters at a time,
# and more at once only where the next chunk of rows reaches further
_READ_CHARS = 1 << 16


class _Text:
    """The text of an open file, read as far as a search or a scan needs.

    text holds what has been read and not yet let go of (a reader lets
    go of a prefix by slicing text); every index is into text.  A search
    reads as far as it must look, and then, like a scan, as much again as
    it has looked at each time, so a long value costs O(its length)."""

    def __init__(self, fh):
        self.fh, self.text, self.eof = fh, "", False

    def more(self, n: int) -> bool:
        """Read max(n, _READ_CHARS) more characters, or the rest of the
        file; False once nothing is left."""
        block = self.fh.read(max(n, _READ_CHARS))
        self.text += block
        self.eof = not block
        return not self.eof

    def find(self, sub: str, start: int) -> int:
        """text.find(sub, start), with text read as far as the first such
        sub, or to the end of the file (-1)."""
        at = start
        while (found := self.text.find(sub, at)) < 0:
            at = max(start, len(self.text) - len(sub) + 1)
            short = start + len(sub) - len(self.text)
            if not self.more(short if short > 0 else len(self.text) - start):
                return -1
        return found

    def ws(self, at: int) -> int:
        """The end of the JSON whitespace at text[at:], read as far as it
        goes."""
        start = at
        while (at := _ws(self.text, at).end()) == len(self.text) \
                and self.more(at - start):
            pass
        return at

    def scan(self, scan, at: int):
        """scan(text, at) of a (value, end) scanner of the value at
        text[at], with text read as far as the value goes: while the scan
        raises, or ends within two characters of the end of the text, it
        runs again on more text, until the file ends.  A number can go on
        after such an end: "1." and "1e+" end at "1" until "5" follows."""
        while True:
            try:
                value, end = scan(self.text, at)
                if end + 2 < len(self.text) or self.eof:
                    return value, end
            except (ValueError, StopIteration):  # not JSON, or no value
                if self.eof:
                    raise
            self.more(len(self.text) - at)


def _scan_rest(text: str, at: int):
    """_scan_once("[" + text[at:]): the array whose rows (after its "[" or
    a cut) begin at text[at], and the index just past it in text."""
    rows, end = _scan_once("[" + text[at:], 0)
    return rows, at - 1 + end


def _joined(parts: list) -> tuple:
    """The arrays of parts (_parse_leaf_rows tuples), each joined across
    them.  parts is emptied, and each array's pieces go once it is joined,
    so the rows are held about once, not twice."""
    columns = list(zip(*parts))
    parts.clear()
    return tuple(np.concatenate(columns.pop(0)) for _ in range(len(columns)))


def _scan_rows(t: _Text, at: int):
    """_parse_leaf_rows of the JSON array that opens at t.text[at], and the
    index in t.text just past it.

    The array is cut after a row's "]" wherever "], [" follows, about
    every _CHUNK_ROWS rows (as wide as the first), and each piece goes
    through json.loads("[" + piece + "]") and _parse_leaf_rows at once, and
    its text is let go of; the rest goes through _scan_rest, which also finds
    where the array ends.  A piece that is not JSON ends the cutting, and
    the rest starts where it did: a piece that runs past the array's end
    holds the next member's '"key":', so it never parses, and one that
    parses lies inside the array.  When every piece is an array, joining
    the pieces with the cut commas gives the whole array, by the JSON
    grammar, so the arrays are those of _parse_leaf_rows(json.loads(array)).
    Raises what _parse_leaf_rows or the rest raises."""
    pos = at + 1
    first = t.find("], [", pos)
    stride = max((_CHUNK_ROWS - 1) * (first + 3 - pos), 0)
    parts = []
    while (cut := t.find("], [", pos + stride)) >= 0:
        try:  # only json.loads raises JSONDecodeError
            parts.append(_parse_leaf_rows(json.loads("[" + t.text[pos : cut + 1] + "]")))
        except json.JSONDecodeError:
            break
        t.text, pos = t.text[cut + 2 :], 0
    rows, end = t.scan(_scan_rest, pos)
    parts.append(_parse_leaf_rows(rows))
    return _joined(parts), end


def _scan_payload(t: _Text) -> dict:
    """json.loads of the whole file for a JSON object with at least one
    key, the arrays under its top-level _ROWS_KEYS read by _scan_rows.  The
    object is walked as json.decoder.JSONObject walks it (of two equal
    keys the last wins, in the first one's place); anything else raises,
    including every text that json.loads rejects."""
    end = t.ws(0)
    if t.text[end : end + 1] != "{":
        raise ValueError("not an object")
    payload: dict = {}
    sep = ","
    while sep == ",":
        end = t.ws(end + 1)
        if t.text[end : end + 1] != '"':
            raise ValueError("expected a key")
        key, end = t.scan(json.decoder.scanstring, end + 1)
        end = t.ws(end)
        if t.text[end : end + 1] != ":":
            raise ValueError("expected ':'")
        end = t.ws(end + 1)
        if key in _ROWS_KEYS and t.text[end : end + 1] == "[":
            payload[key], end = _scan_rows(t, end)
        else:
            payload[key], end = t.scan(_scan_once, end)
        end = t.ws(end)
        sep = t.text[end : end + 1]
    if sep != "}" or t.ws(end + 1) != len(t.text):
        raise ValueError("expected ',' or '}' and nothing after it")
    return payload


def _load_payload(path: str) -> dict:
    """The JSON object in the file at path, read by _scan_payload a block at
    a time, its top-level leaf rows already parsed; on any error in that
    reader, json.loads of the whole text with the rows left as lists, so
    that every rejection keeps the plain path's message (a byte that is
    not UTF-8 is named at its place in the file)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = _scan_payload(_Text(fh))
    except Exception:  # the plain path below names the defect
        payload = None
    if payload is None:  # out of the handler, whose traceback holds the reader
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise MalformedCertificate(f"{path}: not valid UTF-8 ({exc})") from exc
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedCertificate(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "kind" not in payload:
        raise MalformedCertificate(f"{path}: missing 'kind' discriminator")
    return payload


def _verify_piece(path: str, piece: Optional[str] = None,
                  config: Optional[dict] = None):
    """Read, decode and verify the certificate file at path; return its
    manifest entry (certify._summary), its fingerprint and its ACCEPT line.

    Alone (piece None), the file is read as the kind it names.  As piece
    `piece` of a bundle (a region id or "local"), the slot fixes the kind,
    and config is the manifest's scope (_SCOPE), which every piece must
    share, or the pieces prove different claims: before the verifier runs,
    a region file must hold region `piece` and record the scope, and the
    local window must be delta_b0.  No leaf array is returned, so none
    crosses the pool."""
    payload = _load_payload(path)
    # looked up at each call, so that a wrapped verifier is the one that runs
    kinds = {"inequality": (Certificate, verify_certificate),
             "local-uniqueness": (LocalUniquenessCertificate, verify_local_certificate)}
    kind = payload["kind"] if piece is None else (
        "local-uniqueness" if piece == "local" else "inequality")
    if kind == "manifest":
        raise MalformedCertificate(
            f"{path}: manifests are verified as part of their bundle directory")
    if not isinstance(kind, str) or kind not in kinds:
        raise MalformedCertificate(f"{path}: unknown certificate kind {kind!r}")
    cls, verify = kinds[kind]
    try:
        cert = cls.from_payload(payload)
    except MalformedCertificate as exc:
        raise MalformedCertificate(f"{path}: {exc}") from exc
    if piece == "local" and cert.delta != config["delta_b0"]:
        raise MalformedCertificate(
            f"{path}: window half-width {cert.delta!r} differs from"
            f" the manifest's delta_b0 {config['delta_b0']!r}")
    if piece not in (None, "local"):
        if cert.region != piece:
            raise MalformedCertificate(f"{path}: holds region {cert.region}")
        scope = {k: getattr(cert, k) for k in _SCOPE}
        if scope != config:
            raise MalformedCertificate(
                f"{path}: {piece} records the scope {scope!r}, not the"
                f" {config!r} of manifest.json")
    verify(cert)
    if kind == "inequality":
        gap = f"min_gap {cert.min_bound:.6e}"
        line = (f"{piece}: {gap}, {cert.n_leaves()} leaves" if piece else
                f"{path}: region {cert.region}, {cert.n_leaves()} leaves, {gap}")
    else:
        margin = f"margin {cert.containment_margin:.4e}"
        line = (f"local: {margin}, {cert.ann_lo3.size} annulus leaves" if piece
                else f"{path}: local uniqueness, {margin}")
    return _summary(cert), cert.fingerprint, "ACCEPT " + line


def _file_size(job) -> int:
    try:
        return os.path.getsize(job[0])
    except OSError:  # a missing file fails in its job
        return 0


def _is_number(v) -> bool:
    """Whether v is what json.loads makes of a JSON number (a JSON true
    loads as a bool, which is an int too)."""
    return type(v) in (int, float)


def _verify_bundle(dirpath: str) -> List[str]:
    """Verify the sixteen region files and local.json, and that the
    manifest says what they say.

    The manifest's config must be exactly the numbers _SCOPE, which every
    piece must share (_verify_piece), and its solution_witness must have
    the keys and the true booleans that certify._solution_witness() gives
    here; its floats go through libm's pow, which is not correctly rounded
    on every platform, so they are informative.
    The manifest must list exactly the pieces J1..J16 and local, and each
    entry, without its informative stats, must equal the verified piece's
    (certify._summary), under the pieces' fingerprint.  Each file is a
    _verify_piece job for _fan_out, on as many fork-started worker
    processes as there are CPUs (the largest file first); on one CPU they
    run in this process.  The results are checked in the order J1..J16,
    local, and a job's failure is raised when its turn comes, so the first
    defect in that order is the one reported, whatever the worker count."""
    manifest_path = os.path.join(dirpath, "manifest.json")
    if not os.path.exists(manifest_path):
        raise MalformedCertificate(f"{dirpath}: no manifest.json")
    manifest = _load_payload(manifest_path)
    for key, want in (("kind", "manifest"), ("format", FORMAT_VERSION),
                      ("verdict", VERDICT)):
        if manifest.get(key) != want:
            raise MalformedCertificate(
                f"{manifest_path}: {key} {manifest.get(key)!r} is not {want!r}")
    config, regions = manifest.get("config"), manifest.get("regions")
    if not (isinstance(config, dict) and config.keys() == set(_SCOPE)
            and all(map(_is_number, config.values()))):
        raise MalformedCertificate(
            f"{manifest_path}: config must hold exactly the numbers"
            f" {', '.join(_SCOPE)}, not {config!r}")
    witness, said = _solution_witness(), manifest.get("solution_witness")
    flags = [k for k, v in witness.items() if type(v) is bool]
    if not (isinstance(said, dict) and said.keys() == witness.keys()
            and all(said[k] is witness[k] is True for k in flags)):
        raise MalformedCertificate(
            f"{manifest_path}: solution_witness {said!r} does not hold the"
            f" true {', '.join(flags)} recomputed here: {witness!r}")
    if not (isinstance(regions, dict) and set(regions) == set(REGION_IDS)
            and "local" in manifest):
        raise MalformedCertificate(
            f"{manifest_path}: must list the regions J1..J16 and local, no others")
    claims = {**regions, "local": manifest["local"]}
    jobs = [(os.path.join(dirpath, f"{p}.json"), p, config)
            for p in REGION_IDS + ("local",)]
    lines = []
    with closing(_fan_out(_verify_piece, jobs, os.cpu_count() or 1,
                          _file_size)) as results:
        for (path, piece, _), (entry, fingerprint, line) in zip(jobs, results):
            claim = claims[piece]
            if isinstance(claim, dict):
                claim = {k: v for k, v in claim.items() if k != "stats"}
            if (claim, manifest.get("fingerprint")) != (entry, fingerprint):
                raise MalformedCertificate(
                    f"{manifest_path}: says {claim!r} of {piece}, fingerprint"
                    f" {manifest.get('fingerprint')!r}; {path} verifies as"
                    f" {entry!r}, fingerprint {fingerprint!r}")
            lines.append(line)
    scope = _scope(config["delta_b0"], config["truncation"])
    lines.append(f"bundle {dirpath}: verdict {VERDICT!r} confirmed ({scope})")
    return lines


def cmd_verify(args) -> int:
    if not os.path.exists(args.path):
        # a missing path is a usage error, not a rejected certificate
        raise OSError(f"no such file or directory: {args.path}")
    try:
        if os.path.isdir(args.path):
            for line in _verify_bundle(args.path):
                print(line)
        else:
            print(_verify_piece(args.path)[2])
        return 0
    except Exception as exc:  # any defect means rejection
        print(f"REJECT: {exc}", file=sys.stderr)
        return EXIT_VERIFY


# ---------------------------------------------------------------------------
# scan


def cmd_scan(args) -> int:
    lo3, hi3, lo5, hi5 = args.window
    report = grid_scan(((lo3, hi3), (lo5, hi5)), args.starts,
                       tol=args.tol, seed=args.seed)
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"{len(report.roots)} root(s); report written to {args.out}")
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# plotdata


def _grid_axes(window, n):
    lo3, hi3, lo5, hi5 = window
    if not (lo3 < hi3 and lo5 < hi5 and np.all(np.isfinite(window))) or n < 2:
        raise DomainError(f"bad plot window {window} / grid {n}")
    if n * n > GRID_CAP:
        raise DomainError(f"grid {n} asks for {n * n} > {GRID_CAP} nodes")
    g3 = np.linspace(lo3, hi3, n)
    g5 = np.linspace(lo5, hi5, n)
    r3, r5 = np.meshgrid(g3, g5, indexing="ij")
    return r3.ravel(), r5.ravel()


def _domain_filter(r3, r5):
    keep = kernel.in_domain((r3, r5))
    return r3[keep], r5[keep]


def _emit_csv(out, header, rows) -> None:
    fh = open(out, "w", encoding="utf-8") if out else sys.stdout
    try:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    finally:
        if out:
            fh.close()


def _plot_regions(args) -> None:
    from .regions import _membership_matrix

    r3, r5 = _domain_filter(*_grid_axes(args.window, args.grid))
    member = _membership_matrix(r3, r5)
    idx = np.argmax(member, axis=1)
    covered = member.any(axis=1)
    rows = (
        (_g17(a), _g17(b), REGION_IDS[i] if c else "none")
        for a, b, i, c in zip(r3, r5, idx, covered)
    )
    _emit_csv(args.out, ("r3", "r5", "region"), rows)


def _plot_spread(args) -> None:
    r3, r5 = _domain_filter(*_grid_axes(args.window, args.grid))
    bk = kernel.FloatBackend
    cache: dict = {}
    values = [kernel.lambda_quot(bk, r3, r5, i, k, cache)
              for i, k in kernel.LAMBDA_INDICES]
    stack = np.stack(values)
    spread = stack.max(axis=0) - stack.min(axis=0)
    y1 = kernel.y1_num(bk, r3, r5, cache)
    rows = (
        (_g17(a), _g17(b), _g17(s), _g17(y))
        for a, b, s, y in zip(r3, r5, spread, y1)
    )
    _emit_csv(args.out, ("r3", "r5", "spread", "y1"), rows)


def _plot_gap(args, rid: str) -> None:
    if not np.isfinite(args.truncate_r5):
        raise DomainError(f"truncation {args.truncate_r5} is not finite")
    region = region_def(rid)
    plan = region_plan(rid)
    r3, r5 = _grid_axes(region.bbox(args.truncate_r5), args.grid)
    keep = region.holds(r3, r5)
    r3, r5 = r3[keep], r5[keep]
    # each node is a point box; like the certifier, it takes the largest
    # gap over the plan's pairs
    bk = kernel.FloatBackend
    cache: dict = {}
    gaps = np.array([kernel.lambda_quot(bk, r3, r5, *check.high, cache)
                     - kernel.lambda_quot(bk, r3, r5, *check.low, cache)
                     for check in plan.pairs])
    labels = [f'"{c.describe()}"' for c in plan.pairs]
    rows = (
        (_g17(a), _g17(b), _g17(v), labels[k])
        for a, b, v, k in zip(r3, r5, gaps.max(axis=0), gaps.argmax(axis=0))
    )
    _emit_csv(args.out, ("r3", "r5", "value", "check"), rows)


def cmd_plotdata(args) -> int:
    what = args.what
    if what == "regions":
        _plot_regions(args)
    elif what == "spread":
        _plot_spread(args)
    elif what.startswith("gap-") and what[4:] in REGION_IDS:
        _plot_gap(args, what[4:])
    else:
        raise ValueError(
            f"unknown plotdata kind {what!r}; use regions, spread, or gap-J<n>")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="starcc",
        description="Star central configurations of five equal masses:"
                    " evaluate, scan, certify, verify.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate lambda values / residual at a point")
    p.add_argument("r3", type=float)
    p.add_argument("r5", type=float)
    p.add_argument("--index", help="one lambda, e.g. --index 31 for lambda_31;"
                   " without it, the full residual")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("hessian", help="Hessian check at (1,1) vs closed forms")
    p.add_argument("--step", type=float, default=1e-4,
                   help="finite-difference step in [1e-6, 1e-2] (default 1e-4)")
    p.add_argument("--tol", type=float, default=1e-5,
                   help="relative-error threshold for the PASS verdict;"
                        " finite and > 0")
    p.add_argument("--no-richardson", dest="no_richardson", action="store_true",
                   help="plain central differences: error grows as O(step^2)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hessian)

    p = sub.add_parser("certify", help="certify one region or everything")
    p.add_argument("target", help="J1..J16 or 'all'")
    p.add_argument("--width", type=float, help="max box width (default 0.02)")
    p.add_argument("--delta", type=float,
                   help="B0 half-width (default 0.02); 'certify all' needs"
                        " 0.002 < delta < 0.5 for its local window; 0 disables"
                        " the excision for one region")
    p.add_argument("--truncate-r5", dest="truncate_r5", type=float,
                   help="truncation for unbounded regions (default 10)")
    p.add_argument("--threads", type=int,
                   help="worker processes for 'certify all' (default 4), forked"
                        " and capped at the CPU count and the 17 pieces; 1 runs"
                        " in this process; certificates do not depend on it")
    p.add_argument("--output", help=f"output directory (or ${OUTPUT_DIR_ENV})")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="re-verify certificate file(s)")
    p.add_argument("path", help="certificate JSON file or bundle directory")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="multi-start Newton scan (JSON report)")
    p.add_argument("--window", type=float, nargs=4,
                   metavar=("R3LO", "R3HI", "R5LO", "R5HI"),
                   default=[0.2, 3.0, 0.2, 3.0])
    p.add_argument("--starts", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser(
        "plotdata",
        help="CSV grids for external plotting",
        description="Kinds: 'regions' (columns r3,r5,region over the window;"
                    " region is 'none' on uncovered boundary nodes);"
                    " 'spread' (columns r3,r5,spread,y1);"
                    " 'gap-J<n>' (columns r3,r5,value,check over that region;"
                    " value is the largest lambda_high - lambda_low over the"
                    " region's pairs, and check is that pair).",
    )
    p.add_argument("what", help="regions | spread | gap-J<n>")
    p.add_argument("grid", type=int, help="nodes per axis")
    p.add_argument("--window", type=float, nargs=4,
                   metavar=("R3LO", "R3HI", "R5LO", "R5HI"),
                   default=[0.0, 3.4, 0.0, 3.4],
                   help="plot window for regions/spread (default [0,3.4]^2)")
    p.add_argument("--truncate-r5", dest="truncate_r5", type=float,
                   default=TRUNCATION_R5,
                   help="bbox truncation for gap dumps on unbounded regions")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_plotdata)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (CertificationRefuted, ContractionFailure) as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
