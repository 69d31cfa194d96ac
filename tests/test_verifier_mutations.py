"""Every rejection of the certificate verifiers is load-bearing.

CONTROLS is the one home of `starcc verify`'s rejections: each row is a
negative control, a forged file or bundle (or a missing path) that the
genuine code refuses with the row's exit code, no stdout and a message
that the row's pattern matches.  Each `raise` statement of the verifier
functions (VERIFIERS) of starcc.certify and starcc.cli is blanked, one
at a time: the module is compiled from its source with that statement
turned into `pass` and loaded under another name, and a certify copy
gets a cli copy that imports it.  The controls then run against the copy
through its `starcc verify`, first the controls whose rejection by the
genuine code passes that raise (_reached).  A mutant that every control
still rejects, each with its own message, survives.  The test fails on a
survivor that is not on the allowlist SURVIVORS and on an allowlisted
site that no longer survives.  The controls pin messages; the exception
classes the verifiers raise are pinned on the files of 25 single-file rows.
"""

import ast
import contextlib
import io
import json
import math
import os
import re
import shutil
import sys
import traceback
import types
from pathlib import Path

import numpy as np
import pytest

from starcc import certify, cli
from starcc.regions import cover_arrays, region_def, region_plan

SRC = Path(cli.__file__).resolve().parent

# the functions whose raise statements are blanked, per module of starcc
VERIFIERS = {
    "certify": ("_parse_leaf_rows", "_decode", "_require", "_check_leaves",
                "_check_header", "verify_certificate", "_replay",
                "verify_local_certificate", "_check_window", "_check_contraction"),
    "cli": ("_load_payload", "_scan_payload", "_verify_piece", "_verify_bundle",
            "cmd_verify"),
}

# raise sites that no control reaches, "<module>.<function>#<k>" for the
# k-th raise of the function in source order, each with its reason
SURVIVORS = {
    "certify._require#0": "a type guard: both verifiers' callers decode a file"
                          " with cls.from_payload first, so no file reaches it",
}


def _raises(fn: ast.FunctionDef) -> list:
    return sorted((n for n in ast.walk(fn) if isinstance(n, ast.Raise)),
                  key=lambda n: (n.lineno, n.col_offset))


def _trees() -> dict:
    return {m: ast.parse((SRC / f"{m}.py").read_text(encoding="utf-8"))
            for m in VERIFIERS}


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == name)


def _sites() -> dict:
    """Each raise site: the (module name, line) of its raise statement."""
    trees = _trees()
    return {f"{m}.{name}#{k}": (f"starcc.{m}", node.lineno)
            for m, names in VERIFIERS.items() for name in names
            for k, node in enumerate(_raises(_function(trees[m], name)))}


class _Blank(ast.NodeTransformer):
    def __init__(self, target: ast.Raise):
        self.target = target

    def visit_Raise(self, node):
        return ast.copy_location(ast.Pass(), node) if node is self.target else node


def _load(name: str, tree: ast.Module):
    module = types.ModuleType(f"starcc.{name}")
    module.__package__ = "starcc"
    sys.modules[module.__name__] = module  # for its relative imports and dataclasses
    exec(compile(ast.fix_missing_locations(tree), module.__name__, "exec"),
         module.__dict__)
    return module


@contextlib.contextmanager
def _mutant(site: str):
    """A copy of starcc.cli, running a certify copy if site is in certify,
    with the raise statement at site turned into `pass`."""
    module, function, k = re.fullmatch(r"(\w+)\.(\w+)#(\d+)", site).groups()
    trees = _trees()
    _Blank(_raises(_function(trees[module], function))[int(k)]).visit(trees[module])
    try:
        if module == "certify":
            for node in ast.walk(trees["cli"]):
                if isinstance(node, ast.ImportFrom) and node.level == 1 \
                        and node.module == "certify":
                    node.module = "_mutant_certify"
            _load("_mutant_certify", trees["certify"])
        yield _load("_mutant_cli", trees["cli"])
    finally:
        sys.modules.pop("starcc._mutant_certify", None)
        sys.modules.pop("starcc._mutant_cli", None)


# ---------------------------------------------------------------------------
# the negative controls: forge(genuine, d) writes a forgery under the empty
# directory d (a copy of the genuine bundle for a bundle control) and
# returns the path to verify, or (path, patch) where patch maps names of
# the certify module the verifier runs to the values they take meanwhile.
# A pattern is a regex, or pattern(genuine) gives it

CONTROLS = []


def control(pattern, code: int = cli.EXIT_VERIFY, bundle: bool = False):
    def register(forge):
        assert all(forge.__name__ != row[0] for row in CONTROLS), forge.__name__
        CONTROLS.append((forge.__name__, pattern, code, bundle, forge))
        return forge
    return register


def _load_doc(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _write(path: Path, text) -> Path:
    path.write_text(text if isinstance(text, str) else json.dumps(text),
                    encoding="utf-8")
    return path


def _piece(genuine: Path, d: Path, piece: str, edit) -> Path:
    """d/<piece>.json: the genuine piece after edit(doc)."""
    doc = _load_doc(genuine / f"{piece}.json")
    edit(doc)
    return _write(d / f"{piece}.json", doc)


def _manifest(d: Path, edit) -> Path:
    doc = _load_doc(d / "manifest.json")
    edit(doc)
    _write(d / "manifest.json", doc)
    return d


def _resigned(genuine: Path, d: Path, rid: str, edit) -> Path:
    """d/<rid>.json with rows edit(cert, rows), every form, bound and
    min_bound recomputed and positive, so only the coverage replay objects."""
    doc = _load_doc(genuine / f"{rid}.json")
    rows = edit(certify.Certificate.from_payload(doc), doc["leaves"])
    lo3, hi3, lo5, hi5 = (np.array([float.fromhex(r[i]) for r in rows]) for i in range(4))
    bounds, _, forms, _ = certify._batch_bounds(region_plan(rid), lo3, hi3, lo5, hi5)
    assert np.all(bounds > 0.0)
    doc["leaves"] = [r[:4] + [str(f), float(b).hex()] for r, f, b in zip(rows, forms, bounds)]
    doc["min_bound"] = float(bounds.min()).hex()
    return _write(d / f"{rid}.json", doc)


def _cells(cert) -> np.ndarray:
    """Per leaf, the four edges of the cell of the initial cover it nests in."""
    cover = np.array(cover_arrays(cert.region, cert.max_box_width, cert.truncation,
                                  cert.delta_b0))
    lo3, hi3, lo5, hi5 = cert._leaves()[:4]
    inside = ((lo3[:, None] >= cover[0]) & (hi3[:, None] <= cover[1])
              & (lo5[:, None] >= cover[2]) & (hi5[:, None] <= cover[3]))
    return cover[:, inside.argmax(axis=1)]


def _grow(row, edge):
    """Move one edge of a leaf row outward by one ulp."""
    row[edge] = math.nextafter(float.fromhex(row[edge]),
                               -math.inf if edge % 2 == 0 else math.inf).hex()


def _local_with(genuine: Path, d: Path, evidence: dict):
    """local.json carrying the contraction evidence, which the verifier's
    recomputation returns too."""
    path = _piece(genuine, d, "local",
                  lambda doc: doc.update({k: certify._hex(v) for k, v in evidence.items()}))
    return path, {"_contraction_evidence": lambda *args: evidence}


# -- reading a file (cli._load_payload, cli._scan_payload) ---------------------


@control(r"^REJECT: \S+/J9\.json: not valid UTF-8 \(")
def not_utf8(genuine, d):
    path = shutil.copy(genuine / "J9.json", d)
    with open(path, "ab") as fh:
        fh.write(b"\xff")
    return path


@control(r"^REJECT: \S+/J9\.json: not valid JSON \(Unterminated string")
def cut_short(genuine, d):
    return _write(d / "J9.json", (genuine / "J9.json").read_text()[:-20])


@control(r"^REJECT: \S+/J9\.json: missing 'kind' discriminator$")
def no_kind(genuine, d):
    return _piece(genuine, d, "J9", lambda doc: doc.pop("kind"))


def _stray(at, message):
    # one stray character in place of the opening "{", of a key's opening
    # quote or of a ":": the chunked reader sends the text to json.loads
    def forge(genuine, d):
        text = (genuine / "J9.json").read_text()
        assert text.startswith('{"format": ')
        return _write(d / "J9.json", text[:at] + "x" + text[at + 1:])
    forge.__name__ = f"stray_character_at_{at}"
    control(rf"^REJECT: \S+/J9\.json: not valid JSON \({re.escape(message)}\)$")(forge)


_stray(0, "Expecting value: line 1 column 1 (char 0)")
_stray(1, "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)")
_stray(9, "Expecting ':' delimiter: line 1 column 10 (char 9)")


@control(r"^REJECT: \S+/J9\.json: not valid JSON \(Extra data")
def trailing_text(genuine, d):
    return _write(d / "J9.json", (genuine / "J9.json").read_text() + " x")


# -- decoding a piece (certify._decode, certify._parse_leaf_rows) --------------


@control(r"^REJECT: \S+/J9\.json: bad inequality certificate: row 3 is not \[r3_lo")
def seventh_entry_in_row_3(genuine, d):
    return _piece(genuine, d, "J9",
                  lambda doc: doc["leaves"][3].append(doc["leaves"][3][0]))


@control(r"^REJECT: \S+/J9\.json: unsupported format 'starcc-certificate/2'/'inequality'$")
def other_format(genuine, d):
    return _piece(genuine, d, "J9", lambda doc: doc.update(format="starcc-certificate/2"))


@control(r"^REJECT: \S+/J9\.json: bad local-uniqueness certificate: kind 'local-uniqueness'"
         r" does not match its rows key 'leaves' \(a local-uniqueness certificate has"
         r" 'annulus'\)$")
def region_relabelled_local(genuine, d):
    return _piece(genuine, d, "J9", lambda doc: doc.update(kind="local-uniqueness"))


@control(r"^REJECT: \S+/local\.json: bad inequality certificate: kind 'inequality' does not"
         r" match its rows key 'annulus' \(a inequality certificate has 'leaves'\)$")
def local_relabelled_inequality(genuine, d):
    return _piece(genuine, d, "local", lambda doc: doc.update(kind="inequality"))


@control(r"^REJECT: \S+/J9\.json: bad inequality certificate: missing field 'plan'$")
def no_plan(genuine, d):
    return _piece(genuine, d, "J9", lambda doc: doc.pop("plan"))


# -- a region certificate (certify.verify_certificate and its checks) ----------


@control(r"^REJECT: unknown region 'J17'$")
def unknown_region(genuine, d):
    return _piece(genuine, d, "J9", lambda doc: doc.update(region="J17"))


@control(r"^REJECT: fingerprint does not match this build$")
def region_fingerprint(genuine, d):
    return _piece(genuine, d, "J9", lambda doc: doc.update(fingerprint="0" * 64))


@control(r"^REJECT: plan does not match this build$")
def plan_short_of_a_pair(genuine, d):
    return _piece(genuine, d, "J4", lambda doc: doc.update(plan="J4{lambda_11 < lambda_52}"))


@control(r"^REJECT: J9: max_box_width 0\.7 outside \(0, 0\.5\]$")
def width_out_of_range(genuine, d):
    return _piece(genuine, d, "J9", lambda doc: doc.update(max_box_width=(0.7).hex()))


@control(r"^REJECT: J4: records delta_b0 .* but the cut rule records")
def bounded_region_truncated(genuine, d):
    return _piece(genuine, d, "J4", lambda doc: doc.update(truncation=(10.0).hex()))


@control(r"^REJECT: J15: truncation 2\.0 leaves the empty box"
         r" \(\S+, \S+, \S+, 2\.0\)$")
def header_truncated_below_the_floor(genuine, d):
    return _piece(genuine, d, "J15", lambda doc: doc.update(truncation=(2.0).hex()))


@control(r"^REJECT: J15: unbounded region: pass a truncation r5 bound$")
def header_without_truncation(genuine, d):
    return _piece(genuine, d, "J15", lambda doc: doc.update(truncation=None))


@control(r"^REJECT: J7: excluded .* is not the square of delta_b0")
def other_excluded_square(genuine, d):
    return _piece(genuine, d, "J7", lambda doc: doc.update(
        excluded=[(0.9).hex(), (1.1).hex(), (0.9).hex(), (1.1).hex()]))


@control(r"^REJECT: J5: max_box_width .* implies a grid of")
def grid_dwarfing_the_leaves(genuine, d):
    # just past the limit, so that a verifier without it builds a cover of
    # about 10^5 cells, not more
    doc = _load_doc(genuine / "J5.json")
    limit = 16 * len(doc["leaves"]) + 65536
    width = 0.1
    while certify._grid_cells("J5", width, None) <= limit:
        width *= 0.95
    return _piece(genuine, d, "J5", lambda doc: doc.update(max_box_width=width.hex()))


@control(r"^REJECT: J9: certificate has no leaves$")
def no_leaves(genuine, d):
    return _piece(genuine, d, "J9", lambda doc: doc.update(leaves=[]))


@control(r"^REJECT: J7: stored bounds must all be finite and positive$")
def merged_siblings(genuine, d):
    # the parent box with its true, negative bound recomputes bit for bit
    # and still tiles the cover
    def merge(doc):
        first, second = doc["leaves"][:2]
        parent = [float.fromhex(v) for v in first[:3] + second[3:4]]
        lo, _, form, _ = certify._batch_bounds(region_plan("J7"),
                                               *(np.array([v]) for v in parent))
        assert lo[0] < 0.0
        doc["leaves"][:2] = [[v.hex() for v in parent] + [str(form[0]), float(lo[0]).hex()]]
        doc["min_bound"] = min(float.fromhex(r[5]) for r in doc["leaves"]).hex()

    return _piece(genuine, d, "J7", merge)


@control(r"^REJECT: J9: leaf 3 at r3=\[\S+, \S+\], r5=\[\S+, \S+\]: stored bound \S+"
         r" recomputes to \S+$")
def tampered_bound(genuine, d):
    def double(doc):
        row = doc["leaves"][3]
        assert float.fromhex(row[5]) > float.fromhex(doc["min_bound"])
        row[5] = (float.fromhex(row[5]) * 2.0).hex()

    return _piece(genuine, d, "J9", double)


@control(r"^REJECT: min_bound does not equal the leaf minimum$")
def min_bound_one_ulp_up(genuine, d):
    return _piece(genuine, d, "J9", lambda doc: doc.update(
        min_bound=math.nextafter(float.fromhex(doc["min_bound"]), math.inf).hex()))


# -- the coverage replay (certify._replay) ---------------------------------------


@control(r"^REJECT: J5: leaf 7 at .* has an empty interior$")
def flat_leaf(genuine, d):
    def flatten(cert, rows):
        rows[7][1] = rows[7][0]
        return rows

    return _resigned(genuine, d, "J5", flatten)


@control(r"^REJECT: J5: leaf \d+ at .* lies in no box of the initial cover$")
def leaf_in_no_cell(genuine, d):
    def grow(cert, rows):
        _grow(rows[int(np.flatnonzero(cert.hi3 == _cells(cert)[1])[0])], 1)
        return rows

    return _resigned(genuine, d, "J5", grow)


@control(r"^REJECT: J5: box .* at bisection depth 0 holds no leaf$")
def dropped_leaf(genuine, d):
    return _resigned(genuine, d, "J5", lambda cert, rows: rows[:-1])


@control(r"^REJECT: J5: leaf 3 at .* shares its terminal box with another leaf$")
def duplicated_leaf(genuine, d):
    return _resigned(genuine, d, "J5", lambda cert, rows: rows[:4] + [rows[3]] + rows[4:])


@control(r"^REJECT: J5: leaf \d+ at .* straddles the split of its box")
def leaf_across_its_split(genuine, d):
    def grow(cert, rows):
        cells, leaves = _cells(cert), cert._leaves()[:4]
        j, edge = next((j, e) for j in range(cert.n_leaves()) for e in range(4)
                       if leaves[e][j] != cells[e][j])
        _grow(rows[j], edge)
        return rows

    return _resigned(genuine, d, "J5", grow)


@control(r"^REJECT: J4: leaf \d+ at .* lies in a box the bisection drops")
def leaf_outside_the_closure(genuine, d):
    # a child that J4's slanted edge drops, stored as one more leaf
    def extra(cert, rows):
        cover = cover_arrays("J4", cert.max_box_width, cert.truncation, cert.delta_b0)
        leaves = set(zip(*cert._leaves()[:4]))
        split = np.array([cell not in leaves for cell in zip(*cover)])
        children = certify._bisect(*(a[split] for a in cover))
        j = int(np.flatnonzero(region_def("J4").boxes_outside_closure(*children))[0])
        return rows + [[float(c[j]).hex() for c in children] + ["q", "0x1p+0"]]

    return _resigned(genuine, d, "J4", extra)


# -- the local certificate (certify.verify_local_certificate) -------------------


@control(r"^REJECT: fingerprint does not match this build$")
def local_fingerprint(genuine, d):
    return _piece(genuine, d, "local", lambda doc: doc.update(fingerprint="0" * 64))


@control(r"^REJECT: center \(1\.5, 0\.5\) is not the fixed \(1\.0, 1\.0\)$")
def local_center(genuine, d):
    return _piece(genuine, d, "local",
                  lambda doc: doc.update(center=[(1.5).hex(), (0.5).hex()]))


@control(r"^REJECT: \S+/local\.json: bad local-uniqueness certificate: invalid hexadecimal")
def local_center_not_hex(genuine, d):
    # the reader refuses an entry that is no hex float before any shape check
    return _piece(genuine, d, "local", lambda doc: doc["center"].append("garbage"))


@control(r"^REJECT: pair_map \('lambda_11 - lambda_31', 'lambda_11 - lambda_22'\) is not"
         r" the fixed \('lambda_11 - lambda_31', 'lambda_11 - lambda_51'\)$")
def local_pair_map(genuine, d):
    return _piece(genuine, d, "local", lambda doc: doc.update(
        pair_map=["lambda_11 - lambda_31", "lambda_11 - lambda_22"]))


@control(r"^REJECT: inner_delta 0\.001 is not the fixed 0\.002$")
def local_inner_delta(genuine, d):
    return _piece(genuine, d, "local", lambda doc: doc.update(inner_delta=(0.001).hex()))


@control(r"^REJECT: subdivision 4 is not the fixed 8$")
def local_subdivision(genuine, d):
    return _piece(genuine, d, "local", lambda doc: doc.update(subdivision=4))


@control(r"^REJECT: window half-width delta 0\.002 outside \(0\.002, 0\.5\)$")
def local_window_at_the_inner_box(genuine, d):
    # no annulus left around the inner box
    return _piece(genuine, d, "local", lambda doc: doc.update(delta=(0.002).hex()))


@control(r"^REJECT: local certificate field f_center .* is not shaped like")
def local_padded_f_center(genuine, d):
    return _piece(genuine, d, "local", lambda doc: doc.update(
        f_center=[row + [row[0]] for row in doc["f_center"]]))


@control(r"^REJECT: local certificate field containment_margin does not recompute$")
def local_margin_doubled(genuine, d):
    return _piece(genuine, d, "local", lambda doc: doc.update(
        containment_margin=(2.0 * float.fromhex(doc["containment_margin"])).hex()))


@control(r"^REJECT: Krawczyk image not strictly contained \(margin -1\.\d{3}e-02\)$")
def local_evidence_that_does_not_contract(genuine, d):
    # the real evidence on an inner box ten times wider
    evidence = certify._contraction_evidence(0.02, certify.SUBDIVISION)
    assert evidence["containment_margin"] < 0.0
    return _local_with(genuine, d, evidence)


def _genuine_evidence(**changes) -> dict:
    return dict(certify._contraction_evidence(certify.INNER_DELTA, certify.SUBDIVISION),
                **changes)


@control(r"^REJECT: Jacobian enclosure det \[-1\.0, 1\.0\] contains 0$")
def local_singular_jacobian(genuine, d):
    return _local_with(genuine, d, _genuine_evidence(det_jacobian=(-1.0, 1.0)))


@control(r"^REJECT: center residual 2\.000e-10 > 1e-10$")
def local_residual_above_tolerance(genuine, d):
    return _local_with(genuine, d, _genuine_evidence(
        posteriori_residual=2.0 * certify._POSTERIORI_TOL))


# -- the annulus (verify_local_certificate's _check_leaves) --------------------


@control(r"^REJECT: annulus: leaf 100 at r3=\[\S+, \S+\], r5=\[\S+, \S+\]: stored bound"
         r" \S+/c recomputes to \S+/q$")
def annulus_form_flipped(genuine, d):
    def flip(doc):
        row = doc["annulus"][100]
        assert row[4] == "q"
        row[4] = "c"

    return _piece(genuine, d, "local", flip)


@control(r"^REJECT: annulus: box .* at bisection depth \d+ holds no leaf$")
def annulus_leaf_dropped(genuine, d):
    return _piece(genuine, d, "local", lambda doc: doc["annulus"].pop(1234))


# -- a piece alone or in its bundle slot (cli._verify_piece, cli.cmd_verify) ----


@control(r"^error: no such file or directory: \S+/J9\.json$", code=cli.EXIT_DOMAIN)
def missing_path(genuine, d):
    return d / "J9.json"


@control(r"^REJECT: \S+/manifest\.json: manifests are verified as part of their bundle"
         r" directory$")
def manifest_alone(genuine, d):
    return genuine / "manifest.json"


@control(r"^REJECT: \S+/J9\.json: unknown certificate kind 'lemma'$")
def unknown_kind(genuine, d):
    return _piece(genuine, d, "J9", lambda doc: doc.update(kind="lemma"))


def _in_bundle(forge, pattern):
    """The control whose J9.json, made by the file control forge, sits in
    its slot of the bundle copy."""
    def in_bundle(genuine, d):
        forge(genuine, d)
        return d
    in_bundle.__name__ = f"{forge.__name__}_in_bundle"
    control(r"^REJECT: \S+/J9\.json: " + pattern, bundle=True)(in_bundle)


_in_bundle(seventh_entry_in_row_3, r"bad inequality certificate: row 3 is not \[r3_lo")
_in_bundle(no_plan, r"bad inequality certificate: missing field 'plan'$")
_in_bundle(not_utf8, r"not valid UTF-8 \(")
_in_bundle(other_format, r"unsupported format 'starcc-certificate/2'/'inequality'$")
# alone, the file is read as the kind it names; the J9 slot is read as a
# region certificate, and only the kind differs
_in_bundle(region_relabelled_local,
           r"unsupported format 'starcc-certificate/1'/'local-uniqueness'$")


def _in_step(d: Path, rid: str) -> Path:
    """d after its manifest's entry for region rid is made what d/<rid>.json
    says, as a forger would."""
    cert = certify.Certificate.from_payload(_load_doc(d / f"{rid}.json"))
    return _manifest(d, lambda m: m["regions"][rid].update(certify._summary(cert)))


@control(r"^REJECT: \S+/J1\.json: holds region J2$", bundle=True)
def region_in_another_slot(genuine, d):
    # J1 proved by nobody; J2 verified twice
    shutil.copy(d / "J2.json", d / "J1.json")
    return _in_step(d, "J1")


@control(r"^REJECT: \S+/J9\.json: J9 records \(delta_b0, truncation\) \(0\.02, 1\.5\); the"
         r" manifest's delta 0\.02 and truncation 10\.0 require \(0\.02, 10\.0\)$",
         bundle=True)
def region_truncated_below_the_manifest(genuine, d):
    # J9 above r5 = 1.5 proved by nobody
    cert = certify.certify_inequality("J9", max_box_width=0.1, truncation=1.5)
    assert certify.verify_certificate(cert)
    _write(d / "J9.json", cert.to_json())
    return _in_step(d, "J9")


@control(r"^REJECT: \S+/local\.json: window half-width 0\.005 differs from the manifest's"
         r" delta_b0 0\.02$", bundle=True)
def local_window_smaller(genuine, d):
    # leaves 0.005 < |r - 1| < 0.02 proved by nobody; the manifest's entry
    # (margin and residual) does not depend on the window
    cert = certify.certify_local_uniqueness(delta=0.005)
    assert certify.verify_local_certificate(cert)
    _write(d / "local.json", cert.to_json())
    return d


@control(r"^REJECT: \S+/J1\.json: max_box_width 0\.1 differs from 0\.001 in"
         r" manifest\.json$", bundle=True)
def manifest_box_width_below_the_pieces(genuine, d):
    return _manifest(d, lambda m: m["config"].update(max_box_width=0.001))


@control(r"^REJECT: J16: box .* at bisection depth 16 holds no leaf$", bundle=True)
def j16_narrowest_leaf_dropped(genuine, d):
    # every bound still verifies; min_bound and the manifest are kept in step
    def drop(doc):
        rows = doc["leaves"]
        width = [max(float.fromhex(r[1]) - float.fromhex(r[0]),
                     float.fromhex(r[3]) - float.fromhex(r[2])) for r in rows]
        del rows[width.index(min(width))]
        doc["min_bound"] = min(float.fromhex(r[5]) for r in rows).hex()

    _piece(genuine, d, "J16", drop)
    return _in_step(d, "J16")


# -- the manifest (cli._verify_bundle) -----------------------------------------


@control(r"^REJECT: \S+/bundle: no manifest\.json$")
def no_manifest(genuine, d):
    bundle = d / "bundle"
    bundle.mkdir()
    shutil.copy(genuine / "J1.json", bundle)
    return bundle


def _entry(manifest: dict, piece: str):
    """What manifest says of piece, without the informative stats."""
    entry = manifest["local"] if piece == "local" else manifest["regions"][piece]
    if isinstance(entry, dict):
        entry = {k: v for k, v in entry.items() if k != "stats"}
    return entry


def _says(piece: str):
    """The message of the entry check at piece: the forged manifest's entry
    and fingerprint, then the genuine ones, which the piece verifies as."""
    return lambda genuine, forged: (
        re.escape(f"says {_entry(forged, piece)!r} of {piece}, fingerprint"
                  f" {forged.get('fingerprint')!r}; ")
        + rf"\S+/{piece}\.json"
        + re.escape(f" verifies as {_entry(genuine, piece)!r},"
                    f" fingerprint {genuine['fingerprint']!r}"))


def _witness(genuine, forged):
    return re.escape(
        f"solution_witness {forged.get('solution_witness')!r} does not hold the true"
        " is_solution, gap_enclosures_contain_zero, y1_enclosure_contains_zero"
        f" recomputed here: {certify._solution_witness()!r}")


_CONFIG = "config must hold exactly the numbers max_box_width, delta_b0, truncation, not "
_LISTING = "must list the regions J1..J16 and local, no others"


def _manifest_control(name: str, edit, message):
    """The bundle control `name` whose manifest.json is the genuine one after
    edit, rejected with "REJECT: <its path>: " and message: a text, or the
    regex message(genuine, forged) of the two manifests."""
    def forge(genuine, d):
        return _manifest(d, edit)

    def pattern(genuine):
        if isinstance(message, str):
            regex = re.escape(message)
        else:
            manifest, forged = (_load_doc(genuine / "manifest.json") for _ in range(2))
            edit(forged)
            regex = message(manifest, forged)
        return rf"^REJECT: \S+/manifest\.json: {regex}$"

    forge.__name__ = name
    control(pattern, bundle=True)(forge)


for _name, _edit, _message in (
    ("manifest_of_another_kind", lambda m: m.update(kind="inequality"),
     "kind 'inequality' is not 'manifest'"),
    ("manifest_of_another_format", lambda m: m.update(format="starcc-certificate/0"),
     "format 'starcc-certificate/0' is not 'starcc-certificate/1'"),
    ("manifest_verdict_several_solutions", lambda m: m.update(verdict="SEVERAL-SOLUTIONS"),
     "verdict 'SEVERAL-SOLUTIONS' is not 'UNIQUE-IN-WINDOW'"),
    ("manifest_verdict_none", lambda m: m.update(verdict=None),
     "verdict None is not 'UNIQUE-IN-WINDOW'"),
    ("manifest_config_without_delta", lambda m: m["config"].pop("delta_b0"),
     _CONFIG + "{'max_box_width': 0.1, 'truncation': 10.0}"),
    ("manifest_config_without_width", lambda m: m["config"].pop("max_box_width"),
     _CONFIG + "{'delta_b0': 0.02, 'truncation': 10.0}"),
    ("manifest_config_with_threads", lambda m: m["config"].update(threads=2),
     _CONFIG + "{'max_box_width': 0.1, 'delta_b0': 0.02, 'truncation': 10.0, 'threads': 2}"),
    ("manifest_old_five_key_config", lambda m: m["config"].update(max_depth=48, threads=4),
     _CONFIG + "{'max_box_width': 0.1, 'delta_b0': 0.02, 'truncation': 10.0,"
     " 'max_depth': 48, 'threads': 4}"),
    ("manifest_config_as_a_list", lambda m: m.update(config=[0.02, 10.0]),
     _CONFIG + "[0.02, 10.0]"),
    ("manifest_delta_as_text", lambda m: m["config"].update(delta_b0="0.02"),
     _CONFIG + "{'max_box_width': 0.1, 'delta_b0': '0.02', 'truncation': 10.0}"),
    ("manifest_truncation_as_text", lambda m: m["config"].update(truncation="10"),
     _CONFIG + "{'max_box_width': 0.1, 'delta_b0': 0.02, 'truncation': '10'}"),
    ("manifest_truncation_as_a_word", lambda m: m["config"].update(truncation="ten"),
     _CONFIG + "{'max_box_width': 0.1, 'delta_b0': 0.02, 'truncation': 'ten'}"),
    ("manifest_width_true", lambda m: m["config"].update(max_box_width=True),
     _CONFIG + "{'max_box_width': True, 'delta_b0': 0.02, 'truncation': 10.0}"),
    ("manifest_witness_not_a_solution",
     lambda m: m["solution_witness"].update(is_solution=False), _witness),
    ("manifest_witness_without_y1", lambda m: m["solution_witness"].pop("y1"), _witness),
    ("manifest_without_witness", lambda m: m.pop("solution_witness"), _witness),
    ("manifest_listing_j17", lambda m: m["regions"].update(J17=m["regions"]["J16"]),
     _LISTING),
    ("manifest_without_j9", lambda m: m["regions"].pop("J9"), _LISTING),
    ("manifest_without_local", lambda m: m.pop("local"), _LISTING),
    ("manifest_regions_as_a_list", lambda m: m.update(regions=sorted(m["regions"])),
     _LISTING),
    ("manifest_local_among_the_regions",
     lambda m: m["regions"].update(local=m.pop("local")), _LISTING),
    ("manifest_leaf_count", lambda m: m["regions"]["J1"].update(leaves=999), _says("J1")),
    ("manifest_j9_min_bound_doubled", lambda m: m["regions"]["J9"].update(
        min_bound=2.0 * m["regions"]["J9"]["min_bound"]), _says("J9")),
    ("manifest_j15_one_more_leaf", lambda m: m["regions"]["J15"].update(
        leaves=m["regions"]["J15"]["leaves"] + 1), _says("J15")),
    ("manifest_j3_not_an_object", lambda m: m["regions"].update(J3=7), _says("J3")),
    ("manifest_local_margin_half", lambda m: m["local"].update(containment_margin=0.5),
     _says("local")),
    ("manifest_local_margin_doubled", lambda m: m["local"].update(
        containment_margin=2.0 * m["local"]["containment_margin"]), _says("local")),
    ("manifest_of_another_fingerprint", lambda m: m.update(fingerprint="0" * 64),
     _says("J1")),
    ("manifest_without_fingerprint", lambda m: m.pop("fingerprint"), _says("J1")),
):
    _manifest_control(_name, _edit, _message)


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def controls(tmp_path_factory):
    """name: (path, pattern, code, patch) of every control, on one genuine
    bundle at width 0.1."""
    root = tmp_path_factory.mktemp("mutations")
    genuine = root / "genuine"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["certify", "all", "--width", "0.1", "--threads", "2",
                         "--output", str(genuine)]) == 0
    built = {}
    for name, pattern, code, bundle, forge in CONTROLS:
        d = root / name
        if bundle:
            shutil.copytree(genuine, d)
        else:
            d.mkdir()
        made = forge(genuine, d)
        path, patch = made if isinstance(made, tuple) else (made, {})
        built[name] = (path, pattern(genuine) if callable(pattern) else pattern, code, patch)
    return built


@contextlib.contextmanager
def _patched(cli_module, patch: dict):
    """The control's patch applied to the certify module cli_module runs."""
    verifier = sys.modules[cli_module.verify_certificate.__module__]
    saved = {key: getattr(verifier, key) for key in patch}
    vars(verifier).update(patch)
    try:
        yield
    finally:
        vars(verifier).update(saved)


def _verify(cli_module, control) -> tuple:
    """Exit code, stdout and stderr of `verify` of cli_module on the
    control's forgery."""
    path, _, _, patch = control
    out, err = io.StringIO(), io.StringIO()
    with _patched(cli_module, patch), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        got = cli_module.main(["verify", str(path)])
    return got, out.getvalue(), err.getvalue().strip()


def _reached(control, sites: dict) -> set:
    """The raise sites of the genuine verifier that the control's rejection
    passes: every frame of each exception on its __cause__ chain whose
    line is a raise statement of sites (_sites)."""
    path, _, _, patch = control
    verify = cli._verify_bundle if os.path.isdir(path) else cli._verify_piece
    where = {line: site for site, line in sites.items()}
    error = None
    with _patched(cli, patch):
        try:
            verify(str(path))  # as cmd_verify calls it
        except Exception as exc:
            error = exc
    reached = set()
    while error is not None:
        reached.update(where.get((frame.f_globals["__name__"], line))
                       for frame, line in traceback.walk_tb(error.__traceback__))
        error = error.__cause__
    return reached - {None}


def _passes(control, outcome) -> bool:
    """Whether outcome (_verify) is the control's rejection: its exit code,
    no stdout and its message."""
    _, pattern, code, _ = control
    got, out, err = outcome
    return (got, out) == (code, "") and re.search(pattern, err) is not None


@pytest.fixture
def one_cpu(monkeypatch):
    # every bundle job runs in this process, on the module copy
    monkeypatch.setattr("os.cpu_count", lambda: 1)


@pytest.mark.parametrize("name", [row[0] for row in CONTROLS])
def test_every_control_is_rejected_with_its_message(controls, one_cpu, name):
    outcome = _verify(cli, controls[name])
    assert _passes(controls[name], outcome), outcome


def test_the_sites_cover_every_verifier_function():
    sites = _sites()
    for module, names in VERIFIERS.items():
        for name in names:
            assert f"{module}.{name}#0" in sites, f"{module}.{name} raises nothing"
    assert set(SURVIVORS) <= set(sites) and len(SURVIVORS) <= 3


def test_blanking_any_raise_fails_a_control(controls, one_cpu):
    # a mutant first meets the controls whose genuine rejection passes its
    # site; a survivor must pass every control, so the order changes no verdict
    sites = _sites()
    reached = {name: _reached(c, sites) for name, c in controls.items()}
    survivors = []
    for site in sites:
        order = sorted(controls, key=lambda name: site not in reached[name])
        with _mutant(site) as mutant:
            if all(_passes(controls[n], _verify(mutant, controls[n])) for n in order):
                survivors.append(site)
    assert set(survivors) == set(SURVIVORS), survivors


@pytest.mark.parametrize("name, error", [
    ("tampered_bound", certify.LeafBoundViolation),
    ("min_bound_one_ulp_up", certify.LeafBoundViolation),
    ("merged_siblings", certify.LeafBoundViolation),
    ("annulus_form_flipped", certify.LeafBoundViolation),
    ("dropped_leaf", certify.CoverageGap),
    ("duplicated_leaf", certify.CoverageGap),
    ("flat_leaf", certify.CoverageGap),
    ("leaf_in_no_cell", certify.CoverageGap),
    ("leaf_across_its_split", certify.CoverageGap),
    ("leaf_outside_the_closure", certify.CoverageGap),
    ("annulus_leaf_dropped", certify.CoverageGap),
    ("region_fingerprint", certify.MalformedCertificate),
    ("no_plan", certify.MalformedCertificate),
    ("seventh_entry_in_row_3", certify.MalformedCertificate),
    ("grid_dwarfing_the_leaves", certify.MalformedCertificate),
    ("bounded_region_truncated", certify.MalformedCertificate),
    ("other_excluded_square", certify.MalformedCertificate),
    ("local_fingerprint", certify.MalformedCertificate),
    ("local_center", certify.MalformedCertificate),
    ("local_center_not_hex", certify.MalformedCertificate),
    ("local_padded_f_center", certify.MalformedCertificate),
    ("local_inner_delta", certify.MalformedCertificate),
    ("local_subdivision", certify.MalformedCertificate),
    ("local_window_at_the_inner_box", certify.MalformedCertificate),
    ("local_pair_map", certify.MalformedCertificate),
])
def test_the_verifiers_raise_the_class_of_their_check(controls, name, error):
    # the controls pin exit codes and messages; a caller of the verifiers
    # tells a rejection's kind by its class
    payload = cli._load_payload(str(controls[name][0]))
    cls, verify = ((certify.Certificate, certify.verify_certificate)
                   if payload["kind"] == "inequality" else
                   (certify.LocalUniquenessCertificate, certify.verify_local_certificate))
    with pytest.raises(error):
        verify(cls.from_payload(payload))
