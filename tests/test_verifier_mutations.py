"""Every rejection of the certificate verifiers is load-bearing.

Each `raise` statement of the verifier functions (VERIFIERS) of
starcc.certify and starcc.cli is blanked, one at a time: the module is
compiled from its source with that statement turned into `pass` and
loaded under another name, and a certify copy gets a cli copy that
imports it.  The negative controls (CONTROLS) then run against the copy
through its `starcc verify`; each is a forged file or bundle (or a
missing path) that the genuine code refuses with its own exit code and
message.  A mutant that every control
still rejects, each with its own message, survives.  The test fails on a
survivor that is not on the allowlist SURVIVORS and on an allowlisted
site that no longer survives.
"""

import ast
import contextlib
import io
import json
import math
import re
import shutil
import sys
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
                "verify_local_certificate"),
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


def _sites() -> list:
    trees = _trees()
    return [f"{m}.{name}#{k}" for m, names in VERIFIERS.items() for name in names
            for k in range(len(_raises(_function(trees[m], name))))]


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
# the certify module the verifier runs to the values they take meanwhile

CONTROLS = []


def control(pattern: str, code: int = cli.EXIT_VERIFY, bundle: bool = False):
    def register(forge):
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


@control(r"J9\.json: not valid UTF-8 \(")
def not_utf8(genuine, d):
    path = shutil.copy(genuine / "J9.json", d)
    with open(path, "ab") as fh:
        fh.write(b"\xff")
    return path


@control(r"J9\.json: not valid JSON \(Unterminated string")
def cut_short(genuine, d):
    return _write(d / "J9.json", (genuine / "J9.json").read_text()[:-20])


@control(r"J9\.json: missing 'kind' discriminator$")
def no_kind(genuine, d):
    return _piece(genuine, d, "J9", lambda doc: doc.pop("kind"))


def _stray(at):
    def forge(genuine, d):
        text = (genuine / "J9.json").read_text()
        assert text.startswith('{"format": ')
        return _write(d / "J9.json", text[:at] + "x" + text[at + 1:])
    forge.__name__ = f"stray_character_at_{at}"
    return forge


control(r"J9\.json: not valid JSON \(Expecting value: line 1 column 1 \(char 0\)\)$")(
    _stray(0))
control(r"J9\.json: not valid JSON \(Expecting property name enclosed in double quotes")(
    _stray(1))
control(r"J9\.json: not valid JSON \(Expecting ':' delimiter")(_stray(9))


@control(r"J9\.json: not valid JSON \(Extra data")
def trailing_text(genuine, d):
    return _write(d / "J9.json", (genuine / "J9.json").read_text() + " x")


# -- decoding a piece (certify._decode, certify._parse_leaf_rows) --------------


@control(r"J9\.json: bad inequality certificate: row 3 is not \[r3_lo")
def seventh_entry_in_row_3(genuine, d):
    return _piece(genuine, d, "J9",
                  lambda doc: doc["leaves"][3].append(doc["leaves"][3][0]))


@control(r"J9\.json: unsupported format 'starcc-certificate/2'/'inequality'$")
def other_format(genuine, d):
    return _piece(genuine, d, "J9", lambda doc: doc.update(format="starcc-certificate/2"))


@control(r"J9\.json: bad local-uniqueness certificate: kind 'local-uniqueness' does not"
         r" match its rows key 'leaves' \(a local-uniqueness certificate has 'annulus'\)$")
def region_relabelled_local(genuine, d):
    return _piece(genuine, d, "J9", lambda doc: doc.update(kind="local-uniqueness"))


@control(r"J9\.json: bad inequality certificate: missing field 'plan'$")
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


@control(r"^REJECT: J9: leaf 3 at .* recomputes to")
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


@control(r"^REJECT: local certificate field f_center .* is not shaped like")
def local_padded_f_center(genuine, d):
    return _piece(genuine, d, "local", lambda doc: doc.update(
        f_center=[row + [row[0]] for row in doc["f_center"]]))


@control(r"^REJECT: local certificate field containment_margin does not recompute$")
def local_margin_doubled(genuine, d):
    return _piece(genuine, d, "local", lambda doc: doc.update(
        containment_margin=(2.0 * float.fromhex(doc["containment_margin"])).hex()))


@control(r"^REJECT: stored containment margin is not positive$")
def local_evidence_that_does_not_contract(genuine, d):
    # the real evidence on an inner box ten times wider
    evidence = certify._contraction_evidence(0.02, certify.SUBDIVISION)
    assert evidence["containment_margin"] < 0.0
    return _local_with(genuine, d, evidence)


@control(r"^REJECT: stored Jacobian determinant encloses zero$")
def local_singular_jacobian(genuine, d):
    evidence = dict(certify._contraction_evidence(certify.INNER_DELTA,
                                                  certify.SUBDIVISION),
                    det_jacobian=(-1.0, 1.0))
    return _local_with(genuine, d, evidence)


# -- a piece alone or in its bundle slot (cli._verify_piece, cli.cmd_verify) ----


@control(r"^error: no such file or directory: ", code=cli.EXIT_DOMAIN)
def missing_path(genuine, d):
    return d / "J9.json"


@control(r"manifest\.json: manifests are verified as part of their bundle directory$")
def manifest_alone(genuine, d):
    return genuine / "manifest.json"


@control(r"J9\.json: unknown certificate kind 'lemma'$")
def unknown_kind(genuine, d):
    return _piece(genuine, d, "J9", lambda doc: doc.update(kind="lemma"))


@control(r"J1\.json: holds region J2$", bundle=True)
def region_in_another_slot(genuine, d):
    shutil.copy(d / "J2.json", d / "J1.json")
    return d


@control(r"J9\.json: J9 records \(delta_b0, truncation\) \(0\.02, 1\.5\);", bundle=True)
def region_truncated_below_the_manifest(genuine, d):
    cert = certify.certify_inequality("J9", max_box_width=0.1, truncation=1.5)
    _write(d / "J9.json", cert.to_json())
    return d


@control(r"local\.json: window half-width 0\.005 differs from the manifest's delta_b0",
         bundle=True)
def local_window_smaller(genuine, d):
    _write(d / "local.json", certify.certify_local_uniqueness(delta=0.005).to_json())
    return d


@control(r"J1\.json: max_box_width 0\.1 differs from 0\.001 in manifest\.json$", bundle=True)
def manifest_box_width_below_the_pieces(genuine, d):
    return _manifest(d, lambda m: m["config"].update(max_box_width=0.001))


# -- the manifest (cli._verify_bundle) -----------------------------------------


@control(r": no manifest\.json$")
def no_manifest(genuine, d):
    bundle = d / "bundle"
    bundle.mkdir()
    shutil.copy(genuine / "J1.json", bundle)
    return bundle


@control(r"manifest\.json: kind 'inequality' is not 'manifest'$", bundle=True)
def manifest_of_another_kind(genuine, d):
    return _manifest(d, lambda m: m.update(kind="inequality"))


@control(r"manifest\.json: config must give numeric delta_b0 and truncation$",
         bundle=True)
def manifest_config_without_delta(genuine, d):
    return _manifest(d, lambda m: m["config"].pop("delta_b0"))


@control(r"manifest\.json: config must hold exactly the numbers max_box_width, delta_b0,"
         r" truncation, not \{.*'threads': 2\}$", bundle=True)
def manifest_config_with_threads(genuine, d):
    return _manifest(d, lambda m: m["config"].update(threads=2))


@control(r"manifest\.json: solution_witness \{.*'is_solution': False.*\} does not hold"
         r" the true is_solution, ", bundle=True)
def manifest_witness_not_a_solution(genuine, d):
    return _manifest(d, lambda m: m["solution_witness"].update(is_solution=False))


@control(r"manifest\.json: must list the regions J1\.\.J16 and local, no others$",
         bundle=True)
def manifest_listing_j17(genuine, d):
    return _manifest(d, lambda m: m["regions"].update(J17=m["regions"]["J16"]))


@control(r"manifest\.json: says \{'min_bound': .*, 'leaves': 999\} of J1,", bundle=True)
def manifest_leaf_count(genuine, d):
    return _manifest(d, lambda m: m["regions"]["J1"].update(leaves=999))


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def controls(tmp_path_factory):
    """(name, path, pattern, code, patch) of every control, on one genuine
    bundle at width 0.1."""
    root = tmp_path_factory.mktemp("mutations")
    genuine = root / "genuine"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["certify", "all", "--width", "0.1", "--threads", "2",
                         "--output", str(genuine)]) == 0
    built = []
    for name, pattern, code, bundle, forge in CONTROLS:
        d = root / name
        if bundle:
            shutil.copytree(genuine, d)
        else:
            d.mkdir()
        made = forge(genuine, d)
        path, patch = made if isinstance(made, tuple) else (made, {})
        built.append((name, path, pattern, code, patch))
    return built


def _passes(cli_module, control) -> bool:
    """Whether `verify` of cli_module rejects the control's forgery with its
    exit code and message."""
    _, path, pattern, code, patch = control
    verifier = sys.modules[cli_module.verify_certificate.__module__]
    saved = {key: getattr(verifier, key) for key in patch}
    vars(verifier).update(patch)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            got = cli_module.main(["verify", str(path)])
    finally:
        vars(verifier).update(saved)
    return got == code and re.search(pattern, err.getvalue().strip()) is not None


@pytest.fixture
def one_cpu(monkeypatch):
    # every bundle job runs in this process, on the module copy
    monkeypatch.setattr("os.cpu_count", lambda: 1)


def test_every_control_is_rejected_with_its_message(controls, one_cpu):
    failed = [c[0] for c in controls if not _passes(cli, c)]
    assert not failed, failed


def test_the_sites_cover_every_verifier_function():
    sites = _sites()
    for module, names in VERIFIERS.items():
        for name in names:
            assert f"{module}.{name}#0" in sites, f"{module}.{name} raises nothing"
    assert set(SURVIVORS) <= set(sites) and len(SURVIVORS) <= 3


def test_blanking_any_raise_fails_a_control(controls, one_cpu):
    survivors = []
    for site in _sites():
        with _mutant(site) as mutant:
            if all(_passes(mutant, c) for c in controls):
                survivors.append(site)
    assert set(survivors) == set(SURVIVORS), survivors
