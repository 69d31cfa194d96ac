import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from starcc import certify, cli, kernel
from starcc.certify import (
    certify_inequality,
    certify_local_uniqueness,
    verify_certificate,
    verify_local_certificate,
)
from starcc.regions import region_plan


def run(argv, capsys):
    """Run the CLI in-process, return (exit_code, stdout + stderr)."""
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out + captured.err


def _strict(token):
    """json's parse_constant: NaN and Infinity are not JSON."""
    raise ValueError(f"{token} is not JSON")


@pytest.fixture(autouse=True)
def isolated_outdir(tmp_path, monkeypatch):
    # keep every test away from ./certificates and from each other
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "certs"))
    return tmp_path


# ---------------------------------------------------------------------------
# eval


def test_eval_full_residual_text(capsys):
    code, out = run(["eval", "1", "1"], capsys)
    assert code == 0
    assert "lambda_11" in out and "lambda_52" in out
    assert "spread" in out and "y1" in out


def test_eval_single_index(capsys):
    code, out = run(["eval", "0.6119148403464306", "1.0", "--index", "31"],
                    capsys)
    assert code == 0
    # 15 significant digits in text mode
    assert "1.37245721225591" in out


def test_eval_json(capsys):
    code, out = run(["eval", "1.17", "0.93", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"]["11"] == pytest.approx(1.9129492173729385, rel=1e-14)
    assert doc["y1"] == pytest.approx(0.03833568330204806, rel=1e-12)


def test_eval_outside_domain_exits_2(capsys):
    code, out = run(["eval", "0.9", "0.1"], capsys)
    assert code == cli.EXIT_DOMAIN


@pytest.mark.parametrize("r3, r5", [("1", "inf"), ("inf", "1"), ("1", "nan")])
def test_eval_off_the_finite_plane_exits_2(capsys, r3, r5):
    code, out = run(["eval", r3, r5], capsys)
    assert code == cli.EXIT_DOMAIN
    assert "outside S" in out and "lambda" not in out


def test_eval_has_no_all_flag(capsys):
    # the full residual is what eval prints without --index
    with pytest.raises(SystemExit) as err:
        cli.main(["eval", "1", "1", "--all"])
    assert err.value.code == 2
    capsys.readouterr()


def test_eval_unknown_index_exits_2(capsys):
    code, _ = run(["eval", "1", "1", "--index", "12"], capsys)
    assert code == cli.EXIT_DOMAIN  # (1,2) is the normalized slot, not a lambda


# ---------------------------------------------------------------------------
# hessian


def test_hessian_passes_at_default_step(capsys):
    code, out = run(["hessian", "--json"], capsys)
    assert code == 0
    doc = json.loads(out, parse_constant=_strict)
    assert doc["verdict"] == "PASS"
    assert doc["richardson"] is True
    assert max(doc["relative_error"].values()) < 1e-5
    assert doc["closed_form"]["det"] == pytest.approx(602.805106650365)
    assert doc["leading_minors_positive"] is True


def test_hessian_reports_failure_for_crude_step(capsys):
    code, out = run(["hessian", "--step", "1e-2", "--no-richardson", "--json"],
                    capsys)
    assert code == 0  # a FAIL verdict is still a successful diagnostic run
    doc = json.loads(out)
    assert doc["verdict"] == "FAIL"
    assert doc["richardson"] is False
    assert max(doc["relative_error"].values()) > 1e-5


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_hessian_with_a_tolerance_that_is_not_finite_and_positive_exits_2(
        capsys, monkeypatch, tol):
    # nan printed "tolerance": NaN, inf a PASS and -1 a FAIL, all exiting 0
    def no_measure(*args, **kw):
        raise AssertionError("the Hessian was computed")

    monkeypatch.setattr(cli, "hessian_measure", no_measure)
    code, out = run(["hessian", "--json", "--tol", tol], capsys)
    assert code == cli.EXIT_DOMAIN
    assert "tolerance" in out


# ---------------------------------------------------------------------------
# certify / verify


def test_certify_single_region_writes_file(tmp_path, capsys):
    code, out = run(["certify", "J4", "--width", "0.05"], capsys)
    assert code == 0
    path = tmp_path / "certs" / "J4.json"
    assert path.exists()
    doc = json.loads(path.read_text())
    assert doc["region"] == "J4"
    assert len(doc["leaves"]) == 43
    assert "min_gap" in out

    code, out = run(["verify", path], capsys)
    assert code == 0
    assert "ACCEPT" in out


def test_certify_unknown_region_exits_2(capsys):
    code, _ = run(["certify", "J99"], capsys)
    assert code == cli.EXIT_DOMAIN


def test_certify_unknown_region_creates_no_output_dir(tmp_path, capsys):
    out = tmp_path / "never"
    code, _ = run(["certify", "J99", "--output", out], capsys)
    assert code == cli.EXIT_DOMAIN
    assert not out.exists()


@pytest.mark.parametrize("target", ["J15", "all"])
def test_certify_truncated_below_a_region_floor_exits_2(target, capsys):
    # J15 starts at r5 = 3.036 (and J10 at 1 + b), so nothing is left to certify
    code, out = run(["certify", target, "--width", "0.1", "--truncate-r5", "2"],
                    capsys)
    assert code == cli.EXIT_DOMAIN
    assert "empty" in out


@pytest.mark.parametrize("truncation", ["inf", "nan"])
def test_certify_non_finite_truncation_exits_2(truncation, capsys):
    code, out = run(["certify", "J9", "--width", "0.1", "--truncate-r5",
                     truncation], capsys)
    assert code == cli.EXIT_DOMAIN
    assert "finite" in out


def test_certify_huge_truncation_exits_4_before_allocating(capsys):
    code, out = run(["certify", "J9", "--width", "0.1", "--truncate-r5", "1e7"],
                    capsys)
    assert code == cli.EXIT_BUDGET
    assert "cells" in out


def test_verify_rejects_a_header_truncated_below_the_floor(tmp_path, capsys):
    run(["certify", "J15", "--width", "0.1"], capsys)
    path = tmp_path / "certs" / "J15.json"
    doc = json.loads(path.read_text())
    doc["truncation"] = (2.0).hex()
    path.write_text(json.dumps(doc))
    code, out = run(["verify", path], capsys)
    assert code == cli.EXIT_VERIFY
    assert "truncation" in out


def test_certify_budget_exhaustion_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(certify, "MAX_DEPTH", 2)
    code, out = run(["certify", "J7", "--width", "0.05"], capsys)
    assert code == cli.EXIT_BUDGET


def test_verify_rejects_tampered_bound(tmp_path, capsys):
    run(["certify", "J3", "--width", "0.1"], capsys)
    path = tmp_path / "certs" / "J3.json"
    doc = json.loads(path.read_text())
    doc["leaves"][0][5] = (float.fromhex(doc["leaves"][0][5]) * 2.0).hex()
    path.write_text(json.dumps(doc))
    code, out = run(["verify", path], capsys)
    assert code == cli.EXIT_VERIFY
    assert "REJECT" in out
    assert "r3=" in out  # the offending leaf is identified by its box


def test_verify_rejects_truncated_json(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"format": "starcc-certificate/1", "kind": "ineq')
    code, out = run(["verify", bad], capsys)
    assert code == cli.EXIT_VERIFY
    assert "REJECT" in out


def test_verify_missing_file_exits_2(tmp_path, capsys):
    code, _ = run(["verify", tmp_path / "nope.json"], capsys)
    assert code == cli.EXIT_DOMAIN


def test_certify_region_without_excision_fails_next_to_the_root(capsys, monkeypatch):
    monkeypatch.setattr(certify, "MAX_DEPTH", 6)
    code, out = run(["certify", "J16", "--width", "0.05", "--delta", "0"], capsys)
    assert code == cli.EXIT_BUDGET


# ---------------------------------------------------------------------------
# scan


def test_scan_reports_one_root(tmp_path, capsys):
    out_file = tmp_path / "scan.json"
    code, out = run(
        ["scan", "--window", 0.5, 1.5, 0.5, 1.5, "--starts", 200,
         "--seed", 2, "--out", out_file],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_file.read_text(), parse_constant=_strict)
    assert len(doc["roots"]) == 1
    assert doc["roots"][0]["r3"] == pytest.approx(1.0, abs=1e-8)
    assert doc["roots"][0]["r5"] == pytest.approx(1.0, abs=1e-8)


def test_scan_bad_window_exits_2(capsys):
    code, _ = run(["scan", "--window", 2, 1, 0.5, 1.5, "--starts", 10], capsys)
    assert code == cli.EXIT_DOMAIN


def test_scan_window_that_is_not_finite_exits_2(capsys):
    code, out = run(["scan", "--window", 0.2, 3, 0.2, "inf", "--starts", 10],
                    capsys)
    assert code == cli.EXIT_DOMAIN
    assert "not finite" in out


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_scan_with_a_tolerance_that_is_not_finite_and_positive_exits_2(capsys, tol):
    # nan and -1 used to exit 0 with no roots, and nan printed "tol": NaN
    code, out = run(["scan", "--starts", 2000, "--tol", tol], capsys)
    assert code == cli.EXIT_DOMAIN
    assert "tolerance" in out


def test_scan_with_too_many_starts_exits_2_before_allocating(capsys):
    code, out = run(["scan", "--starts", 10**12], capsys)
    assert code == cli.EXIT_DOMAIN
    assert "4000000" in out


def test_scan_with_a_negative_seed_exits_2_naming_the_seed(capsys):
    # numpy's "expected non-negative integer" used to be the whole message
    code, out = run(["scan", "--starts", 200, "--seed", -1], capsys)
    assert code == cli.EXIT_DOMAIN
    assert "seed -1" in out


# ---------------------------------------------------------------------------
# plotdata


def _rows(out: str):
    return list(csv.DictReader(io.StringIO(out)))


def test_plotdata_regions_csv(capsys):
    code, out = run(["plotdata", "regions", "25"], capsys)
    assert code == 0
    rows = _rows(out)
    assert set(rows[0]) == {"r3", "r5", "region"}
    seen = {r["region"] for r in rows}
    assert "J1" in seen and "J16" in seen


@pytest.mark.parametrize("rid, checks", [
    # at a point of J1 the first pair's gap is the larger one; the second
    # pair only carries interval boxes that reach the collision corner
    ("J1", {"lambda_11 < lambda_31"}),
    ("J16", {"lambda_31 < lambda_11"}),
], ids=["J1", "J16"])
def test_plotdata_gap_csv_is_positive(rid, checks, capsys):
    code, out = run(["plotdata", f"gap-{rid}", "20"], capsys)
    assert code == 0
    rows = _rows(out)
    assert set(rows[0]) == {"r3", "r5", "value", "check"}
    vals = [float(r["value"]) for r in rows]
    assert vals and min(vals) > 0.0
    assert {r["check"] for r in rows} == checks
    # each value is the largest gap over the plan's pairs
    r3, r5 = (np.array([float(r[k]) for r in rows]) for k in ("r3", "r5"))
    gaps = [kernel.lambda_quot(kernel.FloatBackend, r3, r5, *c.high)
            - kernel.lambda_quot(kernel.FloatBackend, r3, r5, *c.low)
            for c in region_plan(rid).pairs]
    assert np.array_equal(vals, np.max(gaps, axis=0))


def test_plotdata_spread_csv(capsys):
    code, out = run(
        ["plotdata", "spread", "15", "--window", 0.9, 1.1, 0.9, 1.1], capsys
    )
    assert code == 0
    rows = _rows(out)
    assert set(rows[0]) == {"r3", "r5", "spread", "y1"}
    best = min(rows, key=lambda r: float(r["spread"]))
    assert abs(float(best["r3"]) - 1.0) < 0.1


@pytest.mark.parametrize("argv", [
    ["plotdata", "gap-J9", "5", "--truncate-r5", "inf"],
    ["plotdata", "gap-J5", "5", "--truncate-r5", "nan"],
    ["plotdata", "spread", "5", "--window", 0.2, 3, 0.2, "inf"],
], ids=["gap-inf-truncation", "gap-nan-truncation", "spread-inf"])
def test_plotdata_that_is_not_finite_exits_2(argv, capsys):
    # an infinite truncation used to print numpy warnings and a header-only CSV
    code, out = run(argv, capsys)
    assert code == cli.EXIT_DOMAIN
    assert "r3," not in out


def test_plotdata_grid_beyond_the_cap_exits_2_before_allocating(capsys):
    code, out = run(["plotdata", "regions", 10**6], capsys)
    assert code == cli.EXIT_DOMAIN
    assert "4000000" in out and "r3," not in out


def test_plotdata_unknown_kind_exits_2(capsys):
    code, _ = run(["plotdata", "wat", "10"], capsys)
    assert code == cli.EXIT_DOMAIN


# ---------------------------------------------------------------------------
# the full bundle round trip (kept cheap with a coarse width)


def test_bundle_certify_verify_round_trip(tmp_path, capsys):
    code, out = run(["certify", "all", "--width", "0.1", "--threads", "2"],
                    capsys)
    assert code == 0
    assert "UNIQUE-IN-WINDOW" in out
    bundle = tmp_path / "certs"
    names = {p.name for p in bundle.iterdir()}
    assert names == {f"J{i}.json" for i in range(1, 17)} | {
        "local.json", "manifest.json"}

    code, out = run(["verify", bundle], capsys)
    assert code == 0
    assert "ACCEPT" in out and "local" in out

    # flip one annulus bound in the local certificate -> bundle must fail
    local = bundle / "local.json"
    doc = json.loads(local.read_text())
    doc["annulus"][5][5] = (float.fromhex(doc["annulus"][5][5]) * 4.0).hex()
    local.write_text(json.dumps(doc))
    code, out = run(["verify", bundle], capsys)
    assert code == cli.EXIT_VERIFY
    assert "REJECT" in out


# ---------------------------------------------------------------------------
# bundle composition: forgeries whose every file verifies on its own


@pytest.fixture(scope="module")
def coarse_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("genuine") / "certs"
    code = cli.main(["certify", "all", "--width", "0.1", "--threads", "2",
                     "--output", str(out)])
    assert code == 0
    return out


def _copy(bundle, tmp_path):
    forged = tmp_path / "forged"
    shutil.copytree(bundle, forged)
    return forged


def test_bundle_rejects_local_certificate_for_a_smaller_window(
        coarse_bundle, tmp_path, capsys):
    # leaves 0.005 < |r - 1| < 0.02 proved by nobody
    forged = _copy(coarse_bundle, tmp_path)
    local = certify_local_uniqueness(delta=0.005)
    assert verify_local_certificate(local)
    (forged / "local.json").write_text(local.to_json())
    code, out = run(["verify", forged], capsys)
    assert code == cli.EXIT_VERIFY
    assert "REJECT" in out and "local.json" in out


def test_bundle_rejects_region_truncated_below_the_manifest(
        coarse_bundle, tmp_path, capsys):
    # J9 above r5 = 1.5 proved by nobody; the forger keeps the manifest in step
    forged = _copy(coarse_bundle, tmp_path)
    manifest = json.loads((forged / "manifest.json").read_text())
    cfg = manifest["config"]
    cert = certify_inequality("J9", max_box_width=cfg["max_box_width"],
                              truncation=1.5, delta=cfg["delta_b0"])
    assert verify_certificate(cert)
    (forged / "J9.json").write_text(cert.to_json())
    manifest["regions"]["J9"]["min_bound"] = cert.min_bound
    manifest["regions"]["J9"]["leaves"] = cert.n_leaves()
    (forged / "manifest.json").write_text(json.dumps(manifest))
    code, out = run(["verify", forged], capsys)
    assert code == cli.EXIT_VERIFY
    assert "REJECT" in out and "truncation" in out


def test_bundle_rejects_region_file_holding_another_region(
        coarse_bundle, tmp_path, capsys):
    # J1 proved by nobody; J2 verified twice
    forged = _copy(coarse_bundle, tmp_path)
    shutil.copy(forged / "J2.json", forged / "J1.json")
    manifest = json.loads((forged / "manifest.json").read_text())
    manifest["regions"]["J1"] = manifest["regions"]["J2"]
    (forged / "manifest.json").write_text(json.dumps(manifest))
    code, out = run(["verify", forged], capsys)
    assert code == cli.EXIT_VERIFY
    assert "REJECT" in out and "J1.json" in out


def test_bundle_rejects_dropped_narrowest_j16_leaf(coarse_bundle, tmp_path,
                                                   capsys):
    # the narrowest J16 leaf; every bound still verifies and the forger
    # keeps min_bound and the manifest in step
    forged = _copy(coarse_bundle, tmp_path)
    doc = json.loads((forged / "J16.json").read_text())
    rows = doc["leaves"]
    width = [max(float.fromhex(r[1]) - float.fromhex(r[0]),
                 float.fromhex(r[3]) - float.fromhex(r[2])) for r in rows]
    del rows[width.index(min(width))]
    doc["min_bound"] = min(float.fromhex(r[5]) for r in rows).hex()
    (forged / "J16.json").write_text(json.dumps(doc))
    manifest = json.loads((forged / "manifest.json").read_text())
    manifest["regions"]["J16"]["min_bound"] = float.fromhex(doc["min_bound"])
    manifest["regions"]["J16"]["leaves"] = len(rows)
    (forged / "manifest.json").write_text(json.dumps(manifest))
    code, out = run(["verify", forged], capsys)
    assert code == cli.EXIT_VERIFY
    assert "REJECT" in out and "J16" in out and "holds no leaf" in out


@pytest.mark.parametrize("verdict", ["SEVERAL-SOLUTIONS", None])
def test_bundle_rejects_a_verdict_the_certifier_does_not_write(
        coarse_bundle, tmp_path, capsys, verdict):
    # every certificate file verifies; only the manifest's claim is forged
    forged = _copy(coarse_bundle, tmp_path)
    manifest = json.loads((forged / "manifest.json").read_text())
    manifest["verdict"] = verdict
    (forged / "manifest.json").write_text(json.dumps(manifest))
    code, out = run(["verify", forged], capsys)
    assert code == cli.EXIT_VERIFY
    assert "REJECT" in out and "manifest.json" in out and repr(verdict) in out
    assert "ACCEPT" not in out


def test_bundle_rejects_a_manifest_format_the_certifier_does_not_write(
        coarse_bundle, tmp_path, capsys):
    # every certificate file verifies; the manifest claims another layout
    forged = _copy(coarse_bundle, tmp_path)
    manifest = json.loads((forged / "manifest.json").read_text())
    manifest["format"] = "starcc-certificate/0"
    (forged / "manifest.json").write_text(json.dumps(manifest))
    code, out = run(["verify", forged], capsys)
    assert code == cli.EXIT_VERIFY
    assert "REJECT" in out and "manifest.json" in out and "starcc-certificate/0" in out
    assert "ACCEPT" not in out


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_failed_certify_run_leaves_no_manifest(coarse_bundle, tmp_path,
                                                 capsys, monkeypatch, threads):
    # the pieces are written as they are certified, so a run that fails
    # part way must not leave the old manifest to vouch for them
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(certify, "MAX_DEPTH", 0)
    bundle = _copy(coarse_bundle, tmp_path)
    code, out = run(["certify", "all", "--width", "0.1",
                     "--threads", threads, "--output", bundle], capsys)
    assert code == cli.EXIT_BUDGET
    assert "budget exhausted: annulus: " in out
    assert not (bundle / "manifest.json").exists()
    code, out = run(["verify", bundle], capsys)
    assert code == cli.EXIT_VERIFY
    assert "no manifest.json" in out


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_blocked_piece_path_is_a_usage_error_naming_it(tmp_path, capsys,
                                                         monkeypatch, threads):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    bundle = tmp_path / "blocked"
    (bundle / "J9.json").mkdir(parents=True)
    code = cli.main(["certify", "all", "--width", "0.1", "--threads", threads,
                     "--output", str(bundle)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DOMAIN
    assert err.startswith("error: ") and str(bundle / "J9.json") in err
    assert not (bundle / "manifest.json").exists()


def _seventh_entry_in_row_3(doc):
    doc["leaves"][3].append(doc["leaves"][3][0])


def _no_plan(doc):
    del doc["plan"]


@pytest.mark.parametrize("forge", [_seventh_entry_in_row_3, _no_plan])
def test_bundle_names_the_file_of_a_malformed_piece(coarse_bundle, tmp_path,
                                                    capsys, forge):
    forged = _copy(coarse_bundle, tmp_path)
    doc = json.loads((forged / "J9.json").read_text())
    forge(doc)
    (forged / "J9.json").write_text(json.dumps(doc))
    code = cli.main(["verify", str(forged)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VERIFY
    assert err.startswith(f"REJECT: {forged / 'J9.json'}: ")


@pytest.mark.parametrize("cut, scope, annulus", [
    (["--truncate-r5", "3.1"], "r5 <= 3.1, window delta 0.02", 4276),
    (["--delta", "0.1"], "r5 <= 10, window delta 0.1", 14212),
], ids=["r5-3.1", "delta-0.1"])
def test_both_verdict_lines_name_what_the_verdict_covers(tmp_path, capsys, cut,
                                                         scope, annulus):
    # a bundle cut at r5 <= 3.1 proves less than one cut at r5 <= 10; the
    # annulus of the delta 0.1 window holds 3.3 times the default's leaves
    bundle = tmp_path / "cut"
    code, out = run(["certify", "all", "--width", "0.1", *cut, "--output", bundle],
                    capsys)
    assert code == 0
    assert f"verdict: UNIQUE-IN-WINDOW  ({scope}; " in out
    code, out = run(["verify", bundle], capsys)
    assert code == 0
    assert re.search(rf"^ACCEPT local: .*, {annulus} annulus leaves$", out, re.M), out
    assert out.splitlines()[-1] == (
        f"bundle {bundle}: verdict 'UNIQUE-IN-WINDOW' confirmed ({scope})")


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pool"])
def test_bundle_rejection_names_the_first_defect_in_region_order(
        coarse_bundle, tmp_path, capsys, monkeypatch, cpus):
    # J15 is verified first on the pool (the largest file) and J9 later, yet
    # the report is J9's, as on the serial path
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    forged = _copy(coarse_bundle, tmp_path)
    for rid in ("J9", "J15"):
        doc = json.loads((forged / f"{rid}.json").read_text())
        row = doc["leaves"][3]
        row[5] = (float.fromhex(row[5]) * 2.0).hex()
        (forged / f"{rid}.json").write_text(json.dumps(doc))
    code, out = run(["verify", forged], capsys)
    assert code == cli.EXIT_VERIFY
    assert out.startswith("REJECT: J9: leaf 3 at "), out


def test_verify_prints_the_same_lines_on_one_cpu_and_on_two(coarse_bundle, capsys,
                                                            monkeypatch):
    # the pool verifies the largest file first; the report must not show it.
    # The annulus keeps the 4276 boxes of the 0.02 window, as pair-set leaves
    outs = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code = cli.main(["verify", str(coarse_bundle)])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == "", captured.err
        outs.append(captured.out)
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    assert sum(line.startswith("ACCEPT ") for line in lines) == 17
    local = [line for line in lines if line.startswith("ACCEPT local: ")]
    assert len(local) == 1 and local[0].endswith(", 4276 annulus leaves"), local


@pytest.mark.parametrize("rid", ["J9", "J7"])
def test_single_region_certify_matches_the_bundle(coarse_bundle, tmp_path,
                                                  capsys, rid):
    # `certify J<n>` passes the run's cuts on and records what the bundle
    # records (J9 is cut at r5 = 10, J7 excises the square)
    one = tmp_path / "one"
    code, _ = run(["certify", rid, "--width", "0.1", "--output", one], capsys)
    assert code == 0
    docs = [json.loads((d / f"{rid}.json").read_text())
            for d in (coarse_bundle, one)]
    for doc in docs:
        doc["stats"].pop("wall_seconds")
    assert docs[0] == docs[1]


def test_bench_forgeries_are_all_rejected(coarse_bundle, tmp_path, capsys):
    # the six forged bundles of the traced benchmark run, built by its own
    # forger; a certificate change that lets one through, or that the
    # forger can no longer parse, fails here
    root = Path(__file__).resolve().parents[1]
    path = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    p = subprocess.run(
        [sys.executable, str(root / "perfbench" / "forge.py"),
         str(coarse_bundle), str(tmp_path / "forged"), "1"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    dirs = json.loads(p.stdout.strip().splitlines()[-1])
    assert len(dirs) == 6
    for name, d in dirs.items():
        code, out = run(["verify", d], capsys)
        assert code == cli.EXIT_VERIFY, name
        assert "REJECT" in out, name


@pytest.mark.parametrize("alone", [False, True], ids=["bundle", "file"])
def test_a_piece_that_is_not_utf8_is_rejected_naming_it(coarse_bundle, tmp_path,
                                                       capsys, alone):
    forged = _copy(coarse_bundle, tmp_path)
    path = forged / "J9.json"
    with open(path, "ab") as fh:
        fh.write(b"\xff")
    code = cli.main(["verify", str(path if alone else forged)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VERIFY
    assert err.startswith(f"REJECT: {path}: not valid UTF-8 ("), err


# ---------------------------------------------------------------------------
# controls for verifier rejections, each through `starcc verify`: a forgery
# that only the named check rejects


def _verify_forged(bundle, tmp_path, capsys, rid, forge, alone=True):
    """Exit code and stderr of `verify` on a copy of the bundle whose
    region rid is forge(payload); the file alone or the whole bundle."""
    forged = _copy(bundle, tmp_path)
    path = forged / f"{rid}.json"
    doc = json.loads(path.read_text())
    forge(doc)
    path.write_text(json.dumps(doc))
    code = cli.main(["verify", str(path if alone else forged)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("alone", [False, True], ids=["bundle", "file"])
def test_a_region_file_of_another_format_is_rejected(coarse_bundle, tmp_path,
                                                    capsys, alone):
    code, err = _verify_forged(coarse_bundle, tmp_path, capsys, "J9",
                               lambda doc: doc.update(format="starcc-certificate/2"),
                               alone)
    assert code == cli.EXIT_VERIFY
    assert re.search(r"J9\.json: unsupported format 'starcc-certificate/2'/'inequality'$",
                     err.strip()), err


def test_a_region_file_of_the_local_kind_is_rejected(coarse_bundle, tmp_path, capsys):
    # alone, the file would be read as what its kind says; in a bundle the
    # J9 slot is read as a region certificate, and only the kind differs
    code, err = _verify_forged(coarse_bundle, tmp_path, capsys, "J9",
                               lambda doc: doc.update(kind="local-uniqueness"),
                               alone=False)
    assert code == cli.EXIT_VERIFY
    assert re.search(
        r"J9\.json: unsupported format 'starcc-certificate/1'/'local-uniqueness'$",
        err.strip()), err


def test_a_region_file_without_leaves_is_rejected(coarse_bundle, tmp_path, capsys):
    code, err = _verify_forged(coarse_bundle, tmp_path, capsys, "J9",
                               lambda doc: doc.update(leaves=[]))
    assert code == cli.EXIT_VERIFY
    assert err.strip() == "REJECT: J9: certificate has no leaves", err


def test_a_certificate_of_an_unknown_region_is_rejected(coarse_bundle, tmp_path, capsys):
    code, err = _verify_forged(coarse_bundle, tmp_path, capsys, "J9",
                               lambda doc: doc.update(region="J17"))
    assert code == cli.EXIT_VERIFY
    assert err.strip() == "REJECT: unknown region 'J17'", err


def test_a_plan_short_of_a_pair_is_rejected(coarse_bundle, tmp_path, capsys):
    # J4 stored with its first pair only: the verifier recomputes every
    # bound from the build's two pairs, so only the plan check sees it
    def first_pair(doc):
        assert doc["plan"] == "J4{lambda_11 < lambda_52;lambda_11 < lambda_31}"
        doc["plan"] = "J4{lambda_11 < lambda_52}"

    code, err = _verify_forged(coarse_bundle, tmp_path, capsys, "J4", first_pair)
    assert code == cli.EXIT_VERIFY
    assert err.strip() == "REJECT: plan does not match this build", err


def test_a_manifest_file_alone_is_rejected(coarse_bundle, capsys):
    path = coarse_bundle / "manifest.json"
    code = cli.main(["verify", str(path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VERIFY
    assert err.strip() == (f"REJECT: {path}: manifests are verified as part of"
                           " their bundle directory"), err


def test_a_piece_of_an_unknown_kind_is_rejected(coarse_bundle, tmp_path, capsys):
    code, err = _verify_forged(coarse_bundle, tmp_path, capsys, "J9",
                               lambda doc: doc.update(kind="lemma"))
    assert code == cli.EXIT_VERIFY
    assert re.search(r"J9\.json: unknown certificate kind 'lemma'$", err.strip()), err


@pytest.mark.parametrize("rid, kind, rows, want", [
    ("J9", "local-uniqueness", "leaves", "annulus"),
    ("local", "inequality", "annulus", "leaves"),
])
def test_a_file_alone_relabelled_to_the_other_kind_names_the_mismatch(
        coarse_bundle, tmp_path, capsys, rid, kind, rows, want):
    # alone, the file is read as the kind it names, whose rows key it lacks;
    # the rejection names the mismatch, not a missing field
    code, err = _verify_forged(coarse_bundle, tmp_path, capsys, rid,
                               lambda doc: doc.update(kind=kind))
    assert code == cli.EXIT_VERIFY
    assert re.search(
        rf"{rid}\.json: bad {kind} certificate: kind '{kind}' does not match its"
        rf" rows key '{rows}' \(a {kind} certificate has '{want}'\)$", err.strip()), err
    assert "missing field" not in err


@pytest.mark.parametrize("where, message", [
    ("object", "Expecting value: line 1 column 1 (char 0)"),
    ("key", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("colon", "Expecting ':' delimiter: line 1 column 10 (char 9)"),
], ids=["object", "key", "colon"])
def test_a_stray_character_in_the_object_syntax_is_rejected(coarse_bundle, tmp_path,
                                                            capsys, where, message):
    # the chunked reader walks the object's own syntax; one stray character
    # in place of the opening "{", of a key's opening quote or of a ":" must
    # send the text to json.loads, which rejects it
    forged = _copy(coarse_bundle, tmp_path)
    path = forged / "J9.json"
    text = path.read_text()
    assert text.startswith('{"format": ')
    at = {"object": 0, "key": 1, "colon": 9}[where]
    path.write_text(text[:at] + "x" + text[at + 1:])
    code = cli.main(["verify", str(path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VERIFY
    assert err.strip() == f"REJECT: {path}: not valid JSON ({message})", err


# ---------------------------------------------------------------------------
# controls for the bundle checker: every file verifies, and only the
# manifest is forged; each rejection names manifest.json


def _verify_manifest_forged(bundle, tmp_path, capsys, forge):
    """Exit code, stdout and stderr of `verify` on a copy of the bundle
    whose manifest is forge(manifest) (forge edits it in place)."""
    forged = _copy(bundle, tmp_path)
    path = forged / "manifest.json"
    manifest = json.loads(path.read_text())
    forge(manifest)
    path.write_text(json.dumps(manifest, indent=2))
    code = cli.main(["verify", str(forged)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err.strip(), path


_FINGERPRINT = "'f30d235f[0-9a-f]{56}'"


def _entry_mismatch(path, piece, said, got, said_fingerprint=_FINGERPRINT):
    """The message of the manifest entry check, as a regex: the manifest
    at path says `said` of piece under the fingerprint that
    said_fingerprint matches, and the piece verifies as `got`."""
    return (re.escape(f"REJECT: {path}: says {said!r} of {piece}, fingerprint ")
            + said_fingerprint + re.escape(
                f"; {path.parent / (piece + '.json')} verifies as {got!r}, fingerprint ")
            + _FINGERPRINT + "$")


@pytest.mark.parametrize("forge", [
    lambda m: m["config"].pop("delta_b0"),
    lambda m: m["config"].update(truncation="ten"),
    lambda m: m.update(config=[0.02, 10.0]),
], ids=["no-delta", "truncation-text", "config-list"])
def test_a_manifest_config_without_numeric_cuts_is_rejected(coarse_bundle, tmp_path,
                                                            capsys, forge):
    code, out, err, path = _verify_manifest_forged(coarse_bundle, tmp_path, capsys, forge)
    assert code == cli.EXIT_VERIFY and out == ""
    assert err == (f"REJECT: {path}: config must give numeric delta_b0"
                   " and truncation"), err


_CONFIG_KEYS = (r"manifest\.json: config must hold exactly the numbers max_box_width,"
                r" delta_b0, truncation, not \{")
_WITNESS = r"manifest\.json: solution_witness "


@pytest.mark.parametrize("forge, message", [
    (lambda m: m["config"].update(max_box_width=0.001),
     r"J1\.json: max_box_width 0\.1 differs from 0\.001 in manifest\.json$"),
    (lambda m: m["config"].update(delta_b0="0.02"),
     r"manifest\.json: config must give numeric delta_b0 and truncation$"),
    (lambda m: m["config"].update(truncation="10"),
     r"manifest\.json: config must give numeric delta_b0 and truncation$"),
    (lambda m: m["config"].update(max_box_width=True), _CONFIG_KEYS + r".*: True"),
    (lambda m: m["config"].update(threads=4), _CONFIG_KEYS + r".*'threads': 4\}$"),
    (lambda m: m["config"].update(max_depth=48, threads=4), _CONFIG_KEYS + r".*'max_depth'"),
    (lambda m: m["config"].pop("max_box_width"), _CONFIG_KEYS + r"'delta_b0'"),
    (lambda m: m["solution_witness"].update(is_solution=False),
     _WITNESS + r"\{.*'is_solution': False.*\} does not hold the true is_solution, "),
    (lambda m: m["solution_witness"].pop("y1"), _WITNESS + r"\{.*\} does not hold "),
    (lambda m: m.pop("solution_witness"), _WITNESS + r"None does not hold "),
], ids=["width-0.001", "delta-text", "truncation-text", "width-true", "threads",
        "old-five-key-config", "no-width", "not-a-solution", "witness-without-y1", "no-witness"])
def test_a_manifest_whose_scope_or_witness_is_not_the_bundles_is_rejected(
        coarse_bundle, tmp_path, capsys, forge, message):
    code, out, err, path = _verify_manifest_forged(coarse_bundle, tmp_path, capsys, forge)
    assert code == cli.EXIT_VERIFY and out == ""
    assert err.startswith("REJECT: ") and re.search(message, err), err


def test_the_witness_floats_are_informative(coarse_bundle, tmp_path, capsys):
    # libm's pow computes them, and it is not correctly rounded everywhere
    def forge(m):
        m["solution_witness"].update(pairwise_spread=0.0, y1=1e-300)

    code, out, err, _ = _verify_manifest_forged(coarse_bundle, tmp_path, capsys, forge)
    assert code == 0 and err == "", err
    assert sum(line.startswith("ACCEPT ") for line in out.splitlines()) == 17


def test_a_manifest_of_another_kind_is_rejected(coarse_bundle, tmp_path, capsys):
    code, out, err, path = _verify_manifest_forged(
        coarse_bundle, tmp_path, capsys, lambda m: m.update(kind="inequality"))
    assert code == cli.EXIT_VERIFY and out == ""
    assert err == f"REJECT: {path}: kind 'inequality' is not 'manifest'", err


@pytest.mark.parametrize("forge", [
    lambda m: m["regions"].pop("J9"),
    lambda m: m["regions"].update(J17=m["regions"]["J16"]),
    lambda m: m.pop("local"),
    lambda m: m.update(regions=sorted(m["regions"])),
    lambda m: m["regions"].update(local=m.pop("local")),
], ids=["J9-missing", "J17-listed", "local-missing", "regions-list", "local-in-regions"])
def test_a_manifest_that_does_not_list_exactly_the_17_pieces_is_rejected(
        coarse_bundle, tmp_path, capsys, forge):
    code, out, err, path = _verify_manifest_forged(coarse_bundle, tmp_path, capsys, forge)
    assert code == cli.EXIT_VERIFY and out == ""
    assert err == (f"REJECT: {path}: must list the regions J1..J16 and local,"
                   " no others"), err


def _claims(bundle, piece):
    """The genuine manifest's entry for piece, without its stats."""
    manifest = json.loads((bundle / "manifest.json").read_text())
    entry = manifest["local"] if piece == "local" else manifest["regions"][piece]
    return {k: v for k, v in entry.items() if k != "stats"}


@pytest.mark.parametrize("piece, edit", [
    ("J9", lambda e: dict(e, min_bound=2.0 * e["min_bound"])),
    ("J9", lambda e: dict(e, leaves=999)),
    ("J15", lambda e: dict(e, leaves=e["leaves"] + 1)),
    ("local", lambda e: dict(e, containment_margin=0.5)),
    ("local", lambda e: dict(e, containment_margin=2.0 * e["containment_margin"])),
    ("J3", lambda e: 7),
], ids=["J9-min_bound", "J9-999-leaves", "J15-one-more-leaf", "local-margin-0.5",
        "local-margin-doubled", "J3-not-an-object"])
def test_a_manifest_entry_that_differs_from_its_piece_is_rejected(
        coarse_bundle, tmp_path, capsys, piece, edit):
    got = _claims(coarse_bundle, piece)
    said = edit(got)

    def forge(m):
        (m if piece == "local" else m["regions"])[piece] = said

    code, out, err, path = _verify_manifest_forged(coarse_bundle, tmp_path, capsys, forge)
    assert code == cli.EXIT_VERIFY and out == ""
    assert re.match(_entry_mismatch(path, piece, said, got), err), err


@pytest.mark.parametrize("fingerprint", ["0" * 64, None], ids=["other", "missing"])
def test_a_manifest_of_another_fingerprint_is_rejected(coarse_bundle, tmp_path, capsys,
                                                       fingerprint):
    def forge(m):
        if fingerprint is None:
            del m["fingerprint"]
        else:
            m["fingerprint"] = fingerprint

    got = _claims(coarse_bundle, "J1")
    code, out, err, path = _verify_manifest_forged(coarse_bundle, tmp_path, capsys, forge)
    assert code == cli.EXIT_VERIFY and out == ""
    assert re.match(_entry_mismatch(path, "J1", got, got, re.escape(repr(fingerprint))),
                    err), err


def test_a_manifest_with_other_stats_still_verifies(coarse_bundle, tmp_path, capsys):
    # stats are informative: the checker compares every entry without them
    def forge(m):
        m["regions"]["J9"]["stats"] = {"evaluations": -1}
        del m["regions"]["J15"]["stats"]

    code, out, err, _ = _verify_manifest_forged(coarse_bundle, tmp_path, capsys, forge)
    assert code == 0 and err == "", err
    assert sum(line.startswith("ACCEPT ") for line in out.splitlines()) == 17
