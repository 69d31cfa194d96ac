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

from starcc import cli, kernel
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
    doc = json.loads(out)
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


def test_certify_budget_exhaustion_exits_4(capsys):
    code, out = run(["certify", "J7", "--width", "0.05", "--max-depth", "2"],
                    capsys)
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


def test_certify_region_without_excision_fails_next_to_the_root(capsys):
    code, out = run(
        ["certify", "J16", "--width", "0.05", "--delta", "0",
         "--max-depth", "6"],
        capsys,
    )
    assert code == cli.EXIT_BUDGET


def test_config_file_flag_and_env_precedence(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "max_box_width": 0.1,
        "output_dir": str(tmp_path / "from-config"),
    }))
    # env beats config file for the output dir...
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "from-env"))
    code, _ = run(["certify", "J4", "--config", cfg], capsys)
    assert code == 0
    assert (tmp_path / "from-env" / "J4.json").exists()
    assert not (tmp_path / "from-config").exists()
    # ...and an explicit flag beats both
    code, _ = run(["certify", "J4", "--config", cfg,
                   "--output", tmp_path / "from-flag"], capsys)
    assert code == 0
    assert (tmp_path / "from-flag" / "J4.json").exists()
    # width came from the config file both times
    doc = json.loads((tmp_path / "from-flag" / "J4.json").read_text())
    assert doc["max_box_width"] == float(0.1).hex()


def test_config_file_with_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"max_box_widht": 0.1}))
    code, _ = run(["certify", "J4", "--config", cfg], capsys)
    assert code == cli.EXIT_DOMAIN
    # a residual tolerance is a constant, not a config key
    cfg.write_text(json.dumps({"max_box_width": 0.1, "posteriori_tol": 1e-9}))
    code, _ = run(["certify", "J4", "--config", cfg], capsys)
    assert code == cli.EXIT_DOMAIN


@pytest.mark.parametrize("raw", [
    {"max_box_width": "0.1"}, {"threads": 1.5}, {"threads": True},
    {"output_dir": 3}, {"truncation": 10**400}, 5,
], ids=["width-string", "threads-float", "threads-bool", "output-dir-number",
        "truncation-overflows", "not-an-object"])
def test_config_file_value_of_the_wrong_type_exits_2(raw, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(raw))
    code, out = run(["certify", "J4", "--config", cfg], capsys)
    assert code == cli.EXIT_DOMAIN
    assert "Traceback" not in out


def test_config_file_integer_for_a_float_field_is_a_float(tmp_path):
    # as from the flag, so a manifest records 10.0 either way, never 10
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"truncation": 10}))
    args = cli.build_parser().parse_args(["certify", "all", "--config", str(cfg)])
    got = cli._load_run_config(args).truncation
    assert type(got) is float and got == 10.0


def test_config_file_with_seed_exits_2(tmp_path, capsys):
    # certification is deterministic; a seed key is a stale config
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"max_box_width": 0.1, "seed": 3}))
    code, _ = run(["certify", "J4", "--config", cfg], capsys)
    assert code == cli.EXIT_DOMAIN


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
    doc = json.loads(out_file.read_text())
    assert len(doc["roots"]) == 1
    assert doc["roots"][0]["r3"] == pytest.approx(1.0, abs=1e-8)


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
    bundle = _copy(coarse_bundle, tmp_path)
    code, out = run(["certify", "all", "--width", "0.1", "--max-depth", "0",
                     "--threads", threads, "--output", bundle], capsys)
    assert code == cli.EXIT_BUDGET
    assert "budget exhausted: J1: " in out
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


def test_both_verdict_lines_name_what_the_verdict_covers(tmp_path, capsys):
    # a bundle cut at r5 <= 3.1 proves less than one cut at r5 <= 10
    bundle = tmp_path / "cut"
    code, out = run(["certify", "all", "--width", "0.1", "--truncate-r5", "3.1",
                     "--output", bundle], capsys)
    assert code == 0
    assert "verdict: UNIQUE-IN-WINDOW  (r5 <= 3.1, window delta 0.02; " in out
    code, out = run(["verify", bundle], capsys)
    assert code == 0
    assert out.splitlines()[-1] == (
        f"bundle {bundle}: verdict 'UNIQUE-IN-WINDOW' confirmed"
        " (r5 <= 3.1, window delta 0.02)")


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


def test_a_region_file_alone_relabelled_local_names_the_missing_field(
        coarse_bundle, tmp_path, capsys):
    # read as what its kind says, the file lacks the local certificate's
    # rows, the first field the decoder reads
    code, err = _verify_forged(coarse_bundle, tmp_path, capsys, "J9",
                               lambda doc: doc.update(kind="local-uniqueness"))
    assert code == cli.EXIT_VERIFY
    assert re.search(r"J9\.json: bad local-uniqueness certificate: missing field 'annulus'$",
                     err.strip()), err


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
