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


@pytest.mark.parametrize("rid, unbounded", [("J4", False), ("J9", True)])
def test_certify_one_region_says_it_is_truncated_only_if_unbounded(rid, unbounded,
                                                                   capsys):
    # every region records the run's truncation, but only an unbounded
    # region's cover is cut by it
    code, out = run(["certify", rid, "--width", "0.1", "--truncate-r5", "12"], capsys)
    assert code == 0
    assert ("truncated at r5 <= 12 (recorded in the certificate)" in out) is unbounded


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


def test_certify_budget_exhaustion_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(certify, "MAX_DEPTH", 2)
    code, out = run(["certify", "J7", "--width", "0.05"], capsys)
    assert code == cli.EXIT_BUDGET


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
# bundle runs: what no row of CONTROLS can check (a run, the pool's order,
# the verdict lines)


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


# ---------------------------------------------------------------------------
# manifests that still verify: what the bundle checker compares without.
# Every rejection of `verify` is a row of CONTROLS in
# tests/test_verifier_mutations.py


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
    return code, captured.out, captured.err.strip()


def test_the_witness_floats_are_informative(coarse_bundle, tmp_path, capsys):
    # libm's pow computes them, and it is not correctly rounded everywhere
    def forge(m):
        m["solution_witness"].update(pairwise_spread=0.0, y1=1e-300)

    code, out, err = _verify_manifest_forged(coarse_bundle, tmp_path, capsys, forge)
    assert code == 0 and err == "", err
    assert sum(line.startswith("ACCEPT ") for line in out.splitlines()) == 17


def test_a_manifest_with_other_stats_still_verifies(coarse_bundle, tmp_path, capsys):
    # stats are informative: the checker compares every entry without them
    def forge(m):
        m["regions"]["J9"]["stats"] = {"evaluations": -1}
        del m["regions"]["J15"]["stats"]

    code, out, err = _verify_manifest_forged(coarse_bundle, tmp_path, capsys, forge)
    assert code == 0 and err == "", err
    assert sum(line.startswith("ACCEPT ") for line in out.splitlines()) == 17
