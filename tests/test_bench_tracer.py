"""perfbench/tracer.py times starcc by swapping module attributes for
timing wrappers by name, and perfbench/worker.py runs each workload through
the options, attributes and output lines of starcc named below.  These
tests fail when one of those moves, instead of the benchmark crashing or
counting every operation as failed."""

import argparse
import json
import os
import time
from pathlib import Path

import pytest

import starcc.certify as certify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_bench_tracer_wraps_the_pipeline(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    original = certify.certify_inequality
    tracer = Tracer()
    tracer.install()
    try:
        cert = certify.certify_inequality("J5", 0.1)
        back = certify.Certificate.from_payload(json.loads(cert.to_json()))
        assert certify.verify_certificate(back)
    finally:
        tracer.uninstall()
    assert certify.certify_inequality is original
    names = {span["name"] for span in tracer.spans}
    assert {
        "regions.cover",
        "bnb",
        "serialise.to_json",
        "serialise.from_payload",
        "verify.region",
    } <= names


@pytest.mark.parametrize("kind, annulus_leaves", [
    ("FineCertify", 4276), ("Scan", None), ("Bundle", 4276),
], ids=["FineCertify", "Scan", "Bundle"])
def test_one_operation_of_each_benchmark_workload_succeeds(monkeypatch, tmp_path, kind,
                                                           annulus_leaves):
    # FineCertify reads RunConfig(threads=...) and m.local.ann_lo3; Bundle
    # runs `starcc certify all --width 0.02 ...` and `starcc verify` in
    # fresh processes, parses "annulus leaves N" and counts 17 ACCEPT lines
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker

    src = str(Path(certify.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = argparse.Namespace(seed=1, work=str(tmp_path), deadline=time.time() + 120,
                              trace_prefix=str(tmp_path / "trace"))
    ok, _, counts, _ = getattr(worker, kind)(args).run()
    assert ok
    assert counts.get("local.annulus_leaves") == annulus_leaves
