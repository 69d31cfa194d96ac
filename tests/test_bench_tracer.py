"""perfbench/tracer.py times starcc by swapping module attributes for
timing wrappers by name.  This test fails when one of those names moves,
instead of the traced benchmark crashing."""

import json
from pathlib import Path

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
