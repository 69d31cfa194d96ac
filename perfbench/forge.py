"""Build the fixed set of six forged bundles from one genuine bundle.

Usage: python3 perfbench/forge.py GENUINE_DIR OUT_DIR SEED

Each forgery is a copy of the genuine bundle with one defect.  A forger
keeps the bundle self-consistent where that is easy, so a dropped leaf also
updates the certificate's and the manifest's min_bound.  The seed picks the
tampered J16 leaf and the dropped J15 leaf; the other four are fixed.
Prints {name: directory} as JSON.
"""

import json
import math
import os
import random
import shutil
import sys

import starcc.certify as certify


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dump(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _replace_region(d, rid, payload):
    """Write a region certificate and make the manifest agree with it."""
    _dump(os.path.join(d, f"{rid}.json"), payload)
    manifest = _load(os.path.join(d, "manifest.json"))
    manifest["regions"][rid]["min_bound"] = float.fromhex(payload["min_bound"])
    manifest["regions"][rid]["leaves"] = len(payload["leaves"])
    _dump(os.path.join(d, "manifest.json"), manifest)


def _drop_leaf(d, rid, pick):
    # leaf rows are [r3_lo, r3_hi, r5_lo, r5_hi, form, bound]
    payload = _load(os.path.join(d, f"{rid}.json"))
    del payload["leaves"][pick(payload["leaves"])]
    payload["min_bound"] = min(float.fromhex(r[5]) for r in payload["leaves"]).hex()
    _replace_region(d, rid, payload)


def _narrowest(rows):
    widths = [max(float.fromhex(r[1]) - float.fromhex(r[0]),
                  float.fromhex(r[3]) - float.fromhex(r[2])) for r in rows]
    return widths.index(min(widths))


def _tamper_bound(d, rid, j):
    payload = _load(os.path.join(d, f"{rid}.json"))
    row = payload["leaves"][j]
    row[5] = math.nextafter(float.fromhex(row[5]), math.inf).hex()
    _dump(os.path.join(d, f"{rid}.json"), payload)


def main() -> int:
    genuine, out, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    rng = random.Random(seed)
    config = _load(os.path.join(genuine, "manifest.json"))["config"]
    n16 = len(_load(os.path.join(genuine, "J16.json"))["leaves"])
    n15 = len(_load(os.path.join(genuine, "J15.json"))["leaves"])
    j16, j15 = rng.randrange(n16), rng.randrange(n15)

    def local_delta(d):
        loc = certify.certify_local_uniqueness(delta=0.005)
        with open(os.path.join(d, "local.json"), "w", encoding="utf-8") as fh:
            fh.write(loc.to_json())

    def j9_truncated(d):
        cert = certify.certify_inequality(
            "J9", max_box_width=config["max_box_width"], truncation=1.5,
            delta=config["delta_b0"])
        _replace_region(d, "J9", json.loads(cert.to_json()))

    forgeries = {
        "tampered-J16-bound": lambda d: _tamper_bound(d, "J16", j16),
        "deleted-local": lambda d: os.remove(os.path.join(d, "local.json")),
        "dropped-narrowest-J16-leaf": lambda d: _drop_leaf(d, "J16", _narrowest),
        "dropped-J15-leaf": lambda d: _drop_leaf(d, "J15", lambda rows: j15),
        "local-delta-0.005": local_delta,
        "J9-truncated-1.5": j9_truncated,
    }
    dirs = {}
    for name, forge in forgeries.items():
        d = os.path.join(out, name)
        shutil.rmtree(d, ignore_errors=True)
        shutil.copytree(genuine, d)
        forge(d)
        dirs[name] = d
    print(json.dumps(dirs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
