"""Span tracer that times calls into starcc's layers from outside the package.

`Tracer.install()` swaps the public functions of each layer module for
timing wrappers and `uninstall()` puts the originals back, so no file of
`src/starcc` changes and an untraced operation runs the original code.
Spans stay in memory; `write()` dumps them as JSON lines at the end.

Kernel calls are binned by backend class and only the outermost call per
thread becomes a span, because `lambda_quot` calls `lambda_num` and
`certify_all` runs its regions on a thread pool.

This module imports only the standard library, so that a traced CLI child
can time `import starcc` itself.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager

KERNEL_FUNCS = ("derived_radii", "lambda_num", "lambda_den", "lambda_quot", "y1_num")


def _backend_bin(bk) -> str:
    cls = bk if isinstance(bk, type) else type(bk)
    names = {c.__name__ for c in cls.__mro__}
    if "VectorBackend" in names:  # also the certifier's masked subclass
        return "vector"
    if "FloatBackend" in names:
        return "float"
    if "DualBackend" in names:
        return "dual"
    return "scalar"


def _lanes(fname: str, args) -> int:
    """Lanes (boxes or points) one kernel call evaluates: the size of r3."""
    r3 = args[1][2] if fname in ("lambda_num", "lambda_den") else args[1]
    return int(getattr(getattr(r3, "lo", r3), "size", 1))


class Tracer:
    """In-memory spans: id, parent, name, start, end, thread, op, attributes."""

    def __init__(self):
        self.spans: list = []
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._prefix = f"{os.getpid()}:"
        self._saved: list = []
        # Spans opened on pool threads have no parent on their own stack;
        # they hang off the root span of the current operation.
        self._op = None
        self._root = None

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs=None):
        """Run fn(*args, **kwargs) inside a span; attrs(args, result) adds
        attributes to the span record."""
        stack = self._stack()
        sid = self._prefix + str(next(self._ids))
        parent = stack[-1] if stack else self._root
        stack.append(sid)
        ok = False
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            t1 = time.perf_counter()
            stack.pop()
            rec = {"id": sid, "parent": parent, "name": name, "t0": t0, "t1": t1,
                   "thread": threading.get_ident(), "op": self._op}
            if not ok:
                rec["error"] = True
            elif attrs is not None:
                rec.update(attrs(args, out))
            self.spans.append(rec)

    @contextmanager
    def op(self, name: str, op_id):
        """Root span of one operation; spans of the operation share op_id."""
        self._op = op_id
        sid = self._prefix + str(next(self._ids))
        self._root = sid
        stack = self._stack()
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append({"id": sid, "parent": None, "name": name, "t0": t0,
                               "t1": t1, "thread": threading.get_ident(), "op": op_id})
            self._op = self._root = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)
        return wrapper

    def _wrap_kernel(self, fn, fname):
        tls = self._tls

        def attrs(args, out):
            return {"fn": fname, "lanes": _lanes(fname, args)}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(tls, "in_kernel", False):
                return fn(*args, **kwargs)
            tls.in_kernel = True
            try:
                return self.call("kernel." + _backend_bin(args[0]), fn, args,
                                 kwargs, attrs)
            finally:
                tls.in_kernel = False
        return wrapper

    def _patch(self, owners, attr, make):
        """Replace owner.attr on every owner with one wrapper of the first
        owner's original (owners may re-export the same function)."""
        original = vars(owners[0])[attr]
        is_static = isinstance(original, staticmethod)
        new = make(original.__func__ if is_static else original)
        if is_static:
            new = staticmethod(new)
        for owner in owners:
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the layer functions of an imported starcc."""
        import starcc.certify as certify
        import starcc.cli as cli
        import starcc.kernel as kernel
        import starcc.solver as solver

        for fname in KERNEL_FUNCS:
            self._patch([kernel], fname,
                        lambda f, n=fname: self._wrap_kernel(f, n))
        self._patch([certify], "cover_arrays", lambda f: self._wrap(
            f, "regions.cover", lambda a, out: {"boxes": int(out[0].size)}))
        self._patch([certify], "certify_inequality", lambda f: self._wrap(
            f, "bnb", lambda a, out: {"region": out.region}))
        self._patch([certify], "certify_local_uniqueness",
                    lambda f: self._wrap(f, "local"))
        self._patch([certify, cli], "certify_all",
                    lambda f: self._wrap(f, "certify_all"))
        for cls in (certify.Certificate, certify.LocalUniquenessCertificate):
            self._patch([cls], "to_json", lambda f: self._wrap(
                f, "serialise.to_json", lambda a, out: {"bytes": len(out)}))
            self._patch([cls], "from_payload",
                        lambda f: self._wrap(f, "serialise.from_payload"))
        self._patch([cli], "_load_payload",
                    lambda f: self._wrap(f, "serialise.load"))
        self._patch([certify, cli], "verify_certificate",
                    lambda f: self._wrap(f, "verify.region"))
        self._patch([certify, cli], "verify_local_certificate",
                    lambda f: self._wrap(f, "verify.local"))
        self._patch([solver, cli], "grid_scan", lambda f: self._wrap(f, "scan"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# -- derived per-layer metrics ------------------------------------------------


def _dur(s) -> float:
    return s["t1"] - s["t0"]


def _covered(span, children) -> float:
    """Length of span's interval that the union of its children covers."""
    ivs = sorted((max(c["t0"], span["t0"]), min(c["t1"], span["t1"])) for c in children)
    total, end = 0.0, float("-inf")
    for a, b in ivs:
        a = max(a, end)
        if b > a:
            total += b - a
            end = b
    return total


def layer_times(spans) -> dict:
    """Per-layer times of one operation from its spans (seconds, and lane
    counts for the kernel).  Self time is span time minus child span time."""
    kids: dict = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    names = {s["id"]: s["name"] for s in spans}

    def total(name):
        return sum(_dur(s) for s in spans if s["name"] == name)

    def self_time(name):
        return sum(_dur(s) - _covered(s, kids.get(s["id"], ()))
                   for s in spans if s["name"] == name)

    m = {}
    for b, unit in (("vector", "lanes"), ("float", "points")):
        ks = [s for s in spans if s["name"] == "kernel." + b]
        busy = sum(_dur(s) for s in ks)
        n = sum(s.get("lanes", 0) for s in ks)
        m[f"kernel.{b}.busy_s"] = busy
        m[f"kernel.{b}.{unit}"] = n
        m[f"kernel.{b}.us_per_{unit[:-1]}"] = 1e6 * busy / n if n else 0.0
    m["regions.cover_s"] = total("regions.cover")
    m["regions.initial_boxes"] = sum(s.get("boxes", 0) for s in spans
                                     if s["name"] == "regions.cover")
    bnb = [s for s in spans if s["name"] == "bnb"]
    m["bnb.s"] = sum(_dur(s) for s in bnb)
    m["bnb.self_s"] = self_time("bnb")
    m["bnb.slowest_region_s"] = max((_dur(s) for s in bnb), default=0.0)
    for rid in ("J7", "J9", "J15", "J16"):
        m[f"bnb.{rid}.s"] = sum(_dur(s) for s in bnb if s.get("region") == rid)
    m["local.s"] = total("local")
    m["serialise.to_json_s"] = total("serialise.to_json")
    m["serialise.bytes"] = sum(s.get("bytes", 0) for s in spans
                               if s["name"] == "serialise.to_json")
    m["serialise.parse_s"] = total("serialise.load") + total("serialise.from_payload")
    m["verify.regions_s"] = total("verify.region")
    m["verify.kernel_s"] = sum(_dur(s) for s in spans if s["name"].startswith("kernel.")
                               and names.get(s["parent"]) == "verify.region")
    m["verify.self_s"] = self_time("verify.region")
    m["verify.local_s"] = total("verify.local")
    m["scan.self_s"] = self_time("scan")
    return m
