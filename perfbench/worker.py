"""One benchmark worker: set up, run one untimed warm-up operation, then time
operations for its share of the run and print one JSON line of results.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  The
parent passes the wall-clock time at which it spawned this process, so the
worker can report its set-up time from process start to the first timed
operation.  With --trace 1 untraced and traced operations alternate, so the
run yields both the plain timings and the per-layer spans (and the tracing
overhead as their difference).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))

WIDTH_BUNDLE = 0.02
WIDTH_FINE = 0.01
TRUNCATION = 10.0
THREADS = 2
SCAN_WINDOW = ((0.2, 3.0), (0.2, 3.0))
SCAN_STARTS = 100_000
ROOT_TOL = 1e-8
VERDICT = "UNIQUE-IN-WINDOW"
BUNDLE_ACCEPTS = 17  # 16 regions + local.json
# Mirrors the `starcc` console script (starcc.cli:main) in a fresh process.
CLI = ["-c", "import sys; from starcc.cli import main; sys.exit(main())"]


def _region_counts(regions) -> dict:
    """Per-region leaves and min_bound plus the summed branch-and-bound
    counters, from Certificate.stats (as certify_all reports them)."""
    out = {}
    for rid, r in regions.items():
        out[f"bnb.{rid}.leaves"] = r["leaves"]
        out[f"bnb.{rid}.min_bound"] = r["min_bound"]
    stats = [r["stats"] for r in regions.values()]
    out["bnb.evaluations"] = sum(s["evaluations"] for s in stats)
    out["bnb.leaves"] = sum(s["leaves"] for s in stats)
    out["bnb.max_depth"] = max(s["max_depth"] for s in stats)
    out["bnb.J16.evaluations"] = regions["J16"]["stats"]["evaluations"]
    out["bnb.J16.max_depth"] = regions["J16"]["stats"]["max_depth"]
    return out


class FineCertify:
    """certify_all at width 0.01 in this warm process, writing nothing.  The
    proof is one fixed instance, so the seed selects nothing here."""

    def __init__(self, args):
        import starcc.certify as certify

        self.certify = certify
        self.config = certify.RunConfig(max_box_width=WIDTH_FINE,
                                        truncation=TRUNCATION, threads=THREADS)

    def run(self, traced=False):
        m = self.certify.certify_all(self.config)
        bounds = [c.min_bound for c in m.certificates.values()]
        ok = (m.verdict == VERDICT and len(bounds) == 16
              and all(math.isfinite(b) and b > 0.0 for b in bounds))
        counts = _region_counts({
            rid: {"leaves": c.n_leaves(), "min_bound": c.min_bound, "stats": c.stats}
            for rid, c in m.certificates.items()})
        counts["local.annulus_leaves"] = int(m.local.ann_lo3.size)
        return ok, {}, counts, None


class Scan:
    """grid_scan over [0.2, 3]^2 from 10^5 Sobol starts seeded by --seed."""

    def __init__(self, args):
        import starcc.solver as solver

        self.solver = solver
        self.seed = args.seed

    def run(self, traced=False):
        rep = self.solver.grid_scan(SCAN_WINDOW, SCAN_STARTS, seed=self.seed)
        ok = (len(rep.roots) == 1
              and math.hypot(rep.roots[0].r3 - 1.0, rep.roots[0].r5 - 1.0) <= ROOT_TOL)
        counts = {f"scan.{k}": rep.stats[k] for k in ("in_domain", "converged", "diverged")}
        return ok, {}, counts, None


class Bundle:
    """`starcc certify all` then `starcc verify` on its bundle, each in a fresh
    process.  The client itself does not import starcc."""

    def __init__(self, args):
        self.work = args.work
        self.trace_prefix = args.trace_prefix
        self.n = 0
        self.certify_args = ["certify", "all", "--width", str(WIDTH_BUNDLE),
                             "--truncate-r5", f"{TRUNCATION:g}", "--threads",
                             str(THREADS), "--output"]
        self.deadline = args.deadline

    def _call(self, argv, spans):
        head = [os.path.join(HERE, "traced_cli.py"), spans] if spans else CLI
        t0 = time.perf_counter()
        p = subprocess.run([sys.executable, *head, *argv], capture_output=True,
                           text=True, timeout=max(1.0, self.deadline - time.time()))
        return time.perf_counter() - t0, p

    def run(self, traced=False):
        """One cycle; traced children record their spans to files."""
        out = os.path.join(self.work, "warm" if self.n == 0 else f"op{self.n}")
        self.n += 1
        spans = [f"{self.trace_prefix}-op{self.n}-{kind}.jsonl"
                 for kind in ("certify", "verify")] if traced else None
        t_c, pc = self._call(self.certify_args + [out], spans and spans[0])
        t_v, pv = self._call(["verify", out], spans and spans[1])
        size = sum(e.stat().st_size for e in os.scandir(out)) if os.path.isdir(out) else 0
        ok = (pc.returncode == 0 and f"verdict: {VERDICT}" in pc.stdout
              and pv.returncode == 0
              and sum(ln.startswith("ACCEPT ") for ln in pv.stdout.splitlines()) == BUNDLE_ACCEPTS
              and f"verdict '{VERDICT}' confirmed" in pv.stdout)
        if not ok:
            sys.stderr.write(f"bundle cycle failed: certify rc={pc.returncode} "
                             f"verify rc={pv.returncode}\n{pc.stderr[-2000:]}{pv.stderr[-2000:]}\n")
        counts = {}
        manifest = os.path.join(out, "manifest.json")
        if pc.returncode == 0 and os.path.exists(manifest):
            with open(manifest, encoding="utf-8") as fh:
                counts = _region_counts(json.load(fh)["regions"])
            m = re.search(r"annulus leaves (\d+)", pc.stdout)
            counts["local.annulus_leaves"] = int(m.group(1)) if m else 0
        if self.n > 1:  # keep only the warm-up bundle, the seed's bundle
            shutil.rmtree(out, ignore_errors=True)
        extra = {"certify_cli_s": t_c, "verify_cli_s": t_v, "bundle_mb": size / 1e6}
        return ok, extra, counts, spans


def _load_spans(paths):
    spans = []
    for path in paths:
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh)
    return spans


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", dest="spawned_at", type=float, required=True)
    ap.add_argument("--deadline", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace-dir", dest="trace_dir", required=True)
    args = ap.parse_args()
    os.makedirs(args.work, exist_ok=True)
    args.trace_prefix = os.path.join(
        args.trace_dir, f"{args.workload}-s{args.seed}-{os.path.basename(args.work)}")

    kind = {"bundle": Bundle, "certify-fine": FineCertify, "scan": Scan}[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer, layer_times

        tracer = Tracer()
    workload = kind(args)

    ops = []
    attempted = failed = 0

    def run_op(traced: bool):
        nonlocal attempted, failed
        attempted += 1
        t0 = time.perf_counter()
        try:
            if traced and not isinstance(workload, Bundle):
                tracer.install()
                try:
                    with tracer.op(args.workload, len(ops)):
                        ok, extra, counts, spans = workload.run()
                finally:
                    tracer.uninstall()
            else:
                ok, extra, counts, spans = workload.run(traced)
        except Exception:  # a raising operation is a failed one; keep measuring
            traceback.print_exc()
            ok, extra, counts, spans = False, {}, {}, None
        wall = time.perf_counter() - t0
        failed += not ok
        rec = {"wall": wall, "traced": traced, "ok": ok, "counts": counts, **extra}
        if traced:
            rec["layers"] = layer_times(_load_spans(spans) if spans else
                                        [s for s in tracer.spans if s["op"] == len(ops)])
        return rec

    warm = run_op(False)  # untimed: fills caches, finishes lazy set-up
    setup_s = time.time() - args.spawned_at

    # Start another operation only while it should fit in this worker's share;
    # a traced run needs at least one untraced and one traced operation.
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        ops.append(run_op(traced))
        estimate = ops[-1]["wall"]
        used = time.perf_counter() - t_start
        need_more = args.trace and len(ops) < 2
        if not need_more and used + estimate > args.seconds:
            break
        if time.time() + 2 * estimate > args.deadline:
            break

    if tracer is not None and not isinstance(workload, Bundle):
        tracer.write(args.trace_prefix + ".jsonl")
    usage = resource.RUSAGE_CHILDREN if isinstance(workload, Bundle) else resource.RUSAGE_SELF
    print(json.dumps({
        "setup_s": setup_s,
        "ops": ops,
        "warm_counts": warm["counts"],
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
