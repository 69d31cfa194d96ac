"""starcc benchmark: run one workload and print every metric with its unit.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {bundle,certify-fine,scan} \
        --seed N --seconds S --trace {0,1}

The run sets up SETUPS fresh worker processes one after another (see
worker.py); each reports its set-up time and times operations for
S / SETUPS seconds, one client in a closed loop.  Every operation's output
is checked and a wrong one counts as failed.  --trace 0 prints the
end-to-end metrics; --trace 1 runs traced and untraced operations
alternately and prints the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

The program is the checkout's own src/starcc, used straight from source.
Without it the run exits with code 2 before measuring anything.  Scratch
files go to .bench_build/perfbench/ in the checkout and are removed at the
end, except the trace spans (JSON lines) under .bench_build/perfbench/traces.
See README.md in this directory for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from worker import CLI

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bundle", "certify-fine", "scan")
SETUPS = 3
RUN_LIMIT_S = 170.0
IMPORT_PROBES = 3
PROBE = ("import sys, time; n = len(sys.modules); t = time.perf_counter(); "
         "import starcc; print(time.perf_counter() - t, len(sys.modules) - n)")
END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("certify_cli_s", "s"), ("verify_cli_s", "s"), ("bundle_mb", "MB"),
    ("certify_s", "s"), ("scan_s", "s"), ("op_samples", "count"),
    ("failed_ops", "count"), ("forgeries_accepted", "count"),
    ("forgeries_set", "count"),
    ("cli.import_s", "s"), ("cli.import_modules", "count"),
    ("regions.cover_s", "s"), ("regions.initial_boxes", "count"),
    ("kernel.vector.busy_s", "s"), ("kernel.vector.lanes", "count"),
    ("kernel.vector.us_per_lane", "us"),
    ("kernel.float.busy_s", "s"), ("kernel.float.points", "count"),
    ("kernel.float.us_per_point", "us"),
    ("bnb.s", "s"), ("bnb.self_s", "s"), ("bnb.evaluations", "count"),
    ("bnb.leaves", "count"), ("bnb.max_depth", "count"), ("bnb.leaf_yield", "1"),
    ("bnb.slowest_region_s", "s"), ("bnb.J7.s", "s"), ("bnb.J9.s", "s"),
    ("bnb.J15.s", "s"), ("bnb.J16.s", "s"), ("bnb.J16.evaluations", "count"),
    ("bnb.J16.max_depth", "count"),
    ("local.s", "s"), ("local.annulus_leaves", "count"),
    ("serialise.to_json_s", "s"), ("serialise.parse_s", "s"),
    ("serialise.bytes", "bytes"),
    ("verify.regions_s", "s"), ("verify.kernel_s", "s"), ("verify.self_s", "s"),
    ("verify.local_s", "s"),
    ("scan.self_s", "s"), ("scan.in_domain", "count"), ("scan.converged", "count"),
    ("scan.diverged", "count"),
    ("overhead.certify_s", "s"), ("overhead.scan_s", "s"),
    ("overhead.certify_cli_s", "s"),
    ("share.kernel_vector", "1"), ("share.import_serialise", "1"),
) + tuple((f"bnb.J{n}.{what}", unit) for n in range(1, 17)
          for what, unit in (("leaves", "count"), ("min_bound", "1")))
# The workload's own timed call, reported by name next to op_s.
OP_NAME = {"certify-fine": "certify_s", "scan": "scan_s"}
# Fresh interpreters (each paying `import starcc`) per operation.
IMPORTS_PER_OP = {"bundle": 2, "certify-fine": 0, "scan": 0}
# How the layers should separate: (metric, comparison, bound) per workload.
LAYER_CHECKS = {
    "certify-fine": (("share.kernel_vector", ">=", 0.50),),
    "bundle": (("share.kernel_vector", "<=", 0.25),
               ("share.import_serialise", ">=", 0.40)),
}


def machine() -> dict:
    """The machine and the software a result was measured with."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    info = {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            info[pkg] = None
    return info


class Run:
    def __init__(self, args):
        self.args = args
        self.deadline = time.time() + RUN_LIMIT_S
        base = os.path.join(ROOT, ".bench_build", "perfbench")
        self.work = os.path.join(base, f"{args.workload}-s{args.seed}-p{os.getpid()}")
        self.trace_dir = os.path.join(base, "traces")
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.time())

    def worker(self, k: int) -> dict:
        a = self.args
        spawned = time.time()
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", a.workload,
             "--seed", str(a.seed), "--seconds", str(a.seconds / SETUPS),
             "--trace", str(a.trace), "--spawned-at", repr(spawned),
             "--deadline", repr(self.deadline), "--work", os.path.join(self.work, f"w{k}"),
             "--trace-dir", self.trace_dir],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
            timeout=self.remaining())
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            raise RuntimeError(f"worker {k} exited with code {p.returncode}")
        return json.loads(lines[-1])

    def import_probe(self):
        """Fresh-interpreter `import starcc`: median seconds, modules added."""
        times, mods = [], []
        for _ in range(IMPORT_PROBES):
            p = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=self.env,
                               capture_output=True, text=True, check=True,
                               timeout=self.remaining())
            t, n = p.stdout.split()
            times.append(float(t))
            mods.append(int(n))
        return statistics.median(times), max(mods)

    def forgeries(self) -> dict:
        """Exit code of `starcc verify` on each forged copy of the seed's bundle."""
        genuine = os.path.join(self.work, "w0", "warm")
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "forge.py"), genuine,
             os.path.join(self.work, "forged"), str(self.args.seed)],
            cwd=ROOT, env=self.env, capture_output=True, text=True, check=True,
            timeout=self.remaining())
        dirs = json.loads(p.stdout.strip().splitlines()[-1])

        def verify(d):
            return subprocess.run([sys.executable, *CLI, "verify", d], cwd=ROOT,
                                  env=self.env, capture_output=True,
                                  timeout=self.remaining()).returncode

        with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
            codes = list(pool.map(verify, dirs.values()))
        return dict(zip(dirs, codes))

    def measure(self):
        a = self.args
        os.makedirs(self.work, exist_ok=True)
        os.makedirs(self.trace_dir, exist_ok=True)
        workers = [self.worker(k) for k in range(SETUPS)]
        ops = [op for w in workers for op in w["ops"]]
        plain = [op for op in ops if not op["traced"]]
        traced = [op for op in ops if op["traced"]]
        attempted = sum(w["attempted"] for w in workers)
        failed = sum(w["failed"] for w in workers)
        walls = [op["wall"] for op in plain]

        shown = {
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "op_s": statistics.median(walls),
            "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
        }
        info = {name: 0 for name, _ in PER_LAYER}
        info.update(workers[0]["warm_counts"])
        info["op_samples"] = len(walls)
        info["failed_ops"] = failed
        if a.workload == "bundle":
            for key in ("certify_cli_s", "verify_cli_s", "bundle_mb"):
                info[key] = _median(op.get(key) for op in plain)
        else:
            info[OP_NAME[a.workload]] = shown["op_s"]
        lines = [f"op_s samples {len(walls)}; workers' set-up times "
                 + ", ".join(f"{w['setup_s']:.3f}" for w in workers) + " s"]

        if not a.trace:
            lines += [f"{name} {info[name]:.6g} {unit}"
                      for name, unit in PER_LAYER[:6] if info[name]]
            return attempted, failed, {n: (shown[n], u) for n, u in END_TO_END}, lines
        self.layers(info, plain, traced, lines)
        return attempted, failed, {n: (info[n], u) for n, u in PER_LAYER}, lines

    def layers(self, info, plain, traced, lines):
        """Per-layer metrics from the traced operations, the tracing
        overhead and the layer-separation checks."""
        a = self.args
        for key in traced[0]["layers"]:
            info[key] = _median(op["layers"][key] for op in traced)
        info["cli.import_s"], info["cli.import_modules"] = self.import_probe()
        if info["bnb.evaluations"]:
            info["bnb.leaf_yield"] = info["bnb.leaves"] / info["bnb.evaluations"]
        if a.workload == "bundle":
            info["overhead.certify_cli_s"] = (
                _median(op.get("certify_cli_s") for op in traced) - info["certify_cli_s"])
            codes = self.forgeries()
            info["forgeries_set"] = len(codes)
            info["forgeries_accepted"] = sum(rc == 0 for rc in codes.values())
            lines += [f"forgery {name}: verify exit {rc} "
                      f"({'ACCEPTED' if rc == 0 else 'rejected'})"
                      for name, rc in codes.items()]
        else:
            key = OP_NAME[a.workload]
            info["overhead." + key] = _median(op["wall"] for op in traced) - info[key]
        op_traced = _median(op["wall"] for op in traced)
        info["share.kernel_vector"] = info["kernel.vector.busy_s"] / op_traced
        info["share.import_serialise"] = (
            IMPORTS_PER_OP[a.workload] * info["cli.import_s"]
            + info["serialise.to_json_s"] + info["serialise.parse_s"]) / op_traced
        for name, op, bound in LAYER_CHECKS.get(a.workload, ()):
            v = info[name]
            ok = v >= bound if op == ">=" else v <= bound
            lines.append(f"layer check {name} = {v:.3f} {op} {bound}: "
                         f"{'PASS' if ok else 'FAIL'}")


def _median(values) -> float:
    """Median of the values that are present; 0 when there are none."""
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "starcc", "__init__.py")):
        print(f"error: no starcc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    run = Run(args)
    try:
        attempted, failed, metrics, lines = run.measure()
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print("machine " + json.dumps(machine()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
