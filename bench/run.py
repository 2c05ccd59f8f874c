"""Benchmark of the scatsig command line.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``). Load is a closed loop with one client: one workload call at
a time, each in a fresh interpreter that imports ``scatsig.cli`` and
calls ``cli.main(argv)`` for each CLI command of the workload, so the
package's caches start cold as they do for every real CLI call. Calls run at the program's default thread settings:
SCATSIG_THREADS, OPENBLAS_NUM_THREADS and OMP_NUM_THREADS are removed
from their environment, and the values the program resolves to are
recorded.

Every artifact is checked against the analytic oracle and, byte for
byte, against the first artifact of the same thread settings in the
run. With ``--trace 0`` the run times calls for about S seconds and
prints the end-to-end metrics; with ``--trace 1`` it makes untraced
reference calls, traced calls and one traced serial reference call, and
prints the per-layer metrics. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
Details (every call, the environment record, raw spans) go to
``.bench_out/<workload>/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import LAYERS, point_percentiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# every run must end well inside the 180 s a run may take
DEADLINE_S = 165.0
# import-only calls per timed run, after one discarded warm-up call; every
# workload call adds one more setup sample
SETUP_PROBES = 1
MIN_TIMED_CALLS = 3
UNTRACED_REFS = 2
TRACED_CALLS = 4
THREAD_VARS = ("SCATSIG_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

BALL4 = {"layers": [{"r": 1.0, "n_re": 4.0, "n_im": 0.0}]}
ABSORBING = {"layers": [{"r": 1.0, "n_re": 2.0, "n_im": 2.0}]}
# the 9x9 Stekloff window keeps the 12x12 rectangle's cell size (0.36 x 0.09)
# and holds the two lowest Stekloff eigenvalues of the absorbing ball; its
# low-indicator margin keeps the median-relative peak threshold below both
# peaks for every z seed tried (a 7x7 window missed one at --zseed 609)
STEKLOFF_RECT = (-3.42, -0.54, -0.11, 0.61, 9)
TEV_GRID = "3.06:3.2:0.02"


def _rows(path):
    """Data rows of a CSV artifact, without its comment lines and header."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.reader(lines))[1:]


def check_tev(paths, ref):
    from scatsig.scan import ScanResult, find_peaks

    rows = _rows(paths["tev_scan.csv"])
    table = np.array(rows, dtype=float)
    res = ScanResult("tev", table[:, 0], table[:, 1], table[:, 2:])
    peaks = find_peaks(res)
    offset = min(abs(p - ref["k1"]) for p in peaks) if peaks else float("inf")
    # the oracle call of the same window: its first root is pi, every residual tiny
    roots = _rows(paths["oracle_tev.csv"])
    oracle_ok = (bool(roots) and abs(float(roots[0][2]) - math.pi) <= 1e-10
                 and all(float(r[3]) <= 1e-8 for r in roots))
    return len(rows), offset, offset <= 0.01 and oracle_ok


def check_phase(paths, ref):
    rows = _rows(paths["phase_track.csv"])
    near = [float(r[1]) for r in rows if abs(float(r[0]) - ref["k1"]) <= 0.01]
    dip = min(near) if near else float("inf")
    return len(rows), dip, dip <= 0.1


def check_stekloff(paths, ref):
    from scatsig.scan import ScanResult, find_peaks

    with open(paths["stekloff_scan.json"]) as fh:
        doc = json.load(fh)
    re_ax = np.array(doc["re_axis"])
    im_ax = np.array(doc["im_axis"])
    log10 = np.array([[np.nan if v is None else v for v in row]
                      for row in doc["log10_indicator"]])
    ind = 10.0 ** log10
    param = re_ax[None, :] + 1j * im_ax[:, None]
    peaks = find_peaks(ScanResult("stekloff", param, ind, ind[..., None]))
    diag = float(np.hypot(re_ax[1] - re_ax[0], im_ax[1] - im_ax[0]))
    roots = [lam for lam in ref["stekloff"]
             if re_ax[0] <= lam.real <= re_ax[-1] and im_ax[0] <= lam.imag <= im_ax[-1]]
    if not roots or not peaks:
        return ind.size, float("inf"), False
    offset = max(min(abs(p - lam) for p in peaks) for lam in roots)
    return ind.size, offset, offset <= diag


# Each workload is one or more CLI calls made in order by the same fresh
# process; the first artifact holds the points. tev_sweep ends with the
# analytic oracle of its own k window, the cross-check a user of the scan
# makes, and the one call that exercises the oracles layer.
WORKLOADS = {
    "tev_sweep": dict(
        argv=lambda seed, scenes: [
            ["tev-scan", "--scene", scenes["ball4"], "--quad", "12x24",
             "--grid", TEV_GRID, "--noise", "0.01", "--zcount", "10",
             "--seed", str(seed), "--zseed", str(seed)],
            ["oracle", "tev", "--scene", scenes["ball4"], "--grid", TEV_GRID,
             "--lmax", "20"]],
        artifacts=("tev_scan.csv", "oracle_tev.csv"), check=check_tev),
    "phase_sweep": dict(
        argv=lambda seed, scenes: [
            ["phase-track", "--scene", scenes["ball4"], "--quad", "12x24",
             "--grid", "3.12:3.16:0.01"]],
        artifacts=("phase_track.csv",), check=check_phase),
    "stekloff_rect": dict(
        argv=lambda seed, scenes: [
            ["stekloff-scan", "--scene", scenes["absorbing"], "--k", "1", "--B", "1",
             "--quad", "10x20", "--rect=" + ":".join(str(v) for v in STEKLOFF_RECT),
             "--zcount", "10", "--zseed", str(seed)]],
        artifacts=("stekloff_scan.json",), check=check_stekloff),
}


def child_env(serial):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if serial:
        env.update({k: "1" for k in THREAD_VARS})
    return env


class Run:
    """The calls of one benchmark run and their checks."""

    def __init__(self, name, seed, deadline, ref):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.deadline = deadline
        self.dir = OUT / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.scenes = {}
        for key, doc in (("ball4", BALL4), ("absorbing", ABSORBING)):
            path = self.dir / f"scene_{key}.json"
            path.write_text(json.dumps(doc))
            self.scenes[key] = str(path)
        self.calls = []
        self.problems = []  # failures of the run that belong to no single call
        self.first_sha = {}
        self.ref = ref

    def spawn(self, argv, trace=0, serial=False, tag="call"):
        """Run bench/child.py once; returns its measurements, or an error record."""
        n = len(self.calls)
        result_path = self.dir / f"{tag}{n}.json"
        if result_path.exists():
            result_path.unlink()
        spec = {"src": str(SRC), "argv": argv, "trace": trace,
                "result": str(result_path), "spans": str(self.dir / f"spans{n}.jsonl")}
        remaining = self.deadline - time.monotonic()
        if remaining < 1.0:
            return {"error": "no time left before the run deadline"}
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                env=child_env(serial), cwd=ROOT, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=remaining)
        except subprocess.TimeoutExpired:
            return {"error": "timed out"}
        if proc.returncode != 0 or not result_path.exists():
            return {"error": f"child exit {proc.returncode}: "
                             f"{proc.stderr.decode(errors='replace')[-400:]}"}
        with open(result_path) as fh:
            res = json.load(fh)
        res["setup_s"] = res["t_import"] - t_spawn
        return res

    def setup_probe(self):
        return self.spawn(None, tag="setup")

    def call(self, trace=0, serial=False):
        """One checked CLI call of the workload; appended to self.calls."""
        label = "serial" if serial else "default"
        out_dir = self.dir / f"out_{label}"
        argvs = [argv + ["--out", str(out_dir)]
                 for argv in self.wl["argv"](self.seed, self.scenes)]
        res = self.spawn(argvs, trace=trace, serial=serial)
        res.update(label=label, trace=trace)
        artifacts = {name: out_dir / name for name in self.wl["artifacts"]}
        problems = []
        if "error" in res:
            problems.append(res["error"])
        elif res["rc"] != 0:
            problems.append(f"cli exit code {res['rc']}")
        elif not all(path.exists() for path in artifacts.values()):
            problems.append("missing artifact")
        else:
            data = [path.read_bytes() for path in artifacts.values()]
            sha = hashlib.sha256(b"".join(hashlib.sha256(d).digest() for d in data)).hexdigest()
            first = self.first_sha.setdefault(label, sha)
            if sha != first:
                problems.append("artifact differs from the first of its set")
            try:
                points, offset, ok = self.wl["check"](artifacts, self.ref)
            except (ValueError, KeyError, IndexError) as e:
                points, offset, ok = 0, float("inf"), False
                problems.append(f"artifact unreadable: {e!r}")
            if not ok:
                problems.append(f"oracle check failed, offset {offset}")
            res.update(sha256=sha, points=points, oracle_offset=offset,
                       artifact_bytes=len(data[0]))
            for path in artifacts.values():
                path.unlink()
        res["ok"] = not problems
        res["problems"] = problems
        self.calls.append(res)
        state = "ok" if res["ok"] else "FAILED " + "; ".join(problems)
        print(f"{self.name} {label} trace={trace} call {len(self.calls)}: "
              f"{res.get('wall_s', float('nan')):.3f} s, {state}", flush=True)
        return res

    @property
    def attempted(self):
        return len(self.calls)

    @property
    def failed(self):
        return sum(not c["ok"] for c in self.calls)


def oracle_refs():
    from scatsig import MediumSpec, first_tev, stekloff_eigs_ball

    k1 = first_tev(MediumSpec.ball(1.0, 4.0))[0]
    modes = stekloff_eigs_ball(MediumSpec.ball(1.0, 2.0 + 2.0j), 1.0, 1.0, 8)
    return {"k1": k1, "stekloff": [m.lam for m in modes]}


def timed_run(run, seconds):
    """End-to-end metrics from untraced calls over about ``seconds``."""
    run.setup_probe()  # warm-up, discarded
    setups = [p["setup_s"] for p in (run.setup_probe() for _ in range(SETUP_PROBES))
              if "setup_s" in p]
    start = time.monotonic()
    while True:
        res = run.call()
        if "setup_s" in res:
            setups.append(res["setup_s"])
        elapsed = time.monotonic() - start
        per_call = elapsed / run.attempted
        # stop at the call count that ends nearest to the requested seconds
        if run.attempted >= MIN_TIMED_CALLS and elapsed + per_call / 2.0 >= seconds:
            break
        if run.deadline - time.monotonic() < 2.0 * per_call:
            break
    good = [c for c in run.calls if c["ok"]]
    if not good:
        return {}
    # the rates pool all calls of the run: the machine's speed can change
    # between calls, and a pooled rate averages over that where a median
    # of a handful of calls jumps between the fast and the slow value
    points = sum(c["points"] for c in good)
    return {
        "points_per_s": points / sum(c["wall_s"] for c in good),
        "setup_s": statistics.median(setups),
        "cpu_s_per_point": sum(c["cpu_s"] for c in good) / points,
        "peak_rss_mb": statistics.median(c["maxrss_kb"] / 1024.0 for c in good),
        "oracle_offset": good[0]["oracle_offset"],
        "pass_ratio": (run.attempted - run.failed) / run.attempted,
    }


def traced_run(run, nproc):
    """Per-layer metrics: untraced references, traced calls, one serial traced call."""
    untraced = [run.call() for _ in range(UNTRACED_REFS)]
    traced = [run.call(trace=1) for _ in range(TRACED_CALLS)]
    serial = run.call(trace=1, serial=True)
    untraced = [c for c in untraced if c["ok"]]
    traced = [c for c in traced if c["ok"]]
    if not untraced or not traced or not serial["ok"]:
        return {}
    # report the traced call with the median wall time, so its layer self
    # times and unattributed time add up to its wall time
    traced.sort(key=lambda c: c["wall_s"])
    chosen = traced[(len(traced) - 1) // 2]
    out = dict(chosen["layers"])
    samples = {layer: [s for c in traced for s in c["point_samples"][layer]]
               for layer in ("scan", "spectra")}
    out.update(point_percentiles(samples))
    for layer in ("scan", "spectra"):
        wall = out[layer + ".pool.wall_s"]
        ref = serial["layers"][layer + ".pool.wall_s"]
        out[layer + ".pool.parallel_efficiency"] = ref / (wall * nproc) if wall else 0.0
    out["trace.overhead_ratio"] = chosen["wall_s"] / statistics.median(
        c["wall_s"] for c in untraced)
    out["trace.serial_wall_s"] = serial["wall_s"]
    out["cli.artifact_bytes"] = chosen["artifact_bytes"]
    total = sum(out[layer + ".self_s"] for layer in LAYERS) + out["trace.unattributed_s"]
    if abs(total - out["trace.wall_s"]) > 1e-6 * out["trace.wall_s"]:
        run.problems.append(f"layer self times add up to {total}, "
                            f"not the wall time {out['trace.wall_s']}")
    return out


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment_record(run):
    import numpy
    import scipy

    def config(module):
        try:
            return module.show_config(mode="dicts")
        except TypeError:
            return None

    first = next((c for c in run.calls if "pool_width" in c), {})
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": len(affinity),
        "os_cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "platform": platform.platform(),
        "python": sys.version,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_config": config(numpy),
        "scipy_config": config(scipy),
        "pool_width": first.get("pool_width"),
        "blas_threads": first.get("blas_threads"),
        "thread_env_of_benchmark": {k: os.environ.get(k) for k in THREAD_VARS},
        "thread_env_of_calls": {"default": "unset", "serial": {k: "1" for k in THREAD_VARS}},
        "git_commit": _git_commit(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "scatsig" / "cli.py").is_file():
        print(f"bench: no package source at {SRC}; run from a scatsig checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(SRC))
    deadline = time.monotonic() + DEADLINE_S

    run = Run(args.workload, args.seed, deadline, oracle_refs())
    nproc = len(os.sched_getaffinity(0))
    if args.trace:
        values, wanted = traced_run(run, nproc), spec["per_layer"]
    else:
        values, wanted = timed_run(run, args.seconds), spec["end_to_end"]
    env = environment_record(run)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        run.problems.append(f"metrics not measured: {missing}")
    for problem in run.problems:
        print(f"{args.workload}: {problem}", flush=True)
    correct = run.failed == 0 and not run.problems
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "calls": run.calls, "problems": run.problems, "values": values}
    with open(run.dir / f"result_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    with open(run.dir / "env.json", "w") as fh:
        json.dump(env, fh, indent=1, default=str)
    print(f"environment: nproc {env['nproc']}, pool width {env['pool_width']}, "
          f"BLAS threads {env['blas_threads']}, record in {run.dir / 'env.json'}", flush=True)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
