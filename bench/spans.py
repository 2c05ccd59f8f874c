"""In-memory span recorder for the traced benchmark child.

``install`` replaces the module attributes through which scatsig's layers
call each other with wrappers that record a span per call, so the
package itself is not edited. A span holds its name, the thread it ran
on, its start and end, and the span that caused it; pool points carry
the span of the ``map`` call that submitted them as parent, so every
span of one CLI call hangs off one tree. Spans stay in memory until the
child writes them out once, after ``cli.main`` returns.

Layer names are the package's modules: a span called ``scan.point`` is
time of the ``scan`` layer.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("sphfun", "forward", "ffop", "scan", "spectra", "oracles", "cli")

# a point percentile is reported only with at least this many samples beyond it
MIN_TAIL_SAMPLES = 10


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans = []  # (id, parent, thread, name, start, end, wait)
        self.counts = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else 0

    def add(self, key, amount=1.0):
        with self._lock:
            self.counts[key] += amount

    def call(self, name, fn, args=(), kwargs=None, parent=None, wait=False):
        """Run fn(*args, **kwargs) inside a span called ``name``.

        ``wait`` marks a span whose thread only waits for others (a pool
        map); it is charged wall time only while no other span runs.
        """
        stack = self._stack()
        sid = next(self._ids)
        par = parent if parent is not None else (stack[-1] if stack else 0)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, par, threading.get_ident(), name, t0, t1, wait))


def _wrap(rec, owner, attr, name, before=None, raises=()):
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        try:
            return rec.call(name, orig, args, kwargs)
        except raises:
            rec.add(name + ".raised")
            raise

    setattr(owner, attr, wrapper)


def _count(rec, owner, attr, key, amount=None):
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        rec.add(key, 1.0 if amount is None else amount(args))
        return orig(*args, **kwargs)

    setattr(owner, attr, wrapper)


def _traced_pool(rec, layer):
    class TracedPool(ThreadPoolExecutor):
        def map(self, fn, *iterables, timeout=None, chunksize=1):
            parent = rec.current()

            def point(*args):
                return rec.call(layer + ".point", fn, args, parent=parent)

            def collect():
                return list(ThreadPoolExecutor.map(self, point, *iterables,
                                                   timeout=timeout, chunksize=chunksize))

            return iter(rec.call(layer + ".pool.map", collect, wait=True))

    return TracedPool


def _mode_product_flop(args):
    # (phi_a * d_a) @ phi_a^H + (phi_b * d_b) @ phi_b^H: two complex
    # (2N x M) by (M x 2N) products at 8 real flops per multiply-add
    phi_a, phi_b = args[0], args[1]
    rows = phi_a.shape[0]
    return 8.0 * rows * rows * (phi_a.shape[1] + phi_b.shape[1])


def _normal_factor_flop(n):
    # complex Gram A^H (W A): 8 n^3; complex Cholesky: 4 n^3 / 3
    return 8.0 * n**3 + 4.0 * n**3 / 3.0


def install(rec):
    """Wrap the call boundaries between scatsig's layers; returns nothing."""
    import scipy.linalg

    from scatsig import cli, ffop, forward, oracles, scan, spectra
    from scatsig.forward import ResonantParameterError

    # sphfun: the special-function tables, under every name they are imported by
    for mod in (forward, oracles, spectra):
        _wrap(rec, mod, "riccati_all", "sphfun.riccati_all")
    _wrap(rec, ffop, "vsh_tables", "sphfun.vsh_tables",
          before=lambda args: rec.add("ffop.mode_tables.builds"))
    _wrap(rec, spectra, "vsh_tables", "sphfun.vsh_tables")

    # forward: modal coefficients and dipole data
    _wrap(rec, ffop, "mie_coefficients", "forward.mie_coefficients")
    _wrap(rec, ffop, "impedance_coefficients", "forward.impedance_coefficients",
          raises=ResonantParameterError)
    _wrap(rec, forward, "dipole_far_fields", "forward.dipole_far_fields")

    # ffop: quadrature, mode tables, assembly, noise, operator norm
    _wrap(rec, ffop, "build_quadrature", "ffop.build_quadrature")
    _wrap(rec, ffop, "_mode_matrices", "ffop.mode_matrices")
    _count(rec, ffop, "_mode_product", "ffop.assemble.flop", _mode_product_flop)
    _wrap(rec, ffop, "assemble", "ffop.assemble")
    _wrap(rec, ffop, "add_noise", "ffop.add_noise")
    _wrap(rec, ffop.FarFieldMatrix, "operator_norm", "ffop.operator_norm")
    _wrap(rec, ffop.SphereQuadrature, "frame_components", "ffop.frame_components")

    # scan: the scans, the normal-equation solver and its pool
    base = scan._NormalSolver

    class TracedNormalSolver(base):
        def __init__(self, A, alpha):
            rec.add("scan.normal_factor.flop", _normal_factor_flop(A.matrix.shape[0]))
            rec.call("scan.normal_factor", base.__init__, (self, A, alpha))

        def solve(self, b_flat):
            return rec.call("scan.normal_solve", base.solve, (self, b_flat))

    scan._NormalSolver = TracedNormalSolver
    _count(rec, scan, "cho_solve", "scan.cho_solve.calls")
    _wrap(rec, scan, "tev_scan", "scan.tev_scan")
    _wrap(rec, scan, "stekloff_scan", "scan.stekloff_scan")
    scan.ThreadPoolExecutor = _traced_pool(rec, "scan")

    # spectra: phase tracking, the dense eigensolve and its pool
    _wrap(rec, spectra, "phase_track", "spectra.phase_track")
    _wrap(rec, scipy.linalg, "eigvals", "spectra.eigvals")
    spectra.ThreadPoolExecutor = _traced_pool(rec, "spectra")

    # oracles: analytic references
    for fn in ("tev_roots", "tev_determinant", "tev_min_singular", "first_tev",
               "stekloff_eigs_ball"):
        _wrap(rec, oracles, fn, "oracles." + fn)

    # cli: configuration, dispatch and artifact export (text builders plus writes)
    _wrap(rec, cli, "parse_config", "cli.parse_config")
    _wrap(rec, cli, "run", "cli.run")
    for owner, fn in ((cli, "export_csv"), (cli, "_write_text"), (cli, "_config_line"),
                      (cli.RunConfig, "to_json_dict"), (scan, "result_to_csv"),
                      (scan, "result_to_json"), (spectra, "phase_track_to_csv")):
        _wrap(rec, owner, fn, "cli.export")
    cli.json = _JsonProxy(rec, cli.json)


class _JsonProxy:
    """Stands in for the ``json`` module inside ``scatsig.cli``."""

    def __init__(self, rec, module):
        self._rec = rec
        self._module = module

    def __getattr__(self, attr):
        return getattr(self._module, attr)

    def dumps(self, *args, **kwargs):
        return self._rec.call("cli.export", self._module.dumps, args, kwargs)

    def loads(self, *args, **kwargs):
        return self._rec.call("cli.export", self._module.loads, args, kwargs)


def _innermost_segments(spans):
    """Per thread, the intervals during which each span is the innermost open one."""
    by_thread = defaultdict(list)
    for s in spans:
        by_thread[s[2]].append(s)
    segments = []
    for group in by_thread.values():
        # at equal times ends come first, and an enclosing span opens before
        # the spans it encloses
        events = []
        for i, s in enumerate(group):
            events.append((s[4], 1, -s[5], i))
            events.append((s[5], 0, 0.0, i))
        events.sort()
        stack = []
        last = None
        for t, is_start, _, i in events:
            if stack and t > last:
                top = group[stack[-1]]
                segments.append((last, t, top[3], top[6]))
            if is_start:
                stack.append(i)
            else:
                stack.remove(i)
            last = t
    return segments


def self_times(spans, t0, t1):
    """Wall-clock self time per span name, and the wall time no span covers.

    Each instant of [t0, t1] is split evenly among the threads whose
    innermost open span is doing work; threads that only wait in a pool
    map are charged only when no other span runs. The self times of all
    names plus the uncovered time therefore add up to t1 - t0.
    """
    events = []
    for k, (a, b, name, wait) in enumerate(_innermost_segments(spans)):
        a, b = max(a, t0), min(b, t1)
        if b > a:
            events.append((a, 1, k, name, wait))
            events.append((b, 0, k, name, wait))
    events.sort(key=lambda e: (e[0], e[1]))
    selfs = defaultdict(float)
    active = {}
    covered = 0.0
    last = t0
    for t, is_start, k, name, wait in events:
        dt = t - last
        if dt > 0 and active:
            busy = [n for n, w in active.values() if not w] or [n for n, _ in active.values()]
            for n in busy:
                selfs[n] += dt / len(busy)
            covered += dt
        if is_start:
            active[k] = (name, wait)
        else:
            del active[k]
        last = t
    return dict(selfs), (t1 - t0) - covered


def _percentile(samples, q):
    """The q-quantile (0 < q < 1) when at least MIN_TAIL_SAMPLES lie beyond it, else 0."""
    if len(samples) < 2 or len(samples) * (1.0 - q) < MIN_TAIL_SAMPLES:
        return 0.0
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


def summarize(rec, t0, t1):
    """Per-layer metrics of one traced call of cli.main over [t0, t1]."""
    spans = rec.spans
    selfs, unattributed = self_times(spans, t0, t1)
    calls = defaultdict(int)
    durations = defaultdict(list)
    for s in spans:
        calls[s[3]] += 1
        durations[s[3]].append(s[5] - s[4])
    counts = rec.counts
    out = {}

    def per_span(name):
        out[name + ".calls"] = calls[name]
        out[name + ".self_s"] = selfs.get(name, 0.0)

    for name in ("sphfun.riccati_all", "sphfun.vsh_tables", "forward.mie_coefficients",
                 "forward.impedance_coefficients", "forward.dipole_far_fields",
                 "ffop.assemble", "ffop.operator_norm", "scan.normal_factor",
                 "scan.normal_solve", "spectra.eigvals", "oracles.tev_determinant",
                 "oracles.tev_min_singular"):
        per_span(name)
    imp_calls = calls["forward.impedance_coefficients"]
    out["forward.resonant_gap_ratio"] = (
        counts["forward.impedance_coefficients.raised"] / imp_calls if imp_calls else 0.0)
    out["ffop.assemble.gflop_computed"] = counts["ffop.assemble.flop"] / 1e9
    out["ffop.mode_tables.builds"] = int(counts["ffop.mode_tables.builds"])
    out["ffop.add_noise.self_s"] = selfs.get("ffop.add_noise", 0.0)
    out["scan.normal_factor.gflop_computed"] = counts["scan.normal_factor.flop"] / 1e9
    solves = calls["scan.normal_solve"]
    out["scan.cho_solve_per_solve"] = counts["scan.cho_solve.calls"] / solves if solves else 0.0
    out["cli.parse_config.self_s"] = selfs.get("cli.parse_config", 0.0)
    out["cli.export.self_s"] = selfs.get("cli.export", 0.0)
    for layer in ("scan", "spectra"):
        points = durations[layer + ".point"]
        pool_wall = sum(durations[layer + ".pool.map"])
        out[layer + ".pool.concurrency"] = sum(points) / pool_wall if pool_wall else 0.0
        out[layer + ".pool.wall_s"] = pool_wall
    for name, total in selfs.items():
        layer = name.split(".", 1)[0]
        out[layer + ".self_s"] = out.get(layer + ".self_s", 0.0) + total
    for layer in LAYERS:
        out.setdefault(layer + ".self_s", 0.0)
    out["trace.unattributed_s"] = unattributed
    out["trace.wall_s"] = t1 - t0
    out["trace.spans"] = len(spans)
    return out, {layer: durations[layer + ".point"] for layer in ("scan", "spectra")}


def point_percentiles(samples_by_layer):
    """Point-time percentiles pooled over several traced calls, with sample counts."""
    out = {}
    for layer, samples in samples_by_layer.items():
        out[layer + ".point.samples"] = len(samples)
        out[layer + ".point.p50_s"] = _percentile(samples, 0.5)
        if layer == "scan":
            out[layer + ".point.p90_s"] = _percentile(samples, 0.9)
    return out


def dump_spans(rec, path):
    """Write the recorded spans once, as JSON lines of (id, parent, thread, name, start, end)."""
    with open(path, "w") as fh:
        for sid, par, tid, name, a, b, _ in rec.spans:
            fh.write(json.dumps([sid, par, tid, name, a, b]) + "\n")
