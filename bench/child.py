"""One timed workload call, run in a fresh interpreter by bench/run.py.

Usage: python3 bench/child.py SPEC_JSON

SPEC_JSON holds ``src`` (the package source directory), ``argv`` (a list
of CLI argument lists, called in order, or null to stop after the
import), ``trace`` (0 or 1), ``result`` (where to write the
measurements) and ``spans`` (where a traced call writes its raw spans). The setup time the parent reports
runs from its spawn of this process until ``import scatsig.cli``
returns, so it covers the interpreter start, numpy, scipy and the
package import.
"""

import time

T_FIRST = time.monotonic()

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _blas_threads():
    """Thread counts the loaded OpenBLAS libraries resolved to, by library file."""
    out = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from scatsig import cli

    t_import = time.monotonic()
    result = {"t_first": T_FIRST, "t_import": t_import}
    if spec["argv"] is not None:
        rec = None
        if spec["trace"]:
            import spans

            rec = spans.Recorder()
            spans.install(rec)
        from scatsig import spectra

        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in spec["argv"]:
                rc = cli.main(argv)
                if rc != 0:
                    break
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            rc=rc,
            wall_s=t1 - t0,
            cpu_s=(ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
            maxrss_kb=ru1.ru_maxrss,
            pool_width=spectra.worker_count(),
            blas_threads=_blas_threads(),
        )
        if rec is not None:
            layer_metrics, point_samples = spans.summarize(rec, t0, t1)
            result.update(layers=layer_metrics, point_samples=point_samples)
            spans.dump_spans(rec, spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
