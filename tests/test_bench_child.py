"""The traced benchmark child still runs against the package.

bench/spans.py wraps package functions and methods by name, so renaming
or deleting one of them breaks the traced benchmark run while every
other test still passes.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced_child(tmp_path, argv):
    """Layer metrics of one traced bench/child.py call of ``argv``."""
    spec = {
        "src": str(ROOT / "src"),
        "argv": [argv + ["--out", str(tmp_path)]],
        "trace": 1,
        "result": str(tmp_path / "result.json"),
        "spans": str(tmp_path / "spans.jsonl"),
    }
    env = dict(os.environ, SCATSIG_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), json.dumps(spec)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["rc"] == 0
    return result["layers"]


def _ball4_scene(tmp_path):
    scene = tmp_path / "ball4.json"
    scene.write_text(json.dumps({"layers": [{"r": 1.0, "n_re": 4.0, "n_im": 0.0}]}))
    return str(scene)


def test_traced_child_reports_layers(tmp_path):
    # the n = 4 unit ball has its first transmission eigenvalue at k = pi
    layers = _traced_child(tmp_path, ["oracle", "tev", "--grid", "3.0:3.3:0.01", "--lmax", "2",
                                      "--scene", _ball4_scene(tmp_path)])
    for layer in ("sphfun", "forward", "ffop", "scan", "spectra", "oracles", "cli"):
        assert layer + ".self_s" in layers
    assert layers["oracles.tev_determinant.calls"] > 0
    assert layers["cli.parse_config.self_s"] > 0
    assert layers["cli.export.self_s"] > 0
    rows = (tmp_path / "oracle_tev.csv").read_text().splitlines()[2:]
    values = [float(row.split(",")[2]) for row in rows]
    assert any(abs(v - math.pi) < 1e-10 for v in values), values


def test_traced_tev_scan_solves_once_per_grid_point(tmp_path):
    layers = _traced_child(tmp_path, ["tev-scan", "--quad", "6x12", "--grid", "3.1:3.2:0.05",
                                      "--zcount", "2"])
    assert layers["scan.normal_factor.calls"] == 3
    assert layers["scan.normal_solve.calls"] == 3
    assert layers["scan.cho_solve_per_solve"] >= 1
    assert (tmp_path / "tev_scan.csv").exists()


def test_traced_noisy_tev_scan_factors_the_dense_system_once_per_grid_point(tmp_path):
    # the dense solver must keep calling cho_solve through the scan module
    layers = _traced_child(tmp_path, ["tev-scan", "--quad", "6x12", "--grid", "3.1:3.2:0.05",
                                      "--zcount", "2", "--noise", "0.01"])
    assert layers["scan.normal_factor.calls"] == 3
    assert layers["scan.normal_solve.calls"] == 3
    assert layers["scan.cho_solve_per_solve"] >= 1
    assert (tmp_path / "tev_scan.csv").exists()


def test_traced_phase_track_batches_one_eigensolve_per_k(tmp_path):
    layers = _traced_child(tmp_path, ["phase-track", "--quad", "6x12", "--grid", "3.1:3.2:0.05",
                                      "--scene", _ball4_scene(tmp_path)])
    assert layers["spectra.eigvals.calls"] == 3
    assert (tmp_path / "phase_track.csv").exists()


def test_traced_clean_stekloff_scan_factors_blocks_once_per_cell(tmp_path):
    layers = _traced_child(tmp_path, ["stekloff-scan", "--quad", "6x12", "--k", "1", "--B", "1",
                                      "--rect=-3.0:-1.0:-0.1:0.5:3", "--zcount", "2"])
    assert layers["scan.normal_factor.calls"] == 9
    assert layers["scan.normal_solve.calls"] == 9
    assert layers["scan.cho_solve_per_solve"] >= 1
    assert layers["ffop.assemble.calls"] == 0
    # two for the magnetic operator's Mie coefficients, one for the impedance
    # boundary tables shared by all 9 cells
    assert layers["sphfun.riccati_all.calls"] == 3
    assert (tmp_path / "stekloff_scan.json").exists()
