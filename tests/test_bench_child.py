"""The traced benchmark child still runs against the package.

bench/spans.py wraps package functions and methods by name, so renaming
or deleting one of them breaks the traced benchmark run while every
other test still passes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_child_reports_layers(tmp_path):
    spec = {
        "src": str(ROOT / "src"),
        "argv": [["oracle", "tev", "--grid", "3.0:3.3:0.01", "--lmax", "2",
                  "--out", str(tmp_path)]],
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
    layers = result["layers"]
    for layer in ("sphfun", "forward", "ffop", "scan", "spectra", "oracles", "cli"):
        assert layer + ".self_s" in layers
    assert layers["oracles.tev_determinant.calls"] > 0
    assert layers["cli.parse_config.self_s"] > 0
    assert layers["cli.export.self_s"] > 0
    assert (tmp_path / "oracle_tev.csv").exists()
