"""The package surface: what ``scatsig`` exports, and the README examples run as written."""

import ast
import contextlib
import importlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg

import scatsig
from scatsig import _extension, cli, oracles
from scatsig.scan import find_peaks
from scatsig.spectra import circle_residual

ROOT = Path(__file__).resolve().parents[1]


def test_exports_resolve_and_equal_the_imports():
    names = scatsig.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(scatsig, n)] == []
    tree = ast.parse(Path(scatsig.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    # spectra's names are declared in _SPECTRA and served by the module __getattr__
    lazy, = (ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) and node.targets[0].id == "_SPECTRA")
    assert imported.isdisjoint(lazy)
    assert set(names) == imported | set(lazy)


def test_readme_api_list_equals_all():
    section = (ROOT / "README.md").read_text().split("## Python API\n", 1)[1].split("\n## ")[0]
    assert f"holds the {len(scatsig.__all__)} names" in section
    listed = []
    for bullet in re.findall(r"^\* (.*?)(?=^\* |\Z)", section, re.M | re.S):
        module, *names = re.findall(r"`([^`]+)`", bullet)
        mod = importlib.import_module(f"scatsig.{module}")
        assert [n for n in names if not hasattr(mod, n)] == []
        listed += names
    assert sorted(listed) == sorted(scatsig.__all__)


def _run_readme_block(index):
    """Namespace left by the index-th ``python`` block of README.md, its prints swallowed."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 3
    ns = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(blocks[index], ns)
    return ns


def _nearest_offsets(peaks, targets):
    return [min(abs(p - t) for p in peaks) for t in targets]


def test_readme_circle_law_example():
    ns = _run_readme_block(0)
    assert circle_residual(ns["es"])[ns["keep"]].max() < 1e-13


def test_readme_transmission_example():
    ns = _run_readme_block(1)
    assert ns["first_tev"](ns["ball4"])[0] == np.pi
    roots = [r[0] for r in oracles.tev_roots(ns["ball4"], 5, (0.5, 4.0))]
    assert np.round(roots, 2).tolist() == [3.14, 3.49, 3.59, 3.69, 3.90]
    assert max(_nearest_offsets(find_peaks(ns["res"]), roots)) < 0.01


def test_readme_stekloff_example():
    ns = _run_readme_block(2)
    lams = [m.lam.real for m in ns["modes"][:2]]
    assert [round(v, 4) for v in lams] == [-1.5749, -2.7047]
    # within one grid step, the bound of acceptance criterion 10
    assert max(_nearest_offsets(find_peaks(ns["res"]), lams)) < 0.05


def test_readme_command_lines_parse(tmp_path, monkeypatch):
    # every scatsig line of the README's sh blocks passes only keys its command reads
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    commands = 0
    for line in "".join(blocks).splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["echo"]:  # echo 'text' > file
            Path(words[3]).write_text(words[1])
        elif words[:1] == ["scatsig"]:
            cli.parse_config(words[1:])
            commands += 1
    assert commands == 6


def test_readme_flag_exceptions_equal_the_field_flags():
    text = " ".join((ROOT / "README.md").read_text().split())
    names, flags = re.search(r"A key's flag is `--` and its name, except for (.*?), "
                             r"whose flags are (.*?)\. ", text).groups()
    odd = {f.name: f.metadata["flag"] for f in fields(cli.RunConfig)
           if f.metadata and f.metadata["flag"] != "--" + f.name}
    assert re.findall(r"`([^`]+)`", names) == list(odd)
    assert re.findall(r"`([^`]+)`", flags) == list(odd.values())


def test_readme_key_table_equals_the_cli_table():
    rows = re.findall(r"^\| `([a-z -]+)` +\| `([^`]+)` +\|$", (ROOT / "README.md").read_text(), re.M)
    assert dict(rows) == {name: row.reads for name, row in cli._COMMANDS.items()}


def test_readme_default_grids_equal_the_cli_table():
    text = " ".join((ROOT / "README.md").read_text().split())
    stated = dict((name, grid) for grid, name in re.findall(r"`([-0-9.:]+)` for `([a-z -]+)`", text))
    assert stated == {name: ":".join(map(str, row.grid))
                      for name, row in cli._COMMANDS.items() if row.grid}


def test_scipy_floor_is_a_release_whose_eigvals_takes_a_block_stack():
    # spectra.eig hands scipy.linalg.eigvals one (n_unique, m, m) stack of blocks,
    # which only a release with batched linalg takes; the declared floor used to be 1.10
    stack = np.stack([np.eye(2), 2 * np.eye(2)]).astype(complex)
    assert scipy.linalg.eigvals(stack).tolist() == [[1, 1], [2, 2]]
    floor = re.search(r'"scipy>=([0-9.]+)"', (ROOT / "pyproject.toml").read_text()).group(1)
    assert tuple(map(int, floor.split("."))) >= (1, 17)
    assert tuple(map(int, scipy.__version__.split(".")[:2])) >= tuple(map(int, floor.split(".")))
    install = (ROOT / "README.md").read_text().split("## Installation\n", 1)[1].split("\n## ")[0]
    assert f"scipy {floor} or later" in install


def test_extension_loader_reuses_a_loaded_module_and_raises_import_error_for_a_missing_one():
    assert _extension.load(_extension.BLAS) is sys.modules[_extension.BLAS]
    missing = "scipy.optimize._no_such_extension"
    with pytest.raises(ImportError, match=rf"{missing} has no extension file .* scipy >= 1\.17") as err:
        _extension.load(missing)
    assert err.value.name == missing
    assert missing not in sys.modules


# runs of tools/artifact_hashes.py that enter every function all of its runs enter
LEDGER_RUNS = (
    "ffop_eigs_config_6x12", "tev_scan_config_6x12", "three_layer_oracle_stekloff", "oracle_tev",
    "phase_track_vacuum_4x8", "ffop_eigs_noisy_6x12", "estimate_shift_config",
    "stekloff_grid_alpha_noisy_6x12", "tev_scan_herglotz_noisy_6x12", "bench_stekloff_rect",
    "index_bound", "three_layer_ffop_eigs",
)


def test_src_holds_only_what_a_command_runs():
    # tools/src_ledger.py's tracer on these runs, in a fresh interpreter so no cache hides a call;
    # a label that names no run fails the ledger before any run
    code = ("import json, sys, src_ledger\n"
            "print(json.dumps([[n for n, *_ in src_ledger.unentered(sys.argv[1:])],"
            " sorted(src_ledger.ALLOWED)]))")
    env = dict(os.environ, SCATSIG_THREADS="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, *LEDGER_RUNS], cwd=ROOT / "tools", env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    unentered, allowed = json.loads(proc.stdout)
    assert sorted(set(unentered) - set(allowed)) == [], "functions no command runs"
    assert sorted(set(allowed) - set(unentered)) == [], "ALLOWED entries a run enters, or gone"
