"""Print the sha256 of every CLI artifact on fixed small configs as one JSON object.

Each of the seven commands runs in its own subprocess with one thread
(SCATSIG_THREADS, OPENBLAS_NUM_THREADS and OMP_NUM_THREADS set to 1)
against the package source in SRC_DIR, by default the ``src`` next to
this file. The runs are this file's ``RUNS`` table, whatever SRC_DIR
is, so pointing it at another checkout's source cannot show a run that
the other revision adds or drops. Diff two checkouts by running each
one's own script on its own source:

    python /path/to/other/tools/artifact_hashes.py > old.json
    python tools/artifact_hashes.py > new.json
    diff old.json new.json

SRC_DIR serves a source tree whose runs match this file's, such as a
patched copy of this checkout.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCENES = {
    "ball4": [(1.0, 4.0, 0.0)],
    "absorbing": [(1.0, 2.0, 2.0)],
    "three_layer": [(0.4, 3.0, 1.0), (0.7, 1.5, 0.2), (1.0, 2.0, 0.5)],
    # the same radii with real indices, for the transmission-eigenvalue scan
    "three_layer_real": [(0.4, 3.0, 0.0), (0.7, 1.5, 0.0), (1.0, 2.0, 0.0)],
    "vacuum": [(1.0, 1.0, 0.0)],
}
RUNS = {
    "oracle_tev": "oracle tev --scene ball4 --grid 3.0:3.6:0.01",
    # 31 roots down to small k, where the high-degree rows of the shared grid tables are smallest
    "oracle_tev_wide": "oracle tev --scene ball4 --grid 0.05:8.0:0.01 --lmax 10",
    "index_bound": "index-bound --k1 3.141592653589793 --n-lo 3 --n-hi 5",
    # without --k1 the scene's own first eigenvalue comes from first_tev
    "index_bound_first_tev": "index-bound --scene ball4 --n-lo 3 --n-hi 5",
    "oracle_stekloff": "oracle stekloff --s-kind IDENTITY --lmax 8",
    # the default CURL_CURL smoother: TE modes only
    "oracle_stekloff_curl_curl": "oracle stekloff --lmax 8",
    "estimate_shift": "estimate-shift --s-kind IDENTITY --lmax 8",
    "bench_stekloff_rect": "stekloff-scan --scene absorbing --k 1 --B 1 --quad 10x20 "
                           "--rect=-3.42:-0.54:-0.11:0.61:9 --zcount 10 --zseed 1",
    "three_layer_ffop_eigs": "ffop-eigs --quad 6x12 --scene three_layer",
    # the command's defaults: the clean 16x32 rule, where vectors cost about 90% of eig
    "ffop_eigs_default": "ffop-eigs",
    # a clean ffop-eigs takes the azimuthal blocks; noise keeps the dense eig path pinned
    "ffop_eigs_noisy_6x12": "ffop-eigs --quad 6x12 --noise 0.01",
    "three_layer_oracle_stekloff": "oracle stekloff --scene three_layer --B 1.2 --s-kind IDENTITY",
    "three_layer_estimate_shift": "estimate-shift --scene three_layer --B 1.2 --s-kind IDENTITY --rc 0.8",
    # the noisy Stekloff scan runs the dense normal-equation solver on a modified operator
    "stekloff_grid_noisy_8x16": "stekloff-scan --quad 8x16 --grid=-6.0:-0.5:0.05 --noise 0.01",
    # the noisy Stekloff scan on a complex rectangle: one dense solve per cell
    "stekloff_rect_noisy_6x12": "stekloff-scan --quad 6x12 --rect=-4.5:-0.5:-0.2:0.8:12 --noise 0.01",
    # the noisy dense solution read through its Herglotz field rather than its column norms
    "tev_scan_herglotz_noisy_6x12": "tev-scan --quad 6x12 --scene ball4 --grid 3.0:3.2:0.05 "
                                    "--noise 0.01 --zcount 3 --herglotz",
    # the IDENTITY boundary makes the TM coefficients depend on lambda through the
    # cached boundary tables; every other Stekloff run here uses CURL_CURL
    "stekloff_rect_identity_6x12": "stekloff-scan --quad 6x12 --s-kind IDENTITY "
                                   "--rect=-4.5:-0.5:-0.2:0.8:40",
    # the phase_sweep benchmark window, where the truncation degree steps from 15 to 16
    "phase_track_12x24": "phase-track --quad 12x24 --scene ball4 --grid 3.12:3.16:0.01",
    # zero eigenvalues have no phase: every eigenvalue of the vacuum is 0, and at k = 3.1
    # the truncation degree 15 leaves block 16 of the 16x32 rule all zero, kept at floor 0
    "phase_track_vacuum_4x8": "phase-track --quad 4x8 --scene vacuum --grid 3.1:3.15:0.05",
    "phase_track_floor0_16x32": "phase-track --quad 16x32 --scene ball4 --grid 3.1:3.15:0.05 "
                                "--floor 0",
    # k sweeps whose truncation degree steps 28 -> 31, and 32 -> 33, where the Mie
    # ladder steps up at k = 14.25 (30 -> 50) and at k = 15.9 (32 -> 53)
    "three_layer_phase_track_6x12": "phase-track --quad 6x12 --scene three_layer "
                                    "--grid 12.5:14.5:0.05",
    "three_layer_tev_scan_noisy_6x12": "tev-scan --quad 6x12 --scene three_layer_real "
                                       "--grid 15.8:16.0:0.05 --noise 0.01 --zcount 2",
    # the command's own default grid, recorded in the config line
    "oracle_tev_default_grid": "oracle tev --scene ball4",
    # an explicit alpha through the clean block solver and through the noisy dense one
    "tev_scan_alpha_6x12": "tev-scan --quad 6x12 --scene ball4 --grid 3.0:3.3:0.02 --alpha 1e-4",
    "stekloff_grid_alpha_noisy_6x12": "stekloff-scan --quad 6x12 --grid=-4.0:-1.0:0.1 "
                                      "--noise 0.01 --alpha 1e-3",
}
# modified subtracts the impedance coefficient set from the magnetic one in assemble_blocks
for kind in ("magnetic", "impedance", "modified"):
    RUNS[f"ffop_eigs_{kind}_6x12"] = f"ffop-eigs --quad 6x12 --kind {kind}"
for q in ("6x12", "8x16"):
    RUNS.update({
        f"ffop_eigs_{q}": f"ffop-eigs --quad {q}",
        f"tev_scan_{q}": f"tev-scan --quad {q} --scene ball4 --grid 0.5:4.0:0.02 --noise 0.01",
        f"tev_scan_clean_{q}": f"tev-scan --quad {q} --scene ball4 --grid 0.5:4.0:0.02",
        f"stekloff_grid_{q}": f"stekloff-scan --quad {q} --grid=-6.0:-0.5:0.05",
        f"stekloff_rect_{q}": f"stekloff-scan --quad {q} --rect=-4.5:-0.5:-0.2:0.8:40",
        f"phase_track_{q}": f"phase-track --quad {q} --scene ball4 --grid 3.0:3.3:0.02",
    })
# keys passed through --config: each doc is written to <label>.json next to the scenes
CONFIGS = {
    "tev_scan_config_6x12": ("tev-scan", {
        "quad": "6x12", "scene": {"layers": [{"r": 1.0, "n_re": 4.0, "n_im": 0.0}]},
        "grid": [3.0, 3.3, 0.02], "z_count": 3, "alpha": 1e-4}),
    "stekloff_rect_config_6x12": ("stekloff-scan", {
        "quad": "6x12", "rect": [-4.5, -0.5, -0.2, 0.8, 12], "s_kind": "IDENTITY", "z_seed": 3}),
    "estimate_shift_config": ("estimate-shift", {
        "s_kind": "IDENTITY", "lmax": 8, "delta_n": [0.01, 0.002], "rc": 0.8}),
    # a kind and s_kind from the file, checked against the flags' choices
    "ffop_eigs_config_6x12": ("ffop-eigs", {
        "quad": "6x12", "kind": "modified", "s_kind": "IDENTITY", "lam": 1.5}),
}
RUNS.update({label: f"{command} --config {label}" for label, (command, _) in CONFIGS.items()})


def write_inputs(tmp):
    """Write the scene and config files into ``tmp``; return each run's CLI argv, by label.

    Paths are relative to ``tmp``: the artifacts record --out in their config line.
    """
    files = {name: {"layers": [{"r": r, "n_re": re, "n_im": im} for r, re, im in layers]}
             for name, layers in SCENES.items()}
    files.update({label: doc for label, (_, doc) in CONFIGS.items()})
    for name, doc in files.items():
        Path(tmp, name + ".json").write_text(json.dumps(doc))
    return {label: [a + ".json" if a in files else a for a in argv.split()] + ["--out", label]
            for label, argv in RUNS.items()}


def main(src=Path(__file__).resolve().parent.parent / "src"):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               SCATSIG_THREADS="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in write_inputs(tmp).items():
            cmd = [sys.executable, "-m", "scatsig.cli", *argv]
            subprocess.run(cmd, env=env, cwd=tmp, check=True, stdout=subprocess.DEVNULL)
            for path in sorted(Path(tmp, label).iterdir()):
                hashes[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    print(json.dumps(hashes, indent=1, sort_keys=True))


if __name__ == "__main__":
    main(*sys.argv[1:])
