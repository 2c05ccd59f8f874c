"""Print the sha256 of every CLI artifact on fixed small configs as one JSON object.

Each of the seven commands runs in its own subprocess with one thread
(SCATSIG_THREADS, OPENBLAS_NUM_THREADS and OMP_NUM_THREADS set to 1)
against the package source in SRC_DIR, by default the ``src`` next to
this file. Diff two checkouts with

    python tools/artifact_hashes.py /path/to/other/src > old.json
    python tools/artifact_hashes.py > new.json
    diff old.json new.json
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
}
RUNS = {
    "oracle_tev": "oracle tev --scene ball4 --grid 3.0:3.6:0.01",
    "index_bound": "index-bound --k1 3.141592653589793 --n-lo 3 --n-hi 5",
    "oracle_stekloff": "oracle stekloff --s-kind IDENTITY --lmax 8",
    "estimate_shift": "estimate-shift --s-kind IDENTITY --lmax 8",
    "bench_stekloff_rect": "stekloff-scan --scene absorbing --k 1 --B 1 --quad 10x20 "
                           "--rect=-3.42:-0.54:-0.11:0.61:9 --zcount 10 --zseed 1",
    "three_layer_ffop_eigs": "ffop-eigs --quad 6x12 --scene three_layer",
    "three_layer_oracle_stekloff": "oracle stekloff --scene three_layer --B 1.2 --s-kind IDENTITY",
    "three_layer_estimate_shift": "estimate-shift --scene three_layer --B 1.2 --s-kind IDENTITY --rc 0.8",
}
for q in ("6x12", "8x16"):
    RUNS.update({
        f"ffop_eigs_{q}": f"ffop-eigs --quad {q}",
        f"tev_scan_{q}": f"tev-scan --quad {q} --scene ball4 --grid 0.5:4.0:0.02 --noise 0.01",
        f"stekloff_grid_{q}": f"stekloff-scan --quad {q} --grid=-6.0:-0.5:0.05",
        f"stekloff_rect_{q}": f"stekloff-scan --quad {q} --rect=-4.5:-0.5:-0.2:0.8:40",
        f"phase_track_{q}": f"phase-track --quad {q} --scene ball4 --grid 3.0:3.3:0.02",
    })


def main(src=Path(__file__).resolve().parent.parent / "src"):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               SCATSIG_THREADS="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, layers in SCENES.items():
            doc = {"layers": [{"r": r, "n_re": re, "n_im": im} for r, re, im in layers]}
            Path(tmp, name + ".json").write_text(json.dumps(doc))
        for label, argv in RUNS.items():
            # relative paths: the artifacts record --out in their config line
            argv = [a + ".json" if a in SCENES else a for a in argv.split()]
            cmd = [sys.executable, "-m", "scatsig.cli", *argv, "--out", label]
            subprocess.run(cmd, env=env, cwd=tmp, check=True, stdout=subprocess.DEVNULL)
            for path in sorted(Path(tmp, label).iterdir()):
                hashes[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    print(json.dumps(hashes, indent=1, sort_keys=True))


if __name__ == "__main__":
    main(*sys.argv[1:])
