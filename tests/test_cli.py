"""Command-line interface tests: configuration merging, artifact layout,
exit codes, and byte-exact reruns."""

import json
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scatsig import MediumSpec, cli, oracles
from scatsig.cli import ConfigError, export_csv, parse_config
from scatsig.ffop import assemble, build_quadrature
from scatsig.spectra import eig

BALL4_SCENE = {"layers": [{"r": 1.0, "n_re": 4.0, "n_im": 0.0}]}
VACUUM_SCENE = {"layers": [{"r": 1.0, "n_re": 1.0, "n_im": 0.0}]}

NEUMANN_K = "2.7437072699922694"


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# configuration parsing


def test_defaults():
    cfg = parse_config(["tev-scan"])
    assert cfg.command == "tev-scan"
    assert cfg.k == 1.0
    assert cfg.quad == "16x32"
    assert cfg.scene.layers == ((1.0, 2.0 + 0.0j),)
    assert cfg.z_count == 10 and cfg.z_seed == 7
    assert cfg.alpha == "auto"
    assert cfg.grid is None


def test_flags_override_config_file(tmp_path):
    cfg_file = _write_json(tmp_path / "cfg.json", {"k": 3.0, "noise": 0.05})
    cfg = parse_config(["tev-scan", "--config", cfg_file, "--k", "4.0"])
    assert cfg.k == 4.0
    assert cfg.noise == 0.05


def test_config_file_sets_scene_inline(tmp_path):
    cfg_file = _write_json(tmp_path / "cfg.json", {"scene": BALL4_SCENE})
    cfg = parse_config(["tev-scan", "--config", cfg_file])
    assert cfg.scene.layers == ((1.0, 4.0 + 0.0j),)


def test_scene_flag_reads_file(tmp_path):
    scene_file = _write_json(tmp_path / "scene.json", BALL4_SCENE)
    cfg = parse_config(["tev-scan", "--scene", scene_file])
    assert cfg.scene.layers == ((1.0, 4.0 + 0.0j),)


def test_unknown_config_key_is_named(tmp_path):
    cfg_file = _write_json(tmp_path / "cfg.json", {"kk": 2.0})
    with pytest.raises(ConfigError, match="'kk'"):
        parse_config(["tev-scan", "--config", cfg_file])


def test_malformed_config_reports_byte_offset(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"k": }')
    with pytest.raises(ConfigError, match="byte offset 6"):
        parse_config(["tev-scan", "--config", str(bad)])


def test_malformed_scene_reports_byte_offset(tmp_path):
    bad = tmp_path / "scene.json"
    bad.write_text('{"layers": [}')
    with pytest.raises(ConfigError, match="byte offset"):
        parse_config(["tev-scan", "--scene", str(bad)])


def test_grid_parsing_accepts_negative_values():
    # equals syntax keeps argparse from reading the value as a flag
    cfg = parse_config(["stekloff-scan", "--grid=-6:-0.5:0.05"])
    assert cfg.grid == (-6.0, -0.5, 0.05)


@pytest.mark.parametrize("text", ["1:2", "a:b:c", "2:1:0.1", "1:2:0"])
def test_grid_parsing_rejections(text):
    with pytest.raises(ConfigError):
        parse_config(["tev-scan", f"--grid={text}"])


def test_config_file_grid_list_follows_grid_rule(tmp_path, capsys):
    bad = _write_json(tmp_path / "bad.json", {"grid": [3.0, 3.2]})
    for command in ("tev-scan", "phase-track"):
        assert cli.main([command, "--config", bad, "--out", str(tmp_path)]) == 2
        assert "grid must be lo:hi:step" in capsys.readouterr().err
    for doc in ({"grid": [3.2, 3.0, 0.1]}, {"grid": ["a", 3.2, 0.1]}, {"grid": 3.0}):
        with pytest.raises(ConfigError):
            parse_config(["tev-scan", "--config", _write_json(tmp_path / "c.json", doc)])
    good = _write_json(tmp_path / "good.json", {"grid": [3, 3.2, 0.1]})
    assert parse_config(["phase-track", "--config", good]).grid == (3.0, 3.2, 0.1)


def test_rect_parsing(tmp_path):
    cfg = parse_config(["stekloff-scan", "--rect=-4.5:-0.5:-0.2:0.8:40"])
    assert cfg.rect == (-4.5, -0.5, -0.2, 0.8, 40)
    for bad in ["1:2:3:4", "-1:1:0:1:1", "2:1:0:1:5", "a:1:0:1:5"]:
        with pytest.raises(ConfigError):
            parse_config(["stekloff-scan", f"--rect={bad}"])
    # a config-file list goes through the same check as --rect
    for bad in ([-2, -1, 0.1, -0.1, 3], [1, 2], [-2, -1, -0.1, 0.1, 2.5]):
        with pytest.raises(ConfigError):
            parse_config(["stekloff-scan", "--config", _write_json(tmp_path / "c.json", {"rect": bad})])
    good = _write_json(tmp_path / "good.json", {"rect": [-2, -1, -0.1, 0.1, 3]})
    cfg = parse_config(["stekloff-scan", "--config", good])
    assert cfg.rect == (-2.0, -1.0, -0.1, 0.1, 3)
    assert json.dumps(cfg.to_json_dict()["rect"]) == "[-2.0, -1.0, -0.1, 0.1, 3]"


def test_quad_parsing():
    assert parse_config(["tev-scan", "--quad", "8x16"]).quad == "8x16"
    cfg = parse_config(["tev-scan", "--quad", "ea100"])
    assert cfg.quad == "ea100"
    with pytest.raises(ConfigError, match="M = 2N"):
        parse_config(["tev-scan", "--quad", "16x31"])
    with pytest.raises(ConfigError):
        parse_config(["tev-scan", "--quad", "sixteen"])
    with pytest.raises(ConfigError):
        parse_config(["tev-scan", "--quad", "eaxx"])


def test_alpha_coercion():
    assert parse_config(["tev-scan", "--alpha", "1e-6"]).alpha == 1e-6
    assert parse_config(["tev-scan", "--alpha", "auto"]).alpha == "auto"
    with pytest.raises(ConfigError):
        parse_config(["tev-scan", "--alpha", "tiny"])


def test_alpha_must_be_positive(tmp_path):
    cfg_file = _write_json(tmp_path / "cfg.json", {"alpha": -2.0})
    with pytest.raises(ConfigError, match="positive"):
        parse_config(["tev-scan", "--config", cfg_file])


def test_delta_n_coercion(tmp_path):
    cfg = parse_config(["estimate-shift", "--delta-n", "0.01+0.02j"])
    assert cfg.delta_n == 0.01 + 0.02j
    cfg_file = _write_json(tmp_path / "cfg.json", {"delta_n": [0.01, 0.02]})
    cfg = parse_config(["estimate-shift", "--config", cfg_file])
    assert cfg.delta_n == 0.01 + 0.02j
    with pytest.raises(ConfigError):
        parse_config(["estimate-shift", "--delta-n", "abc"])


def test_negative_noise_rejected():
    with pytest.raises(ConfigError):
        parse_config(["tev-scan", "--noise", "-0.1"])


def test_oracle_needs_which():
    with pytest.raises(SystemExit):
        parse_config(["oracle"])
    assert parse_config(["oracle", "tev"]).which == "tev"


def test_run_config_json_dict():
    cfg = parse_config(["tev-scan", "--grid", "1:2:0.5"])
    doc = cfg.to_json_dict()
    assert doc["scene"] == {"layers": [{"r": 1.0, "n_re": 2.0, "n_im": 0.0}]}
    assert doc["delta_n"] == [0.01, 0.0]
    assert doc["grid"] == [1.0, 2.0, 0.5]
    assert doc["rect"] is None
    json.dumps(doc)  # must be serializable as-is


# ---------------------------------------------------------------------------
# CSV writer


def test_export_csv_formatting(tmp_path):
    path = tmp_path / "t.csv"
    export_csv((["name", "count", "value"],
                [["a", 3, 0.1], ["b", -1, 2.0], ["TE", 1, np.pi]],
                ["# comment"]), str(path))
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "# comment"
    assert lines[1] == "name,count,value"
    assert lines[2] == "a,3,1.0000000000000001e-01"
    assert lines[3] == "b,-1,2.0000000000000000e+00"
    assert lines[4] == "TE,1,3.1415926535897931e+00"
    assert raw.endswith(b"\n")
    assert float(lines[2].split(",")[2]) == 0.1


# ---------------------------------------------------------------------------
# end-to-end runs (exit codes and artifacts)


def test_ffop_eigs_artifact(tmp_path, capsys):
    rc = cli.main(["ffop-eigs", "--quad", "4x8", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out == str(tmp_path / "ffop_eigs.csv")
    lines = (tmp_path / "ffop_eigs.csv").read_text().splitlines()
    assert lines[0].startswith("# config ")
    doc = json.loads(lines[0][len("# config "):])
    assert doc["command"] == "ffop-eigs" and doc["quad"] == "4x8"
    assert lines[1] == "re,im,abs,circle_residual"
    assert len(lines) == 2 + 64
    first = [float(v) for v in lines[2].split(",")]
    assert first[3] < 1e-6  # dominant eigenvalue sits on the electric circle


def test_ffop_eigs_artifact_rows(tmp_path):
    rc = cli.main(["ffop-eigs", "--quad", "5x10", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "ffop_eigs.csv").read_text().splitlines()
    assert lines[1] == "re,im,abs,circle_residual"
    es = eig(assemble("ELECTRIC", MediumSpec.ball(1.0, 2.0), 1.0, build_quadrature("PRODUCT_GAUSS", 5)))
    assert len(lines) == 2 + es.count
    first = [float(tok) for tok in lines[2].split(",")]
    assert_allclose(first[0] + 1j * first[1], es.values[0], rtol=1e-15)
    # no circle law for the modified operator: NaN residual column
    rc = cli.main(["ffop-eigs", "--quad", "5x10", "--kind", "modified", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "ffop_eigs.csv").read_text().splitlines()
    assert lines[2].split(",")[3] == "nan"


def test_ffop_eigs_vacuum_all_zero(tmp_path):
    scene_file = _write_json(tmp_path / "scene.json", VACUUM_SCENE)
    rc = cli.main(["ffop-eigs", "--quad", "4x8", "--scene", scene_file,
                   "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "ffop_eigs.csv").read_text().splitlines()
    for line in lines[2:]:
        re, im, mag, _ = (float(v) for v in line.split(","))
        assert re == 0.0 and im == 0.0 and mag == 0.0


def test_tev_scan_artifact_and_byte_identical_rerun(tmp_path):
    args = ["tev-scan", "--quad", "6x12", "--grid", "3.1:3.2:0.05",
            "--zcount", "2", "--noise", "0.01", "--out", str(tmp_path)]
    scene_file = _write_json(tmp_path / "scene.json", BALL4_SCENE)
    args += ["--scene", scene_file]
    assert cli.main(args) == 0
    first = (tmp_path / "tev_scan.csv").read_bytes()
    assert cli.main(args) == 0
    assert (tmp_path / "tev_scan.csv").read_bytes() == first
    lines = first.decode().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1].startswith("# ")  # scan metadata line
    assert lines[2].split(",")[:2] == ["k", "indicator_mean"]
    assert len(lines) == 3 + 3


def test_stekloff_scan_real_grid_artifact(tmp_path):
    rc = cli.main(["stekloff-scan", "--quad", "6x12", "--grid=-2.8:-2.6:0.1",
                   "--zcount", "2", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "stekloff_scan.csv").read_text().splitlines()
    assert lines[2].split(",")[0] == "lambda"
    assert len(lines) == 3 + 3


def test_stekloff_scan_rect_artifact(tmp_path):
    rc = cli.main(["stekloff-scan", "--quad", "6x12", "--rect=-2:-1:-0.1:0.1:3",
                   "--zcount", "2", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "stekloff_scan.json").read_text())
    assert set(doc) == {"metadata", "re_axis", "im_axis", "log10_indicator", "config"}
    assert doc["re_axis"] == [-2.0, -1.5, -1.0]
    assert doc["im_axis"] == [-0.1, 0.0, 0.1]
    assert len(doc["log10_indicator"]) == 3
    assert doc["config"]["command"] == "stekloff-scan"


def test_phase_track_artifact(tmp_path):
    scene_file = _write_json(tmp_path / "scene.json", BALL4_SCENE)
    rc = cli.main(["phase-track", "--quad", "6x12", "--grid", "3.1:3.2:0.05",
                   "--scene", scene_file, "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "phase_track.csv").read_text().splitlines()
    assert lines[1] == "k,dip_minus,dip_plus,n_kept"
    assert len(lines) == 2 + 3
    row = lines[2].split(",")
    assert int(row[3]) > 0


def test_oracle_tev_artifact(tmp_path):
    scene_file = _write_json(tmp_path / "scene.json", BALL4_SCENE)
    rc = cli.main(["oracle", "tev", "--scene", scene_file, "--grid", "3.0:3.6:0.01",
                   "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "oracle_tev.csv").read_text().splitlines()
    assert lines[1] == "family,l,value,residual"
    fam, l, value, residual = lines[2].split(",")
    assert (fam, l) == ("TE", "1")
    assert abs(float(value) - np.pi) < 1e-9
    assert float(residual) < 1e-8


def test_oracle_tev_artifact_rows(tmp_path):
    scene_file = _write_json(tmp_path / "scene.json", BALL4_SCENE)
    rc = cli.main(["oracle", "tev", "--scene", scene_file, "--grid", "3.0:3.6:0.01",
                   "--lmax", "2", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "oracle_tev.csv").read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    ball4 = MediumSpec.ball(1.0, 4.0)
    roots = oracles.tev_roots(ball4, 2, (3.0, 3.6))
    assert len(lines) == 2 + len(roots) == 5
    for line, (kstar, l, fam) in zip(lines[2:], roots):
        res = oracles.tev_min_singular(ball4, l, fam, kstar)
        assert line == f"{fam},{l},{kstar:.16e},{res:.16e}"
    # the --grid step reaches the oracle, which brackets at min(step, 0.01)
    rc = cli.main(["oracle", "tev", "--scene", scene_file, "--grid", "3.0:3.6:0.005",
                   "--lmax", "2", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "oracle_tev.csv").read_text().splitlines()
    roots = oracles.tev_roots(ball4, 2, (3.0, 3.6), 0.005)
    assert [line.split(",")[:3] for line in lines[2:]] == \
        [[fam, str(l), f"{kstar:.16e}"] for kstar, l, fam in roots]
    assert lines[2].startswith("TE,1,3.14159265358979")


def test_oracle_stekloff_artifact(tmp_path):
    rc = cli.main(["oracle", "stekloff", "--lmax", "2", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "oracle_stekloff.csv").read_text().splitlines()
    assert lines[1] == "family,l,re,im,residual"
    rows = [line.split(",") for line in lines[2:]]
    lam_by_l = {int(r[1]): float(r[2]) for r in rows}
    assert_allclose(lam_by_l[1], -1.5748945918925663, rtol=1e-9)
    assert_allclose(lam_by_l[2], -2.7047154937500942, rtol=1e-9)


def test_oracle_stekloff_artifact_residuals(tmp_path):
    rc = cli.main(["oracle", "stekloff", "--lmax", "2", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "oracle_stekloff.csv").read_text().splitlines()
    assert lines[1] == "family,l,re,im,residual"
    assert len(lines) == 2 + 2
    for line in lines[2:]:
        fields = line.split(",")
        assert fields[0] in ("TE", "TM")
        assert float(fields[4]) < 1e-8


def test_estimate_shift_artifact(tmp_path):
    rc = cli.main(["estimate-shift", "--lmax", "2", "--delta-n", "0.01",
                   "--rc", "0.5", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "shift_estimate.csv").read_text().splitlines()
    assert lines[1] == "family,l,lambda_re,lambda_im,shift_re,shift_im"
    assert len(lines) == 2 + 2
    from scatsig import MediumSpec, shift_estimate, stekloff_eigs_ball

    modes = stekloff_eigs_ball(MediumSpec.ball(1.0, 2.0), 1.0, 1.0, 2)
    row = lines[2].split(",")
    mode = next(m for m in modes if m.mode.l == int(row[1]))
    assert_allclose(float(row[4]), shift_estimate(mode, 0.01, 0.5).real, rtol=1e-12)


def test_index_bound_artifact(tmp_path):
    rc = cli.main(["index-bound", "--k1", repr(np.pi), "--n-lo", "3", "--n-hi", "5",
                   "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "index_bound.csv").read_text().splitlines()
    assert lines[1] == "n_est,k1,a,n_lo,n_hi"
    n_est = float(lines[2].split(",")[0])
    assert abs(n_est - 4.0) < 1e-4


def test_exit_code_2_for_config_errors(tmp_path, capsys):
    assert cli.main(["tev-scan", "--quad", "16x31"]) == 2
    assert "configuration error" in capsys.readouterr().err
    # runner-level ValueError: reference ball smaller than the scene
    assert cli.main(["stekloff-scan", "--B", "0.5", "--quad", "4x8",
                     "--grid=-2:-1:0.5", "--zcount", "1", "--zradius", "0.2",
                     "--out", str(tmp_path)]) == 2
    # a negative noise seed
    assert cli.main(["tev-scan", "--quad", "4x8", "--grid", "3.0:3.1:0.1", "--zcount", "1",
                     "--noise", "0.01", "--seed", "-1", "--out", str(tmp_path)]) == 2


def test_exit_code_3_for_numeric_failures(tmp_path, capsys):
    # k at the first root of psi_1' makes k^2 an interior Neumann
    # eigenvalue of the vacuum unit ball
    scene_file = _write_json(tmp_path / "scene.json", VACUUM_SCENE)
    rc = cli.main(["oracle", "stekloff", "--k", NEUMANN_K, "--scene", scene_file,
                   "--out", str(tmp_path)])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def test_exit_code_4_for_io_failures(tmp_path, capsys):
    assert cli.main(["tev-scan", "--config", str(tmp_path / "missing.json")]) == 4
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    rc = cli.main(["ffop-eigs", "--quad", "4x8", "--out", str(blocker)])
    assert rc == 4


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "scatsig.cli", "ffop-eigs", "--quad", "4x8",
         "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "ffop_eigs.csv").exists()
