"""Command-line interface tests: configuration merging, artifact layout,
exit codes, and byte-exact reruns."""

import json
import subprocess
import sys
import types
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scatsig import ConvergenceError, ImpedanceBall, MediumSpec, cli, ffop, oracles, scan
from scatsig.cli import ConfigError, export_csv, parse_config
from scatsig.ffop import build_quadrature, far_field_operator
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
    assert cfg.grid == (0.5, 4.0, 0.02)  # the command's own default grid, resolved


def test_flags_override_config_file(tmp_path):
    cfg_file = _write_json(tmp_path / "cfg.json", {"k": 3.0, "noise": 0.05})
    cfg = parse_config(["stekloff-scan", "--config", cfg_file, "--k", "4.0"])
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


@pytest.mark.parametrize("argv, grid", [
    (["tev-scan"], (0.5, 4.0, 0.02)),
    (["phase-track"], (0.5, 4.0, 0.02)),
    (["oracle", "tev"], (0.5, 4.0, 0.01)),
    (["stekloff-scan"], (-6.0, -0.5, 0.05)),
    (["stekloff-scan", "--rect=-2:-1:-0.1:0.1:3"], None),
    (["ffop-eigs"], None),
    (["oracle", "stekloff"], None),
])
def test_default_grid_is_resolved_into_the_config_line(argv, grid):
    # the config line used to record "grid": null for the runners' private defaults
    cfg = parse_config(argv)
    assert cfg.grid == grid
    doc = json.loads(cli._config_line(cfg)[len("# config "):])
    assert doc["grid"] == (list(grid) if grid else None)


@pytest.mark.parametrize("text", ["1:2", "a:b:c", "2:1:0.1", "1:2:0"])
def test_grid_parsing_rejections(text):
    with pytest.raises(ConfigError):
        parse_config(["tev-scan", f"--grid={text}"])


def test_config_file_grid_list_follows_grid_rule(tmp_path, capsys):
    bad = _write_json(tmp_path / "bad.json", {"grid": [3.0, 3.2]})
    for command in ("tev-scan", "phase-track"):
        assert cli.main([command, "--config", bad, "--out", str(tmp_path)]) == 2
        assert "grid must be lo:hi:step" in capsys.readouterr().err
    for doc in ({"grid": [3.2, 3.0, 0.1]}, {"grid": ["a", 3.2, 0.1]}, {"grid": 3.0},
                {"grid": ["3.0", "3.2", "0.1"]}):
        with pytest.raises(ConfigError):
            parse_config(["tev-scan", "--config", _write_json(tmp_path / "c.json", doc)])
    good = _write_json(tmp_path / "good.json", {"grid": [3, 3.2, 0.1]})
    assert parse_config(["phase-track", "--config", good]).grid == (3.0, 3.2, 0.1)


def test_rect_parsing(tmp_path):
    cfg = parse_config(["stekloff-scan", "--rect=-4.5:-0.5:-0.2:0.8:40"])
    assert cfg.rect == (-4.5, -0.5, -0.2, 0.8, 40)
    # a count written as a float is read like the same number in a config-file list
    for count in ("10.0", "1e1"):
        rect = parse_config(["stekloff-scan", f"--rect=-4.5:-0.5:-0.2:0.8:{count}"]).rect
        assert rect == (-4.5, -0.5, -0.2, 0.8, 10) and type(rect[4]) is int
    for bad in ["1:2:3:4", "-1:1:0:1:1", "2:1:0:1:5", "a:1:0:1:5"]:
        with pytest.raises(ConfigError):
            parse_config(["stekloff-scan", f"--rect={bad}"])
    # a config-file list goes through the same check as --rect
    for bad in ([-2, -1, 0.1, -0.1, 3], [1, 2], [-2, -1, -0.1, 0.1, 2.5],
                ["-2", "-1", "-0.1", "0.1", "3"]):
        with pytest.raises(ConfigError):
            parse_config(["stekloff-scan", "--config", _write_json(tmp_path / "c.json", {"rect": bad})])
    good = _write_json(tmp_path / "good.json", {"rect": [-2, -1, -0.1, 0.1, 3]})
    cfg = parse_config(["stekloff-scan", "--config", good])
    assert cfg.rect == (-2.0, -1.0, -0.1, 0.1, 3)
    assert json.dumps(cfg.to_json_dict()["rect"]) == "[-2.0, -1.0, -0.1, 0.1, 3]"


def test_quad_parsing():
    assert parse_config(["tev-scan", "--quad", "8x16"]).quad == "8x16"
    # NxM is the one form a rule takes
    with pytest.raises(ConfigError, match="quad must be NxM"):
        parse_config(["tev-scan", "--quad", "ea100"])
    with pytest.raises(ConfigError, match="M = 2N"):
        parse_config(["tev-scan", "--quad", "16x31"])
    with pytest.raises(ConfigError):
        parse_config(["tev-scan", "--quad", "sixteen"])
    with pytest.raises(ConfigError):
        parse_config(["tev-scan", "--quad", "eaxx"])
    # the largest rule whose (2NM)^2 complex operator fits the byte budget
    assert parse_config(["ffop-eigs", "--quad", "45x90"]).quad == "45x90"
    with pytest.raises(ConfigError, match=r"quad '46x92' would need a 1\.07 GiB array, more than the 1 GiB"):
        parse_config(["ffop-eigs", "--quad", "46x92"])


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
    with pytest.raises(ConfigError, match="which"):
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
# the keys each command reads


class _ReadLog:
    """A RunConfig stand-in that logs the names a runner reads from it."""

    def __init__(self, cfg):
        self._cfg, self.names = cfg, set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self._cfg, name)


RUNS_BY_TARGET = {
    "ffop-eigs": [["ffop-eigs", "--kind", kind, *noise]
                  for kind in ("electric", "magnetic", "impedance", "modified")
                  for noise in ([], ["--noise", "0.01"])],
    "tev-scan": [["tev-scan", "--grid", "3.0:3.1:0.1", "--zcount", "1"]],
    "stekloff-scan": [["stekloff-scan", "--grid=-2:-1:0.5", "--zcount", "1"],
                      ["stekloff-scan", "--rect=-2:-1:-0.1:0.1:2", "--zcount", "1"]],
    "phase-track": [["phase-track", "--grid", "3.0:3.1:0.1"]],
    "oracle tev": [["oracle", "tev", "--grid", "3.0:3.3:0.01", "--lmax", "2"]],
    "oracle stekloff": [["oracle", "stekloff", "--lmax", "2"]],
    "estimate-shift": [["estimate-shift", "--lmax", "2"]],
    "index-bound": [["index-bound", "--k1", repr(np.pi), "--n-lo", "3", "--n-hi", "5"]],
}

CONFIG_KEYS = [f.name for f in fields(cli.RunConfig) if f.name not in ("command", "which")]
FLAGS = {f.name: f.metadata["flag"] for f in fields(cli.RunConfig) if f.metadata}


def _reads(target):
    return cli._COMMANDS[target].reads.split()


def test_runs_cover_every_command_and_oracle_target():
    assert set(RUNS_BY_TARGET) == set(cli._COMMANDS)


@pytest.mark.parametrize("target", sorted(RUNS_BY_TARGET))
def test_command_table_equals_the_runner_reads(tmp_path, target):
    read = set()
    for argv in RUNS_BY_TARGET[target]:
        quad = ["--quad", "4x8"] if "quad" in _reads(target) else []
        log = _ReadLog(parse_config(argv + quad + ["--out", str(tmp_path)]))
        cli.run(log)
        read |= log.names & set(CONFIG_KEYS)
    assert read == set(_reads(target)) | {"out"}


FLAG_VALUES = {"kind": "magnetic", "s_kind": "IDENTITY", "grid": "1:2:0.5",
               "rect": "-2:-1:-0.1:0.1:3", "herglotz": None}


@pytest.mark.parametrize("target", sorted(RUNS_BY_TARGET))
def test_unread_keys_are_rejected_by_flag_and_by_config_key(tmp_path, capsys, target):
    out = tmp_path / "out"
    unread = [key for key in CONFIG_KEYS if key not in _reads(target) + ["out"]]
    assert unread
    for key in unread:
        flag = FLAGS[key]
        value = FLAG_VALUES.get(key, "1")
        config = _write_json(tmp_path / "cfg.json", {key: 1})
        for given in ([flag] + ([value] if value else []), ["--config", config]):
            assert cli.main(target.split() + given + ["--out", str(out)]) == 2, (key, given)
            err = capsys.readouterr().err
            assert f"configuration error: {target} does not read" in err
            assert flag in err or repr(key) in err, err
            assert not out.exists()


def test_grid_and_rect_exclude_each_other(tmp_path, capsys):
    out = tmp_path / "out"
    both = ["stekloff-scan", "--quad", "4x8", "--grid=-2:-1:0.5", "--rect=-2:-1:-0.1:0.1:3"]
    grid_file = _write_json(tmp_path / "cfg.json", {"grid": [-2, -1, 0.5]})
    for argv in (both, both[:3] + both[4:] + ["--config", grid_file]):
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert "configuration error: grid and rect exclude each other" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["stekloff-scan", "--quad", "--grid=-2:-1:0.5"],
    ["ffop-eigs", "--kind", "acoustic"],
    ["oracle", "stekloff", "--s-kind", "NONE"],
    ["oracle"],
    ["tev-scan", "--zcount", "2.5"],
    ["no-such-command"],
    [],
])
def test_argparse_usage_errors_return_2(tmp_path, capsys, argv):
    # argparse used to raise SystemExit(2) out of cli.main for these
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert "scatsig: configuration error: " in capsys.readouterr().err
    assert not out.exists()


def test_help_lists_only_the_flags_a_command_reads(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["phase-track", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "--floor" in text and "--grid" in text
    assert "--noise" not in text and "--rect" not in text


def test_top_level_help_lists_every_command(capsys):
    # the parser holds only the arguments of the command being run, but every command's help line
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal width
    for name, row in cli._COMMANDS.items():
        assert name.split()[0] in text and row.help in text, name


def test_mistyped_command_names_the_valid_choices(capsys):
    assert cli.main(["phase-trak", "--grid", "3.0:3.1:0.1"]) == 2
    err = capsys.readouterr().err
    assert "scatsig: configuration error: " in err and "'phase-trak'" in err
    for command in dict.fromkeys(name.split()[0] for name in cli._COMMANDS):
        assert f"'{command}'" in err


# ---------------------------------------------------------------------------
# CSV writer


def test_export_csv_formatting():
    cfg = parse_config(["index-bound"])
    text = export_csv(cfg, ["name", "count", "value"],
                      [["a", 3, 0.1], ["b", -1, 2.0], ["TE", 1, np.pi]])
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == cli._config_line(cfg)
    assert lines[1] == "name,count,value"
    assert lines[2] == "a,3,1.0000000000000001e-01"
    assert lines[3] == "b,-1,2.0000000000000000e+00"
    assert lines[4] == "TE,1,3.1415926535897931e+00"
    assert text.endswith("\n")
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
    # a clean ffop-eigs diagonalizes the azimuthal blocks
    es = eig(far_field_operator("ELECTRIC", MediumSpec.ball(1.0, 2.0), 1.0,
                                build_quadrature("PRODUCT_GAUSS", 5)))
    assert len(lines) == 2 + es.values.size
    first = [float(tok) for tok in lines[2].split(",")]
    assert_allclose(first[0] + 1j * first[1], es.values[0], rtol=1e-15)
    # no circle law for the modified operator: NaN residual column
    rc = cli.main(["ffop-eigs", "--quad", "5x10", "--kind", "modified", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "ffop_eigs.csv").read_text().splitlines()
    assert lines[2].split(",")[3] == "nan"


def test_noisy_modified_ffop_eigs_is_the_stekloff_cell_operator(tmp_path):
    # F_M = F - F_s with the noise on the magnetic data F, as stekloff-scan forms
    # a cell; noise drawn on F - F_s is no measurement's
    argv = ["ffop-eigs", "--quad", "5x10", "--kind", "modified", "--noise", "0.01", "--seed", "4",
            "--B", "1.2", "--lam", "-1.5", "--s-kind", "IDENTITY", "--k", "1.3"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    lines = (tmp_path / "ffop_eigs.csv").read_text().splitlines()[2:]
    rows = np.array([[float(tok) for tok in line.split(",")] for line in lines])
    F_m = far_field_operator("MAGNETIC", MediumSpec.ball(1.0, 2.0), 1.3,
                             build_quadrature("PRODUCT_GAUSS", 5), 0.01, 4)
    ball = ImpedanceBall(R=1.2, lam=-1.5 + 0j, s_kind="IDENTITY")
    es = eig(ffop.modified_operator(F_m, ball))
    assert rows[:, 0].tobytes() == es.values.real.tobytes()
    assert rows[:, 1].tobytes() == es.values.imag.tobytes()
    assert np.isnan(rows[:, 3]).all()


def test_ffop_eigs_surfaces_a_circle_residual_error(tmp_path, monkeypatch, capsys):
    # only the kinds without a circle law get the NaN column; any other
    # ValueError is an error of the run
    def broken(eigset):
        raise ValueError("stray failure")

    monkeypatch.setattr("scatsig.spectra.circle_residual", broken)
    out = tmp_path / "out"
    assert cli.main(["ffop-eigs", "--quad", "4x8", "--out", str(out)]) == 2
    assert "stray failure" in capsys.readouterr().err
    assert not out.exists()


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


def test_phase_track_of_a_vacuum_reports_no_phase(tmp_path):
    # every eigenvalue is 0: the rows used to read nan,nan,64
    scene_file = _write_json(tmp_path / "scene.json", VACUUM_SCENE)
    rc = cli.main(["phase-track", "--quad", "4x8", "--grid", "3.1:3.15:0.05",
                   "--scene", scene_file, "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "phase_track.csv").read_text().splitlines()
    assert [line.split(",", 1)[1] for line in lines[2:]] == ["inf,inf,0"] * 2


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
    mode = next(m for m in modes if m.l == int(row[1]))
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


SMALL_SCAN = ["--quad", "4x8", "--zcount", "1", "--zradius", "0.2"]


@pytest.mark.parametrize("argv, cause", [
    pytest.param(["ffop-eigs", "--quad", "ea8"], "quad must be NxM, got 'ea8'", id="ea8-quad"),
    # both commands that build a modified operator share one check of B against the scatterer
    pytest.param(["ffop-eigs", "--quad", "4x8", "--kind", "modified", "--B", "0.5"],
                 "reference ball must contain the scatterer", id="ffop-eigs-B-inside"),
    pytest.param(["ffop-eigs", "--quad", "4x8", "--kind", "modified", "--B", "0.5", "--noise", "0.01"],
                 "reference ball must contain the scatterer", id="ffop-eigs-noisy-B-inside"),
    pytest.param(["stekloff-scan", *SMALL_SCAN, "--B", "0.5", "--grid=-2:-1:0.5"],
                 "reference ball must contain the scatterer", id="stekloff-scan-B-inside"),
    pytest.param(["tev-scan", *SMALL_SCAN, "--grid", "3.0:3.1:0.1", "--zseed", "-1"],
                 "z seed must lie in [0, 2**128), got -1", id="negative-zseed"),
    pytest.param(["tev-scan", *SMALL_SCAN, "--grid", "3.0:3.1:0.1", "--zseed", str(2**128)],
                 f"z seed must lie in [0, 2**128), got {2**128}", id="zseed-2**128"),
])
def test_config_errors_name_their_cause(tmp_path, capsys, argv, cause):
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert f"configuration error: {cause}" in capsys.readouterr().err
    assert not out.exists()


NAN_SCENE_TEXT = '{"layers": [{"r": NaN, "n_re": 2.0, "n_im": 0.0}]}'


@pytest.mark.parametrize("argv, key", [
    (["ffop-eigs", "--quad", "6x12", "--noise", "nan"], "noise"),
    (["estimate-shift", "--rc", "nan"], "rc"),
    (["phase-track", "--quad", "6x12", "--floor", "nan"], "floor"),
    (["ffop-eigs", "--quad", "6x12", "--k", "inf"], "k"),
    (["tev-scan", "--quad", "6x12", "--grid", "3:inf:0.05"], "grid"),
    (["stekloff-scan", "--quad", "6x12", "--rect=-3:-1:-0.1:nan:3"], "rect"),
    (["estimate-shift", "--delta-n", "nan+0.01j"], "delta_n"),
    (["tev-scan", "--quad", "6x12", "--alpha", "inf"], "alpha"),
    (["tev-scan", "--quad", "6x12", "--scene", "SCENE"], "radii"),
    (["estimate-shift", "--config", '{"lmax": Infinity}'], "lmax"),
    (["oracle", "tev", "--config", '{"lmax": 2.5}'], "lmax"),
    (["tev-scan", "--quad", "6x12", "--config", '{"z_count": 2.5}'], "z_count"),
    (["ffop-eigs", "--quad", "6x12", "--config", '{"k": "abc"}'], "k"),
    (["tev-scan", "--config", '{"quad": 5}'], "quad"),
    (["tev-scan", "--quad", "6x12", "--config", '{"alpha": true}'], "alpha"),
    (["estimate-shift", "--config", '{"delta_n": [1, 2, 3]}'], "delta_n"),
    (["tev-scan", "--quad", "6x12", "--config", '{"herglotz": "no"}'], "herglotz"),
    (["phase-track", "--quad", "6x12", "--floor", "2"], "floor"),
    (["tev-scan", "--quad", "6x12", "--config", '{"grid": [true, 1.2, 0.1]}'], "grid"),
    (["stekloff-scan", "--quad", "6x12", "--config", '{"rect": [-3, -1, false, 0.5, 3]}'], "rect"),
    (["estimate-shift", "--config", '{"delta_n": [true, 0]}'], "delta_n"),
    (["estimate-shift", "--config", '{"delta_n": []}'], "delta_n"),
    (["estimate-shift", "--config", '{"delta_n": [0.5]}'], "delta_n"),
    (["stekloff-scan", "--quad", "4x8", "--rect=-2:-1:-0.1:0.1:100000"], "rect"),
    (["tev-scan", "--quad", "46x92"], "46x92"),
    (["tev-scan", "--quad", "4x8", "--grid", "3:3.1:0.05", "--zcount", "100000000"], "100000000"),
    (["stekloff-scan", "--quad", "4x8", "--config", '{"z_count": 100000000}'], "100000000"),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, argv, key):
    # argparse floats accept nan and inf, and JSON files accept NaN; a
    # config-file value of the wrong type for its key fails the same way,
    # and so does a phase-track floor above 1, which would keep no eigenvalue,
    # or true or false in a config-file list, which float() would read as 1 or 0,
    # or a rect of more than 10^7 cells, whose lambda array used to exhaust memory,
    # or a rule or zcount whose dense operator or right-hand sides would pass the
    # 1 GiB budget: 100 million z points once allocated until a timeout stopped them
    scene = tmp_path / "scene.json"
    scene.write_text(NAN_SCENE_TEXT)
    if argv[-2] == "--config":  # the last argument is the config file's text
        config = tmp_path / "config.json"
        config.write_text(argv[-1])
        argv = argv[:-1] + [str(config)]
    argv = [str(scene) if a == "SCENE" else a for a in argv]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("argv, doc", [
    (["ffop-eigs", "--quad", "4x8"], {"kind": "Electric"}),
    (["stekloff-scan", "--quad", "4x8", "--grid=-2:-1:0.5", "--zcount", "1"],
     {"s_kind": "identity"}),
])
def test_config_file_choices_are_the_flag_choices(tmp_path, capsys, monkeypatch, argv, doc):
    # argparse checks the choices of --kind and --s-kind alone: a file's "Electric"
    # fell through to the modified operator's branch and a TypeError traceback, and a
    # file's "identity" reached stekloff-scan, which assembled F_m before the first cell
    def no_assembly(*args):
        raise AssertionError("assembled before checking the config file")

    monkeypatch.setattr(ffop, "far_field_operator", no_assembly)
    monkeypatch.setattr(ffop, "_mode_product", no_assembly)
    (key, val), = doc.items()
    out = tmp_path / "out"
    config = _write_json(tmp_path / "config.json", doc)
    assert cli.main(argv + ["--config", config, "--out", str(out)]) == 2
    choices = next(f for f in fields(cli.RunConfig) if f.name == key).metadata["argparse"]["choices"]
    assert (f"configuration error: {key} must be one of {', '.join(choices)}, got {val!r}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["tev-scan", "--quad", "4x8", "--grid", "1:1e300:1e-300"],
    ["phase-track", "--quad", "4x8", "--grid", "1:1e300:1e-300"],
    ["stekloff-scan", "--quad", "4x8", "--grid=-1e300:-1:1e-300", "--zcount", "1"],
])
def test_grid_with_too_many_points_is_a_config_error(tmp_path, capsys, argv):
    # a finite grid whose point count overflows used to raise OverflowError and exit 3
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: grid" in err and "points" in err
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    *(["ffop-eigs", "--quad", "4x8", "--kind", kind, *noise]
      for kind in ("electric", "magnetic", "impedance", "modified")
      for noise in ([], ["--noise", "0.01"])),
    ["stekloff-scan", "--quad", "4x8", "--grid=-2:-1:0.5", "--zcount", "1"],
    ["stekloff-scan", "--quad", "4x8", "--grid=-2:-1:0.5", "--zcount", "1", "--noise", "0.01"],
    ["oracle", "stekloff"],
    ["estimate-shift"],
])
def test_non_positive_wave_number_is_a_config_error(tmp_path, capsys, argv, k):
    # k = 0 used to reach the dual kinds' -4 pi i / k before any check and exit 3;
    # the Stekloff oracles took k = -1 and wrote its modes
    out = tmp_path / "out"
    assert cli.main(argv + ["--k", k, "--out", str(out)]) == 2
    assert "configuration error: wave number must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lmax", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["oracle", "stekloff"],
    ["oracle", "tev", "--grid", "3.0:3.3:0.01"],
    ["estimate-shift"],
    ["index-bound", "--k1", "3.14", "--n-lo", "3", "--n-hi", "5"],
])
def test_lmax_below_1_is_a_config_error(tmp_path, capsys, argv, lmax):
    # lmax 0 used to write header-only artifacts (or search to k = 200 and
    # exit 3), and lmax -1 to crash in the Bessel recurrence
    out = tmp_path / "out"
    assert cli.main(argv + ["--lmax", lmax, "--out", str(out)]) == 2
    assert "configuration error: l_max must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, value", [
    # degree 1046; at k = 1e9 the rule degree once sized a 32 GB table before any check
    (["ffop-eigs", "--quad", "4x8", "--k", "1000"], "k a = 1000"),
    # the degree used to be printed in full, all 309 digits of it
    (["stekloff-scan", "--quad", "4x8", "--grid=-2:-1:0.5", "--zcount", "1", "--B", "1e308"],
     "k a = 1e+308"),
    # k B overflows to inf, which was an OverflowError and exit 3
    (["stekloff-scan", "--quad", "4x8", "--grid=-2:-1:0.5", "--zcount", "1", "--k", "100",
      "--B", "1e307"], "k a = inf"),
    (["oracle", "tev", "--grid", "3.0:3.3:0.01", "--lmax", "201"], "got 201"),
    (["oracle", "stekloff", "--lmax", "201"], "got 201"),
])
def test_degrees_above_the_supported_maximum_are_config_errors(tmp_path, capsys, argv, value):
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and value in err and "200" in err
    assert len(err) < 200
    assert not out.exists()


def test_oracle_tev_writes_no_underflowed_roots(tmp_path):
    # both products of the determinant are subnormal and equal at k = 0.010..0.019
    # for l = 46..50: 53 rows of exact zeros, every residual NaN
    out = tmp_path / "out"
    assert cli.main(["oracle", "tev", "--grid", "0.01:0.02:0.001", "--lmax", "50",
                     "--out", str(out)]) == 0
    lines = (out / "oracle_tev.csv").read_text().splitlines()
    assert lines[1:] == ["family,l,value,residual"]


def test_oracle_tev_builds_no_chi_table_that_would_overflow(tmp_path):
    # the determinant reads psi alone; chi_80(0.01) overflows, and reading it exited 3
    out = tmp_path / "out"
    assert cli.main(["oracle", "tev", "--grid", "0.01:0.02:0.001", "--lmax", "100",
                     "--out", str(out)]) == 0
    lines = (out / "oracle_tev.csv").read_text().splitlines()
    assert lines[1:] == ["family,l,value,residual"]


def test_exit_code_3_for_numeric_failures(tmp_path, capsys):
    # k at the first root of psi_1' makes k^2 an interior Neumann
    # eigenvalue of the vacuum unit ball
    scene_file = _write_json(tmp_path / "scene.json", VACUUM_SCENE)
    rc = cli.main(["oracle", "stekloff", "--k", NEUMANN_K, "--scene", scene_file,
                   "--out", str(tmp_path)])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def test_exhausted_refinement_is_a_numeric_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scan, "_NORMAL_EQ_TOL", 0.0)
    rc = cli.main(["tev-scan", "--quad", "4x8", "--grid", "3.0:3.1:0.1", "--zcount", "1",
                   "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "residual tolerance" in err


@pytest.mark.parametrize("error", [NotImplementedError, RecursionError])
def test_stray_runtime_errors_are_not_numeric_failures(tmp_path, monkeypatch, error):
    # internal bugs propagate with their traceback instead of exiting 3
    def broken(*args, **kwargs):
        raise error("internal bug")

    monkeypatch.setattr(scan, "tev_scan", broken)
    with pytest.raises(error, match="internal bug"):
        cli.main(["tev-scan", "--quad", "4x8", "--grid", "3.0:3.1:0.1", "--zcount", "1",
                  "--out", str(tmp_path)])
    assert not issubclass(error, cli._NUMERIC_ERRORS)
    assert issubclass(ConvergenceError, cli._NUMERIC_ERRORS)


@pytest.mark.parametrize("argv", [
    ["ffop-eigs", "--quad", "2x4"],
    ["tev-scan", "--quad", "4x8", "--zcount", "0"],
    ["index-bound", "--n-hi", "5"],
    ["ffop-eigs", "--quad", "4x8", "--noise", "0.01", "--seed", "-1"],
])
def test_failed_runs_leave_no_out_directory(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_4_for_io_failures(tmp_path, capsys):
    assert cli.main(["tev-scan", "--config", str(tmp_path / "missing.json")]) == 4
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    rc = cli.main(["ffop-eigs", "--quad", "4x8", "--out", str(blocker)])
    assert rc == 4


def test_every_call_sets_the_glibc_heap_policy(tmp_path, monkeypatch):
    # M_MMAP_THRESHOLD (-3) to 32 MiB and M_TRIM_THRESHOLD (-1) to 64 MiB; a C
    # library without mallopt leaves the run as it is
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    argv = ["oracle", "stekloff", "--lmax", "2", "--out", str(tmp_path)]
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    assert cli.main(argv) == 0
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert cli.main(argv) == 0


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "scatsig.cli", "ffop-eigs", "--quad", "4x8",
         "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "ffop_eigs.csv").exists()


def test_cli_start_loads_neither_scipy_optimize_nor_scipy_sparse(tmp_path):
    # every CLI call pays for what importing scatsig.cli and a short run
    # load: the scipy.optimize package alone costs about 0.3 s of a start.
    # Brent's method on the n = 4 ball's root at pi and the Lanczos norm of
    # the noisy 8x16 scan each load one extension module by file under its
    # own name, without the packages above it
    scene = _write_json(tmp_path / "scene.json", BALL4_SCENE)
    code = (
        "import sys\n"
        "from scatsig import cli\n"
        "def loaded():\n"
        "    print(sorted(m for m in sys.modules if m.startswith(('scipy.optimize', 'scipy.sparse'))))\n"
        f"rc = cli.main(['oracle', 'tev', '--scene', {scene!r}, '--grid', '3.0:3.3:0.01',\n"
        f"               '--out', {str(tmp_path)!r}])\n"
        "assert rc == 0, rc\n"
        "loaded()\n"
        "rc = cli.main(['tev-scan', '--quad', '8x16', '--grid', '3.0:3.1:0.05', '--noise', '0.01',\n"
        f"               '--out', {str(tmp_path)!r}])\n"
        "assert rc == 0, rc\n"
        "loaded()\n"
        "zeros = sys.modules['scipy.optimize._zeros']\n"
        "import scipy.optimize\n"
        "assert scipy.optimize._zeros_py._zeros is zeros\n"
        "from scipy.optimize import _zeros\n"
        "assert _zeros is zeros\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-3] == "['scipy.optimize._zeros']"
    assert proc.stdout.splitlines()[-1] == ("['scipy.optimize._zeros', "
                                            "'scipy.sparse.linalg._eigen.arpack._arpacklib']")
    rows = (tmp_path / "oracle_tev.csv").read_text().splitlines()
    assert any(abs(float(row.split(",")[2]) - np.pi) < 1e-10 for row in rows[2:])
    assert (tmp_path / "tev_scan.csv").exists()


# the packages a start must not load: scipy.linalg alone is about half of it
_HEAVY = ("scipy.linalg", "scipy.sparse", "scipy.optimize", "scatsig.spectra")

# a tiny run of every command that needs no eigensolver; the noisy 8x16 scan
# (2N = 256) takes the Lanczos norm, the noisy Stekloff scan the dense solver
_EIGEN_FREE_RUNS = {
    "tev-scan": ["--quad", "8x16", "--grid", "3.0:3.1:0.05", "--zcount", "2", "--noise", "0.01"],
    "stekloff-scan": ["--quad", "4x8", "--grid=-2:-1:0.5", "--zcount", "1", "--noise", "0.01"],
    "oracle tev": ["--grid", "3.0:3.3:0.01", "--lmax", "2"],
    "oracle stekloff": ["--lmax", "2"],
    "estimate-shift": ["--lmax", "2"],
    "index-bound": ["--k1", "3.141592653589793", "--n-lo", "3", "--n-hi", "5", "--lmax", "2"],
}


def _fresh_python(code):
    """Stdout lines of ``code`` run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_package_import_loads_neither_scipy_linalg_nor_spectra():
    lines = _fresh_python(
        f"import sys\n"
        f"import scatsig\n"
        f"print([m for m in {_HEAVY!r} if m in sys.modules])\n"
        f"import scatsig.cli\n"
        f"print([m for m in {_HEAVY!r} if m in sys.modules])\n"
        f"scatsig.eig\n"
        f"print([m for m in {_HEAVY!r} if m in sys.modules])\n")
    assert lines == ["[]", "[]", "['scipy.linalg', 'scatsig.spectra']"]


def test_only_the_eigensolving_commands_load_scipy_linalg(tmp_path):
    assert set(_EIGEN_FREE_RUNS) == set(cli._COMMANDS) - {"phase-track", "ffop-eigs"}
    runs = [name.split() + argv for name, argv in _EIGEN_FREE_RUNS.items()]
    runs += [["ffop-eigs", "--quad", "4x8"], ["phase-track", "--quad", "4x8", "--grid", "3.0:3.1:0.05"]]
    lines = _fresh_python(
        f"import sys\n"
        f"from scatsig import cli\n"
        f"for argv in {runs!r}:\n"
        f"    assert cli.main(argv + ['--out', {str(tmp_path)!r}]) == 0, argv\n"
        f"    print([m for m in {_HEAVY!r} if m in sys.modules])\n")
    # cli.main prints each artifact path before the check's line
    assert lines[1::2] == ["[]"] * len(_EIGEN_FREE_RUNS) + ["['scipy.linalg', 'scatsig.spectra']"] * 2


def test_routines_loaded_by_file_are_the_scipy_linalg_ones():
    lines = _fresh_python(
        "import sys\n"
        "from scatsig import ffop, scan\n"
        "print('scipy.linalg' in sys.modules)\n"
        "import scipy.linalg.blas as blas, scipy.linalg.lapack as lapack\n"
        "print([ffop.zherk is blas.zherk, ffop.zhemv is blas.zhemv, scan.zgemm is blas.zgemm,\n"
        "       scan.zpotrf is lapack.zpotrf, scan.zpotrs is lapack.zpotrs])\n")
    assert lines == ["False", str([True] * 5)]
