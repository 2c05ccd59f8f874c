"""Command-line interface: reproducible experiment runs with CSV/JSON output.

Every artifact embeds the fully resolved run configuration in a leading
comment line, all randomness flows from explicit seeds, and reruns with
the same configuration are byte-identical. A command takes, as a flag or
a config-file key, only the keys it reads (see its --help); any other key,
or a grid together with a rect, is a configuration error. Exit codes:
0 success, 2 configuration problems, 3 numeric failures, 4 I/O failures.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import ffop, oracles, scan
from .forward import (
    ConvergenceError,
    ImpedanceBall,
    MediumSpec,
    ResonantParameterError,
    TruncationError,
)
from .oracles import BracketError, NeumannResonanceError

_NUMERIC_ERRORS = (
    TruncationError,
    ResonantParameterError,
    NeumannResonanceError,
    BracketError,
    np.linalg.LinAlgError,
    ArithmeticError,
    ConvergenceError,
)


class ConfigError(ValueError):
    """Invalid command-line or configuration-file input."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise ConfigError instead of exiting 2."""

    def error(self, message):
        raise ConfigError(message)


# JSON types a config-file value may have, by RunConfig field type. An int
# is a valid float; json.loads makes true and false bools, never ints
_FILE_TYPES = {
    "int": (int,), "float": (int, float), "float | None": (int, float, type(None)),
    "float | str": (int, float, str), "complex": (int, float, str, list), "str": (str,),
    "bool": (bool,),
}


def _key(default, flag, **settings):
    """A config key's default, with its flag and that flag's argparse settings as metadata."""
    return field(default=default, metadata={"flag": flag, "argparse": settings})


@dataclass
class RunConfig:
    """Resolved parameters of one CLI invocation.

    The field defaults are the CLI defaults; every field after ``command``
    and ``which`` is also a config-file key, declared with its flag by _key.
    """

    command: str
    which: str | None = None
    k: float = _key(1.0, "--k", type=float, help="wave number")
    scene: MediumSpec = _key(MediumSpec.ball(1.0, 2.0), "--scene", help="scene JSON file path")
    B: float = _key(1.0, "--B", type=float, help="reference ball radius")
    quad: str = _key("16x32", "--quad", help="sphere rule: NxM product Gauss")
    noise: float = _key(0.0, "--noise", type=float, help="multiplicative noise level")
    seed: int = _key(1, "--seed", type=int, help="noise seed")
    alpha: float | str = _key("auto", "--alpha", help="Tikhonov parameter or 'auto'")
    grid: tuple | None = _key(None, "--grid", help="lo:hi:step parameter grid")
    rect: tuple | None = _key(None, "--rect", help="reLo:reHi:imLo:imHi:n complex rectangle")
    out: str = _key(".", "--out", help="output directory")
    kind: str = _key("electric", "--kind", choices=["electric", "magnetic", "impedance", "modified"])
    s_kind: str = _key("CURL_CURL", "--s-kind", choices=["IDENTITY", "CURL_CURL"])
    lam: float = _key(2.0, "--lam", type=float, help="impedance parameter for impedance/modified")
    lmax: int = _key(4, "--lmax", type=int)
    z_count: int = _key(10, "--zcount", type=int)
    z_radius: float = _key(0.5, "--zradius", type=float)
    z_seed: int = _key(7, "--zseed", type=int)
    delta_n: complex = _key(0.01, "--delta-n", help="index perturbation (complex ok)")
    rc: float | None = _key(None, "--rc", type=float, help="perturbation region radius")
    k1: float | None = _key(None, "--k1", type=float, help="measured first transmission eigenvalue")
    n_lo: float | None = _key(None, "--n-lo", type=float)
    n_hi: float | None = _key(None, "--n-hi", type=float)
    herglotz: bool = _key(False, "--herglotz", action="store_const", const=True)
    floor: float = _key(1e-6, "--floor", type=float, help="relative eigenvalue floor")

    def to_json_dict(self):
        d = asdict(self)
        d["scene"] = json.loads(self.scene.to_json())
        d["delta_n"] = [self.delta_n.real, self.delta_n.imag]
        d["grid"] = list(self.grid) if self.grid else None
        d["rect"] = list(self.rect) if self.rect else None
        return d


def _parse_numbers(key, value, form):
    """The numbers of "a:b:..." text or a config-file list, one per field of ``form``."""
    parts = value.split(":") if isinstance(value, str) else value
    if not isinstance(parts, list) or len(parts) != form.count(":") + 1:
        raise ConfigError(f"{key} must be {form}, got {value!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"{key} values must be numbers, got {value!r}") from None


def _parse_grid(value):
    """lo, hi, step from "lo:hi:step" text or a config-file [lo, hi, step] list."""
    lo, hi, step = _parse_numbers("grid", value, "lo:hi:step")
    if step <= 0 or hi <= lo:
        raise ConfigError(f"grid needs lo < hi and step > 0, got {value!r}")
    return lo, hi, step


def _parse_rect(value):
    """reLo, reHi, imLo, imHi, n from "a:b:c:d:n" text or a config-file 5-element list."""
    re_lo, re_hi, im_lo, im_hi, n = _parse_numbers("rect", value, "reLo:reHi:imLo:imHi:n")
    if re_hi <= re_lo or im_hi <= im_lo or n < 2 or not n.is_integer():
        raise ConfigError(f"rect needs increasing bounds and an integer n >= 2, got {value!r}")
    if int(n) ** 2 > ffop._MAX_GRID_POINTS:
        raise ConfigError(f"rect {value!r} would hold {int(n) ** 2} cells, "
                          f"more than {ffop._MAX_GRID_POINTS}")
    return re_lo, re_hi, im_lo, im_hi, int(n)


def _parse_quad(text):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"quad must be NxM, got {text!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"quad must be NxM with integers, got {text!r}") from None
    if m != 2 * n:
        raise ConfigError(f"product rule needs M = 2N azimuth points, got {text!r}")
    return ("PRODUCT_GAUSS", n)


# the most bytes one complex array of a run may take, checked before any is allocated
_MAX_ARRAY_BYTES = 1 << 30


def _check_array_bytes(quad, z_count):
    """ConfigError naming the value whose arrays would exceed _MAX_ARRAY_BYTES.

    An NxM rule has N M nodes and 2 N M tangential unknowns. The dense
    operator is (2 N M)^2 complex, which a noisy run holds twice; the
    right-hand sides are 2 N M x z_count.
    """
    unknowns = 4 * _parse_quad(quad)[1] ** 2
    for key, value, size in (("quad", quad, unknowns**2), ("z_count", z_count, unknowns * z_count)):
        if 16 * size > _MAX_ARRAY_BYTES:
            raise ConfigError(f"{key} {value!r} would need a {16 * size / 2**30:.3g} GiB array, "
                              f"more than the {_MAX_ARRAY_BYTES >> 30} GiB budget")


def _load_scene(value):
    if isinstance(value, MediumSpec):
        return value
    if isinstance(value, dict):
        try:
            return MediumSpec.from_json(json.dumps(value))
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad scene description: {e}") from None
    if isinstance(value, str):
        with open(value, "r") as fh:
            text = fh.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"malformed scene JSON in {value!r} at byte offset {e.pos}: {e.msg}") from None
        return _load_scene(doc)
    raise ConfigError(f"scene must be a file path or an inline object, got {type(value).__name__}")


def _build_parser(run_command):
    """The parser of every command's name and help line, and of ``run_command``'s arguments alone.

    Each add_argument costs a help formatter and a terminal-size query,
    so the commands not being run get none.
    """
    ap = _Parser(prog="scatsig", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for command in dict.fromkeys(name.split()[0] for name in _COMMANDS):
        names = [name for name in _COMMANDS if name.split()[0] == command]
        # allow_abbrev=False: --k must not mean --k1
        p = sub.add_parser(command, help=_COMMANDS[names[0]].help, allow_abbrev=False)
        if command != run_command:
            continue
        if names != [command]:  # the targets are the second words of the command's rows
            p.add_argument("which", choices=[name.split()[1] for name in names])
        keys = {"out"}.union(*(_COMMANDS[name].reads.split() for name in names))
        p.add_argument("--config", help="JSON file with defaults for the keys this command reads")
        for f in fields(RunConfig):
            if f.name in keys:
                p.add_argument(f.metadata["flag"], dest=f.name, **f.metadata["argparse"])
    return ap


def parse_config(argv=None):
    """Merge CLI flags over the optional config file over defaults."""
    argv = sys.argv[1:] if argv is None else argv
    ns, extra = _build_parser(argv[0] if argv else None).parse_known_args(argv)
    which = getattr(ns, "which", None)
    name = f"{ns.command} {which}" if which else ns.command
    if extra:
        raise ConfigError(f"{name} does not read {extra[0]}")
    reads = {"out", *_COMMANDS[name].reads.split()}
    keys = [f for f in fields(RunConfig) if f.metadata]
    defaults = {f.name: f.default for f in keys}
    types = {f.name: f.type for f in keys}
    choices = {f.name: f.metadata["argparse"].get("choices") for f in keys}
    file_cfg = {}
    if ns.config:
        with open(ns.config, "r") as fh:
            text = fh.read()
        try:
            file_cfg = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"malformed JSON in {ns.config!r} at byte offset {e.pos}: {e.msg}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    flags = {key: val for key, val in vars(ns).items() if key in defaults and val is not None}
    for key in {**file_cfg, **flags}:
        if key not in reads:
            raise ConfigError(f"{name} does not read {key!r}")
    for key, val in file_cfg.items():
        want = _FILE_TYPES.get(types[key])
        if want and type(val) not in want:
            raise ConfigError(f"{key} must be of type {types[key]}, got {val!r}")
        if choices[key] and val not in choices[key]:
            raise ConfigError(f"{key} must be one of {', '.join(choices[key])}, got {val!r}")
        # float() would read "3.0" as 3.0 and true as 1.0
        if isinstance(val, list) and any(type(v) not in (int, float) for v in val):
            raise ConfigError(f"{key} must hold numbers only, got {val!r}")
    merged = {**defaults, **file_cfg, **flags}
    if merged["grid"] is not None and merged["rect"] is not None:
        raise ConfigError("grid and rect exclude each other")

    if isinstance(merged["alpha"], str) and merged["alpha"] != "auto":
        try:
            merged["alpha"] = float(merged["alpha"])
        except ValueError:
            raise ConfigError(f"alpha must be a number or 'auto', got {merged['alpha']!r}") from None
    if not isinstance(merged["alpha"], str) and not merged["alpha"] > 0:
        raise ConfigError("alpha must be positive")
    delta_n = merged["delta_n"]  # a number, its text, or a config-file [re, im] list
    try:
        pair = isinstance(delta_n, list) and len(delta_n) == 2
        merged["delta_n"] = complex(*delta_n) if pair else complex(delta_n)
    except (TypeError, ValueError):
        raise ConfigError(f"delta_n must parse as a complex number, got {delta_n!r}") from None
    if merged["grid"] is not None:
        merged["grid"] = _parse_grid(merged["grid"])
    elif merged["rect"] is None:
        merged["grid"] = _COMMANDS[name].grid
    if merged["rect"] is not None:
        merged["rect"] = _parse_rect(merged["rect"])
    for key, val in merged.items():
        vals = val if isinstance(val, tuple) else (val,)
        if any(isinstance(v, (float, complex)) and not np.isfinite(v) for v in vals):
            raise ConfigError(f"{key} must be finite, got {val!r}")
    _check_array_bytes(merged["quad"], merged["z_count"])
    merged["scene"] = _load_scene(merged["scene"])
    cfg = RunConfig(command=ns.command, which=which, **merged)
    if cfg.noise < 0:
        raise ConfigError("noise level must be >= 0")
    return cfg


def _quad_of(cfg):
    kind, order = _parse_quad(cfg.quad)
    return ffop.build_quadrature(kind, order)


def _config_line(cfg):
    return "# config " + json.dumps(cfg.to_json_dict(), sort_keys=True)


def export_csv(cfg, header, rows):
    """A table's CSV text under the run's config line (see ffop.csv_text)."""
    return ffop.csv_text(header, rows, [_config_line(cfg)])


def _write_text(text, path):
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as e:
        raise OSError(f"cannot write {path!r}: {e}") from e


def _run_ffop_eigs(cfg):
    from . import spectra  # scipy.linalg, which only this command and phase-track load

    quad, kind = _quad_of(cfg), cfg.kind.upper()
    if kind in ("ELECTRIC", "MAGNETIC"):  # these ignore --B, even a bad one
        A = ffop.far_field_operator(kind, cfg.scene, cfg.k, quad, cfg.noise, cfg.seed)
    else:
        ball = ImpedanceBall(R=cfg.B, lam=complex(cfg.lam), s_kind=cfg.s_kind)
        if kind == "IMPEDANCE":
            A = ffop.far_field_operator(kind, ball, cfg.k, quad, cfg.noise, cfg.seed)
        else:  # F_M of the (noisy) magnetic data: a Stekloff scan cell's operator
            ffop._require_reference_ball(cfg.B, cfg.scene)
            F_m = ffop.far_field_operator("MAGNETIC", cfg.scene, cfg.k, quad, cfg.noise, cfg.seed)
            A = ffop.modified_operator(F_m, ball)
    es = spectra.eig(A)
    if kind in ("ELECTRIC", "MAGNETIC"):  # the kinds with a circle law
        res = spectra.circle_residual(es)
    else:
        res = np.full(es.values.size, np.nan)
    rows = [[v.real, v.imag, abs(v), r] for v, r in zip(es.values, res)]
    return "ffop_eigs.csv", export_csv(cfg, ["re", "im", "abs", "circle_residual"], rows)


def _zs_of(cfg):
    return scan.ZSampling(count=cfg.z_count, r_z=cfg.z_radius, seed=cfg.z_seed)


def _run_tev_scan(cfg):
    result = scan.tev_scan(
        cfg.scene, ffop.grid_points(*cfg.grid), _quad_of(cfg), _zs_of(cfg), cfg.alpha,
        noise_eps=cfg.noise, noise_seed=cfg.seed, herglotz=cfg.herglotz,
    )
    return "tev_scan.csv", _config_line(cfg) + "\n" + scan.result_to_csv(result)


def _run_stekloff_scan(cfg):
    quad = _quad_of(cfg)
    if cfg.rect:
        re_lo, re_hi, im_lo, im_hi, n = cfg.rect
        re_ax = np.linspace(re_lo, re_hi, int(n))
        im_ax = np.linspace(im_lo, im_hi, int(n))
        lam_grid = re_ax[None, :] + 1j * im_ax[:, None]
    else:
        lam_grid = ffop.grid_points(*cfg.grid)
    result = scan.stekloff_scan(
        cfg.scene, cfg.B, cfg.k, lam_grid, quad, _zs_of(cfg),
        cfg.alpha, s_kind=cfg.s_kind,
        noise_eps=cfg.noise, noise_seed=cfg.seed,
    )
    if cfg.rect:
        return "stekloff_scan.json", scan.result_to_json(result, config=cfg.to_json_dict())
    return "stekloff_scan.csv", _config_line(cfg) + "\n" + scan.result_to_csv(result)


def _run_phase_track(cfg):
    from . import spectra  # scipy.linalg, which only this command and ffop-eigs load

    track = spectra.phase_track(cfg.scene, ffop.grid_points(*cfg.grid), _quad_of(cfg), floor=cfg.floor)
    return "phase_track.csv", _config_line(cfg) + "\n" + spectra.phase_track_to_csv(track)


def _run_oracle_tev(cfg):
    roots = oracles.tev_roots(cfg.scene, cfg.lmax, cfg.grid[:2], cfg.grid[2])
    rows = [
        [fam, l, kstar, oracles.tev_min_singular(cfg.scene, l, fam, kstar)]
        for kstar, l, fam in roots
    ]
    return "oracle_tev.csv", export_csv(cfg, ["family", "l", "value", "residual"], rows)


def _run_oracle_stekloff(cfg):
    modes = oracles.stekloff_eigs_ball(cfg.scene, cfg.B, cfg.k, cfg.lmax, s_kind=cfg.s_kind)
    rows = [
        [m.family, m.l, m.lam.real, m.lam.imag, m.boundary_residual()]
        for m in modes
    ]
    return "oracle_stekloff.csv", export_csv(cfg, ["family", "l", "re", "im", "residual"], rows)


def _run_estimate_shift(cfg):
    modes = oracles.stekloff_eigs_ball(cfg.scene, cfg.B, cfg.k, cfg.lmax, s_kind=cfg.s_kind)
    r_c = cfg.rc if cfg.rc is not None else cfg.scene.radius
    rows = []
    for m in modes:
        shift = oracles.shift_estimate(m, cfg.delta_n, r_c)
        rows.append([m.family, m.l, m.lam.real, m.lam.imag, shift.real, shift.imag])
    header = ["family", "l", "lambda_re", "lambda_im", "shift_re", "shift_im"]
    return "shift_estimate.csv", export_csv(cfg, header, rows)


def _run_index_bound(cfg):
    if cfg.n_lo is None or cfg.n_hi is None:
        raise ConfigError("index-bound needs --n-lo and --n-hi")
    k1 = cfg.k1
    if k1 is None:
        k1 = oracles.first_tev(cfg.scene, l_max=cfg.lmax)[0]
    n_est = oracles.index_bound_from_tev(k1, cfg.scene.radius, (cfg.n_lo, cfg.n_hi),
                                         l_max=cfg.lmax)
    rows = [[n_est, k1, cfg.scene.radius, cfg.n_lo, cfg.n_hi]]
    return "index_bound.csv", export_csv(cfg, ["n_est", "k1", "a", "n_lo", "n_hi"], rows)


# One row per command and oracle target: help text, the keys it reads besides out, the grid
# it scans given neither grid nor rect, and its runner, which returns (file name, text)
_Command = namedtuple("_Command", "help reads grid runner")
_COMMANDS = {
    "ffop-eigs": _Command("assemble an operator and export its spectrum",
                          "k scene B quad noise seed kind s_kind lam", None, _run_ffop_eigs),
    "tev-scan": _Command("transmission-eigenvalue indicator scan over k",
                         "scene quad noise seed alpha grid z_count z_radius z_seed herglotz",
                         (0.5, 4.0, 0.02), _run_tev_scan),
    "stekloff-scan": _Command(
        "Stekloff indicator scan over lambda",
        "k scene B quad noise seed alpha grid rect s_kind z_count z_radius z_seed",
        (-6.0, -0.5, 0.05), _run_stekloff_scan),
    "phase-track": _Command("magnetic eigenvalue phases over a k sweep", "scene quad grid floor",
                            (0.5, 4.0, 0.02), _run_phase_track),
    "oracle tev": _Command("analytic eigenvalue references", "scene grid lmax",
                           (0.5, 4.0, 0.01), _run_oracle_tev),
    "oracle stekloff": _Command("analytic eigenvalue references", "k scene B lmax s_kind",
                                None, _run_oracle_stekloff),
    "estimate-shift": _Command("first-order Stekloff shifts for an index bump",
                               "k scene B lmax s_kind delta_n rc", None, _run_estimate_shift),
    "index-bound": _Command("constant-index bound from a measured first eigenvalue",
                            "scene lmax k1 n_lo n_hi", None, _run_index_bound),
}


def run(cfg):
    """Execute a resolved configuration; writes its artifact and returns [its path]."""
    name, text = _COMMANDS[f"{cfg.command} {cfg.which}" if cfg.which else cfg.command].runner(cfg)
    path = os.path.join(cfg.out, name)
    _write_text(text, path)
    return [path]


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap():
    """Let glibc keep freed heap memory for reuse; a no-op without glibc's mallopt.

    By default glibc maps arrays of 128 KiB and more afresh and hands the
    top of the heap back to the OS once 128 KiB of it is free. Freeing a
    mapped array raises both thresholds for the rest of the process, and
    importing scipy.linalg used to do that at every start. Without that
    import the thresholds stay at 128 KiB, so the block temporaries of
    every clean Stekloff cell are trimmed and re-faulted: the benchmark's
    stekloff-scan of 81 cells on a 10x20 rule took about 8,800 minor
    faults and 30% more time (14,100 when bench/child.py imports spectra
    before the call), against about 200 (430) with this policy. Here
    arrays up to 32 MiB come from the heap, and its top is trimmed only
    beyond 64 MiB free, so a noisy scan's dense arrays are reused too.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None):
    _keep_freed_heap()
    try:
        paths = run(parse_config(argv))
    except _NUMERIC_ERRORS as e:
        print(f"scatsig: numeric failure: {e}", file=sys.stderr)
        return 3
    except ValueError as e:  # ConfigError among them
        print(f"scatsig: configuration error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"scatsig: {e}", file=sys.stderr)
        return 4
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
