"""Command-line interface: reproducible experiment runs with CSV/JSON output.

Every artifact embeds the fully resolved run configuration in a leading
comment line, all randomness flows from explicit seeds, and reruns with
the same configuration are byte-identical. Exit codes: 0 success,
2 configuration problems, 3 numeric failures, 4 I/O failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import ffop, oracles, scan, spectra
from .forward import (
    ImpedanceBall,
    MediumSpec,
    ResonantParameterError,
    TruncationError,
)
from .oracles import BracketError, NeumannResonanceError
from .sphfun import RecurrenceOverflowError

_NUMERIC_ERRORS = (
    TruncationError,
    ResonantParameterError,
    NeumannResonanceError,
    BracketError,
    RecurrenceOverflowError,
    np.linalg.LinAlgError,
    ArithmeticError,
    RuntimeError,
)


class ConfigError(ValueError):
    """Invalid command-line or configuration-file input."""


_GRID_DEFAULTS = {
    "tev-scan": (0.5, 4.0, 0.02),
    "phase-track": (0.5, 4.0, 0.02),
    "stekloff-scan": (-6.0, -0.5, 0.05),
    "oracle": (0.5, 4.0, 0.01),
}


@dataclass
class RunConfig:
    """Resolved parameters of one CLI invocation.

    The field defaults are the CLI defaults; every field after
    ``command`` and ``which`` is also a config-file key.
    """

    command: str
    which: str | None = None
    k: float = 1.0
    scene: MediumSpec = MediumSpec.ball(1.0, 2.0)
    B: float = 1.0
    quad: str = "16x32"
    noise: float = 0.0
    seed: int = 1
    alpha: object = "auto"
    grid: tuple | None = None
    rect: tuple | None = None
    out: str = "."
    kind: str = "electric"
    s_kind: str = "CURL_CURL"
    lam: float = 2.0
    lmax: int = 4
    z_count: int = 10
    z_radius: float = 0.5
    z_seed: int = 7
    delta_n: complex = 0.01
    rc: float | None = None
    k1: float | None = None
    n_lo: float | None = None
    n_hi: float | None = None
    herglotz: bool = False
    floor: float = 1e-6
    prominence: float = 2.0

    def to_json_dict(self):
        d = asdict(self)
        d["scene"] = json.loads(self.scene.to_json())
        d["delta_n"] = [self.delta_n.real, self.delta_n.imag]
        d["grid"] = list(self.grid) if self.grid else None
        d["rect"] = list(self.rect) if self.rect else None
        return d


def _parse_grid(value):
    """lo, hi, step from "lo:hi:step" text or a config-file [lo, hi, step] list."""
    parts = value.split(":") if isinstance(value, str) else value
    if not isinstance(parts, list) or len(parts) != 3:
        raise ConfigError(f"grid must be lo:hi:step, got {value!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except (TypeError, ValueError):
        raise ConfigError(f"grid values must be numbers, got {value!r}") from None
    if step <= 0 or hi <= lo:
        raise ConfigError(f"grid needs lo < hi and step > 0, got {value!r}")
    return lo, hi, step


def _parse_rect(value):
    """reLo, reHi, imLo, imHi, n from "a:b:c:d:n" text or a config-file 5-element list."""
    parts = value.split(":") if isinstance(value, str) else value
    if not isinstance(parts, list) or len(parts) != 5:
        raise ConfigError(f"rect must be reLo:reHi:imLo:imHi:n, got {value!r}")
    try:
        re_lo, re_hi, im_lo, im_hi = (float(p) for p in parts[:4])
        n = int(parts[4])
    except (TypeError, ValueError):
        raise ConfigError(f"rect values must be numbers, got {value!r}") from None
    if re_hi <= re_lo or im_hi <= im_lo or n < 2 or n != float(parts[4]):
        raise ConfigError(f"rect needs increasing bounds and an integer n >= 2, got {value!r}")
    return re_lo, re_hi, im_lo, im_hi, n


def _parse_quad(text):
    if text.startswith("ea"):
        try:
            order = int(text[2:])
        except ValueError:
            raise ConfigError(f"quad must be NxM or eaN, got {text!r}") from None
        return ("EQUAL_AREA", order)
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"quad must be NxM or eaN, got {text!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"quad must be NxM with integers, got {text!r}") from None
    if m != 2 * n:
        raise ConfigError(f"product rule needs M = 2N azimuth points, got {text!r}")
    return ("PRODUCT_GAUSS", n)


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


def _build_parser():
    ap = argparse.ArgumentParser(prog="scatsig", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with defaults for any flag")
        p.add_argument("--k", type=float)
        p.add_argument("--scene", help="scene JSON file path")
        p.add_argument("--B", type=float, help="reference ball radius")
        p.add_argument("--quad", help="sphere rule: NxM product Gauss or eaN equal-area")
        p.add_argument("--noise", type=float, help="multiplicative noise level")
        p.add_argument("--seed", type=int, help="noise seed")
        p.add_argument("--alpha", help="Tikhonov parameter or 'auto'")
        p.add_argument("--grid", help="lo:hi:step parameter grid")
        p.add_argument("--rect", help="reLo:reHi:imLo:imHi:n complex rectangle")
        p.add_argument("--out", help="output directory")
        p.add_argument("--lmax", type=int)
        p.add_argument("--s-kind", dest="s_kind", choices=["IDENTITY", "CURL_CURL"])

    p = sub.add_parser("ffop-eigs", help="assemble an operator and export its spectrum")
    common(p)
    p.add_argument("--kind", choices=["electric", "magnetic", "impedance", "modified"])
    p.add_argument("--lam", type=float, help="impedance parameter for impedance/modified")

    p = sub.add_parser("tev-scan", help="transmission-eigenvalue indicator scan over k")
    common(p)
    p.add_argument("--zcount", dest="z_count", type=int)
    p.add_argument("--zradius", dest="z_radius", type=float)
    p.add_argument("--zseed", dest="z_seed", type=int)
    p.add_argument("--herglotz", action="store_const", const=True)

    p = sub.add_parser("stekloff-scan", help="Stekloff indicator scan over lambda")
    common(p)
    p.add_argument("--zcount", dest="z_count", type=int)
    p.add_argument("--zradius", dest="z_radius", type=float)
    p.add_argument("--zseed", dest="z_seed", type=int)

    p = sub.add_parser("phase-track", help="magnetic eigenvalue phases over a k sweep")
    common(p)
    p.add_argument("--floor", type=float, help="relative eigenvalue floor")

    p = sub.add_parser("oracle", help="analytic eigenvalue references")
    p.add_argument("which", choices=["tev", "stekloff"])
    common(p)

    p = sub.add_parser("estimate-shift", help="first-order Stekloff shifts for an index bump")
    common(p)
    p.add_argument("--delta-n", dest="delta_n", help="index perturbation (complex ok)")
    p.add_argument("--rc", type=float, help="perturbation region radius")

    p = sub.add_parser("index-bound", help="constant-index bound from a measured first eigenvalue")
    common(p)
    p.add_argument("--k1", type=float, help="measured first transmission eigenvalue")
    p.add_argument("--n-lo", dest="n_lo", type=float)
    p.add_argument("--n-hi", dest="n_hi", type=float)
    return ap


def parse_config(argv=None):
    """Merge CLI flags over the optional config file over defaults."""
    ns = _build_parser().parse_args(argv)
    defaults = {f.name: f.default for f in fields(RunConfig) if f.name not in ("command", "which")}
    merged = dict(defaults)
    if ns.config:
        with open(ns.config, "r") as fh:
            text = fh.read()
        try:
            file_cfg = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"malformed JSON in {ns.config!r} at byte offset {e.pos}: {e.msg}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        for key in file_cfg:
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r}")
        merged.update(file_cfg)
    for key in defaults:
        flag_val = getattr(ns, key, None)
        if flag_val is not None:
            merged[key] = flag_val

    if isinstance(merged["alpha"], str) and merged["alpha"] != "auto":
        try:
            merged["alpha"] = float(merged["alpha"])
        except ValueError:
            raise ConfigError(f"alpha must be a number or 'auto', got {merged['alpha']!r}") from None
    if not isinstance(merged["alpha"], str) and not merged["alpha"] > 0:
        raise ConfigError("alpha must be positive")
    if isinstance(merged["delta_n"], str):
        try:
            merged["delta_n"] = complex(merged["delta_n"])
        except ValueError:
            raise ConfigError(f"delta_n must parse as a complex number, got {merged['delta_n']!r}") from None
    elif isinstance(merged["delta_n"], list):
        merged["delta_n"] = complex(*merged["delta_n"])
    else:
        merged["delta_n"] = complex(merged["delta_n"])
    if merged["grid"] is not None:
        merged["grid"] = _parse_grid(merged["grid"])
    if merged["rect"] is not None:
        merged["rect"] = _parse_rect(merged["rect"])
    _parse_quad(merged["quad"])  # validate early
    merged["scene"] = _load_scene(merged["scene"])
    cfg = RunConfig(command=ns.command, which=getattr(ns, "which", None), **merged)
    if cfg.noise < 0:
        raise ConfigError("noise level must be >= 0")
    return cfg


def _quad_of(cfg):
    kind, order = _parse_quad(cfg.quad)
    return ffop.build_quadrature(kind, order)


def _config_line(cfg):
    return "# config " + json.dumps(cfg.to_json_dict(), sort_keys=True)


def export_csv(table, path):
    """Write (header, rows, comments) as CSV text (see ffop.csv_text)."""
    header, rows, comments = table
    _write_text(ffop.csv_text(header, rows, comments), path)


def _write_text(text, path):
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as e:
        raise OSError(f"cannot write {path!r}: {e}") from e


def _scene_for_operator(cfg, kind):
    if kind in ("electric", "magnetic"):
        return cfg.scene
    ball = ImpedanceBall(R=cfg.B, lam=complex(cfg.lam), s_kind=cfg.s_kind)
    if kind == "impedance":
        return ball
    return (cfg.scene, ball)


def _run_ffop_eigs(cfg):
    quad = _quad_of(cfg)
    kind = cfg.kind.upper()
    A = ffop.assemble(kind, _scene_for_operator(cfg, cfg.kind), cfg.k, quad)
    if cfg.noise > 0:
        A = ffop.add_noise(A, cfg.noise, cfg.seed)
    es = spectra.eig(A)
    try:
        res = spectra.circle_residual(es)
    except ValueError:
        res = np.full(es.values.size, np.nan)
    rows = [[v.real, v.imag, abs(v), r] for v, r in zip(es.values, res)]
    path = os.path.join(cfg.out, "ffop_eigs.csv")
    export_csv((["re", "im", "abs", "circle_residual"], rows, [_config_line(cfg)]), path)
    return [path]


def _zs_of(cfg):
    return scan.ZSampling(count=cfg.z_count, r_z=cfg.z_radius, seed=cfg.z_seed)


def _run_tev_scan(cfg):
    quad = _quad_of(cfg)
    grid = cfg.grid or _GRID_DEFAULTS["tev-scan"]
    result = scan.tev_scan(
        cfg.scene, tuple(grid), quad, _zs_of(cfg), scan.TikhonovConfig(cfg.alpha),
        noise_eps=cfg.noise, noise_seed=cfg.seed, herglotz=cfg.herglotz,
    )
    text = _config_line(cfg) + "\n" + scan.result_to_csv(result)
    path = os.path.join(cfg.out, "tev_scan.csv")
    _write_text(text, path)
    return [path]


def _run_stekloff_scan(cfg):
    quad = _quad_of(cfg)
    if cfg.rect:
        re_lo, re_hi, im_lo, im_hi, n = cfg.rect
        re_ax = np.linspace(re_lo, re_hi, int(n))
        im_ax = np.linspace(im_lo, im_hi, int(n))
        lam_grid = re_ax[None, :] + 1j * im_ax[:, None]
    else:
        lo, hi, step = cfg.grid or _GRID_DEFAULTS["stekloff-scan"]
        lam_grid = spectra.grid_points(lo, hi, step)
    result = scan.stekloff_scan(
        cfg.scene, cfg.B, cfg.k, lam_grid, quad, _zs_of(cfg),
        scan.TikhonovConfig(cfg.alpha), s_kind=cfg.s_kind,
        noise_eps=cfg.noise, noise_seed=cfg.seed,
    )
    if cfg.rect:
        doc = json.loads(scan.result_to_json(result))
        doc["config"] = cfg.to_json_dict()
        path = os.path.join(cfg.out, "stekloff_scan.json")
        _write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", path)
    else:
        text = _config_line(cfg) + "\n" + scan.result_to_csv(result)
        path = os.path.join(cfg.out, "stekloff_scan.csv")
        _write_text(text, path)
    return [path]


def _run_phase_track(cfg):
    quad = _quad_of(cfg)
    grid = cfg.grid or _GRID_DEFAULTS["phase-track"]
    track = spectra.phase_track(cfg.scene, tuple(grid), quad, floor=cfg.floor)
    text = _config_line(cfg) + "\n" + spectra.phase_track_to_csv(track)
    path = os.path.join(cfg.out, "phase_track.csv")
    _write_text(text, path)
    return [path]


def _run_oracle(cfg):
    if cfg.which == "tev":
        lo, hi, step = cfg.grid or _GRID_DEFAULTS["oracle"]
        roots = oracles.tev_roots(cfg.scene, cfg.lmax, (lo, hi), step)
        rows = [
            [fam, l, kstar, oracles.tev_min_singular(cfg.scene, l, fam, kstar)]
            for kstar, l, fam in roots
        ]
        path = os.path.join(cfg.out, "oracle_tev.csv")
        export_csv((["family", "l", "value", "residual"], rows, [_config_line(cfg)]), path)
    else:
        modes = oracles.stekloff_eigs_ball(cfg.scene, cfg.B, cfg.k, cfg.lmax, s_kind=cfg.s_kind)
        rows = [
            [m.mode.family, m.mode.l, m.lam.real, m.lam.imag, m.boundary_residual()]
            for m in modes
        ]
        path = os.path.join(cfg.out, "oracle_stekloff.csv")
        export_csv((["family", "l", "re", "im", "residual"], rows, [_config_line(cfg)]), path)
    return [path]


def _run_estimate_shift(cfg):
    modes = oracles.stekloff_eigs_ball(cfg.scene, cfg.B, cfg.k, cfg.lmax, s_kind=cfg.s_kind)
    r_c = cfg.rc if cfg.rc is not None else cfg.scene.radius
    rows = []
    for m in modes:
        shift = oracles.shift_estimate(m, cfg.delta_n, r_c)
        rows.append([m.mode.family, m.mode.l, m.lam.real, m.lam.imag, shift.real, shift.imag])
    path = os.path.join(cfg.out, "shift_estimate.csv")
    export_csv(
        (["family", "l", "lambda_re", "lambda_im", "shift_re", "shift_im"], rows,
         [_config_line(cfg)]),
        path,
    )
    return [path]


def _run_index_bound(cfg):
    if cfg.n_lo is None or cfg.n_hi is None:
        raise ConfigError("index-bound needs --n-lo and --n-hi")
    k1 = cfg.k1
    if k1 is None:
        k1 = oracles.first_tev(cfg.scene, l_max=cfg.lmax)[0]
    n_est = oracles.index_bound_from_tev(k1, cfg.scene.radius, (cfg.n_lo, cfg.n_hi),
                                         l_max=cfg.lmax)
    rows = [[n_est, k1, cfg.scene.radius, cfg.n_lo, cfg.n_hi]]
    path = os.path.join(cfg.out, "index_bound.csv")
    export_csv((["n_est", "k1", "a", "n_lo", "n_hi"], rows, [_config_line(cfg)]), path)
    return [path]


_RUNNERS = {
    "ffop-eigs": _run_ffop_eigs,
    "tev-scan": _run_tev_scan,
    "stekloff-scan": _run_stekloff_scan,
    "phase-track": _run_phase_track,
    "oracle": _run_oracle,
    "estimate-shift": _run_estimate_shift,
    "index-bound": _run_index_bound,
}


def run(cfg):
    """Execute a resolved configuration; returns the artifact paths."""
    os.makedirs(cfg.out, exist_ok=True)
    return _RUNNERS[cfg.command](cfg)


def main(argv=None):
    try:
        cfg = parse_config(argv)
    except ConfigError as e:
        print(f"scatsig: configuration error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"scatsig: {e}", file=sys.stderr)
        return 4
    try:
        paths = run(cfg)
    except ConfigError as e:
        print(f"scatsig: configuration error: {e}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as e:
        print(f"scatsig: numeric failure: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
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
