"""Run configuration: flat key/value text with section headers.

The format is INI-style, deliberately minimal and diff-able; runs are
fully deterministic functions of the file content.  Unknown sections or
keys are hard errors so that typos cannot silently change a run.

Example::

    [run]
    mode = solve

    [domain]
    kind = ball
    dim = 2
    radius = 1.0

    [boundary]
    family = trigonometric
    m = 2
    amplitudes = 0.01, 0.005
    wave_vector_1 = 2.0, 1.0
    wave_vector_2 = 0.0, 2.0
    phases = 0.0, 0.5

    [grid]
    h = 0.03125

    [flow]
    cfl = 0.9
    tol_residual = 1e-6
    max_steps = 200000
    monitor_every = 50

    [hypothesis]
    condition = A
    delta = 0.1
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .boundary import (ConstantMap, LawsonOssermanMap, LinearMap, PolynomialMap,
                       TrigMap)
from .domains import DomainSpec

MODES = ("solve", "check_hypothesis", "density_oracle", "exterior")

_SCHEMA = {
    "run": {"mode", "out"},
    "domain": {"kind", "dim", "edges", "lo", "radius", "inner_radius",
               "truncation_radius"},
    "boundary": {"family", "m", "values", "matrix", "offset", "amplitudes",
                 "phases", "scale"},     # wave_vector_<A>, poly_<A> checked apart
    "grid": {"h"},
    "flow": {"cfl", "tol_residual", "max_steps", "monitor_every",
             "lambda_guard"},
    "hypothesis": {"condition", "delta", "c"},
    "exterior": {"radii", "probe_radii"},
    "density": {"state", "h", "halfwidth", "time_gap", "cutoff", "offset"},
}


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _floats(text: str) -> list:
    return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _positive_finite(x: float) -> bool:
    return x > 0.0 and math.isfinite(x)


def _matrix(text: str) -> list:
    return [[float(tok) for tok in row.split(",") if tok.strip()]
            for row in text.split(";") if row.strip()]


@dataclass
class RunConfig:
    mode: str
    out_dir: str = "."
    domain: DomainSpec = None
    psi: object = None
    h: float = None
    cfl: float = 0.9
    tol_residual: float = 1e-6
    max_steps: int = 200_000
    monitor_every: int = 50
    lambda_guard: float = 10.0
    condition: str = "A"
    delta: float = None
    c: float = None
    radii: list = field(default_factory=list)
    probe_radii: list = field(default_factory=list)
    density: dict = field(default_factory=dict)


def _check_schema(cp: configparser.ConfigParser) -> None:
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key in _SCHEMA[section]:
                continue
            if section == "boundary" and (key.startswith("wave_vector_")
                                          or key.startswith("poly_")):
                continue
            raise ConfigError(f"unknown key {key!r} in section [{section}]")


def _parse_domain(cp, default_truncation: float | None = None) -> DomainSpec:
    if "domain" not in cp:
        raise ConfigError("missing [domain] section")
    sec = cp["domain"]
    kind = sec.get("kind")
    dim = sec.getint("dim", fallback=2)
    if kind == "box":
        if "edges" not in sec:
            raise ConfigError("box domain needs 'edges'")
        edges = _floats(sec["edges"])
        if "dim" in sec and dim != len(edges):
            raise ConfigError(f"box domain has dim = {dim} but "
                              f"{len(edges)} edges")
        lo = _floats(sec["lo"]) if "lo" in sec else None
        return DomainSpec.box(edges, lo=lo)
    if kind == "ball":
        return DomainSpec.ball(sec.getfloat("radius"), dim)
    if kind == "annulus":
        return DomainSpec.annulus(sec.getfloat("inner_radius"),
                                  sec.getfloat("radius"), dim)
    if kind == "exterior":
        trunc = sec.getfloat("truncation_radius", fallback=default_truncation)
        if trunc is None:
            raise ConfigError("exterior domain needs truncation_radius "
                              "(or an [exterior] radius schedule)")
        return DomainSpec.exterior(sec.getfloat("inner_radius"), trunc, dim)
    raise ConfigError(f"unknown domain kind {kind!r}")


def _parse_boundary(cp, dim: int):
    """Boundary map of [boundary]; m and the indexed keys must match its data."""
    if "boundary" not in cp:
        raise ConfigError("missing [boundary] section")
    sec = cp["boundary"]
    psi = _boundary_map(sec, dim)
    if sec.getint("m", fallback=psi.m) != psi.m:
        raise ConfigError(f"[boundary] m = {sec['m']} but the data has "
                          f"{psi.m} components")
    prefix = {"trigonometric": "wave_vector_", "polynomial": "poly_"}
    read = {prefix.get(psi.family, "") + str(A) for A in range(1, psi.m + 1)}
    for key in sec:
        if key.startswith(tuple(prefix.values())) and key not in read:
            raise ConfigError(f"unknown key {key!r} in section [boundary] "
                              f"(the data has {psi.m} components)")
    return psi


def _boundary_map(sec, dim: int):
    family = sec.get("family")
    m = sec.getint("m", fallback=1)
    if family == "constant":
        return ConstantMap(_floats(sec["values"]), dim)
    if family == "linear":
        offset = _floats(sec["offset"]) if "offset" in sec else None
        return LinearMap(_matrix(sec["matrix"]), offset)
    if family == "polynomial":
        terms = []
        for A in range(1, m + 1):
            key = f"poly_{A}"
            if key not in sec:
                raise ConfigError(f"polynomial family needs {key}")
            coeffs, expos = [], []
            for term in sec[key].split(";"):
                toks = _floats(term)
                if not toks:
                    continue
                coeffs.append(toks[0])
                expos.append([int(e) for e in toks[1:1 + dim]])
            terms.append((coeffs, expos))
        return PolynomialMap(terms, dim)
    if family == "trigonometric":
        amps = _floats(sec["amplitudes"])
        waves = []
        for A in range(1, len(amps) + 1):
            key = f"wave_vector_{A}"
            if key not in sec:
                raise ConfigError(f"trigonometric family needs {key}")
            waves.append(_floats(sec[key]))
        phases = _floats(sec["phases"]) if "phases" in sec else None
        return TrigMap(amps, waves, phases)
    if family == "lawson_osserman_scaled":
        return LawsonOssermanMap(sec.getfloat("scale"))
    raise ConfigError(f"unknown boundary family {family!r}")


def load_config(path: str, mode: str | None = None) -> RunConfig:
    """Parse and validate a run configuration file.

    mode, when given (from the command line), must agree with the file's
    [run] mode if both are present.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    _check_schema(cp)

    file_mode = cp.get("run", "mode", fallback=None)
    if mode is None:
        mode = file_mode
    elif file_mode is not None and file_mode != mode:
        raise ConfigError(
            f"config file declares mode {file_mode!r} but {mode!r} was requested")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

    cfg = RunConfig(mode=mode)
    cfg.out_dir = cp.get("run", "out", fallback=".")

    if mode == "density_oracle":
        if "density" not in cp:
            raise ConfigError("density_oracle mode needs a [density] section")
        sec = cp["density"]
        cfg.density = {
            "state": sec.get("state"),
            "h": sec.getfloat("h", fallback=0.025),
            "halfwidth": sec.getfloat("halfwidth", fallback=1.3),
            "time_gap": sec.getfloat("time_gap", fallback=0.005),
            "cutoff": sec.getfloat("cutoff", fallback=1.0),
            "offset": sec.getfloat("offset", fallback=0.0),
        }
        if cfg.density["state"] not in ("plane", "offset_plane", "half_plane",
                                        "sphere_cap"):
            raise ConfigError(f"unknown density state {cfg.density['state']!r}")
        for key in ("h", "halfwidth", "time_gap", "cutoff"):
            if not _positive_finite(cfg.density[key]):
                raise ConfigError(f"[density] {key} must be a finite positive "
                                  f"number, got {cfg.density[key]}")
        if not math.isfinite(cfg.density["offset"]):
            raise ConfigError(f"[density] offset must be finite, got "
                              f"{cfg.density['offset']}")
        return cfg

    default_trunc = None
    if mode == "exterior" and "exterior" in cp:
        sec = cp["exterior"]
        cfg.radii = _floats(sec.get("radii", ""))
        cfg.probe_radii = _floats(sec.get("probe_radii", ""))
        if not all(map(math.isfinite, cfg.radii + cfg.probe_radii)):
            raise ConfigError(f"[exterior] radii and probe_radii must be "
                              f"finite, got {cfg.radii} and {cfg.probe_radii}")
        if cfg.radii:
            default_trunc = max(cfg.radii)
    cfg.domain = _parse_domain(cp, default_truncation=default_trunc)
    cfg.psi = _parse_boundary(cp, cfg.domain.dim)
    if getattr(cfg.psi, "n", cfg.domain.dim) != cfg.domain.dim:
        raise ConfigError("boundary map dimension does not match the domain")
    if "grid" not in cp:
        raise ConfigError("missing [grid] section")
    cfg.h = cp["grid"].getfloat("h")
    if cfg.h is None or not _positive_finite(cfg.h):
        raise ConfigError(f"grid h must be a finite positive number, got {cfg.h}")

    if "flow" in cp:
        sec = cp["flow"]
        cfg.cfl = sec.getfloat("cfl", fallback=cfg.cfl)
        cfg.tol_residual = sec.getfloat("tol_residual", fallback=cfg.tol_residual)
        cfg.max_steps = sec.getint("max_steps", fallback=cfg.max_steps)
        cfg.monitor_every = sec.getint("monitor_every", fallback=cfg.monitor_every)
        cfg.lambda_guard = sec.getfloat("lambda_guard", fallback=cfg.lambda_guard)
        if not 0.0 < cfg.cfl < 1.0:
            raise ConfigError(f"cfl must lie in (0, 1), got {cfg.cfl}")
        if not cfg.tol_residual > 0.0:
            raise ConfigError(f"tol_residual must be positive, got "
                              f"{cfg.tol_residual}")
        if cfg.monitor_every < 1:
            raise ConfigError(f"monitor_every must be >= 1, got {cfg.monitor_every}")
        if cfg.max_steps < 0:
            raise ConfigError(f"max_steps must be >= 0, got {cfg.max_steps}")
        if not _positive_finite(cfg.lambda_guard):
            raise ConfigError(f"lambda_guard must be a finite positive number, "
                              f"got {cfg.lambda_guard}")

    if "hypothesis" in cp:
        sec = cp["hypothesis"]
        cfg.condition = sec.get("condition", fallback="A").upper()
        cfg.delta = sec.getfloat("delta", fallback=None)
        cfg.c = sec.getfloat("c", fallback=None)
    if cfg.condition not in ("A", "B"):
        raise ConfigError(f"condition must be A or B, got {cfg.condition!r}")
    if cfg.delta is None and mode in ("solve", "check_hypothesis", "exterior"):
        raise ConfigError("missing hypothesis delta")
    if cfg.condition == "B" and cfg.c is None:
        raise ConfigError("condition B needs the gap constant c")

    if mode == "exterior":
        if cfg.domain.kind != "exterior":
            raise ConfigError("exterior mode needs an exterior domain")
        if "exterior" not in cp:
            raise ConfigError("exterior mode needs an [exterior] section")
        if len(cfg.radii) < 2 or any(b <= a for a, b in zip(cfg.radii,
                                                            cfg.radii[1:])):
            raise ConfigError("radius schedule must be >= 2 strictly "
                              "increasing values")
        if not cfg.probe_radii:
            raise ConfigError("exterior mode needs probe_radii")
        if cfg.condition != "B":
            raise ConfigError("exterior mode uses condition B")
        r_in = cfg.domain.inner_radius
        # shell construction margin: r/2 > diam(boundary) + 2 eta0 + d0
        r0 = 2.0 * (2.0 * r_in + 2.0 * (r_in / 2.0) + r_in)
        if cfg.radii[0] <= r0:
            raise ConfigError(
                f"first shell radius {cfg.radii[0]} violates the margin "
                f"requirement r > {r0}")
        if max(cfg.probe_radii) >= cfg.radii[-1] \
                or min(cfg.probe_radii) <= r_in:
            raise ConfigError("probe radii must lie strictly inside the "
                              "largest shell")
    return cfg
