"""Run configuration: flat key/value text with section headers.

The format is INI-style, deliberately minimal and diff-able; runs are
fully deterministic functions of the file content.  The parser is the
schema: a section or key that the run does not read is a hard error, so
neither a typo nor a key meant for another setting can silently leave a
run unchanged.  `c` under condition A is rejected, as is `inner_radius`
on a ball (the message names the condition or kind that decides).  A
value that is no number (or no integer, where one is read) is rejected
by section and key, as is a [domain] or [boundary] number that is a nan
or an inf, a [boundary] data key with no number, and a wave vector,
matrix row, phases or offset of the wrong length.  A section or key
given twice and a line before the first section header are rejected by
file and line; a '%' is plain text, and a [boundary] m below 1 is
rejected before any term is read.  Of the five boundary families,
trigonometric data becomes a `TrigMap`; constant, linear, polynomial and
lawson_osserman_scaled data become `PolynomialMap` term lists that keep
their family name, each with its jet table built once.  Either is a map
of `n`, `m`, `family` and `jets`.  [density] sets only the state, its
time gap and its offset; the spacing, half-width and cutoff are constants
of the density mode.

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

from .boundary import (PolynomialMap, TrigMap, constant_map,
                       lawson_osserman_map, linear_map)
from .domains import DomainSpec, exterior_margin

MODES = ("solve", "check_hypothesis", "density_oracle", "exterior")

class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _floats(sec, key: str, text: str | None = None) -> list:
    """The numbers of sec[key] (none if it is absent), or of text (a part
    of it), split at commas and semicolons; a token that is no number is
    an error naming the key."""
    text = sec.get(key, "") if text is None else text
    try:
        return [float(tok) for tok in text.replace(";", ",").split(",")
                if tok.strip()]
    except ValueError:
        raise ConfigError(f"[{sec.name}] {key} must hold numbers, got "
                          f"{text.strip()!r}") from None


def _positive_finite(x: float) -> bool:
    return x > 0.0 and math.isfinite(x)


def _matrix(sec, key: str) -> list:
    return [_floats(sec, key, row) for row in sec[key].split(";")
            if row.strip()]


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
    condition: str = "A"
    delta: float = None
    c: float = None
    radii: list = field(default_factory=list)
    probe_radii: list = field(default_factory=list)
    density: dict = field(default_factory=dict)


class _Parser(configparser.ConfigParser):
    """Records each (section, key) looked up: every getter, sec[key] and
    fallback= read goes through get; `key in sec` does not."""

    def __init__(self):
        # no interpolation: a '%' in a value is text, not a syntax error
        super().__init__(inline_comment_prefixes=("#",), interpolation=None)
        self.looked_up = set()

    def get(self, section, option, **kwargs):
        self.looked_up.add((section, self.optionxform(option)))
        return super().get(section, option, **kwargs)

    def getfloat(self, section, option, **kwargs):
        return self._number(super().getfloat, "a number", section, option,
                            **kwargs)

    def getint(self, section, option, **kwargs):
        return self._number(super().getint, "an integer", section, option,
                            **kwargs)

    def _number(self, read, what, section, option, **kwargs):
        """read(section, option), with a value it cannot convert reported
        by section and key."""
        try:
            return read(section, option, **kwargs)
        except ValueError:
            raise ConfigError(f"[{section}] {option} must be {what}, got "
                              f"{self.get(section, option)!r}") from None


def _check_looked_up(cp: _Parser, mode: str, selectors: dict) -> None:
    """A given section or key that the run never looked up is an error;
    selectors names, per section, the setting that decides its keys."""
    read = {section for section, _ in cp.looked_up}
    for section in cp.sections():
        if section not in read:
            raise ConfigError(f"unknown section [{section}] "
                              f"(mode {mode!r} does not read it)")
        for key in cp[section]:
            if (section, key) not in cp.looked_up:
                why = (f" ({selectors[section]} does not read it)"
                       if section in selectors else "")
                raise ConfigError(f"unknown key {key!r} in section "
                                  f"[{section}]{why}")


def _radius(sec, key: str, kind: str) -> float:
    if key not in sec:
        raise ConfigError(f"{kind} domain needs {key!r}")
    return _finite(sec, key, [sec.getfloat(key)])[0]


def _parse_domain(cp, truncation: float | None = None) -> DomainSpec:
    """Domain of [domain]; an exterior one is truncated at truncation
    when given (exterior mode), else at its own truncation_radius."""
    if "domain" not in cp:
        raise ConfigError("missing [domain] section")
    sec = cp["domain"]
    kind = sec.get("kind")
    dim = sec.getint("dim", fallback=2)
    if kind == "box":
        if "edges" not in sec:
            raise ConfigError("box domain needs 'edges'")
        edges = _finite(sec, "edges", _floats(sec, "edges"))
        if "dim" in sec and dim != len(edges):
            raise ConfigError(f"box domain has dim = {dim} but "
                              f"{len(edges)} edges")
        lo = _finite(sec, "lo", _floats(sec, "lo")) if "lo" in sec else None
        if lo is not None and len(lo) != len(edges):
            raise ConfigError(f"[domain] lo must hold one number per edge "
                              f"({len(edges)}), got {len(lo)}")
        return DomainSpec.box(edges, lo=lo)
    if kind == "ball":
        return DomainSpec.ball(_radius(sec, "radius", kind), dim)
    if kind == "annulus":
        return DomainSpec.annulus(_radius(sec, "inner_radius", kind),
                                  _radius(sec, "radius", kind), dim)
    if kind == "exterior":
        if truncation is None:
            truncation = _radius(sec, "truncation_radius", kind)
        return DomainSpec.exterior(_radius(sec, "inner_radius", kind),
                                   truncation, dim)
    raise ConfigError(f"unknown domain kind {kind!r}")


def _parse_boundary(cp, dim: int):
    """Boundary map of [boundary]; m must match its data."""
    if "boundary" not in cp:
        raise ConfigError("missing [boundary] section")
    sec = cp["boundary"]
    if sec.getint("m", fallback=1) < 1:
        raise ConfigError(f"[boundary] m must be at least 1, got {sec['m']}")
    psi = _boundary_map(sec, dim)
    if sec.getint("m", fallback=psi.m) != psi.m:
        raise ConfigError(f"[boundary] m = {sec['m']} but the data has "
                          f"{psi.m} components")
    return psi


def _required(sec, key: str, family: str) -> str:
    if key not in sec:
        raise ConfigError(f"{family} family needs {key!r}")
    return sec[key]


def _finite(sec, key: str, numbers: list) -> list:
    """numbers, if there are some and all are finite; else an error that
    names the section and key (a nan or inf datum would surface as a LAPACK
    failure, no data as a numpy reduction error)."""
    if not numbers or not all(map(math.isfinite, numbers)):
        raise ConfigError(f"[{sec.name}] {key} must hold finite numbers, "
                          f"got {numbers}")
    return numbers


def _data(sec, key: str, family: str) -> list:
    _required(sec, key, family)
    return _finite(sec, key, _floats(sec, key))


def _sized(sec, key: str, numbers: list, size: int, per: str) -> list:
    """numbers, if there are size of them; else an error naming the key."""
    if len(numbers) != size:
        raise ConfigError(f"[{sec.name}] {key} must hold one number per "
                          f"{per} ({size}), got {numbers}")
    return numbers


def _boundary_map(sec, dim: int):
    """The data of [boundary]: a TrigMap, or a PolynomialMap term list
    labelled with its family."""
    family = sec.get("family")
    if family == "constant":
        return constant_map(_data(sec, "values", family), dim)
    if family == "linear":
        _required(sec, "matrix", family)
        rows = _matrix(sec, "matrix")
        _finite(sec, "matrix", [x for row in rows for x in row])
        for row in rows:
            _sized(sec, "matrix", row, dim, "axis in every row")
        offset = _sized(sec, "offset", _data(sec, "offset", family),
                        len(rows), "component") if "offset" in sec else None
        return linear_map(rows, offset)
    if family == "polynomial":
        terms = []
        for A in range(1, sec.getint("m", fallback=1) + 1):
            coeffs, expos = [], []
            key = f"poly_{A}"
            for term in _required(sec, key, family).split(";"):
                toks = _floats(sec, key, term)
                if not toks:
                    continue
                exps = toks[1:]
                if len(exps) != dim or not all(e.is_integer() for e in exps) \
                        or min(exps) < 0 or sum(exps) > 4:
                    raise ConfigError(
                        f"poly_{A} term {term.strip()!r} must be a coefficient "
                        f"and {dim} integral exponents, none negative, of "
                        f"total degree <= 4")
                coeffs.append(toks[0])
                expos.append([int(e) for e in exps])
            terms.append((_finite(sec, key, coeffs), expos))
        return PolynomialMap(terms, dim)
    if family == "trigonometric":
        amps = _data(sec, "amplitudes", family)
        waves = [_sized(sec, f"wave_vector_{A}",
                        _data(sec, f"wave_vector_{A}", family), dim, "axis")
                 for A in range(1, len(amps) + 1)]
        phases = _sized(sec, "phases", _data(sec, "phases", family),
                        len(amps), "component") if "phases" in sec else None
        return TrigMap(amps, waves, phases)
    if family == "lawson_osserman_scaled":
        _required(sec, "scale", family)
        return lawson_osserman_map(_finite(sec, "scale",
                                           [sec.getfloat("scale")])[0])
    raise ConfigError(f"unknown boundary family {family!r}")


def load_config(path: str, mode: str | None = None) -> RunConfig:
    """Parse and validate a run configuration file.

    mode, when given (from the command line), must agree with the file's
    [run] mode if both are present.
    """
    cp = _Parser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        # a repeated section or key, or a line outside any section; the
        # message names the file and line, spread over several lines
        raise ConfigError(" ".join(str(exc).split())) from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")

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
        state = sec.get("state")
        plane = state in ("plane", "offset_plane", "half_plane")
        if not plane and state != "sphere_cap":
            raise ConfigError(f"unknown density state {state!r}")

        def read(key, default, used):   # an unused key keeps its default
            return sec.getfloat(key, fallback=default) if used else default
        cfg.density = {
            "state": state,
            "time_gap": read("time_gap", 0.005, plane),
            "offset": read("offset", 0.0, state == "offset_plane"),
        }
        if not _positive_finite(cfg.density["time_gap"]):
            raise ConfigError(f"[density] time_gap must be a finite positive "
                              f"number, got {cfg.density['time_gap']}")
        if not math.isfinite(cfg.density["offset"]):
            raise ConfigError(f"[density] offset must be finite, got "
                              f"{cfg.density['offset']}")
        _check_looked_up(cp, mode, {"density": f"state {state!r}"})
        return cfg

    truncation = None
    if mode == "exterior":
        if "exterior" not in cp:
            raise ConfigError("exterior mode needs an [exterior] section")
        sec = cp["exterior"]
        cfg.radii = _floats(sec, "radii")
        cfg.probe_radii = _floats(sec, "probe_radii")
        if not all(map(math.isfinite, cfg.radii + cfg.probe_radii)):
            raise ConfigError(f"[exterior] radii and probe_radii must be "
                              f"finite, got {cfg.radii} and {cfg.probe_radii}")
        if len(cfg.radii) < 2 or any(b <= a for a, b in zip(cfg.radii,
                                                            cfg.radii[1:])):
            raise ConfigError("radius schedule must be >= 2 strictly "
                              "increasing values")
        truncation = cfg.radii[-1]
    cfg.domain = _parse_domain(cp, truncation)
    cfg.psi = _parse_boundary(cp, cfg.domain.dim)
    if cfg.psi.n != cfg.domain.dim:
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
        if not 0.0 < cfg.cfl < 1.0:
            raise ConfigError(f"cfl must lie in (0, 1), got {cfg.cfl}")
        if not cfg.tol_residual > 0.0:
            raise ConfigError(f"tol_residual must be positive, got "
                              f"{cfg.tol_residual}")
        if cfg.monitor_every < 1:
            raise ConfigError(f"monitor_every must be >= 1, got {cfg.monitor_every}")
        if cfg.max_steps < 0:
            raise ConfigError(f"max_steps must be >= 0, got {cfg.max_steps}")

    if "hypothesis" in cp:
        sec = cp["hypothesis"]
        cfg.condition = sec.get("condition", fallback="A").upper()
        cfg.delta = sec.getfloat("delta", fallback=None)
    if cfg.condition not in ("A", "B"):
        raise ConfigError(f"condition must be A or B, got {cfg.condition!r}")
    if cfg.delta is None:
        raise ConfigError("missing hypothesis delta")
    if cfg.condition == "B":
        cfg.c = cp.getfloat("hypothesis", "c", fallback=None)
        if cfg.c is None:
            raise ConfigError("condition B needs the gap constant c")

    if mode == "exterior":
        if cfg.domain.kind != "exterior":
            raise ConfigError("exterior mode needs an exterior domain")
        if not cfg.probe_radii:
            raise ConfigError("exterior mode needs probe_radii")
        if cfg.condition != "B":
            raise ConfigError("exterior mode uses condition B")
        r_in = cfg.domain.inner_radius
        r0 = exterior_margin(r_in)
        if cfg.radii[0] <= r0:
            raise ConfigError(
                f"first shell radius {cfg.radii[0]} violates the margin "
                f"requirement r > {r0}")
        if max(cfg.probe_radii) >= cfg.radii[-1] \
                or min(cfg.probe_radii) <= r_in:
            raise ConfigError("probe radii must lie strictly inside the "
                              "largest shell")
    _check_looked_up(cp, mode, {
        "domain": f"kind {cfg.domain.kind!r}"
                  + (" in exterior mode" if mode == "exterior" else ""),
        "boundary": f"family {cfg.psi.family!r} with m = {cfg.psi.m}",
        "hypothesis": f"condition {cfg.condition!r}"})
    return cfg
