"""Seeded configuration files for the three benchmark workloads.

Seed 0 gives the acceptance configurations verbatim: the criterion-3 ball
solve, the criterion-7 exterior shells, and the linear-data checker case.
Any other seed turns every wave vector (or every row of the linear matrix)
by one seeded whole-degree angle and redraws the trigonometric phases.
Amplitudes, |k| and the singular values of the matrix stay fixed, so the
hypothesis margins and the step counts stay comparable across seeds.
Angles are whole degrees so that the checker's left-hand side at the
commit that defined the benchmark can be tabulated for every seed
(reference/check-linear-lhs.json).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

NAMES = ("ball-solve", "exterior-shells", "check-linear")


@dataclass
class Workload:
    name: str
    seed: int
    mode: str               # mssflow run mode
    text: str               # the configuration file handed to the program
    expected_outcome: str   # outcome field of the stdout summary line
    shells: int             # solved domains whose invariants are checked
    tol_residual: float
    angle_deg: int


def _rotate(vec, angle_deg: int) -> list:
    if angle_deg == 0:
        return list(vec)
    a = math.radians(angle_deg)
    c, s = math.cos(a), math.sin(a)
    return [c * vec[0] - s * vec[1], s * vec[0] + c * vec[1]]


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _trig_boundary(amplitudes, wave_vectors, phases, angle_deg) -> list:
    lines = ["[boundary]", "family = trigonometric", f"m = {len(amplitudes)}",
             f"amplitudes = {_floats(amplitudes)}"]
    for A, k in enumerate(wave_vectors, start=1):
        lines.append(f"wave_vector_{A} = {_floats(_rotate(k, angle_deg))}")
    if phases is not None:
        lines.append(f"phases = {_floats(phases)}")
    return lines


_DISK = ["[domain]", "kind = ball", "dim = 2", "radius = 1.0", "",
         "[grid]", "h = 0.03125", ""]

_BALL_FLOW = ["[flow]", "cfl = 0.9", "tol_residual = 1e-6",
              "max_steps = 300000", "monitor_every = 25", "",
              "[hypothesis]", "condition = A", "delta = 0.1"]


def generate(name: str, seed: int) -> Workload:
    """The configuration of workload `name` for `seed`."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    rng = random.Random(seed)
    angle = 0 if seed == 0 else rng.randrange(360)
    m = {"ball-solve": 2, "exterior-shells": 1, "check-linear": 0}[name]
    phases = None if seed == 0 else \
        [rng.uniform(0.0, 2.0 * math.pi) for _ in range(m)]
    mode, outcome, shells, tol = {
        "ball-solve": ("solve", "Converged", 1, 1e-6),
        "exterior-shells": ("exterior", "Converged", 3, 1e-7),
        "check-linear": ("check_hypothesis", "HypothesisPass", 0, 1e-6),
    }[name]
    return Workload(name, seed, mode, config_text(name, angle, phases),
                    outcome, shells, tol, angle)


def config_text(name: str, angle_deg: int, phases=None) -> str:
    """Configuration file text; phases None keeps the seed-0 phases."""
    if name == "ball-solve":
        lines = (["[run]", "mode = solve", ""] + _DISK
                 + _trig_boundary([0.01, 0.005], [[2.0, 1.0], [0.0, 2.0]],
                                  [0.0, 0.5] if phases is None else phases,
                                  angle_deg)
                 + [""] + _BALL_FLOW)
    elif name == "exterior-shells":
        lines = (["[run]", "mode = exterior", "",
                  "[domain]", "kind = exterior", "dim = 2",
                  "inner_radius = 1.0", ""]
                 + _trig_boundary([0.002], [[2.0, 0.5]], phases, angle_deg)
                 + ["", "[grid]", "h = 0.203125", "",
                    "[flow]", "cfl = 0.9", "tol_residual = 1e-7",
                    "max_steps = 400000", "monitor_every = 500", "",
                    "[hypothesis]", "condition = B", "delta = 0.012",
                    "c = 0.5", "",
                    "[exterior]", "radii = 9.0, 11.0, 13.0",
                    "probe_radii = 2.5, 3.5, 4.5"])
    else:
        rows = [_rotate(r, angle_deg) for r in ([0.02, -0.03], [0.01, 0.005])]
        lines = (["[run]", "mode = check_hypothesis", ""] + _DISK
                 + ["[boundary]", "family = linear", "m = 2",
                    f"matrix = {_floats(rows[0])}; {_floats(rows[1])}", ""]
                 + _BALL_FLOW)
    return "\n".join(lines) + "\n"
