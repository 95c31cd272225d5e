"""Closed-form graphs with exact jets, used as numerical oracles.

These are the density_oracle mode's states: flat planes and half-planes
pin the Gaussian-density dichotomy at the origin (1 on the plane through
it, 1/2 on the half-plane whose edge passes through it; the plane lifted
by an offset gives the Gaussian factor), and the radius sqrt(2n)
sphere cap solves the self-shrinker system exactly, so every discrete
residual on it is pure truncation error.  The plane states take their
flat data as an argument (one constant polynomial term, `constant_map`),
since the density reads the data on the boundary too; the cap has its
own map class.
"""

from __future__ import annotations

import numpy as np

from .domains import DomainSpec
from .flow import GraphState, make_state
from .grid import build_grid


class SphereCapMap:
    """Upper cap f(x) = sqrt(radius^2 - |x|^2); radius sqrt(2n) shrinks
    self-similarly (H + F_perp / 2 = 0 exactly)."""

    m = 1

    def __init__(self, radius: float, dim: int):
        self.radius = float(radius)
        self.n = int(dim)

    def jets(self, pts):
        pts = np.atleast_2d(pts)
        f = np.sqrt(self.radius ** 2 - (pts ** 2).sum(axis=1))
        jac = (-pts / f[:, None])[:, None, :]
        outer = pts[:, :, None] * pts[:, None, :]
        hess = (-(np.eye(self.n)[None] / f[:, None, None])
                - outer / (f ** 3)[:, None, None])[:, None]
        return f[:, None], jac, hess


def plane_state(h: float, halfwidth: float, psi) -> GraphState:
    """Graph of psi over a centered square: with psi =
    constant_map([offset], 2) the horizontal plane of height offset."""
    spec = DomainSpec.box(np.full(2, 2.0 * halfwidth),
                          lo=np.full(2, -halfwidth))
    grid = build_grid(spec, h)
    return make_state(grid, psi)


def half_plane_state(h: float, halfwidth: float, psi) -> GraphState:
    """Graph of psi over a rectangle resting on the line x_2 = 0: with
    psi = constant_map([0.0], 2) the flat half-plane whose straight edge
    passes through the origin, the boundary-point density oracle."""
    spec = DomainSpec.box([2.0 * halfwidth, halfwidth], lo=[-halfwidth, 0.0])
    grid = build_grid(spec, h)
    return make_state(grid, psi)


def sphere_cap_state(h: float, halfwidth: float) -> GraphState:
    """Cap of the radius 2 = sqrt(2n) sphere over a centered square."""
    spec = DomainSpec.box(np.full(2, 2.0 * halfwidth),
                          lo=np.full(2, -halfwidth))
    grid = build_grid(spec, h)
    return make_state(grid, SphereCapMap(2.0, 2))
