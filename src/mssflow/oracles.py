"""Closed-form graphs with exact jets, used as numerical oracles.

These states have known analytic behavior: flat planes and half-planes
pin the Gaussian-density dichotomy (1 vs 1/2), the radius sqrt(2n) sphere
cap solves the self-shrinker system exactly, and the Scherk graph solves
the codimension-one minimal surface equation, so every discrete residual
on them is pure truncation error.
"""

from __future__ import annotations

import numpy as np

from .boundary import LinearMap
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

    def values(self, pts):
        pts = np.atleast_2d(pts)
        return np.sqrt(self.radius ** 2 - (pts ** 2).sum(axis=1))[:, None]

    def jets(self, pts):
        pts = np.atleast_2d(pts)
        f = np.sqrt(self.radius ** 2 - (pts ** 2).sum(axis=1))
        jac = (-pts / f[:, None])[:, None, :]
        outer = pts[:, :, None] * pts[:, None, :]
        hess = (-(np.eye(self.n)[None] / f[:, None, None])
                - outer / (f ** 3)[:, None, None])[:, None]
        return f[:, None], jac, hess


class ScherkMap:
    """Scherk graph f(x) = log(cos x_1 / cos x_2), a minimal graph on the
    square |x_i| < pi/2."""

    n = 2
    m = 1

    def values(self, pts):
        pts = np.atleast_2d(pts)
        return (np.log(np.cos(pts[:, 0])) - np.log(np.cos(pts[:, 1])))[:, None]

    def jets(self, pts):
        pts = np.atleast_2d(pts)
        t0, t1 = np.tan(pts[:, 0]), np.tan(pts[:, 1])
        vals = (np.log(np.cos(pts[:, 0])) - np.log(np.cos(pts[:, 1])))[:, None]
        jac = np.stack([-t0, t1], axis=1)[:, None, :]
        hess = np.zeros((pts.shape[0], 1, 2, 2))
        hess[:, 0, 0, 0] = -(1.0 + t0 * t0)
        hess[:, 0, 1, 1] = 1.0 + t1 * t1
        return vals, jac, hess


def plane_state(h: float, halfwidth: float, offset=None) -> GraphState:
    """Horizontal graph of height offset (default 0) over a centered square."""
    spec = DomainSpec.box(np.full(2, 2.0 * halfwidth),
                          lo=np.full(2, -halfwidth))
    grid = build_grid(spec, h)
    b = np.zeros(1) if offset is None else np.asarray(offset, float)
    return make_state(grid, LinearMap(np.zeros((1, 2)), b))


def half_plane_state(h: float, halfwidth: float, slope=None) -> GraphState:
    """Affine graph over a rectangle resting on the line x_2 = 0.

    With zero data the graph is a flat half-plane whose straight edge
    passes through the origin: the boundary-point density oracle.
    """
    spec = DomainSpec.box([2.0 * halfwidth, halfwidth], lo=[-halfwidth, 0.0])
    grid = build_grid(spec, h)
    A = np.zeros((1, 2)) if slope is None else np.asarray(slope, float)
    return make_state(grid, LinearMap(A))


def sphere_cap_state(h: float, halfwidth: float) -> GraphState:
    """Cap of the radius 2 = sqrt(2n) sphere over a centered square."""
    spec = DomainSpec.box(np.full(2, 2.0 * halfwidth),
                          lo=np.full(2, -halfwidth))
    grid = build_grid(spec, h)
    return make_state(grid, SphereCapMap(2.0, 2))


def scherk_state(h: float, halfwidth: float) -> GraphState:
    """Scherk minimal graph over a centered square inside its singular frame."""
    spec = DomainSpec.box(np.full(2, 2.0 * halfwidth),
                          lo=np.full(2, -halfwidth))
    grid = build_grid(spec, h)
    return make_state(grid, ScherkMap())
