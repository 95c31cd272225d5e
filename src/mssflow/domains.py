"""Analytic domain shapes: signed distance, boundary curvature, reach.

Four shapes are supported, all with closed-form distance functions:

  box      -- axis-aligned product of intervals
  ball     -- |x| < r
  annulus  -- r_in < |x| < r
  exterior -- complement of a ball, truncated to a computational shell
              r_in < |x| < R; only the inner sphere is the true boundary,
              the outer sphere is an auxiliary strictly convex cap.

The distance function d(x) = dist(x, boundary) is C^2 on a collar of
width eta0; on that collar the trace bound -Laplace(d) >= -c0 holds along
any graphical flow, with c0 = n * sup |eigenvalues of Hess d| (and c0 = 0
when Hess d <= 0 throughout the collar, e.g. balls and boxes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Invalid domain parameters or query outside the supported region."""


@dataclass(frozen=True)
class DomainSpec:
    """Shape descriptor for the computational domain E.

    kind is one of 'box', 'ball', 'annulus', 'exterior'.  Box domains use
    lo/hi corner arrays; the spherical shapes are centered at the origin.
    For 'exterior' the excluded compact set is the closed ball of radius
    inner_radius and truncation_radius is the outer computational radius.
    """

    kind: str
    dim: int
    lo: tuple = ()
    hi: tuple = ()
    radius: float = 0.0
    inner_radius: float = 0.0
    truncation_radius: float = 0.0

    def __post_init__(self):
        n = self.dim
        if n < 1:
            raise DomainError(f"dim must be >= 1, got {n}")
        sizes = {"lo": self.lo, "hi": self.hi, "radius": self.radius,
                 "inner_radius": self.inner_radius,
                 "truncation_radius": self.truncation_radius}
        bad = [k for k, v in sizes.items()
               if not np.isfinite(np.asarray(v, float)).all()]
        if bad:
            raise DomainError(f"domain {', '.join(bad)} must be finite")
        if self.kind == "box":
            lo, hi = np.asarray(self.lo, float), np.asarray(self.hi, float)
            if lo.shape != (n,) or hi.shape != (n,):
                raise DomainError("box needs lo/hi of length dim")
            if not np.all(hi > lo):
                raise DomainError("box needs hi > lo on every axis")
        elif self.kind == "ball":
            if self.radius <= 0:
                raise DomainError("ball radius must be positive")
        elif self.kind == "annulus":
            if not 0 < self.inner_radius < self.radius:
                raise DomainError("annulus needs 0 < inner_radius < radius")
        elif self.kind == "exterior":
            if self.inner_radius <= 0:
                raise DomainError("exterior needs a positive excluded radius")
            # The shell must clear the r0 margin: R/2 > diam + 2*eta0 + d0
            # with diam = 2 r_in, eta0 = r_in / 2 and d0 = r_in.
            r0_half = 2.0 * self.inner_radius + self.inner_radius + self.inner_radius
            if self.truncation_radius / 2.0 <= r0_half:
                raise DomainError(
                    f"exterior truncation radius {self.truncation_radius} too small: "
                    f"need R > {2 * r0_half} for the shell construction")
        else:
            raise DomainError(f"unknown domain kind {self.kind!r}")

    # -- factory helpers -------------------------------------------------

    @staticmethod
    def box(edges, lo=None) -> "DomainSpec":
        edges = np.asarray(edges, float)
        lo = np.zeros_like(edges) if lo is None else np.asarray(lo, float)
        return DomainSpec(kind="box", dim=edges.size,
                          lo=tuple(lo), hi=tuple(lo + edges))

    @staticmethod
    def ball(radius, dim) -> "DomainSpec":
        return DomainSpec(kind="ball", dim=dim, radius=float(radius))

    @staticmethod
    def annulus(inner_radius, radius, dim) -> "DomainSpec":
        return DomainSpec(kind="annulus", dim=dim, radius=float(radius),
                          inner_radius=float(inner_radius))

    @staticmethod
    def exterior(inner_radius, truncation_radius, dim) -> "DomainSpec":
        return DomainSpec(kind="exterior", dim=dim,
                          inner_radius=float(inner_radius),
                          truncation_radius=float(truncation_radius))

    # -- geometry --------------------------------------------------------

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "box":
            return np.asarray(self.lo, float), np.asarray(self.hi, float)
        r = self.radius if self.kind in ("ball", "annulus") else self.truncation_radius
        return -r * np.ones(self.dim), r * np.ones(self.dim)

    def signed_distance(self, pts: np.ndarray) -> np.ndarray:
        """Signed distance to the computational boundary, negative inside."""
        pts = np.atleast_2d(np.asarray(pts, float))
        if self.kind == "box":
            lo, hi = self.bounding_box()
            q = np.maximum(lo - pts, pts - hi)
            inside = -np.min(-q, axis=1)  # = max_i q_i, negative inside
            outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
            return np.where(np.all(q <= 0, axis=1), inside, outside)
        rho = np.linalg.norm(pts, axis=1)
        if self.kind == "ball":
            return rho - self.radius
        r_out = self.radius if self.kind == "annulus" else self.truncation_radius
        return np.maximum(self.inner_radius - rho, rho - r_out)

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        """Distance to the computational boundary for points inside E."""
        return -self.signed_distance(pts)

    def min_feature(self) -> float:
        """Width of the thinnest cross-section (resolution requirement)."""
        if self.kind == "box":
            lo, hi = self.bounding_box()
            return float(np.min(hi - lo))
        if self.kind == "ball":
            return 2.0 * self.radius
        r_out = self.radius if self.kind == "annulus" else self.truncation_radius
        return r_out - self.inner_radius


@dataclass(frozen=True)
class BoundaryGeometry:
    """Collar width eta0, trace constant c0 and the Hessian bound behind it.

    c0 = dim * hess_d_bound in general; strictly convex shapes certify
    c0 = 0 regardless of the bound (the distance Hessian is <= 0 there).
    """

    eta0: float
    c0: float
    hess_d_bound: float
    strictly_convex: bool = False


def estimate_c0_eta0(spec: DomainSpec) -> BoundaryGeometry:
    """Per-shape collar width and distance-Laplacian constant.

    eta0 is half the smaller of (i) the least reach among boundary
    components and (ii) the smallest gap between distinct components, so
    the distance function is C^2 on the collar with a factor-2 margin.
    For 'exterior' only the inner sphere counts: the constants must not
    depend on the truncation radius.
    """
    n = spec.dim
    if spec.kind == "box":
        lo, hi = spec.bounding_box()
        half_edge = float(np.min(hi - lo)) / 2.0
        # Distance is only C^0 across the face-to-face medial set; stay
        # inside a 0.45 * half-edge collar where a single face is nearest.
        return BoundaryGeometry(eta0=0.45 * half_edge, c0=0.0, hess_d_bound=0.0)
    if spec.kind == "ball":
        r = spec.radius
        eta0 = r / 2.0
        return BoundaryGeometry(eta0=eta0, c0=0.0, hess_d_bound=1.0 / (r - eta0),
                                strictly_convex=True)
    if spec.kind == "annulus":
        r_in, r_out = spec.inner_radius, spec.radius
        eta0 = 0.5 * min(r_in, r_out - r_in)
        bound = max(1.0 / r_in, 1.0 / (r_out - eta0))
        return BoundaryGeometry(eta0=eta0, c0=n * bound, hess_d_bound=bound)
    # exterior: constants from the inner sphere alone; the auxiliary outer
    # sphere is strictly convex from inside and only helps.
    r_in = spec.inner_radius
    bound = 1.0 / r_in
    return BoundaryGeometry(eta0=r_in / 2.0, c0=n * bound, hess_d_bound=bound)
