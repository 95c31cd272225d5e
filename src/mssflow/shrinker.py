"""Self-shrinker and Gaussian-density toolkit.

Implements the cutoff-weighted Gaussian density of a flow state around a
space-time center, the residual field of the c-minimal (self-shrinker)
system, the parabolic dilation of discrete states, and the odd reflection
of a half-space graph across its flat edge.

The density of a smooth flow at a point is 1 when the point is interior
and 1/2 when it sits on the boundary of the evolving graph; those two
values are the blow-up dichotomy the acceptance oracles pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import DomainSpec
from .flow import (GraphState, compute_fields, make_state,
                   pinned_boundary_cells)
from .grid import CLS_TOL, build_grid

GAUSS_TAIL_FACTOR = 6.0     # kernel mass beyond 6 sqrt(time_gap) is < 1e-8


class UndercoverageError(RuntimeError):
    """The kernel's effective support leaks off the sampled region."""


@dataclass(frozen=True)
class DensityQuery:
    """Space-time center and quadrature window for a density evaluation.

    center is a point of R^(n+m); time_gap is T - t > 0.  phi is supported
    on [0, cutoff] (ambient distance).  Nodes beyond the truncation radius
    are skipped; the truncation must keep the Gaussian tail below 1e-8,
    i.e. be at least 6 sqrt(time_gap).
    """

    center: np.ndarray
    time_gap: float
    cutoff: float = 1.0
    truncation: float = None

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, float))
        if self.time_gap <= 0:
            raise ValueError(f"time_gap must be positive, got {self.time_gap}")
        if self.cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")
        floor = GAUSS_TAIL_FACTOR * np.sqrt(self.time_gap)
        if self.truncation is None:
            object.__setattr__(self, "truncation", max(float(floor), self.cutoff))
        elif self.truncation < floor:
            raise ValueError(
                f"truncation {self.truncation} below the tail radius {floor}")

    @property
    def support_radius(self) -> float:
        return min(self.cutoff, self.truncation)


def phi_quintic(r: np.ndarray, cutoff: float = 1.0) -> np.ndarray:
    """Frozen cutoff profile: 1 on [0, cutoff/2], quintic taper to 0 at cutoff.

    Monotone non-increasing and C^2; the density limit does not depend on
    the profile, so one profile is fixed for reproducibility.
    """
    s = np.clip((np.asarray(r, float) / cutoff - 0.5) * 2.0, 0.0, 1.0)
    return 1.0 - s * s * s * (10.0 - 15.0 * s + 6.0 * s * s)


def _coverage_check(state: GraphState, query: DensityQuery) -> None:
    """The kernel support intersected with the domain must be sampled.

    Bounded shapes are always fully covered by their lattice; only the
    truncated exterior shell can genuinely leak (the domain continues past
    the outer quadrature sphere).
    """
    spec = state.grid.spec
    n = state.grid.n
    y_base = query.center[:n]
    r_req = query.support_radius
    if spec.kind == "exterior":
        reach = float(np.linalg.norm(y_base)) + r_req
        if reach > spec.truncation_radius + CLS_TOL:
            raise UndercoverageError(
                f"kernel support reaches |x| = {reach} but the shell is "
                f"truncated at {spec.truncation_radius}")


def gaussian_density(state: GraphState, query: DensityQuery) -> float:
    """Cutoff-weighted Gaussian density of the graph around the center.

    Quadrature of phi(|z - Y|) * rho(z) * sqrt(det g) over the discrete
    graph, with phi = phi_quintic and rho the backward heat kernel
    (4 pi (T-t))^(-n/2) exp(-|z - Y|^2 / (4 (T-t))), n the dimension of
    the graph.  Interior nodes carry full cells; lattice nodes sitting on
    flat boundary faces carry the matching cell fraction, which is what
    makes the half-plane value come out at 1/2 instead of 1/2 + O(h).
    """
    _coverage_check(state, query)
    grid = state.grid
    n = grid.n
    bundle = compute_fields(state)

    z = np.concatenate([grid.interior_pos, state.f], axis=1)
    w = grid.cell_frac * grid.cellvol * np.sqrt(bundle.detg)
    zb, wb = pinned_boundary_cells(state)
    if wb.size:
        z = np.vstack([z, zb])
        w = np.concatenate([w, wb])
    dist = np.linalg.norm(z - query.center, axis=1)
    mask = dist <= query.truncation
    if not mask.any():
        return 0.0
    tau = query.time_gap
    rho = (4.0 * np.pi * tau) ** (-0.5 * n) \
        * np.exp(-dist[mask] ** 2 / (4.0 * tau))
    return float((phi_quintic(dist[mask], query.cutoff) * rho * w[mask]).sum())


def shrinker_residual_field(state: GraphState, c: float) -> np.ndarray:
    """Residual H + (c/2) F_perp of the c-minimal system at every node.

    Vectorized counterpart of the single-jet operation: the vertical
    vector (0, g^{ij} f_ij) and the position (x, f) are both projected off
    the tangent space spanned by the columns of [I; J].  Returns (K, n+m).
    """
    if c < 0:
        raise ValueError(f"c must be non-negative, got {c}")
    grid = state.grid
    bundle = compute_fields(state)
    R = bundle.residual
    J = bundle.J
    JtR = np.einsum("kAi,kA->ki", J, R)
    w = np.einsum("kij,kj->ki", bundle.ginv, JtR)
    h_base = -w
    h_fib = R - np.einsum("kAi,ki->kA", J, w)
    BtF = grid.interior_pos + np.einsum("kAi,kA->ki", J, state.f)
    w2 = np.einsum("kij,kj->ki", bundle.ginv, BtF)
    fp_base = grid.interior_pos - w2
    fp_fib = state.f - np.einsum("kAi,ki->kA", J, w2)
    return np.concatenate([h_base + 0.5 * c * fp_base,
                           h_fib + 0.5 * c * fp_fib], axis=1)


# ---------------------------------------------------------------------------
# parabolic dilation
# ---------------------------------------------------------------------------

class DilatedMap:
    """Boundary data seen through the dilation x -> iota (x - base)."""

    def __init__(self, psi, iota: float, base: np.ndarray, fiber: np.ndarray):
        self.psi = psi
        self.iota = float(iota)
        self.base = np.asarray(base, float)
        self.fiber = np.asarray(fiber, float)

    def _pull(self, pts):
        return np.atleast_2d(pts) / self.iota + self.base

    def values(self, pts):
        return self.iota * (self.psi.values(self._pull(pts)) - self.fiber)

    def jets(self, pts):
        vals, jac, hess = self.psi.jets(self._pull(pts))
        return (self.iota * (vals - self.fiber), jac, hess / self.iota)


def parabolic_dilate(state: GraphState, Y: np.ndarray, T: float,
                     iota: float) -> GraphState:
    """Image of the state under (y, t) -> (iota (y - Y), iota^2 (t - T)).

    Positions and values are recentered and scaled; the Jacobian (hence
    all singular values) is untouched, second derivatives scale by 1/iota
    and the time coordinate by iota^2.
    """
    if iota <= 0:
        raise ValueError(f"iota must be positive, got {iota}")
    grid = state.grid
    n, m = grid.n, state.m
    Y = np.asarray(Y, float)
    if Y.shape != (n + m,):
        raise ValueError(f"center must have length {n + m}")
    base, fiber = Y[:n], Y[n:]
    new_grid = grid.scaled_copy(iota, base)
    f = iota * (state.f - fiber)
    return GraphState(grid=new_grid, t=iota ** 2 * (state.t - T), f=f,
                      pinned=iota * (state.pinned - fiber),
                      psi_lo=iota * (state.psi_lo - fiber),
                      psi_hi=iota * (state.psi_hi - fiber),
                      psi=DilatedMap(state.psi, iota, base, fiber))


# ---------------------------------------------------------------------------
# half-space reflection
# ---------------------------------------------------------------------------

class OddReflectionMap:
    """Odd extension of a half-space map across the hyperplane x_n = 0.

    The reflection fixes the first n-1 base coordinates and negates both
    x_n and every fiber coordinate.  Jets on the mirror side follow by the
    chain rule; on the hyperplane itself the upper-side convention is used
    (any second-derivative jump there is reported, not hidden).
    """

    def __init__(self, psi, n: int):
        self.psi = psi
        self.n = n

    def _split(self, pts):
        pts = np.atleast_2d(pts)
        lower = pts[:, self.n - 1] < 0.0
        flipped = pts.copy()
        flipped[lower, self.n - 1] *= -1.0
        return lower, flipped

    def values(self, pts):
        lower, flipped = self._split(pts)
        vals = self.psi.values(flipped)
        vals[lower] *= -1.0
        return vals

    def jets(self, pts):
        lower, flipped = self._split(pts)
        vals, jac, hess = self.psi.jets(flipped)
        vals[lower] *= -1.0
        jac[lower] *= -1.0
        jac[lower, :, self.n - 1] *= -1.0
        hess[lower] *= -1.0
        hess[lower, :, self.n - 1, :] *= -1.0
        hess[lower, :, :, self.n - 1] *= -1.0
        return vals, jac, hess


def reflect_halfspace(state: GraphState) -> tuple[GraphState, float]:
    """Odd doubling of a graph over a box resting on the hyperplane x_n = 0.

    The trace on the reflecting face must vanish (tolerance 1e-10).  The
    doubled state lives on the mirrored box; values on the mirror half are
    the negated originals at reflected base points.  Returns the doubled
    state and a kink diagnostic: an estimate of the jump in the normal
    second derivative across the interface (zero for genuinely odd data,
    e.g. odd linear maps double to global linear maps).
    """
    grid = state.grid
    spec = grid.spec
    n = grid.n
    if spec.kind != "box" or abs(spec.lo[n - 1]) > CLS_TOL:
        raise ValueError("reflection needs a box domain resting on x_n = 0")

    lo, hi = spec.bounding_box()
    face = np.abs(grid.boundary_nodes_pos[:, n - 1]) <= CLS_TOL
    if face.any():
        trace = state.psi.values(grid.boundary_nodes_pos[face])
        worst = float(np.abs(trace).max())
        if worst > 1e-10:
            raise ValueError(
                f"trace on the reflecting hyperplane is {worst:.3g} > 1e-10")

    doubled_lo = lo.copy()
    doubled_lo[n - 1] = -hi[n - 1]
    doubled = DomainSpec.box(hi - doubled_lo, lo=doubled_lo)
    grid2 = build_grid(doubled, float(grid.hs.max()))
    if not np.array_equal(grid2.hs, grid.hs):
        raise ValueError(f"the doubled box is meshed at {grid2.hs}, not at the "
                         f"state's spacing {grid.hs}")
    odd = OddReflectionMap(state.psi, n)
    out = make_state(grid2, odd, t=state.t)

    # Carry the evolved interior values across (make_state seeded them
    # with the boundary family itself, which is only right at t = 0).
    # Both lattices have x_n = 0 as their coordinate plane c_n = 0.
    mirror = grid2.lattice_coords()
    cn = mirror[:, n - 1].copy()
    mirror[:, n - 1] = np.abs(cn)
    k = grid.lattice_index(mirror)
    f2 = np.zeros_like(out.f)
    f2[cn > 0] = state.f[k[cn > 0]]
    f2[cn < 0] = -state.f[k[cn < 0]]
    out = out.replace_values(f2, state.t)

    # Kink estimate: 2 |f_nn(0+)| from the first two interior layers.
    kink = np.nan
    coords = grid.lattice_coords()
    first = np.nonzero(coords[:, n - 1] == 1)[0]
    second = coords[first]
    second[:, n - 1] = 2
    k2 = grid.lattice_index(second)
    hit = k2 >= 0
    if hit.any():
        h_n = grid.hs[n - 1]
        kink = 2.0 * float(np.abs(state.f[k2[hit]] - 2.0 * state.f[first[hit]])
                           .max()) / (h_n * h_n)
    return out, kink
