"""Self-shrinker and Gaussian-density toolkit.

Implements the cutoff-weighted Gaussian density of a flow state around a
space-time center and the residual field of the c-minimal (self-shrinker)
system.  The density is evaluated directly at a time gap T - t; no state
is ever rescaled.

The density of a smooth flow at a point is 1 when the point is interior
and 1/2 when it sits on the boundary of the evolving graph; those two
values are the blow-up dichotomy the acceptance oracles pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import GraphState, compute_fields, pinned_boundary_cells
from .grid import CLS_TOL

GAUSS_TAIL_FACTOR = 6.0     # kernel mass beyond 6 sqrt(time_gap) is < 1e-8


class UndercoverageError(RuntimeError):
    """The kernel's effective support leaks off the sampled region."""


@dataclass(frozen=True)
class DensityQuery:
    """Space-time center and quadrature window for a density evaluation.

    center is a point of R^(n+m); time_gap is T - t > 0.  phi is supported
    on [0, cutoff] (ambient distance).  Nodes beyond the truncation radius
    max(6 sqrt(time_gap), cutoff) are skipped: it is derived, never set,
    and keeps the Gaussian tail below 1e-8.
    """

    center: np.ndarray
    time_gap: float
    cutoff: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, float))
        if self.time_gap <= 0:
            raise ValueError(f"time_gap must be positive, got {self.time_gap}")
        if self.cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")

    @property
    def truncation(self) -> float:
        floor = GAUSS_TAIL_FACTOR * np.sqrt(self.time_gap)
        return max(float(floor), self.cutoff)


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
    if spec.kind == "exterior":
        y_base = query.center[:state.grid.n]
        reach = float(np.linalg.norm(y_base)) + query.cutoff
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
