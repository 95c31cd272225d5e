"""Self-shrinker and Gaussian-density toolkit.

Implements the cutoff-weighted Gaussian density of a flow state around
the space-time origin and the residual field of the c-minimal
(self-shrinker) system.  The density is evaluated directly at a time gap
T - t; no state is ever rescaled.

The density of a smooth flow at a point is 1 when the point is interior
and 1/2 when it sits on the boundary of the evolving graph; those two
values are the blow-up dichotomy the acceptance oracles pin down, read
at the origin of R^(n+m).
"""

from __future__ import annotations

import numpy as np

from .flow import (GraphState, _metric, _metric_inverse, boundary_cell_weights,
                   compute_fields)


def phi_quintic(r: np.ndarray, cutoff: float = 1.0) -> np.ndarray:
    """Frozen cutoff profile: 1 on [0, cutoff/2], quintic taper to 0 at cutoff.

    Monotone non-increasing and C^2; the density limit does not depend on
    the profile, so one profile is fixed for reproducibility.
    """
    s = np.clip((np.asarray(r, float) / cutoff - 0.5) * 2.0, 0.0, 1.0)
    return 1.0 - s * s * s * (10.0 - 15.0 * s + 6.0 * s * s)


def gaussian_density(state: GraphState, psi, time_gap: float,
                     cutoff: float) -> float:
    """Cutoff-weighted Gaussian density of the graph around the origin.

    Quadrature of phi(|z|) * rho(z) * sqrt(det g) over the discrete graph,
    with phi = phi_quintic (supported on |z| <= cutoff) and rho the
    backward heat kernel (4 pi T)^(-n/2) exp(-|z|^2 / (4 T)), T the time
    gap and n the dimension of the graph; the sum runs over the nodes of
    phi's support.  Interior nodes carry full cells; lattice nodes sitting
    on flat boundary faces carry the matching cell fraction, which is what
    makes the half-plane value come out at 1/2 instead of 1/2 + O(h).
    Those boundary points are the graph of psi, the state's Dirichlet
    data, over the grid's boundary sample, weighted by
    flow.boundary_cell_weights.
    """
    grid = state.grid
    bundle = compute_fields(state)
    vals, jac, _ = psi.jets(grid.boundary_samples)
    rows, wb = boundary_cell_weights(grid, _metric_inverse(
        _metric(np.moveaxis(jac, -1, 0)), grid.n)[1])

    z = np.vstack([np.concatenate([grid.interior_pos, state.f], axis=1),
                   np.concatenate([grid.boundary_samples, vals], axis=1)[rows]])
    w = np.concatenate([grid.cell_frac * grid.cellvol * np.sqrt(bundle.detg),
                        wb])
    dist = np.linalg.norm(z, axis=1)
    mask = dist <= cutoff
    rho = (4.0 * np.pi * time_gap) ** (-0.5 * grid.n) \
        * np.exp(-dist[mask] ** 2 / (4.0 * time_gap))
    return float((phi_quintic(dist[mask], cutoff) * rho * w[mask]).sum())


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
