"""Boundary data, its norms, and the solvability checkers.

Two data classes carry exact analytic jets (value, Jacobian, Hessian) at
any point of R^n, so the Dirichlet data and its derivative norms are never
themselves approximated by differencing: `PolynomialMap` (term lists of
total degree <= 4) and `TrigMap` (plane waves).  The constant, linear and
sphere-to-sphere families are term lists (`constant_map`, `linear_map`,
`lawson_osserman_map`) labelled with their family name.  A map is just
`n`, `m`, `family` and `jets`: the checker's figures (the flow's barrier
weights among them) and the flow's initial state read jets.
`PolynomialMap` builds one jet table at construction, each derivative
term by exponent arithmetic, and its `jets` is one loop over that table.

`sup_norms` is where the checker samples the data on a grid: one jets
call over the closure sample of a `grid.Closure` gives the oscillation,
the band sup-norms and the global sup|Dpsi|.  The checker calls it on the
flow grid and on a closure at h/2 and adds a Richardson gap estimate to
each figure.  The h/2 pass builds only the closure (`build_closure`: the
lattice, its classification and the boundary crossings), never the
stencil arms of a flow grid.  Lattice maxima are lower bounds and the
gap assumes second-order saturation, so these are estimates, not
certified bounds; certified bounds (ROADMAP item 2) replace the
reductions inside `sup_norms`.  The pass at h also forms, from the same
sample, everything `flow.FlowMonitors` reads of the data: the
per-component range, the barrier weights, the *Omega floor and the area
of the flat-face boundary cells, with det g from the flow's own metric
arithmetic.  The hypothesis report carries them, so check mode forms
them too.  The flow samples the data itself only for its initial state
(`flow.make_state`: the interior nodes and the cut-arm ends).

Each reduction there is a spectral maximum over points: svd for sup|Dpsi|
and the far-field table of the exterior driver, the certified direction
rule `_direction_max` for sup|D^2 psi| and the per-component sups of
the barrier weights; the rule owns its screen and returns one number.
Both screen first (`_live`): certified per-point bounds drop every point
that cannot hold the maximum, LAPACK sees the rest (a bitwise-tied stack,
as linear data gives, once), and every figure is bit-identical to an
unscreened pass.

Conditions A and B are one rule: the proved mu = 1 ceiling for the
boundary gradient of the evolving graph (`boundary_gradient_bound`),
taken with the global sup|Dpsi|, must stay below a threshold.  Condition
A uses the delta band and threshold 1; condition B, for exterior
problems, the whole closure and threshold 1 - c.  mu is that constant 1
throughout: the band-width ceiling `delta0`, the ceiling and the barrier
weight `barrier_nu` carry 1 + mu = 2 in their formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .domains import BoundaryGeometry
from .flow import _metric, _metric_inverse, boundary_cell_weights
# build_grid is not called here, but perfbench's tracer wraps it by name as
# boundary.build_grid (and a tier-1 test checks that it finds it)
from .grid import Closure, Grid, build_closure, build_grid  # noqa: F401

# `_direction_max`: relative tolerance, vertices per round, eigvalsh batch
_DIRECTION_TOL = 1e-12
_VERTEX_BUDGET = 2 ** 17
_EIG_CHUNK = 2 ** 13
# The screen keeps a point unless its certified upper bound sits this far
# (relative) below the best lower bound: far above the rounding of either
# bound, so the point holding the maximum is never dropped.
_SCREEN_SLACK = 1e-9
# Bounds are plain sums of squares; with the best lower bound in this range
# their underflow and overflow cannot decide the screen.
_SCREEN_RANGE = (2.0 ** -500, 2.0 ** 500)


class HypothesisError(ValueError):
    """Raised for invalid checker inputs (band width out of range, etc.)."""


# ---------------------------------------------------------------------------
# map families
# ---------------------------------------------------------------------------

class PolynomialMap:
    """Component-wise multivariate polynomials of total degree <= 4.

    terms: list (one entry per component) of (coeffs, exponents) pairs,
    coeffs shape (T,), exponents shape (T, n) of non-negative ints.
    family names the configuration family the terms came from.

    The constructor turns the terms into one jet table by exponent
    arithmetic: per term its value, each d/dx_i (coefficient c e_i, e_i
    lowered by one) and each d^2/dx_i dx_j (c times the integer e_i e'_j,
    e'_j the exponent after the first lowering), an entry whose exponent
    would go negative dropped.  An entry is (order, component, flat index,
    coefficient, (axis, exponent) factors in axis order); `jets` sums the
    table in term order.
    """

    def __init__(self, terms, dim, family="polynomial"):
        self.family = family
        self.n = n = int(dim)
        self.terms = []
        for coeffs, expos in terms:
            coeffs = np.asarray(coeffs, float)
            expos = np.asarray(expos, int).reshape(coeffs.size, n)
            if expos.min() < 0 or expos.sum(axis=1).max() > 4:
                raise ValueError("polynomial terms must have total degree <= 4")
            self.terms.append((coeffs, expos))
        self.m = len(self.terms)
        def factors(expo):
            return [(i, x) for i, x in enumerate(expo) if x]
        table = self._table = []
        unit = np.eye(n, dtype=int)
        for A, (coeffs, expos) in enumerate(self.terms):
            for c, e in zip(coeffs, expos):
                table.append((0, A, 0, c, factors(e)))
                for i in np.flatnonzero(e):
                    ei = e - unit[i]
                    table.append((1, A, i, c * e[i], factors(ei)))
                    for j in np.flatnonzero(ei):
                        table.append((2, A, i * n + j, c * (e[i] * ei[j]),
                                      factors(ei - unit[j])))

    def jets(self, pts):
        pts = np.atleast_2d(pts)
        B, m, n = pts.shape[0], self.m, self.n
        vals, jac, hess = (np.zeros((B, m)), np.zeros((B, m, n)),
                           np.zeros((B, m, n, n)))
        out = (vals[:, :, None], jac, hess.reshape(B, m, n * n))
        for order, A, k, coeff, factors in self._table:
            power = np.ones(B)         # x^e with the convention 0^0 = 1
            for i, x in factors:
                power = power * pts[:, i] ** x
            out[order][:, A, k] += coeff * power
        return vals, jac, hess


def constant_map(values, dim) -> PolynomialMap:
    """x -> values on R^dim: one constant term per component."""
    zero = np.zeros((1, int(dim)), int)
    return PolynomialMap([([c], zero) for c in values], dim, "constant")


def linear_map(matrix, offset=None) -> PolynomialMap:
    """x -> matrix x + offset: per component one term per column, then the
    offset's constant term (none without an offset)."""
    rows = np.atleast_2d(np.asarray(matrix, float))
    m, n = rows.shape
    expos = np.eye(n + 1, n, dtype=int)     # x_1, ..., x_n, then 1
    if offset is None:
        return PolynomialMap([(row, expos[:n]) for row in rows], n, "linear")
    offset = np.asarray(offset, float)
    if offset.shape != (m,):
        raise ValueError("need one offset per component")
    return PolynomialMap([(np.append(row, b), expos)
                          for row, b in zip(rows, offset)], n, "linear")


def lawson_osserman_map(scale) -> PolynomialMap:
    """Scaled quadratic extension of the classical sphere-to-sphere map.

    psi(x) = R * (x1^2 + x2^2 - x3^2 - x4^2,
                  2 (x1 x3 + x2 x4),
                  2 (x2 x3 - x1 x4)),
    whose restriction to the unit 3-sphere is the Hopf fibration scaled
    by R (Lawson and Osserman).  Large R drives the oscillation past the
    solvable regime.
    """
    R = float(scale)
    return PolynomialMap(
        [([R, R, -R, -R], 2 * np.eye(4, dtype=int)),
         ([2 * R, 2 * R], [[1, 0, 1, 0], [0, 1, 0, 1]]),
         ([2 * R, -2 * R], [[0, 1, 1, 0], [1, 0, 0, 1]])],
        4, "lawson_osserman_scaled")


class TrigMap:
    """Plane-wave components amp_A * sin(<k_A, x> + phase_A)."""

    family = "trigonometric"

    def __init__(self, amplitudes, wave_vectors, phases=None):
        self.amp = np.asarray(amplitudes, float)
        self.k = np.atleast_2d(np.asarray(wave_vectors, float))
        self.m = self.amp.size
        self.n = self.k.shape[1]
        self.phase = np.zeros(self.m) if phases is None else np.asarray(phases, float)
        if self.k.shape != (self.m, self.n):
            raise ValueError("need one wave vector per component")
        if self.phase.shape != (self.m,):
            raise ValueError("need one phase per component")

    def jets(self, pts):
        pts = np.atleast_2d(pts)
        arg = pts @ self.k.T + self.phase
        vals = self.amp * np.sin(arg)
        jac = (self.amp * np.cos(arg))[:, :, None] * self.k[None, :, :]
        kk = self.k[:, :, None] * self.k[:, None, :]
        hess = -(vals)[:, :, None, None] * kk[None]
        return vals, jac, hess


# ---------------------------------------------------------------------------
# norms and oscillation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiNorms:
    """Oscillation and derivative sup-norms of a boundary map on a region."""

    w: float
    sup_dpsi: float
    sup_d2psi: float


@dataclass(frozen=True, eq=False)
class HypothesisReport:
    """The checker's verdict and figures.  It holds arrays, so reports
    compare and hash by identity."""

    condition: str            # 'A' or 'B'
    w_psi: float
    sup_dpsi_band: float
    sup_d2psi_band: float
    sup_dpsi_global: float
    delta: float
    delta0: float
    lhs_condition: float
    boundary_bound: float     # mu = 1 ceiling for sup|Df| on the boundary
    passed: bool
    eps: float                # 1 - lhs; the strict length-decreasing margin
    # what the flow's monitors read, from the sample at h, per component:
    psi_lo: np.ndarray        # the data's range over the closure
    psi_hi: np.ndarray
    nu: np.ndarray            # the barrier weights (barrier_nu)
    star_omega_floor: float   # least *Omega of the data's graph
    boundary_area: float      # area of the flat-face boundary cells
    c: float | None = None    # condition-B gap, None for condition A


def _live(mats, upper, lower) -> np.ndarray:
    """Points whose certified upper bound reaches the best certified lower
    bound, less _SCREEN_SLACK relative: the only ones that can hold the max."""
    floor = lower.max(initial=0.0)
    if _SCREEN_RANGE[0] <= floor <= _SCREEN_RANGE[1]:
        return ~(upper < floor * (1.0 - _SCREEN_SLACK))
    # nothing to screen against: keep every point but the exact zeros
    return mats.any(axis=tuple(range(1, mats.ndim)))


def _once(mats: np.ndarray) -> np.ndarray:
    """mats, or only its first matrix when all are bitwise equal: LAPACK
    solves each matrix on its own, so that one stands for every copy."""
    bits = mats.view(np.uint8)
    return mats[:1] if (bits == bits[:1]).all() else mats


def _norm2_bounds(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on the spectral norm of each matrix of a (B, p, q) stack.

    Upper: the Frobenius norm.  Lower: |M r|, r the largest row of M
    normalised (one power step; at least that row's norm, exact on rank
    one).  For a symmetric M the spectral norm is max |eigenvalue|.
    """
    rows = np.einsum("bij,bij->bi", mats, mats)
    top = rows.argmax(axis=1)
    pick = np.arange(mats.shape[0])
    norm = np.sqrt(rows[pick, top])
    r = mats[pick, top] / np.where(norm > 0.0, norm, 1.0)[:, None]
    lower = np.linalg.norm(np.einsum("bij,bj->bi", mats, r), axis=1)
    return np.sqrt(rows.sum(axis=1)), lower


def top_singular_values(mats: np.ndarray,
                        band: np.ndarray | None = None) -> np.ndarray:
    """Largest singular value of each (B, p, q) matrix that can hold the max.

    Exact (LAPACK svd) wherever a matrix can hold the maximum over all
    rows, or over the band rows when band is given; a lower bound below
    that maximum elsewhere.  Only maxima of the result are meaningful.
    """
    upper, lower = _norm2_bounds(mats)
    live = _live(mats, upper, lower)
    if band is not None:
        live[band] |= _live(mats[band], upper[band], lower[band])
    out = lower.copy()
    if live.any():
        out[live] = np.linalg.svd(_once(mats[live]), compute_uv=False)[:, 0]
    return out


def _cell_round(hess, offsets, corners, pt, face, centre, half):
    """Best vertex value, centre vertex values and child bounds of cells."""
    verts = centre[:, None, :] + half * offsets[face]          # (P, G, m)
    norm = np.linalg.norm(verts, axis=2)
    h = hess[pt][:, None]
    # M(v) = sum_A v_A H_A in component order (at m = 1 exactly H)
    mats = verts[:, :, 0, None, None] * h[:, :, 0]
    for A in range(1, verts.shape[2]):
        mats += verts[:, :, A, None, None] * h[:, :, A]
    rho = np.abs(np.linalg.eigvalsh(mats.reshape(-1, *mats.shape[-2:])))
    rho = rho.max(axis=1).reshape(norm.shape) / norm
    unit = (verts / norm[:, :, None])[:, corners]               # (P, C, K, m)
    mid = unit.sum(axis=2)
    cos = (np.einsum("pckm,pcm->pck", unit, mid).min(axis=2)
           / np.linalg.norm(mid, axis=2))
    return (rho.max(), rho[:, (offsets.shape[1] - 1) // 2],
            rho[:, corners].max(axis=2) / cos)


def _direction_max(hess: np.ndarray) -> tuple[float, float]:
    """Certified upper and lower ends U, F of the sup over a (B, m, n, n)
    stack of max_{|tau|=1} |D^2 psi(tau, tau)| (ROADMAP item 11).

    At a point that is max_{|c|=1} rho(M(c)), M(c) = sum_A c_A H_A, rho the
    spectral radius, convex and even in c.  On a cell (sub-square of a face
    c_j = +1) rho(M(c/|c|)) <= max_i rho(M(u_i)) / min_i u_i.z (u_i its
    normalised corners, z their normalised sum) and <= |(rho(H_A))_A|.
    Rounds solve the vertices of the live cells (the first splits each
    face at e_j), raise F, the best vertex value, drop every child whose
    bound is within _DIRECTION_TOL of F and split the rest, until none is
    live or the next round would pass _VERTEX_BUDGET.  U is the largest
    bound of a cell dropped or left live; flat data (as large in every
    direction) keeps the last round's width.  At m = 1 U is max |eig H|
    bit for bit.  The rule owns its screen: points whose Frobenius norm
    of (H_A)_A is below the best `_norm2_bounds` lower bound of an H_A
    would never raise F and lose all their cells in the first round, so
    dropping them changes neither end (a tied stack, solved once, may
    refine deeper within the budget than its copies would).  An empty or
    all-zero stack gives (0, 0) before any screen or LAPACK call.
    """
    if not hess.any():
        return 0.0, 0.0
    B, m, n, _ = hess.shape
    lower = _norm2_bounds(hess.reshape(B * m, n, n))[1].reshape(B, m).max(1)
    live = _live(hess, np.sqrt(np.einsum("bAij,bAij->b", hess, hess)), lower)
    if not live.any():
        return 0.0, 0.0
    hess = _once(hess[live])
    B = hess.shape[0]
    # a cell of face j with centre z and half-side s has the vertices
    # z + s offsets[j]; its child k has the corners corners[k] of them
    grid = np.array(list(product((-1, 0, 1), repeat=m - 1)), float)
    signs = np.array(list(product((-1, 1), repeat=m - 1)), float)
    inside = (np.abs(2.0 * grid - signs[:, None]) <= 1.0).all(axis=2)
    corners = np.nonzero(inside)[1].reshape(len(signs), -1)
    offsets = np.stack([np.insert(grid, j, 0.0, axis=1) for j in range(m)])
    step = max(1, _EIG_CHUNK // len(grid))
    pt, face = np.divmod(np.arange(B * m), m)
    centre, half, best, cap, upper = np.eye(m)[face], 1.0, 0.0, None, 0.0
    while True:
        parts = [_cell_round(hess, offsets, corners, pt[s:s + step],
                             face[s:s + step], centre[s:s + step], half)
                 for s in range(0, pt.size, step)]
        best = max(best, max(p[0] for p in parts))
        if cap is None:     # rho(M(c)) <= sum_A |c_A| rho(H_A), for each e_A
            cap = np.hypot.reduce(np.concatenate([p[1] for p in parts])
                                  .reshape(B, m), axis=1)
        bound = np.minimum(np.concatenate([p[2] for p in parts]),
                           cap[pt][:, None])
        live = bound > best * (1.0 + _DIRECTION_TOL)
        live &= np.count_nonzero(live) * len(grid) <= _VERTEX_BUDGET
        upper = max(upper, bound[~live].max(initial=0.0))
        if not live.any():
            return float(upper), float(best)
        parent, kid = np.nonzero(live)
        centre = centre[parent] + half * offsets[face[parent, None],
                                                 corners[kid]].mean(axis=1)
        pt, face, half = pt[parent], face[parent], 0.5 * half


def _sup_hessian_norm(hess: np.ndarray) -> float:
    """sup over samples of max_{|tau|=1} |D^2 psi(tau, tau)| (vector norm):
    the upper end of `_direction_max`."""
    return _direction_max(hess)[0]


def sup_norms(psi, grid: Closure, delta: float | None,
              barrier_delta: float | None = None) -> tuple:
    """Band norms and the global sup|Dpsi| of psi at one resolution, and
    at the flow's h what the flow's monitors read of the data.

    One jets call over grid.closure_points() feeds every figure.  w is the
    largest per-component range over the whole closure; the derivative
    sup-norms of the PsiNorms run over grid.closure_band_mask(delta), the
    second element over every row.  The third is None without
    barrier_delta; with it, it is (lo, hi, d2, star_omega_floor,
    boundary_area): the per-component range over the closure, the
    per-component sup|D^2 psi^A| over closure_band_mask(barrier_delta)
    (the direction rule at m = 1, the largest |eigenvalue|), the least
    *Omega = 1 / sqrt(det g) of the data's graph over the closure, det g
    formed as the flow forms it, and from the same det g the area of the
    flat-face boundary cells (`flow.boundary_cell_weights`; 0 without a
    flat face).
    """
    vals, jac, hess = psi.jets(grid.closure_points())
    band = grid.closure_band_mask(delta)
    # per column: a (B, m) axis-0 reduction is several times slower
    lo, hi = (np.array([f(col) for col in vals.T]) for f in (np.min, np.max))
    d1 = top_singular_values(jac, None if delta is None else band)
    monitor = None
    if barrier_delta is not None:
        rows = grid.closure_band_mask(barrier_delta)
        detg = _metric_inverse(_metric(np.moveaxis(jac, -1, 0)), grid.n)[1]
        area = boundary_cell_weights(grid, detg[grid.num_interior:])[1]
        monitor = (lo, hi, np.array([_sup_hessian_norm(hess[rows, A:A + 1])
                                     for A in range(psi.m)]),
                   float((1.0 / np.sqrt(detg)).min()), float(area.sum()))
    # the Hessian reduction sets the memory peak: free the rest first, and
    # copy out the band only when it is not the whole closure
    del vals, jac
    if delta is not None:
        hess = hess[band]
    norms = PsiNorms(w=float(np.max(hi - lo)),
                     sup_dpsi=float(d1[band].max(initial=0.0)),
                     sup_d2psi=_sup_hessian_norm(hess))
    return norms, float(d1.max(initial=0.0)), monitor


def _richardson(coarse: float, fine: float) -> float:
    """Sup estimate from two lattice samples (not a certified bound).

    Lattice maxima are lower bounds that grow under refinement; assuming
    second-order saturation the residual gap is a third of the observed
    increment.  Snapped box lattices are not nested, so the fine maximum
    can fall below the coarse one; the estimate never drops below either.
    """
    return max(coarse, fine) + max(0.0, fine - coarse) / 3.0


# ---------------------------------------------------------------------------
# solvability checkers
# ---------------------------------------------------------------------------

def delta0(boundary_geom: BoundaryGeometry) -> float:
    """Admissible band-width ceiling for the boundary gradient barrier:
    eta0, or half of min(1 / (8 c0 (1 + mu)), eta0) when c0 > 0, mu = 1."""
    c0, eta0 = boundary_geom.c0, boundary_geom.eta0
    if c0 == 0.0:
        return eta0
    return 0.5 * min(1.0 / (16.0 * c0), eta0)


def _check(psi, grid: Grid, boundary_geom: BoundaryGeometry, delta: float,
           c: float | None) -> HypothesisReport:
    """The solvability rule shared by conditions A (c None) and B.

    lhs = max(boundary_gradient_bound(band norms, delta, n),
              sup_global|Dpsi|) over the delta band for A and over the
    whole closure for B (where the max is the first term); passes iff
    lhs < 1 - c, with c = 0 for A.  The first term is also reported as
    boundary_bound, the ceiling of the flow's boundary-gradient clause.
    The pass at h (never the one at h/2) also gives what the flow's
    monitors read: the data range psi_lo / psi_hi, the *Omega floor, the
    flat-face boundary area and the barrier weights nu, barrier_nu of the
    range and the per-component sups over the delta band.
    """
    d0 = delta0(boundary_geom)
    if not 0.0 < delta < d0:
        raise HypothesisError(f"delta = {delta} outside the admissible (0, {d0})")
    fine = build_closure(grid.spec, grid.h / 2.0)
    band_delta = delta if c is None else None
    band_c, glob_c, (lo, hi, d2, floor, area) = sup_norms(psi, grid,
                                                          band_delta, delta)
    band_f, glob_f, _ = sup_norms(psi, fine, band_delta)
    band = PsiNorms(w=_richardson(band_c.w, band_f.w),
                    sup_dpsi=_richardson(band_c.sup_dpsi, band_f.sup_dpsi),
                    sup_d2psi=_richardson(band_c.sup_d2psi, band_f.sup_d2psi))
    glob_dpsi = _richardson(glob_c, glob_f)
    bound = boundary_gradient_bound(band, delta, grid.n)
    lhs = max(bound, glob_dpsi)
    return HypothesisReport(
        condition="A" if c is None else "B", w_psi=band.w,
        sup_dpsi_band=band.sup_dpsi, sup_d2psi_band=band.sup_d2psi,
        sup_dpsi_global=glob_dpsi, delta=delta, delta0=d0, lhs_condition=lhs,
        boundary_bound=bound, passed=lhs < 1.0 - (0.0 if c is None else c), eps=1.0 - lhs,
        psi_lo=lo, psi_hi=hi, star_omega_floor=floor, boundary_area=area,
        nu=barrier_nu(hi - lo, delta, boundary_geom.c0, grid.n, d2), c=c)


def check_condition_A(psi, grid: Grid, boundary_geom: BoundaryGeometry,
                      delta: float) -> HypothesisReport:
    """Small-oscillation solvability check: band norms, threshold 1."""
    return _check(psi, grid, boundary_geom, delta, None)


def check_condition_B(psi, grid: Grid, boundary_geom: BoundaryGeometry,
                      delta: float, c: float) -> HypothesisReport:
    """Exterior-problem variant: global norms, threshold 1 - c."""
    if not 0.0 < c < 1.0:
        raise HypothesisError(f"c must lie in (0, 1), got {c}")
    return _check(psi, grid, boundary_geom, delta, c)


def boundary_gradient_bound(psi_norms: PsiNorms, delta: float,
                            n: int) -> float:
    """Proved mu = 1 ceiling for sup|Df| on the boundary along the flow.

    Returns w/delta + |Dpsi| + 16 n (1+mu) delta |D^2 psi| with 1 + mu = 2,
    the left-hand side of the solvability conditions.
    """
    return (psi_norms.w / delta + psi_norms.sup_dpsi
            + 32.0 * n * delta * psi_norms.sup_d2psi)


def barrier_nu(omega_A: float, delta: float, c0: float, n: int,
               sup_d2psi_A: float) -> float:
    """Log-barrier weight in the mu = 1 boundary gradient estimate.

    nu = 4 (1+mu) delta^2 / (1 - 4 c0 (1+mu) delta)
         * (c0 omega^A / delta + n |D^2 psi^A|)   with 1 + mu = 2.
    The denominator must stay positive, which delta <= delta0 guarantees.
    """
    denom = 1.0 - 8.0 * c0 * delta
    if denom <= 0.0:
        raise HypothesisError(
            f"barrier weight undefined: 1 - 8 c0 delta = {denom} <= 0")
    return (8.0 * delta ** 2 / denom
            * (c0 * omega_A / delta + n * sup_d2psi_A))
