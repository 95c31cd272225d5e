"""Boundary map families, their norms, and the solvability checkers.

Each family carries exact analytic jets (value, Jacobian, Hessian) at any
point of R^n, so the Dirichlet data and its derivative norms are never
themselves approximated by differencing.

`sup_norms` is the only place that samples the data on a grid: one jets
call over the closure sample of a `grid.Closure` gives the oscillation,
the band sup-norms and the global sup|Dpsi|.  The checker calls it on the
flow grid and on a closure at h/2 and adds a Richardson gap estimate to
each figure.  The h/2 pass builds only the closure (`build_closure`: the
lattice, its classification and the boundary crossings), never the
stencil arms of a flow grid.  Lattice maxima are lower bounds and the
gap assumes second-order saturation, so these are estimates, not
certified bounds; certified bounds (ROADMAP item 2) replace the
reductions inside `sup_norms`.

Each reduction there is a per-point spectral quantity and its maximum
(sup|Dpsi| by svd, sup|D^2 psi| by eigvalsh for m = 1 and by a batched
companion eigensolve for n = 2), and so are the barrier weight of
`flow.FlowMonitors` and the far-field table of the exterior driver.  All
of them screen first (`_screened`): cheap certified per-point upper and
lower bounds drop every point that cannot hold the maximum, and LAPACK
runs, unchanged, on the rest.  It solves each matrix of a batch on its
own, so the winning value and every printed figure are bit-identical to
an unscreened pass; for the same reason a surviving stack whose matrices
are all bitwise equal (linear data ties every Jacobian) reaches LAPACK as
one matrix.  The m >= 2 Hessian maxima cross-check their winning point
against a dense direction sample, drawn once per (n, count) and never
for a zero Hessian, whose sample is zero.

Conditions A and B are one rule: the proved mu = 1 ceiling for the
boundary gradient of the evolving graph (`boundary_gradient_bound`),
taken with the global sup|Dpsi|, must stay below a threshold.  Condition
A uses the delta band and threshold 1; condition B, for exterior
problems, the whole closure and threshold 1 - c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .domains import BoundaryGeometry
# build_grid is not called here, but perfbench's tracer wraps it by name as
# boundary.build_grid (and a tier-1 test checks that it finds it)
from .grid import Closure, Grid, build_closure, build_grid  # noqa: F401

# Fixed generator for direction sets: the checker is deterministic, these
# starting/verification directions are frozen program constants.
_DIRECTION_SEED = 20240601
_POWER_RESTARTS = 32
_POWER_ITERS = 60
_DENSE_DIRECTIONS = 10_000
_DENSE_MISMATCH_TOL = 1e-6
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

class ConstantMap:
    family = "constant"

    def __init__(self, values, dim):
        self.c = np.asarray(values, float)
        self.n = int(dim)
        self.m = self.c.size

    def values(self, pts):
        pts = np.atleast_2d(pts)
        return np.broadcast_to(self.c, (pts.shape[0], self.m)).copy()

    def jets(self, pts):
        pts = np.atleast_2d(pts)
        B = pts.shape[0]
        return (self.values(pts), np.zeros((B, self.m, self.n)),
                np.zeros((B, self.m, self.n, self.n)))


class LinearMap:
    family = "linear"

    def __init__(self, matrix, offset=None):
        self.A = np.atleast_2d(np.asarray(matrix, float))
        self.m, self.n = self.A.shape
        self.b = np.zeros(self.m) if offset is None else np.asarray(offset, float)
        if self.b.shape != (self.m,):
            raise ValueError("need one offset per component")

    def values(self, pts):
        return np.atleast_2d(pts) @ self.A.T + self.b

    def jets(self, pts):
        pts = np.atleast_2d(pts)
        B = pts.shape[0]
        jac = np.broadcast_to(self.A, (B, self.m, self.n)).copy()
        return self.values(pts), jac, np.zeros((B, self.m, self.n, self.n))


class PolynomialMap:
    """Component-wise multivariate polynomials of total degree <= 4.

    terms: list (one entry per component) of (coeffs, exponents) pairs,
    coeffs shape (T,), exponents shape (T, n) of non-negative ints.
    """

    family = "polynomial"

    def __init__(self, terms, dim):
        self.n = int(dim)
        self.terms = []
        for coeffs, expos in terms:
            coeffs = np.asarray(coeffs, float)
            expos = np.asarray(expos, int).reshape(coeffs.size, self.n)
            if expos.min() < 0 or expos.sum(axis=1).max() > 4:
                raise ValueError("polynomial terms must have total degree <= 4")
            self.terms.append((coeffs, expos))
        self.m = len(self.terms)

    @staticmethod
    def _pow(pts, expos):
        # x^e with the convention 0^0 = 1
        out = np.ones(pts.shape[0])
        for i in range(pts.shape[1]):
            e = expos[i]
            if e:
                out = out * pts[:, i] ** e
        return out

    def values(self, pts):
        pts = np.atleast_2d(pts)
        vals = np.zeros((pts.shape[0], self.m))
        for A, (coeffs, expos) in enumerate(self.terms):
            for c, e in zip(coeffs, expos):
                vals[:, A] += c * self._pow(pts, e)
        return vals

    def jets(self, pts):
        pts = np.atleast_2d(pts)
        B = pts.shape[0]
        vals = self.values(pts)
        jac = np.zeros((B, self.m, self.n))
        hess = np.zeros((B, self.m, self.n, self.n))
        for A, (coeffs, expos) in enumerate(self.terms):
            for c, e in zip(coeffs, expos):
                for i in range(self.n):
                    if e[i] == 0:
                        continue
                    ei = e.copy()
                    ei[i] -= 1
                    jac[:, A, i] += c * e[i] * self._pow(pts, ei)
                    for j in range(self.n):
                        fac = e[i] * (e[j] if j != i else e[i] - 1)
                        if fac == 0:
                            continue
                        eij = ei.copy()
                        eij[j] -= 1
                        hess[:, A, i, j] += c * fac * self._pow(pts, eij)
        return vals, jac, hess


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

    def values(self, pts):
        arg = np.atleast_2d(pts) @ self.k.T + self.phase
        return self.amp * np.sin(arg)

    def jets(self, pts):
        pts = np.atleast_2d(pts)
        arg = pts @ self.k.T + self.phase
        vals = self.amp * np.sin(arg)
        jac = (self.amp * np.cos(arg))[:, :, None] * self.k[None, :, :]
        kk = self.k[:, :, None] * self.k[:, None, :]
        hess = -(vals)[:, :, None, None] * kk[None]
        return vals, jac, hess


class LawsonOssermanMap:
    """Scaled quadratic extension of the classical sphere-to-sphere map.

    psi(x) = R * (x1^2 + x2^2 - x3^2 - x4^2,
                  2 (x1 x3 + x2 x4),
                  2 (x2 x3 - x1 x4)),
    whose restriction to the unit 3-sphere is the Hopf fibration scaled
    by R.  Large R drives the oscillation past the solvable regime.
    """

    family = "lawson_osserman_scaled"
    n = 4
    m = 3

    def __init__(self, scale):
        self.scale = float(scale)
        Q = np.zeros((3, 4, 4))
        Q[0] = np.diag([1.0, 1.0, -1.0, -1.0])
        Q[1, 0, 2] = Q[1, 2, 0] = 1.0
        Q[1, 1, 3] = Q[1, 3, 1] = 1.0
        Q[2, 1, 2] = Q[2, 2, 1] = 1.0
        Q[2, 0, 3] = Q[2, 3, 0] = -1.0
        self._Q = Q * self.scale

    def values(self, pts):
        pts = np.atleast_2d(pts)
        return np.einsum("bi,Aij,bj->bA", pts, self._Q, pts)

    def jets(self, pts):
        pts = np.atleast_2d(pts)
        vals = self.values(pts)
        jac = 2.0 * np.einsum("Aij,bj->bAi", self._Q, pts)
        hess = np.broadcast_to(2.0 * self._Q, (pts.shape[0], 3, 4, 4)).copy()
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


@dataclass(frozen=True)
class HypothesisReport:
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
    c: float | None = None    # condition-B gap, None for condition A


def _screened(exact, mats: np.ndarray, upper: np.ndarray,
              lower: np.ndarray, band: np.ndarray | None = None) -> np.ndarray:
    """exact(mats) per point, computed only where a point can hold the max.

    upper and lower are certified per-point bounds on the exact value.  A
    point whose upper bound lies below the largest lower bound (of the
    band for band rows when band is given, of all rows otherwise), less
    _SCREEN_SLACK relative, cannot hold the maximum and keeps its lower
    bound, strictly below that maximum.  Every other point goes to exact,
    which sees the same matrices whatever the batch (LAPACK solves each on
    its own), so the maxima of the result are the unscreened ones bit for
    bit, also when a stack of equal matrices sends only its first.
    """
    live = _live(mats, upper, lower)
    if band is not None:
        live[band] |= _live(mats[band], upper[band], lower[band])
    out = lower.copy()
    if live.any():
        sub = mats[live]
        bits = sub.view(np.uint8)
        # a stack of bitwise-equal matrices (linear data) is solved once
        out[live] = exact(sub[:1]) if (bits == bits[:1]).all() else exact(sub)
    return out


def _live(mats, upper, lower) -> np.ndarray:
    """Points whose upper bound can reach the best lower bound."""
    floor = lower.max(initial=0.0)
    if _SCREEN_RANGE[0] <= floor <= _SCREEN_RANGE[1]:
        return ~(upper < floor * (1.0 - _SCREEN_SLACK))
    # nothing to screen against: keep every point but the exact zeros
    return mats.any(axis=tuple(range(1, mats.ndim)))


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
    return _screened(lambda a: np.linalg.svd(a, compute_uv=False)[:, 0],
                     mats, upper, lower, band)


def top_abs_eigenvalues(sym: np.ndarray) -> np.ndarray:
    """Largest |eigenvalue| of each symmetric (B, n, n) matrix, screened.

    Exact (LAPACK eigvalsh) wherever a matrix can hold the maximum over
    all rows, a lower bound below it elsewhere; as `top_singular_values`.
    """
    upper, lower = _norm2_bounds(sym)
    return _screened(lambda a: np.abs(np.linalg.eigvalsh(a)).max(axis=1),
                     sym, upper, lower)


@cache
def _direction_set(n: int, count: int) -> np.ndarray:
    """count seeded unit directions in R^n, read-only.

    Drawn on first use, not at import: numpy.random costs a fresh process
    about 15 ms to import, and only the m >= 2 checks on a nonzero
    Hessian read the set.
    """
    rng = np.random.Generator(np.random.PCG64(_DIRECTION_SEED))
    dirs = rng.standard_normal((count, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs.setflags(write=False)
    return dirs


def _dense_checked(hess_pt: np.ndarray, value: float) -> float:
    """value, cross-checked against a dense direction sample at one point.

    The sampled max_tau |D^2 psi(tau, tau)| may only beat value by
    rounding; a larger gap means the direction search failed and aborts
    the check.  A zero Hessian has a zero dense sample, so it draws none.
    """
    if not hess_pt.any():
        return float(max(value, 0.0))
    taus = _direction_set(hess_pt.shape[-1], _DENSE_DIRECTIONS)
    q = np.einsum("Aij,ti,tj->tA", hess_pt, taus, taus)
    dense = np.linalg.norm(q, axis=1).max()
    if dense > value + _DENSE_MISMATCH_TOL * dense:
        raise RuntimeError(
            f"directional Hessian norm search missed the dense-sample value "
            f"({value} vs {dense}); aborting the check")
    return float(max(value, dense))


def _planar_coefficients(hess: np.ndarray):
    """alpha, beta, gamma (B, m) and P1c, P1s, P2c, P2s (B,) for n = 2."""
    a, b, c = hess[:, :, 0, 0], hess[:, :, 0, 1], hess[:, :, 1, 1]
    alpha, beta, gamma = 0.5 * (a + c), 0.5 * (a - c), b
    p1c = 2.0 * (alpha * beta).sum(axis=1)
    p1s = 2.0 * (alpha * gamma).sum(axis=1)
    p2c = 0.5 * (beta * beta - gamma * gamma).sum(axis=1)
    p2s = (beta * gamma).sum(axis=1)
    return alpha, beta, gamma, p1c, p1s, p2c, p2s


def _planar_values(alpha, beta, gamma, s: np.ndarray) -> np.ndarray:
    """|q(s)| at the angles s (B, S) of each point, (B, S)."""
    q = (alpha[:, None, :] + beta[:, None, :] * np.cos(s)[:, :, None]
         + gamma[:, None, :] * np.sin(s)[:, :, None])
    return np.linalg.norm(q, axis=2)


def _planar_direction_max(hess: np.ndarray) -> np.ndarray:
    """Exact direction maximum for n = 2 at each sample point, (B,).

    With tau = (cos t, sin t) and s = 2t each component is
    q_A(s) = alpha_A + beta_A cos s + gamma_A sin s, so
    |q|^2 = P0 + P1c cos s + P1s sin s + P2c cos 2s + P2s sin 2s.  Its
    critical points are the angles of the roots of
    c4 z^4 + c3 z^3 + conj(c3) z + conj(c4) (z = e^{is}), found as the
    eigenvalues of a batched companion matrix.  Where c4 is negligible
    against c3 the quartic degenerates and the maximum sits at
    atan2(P1s, P1c), which is always evaluated too.  Roots off the unit
    circle only add angles whose values cannot exceed the maximum.
    """
    B = hess.shape[0]
    alpha, beta, gamma, p1c, p1s, p2c, p2s = _planar_coefficients(hess)
    c4 = 2.0 * p2s + 2.0j * p2c
    c3 = p1s + 1j * p1c
    # z^4 + 1 stands in where the leading coefficient would blow up
    flat = np.abs(c4) <= 1e-12 * np.abs(c3)
    c4 = np.where(flat, 1.0, c4)
    c3 = np.where(flat, 0.0, c3)
    comp = np.zeros((B, 4, 4), complex)
    comp[:, 0, 0] = -c3 / c4
    comp[:, 0, 2] = -np.conj(c3) / c4
    comp[:, 0, 3] = -np.conj(c4) / c4
    comp[:, 1, 0] = comp[:, 2, 1] = comp[:, 3, 2] = 1.0
    s = np.concatenate([np.angle(np.linalg.eigvals(comp)),
                        np.arctan2(p1s, p1c)[:, None]], axis=1)   # (B, 5)
    return _planar_values(alpha, beta, gamma, s).max(axis=1)


def _sup_hessian_norm_planar(hess: np.ndarray) -> float:
    """Exact direction maximum for n = 2 over all sample points.

    Screened (`_screened`): |q|^2 <= P0 + |(P1c, P1s)| + |(P2c, P2s)| at
    every angle, with P0 = sum_A alpha_A^2 + (beta_A^2 + gamma_A^2) / 2,
    and |q| at atan2(P1s, P1c), an angle the exact pass also evaluates, is
    a lower bound, so only the points that can hold the maximum reach the
    companion eigensolve of `_planar_direction_max`.
    """
    alpha, beta, gamma, p1c, p1s, p2c, p2s = _planar_coefficients(hess)
    p0 = (alpha * alpha + 0.5 * (beta * beta + gamma * gamma)).sum(axis=1)
    upper = np.sqrt(p0 + np.hypot(p1c, p1s) + np.hypot(p2c, p2s))
    lower = _planar_values(alpha, beta, gamma,
                           np.arctan2(p1s, p1c)[:, None])[:, 0]
    best = _screened(_planar_direction_max, hess, upper, lower)
    winner = int(np.argmax(best))
    return _dense_checked(hess[winner], best[winner])


def _sup_hessian_norm_iterative(hess: np.ndarray) -> float:
    """Projected power iteration for the direction maximum, any n.

    The stacked quadratic forms are iterated from a fixed set of restarts
    (the component eigenvectors plus seeded directions); the winning point
    is cross-checked against a dense direction sample.
    """
    B, m, n, _ = hess.shape
    evals, evecs = np.linalg.eigh(hess)   # (B, m, n), (B, m, n, n)
    # Candidate starts (eigenvectors of the component forms) double as a
    # lower bound; points whose crude upper bound sqrt(sum_A max|eig|^2)
    # cannot reach it are pruned before the iteration, and so are points
    # where every form vanishes (upper == 0, so q is identically zero).
    cand = evecs.transpose(0, 1, 3, 2).reshape(B, n * m, n)
    qc = np.einsum("bAij,bsi,bsj->bsA", hess, cand, cand)
    floor = float(np.linalg.norm(qc, axis=2).max())
    upper = np.sqrt((np.abs(evals).max(axis=2) ** 2).sum(axis=1))
    live = np.nonzero((upper > 0.0) & (upper >= floor - 1e-15))[0]
    if live.size == 0:
        return floor

    sub = hess[live]
    fixed = np.vstack([np.eye(n),
                       _direction_set(n, max(_POWER_RESTARTS - n, 1))])
    fixed = np.broadcast_to(fixed[:_POWER_RESTARTS],
                            (live.size, min(_POWER_RESTARTS, fixed.shape[0]), n))
    tau = np.concatenate([cand[live], fixed], axis=1)
    for _ in range(_POWER_ITERS):
        q = np.einsum("bAij,bsi,bsj->bsA", sub, tau, tau)
        grad = np.einsum("bsA,bAij,bsj->bsi", q, sub, tau)
        nrm = np.linalg.norm(grad, axis=2, keepdims=True)
        tau = np.where(nrm > 1e-30, grad / np.where(nrm == 0, 1.0, nrm), tau)
    q = np.einsum("bAij,bsi,bsj->bsA", sub, tau, tau)
    best = np.linalg.norm(q, axis=2).max(axis=1)

    winner = int(np.argmax(best))
    return max(_dense_checked(sub[winner], best[winner]), floor)


def _sup_hessian_norm(hess: np.ndarray) -> float:
    """sup over samples of max_{|tau|=1} |D^2 psi(tau, tau)| (vector norm).

    One component (m = 1, any n): the largest absolute Hessian eigenvalue
    (`top_abs_eigenvalues`).  Two variables (n = 2, m >= 2): the exact
    maximum over the circle of directions, from the roots of a quartic
    (`_sup_hessian_norm_planar`).  These two screen points before LAPACK
    and return the unscreened value bit for bit.  Otherwise (m >= 2,
    n != 2): a projected power iteration (`_sup_hessian_norm_iterative`).
    Both m >= 2 paths cross-check the winning point against a dense
    direction sample.
    """
    B, m, n, _ = hess.shape
    if B == 0:
        return 0.0
    if m == 1:
        return float(top_abs_eigenvalues(hess[:, 0]).max())
    if n == 2:
        return _sup_hessian_norm_planar(hess)
    return _sup_hessian_norm_iterative(hess)


def sup_norms(psi, grid: Closure, delta: float | None) -> tuple[PsiNorms, float]:
    """Band norms and the global sup|Dpsi| of psi at one resolution.

    One jets call over grid.closure_points() feeds every figure.  w is the
    largest per-component range over the whole closure; the derivative
    sup-norms of the PsiNorms run over grid.closure_band_mask(delta), the
    second element over every row.
    """
    vals, jac, hess = psi.jets(grid.closure_points())
    band = grid.closure_band_mask(delta)
    w = float(np.max(vals.max(axis=0) - vals.min(axis=0)))
    d1 = top_singular_values(jac, None if delta is None else band)
    # the Hessian reduction sets the memory peak: free the rest first, and
    # copy out the band only when it is not the whole closure
    del vals, jac
    if delta is not None:
        hess = hess[band]
    norms = PsiNorms(w=w, sup_dpsi=float(d1[band].max(initial=0.0)),
                     sup_d2psi=_sup_hessian_norm(hess))
    return norms, float(d1.max(initial=0.0))


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

def delta0(boundary_geom: BoundaryGeometry, mu: float) -> float:
    """Admissible band-width ceiling for the boundary gradient barrier."""
    if mu < 0:
        raise HypothesisError(f"mu must be non-negative, got {mu}")
    c0, eta0 = boundary_geom.c0, boundary_geom.eta0
    if c0 == 0.0:
        return eta0
    return 0.5 * min(1.0 / (8.0 * c0 * (1.0 + mu)), eta0)


def _check(psi, grid: Grid, boundary_geom: BoundaryGeometry, delta: float,
           c: float | None) -> HypothesisReport:
    """The solvability rule shared by conditions A (c None) and B.

    lhs = max(boundary_gradient_bound(band norms, delta, 1, n),
              sup_global|Dpsi|) over the delta band for A and over the
    whole closure for B (where the max is the first term); passes iff
    lhs < 1 - c, with c = 0 for A.  The first term is also reported as
    boundary_bound, the ceiling of the flow's boundary-gradient clause.
    """
    d0 = delta0(boundary_geom, mu=1.0)
    if not 0.0 < delta < d0:
        raise HypothesisError(f"delta = {delta} outside the admissible (0, {d0})")
    fine = build_closure(grid.spec, grid.h / 2.0)
    band_delta = delta if c is None else None
    (band_c, glob_c), (band_f, glob_f) = (sup_norms(psi, g, band_delta)
                                          for g in (grid, fine))
    band = PsiNorms(w=_richardson(band_c.w, band_f.w),
                    sup_dpsi=_richardson(band_c.sup_dpsi, band_f.sup_dpsi),
                    sup_d2psi=_richardson(band_c.sup_d2psi, band_f.sup_d2psi))
    glob_dpsi = _richardson(glob_c, glob_f)
    bound = boundary_gradient_bound(band, delta, 1.0, grid.n)
    lhs = max(bound, glob_dpsi)
    return HypothesisReport(
        condition="A" if c is None else "B", w_psi=band.w,
        sup_dpsi_band=band.sup_dpsi, sup_d2psi_band=band.sup_d2psi,
        sup_dpsi_global=glob_dpsi, delta=delta, delta0=d0, lhs_condition=lhs,
        boundary_bound=bound, passed=lhs < 1.0 - (0.0 if c is None else c), eps=1.0 - lhs, c=c)


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


def boundary_gradient_bound(psi_norms: PsiNorms, delta: float, mu: float,
                            n: int) -> float:
    """Proved ceiling for sup|Df| on the boundary along the flow.

    Returns w/delta + |Dpsi| + 16 n (1+mu) delta |D^2 psi|; at mu = 1 it
    is the left-hand side of the solvability conditions.
    """
    return (psi_norms.w / delta + psi_norms.sup_dpsi
            + 16.0 * n * (1.0 + mu) * delta * psi_norms.sup_d2psi)


def barrier_nu(omega_A: float, delta: float, mu: float, c0: float, n: int,
               sup_d2psi_A: float) -> float:
    """Log-barrier weight in the boundary gradient estimate.

    nu = 4 (1+mu) delta^2 / (1 - 4 c0 (1+mu) delta)
         * (c0 omega^A / delta + n |D^2 psi^A|).
    The denominator must stay positive, which delta <= delta0 guarantees.
    """
    denom = 1.0 - 4.0 * c0 * (1.0 + mu) * delta
    if denom <= 0.0:
        raise HypothesisError(
            f"barrier weight undefined: 1 - 4 c0 (1+mu) delta = {denom} <= 0")
    return (4.0 * (1.0 + mu) * delta ** 2 / denom
            * (c0 * omega_A / delta + n * sup_d2psi_A))
