"""Boundary map families, their norms, and the solvability checkers.

Each family carries exact analytic jets (value, Jacobian, Hessian) at any
point of R^n, so the Dirichlet data and its derivative norms are never
themselves approximated by differencing.  Sup-norms over a region are
estimated by lattice sampling at the working resolution plus one
refinement level, with a Richardson gap estimate added before comparing
against the solvability thresholds.  Lattice maxima are lower bounds and
the gap assumes second-order saturation, so these are estimates, not
certified bounds; certified bounds are ROADMAP item 2.

The two checkers share the same left-hand side structure

    w(psi)/delta + sup|Dpsi| + 32 n delta sup|D^2 psi|

with band norms (condition A, threshold 1) or global norms and threshold
1 - c (condition B).  The companion bound

    w(psi)/delta + sup|Dpsi| + 16 n (1+mu) delta sup|D^2 psi|

is the proved ceiling for the boundary gradient of the evolving graph;
at mu = 1 the two coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import BoundaryGeometry
from .grid import Grid, build_grid

# Fixed generator for direction sets: the checker is deterministic, these
# starting/verification directions are frozen program constants.
_DIRECTION_SEED = 20240601
_POWER_RESTARTS = 32
_POWER_ITERS = 60
_DENSE_DIRECTIONS = 10_000
_DENSE_MISMATCH_TOL = 1e-6


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
    passed: bool
    eps: float                # 1 - lhs; the strict length-decreasing margin
    c: float | None = None    # condition-B gap, None for condition A


def oscillation(psi, grid: Grid) -> float:
    """Largest per-component range of psi over the sampled closure of E."""
    vals = psi.values(grid.closure_points())
    return float(np.max(vals.max(axis=0) - vals.min(axis=0)))


def _sup_jacobian_norm(jac: np.ndarray) -> float:
    """sup over samples of the largest singular value of Dpsi."""
    if jac.shape[0] == 0:
        return 0.0
    return float(np.linalg.svd(jac, compute_uv=False)[:, 0].max())


def _direction_set(n: int, count: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(_DIRECTION_SEED))
    dirs = rng.standard_normal((count, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs


def _dense_checked(hess_pt: np.ndarray, value: float) -> float:
    """value, cross-checked against a dense direction sample at one point.

    The sampled max_tau |D^2 psi(tau, tau)| may only beat value by
    rounding; a larger gap means the direction search failed and aborts
    the check.
    """
    taus = _direction_set(hess_pt.shape[-1], _DENSE_DIRECTIONS)
    q = np.einsum("Aij,ti,tj->tA", hess_pt, taus, taus)
    dense = np.linalg.norm(q, axis=1).max()
    if dense > value + _DENSE_MISMATCH_TOL:
        raise RuntimeError(
            f"directional Hessian norm search missed the dense-sample value "
            f"({value} vs {dense}); aborting the check")
    return float(max(value, dense))


def _sup_hessian_norm_planar(hess: np.ndarray) -> float:
    """Exact direction maximum for n = 2, all sample points at once.

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
    a, b, c = hess[:, :, 0, 0], hess[:, :, 0, 1], hess[:, :, 1, 1]
    alpha, beta, gamma = 0.5 * (a + c), 0.5 * (a - c), b
    p1c = 2.0 * (alpha * beta).sum(axis=1)
    p1s = 2.0 * (alpha * gamma).sum(axis=1)
    p2c = 0.5 * (beta * beta - gamma * gamma).sum(axis=1)
    p2s = (beta * gamma).sum(axis=1)
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
    q = (alpha[:, None, :] + beta[:, None, :] * np.cos(s)[:, :, None]
         + gamma[:, None, :] * np.sin(s)[:, :, None])
    best = np.linalg.norm(q, axis=2).max(axis=1)
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

    One component (m = 1, any n): the largest absolute Hessian eigenvalue.
    Two variables (n = 2, m >= 2): the exact maximum over the circle of
    directions, from the roots of a quartic (`_sup_hessian_norm_planar`).
    Otherwise (m >= 2, n != 2): a projected power iteration
    (`_sup_hessian_norm_iterative`).  Both m >= 2 paths cross-check the
    winning point against a dense direction sample.
    """
    B, m, n, _ = hess.shape
    if B == 0:
        return 0.0
    if m == 1:
        return float(np.abs(np.linalg.eigvalsh(hess[:, 0])).max())
    if n == 2:
        return _sup_hessian_norm_planar(hess)
    return _sup_hessian_norm_iterative(hess)


def sup_norms(psi, grid: Grid, delta: float | None = None) -> tuple[float, float]:
    """(sup|Dpsi|, sup|D^2 psi|) over the sampled region at one resolution."""
    pts = grid.closure_points(delta)
    _, jac, hess = psi.jets(pts)
    return _sup_jacobian_norm(jac), _sup_hessian_norm(hess)


def _richardson(coarse: float, fine: float) -> float:
    """Sup estimate from nested lattice samples (not a certified bound).

    Lattice maxima are lower bounds that grow under refinement; assuming
    second-order saturation the residual gap is a third of the observed
    increment.
    """
    return fine + max(0.0, fine - coarse) / 3.0


def collect_norms(psi, grid: Grid, delta: float | None = None,
                  fine_grid: Grid | None = None) -> PsiNorms:
    """Oscillation plus derivative sup-norms with the refinement safety pass."""
    if fine_grid is None:
        fine_grid = build_grid(grid.spec, grid.h / 2.0)
    w_c = oscillation(psi, grid)
    w_f = oscillation(psi, fine_grid)
    d1_c, d2_c = sup_norms(psi, grid, delta)
    d1_f, d2_f = sup_norms(psi, fine_grid, delta)
    return PsiNorms(w=_richardson(w_c, w_f),
                    sup_dpsi=_richardson(d1_c, d1_f),
                    sup_d2psi=_richardson(d2_c, d2_f))


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


def check_condition_A(psi, grid: Grid, boundary_geom: BoundaryGeometry,
                      delta: float) -> HypothesisReport:
    """Small-oscillation solvability check with band norms.

    lhs = max(w/delta + sup_band|Dpsi| + 32 n delta sup_band|D^2 psi|,
              sup_global|Dpsi|); passes iff lhs < 1.
    """
    d0 = delta0(boundary_geom, mu=1.0)
    if not 0.0 < delta < d0:
        raise HypothesisError(f"delta = {delta} outside the admissible (0, {d0})")
    n = grid.n
    fine = build_grid(grid.spec, grid.h / 2.0)
    band = collect_norms(psi, grid, delta, fine_grid=fine)
    # only the first-derivative sup is needed globally; w is the same
    # closure-wide oscillation the band call already measured
    d1_c, d1_f = (_sup_jacobian_norm(psi.jets(g.closure_points())[1])
                  for g in (grid, fine))
    glob_dpsi = _richardson(d1_c, d1_f)
    lhs = max(band.w / delta + band.sup_dpsi + 32.0 * n * delta * band.sup_d2psi,
              glob_dpsi)
    return HypothesisReport(
        condition="A", w_psi=band.w, sup_dpsi_band=band.sup_dpsi,
        sup_d2psi_band=band.sup_d2psi, sup_dpsi_global=glob_dpsi,
        delta=delta, delta0=d0, lhs_condition=lhs, passed=lhs < 1.0,
        eps=1.0 - lhs)


def check_condition_B(psi, grid: Grid, boundary_geom: BoundaryGeometry,
                      delta: float, c: float) -> HypothesisReport:
    """Exterior-problem variant: global norms, threshold 1 - c."""
    if not 0.0 < c < 1.0:
        raise HypothesisError(f"c must lie in (0, 1), got {c}")
    d0 = delta0(boundary_geom, mu=1.0)
    if not 0.0 < delta < d0:
        raise HypothesisError(f"delta = {delta} outside the admissible (0, {d0})")
    n = grid.n
    glob = collect_norms(psi, grid, None)
    lhs = glob.w / delta + glob.sup_dpsi + 32.0 * n * delta * glob.sup_d2psi
    return HypothesisReport(
        condition="B", w_psi=glob.w, sup_dpsi_band=glob.sup_dpsi,
        sup_d2psi_band=glob.sup_d2psi, sup_dpsi_global=glob.sup_dpsi,
        delta=delta, delta0=d0, lhs_condition=lhs, passed=lhs < 1.0 - c,
        eps=1.0 - lhs, c=c)


def boundary_gradient_bound(psi_norms: PsiNorms, delta: float, mu: float,
                            n: int) -> float:
    """Proved ceiling for sup|Df| on the boundary along the flow.

    Returns w/delta + |Dpsi| + 16 n (1+mu) delta |D^2 psi|.
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


def make_boundary_map(family: str, dim: int, **kw):
    """Construct a boundary map family from configuration fields."""
    if family == "constant":
        return ConstantMap(kw["values"], dim)
    if family == "linear":
        return LinearMap(kw["matrix"], kw.get("offset"))
    if family == "polynomial":
        return PolynomialMap(kw["terms"], dim)
    if family == "trigonometric":
        return TrigMap(kw["amplitudes"], kw["wave_vectors"], kw.get("phases"))
    if family == "lawson_osserman_scaled":
        if dim != 4:
            raise ValueError("the scaled sphere map family needs dim = 4")
        return LawsonOssermanMap(kw["scale"])
    raise ValueError(f"unknown boundary map family {family!r}")
