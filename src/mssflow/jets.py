"""Pointwise differential geometry of a graph in R^(n+m).

Everything in this module operates on a single second-order jet of a map
f: R^n -> R^m, i.e. the triple (value, Jacobian, Hessian) at one point,
together with the base position.  The graph x -> (x, f(x)) is a
n-dimensional submanifold of Euclidean R^(n+m); the routines below compute
its induced metric, singular-value frames, projection factor *Omega,
length-decreasing tensors, second fundamental form, mean curvature and
the residuals of the minimal-surface and self-shrinker systems.

The ambient metric is flat (all Christoffel symbols vanish), so second
derivatives of f are plain partial derivatives.  The matrices involved are
tiny (n, m <= 8); clarity and bit-reproducibility win over speed here.
The time-stepping code has its own vectorized path and uses this module
as the reference implementation in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 8

# Singular values below RANK_RTOL * max(1, lambda_max) count as rank drops;
# the corresponding frame directions are filled by deterministic completion.
RANK_RTOL = 1e-12

# Jacobi sweep control for the symmetric eigen-solver.
_JACOBI_TOL = 1e-15
_JACOBI_MAX_SWEEPS = 64


class JetError(ValueError):
    """Raised for malformed jets (bad shapes, asymmetric Hessian)."""


@dataclass(frozen=True)
class PointJet:
    """Second-order data of a map at one base point.

    x     : base position, shape (n,)
    value : f(x), shape (m,)
    jac   : J[A, i] = df^A/dx_i, shape (m, n)
    hess  : H[A, i, j] = d2 f^A / dx_i dx_j, shape (m, n, n), symmetric in (i, j)
    """

    x: np.ndarray
    value: np.ndarray
    jac: np.ndarray
    hess: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.value, dtype=float)
        J = np.asarray(self.jac, dtype=float)
        H = np.asarray(self.hess, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "jac", J)
        object.__setattr__(self, "hess", H)
        n, m = x.size, v.size
        if not (1 <= n <= MAX_DIM and 1 <= m <= MAX_DIM):
            raise JetError(f"dimensions out of range: n={n}, m={m}")
        if J.shape != (m, n):
            raise JetError(f"jac shape {J.shape} != ({m}, {n})")
        if H.shape != (m, n, n):
            raise JetError(f"hess shape {H.shape} != ({m}, {n}, {n})")
        if not np.isfinite(x).all() or not np.isfinite(v).all() \
                or not np.isfinite(J).all() or not np.isfinite(H).all():
            raise JetError("non-finite jet data")
        if np.abs(H - H.transpose(0, 2, 1)).max() > 1e-12 * max(1.0, np.abs(H).max()):
            raise JetError("hess not symmetric in its last two indices")

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def m(self) -> int:
        return self.value.size


@dataclass(frozen=True)
class MetricPair:
    """Induced metric g = I + J^T J, its inverse and determinant."""

    g: np.ndarray
    ginv: np.ndarray
    detg: float


@dataclass(frozen=True)
class SingularData:
    """Singular values of the Jacobian with adapted orthonormal frames.

    lambdas : n singular values, sorted descending, zero-padded
    u_frame : (n, n) orthogonal; column i is the base direction a_i
    v_frame : (m, m) orthogonal; column i is the target direction paired
              with a_i, so that  jac @ a_i = lambdas[i] * v_frame[:, i]
              for i below the rank and  jac @ a_i = 0 beyond it.
    """

    lambdas: np.ndarray
    u_frame: np.ndarray
    v_frame: np.ndarray


@dataclass(frozen=True)
class SecondFundamental:
    """Second fundamental form in the singular-value adapted frames.

    h[alpha, i, j] is the component of A(e_i, e_j) on the normal frame
    vector nu_alpha; normsq is the squared Frobenius norm sum(h^2).
    """

    h: np.ndarray
    normsq: float


def jacobi_eigh(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a small symmetric matrix by cyclic Jacobi sweeps.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending
    and eigenvector columns sign-fixed (first component of magnitude above
    1e-14 made positive).  Fully deterministic: fixed sweep order, fixed
    rotation convention, no pivot searches.
    """
    S = np.asarray(S, dtype=float)
    k = S.shape[0]
    A = S.copy()
    V = np.eye(k)
    scale = max(1.0, np.abs(A).max())
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = 0.0
        for p in range(k - 1):
            for q in range(p + 1, k):
                off = max(off, abs(A[p, q]))
        if off <= _JACOBI_TOL * scale:
            break
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq = A[p, q]
                if abs(apq) <= _JACOBI_TOL * scale:
                    continue
                # Classical rotation choosing the smaller angle.
                theta = 0.5 * (A[q, q] - A[p, p]) / apq
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta)) if theta != 0 \
                    else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                G = np.eye(k)
                G[p, p] = c
                G[q, q] = c
                G[p, q] = s
                G[q, p] = -s
                A = G.T @ A @ G
                V = V @ G
    evals = np.diag(A).copy()
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    V = V[:, order]
    for j in range(k):
        col = V[:, j]
        nz = np.nonzero(np.abs(col) > 1e-14)[0]
        if nz.size and col[nz[0]] < 0:
            V[:, j] = -col
    return evals, V


def induced_metric(jet: PointJet) -> MetricPair:
    """Metric of the graph pulled back to the base: g = I + J^T J."""
    J = jet.jac
    g = np.eye(jet.n) + J.T @ J
    ginv = np.linalg.inv(g)
    detg = float(np.linalg.det(g))
    return MetricPair(g=g, ginv=ginv, detg=detg)


def singular_values(jet: PointJet) -> SingularData:
    """Singular values and adapted frames of the differential.

    Computed from the symmetric eigen-problem of J^T J (Jacobi sweeps);
    target directions below the rank follow from v_i = J a_i / lambda_i,
    the rest complete an orthonormal basis of R^m deterministically.
    """
    J = jet.jac
    n, m = jet.n, jet.m
    evals, U = jacobi_eigh(J.T @ J)
    lam = np.sqrt(np.clip(evals, 0.0, None))
    lam_max = lam[0] if lam.size else 0.0
    thresh = RANK_RTOL * max(1.0, lam_max)
    rank = int(np.sum(lam >= thresh))
    lam = np.where(lam >= thresh, lam, 0.0)

    V = np.zeros((m, m))
    ncols = min(rank, m)
    for i in range(ncols):
        V[:, i] = (J @ U[:, i]) / lam[i]
    # Complete with canonical basis vectors, Gram-Schmidt in order.
    col = ncols
    for k in range(m):
        if col >= m:
            break
        w = np.zeros(m)
        w[k] = 1.0
        w -= V[:, :col] @ (V[:, :col].T @ w)
        nrm = np.linalg.norm(w)
        if nrm > 0.5:  # canonical vector not already spanned
            w /= nrm
            nz = np.nonzero(np.abs(w) > 1e-14)[0]
            if nz.size and w[nz[0]] < 0:
                w = -w
            V[:, col] = w
            col += 1
    return SingularData(lambdas=lam, u_frame=U, v_frame=V)


def star_omega(lambdas: np.ndarray) -> float:
    """Jacobian of the projection of the graph onto the base.

    Equals 1 / sqrt(prod(1 + lambda_i^2)); lies in (0, 1] and stays
    positive exactly as long as the surface remains graphical.
    """
    lam = np.asarray(lambdas, dtype=float)
    return float(1.0 / np.sqrt(np.prod(1.0 + lam * lam)))


def s_tensor_diag(lambdas: np.ndarray) -> np.ndarray:
    """Diagonal of the base-minus-fiber pullback tensor on the tangent frame.

    S_ii = (1 - lambda_i^2) / (1 + lambda_i^2); all entries positive
    exactly when the map is strictly length decreasing (max lambda < 1).
    """
    lam2 = np.asarray(lambdas, dtype=float) ** 2
    return (1.0 - lam2) / (1.0 + lam2)


def p_tensor_min_eig(lambdas: np.ndarray, eps: float) -> float:
    """Smallest eigenvalue of the strict length-decreasing margin tensor.

    In the adapted coordinate frame the tensor is diagonal with entries
    (1 - lambda_i^2) - eps' * (1 + lambda_i^2), where
    eps' = (1 - (1-eps)^2) / (1 + (1-eps)^2).  The minimum is positive iff
    every singular value stays strictly below 1 - eps.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    lam2 = np.asarray(lambdas, dtype=float) ** 2
    r = (1.0 - eps) ** 2
    eps_prime = (1.0 - r) / (1.0 + r)
    return float(np.min((1.0 - lam2) - eps_prime * (1.0 + lam2)))


def tangent_frame(jet: PointJet, sd: SingularData | None = None) -> np.ndarray:
    """Orthonormal tangent frame of the graph, as (n+m, n) columns."""
    if sd is None:
        sd = singular_values(jet)
    n, m = jet.n, jet.m
    E = np.zeros((n + m, n))
    for i in range(n):
        lam = sd.lambdas[i]
        s = np.sqrt(1.0 + lam * lam)
        E[:n, i] = sd.u_frame[:, i] / s
        if lam > 0.0 and i < m:
            E[n:, i] = lam * sd.v_frame[:, i] / s
    return E


def second_fundamental(jet: PointJet) -> SecondFundamental:
    """Second fundamental form components in the adapted frames.

    The ambient second derivative of the graph map is the vertical vector
    (0, H[., i, j]); its normal components, after rotating base indices
    into the singular frame and normalizing frame lengths, give
    h[alpha, i, j].
    """
    sd = singular_values(jet)
    n, m = jet.n, jet.m
    lam = sd.lambdas
    # Rotate Hessian into the adapted bases: target with V, base twice with U.
    Hrot = np.einsum("Ab,Aij,ip,jq->bpq", sd.v_frame, jet.hess,
                     sd.u_frame, sd.u_frame)
    s_base = np.sqrt(1.0 + lam * lam)
    lam_t = np.array([lam[a] if a < n else 0.0 for a in range(m)])
    s_tgt = np.sqrt(1.0 + lam_t * lam_t)
    h = Hrot / (s_tgt[:, None, None] * s_base[None, :, None] * s_base[None, None, :])
    return SecondFundamental(h=h, normsq=float(np.sum(h * h)))


def mss_residual(jet: PointJet) -> np.ndarray:
    """Residual of the minimal surface system: R^A = g^{ij} H[A, i, j]."""
    mp = induced_metric(jet)
    return np.einsum("ij,Aij->A", mp.ginv, jet.hess)


def mean_curvature(jet: PointJet) -> tuple[np.ndarray, float]:
    """Mean curvature vector of the graph and its squared norm.

    The vector (0, g^{ij} H[., i, j]) in R^(n+m) is projected onto the
    normal bundle by removing its tangential part; the tangent space is
    spanned by the columns of B = [I; J].
    """
    mp = induced_metric(jet)
    R = np.einsum("ij,Aij->A", mp.ginv, jet.hess)
    w = mp.ginv @ (jet.jac.T @ R)
    H_vec = np.concatenate([-w, R - jet.jac @ w])
    normsq = float(R @ R - (jet.jac.T @ R) @ w)
    return H_vec, normsq


def shrinker_residual(jet: PointJet, c: float) -> np.ndarray:
    """Residual of the c-minimal system: H + (c/2) * Fperp.

    F = (x, f(x)) is the position of the graph point and Fperp its
    projection onto the normal bundle.  c = 0 recovers the mean curvature
    vector, c = 1 the self-shrinker equation.
    """
    if c < 0:
        raise ValueError(f"c must be non-negative, got {c}")
    mp = induced_metric(jet)
    H_vec, _ = mean_curvature(jet)
    F = np.concatenate([jet.x, jet.value])
    w = mp.ginv @ (jet.x + jet.jac.T @ jet.value)
    F_tan = np.concatenate([w, jet.jac @ w])
    return H_vec + 0.5 * c * (F - F_tan)
