"""Pointwise differential geometry of a graph in R^(n+m).

Everything in this module operates on a single second-order jet of a map
f: R^n -> R^m, i.e. the triple (value, Jacobian, Hessian) at one point,
together with the base position.  The graph x -> (x, f(x)) is a
n-dimensional submanifold of Euclidean R^(n+m); the routines below compute
its induced metric, singular values, projection factor *Omega,
strict-margin tensor minimum, mean curvature and the residuals of the
minimal-surface and self-shrinker systems.

The ambient metric is flat (all Christoffel symbols vanish), so second
derivatives of f are plain partial derivatives.  The matrices involved are
tiny (n, m <= 8); clarity wins over speed here.  The program's field
kernel has its own vectorized path; this module is the independent
pointwise reference the tests check that kernel against, and no program
module imports it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 8


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


def induced_metric(jet: PointJet) -> MetricPair:
    """Metric of the graph pulled back to the base: g = I + J^T J."""
    J = jet.jac
    g = np.eye(jet.n) + J.T @ J
    ginv = np.linalg.inv(g)
    detg = float(np.linalg.det(g))
    return MetricPair(g=g, ginv=ginv, detg=detg)


def singular_values(jet: PointJet) -> np.ndarray:
    """The n singular values of the differential, sorted descending.

    Zero-padded when m < n.  Taken from the SVD of J directly, which keeps
    small singular values to full relative accuracy.
    """
    lam = np.zeros(jet.n)
    sv = np.linalg.svd(jet.jac, compute_uv=False)
    lam[:sv.size] = sv
    return lam


def star_omega(lambdas: np.ndarray) -> float:
    """Jacobian of the projection of the graph onto the base.

    Equals 1 / sqrt(prod(1 + lambda_i^2)); lies in (0, 1] and stays
    positive exactly as long as the surface remains graphical.
    """
    lam = np.asarray(lambdas, dtype=float)
    return float(1.0 / np.sqrt(np.prod(1.0 + lam * lam)))


def p_tensor_min_eig(lambdas: np.ndarray, eps: float) -> float:
    """Smallest eigenvalue of the strict length-decreasing margin tensor.

    In the singular-value frame of J the tensor is diagonal with entries
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
