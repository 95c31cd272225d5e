"""Pointwise geometry oracles: metric, singular values, curvature, residuals."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference as jets
from mssflow.oracles import SphereCapMap
from reference import ScherkMap


def make_jet(x, value, jac, hess):
    return jets.PointJet(x=np.asarray(x, float), value=np.asarray(value, float),
                         jac=np.asarray(jac, float), hess=np.asarray(hess, float))


def random_jet(rng, n, m, scale=1.0):
    H = rng.uniform(-1, 1, (m, n, n))
    H = 0.5 * (H + H.transpose(0, 2, 1))
    return make_jet(rng.uniform(-1, 1, n), rng.uniform(-1, 1, m),
                    scale * rng.uniform(-1, 1, (m, n)), H)


def zero_jet(n, m, jac=None):
    J = np.zeros((m, n)) if jac is None else np.asarray(jac, float)
    return make_jet(np.zeros(n), np.zeros(m), J, np.zeros((m, n, n)))


# ---------------------------------------------------------------------------
# induced metric
# ---------------------------------------------------------------------------

def test_metric_identity_for_zero_jacobian():
    for n, m in [(1, 1), (2, 2), (3, 1), (2, 5)]:
        mp = jets.induced_metric(zero_jet(n, m))
        np.testing.assert_allclose(mp.g, np.eye(n), atol=0)
        assert mp.detg == 1.0


def test_metric_direct_substitution():
    mp = jets.induced_metric(zero_jet(2, 1, jac=[[0.5, 0.0]]))
    np.testing.assert_allclose(mp.g, [[1.25, 0.0], [0.0, 1.0]], atol=0)
    np.testing.assert_allclose(mp.detg, 1.25, rtol=1e-15)


def test_metric_eigenvalues_are_one_plus_lambda_sq():
    # oracle: brute-force eigendecomposition of J^T J
    rng = np.random.default_rng(7)
    for _ in range(200):
        n, m = rng.integers(1, 5), rng.integers(1, 5)
        jet = random_jet(rng, n, m)
        eig_g = np.sort(np.linalg.eigvalsh(jets.induced_metric(jet).g))
        lam = np.sort(jets.singular_values(jet))
        np.testing.assert_allclose(eig_g, 1.0 + lam ** 2, atol=1e-10)


def test_metric_sandwich_bounds():
    # 1000 random jets: (1+|Df|^2) I >= g >= I and the inverse chain
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n, m = rng.integers(1, 4), rng.integers(1, 4)
        jet = random_jet(rng, n, m)
        mp = jets.induced_metric(jet)
        df_sq = jets.singular_values(jet)[0] ** 2
        eg = np.linalg.eigvalsh(mp.g)
        assert eg.min() >= 1.0 - 1e-10
        assert eg.max() <= 1.0 + df_sq + 1e-10
        eginv = np.linalg.eigvalsh(mp.ginv)
        assert eginv.max() <= 1.0 + 1e-10
        assert eginv.min() >= 1.0 / (1.0 + df_sq) - 1e-10
        np.testing.assert_allclose(mp.g @ mp.ginv, np.eye(n), atol=1e-12)


# ---------------------------------------------------------------------------
# singular values
# ---------------------------------------------------------------------------

def test_singular_values_diagonal_case():
    lam = jets.singular_values(zero_jet(2, 2, jac=np.diag([0.3, 0.4])))
    np.testing.assert_allclose(lam, [0.4, 0.3], atol=1e-14)


def test_singular_values_rank_one_char_poly_oracle():
    # J^T J = [[1,1],[1,1]] has eigenvalues mu^2 - 2 mu = 0 -> {2, 0}
    J = np.array([[1.0, 1.0], [0.0, 0.0]])
    tr = (J.T @ J).trace()
    det = np.linalg.det(J.T @ J)
    mu = np.roots([1.0, -tr, det])
    expected = np.sort(np.sqrt(np.clip(mu.real, 0, None)))[::-1]
    lam = jets.singular_values(zero_jet(2, 2, jac=J))
    np.testing.assert_allclose(lam, expected, atol=1e-12)


def test_singular_values_zero_map():
    lam = jets.singular_values(zero_jet(3, 2))
    assert lam.shape == (3,)
    np.testing.assert_allclose(lam, 0.0, atol=0)


# ---------------------------------------------------------------------------
# scalar tensors
# ---------------------------------------------------------------------------

def test_star_omega_values():
    assert jets.star_omega(np.zeros(3)) == 1.0
    assert jets.star_omega([1.0, 1.0]) == 0.5
    np.testing.assert_allclose(jets.star_omega([0.5, 0.0]),
                               1.0 / np.sqrt(1.25), rtol=1e-15)


@given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6))
def test_star_omega_matches_product_formula(lams):
    lam = np.array(lams)
    w = jets.star_omega(lam)
    assert 0.0 < w <= 1.0
    assert abs(w * np.sqrt(np.prod(1.0 + lam ** 2)) - 1.0) <= 1e-12


def test_p_tensor_worked_values():
    np.testing.assert_allclose(jets.p_tensor_min_eig([0.0, 0.0], 0.5), 0.4,
                               rtol=1e-14)
    # definitional boundary: lambda = 1 - eps gives exactly zero
    for eps in (0.1, 0.3, 0.7):
        assert abs(jets.p_tensor_min_eig([1.0 - eps], eps)) <= 1e-14
    assert jets.p_tensor_min_eig([0.2, 0.1], 0.3) > 0.0


@given(st.floats(1e-3, 0.999), st.floats(0.0, 0.999))
def test_p_tensor_positive_iff_strict_margin(eps, frac):
    lam = frac * (1.0 - eps)
    assert jets.p_tensor_min_eig([lam], eps) > 0.0
    assert jets.p_tensor_min_eig([(1.0 - eps) + 0.5 * eps], eps) < 0.0


# ---------------------------------------------------------------------------
# residual and curvature
# ---------------------------------------------------------------------------

def test_mss_residual_values():
    rng = np.random.default_rng(29)
    lin = make_jet(rng.uniform(-1, 1, 2), [0.3], rng.uniform(-1, 1, (1, 2)),
                   np.zeros((1, 2, 2)))
    np.testing.assert_allclose(jets.mss_residual(lin), [0.0], atol=0)
    quad = make_jet([0.0], [0.0], [[0.0]], [[[2.0]]])
    np.testing.assert_allclose(jets.mss_residual(quad), [2.0], atol=0)


def test_mss_residual_scherk_graph_is_exact():
    # Scherk's graph solves the minimal surface equation identically,
    # so its analytic jets must produce zero residual pointwise.
    scherk = ScherkMap()
    rng = np.random.default_rng(31)
    pts = rng.uniform(-0.7, 0.7, (64, 2))
    vals, jac, hess = scherk.jets(pts)
    for k in range(pts.shape[0]):
        jet = make_jet(pts[k], vals[k], jac[k], hess[k])
        assert np.abs(jets.mss_residual(jet)).max() <= 1e-12


def test_mean_curvature_sphere_cap_pole():
    # unit sphere: |H| = n at the pole for the n-sphere graph (n = 2)
    cap = SphereCapMap(1.0, 2)
    vals, jac, hess = cap.jets(np.zeros((1, 2)))
    jet = make_jet([0.0, 0.0], vals[0], jac[0], hess[0])
    H_vec, normsq = jets.mean_curvature(jet)
    np.testing.assert_allclose(np.sqrt(normsq), 2.0, rtol=1e-12)
    np.testing.assert_allclose(H_vec, [0.0, 0.0, -2.0], atol=1e-12)


def test_mean_curvature_reconstruction():
    # tangential part + returned normal part rebuilds (0, residual)
    rng = np.random.default_rng(41)
    for _ in range(200):
        n, m = rng.integers(1, 4), rng.integers(1, 4)
        jet = random_jet(rng, n, m)
        R = jets.mss_residual(jet)
        H_vec, _ = jets.mean_curvature(jet)
        v = np.concatenate([np.zeros(n), R])
        tang = v - H_vec
        # orthonormal tangent basis: reduced QR of the columns of [I; J]
        E, _ = np.linalg.qr(np.vstack([np.eye(n), jet.jac]))
        proj = E @ (E.T @ v)
        np.testing.assert_allclose(tang, proj, atol=1e-10)
        np.testing.assert_allclose(E.T @ H_vec, 0.0, atol=1e-10)


def test_scalar_outputs_rotation_invariant():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n, m = 2, 2
        jet = random_jet(rng, n, m)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        U, _ = np.linalg.qr(rng.standard_normal((m, m)))
        J2 = U @ jet.jac @ Q
        H2 = np.einsum("AB,Bij,ip,jq->Apq", U, jet.hess, Q, Q)
        jet2 = make_jet(Q.T @ jet.x, U @ jet.value, J2, H2)
        np.testing.assert_allclose(
            jets.singular_values(jet), jets.singular_values(jet2), atol=1e-10)
        np.testing.assert_allclose(
            jets.mean_curvature(jet)[1], jets.mean_curvature(jet2)[1],
            atol=1e-10)


# ---------------------------------------------------------------------------
# shrinker residual
# ---------------------------------------------------------------------------

def test_shrinker_plane_through_origin():
    jet = make_jet([0.4, -0.2], [0.4 * 0.3 - 0.2 * 0.1, 0.0],
                   [[0.3, 0.1], [0.0, 0.0]], np.zeros((2, 2, 2)))
    np.testing.assert_allclose(jets.shrinker_residual(jet, 1.0), 0.0,
                               atol=1e-14)


def test_shrinker_radius_two_cap_is_self_shrinker():
    cap = SphereCapMap(2.0, 2)
    rng = np.random.default_rng(47)
    pts = rng.uniform(-1.0, 1.0, (50, 2))
    vals, jac, hess = cap.jets(pts)
    for k in range(50):
        jet = make_jet(pts[k], vals[k], jac[k], hess[k])
        assert np.linalg.norm(jets.shrinker_residual(jet, 1.0)) <= 1e-12


def test_shrinker_constant_map_offset():
    k = 0.7
    jet = make_jet([0.0, 0.0], [k], np.zeros((1, 2)), np.zeros((1, 2, 2)))
    res = jets.shrinker_residual(jet, 1.0)
    np.testing.assert_allclose(np.linalg.norm(res), abs(k) / 2.0, rtol=1e-14)


def test_shrinker_with_c_zero_is_mean_curvature():
    rng = np.random.default_rng(53)
    for _ in range(100):
        jet = random_jet(rng, 2, 2)
        H_vec, _ = jets.mean_curvature(jet)
        np.testing.assert_allclose(jets.shrinker_residual(jet, 0.0), H_vec,
                                   atol=1e-13)


def test_jet_validation():
    with pytest.raises(jets.JetError):
        make_jet([0.0], [0.0], [[0.0]], [[[np.nan]]])
    with pytest.raises(jets.JetError):
        bad = np.zeros((1, 2, 2))
        bad[0, 0, 1] = 1.0   # asymmetric Hessian
        make_jet([0.0, 0.0], [0.0], [[0.0, 0.0]], bad)
    with pytest.raises(jets.JetError):
        jets.PointJet(x=np.zeros(9), value=np.zeros(1), jac=np.zeros((1, 9)),
                      hess=np.zeros((1, 9, 9)))
