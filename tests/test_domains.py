"""Domain geometry and grid construction oracles."""

import numpy as np
import pytest

from mssflow import boundary as bd, flow
from mssflow.domains import (DomainError, DomainSpec, distance_jet,
                             estimate_c0_eta0)
from mssflow.grid import CLS_BOUNDARY, CLS_INTERIOR, THETA_FALLBACK, build_grid


def fd_hessian_of_distance(spec, x, h):
    n = x.size
    H = np.zeros((n, n))
    def d(p):
        return spec.boundary_distance(p[None, :])[0]
    for i in range(n):
        for j in range(n):
            ei, ej = np.zeros(n), np.zeros(n)
            ei[i], ej[j] = h, h
            if i == j:
                H[i, j] = (d(x + ei) - 2 * d(x) + d(x - ei)) / h ** 2
            else:
                H[i, j] = (d(x + ei + ej) - d(x + ei - ej)
                           - d(x - ei + ej) + d(x - ei - ej)) / (4 * h ** 2)
    return H


# ---------------------------------------------------------------------------
# distance jets
# ---------------------------------------------------------------------------

def test_ball_distance_jet_matches_curvature_formula():
    spec = DomainSpec.ball(1.5, 2)
    x = np.array([0.0, 1.2])
    d, grad, hess = distance_jet(spec, x)
    s = 1.5 - 1.2
    np.testing.assert_allclose(d, s, rtol=1e-14)
    np.testing.assert_allclose(grad, [0.0, -1.0], atol=1e-14)
    # tangential eigenvalue -1/(r - s), radial 0
    eig = np.sort(np.linalg.eigvalsh(hess))
    np.testing.assert_allclose(eig, [-1.0 / 1.2, 0.0], atol=1e-12)


def test_box_distance_jet_flat_face():
    spec = DomainSpec.box([1.0, 1.0])
    d, grad, hess = distance_jet(spec, np.array([0.5, 0.1]))
    np.testing.assert_allclose(d, 0.1, rtol=1e-15)
    np.testing.assert_allclose(grad, [0.0, 1.0], atol=0)
    np.testing.assert_allclose(hess, 0.0, atol=0)


def test_annulus_inner_jet_sign_against_finite_differences():
    spec = DomainSpec.annulus(0.5, 1.5, 2)
    x = np.array([0.0, 0.6])      # distance 0.1 from the inner sphere
    d, grad, hess = distance_jet(spec, x)
    np.testing.assert_allclose(d, 0.1, rtol=1e-12)
    tang = hess[0, 0]
    np.testing.assert_allclose(tang, 1.0 / 0.6, rtol=1e-12)
    fd = fd_hessian_of_distance(spec, x, 1e-4)
    np.testing.assert_allclose(hess, fd, atol=1e-5)


def test_gradient_is_unit_everywhere_defined():
    rng = np.random.default_rng(3)
    for spec in (DomainSpec.ball(1.0, 2), DomainSpec.annulus(0.4, 1.0, 2),
                 DomainSpec.box([1.0, 2.0]), DomainSpec.exterior(1.0, 9.0, 2)):
        geom = estimate_c0_eta0(spec)
        found = 0
        while found < 40:
            lo, hi = spec.bounding_box()
            x = rng.uniform(lo, hi)
            d = spec.boundary_distance(x[None])[0]
            if not 0 < d < geom.eta0:
                continue
            try:
                _, grad, _ = distance_jet(spec, x)
            except DomainError:
                continue   # corner bands are legitimately rejected
            np.testing.assert_allclose(np.linalg.norm(grad), 1.0, atol=1e-10)
            found += 1


def test_distance_hessian_fd_convergence_order():
    spec = DomainSpec.ball(1.0, 2)
    x = np.array([0.3, 0.6])
    _, _, hess = distance_jet(spec, x)
    e1 = np.abs(fd_hessian_of_distance(spec, x, 2e-3) - hess).max()
    e2 = np.abs(fd_hessian_of_distance(spec, x, 1e-3) - hess).max()
    assert e1 / e2 > 3.0      # second-order central differences


def test_distance_jet_rejections():
    ball = DomainSpec.ball(1.0, 2)
    with pytest.raises(DomainError):
        distance_jet(ball, np.array([0.0, 0.0]))     # d = 1 >= eta0
    with pytest.raises(DomainError):
        distance_jet(ball, np.array([0.0, 1.5]))     # outside
    box = DomainSpec.box([1.0, 1.0])
    with pytest.raises(DomainError):
        distance_jet(box, np.array([0.05, 0.05]))    # corner band
    # near one face, away from corners: fine
    distance_jet(box, np.array([0.5, 0.05]))


# ---------------------------------------------------------------------------
# collar constants
# ---------------------------------------------------------------------------

def test_ball_collar_constants():
    geom = estimate_c0_eta0(DomainSpec.ball(2.0, 2))
    assert geom.c0 == 0.0 and geom.strictly_convex
    np.testing.assert_allclose(geom.eta0, 1.0)


def test_annulus_collar_maximizes_inner_curvature():
    # sup of 1/(r_in + s) over the collar is attained at s = 0
    spec = DomainSpec.annulus(0.5, 1.5, 2)
    geom = estimate_c0_eta0(spec)
    np.testing.assert_allclose(geom.c0, 2.0 / 0.5, rtol=1e-14)
    np.testing.assert_allclose(geom.eta0, 0.25)


def test_box_collar_is_flat():
    geom = estimate_c0_eta0(DomainSpec.box([1.0, 2.0]))
    assert geom.c0 == 0.0 and geom.hess_d_bound == 0.0
    np.testing.assert_allclose(geom.eta0, 0.45 * 0.5)


def test_exterior_constants_independent_of_truncation():
    a = estimate_c0_eta0(DomainSpec.exterior(1.0, 9.0, 2))
    b = estimate_c0_eta0(DomainSpec.exterior(1.0, 30.0, 2))
    assert a == b
    np.testing.assert_allclose(a.c0, 2.0)
    np.testing.assert_allclose(a.eta0, 0.5)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_unit_box_grid_counts():
    grid = build_grid(DomainSpec.box([1.0, 1.0]), 1.0 / 64)
    assert grid.num_interior == 63 ** 2
    assert grid.boundary_samples.shape[0] == 4 * 64
    assert grid.full_stencil.all()
    assert grid.dep_idx.size == 0


def test_ball_grid_classification_and_subspacings():
    grid = build_grid(DomainSpec.ball(1.0, 2), 1.0 / 32)
    # all interior nodes strictly inside
    assert (np.linalg.norm(grid.interior_pos, axis=1) < 1.0).all()
    # classification consistent with the signed distance
    pos = grid.lattice_positions()
    sd = grid.spec.signed_distance(pos)
    inside = sd < -1e-12
    np.testing.assert_array_equal(grid.cls.ravel() == CLS_INTERIOR, inside)
    # every clipped arm reads a pinned row on the unit circle; clamped
    # fallback arms sit outside it by at most THETA_FALLBACK arm lengths
    K = grid.num_interior
    for d in grid.directions:
        step = np.linalg.norm(np.array(d.offset) * grid.hs)
        for arm in (d.plus, d.minus):
            cut = arm.nbr < 0
            np.testing.assert_array_equal(arm.src[~cut], arm.nbr[~cut])
            assert (arm.src[cut] >= K).all()
            r = np.linalg.norm(grid.pinned_pos[arm.src[cut] - K], axis=1)
            clamped = (arm.theta == THETA_FALLBACK)[cut] & grid.stepped[cut]
            np.testing.assert_allclose(r[~clamped], 1.0, atol=1e-9)
            assert ((r[clamped] >= 1.0 - 1e-9)
                    & (r[clamped] <= 1.0 + THETA_FALLBACK * step)).all()
    assert grid.boundary_samples.shape[0] > 0
    np.testing.assert_allclose(np.linalg.norm(grid.boundary_samples, axis=1),
                               1.0, atol=1e-9)


def test_annulus_grid_component_tags():
    grid = build_grid(DomainSpec.annulus(0.5, 1.0, 2), 1.0 / 32)
    rho = np.linalg.norm(grid.boundary_samples, axis=1)
    inner = grid.boundary_tags == 1
    np.testing.assert_allclose(rho[inner], 0.5, atol=1e-9)
    np.testing.assert_allclose(rho[~inner], 1.0, atol=1e-9)
    assert inner.any() and (~inner).any()


def test_under_resolved_grid_rejected():
    with pytest.raises(DomainError):
        build_grid(DomainSpec.annulus(0.5, 1.0, 2), 1.0 / 16)
    build_grid(DomainSpec.annulus(0.5, 1.0, 2), 1.0 / 20)


def test_band_membership_monotone_in_delta():
    grid = build_grid(DomainSpec.ball(1.0, 2), 1.0 / 16)
    prev = np.zeros(grid.num_interior, dtype=bool)
    for delta in (0.05, 0.1, 0.2, 0.4):
        band = grid.band_mask(delta)
        assert (band | prev == band).all()    # prev subset of band
        prev = band


def test_interpolated_nodes_reference_stepped_neighbors():
    grid = build_grid(DomainSpec.ball(1.0, 2), 1.0 / 32)
    assert grid.dep_idx.size > 0
    assert grid.stepped[grid.dep_opp].all()
    assert (~grid.stepped[grid.dep_idx]).all()
    assert ((grid.dep_t > 0) & (grid.dep_t < 0.5)).all()
    # interpolation anchors sit on the boundary
    np.testing.assert_allclose(
        np.linalg.norm(grid.pinned_pos[grid.dep_pin], axis=1), 1.0, atol=1e-9)
    # the state pins exactly the data at those rows, evaluated in one batch
    psi = bd.TrigMap([0.3, 0.1], [[2.0, 1.0], [0.0, 3.0]], [0.0, 0.5])
    np.testing.assert_array_equal(flow.make_state(grid, psi).pinned,
                                  psi.values(grid.pinned_pos))


def test_box_faces_carry_quadrature_fractions():
    grid = build_grid(DomainSpec.box([1.0, 1.0]), 1.0 / 16)
    fr = grid.boundary_nodes_frac
    assert set(np.round(fr, 12)) == {0.25, 0.5}
    assert (fr == 0.25).sum() == 4    # corners
