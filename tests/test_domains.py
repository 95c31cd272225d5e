"""Domain geometry and grid construction oracles."""

import numpy as np
import pytest

from mssflow import boundary as bd, flow
from mssflow.domains import DomainError, DomainSpec, estimate_c0_eta0
from mssflow.grid import CLS_BOUNDARY, CLS_INTERIOR, THETA_FALLBACK, build_grid


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


def test_under_resolved_grid_rejected():
    with pytest.raises(DomainError):
        build_grid(DomainSpec.annulus(0.5, 1.0, 2), 1.0 / 16)
    build_grid(DomainSpec.annulus(0.5, 1.0, 2), 1.0 / 20)


@pytest.mark.parametrize("h", [float("nan"), float("inf")])
def test_non_finite_spacing_rejected(h):
    with pytest.raises(DomainError, match="finite and positive"):
        build_grid(DomainSpec.ball(1.0, 2), h)


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
