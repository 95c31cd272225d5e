"""Domain geometry and grid construction oracles."""

import numpy as np
import pytest

from mssflow import boundary as bd, flow, grid as grid_mod
from mssflow.domains import DomainError, DomainSpec, estimate_c0_eta0
from mssflow.grid import CLS_EXTERIOR, CLS_INTERIOR, build_closure, build_grid


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
    for spec, radii in ((DomainSpec.ball(1.0, 2), [1.0]),
                        (DomainSpec.annulus(0.5, 1.5, 2), [0.5, 1.5])):
        grid = build_grid(spec, 1.0 / 32)
        # classification consistent with the signed distance
        sd = spec.signed_distance(grid.lattice_positions())
        np.testing.assert_array_equal(grid.cls.ravel() == CLS_INTERIOR,
                                      sd < -1e-12)
        assert (spec.signed_distance(grid.interior_pos) < 0).all()
        K = grid.num_interior
        src, theta = grid.arm_src, grid.arm_theta
        assert src.shape == theta.shape == (len(grid.offsets), 2, K)
        # arms whose end is interior are full lattice steps
        assert (theta[src < K] == 1.0).all()
        # cut arms end at their pinned row, on a boundary sphere
        d, side, k = np.nonzero(src >= K)
        step = np.where(side == 0, 1, -1)[:, None] * grid.offsets[d] * grid.hs
        ends = grid.pinned_pos[src[d, side, k] - K]
        np.testing.assert_allclose(
            ends, grid.interior_pos[k] + theta[d, side, k][:, None] * step,
            rtol=0, atol=1e-12)
        r = np.linalg.norm(ends, axis=1)
        assert (np.abs(r[:, None] - radii).min(axis=1) <= 1e-9).all()
        np.testing.assert_array_equal(np.sort(src[src >= K]),
                                      K + np.arange(grid.pinned_pos.shape[0]))
        # every interpolated node's opposite arm is full and reaches a
        # stepped node
        assert grid.dep_idx.size > 0
        for k, q, t, pin in zip(grid.dep_idx, grid.dep_opp, grid.dep_t,
                                grid.dep_pin):
            (d, side), = np.argwhere(src[:, :, k] == K + pin)
            assert theta[d, side, k] == t < 0.5
            assert src[d, 1 - side, k] == q < K
            assert theta[d, 1 - side, k] == 1.0 and grid.stepped[q]
        assert grid.boundary_samples.shape[0] > 0
        r = np.linalg.norm(grid.boundary_samples, axis=1)
        assert (np.abs(r[:, None] - radii).min(axis=1) <= 1e-9).all()


def test_lattice_index_round_trip():
    for spec in (DomainSpec.ball(1.0, 2),
                 DomainSpec.box([1.0, 0.5, 0.75], lo=[-0.5, 0.0, 0.25])):
        grid = build_grid(spec, 0.05)
        coords = grid.lattice_coords()
        np.testing.assert_array_equal(grid.lattice_index(coords),
                                      np.arange(grid.num_interior))
        # boundary and exterior lattice nodes, and points off the lattice
        origin = np.round(grid.los / grid.hs).astype(np.int64)
        absent = np.vstack([np.argwhere(grid.cls != CLS_INTERIOR) + origin,
                            coords.min(axis=0) - 1, coords.max(axis=0) + 2])
        np.testing.assert_array_equal(grid.lattice_index(absent), -1)


@pytest.mark.parametrize("spec, h, delta", [
    (DomainSpec.ball(1.0, 2), 1.0 / 64, 0.1),
    (DomainSpec.annulus(0.5, 1.0, 2), 1.0 / 32, 0.007),
    (DomainSpec.exterior(1.0, 13.0, 2), 0.1015625, 0.012),
    (DomainSpec.box([1.0, 0.7]), 0.0225, 0.1),
    (DomainSpec.ball(1.0, 3), 0.05, 0.1),
], ids=["ball", "annulus", "shell-13", "box", "ball-3d"])
def test_closure_matches_the_flow_grid(spec, h, delta):
    # the checker's h/2 pass builds only the closure: its sample must be
    # the flow grid's bit for bit, and its crossing search, restricted to
    # the nodes near the boundary, must visit every node that has a
    # non-interior neighbour
    closure, grid = build_closure(spec, h), build_grid(spec, h)
    np.testing.assert_array_equal(closure.closure_points().view(np.uint64),
                                  grid.closure_points().view(np.uint64))
    for d in (delta, None):
        np.testing.assert_array_equal(closure.closure_band_mask(d),
                                      grid.closure_band_mask(d))
    # nodes with a non-interior neighbour, from the classification alone
    K = grid.num_interior
    coords = np.stack(np.unravel_index(grid.interior_flat, grid.dims), axis=1)
    touching = np.zeros(K, bool)
    for off in grid.offsets:
        for sign in (1, -1):
            nb = coords + sign * off
            on = np.all((nb >= 0) & (nb < np.array(grid.dims)), axis=1)
            nb_cls = np.full(K, CLS_EXTERIOR)
            nb_cls[on] = grid.cls[tuple(nb[on].T)]
            touching |= nb_cls != CLS_INTERIOR
    np.testing.assert_array_equal(touching,
                                  (grid.arm_src >= K).any(axis=(0, 1)))
    scale = max(1.0, float(np.abs(grid.lattice_positions()).max()))
    search = grid_mod._search_rows(grid.d_bdry, grid.offsets, grid.hs, scale)
    assert touching.any() and search.size < K
    assert np.isin(np.nonzero(touching)[0], search).all()


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
