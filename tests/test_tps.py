"""Tests for the thin-plate-spline warp.

The basis construction is checked against an independent dense solve of the
classical interpolation system, evaluated query by query.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointreg import autodiff as ad
from pointreg import tps

from conftest import assert_grads_match


def dense_warp_oracle(controls, theta, queries, regularization, dim):
    """Evaluate the TPS interpolant by solving for kernel and affine weights."""

    def u(r):
        if dim == 2:
            return np.where(r > 0, r * r * np.log(np.where(r > 0, r, 1.0)), 0.0)
        return -r

    k = controls.shape[0]
    dists = np.linalg.norm(controls[:, None] - controls[None, :], axis=2)
    kk = u(dists) + regularization * np.eye(k)
    p = np.hstack([np.ones((k, 1)), controls])
    system = np.block([[kk, p], [p.T, np.zeros((dim + 1, dim + 1))]])
    rhs = np.vstack([theta, np.zeros((dim + 1, dim))])
    sol = np.linalg.solve(system, rhs)
    w, a = sol[:k], sol[k:]
    out = np.zeros((queries.shape[0], dim))
    for i, q in enumerate(queries):
        r = np.linalg.norm(controls - q, axis=1)
        out[i] = u(r) @ w + np.concatenate([[1.0], q]) @ a
    return out


class TestControlGrid:
    def test_2d_lattice(self):
        grid = tps.make_control_grid(2)
        assert grid.count == 9
        pts = [tuple(p) for p in grid.points]
        for expected in [(0.0, 0.0), (-1.0, -1.0), (1.0, 1.0)]:
            assert expected in pts

    def test_3d_lattice(self):
        grid = tps.make_control_grid(3)
        assert grid.count == 27
        assert (0.0, 0.0, 0.0) in [tuple(p) for p in grid.points]

    def test_coordinates_come_from_three_levels(self):
        for dim in (2, 3):
            grid = tps.make_control_grid(dim)
            assert set(np.unique(grid.points)) == {-1.0, 0.0, 1.0}

    def test_ordering_is_lexicographic(self):
        grid = tps.make_control_grid(2)
        order = np.lexsort((grid.points[:, 1], grid.points[:, 0]))
        np.testing.assert_array_equal(order, np.arange(9))

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="dim"):
            tps.make_control_grid(4)


class TestBasis:
    @pytest.fixture
    def grid(self):
        return tps.make_control_grid(2)

    def test_exact_interpolation_at_controls_without_regularization(self, grid):
        rng = np.random.default_rng(7)
        theta = grid.points + rng.normal(0, 0.3, size=(9, 2))
        basis = tps.tps_basis(grid, grid.points, regularization=0.0)
        np.testing.assert_allclose(basis @ theta, theta, atol=1e-6)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_dense_solve_oracle(self, dim):
        rng = np.random.default_rng(dim)
        grid = tps.make_control_grid(dim)
        theta = grid.points + rng.normal(0, 0.25, size=grid.points.shape)
        queries = rng.uniform(-1, 1, size=(40, dim))
        got = tps.tps_basis(grid, queries) @ theta
        want = dense_warp_oracle(grid.points, theta, queries, 1e-6, dim)
        np.testing.assert_allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_identity_configuration(self, dim):
        rng = np.random.default_rng(11)
        grid = tps.make_control_grid(dim)
        q = rng.uniform(-1, 1, size=(300, dim))
        warped = tps.tps_basis(grid, q) @ grid.points
        assert np.abs(warped - q).max() < 1e-9

    def test_translation_is_exact(self, grid):
        rng = np.random.default_rng(3)
        q = rng.uniform(-1, 1, size=(200, 2))
        shift = np.array([0.3, 0.0])
        warped = tps.tps_basis(grid, q) @ (grid.points + shift)
        assert np.abs(warped - (q + shift)).max() < 1e-6

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linearity_in_theta(self, seed):
        rng = np.random.default_rng(seed)
        grid = tps.make_control_grid(2)
        q = rng.uniform(-1, 1, size=(20, 2))
        basis = tps.tps_basis(grid, q)
        t1 = grid.points + rng.normal(0, 0.2, (9, 2))
        t2 = grid.points + rng.normal(0, 0.2, (9, 2))
        combined = basis @ (t1 + t2 - grid.points)
        separate = basis @ t1 + basis @ t2 - q
        np.testing.assert_allclose(combined, separate, atol=1e-8)

    def test_displacement_decays_away_from_perturbed_control(self, grid):
        # Perturb only the centre control and warp a dense diagonal segment;
        # mean displacement must fall off over coarse radial bins.
        t = np.linspace(-1, 1, 400)
        segment = np.stack([t, t], axis=1)
        theta = grid.points.copy()
        centre = int(np.flatnonzero((grid.points == 0).all(axis=1))[0])
        theta[centre, 1] += 0.2
        warped = tps.tps_basis(grid, segment) @ theta
        displacement = np.linalg.norm(warped - segment, axis=1)
        radius = np.linalg.norm(segment, axis=1)
        edges = [0.0, 0.35, 0.7, 1.05, 1.45]
        means = [
            displacement[(radius >= lo) & (radius < hi)].mean()
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_degenerate_controls_raise(self):
        collapsed = tps.ControlGrid(dim=2, points=np.zeros((4, 2)))
        with pytest.raises(tps.SingularSystemError):
            tps.tps_basis(collapsed, np.zeros((1, 2)), regularization=0.0)

    def test_dimension_mismatch_raises(self, grid):
        with pytest.raises(ValueError, match="dim"):
            tps.tps_basis(grid, np.zeros((4, 3)))

    def test_non_finite_queries_raise(self, grid):
        with pytest.raises(ValueError, match="finite"):
            tps.tps_basis(grid, np.array([[np.nan, 0.0]]))


class TestWarp:
    def test_identity_warp_returns_input(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, size=(50, 2))
        grid = tps.make_control_grid(2)
        out = tps.apply_warp(tps.TpsWarp(grid=grid, theta=grid.points), pts)
        np.testing.assert_allclose(out, pts, atol=1e-9)

    def test_translation_warp(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, size=(50, 2))
        grid = tps.make_control_grid(2)
        warp = tps.TpsWarp(grid=grid, theta=grid.points + np.array([0.3, 0.0]))
        out = tps.apply_warp(warp, pts)
        np.testing.assert_allclose(out, pts + [0.3, 0.0], atol=1e-6)

    def test_gradient_w_r_t_theta(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, size=(12, 2))
        grid = tps.make_control_grid(2)
        theta = ad.Tensor(
            grid.points + rng.normal(0, 0.2, (9, 2)), requires_grad=True, dtype=np.float64
        )

        def build():
            warp = tps.TpsWarp(grid=grid, theta=theta)
            moved = tps.apply_warp(warp, pts)
            return ad.tensor_sum(ad.pairwise_sqdist(moved, np.zeros((1, 2))))

        assert_grads_match(build, [theta], rtol=1e-5, atol=1e-7)

    def test_theta_shape_validated(self):
        grid = tps.make_control_grid(2)
        with pytest.raises(ValueError, match="theta"):
            tps.TpsWarp(grid=grid, theta=np.zeros((8, 2)))

    def test_point_dimension_validated(self):
        grid = tps.make_control_grid(2)
        warp = tps.TpsWarp(grid=grid, theta=grid.points)
        with pytest.raises(ValueError, match="points"):
            tps.apply_warp(warp, np.zeros((5, 3)))
