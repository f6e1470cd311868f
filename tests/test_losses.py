"""Tests for Chamfer distance, the GMM loss, and sigma annealing."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointreg import autodiff as ad
from pointreg import losses

import reference_ops as refops
from conftest import assert_grads_match


def chamfer_brute_force(a, b):
    """O(N*M) oracle with explicit loops, aggregated like the implementation."""
    na, nb = len(a), len(b)
    mins_ab = np.empty(na)
    for i in range(na):
        best = np.inf
        for j in range(nb):
            d = np.sum((a[i] - b[j]) ** 2)
            if d < best:
                best = d
        mins_ab[i] = best
    mins_ba = np.empty(nb)
    for j in range(nb):
        best = np.inf
        for i in range(na):
            d = np.sum((a[i] - b[j]) ** 2)
            if d < best:
                best = d
        mins_ba[j] = best
    return float(np.sum(mins_ab) + np.sum(mins_ba))


class TestChamfer:
    def test_identical_sets_give_zero(self):
        pts = np.random.default_rng(0).normal(size=(20, 2))
        assert losses.chamfer(pts, pts) == 0.0

    def test_single_pair_analytic(self):
        a, b = np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])
        assert losses.chamfer(a, b) == 50.0
        assert losses.chamfer_normalized(a, b) == 25.0

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(40, 2))
        b = rng.normal(size=(37, 2))
        assert losses.chamfer(a, b) == chamfer_brute_force(a, b)

    def test_brute_force_3d(self):
        rng = np.random.default_rng(43)
        a = rng.normal(size=(15, 3))
        b = rng.normal(size=(18, 3))
        assert losses.chamfer(a, b) == chamfer_brute_force(a, b)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(rng.integers(1, 12), 2))
        b = rng.normal(size=(rng.integers(1, 12), 2))
        assert losses.chamfer(a, b) == losses.chamfer(b, a)
        assert losses.chamfer(a, b) >= 0.0

    def test_invariant_under_shared_rigid_motion(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(25, 2))
        b = rng.normal(size=(30, 2))
        angle = 0.7
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        shift = np.array([0.4, -1.2])
        moved = losses.chamfer(a @ rot.T + shift, b @ rot.T + shift)
        np.testing.assert_allclose(moved, losses.chamfer(a, b), rtol=1e-9)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_nearest_distances_equal_the_summed_difference_array(self, dim):
        # one coordinate at a time gives the bits of numpy's sum over a
        # length-2 or length-3 axis; sets of unequal sizes, with repeated
        # points within a set and across both
        rng = np.random.default_rng(44 + dim)
        for na, nb in ((1, 1), (1, 7), (96, 144), (72, 96), (256, 255)):
            a = rng.normal(size=(na, dim)) * rng.uniform(0.01, 100.0)
            b = rng.normal(size=(nb, dim)) + rng.normal(size=dim)
            a[na // 2:] = a[:na - na // 2]
            b[:nb // 3] = a[0]
            got, want = losses._nearest_sqdists(a, b), refops.nearest_sqdists(a, b)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want], (na, nb)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            losses.chamfer(np.zeros((0, 2)), np.zeros((3, 2)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            losses.chamfer(np.zeros((3, 2)), np.zeros((3, 3)))


def gmm_extended_precision(transformed, target, sigma):
    with mpmath.workdps(60):
        inv = mpmath.mpf(-0.5) / (mpmath.mpf(sigma) ** 2)
        total = mpmath.mpf(0)
        for x in transformed:
            inner = mpmath.fsum(
                mpmath.exp(inv * mpmath.fsum((mpmath.mpf(xi) - mpmath.mpf(yi)) ** 2 for xi, yi in zip(x, y)))
                for y in target
            )
            total -= mpmath.log(inner)
        return float(total)


class TestGmmLoss:
    def test_coincident_single_pair_is_zero(self):
        out = refops.gmm_loss(np.array([[0.2, 0.3]]), np.array([[0.2, 0.3]]), sigma=1.0)
        assert out == 0.0

    def test_unit_distance_single_pair(self):
        out = refops.gmm_loss(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]), sigma=1.0)
        np.testing.assert_allclose(out, 0.5, rtol=1e-12)

    @pytest.mark.parametrize("sigma", [1.0, 0.5, 0.1])
    def test_matches_extended_precision_oracle(self, sigma):
        rng = np.random.default_rng(int(sigma * 100))
        a = rng.uniform(-1, 1, size=(30, 2))
        b = rng.uniform(-1, 1, size=(30, 2))
        got = refops.gmm_loss(a, b, sigma)
        want = gmm_extended_precision(a, b, sigma)
        np.testing.assert_allclose(got, want, rtol=1e-8)

    def test_log_sum_exp_path_equals_naive_where_safe(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, size=(12, 2))
        b = rng.uniform(-1, 1, size=(15, 2))
        sigma = 0.8
        d = np.sum((a[:, None] - b[None]) ** 2, axis=2)
        naive = -np.sum(np.log(np.sum(np.exp(-0.5 * d / sigma**2), axis=1)))
        np.testing.assert_allclose(refops.gmm_loss(a, b, sigma), naive, rtol=1e-12)

    def test_tensor_input_returns_graph_node(self):
        x = ad.Tensor(np.zeros((3, 2)), requires_grad=True)
        out = refops.gmm_loss(x, np.ones((4, 2)), sigma=0.5)
        assert isinstance(out, ad.Tensor)
        out.backward()
        assert x.grad is not None

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        x = ad.Tensor(rng.uniform(-1, 1, (6, 2)), requires_grad=True)
        tgt = rng.uniform(-1, 1, (7, 2))
        assert_grads_match(lambda: refops.gmm_loss(x, tgt, 0.4), [x])

    def test_gradient_step_reduces_loss(self):
        rng = np.random.default_rng(21)
        x = ad.Tensor(rng.uniform(-1, 1, (10, 2)), requires_grad=True)
        tgt = rng.uniform(-1, 1, (10, 2))
        loss = refops.gmm_loss(x, tgt, 0.5)
        loss.backward()
        stepped = x.data - 1e-3 * x.grad
        assert refops.gmm_loss(stepped, tgt, 0.5) < float(loss.data)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_nonpositive_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            refops.gmm_loss(np.ones((2, 2)), np.ones((2, 2)), sigma)


class TestGmmLossSymmetric:
    @pytest.mark.parametrize("sigma", [1.0, 0.3, 0.1])
    def test_equals_sum_of_both_directions(self, sigma):
        rng = np.random.default_rng(int(sigma * 10))
        a = rng.uniform(-1, 1, size=(14, 2))
        b = rng.uniform(-1, 1, size=(19, 2))
        got = float(losses.gmm_loss_symmetric(ad.Tensor(a), b, sigma).data)
        assert got == refops.gmm_loss(a, b, sigma) + refops.gmm_loss(b, a, sigma)

    def test_invariant_under_role_exchange(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, size=(9, 3))
        b = rng.uniform(-1, 1, size=(12, 3))
        np.testing.assert_allclose(
            float(losses.gmm_loss_symmetric(ad.Tensor(a), b, 0.4).data),
            float(losses.gmm_loss_symmetric(ad.Tensor(b), a, 0.4).data),
            rtol=1e-12,
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        x = ad.Tensor(rng.uniform(-1, 1, (6, 2)), requires_grad=True)
        tgt = rng.uniform(-1, 1, (8, 2))
        assert_grads_match(lambda: losses.gmm_loss_symmetric(x, tgt, 0.3), [x])

    def test_uncovered_target_costs_more_than_one_sided(self):
        # one cluster of predictions on top of one target leaves the far
        # target unexplained; only the symmetric form charges for that
        a = np.zeros((5, 2))
        b = np.array([[0.0, 0.0], [3.0, 0.0]])
        sigma = 0.1
        one_sided = refops.gmm_loss(a, b, sigma)
        sym = float(losses.gmm_loss_symmetric(ad.Tensor(a), b, sigma).data)
        assert abs(one_sided) < 1e-6
        assert sym > 100.0

    def test_tensor_input_returns_graph_node(self):
        x = ad.Tensor(np.zeros((3, 2)), requires_grad=True)
        out = losses.gmm_loss_symmetric(x, np.ones((4, 2)), sigma=0.5)
        assert isinstance(out, ad.Tensor)
        out.backward()
        assert x.grad is not None

    @pytest.mark.parametrize("sigma", [0.0, -2.0])
    def test_nonpositive_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            losses.gmm_loss_symmetric(ad.Tensor(np.ones((2, 2))), np.ones((2, 2)), sigma)


class TestAnnealing:
    def test_step_one_starts_at_initial_sigma(self):
        assert losses.sigma_at(1, 1.0, 0.1) == 1.0

    def test_inverse_sqrt_decay(self):
        assert losses.sigma_at(4, 1.0, 0.1) == 0.5

    def test_floor_reached(self):
        assert losses.sigma_at(200, 1.0, 0.1) == 0.1

    def test_raised_floor_for_noisy_runs(self):
        assert losses.sigma_at(70, 1.0, 0.12) == 0.12

    def test_monotone_non_increasing_and_bounded(self):
        values = [losses.sigma_at(n, 1.0, 0.1) for n in range(1, 301)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert min(values) >= 0.1

    def test_step_below_one_rejected(self):
        with pytest.raises(ValueError, match="step"):
            losses.sigma_at(0, 1.0, 0.1)
