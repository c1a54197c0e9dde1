import math
from dataclasses import replace

import numpy as np
import pytest

from dpmne import autoencoder as ae
from dpmne import trainer
from dpmne.autoencoder import train_view_autoencoder
from dpmne.graph_model import SynthConfig, synth_generate
from dpmne.io import checkpoint, restore
from dpmne.proximity import ProximityConfig, build_stack
from dpmne.trainer import (EmbeddingState, Hyperparams, _y_grad, _y_value, _y_views, grad_B,
                           grad_Y, objective, reconstruct_missing, train, update_B, update_H,
                           update_Y)

from conftest import random_network
from oracles import objective_from_params, svd_warm_start


def make_state(network, hyper, seed=0):
    """Random state consistent with the network's masks."""
    rng = np.random.default_rng(seed)
    n, d = network.n, hyper.dim
    autoencoders = [ae.init_autoencoder(v.dim, hyper.hidden_dims, hyper.activation,
                                        hyper.output_activation, rng)
                    for v in network.views]
    H = [ae.encode(autoencoders[s], v.features, v.mask)
         for s, v in enumerate(network.views)]
    Y = rng.standard_normal((n, d))
    B = [rng.standard_normal((d, autoencoders[s].code_dim))
         for s in range(network.t)]
    masks = [v.mask.copy() for v in network.views]
    return EmbeddingState(Y, B, H, masks, autoencoders, hyper)


def objective_oracle(state, network, prox, hyper):
    """Independent term-by-term re-summation with explicit loops over views."""
    recon = 0.0
    consistency = 0.0
    reg = 0.0
    for s, view in enumerate(network.views):
        Xt = ae.decode(state.autoencoders[s], state.H[s])
        for i in range(network.n):
            if not view.mask[i]:
                continue
            recon += float(np.sum((view.features[i] - Xt[i]) ** 2))
            resid = state.H[s][i] - state.Y[i] @ state.B[s]
            consistency += float(resid @ resid)
        reg += float(np.sum(state.B[s] ** 2)) + state.autoencoders[s].weight_sq_norm()
    L = prox.laplacian.toarray()
    lap = float(np.trace(state.Y.T @ L @ state.Y))
    gram = state.Y.T @ state.Y - np.eye(state.Y.shape[1])
    reg += float(np.sum(gram * gram))
    return recon + hyper.alpha * consistency + hyper.beta * lap + hyper.lam * reg


def central_difference_matrix(fun, M, eps=1e-6):
    grad = np.zeros_like(M)
    flat = M.ravel()
    for i in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[i] += eps
        dn[i] -= eps
        grad.ravel()[i] = (fun(up.reshape(M.shape)) - fun(dn.reshape(M.shape))) / (2 * eps)
    return grad


def rel_error(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


def small_setup(seed, n=10, d=3, hidden=(5, 4)):
    network = random_network(seed, n=n, t=2, dims=(5, 4), missing=(0.2, 0.3))
    hyper = Hyperparams(alpha=0.8, beta=0.3, lam=0.05, dim=d, hidden_dims=hidden,
                        proximity=ProximityConfig(order=2, weights=(1.0, 0.5)),
                        seed=seed)
    prox = build_stack(network, hyper.proximity)
    state = make_state(network, hyper, seed)
    return network, hyper, prox, state


class CountingLaplacian:
    """Wraps a Laplacian and appends "L" to ``calls`` per product."""
    def __init__(self, laplacian, calls):
        self.laplacian, self.calls = laplacian, calls

    def __matmul__(self, Y):
        self.calls.append("L")
        return self.laplacian @ Y


class TestObjective:
    def test_each_term_vanishes_in_its_zero_case(self):
        network, hyper, prox, state = small_setup(0)
        # reconstruction alone: alpha = beta = lam = 0
        bare = Hyperparams(alpha=0.0, beta=0.0, lam=0.0, dim=hyper.dim,
                           hidden_dims=hyper.hidden_dims)
        recon_only = objective(state, network, prox, bare)
        recon_direct = sum(
            float(np.sum((v.features[v.mask]
                          - ae.decode(state.autoencoders[s], state.H[s][v.mask])) ** 2))
            for s, v in enumerate(network.views))
        assert recon_only == pytest.approx(recon_direct, rel=1e-12)
        # consistency term vanishes when H equals Y B on present rows
        matched = EmbeddingState(state.Y, state.B,
                                 [np.where(m[:, None], state.Y @ state.B[s], 0.0)
                                  for s, m in enumerate(state.masks)],
                                 state.masks, state.autoencoders, hyper)
        alpha_only = Hyperparams(alpha=5.0, beta=0.0, lam=0.0, dim=hyper.dim)
        assert objective(matched, network, prox, alpha_only) == pytest.approx(
            objective(matched, network, prox, bare), rel=1e-12)
        # proximity term vanishes for a constant-column embedding
        const = EmbeddingState(np.ones_like(state.Y), state.B, state.H, state.masks,
                               state.autoencoders, hyper)
        beta_only = Hyperparams(alpha=0.0, beta=2.0, lam=0.0, dim=hyper.dim)
        assert objective(const, network, prox, beta_only) == pytest.approx(
            objective(const, network, prox, bare), abs=1e-8)
        # regularizer vanishes for orthonormal Y, zero B, zero weights
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((network.n, hyper.dim)))
        zero_ae = [p.replace_arrays([np.zeros_like(a) for a in p.all_arrays()])
                   for p in state.autoencoders]
        zero_state = EmbeddingState(q, [np.zeros_like(b) for b in state.B],
                                    [np.zeros_like(h) for h in state.H],
                                    state.masks, zero_ae, hyper)
        lam_only = Hyperparams(alpha=0.0, beta=0.0, lam=3.0, dim=hyper.dim)
        assert objective(zero_state, network, prox, lam_only) == pytest.approx(
            objective(zero_state, network, prox, bare), abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_term_by_term_oracle(self, seed):
        network, hyper, prox, state = small_setup(seed)
        value = objective(state, network, prox, hyper)
        oracle = objective_oracle(state, network, prox, hyper)
        assert abs(value - oracle) / abs(oracle) < 1e-10

    def test_zero_tradeoffs_leave_reconstruction_only(self):
        network, hyper, prox, state = small_setup(1)
        bare = Hyperparams(alpha=0.0, beta=0.0, lam=0.0, dim=hyper.dim)
        value = objective(state, network, prox, bare)
        recon = 0.0
        for s, v in enumerate(network.views):
            diff = (v.features - ae.decode(state.autoencoders[s], state.H[s]))[v.mask]
            recon += float(np.sum(diff * diff))
        assert value == pytest.approx(recon, rel=1e-12)

    def test_non_finite_objective_raises(self):
        network, hyper, prox, state = small_setup(2)
        state.Y[0, 0] = np.inf
        with pytest.raises(FloatingPointError), pytest.warns(RuntimeWarning):
            objective(state, network, prox, hyper)


class TestGradY:
    def test_orthonormal_embedding_with_zero_tradeoffs_is_stationary(self):
        network, hyper, prox, state = small_setup(3)
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((network.n, hyper.dim)))
        state.Y = q
        only_reg = Hyperparams(alpha=0.0, beta=0.0, lam=0.7, dim=hyper.dim)
        assert np.max(np.abs(grad_Y(state, prox, only_reg))) < 1e-12

    def test_constant_columns_kill_the_proximity_term(self):
        network, hyper, prox, state = small_setup(4)
        state.Y = np.ones_like(state.Y)
        only_beta = Hyperparams(alpha=0.0, beta=1.3, lam=0.0, dim=hyper.dim)
        assert np.max(np.abs(grad_Y(state, prox, only_beta))) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_differences(self, seed):
        network, hyper, prox, state = small_setup(seed + 5)

        def fun(Y):
            trial = EmbeddingState(Y, state.B, state.H, state.masks,
                                   state.autoencoders, hyper)
            return objective(trial, network, prox, hyper)

        analytic = grad_Y(state, prox, hyper)
        numeric = central_difference_matrix(fun, state.Y)
        assert rel_error(analytic, numeric) < 1e-5


class TestUpdateY:
    def test_zero_gradient_is_a_fixed_point(self):
        network, hyper, prox, state = small_setup(6)
        # all trade-offs zero: the subproblem is constant, its gradient exactly zero
        frozen = Hyperparams(alpha=0.0, beta=0.0, lam=0.0, dim=hyper.dim, y_steps=4)
        out = update_Y(state, prox, frozen)
        assert np.array_equal(out.Y, state.Y)
        # zero embedding is a stationary point of the orthogonality penalty
        state.Y = np.zeros_like(state.Y)
        reg_only = Hyperparams(alpha=0.0, beta=0.0, lam=0.9, dim=hyper.dim, y_steps=4)
        out = update_Y(state, prox, reg_only)
        assert np.array_equal(out.Y, state.Y)

    @pytest.mark.parametrize("seed", range(4))
    def test_never_increases_the_objective(self, seed):
        network, hyper, prox, state = small_setup(seed + 10)
        before = objective(state, network, prox, hyper)
        out = update_Y(state, prox, hyper)
        assert objective(out, network, prox, hyper) <= before + 1e-12

    @pytest.mark.parametrize("y_steps", [1, 5, 8])
    def test_applies_the_laplacian_once_per_step(self, y_steps):
        network, hyper, prox, state = small_setup(23)
        calls = []
        update_Y(state, replace(prox, laplacian=CountingLaplacian(prox.laplacian, calls)),
                 replace(hyper, y_steps=y_steps))
        assert calls == ["L"] * (y_steps + 1)  # L Y once, then L G per step

    def test_training_applies_the_laplacian_once_per_step_and_objective(self, monkeypatch):
        network, hyper, _, _ = small_setup(24)
        hyper = replace(hyper, max_iters=2, y_steps=5, stop_patience=10)
        calls = []
        build = trainer.build_stack

        def counting_build(net, config=None):
            prox = build(net, config)
            return replace(prox, laplacian=CountingLaplacian(prox.laplacian, calls))
        monkeypatch.setattr(trainer, "build_stack", counting_build)
        state = train(network, hyper)
        assert len(state.objective_trace) == 3
        # the first objective's L Y, then per iteration y_steps L G products in update_Y
        # and the objective's L Y, which the next update_Y reuses
        assert len(calls) == 1 + 2 * (5 + 1)

    def test_handed_over_products_leave_the_trace_equal_to_objective(self):
        network, hyper, _, _ = small_setup(25)
        prox = build_stack(network, hyper.proximity)
        start = train(network, replace(hyper, max_iters=0))
        assert start.objective_trace == [objective(start, network, prox, hyper)]
        state = train(network, replace(hyper, max_iters=3, stop_patience=10))
        assert state.objective_trace[-1] == objective(state, network, prox, hyper)

    def test_reaches_reference_descent_objective(self):
        # run-to-convergence comparison on a tiny instance from the same start
        network, hyper, prox, state = small_setup(7, n=8, d=2, hidden=(4, 3))

        def sub_objective(Y):
            val = hyper.beta * float(np.sum(Y * (prox.laplacian @ Y)))
            gram = Y.T @ Y - np.eye(Y.shape[1])
            val += hyper.lam * float(np.sum(gram * gram))
            for s, m in enumerate(state.masks):
                diff = state.H[s][m] - Y[m] @ state.B[s]
                val += hyper.alpha * float(np.sum(diff * diff))
            return val

        # oracle: plain descent driven by finite-difference gradients
        Y_ref = state.Y.copy()
        step = 1e-2
        value = sub_objective(Y_ref)
        for _ in range(1500):
            g = central_difference_matrix(sub_objective, Y_ref, eps=1e-6)
            if np.max(np.abs(g)) <= 1e-7:
                break
            while step > 1e-12:
                candidate = Y_ref - step * g
                cand_val = sub_objective(candidate)
                if cand_val < value:
                    break
                step *= 0.5
            if step <= 1e-12:
                break
            Y_ref, value = candidate, cand_val
            step *= 2.0

        fast = state
        for _ in range(300):
            fast = update_Y(fast, prox, hyper)
        assert sub_objective(fast.Y) <= value + 1e-6


def ray_setup(seed, **changes):
    """Small state, its hyperparameters and everything one exact Y step reads."""
    network, hyper, prox, state = small_setup(seed)
    hyper = replace(hyper, **changes)
    views, L = _y_views(state), prox.laplacian
    Y, LY = state.Y, L @ state.Y
    G = _y_grad(Y, LY, views, hyper)
    f = _y_value(Y, LY, views, hyper)
    coeffs = trainer._ray_coefficients(Y, G, LY, L @ G, views, hyper, f)

    def along(tau):
        Z = Y - tau * G
        return _y_value(Z, L @ Z, views, hyper)
    return G, coeffs, along


class TestExactStep:
    @pytest.mark.parametrize("seed", range(5))
    def test_coefficients_match_the_value_along_the_ray(self, seed):
        G, coeffs, along = ray_setup(seed + 30)
        tau_star = trainer._best_step(coeffs)
        rng = np.random.default_rng(seed)
        for tau in rng.uniform(-3.0, 3.0, 20) * tau_star:
            exact = along(tau)
            assert abs(np.polyval(coeffs[::-1], tau) - exact) <= 1e-10 * abs(exact)

    @pytest.mark.parametrize("seed", range(3))
    def test_linear_coefficient_is_minus_the_squared_gradient(self, seed):
        G, coeffs, along = ray_setup(seed + 40)
        assert coeffs[1] == pytest.approx(-float(np.sum(G * G)), rel=1e-14)
        # it is the slope of the value along the ray at tau = 0
        h = 1e-6 / np.linalg.norm(G)
        assert coeffs[1] == pytest.approx((along(h) - along(-h)) / (2 * h), rel=1e-6)

    def test_without_orthogonality_the_value_is_quadratic(self):
        G, coeffs, along = ray_setup(50, lam=0.0)
        assert coeffs[3] == 0.0 and coeffs[4] == 0.0
        assert coeffs[2] > 0.0
        assert trainer._best_step(coeffs) == pytest.approx(-coeffs[1] / (2 * coeffs[2]),
                                                           rel=1e-12)

    @pytest.mark.parametrize("c4", [5e-324, 1e-310])
    def test_a_negligible_quartic_term_gives_the_quadratic_step(self, c4):
        # f' = 4 c4 tau^3 - 1 + tau: the cubic's third root lies beyond float64's range
        assert trainer._best_step(np.array([2.0, -1.0, 0.5, 0.0, c4])) == pytest.approx(1.0)

    def test_no_descent_direction_gives_no_step(self):
        # G = 0 makes every coefficient past c0 zero; f' has no positive root
        assert trainer._best_step(np.array([3.0, 0.0, 0.0, 0.0, 0.0])) == 0.0
        assert trainer._best_step(np.array([3.0, 0.0, 2.0, 0.0, 1.0])) == 0.0

    def test_a_deeper_minimum_behind_the_start_is_not_taken(self):
        # f = tau^4 + 3 tau^3 - tau: minima near -2.2 (f ~ -6.3) and 0.31 (f ~ -0.21)
        tau = trainer._best_step(np.array([0.0, -1.0, 0.0, 3.0, 1.0]))
        assert 0.0 < tau < 1.0
        assert 4 * tau ** 3 + 9 * tau ** 2 - 1 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("lam", [0.05, 2.0])
    def test_chosen_step_is_best_on_a_dense_grid(self, seed, lam):
        G, coeffs, along = ray_setup(seed + 60, lam=lam)
        tau_star = trainer._best_step(coeffs)
        assert tau_star > 0.0
        best = along(tau_star)
        assert best < along(0.0)
        grid = np.concatenate([np.linspace(0.0, 4.0 * tau_star, 2001)[1:],
                               np.geomspace(4.0 * tau_star, 1e3 * tau_star, 200)])
        assert best <= min(along(tau) for tau in grid) + 1e-12 * abs(best)


class TestUpdateB:
    def test_huge_ridge_drives_bases_to_zero(self):
        network, hyper, prox, state = small_setup(8)
        heavy = Hyperparams(alpha=1.0, beta=0.0, lam=1e12, dim=hyper.dim)
        out = update_B(state, network, heavy)
        for B in out.B:
            assert np.max(np.abs(B)) < 1e-6

    def test_full_mask_square_embedding_interpolates_exactly(self):
        rng = np.random.default_rng(3)
        network = random_network(30, n=4, t=1, dims=(4, 4), missing=(0.0, 0.0))
        network.views[0].mask[:] = True
        hyper = Hyperparams(alpha=1.0, beta=0.0, lam=0.0, dim=4, hidden_dims=(3,))
        state = make_state(network, hyper, seed=3)
        state.Y = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
        out = update_B(state, network, hyper)
        np.testing.assert_allclose(out.B[0], np.linalg.solve(state.Y, state.H[0]),
                                   atol=1e-8)

    def test_singular_system_with_zero_ridge_raises(self):
        network, hyper, prox, state = small_setup(9)
        state.Y = np.zeros_like(state.Y)
        bad = Hyperparams(alpha=1.0, beta=0.0, lam=0.0, dim=hyper.dim)
        with pytest.raises(ValueError, match="lam"):
            update_B(state, network, bad)

    def test_singular_system_with_a_negligible_ridge_names_lam(self):
        network, hyper, prox, state = small_setup(9)
        state.Y = np.ones_like(state.Y)  # alpha Y^T Y + lam I rounds to a singular matrix
        bad = Hyperparams(alpha=1.0, beta=0.0, lam=5e-324, dim=hyper.dim)
        with pytest.raises(ValueError, match=r"view \d: basis system is singular with lam = 4.94"):
            update_B(state, network, bad)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_descent_to_convergence_oracle(self, seed):
        network, hyper, prox, state = small_setup(seed + 15)
        out = update_B(state, network, hyper)
        for s, view in enumerate(network.views):
            m = view.mask
            Yp, Hp = state.Y[m], state.H[s][m]

            def grad(B):
                return (2.0 * hyper.alpha * Yp.T @ (Yp @ B - Hp)
                        + 2.0 * hyper.lam * B)

            def loss(B):
                diff = Hp - Yp @ B
                return (hyper.alpha * float(np.sum(diff * diff))
                        + hyper.lam * float(np.sum(B * B)))

            B_ref = np.zeros_like(out.B[s])
            step = 0.1
            value = loss(B_ref)
            for _ in range(100000):
                g = grad(B_ref)
                if np.max(np.abs(g)) <= 1e-9:
                    break
                while step > 1e-18:
                    candidate = B_ref - step * g
                    cand_val = loss(candidate)
                    if cand_val < value:
                        break
                    step *= 0.5
                if step <= 1e-18:
                    break
                B_ref, value = candidate, cand_val
                step *= 2.0
            assert np.max(np.abs(out.B[s] - B_ref)) < 1e-6
            assert np.max(np.abs(grad(out.B[s]))) < 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_subproblem_gradient_is_zero_after_update(self, seed):
        network, hyper, prox, state = small_setup(seed + 20)
        out = update_B(state, network, hyper)
        for g in grad_B(out, hyper):
            assert np.max(np.abs(g)) < 1e-8

    def test_solves_over_the_state_masks(self):
        network, hyper, prox, state = small_setup(12)
        hidden = np.flatnonzero(state.masks[0])[0]
        state.masks[0][hidden] = False  # make_state copied the network's masks
        out = update_B(state, network, hyper)
        m = state.masks[0]
        Yp, Hp = state.Y[m], state.H[0][m]
        ridge = np.linalg.solve(hyper.alpha * Yp.T @ Yp + hyper.lam * np.eye(hyper.dim),
                                hyper.alpha * Yp.T @ Hp)
        np.testing.assert_allclose(out.B[0], ridge, rtol=1e-10, atol=1e-12)


class TestUpdateH:
    def test_refreshes_cached_representations_consistently(self):
        network, hyper, prox, state = small_setup(10)
        out = update_H(state, network, hyper)
        for s, view in enumerate(network.views):
            expect = ae.encode(out.autoencoders[s], view.features, view.mask)
            assert np.array_equal(out.H[s], expect)
            assert np.all(out.H[s][~view.mask] == 0.0)

    def test_never_increases_the_objective(self):
        network, hyper, prox, state = small_setup(11)
        state = update_B(state, network, hyper)
        before = objective(state, network, prox, hyper)
        out = update_H(state, network, hyper)
        assert objective(out, network, prox, hyper) <= before + 1e-12

    def test_hidden_state_mask_row_stays_zero(self):
        network, hyper, prox, state = small_setup(13)
        hidden = np.flatnonzero(state.masks[1])[0]
        state.masks[1][hidden] = False
        out = update_H(state, network, hyper)
        assert np.all(out.H[1][hidden] == 0.0)


def spectrum_matrix(rng, n, m, singular_values):
    """n x m matrix with the given singular values and random singular vectors."""
    r = len(singular_values)
    P = np.linalg.qr(rng.standard_normal((n, r)))[0]
    Q = np.linalg.qr(rng.standard_normal((m, r)))[0]
    return (P * singular_values) @ Q.T


def projector_distance(U, V):
    return np.linalg.norm(U @ U.T - V @ V.T, 2)


def stacked_features(network):
    return np.hstack([np.where(v.mask[:, None], v.features, 0.0) for v in network.views])


class TestWarmStart:
    @pytest.mark.parametrize("shape", [(30, 70), (70, 30)])  # the X Xᵀ and the Xᵀ X branch
    @pytest.mark.parametrize("k", [4, 12])
    def test_spans_the_svd_subspace_with_orthonormal_columns(self, shape, k):
        rng = np.random.default_rng(k + shape[0])
        X = spectrum_matrix(rng, *shape, np.geomspace(50.0, 0.5, min(shape)))
        U = trainer._leading_left_singular_vectors(X, k)
        oracle = svd_warm_start(X, k)
        assert U.shape == oracle.shape == (shape[0], k)
        assert np.abs(U.T @ U - np.eye(k)).max() < 1e-11
        assert projector_distance(U, oracle) < 1e-10

    @pytest.mark.parametrize("n, dims, rank", [(10, (8, 7), 2), (40, (5, 4), 3)])
    def test_rank_deficient_features_keep_the_rank_and_fill_from_rng(self, n, dims, rank):
        network = random_network(n, n=n, t=2, dims=dims)
        rng = np.random.default_rng(n)
        Z = rng.standard_normal((n, rank))
        for view in network.views:
            view.features[:] = np.where(view.mask[:, None],
                                        Z @ rng.standard_normal((rank, view.dim)), 0.0)
        stacked = stacked_features(network)
        d = 2 * rank + 2
        oracle = svd_warm_start(stacked, d)
        kept = np.linalg.matrix_rank(stacked)
        assert oracle.shape[1] == kept < d
        Y = trainer._init_state(network, Hyperparams(dim=d, hidden_dims=(3,)),
                                np.random.default_rng(5)).Y
        assert projector_distance(Y[:, :kept], oracle) < 1e-10
        fill = np.random.default_rng(5).standard_normal((n, d - kept)) / np.sqrt(d)
        assert np.array_equal(Y[:, kept:], fill)

    def test_all_zero_features_fill_everything_from_rng(self):
        network = random_network(3, n=10, t=2)
        for view in network.views:
            view.features[:] = 0.0
        Y = trainer._init_state(network, Hyperparams(dim=4, hidden_dims=(3,)),
                                np.random.default_rng(8)).Y
        assert np.array_equal(Y, np.random.default_rng(8).standard_normal((10, 4)) / 2.0)


def hint_recorder(monkeypatch, hints, drop=False):
    """Route ``train_view_autoencoder`` calls through a recorder of their first-step hints.

    With ``drop`` the hint is recorded but not passed on, so every search
    starts at ``h_lr``.
    """
    def recorded(*args, first_step=None, **kwargs):
        hints.append(first_step)
        return train_view_autoencoder(*args, first_step=None if drop else first_step, **kwargs)
    monkeypatch.setattr(ae, "train_view_autoencoder", recorded)


def hint_network(seed):
    return synth_generate(SynthConfig(n=60, communities=3, t=2, pdr=0.3, feature_dim=12,
                                      seed=seed))


class TestLineSearchHint:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("max_iters", [2, 8])
    def test_training_is_bitwise_equal_to_training_without_it(self, seed, max_iters,
                                                              monkeypatch):
        net = hint_network(seed)
        hyper = Hyperparams(dim=6, max_iters=max_iters, hidden_dims=(10, 4), seed=seed)
        hints, plain_hints = [], []
        hint_recorder(monkeypatch, hints)
        hinted = train(net, hyper)
        hint_recorder(monkeypatch, plain_hints, drop=True)
        plain = train(net, hyper)
        assert hints[:2] == [None, None] and None not in hints[2:]
        assert len(hints) == len(plain_hints) == 2 * (len(hinted.objective_trace) - 1)
        assert np.array_equal(hinted.Y, plain.Y)
        assert all(np.array_equal(a, b) for a, b in zip(hinted.H, plain.H))
        assert hinted.objective_trace == plain.objective_trace

    def test_cuts_autoencoder_loss_evaluations(self, monkeypatch):
        # wide enough that the accepted steps lie several halvings below h_lr
        net = synth_generate(SynthConfig(n=120, communities=4, t=2, pdr=0.3, feature_dim=60,
                                         seed=4))
        hyper = Hyperparams(dim=8, max_iters=4, hidden_dims=(64, 16), seed=4)
        forward = ae._view_forward
        counts = []

        def counted(*args):
            counts[-1] += 1
            return forward(*args)
        monkeypatch.setattr(ae, "_view_forward", counted)
        for drop in (False, True):
            counts.append(0)
            hint_recorder(monkeypatch, [], drop=drop)
            train(net, hyper)
        hinted, plain = counts
        assert hinted < 0.95 * plain  # 128 against 144

    def test_a_resume_starts_at_h_lr(self, monkeypatch, tmp_path):
        net = hint_network(5)
        hyper = Hyperparams(dim=6, max_iters=2, hidden_dims=(10, 4), seed=5)
        first = train(net, hyper)
        assert len(first.h_last_step) == 2
        checkpoint(first, str(tmp_path / "state.npz"))
        back = restore(str(tmp_path / "state.npz"))
        assert back.h_last_step is None
        hints = []
        hint_recorder(monkeypatch, hints)
        resumed = train(net, hyper, init_state=first)
        assert hints[:2] == [None, None] and None not in hints[2:]
        from_disk = train(net, hyper, init_state=back)
        assert np.array_equal(resumed.Y, from_disk.Y)
        assert resumed.objective_trace == from_disk.objective_trace


class TestHyperparams:
    @pytest.mark.parametrize("bad", [
        {"alpha": -1.0}, {"beta": -1.0}, {"lam": -0.5}, {"alpha": float("nan")},
        {"dim": 0}, {"max_iters": -1}, {"y_steps": -1}, {"h_steps": -2},
        {"hidden_dims": ()}, {"hidden_dims": (4, 0)}, {"h_lr": -0.1},
        {"alpha": math.inf}, {"beta": math.inf}, {"lam": math.inf}, {"h_lr": math.inf},
        {"h_lr": math.nan}, {"stop_patience": -3}, {"stop_patience": 0},
        {"stop_tol": math.nan}, {"stop_tol": -1e-6}, {"stop_tol": math.inf}, {"seed": -1},
        {"dim": "x"}, {"output_activation": "swish"}, {"dim": 2.5}, {"max_iters": 1.5},
        {"hidden_dims": (2.5,)}, {"hidden_dims": ("a",)}, {"dim": True}, {"alpha": False},
        {"seed": None}])
    def test_out_of_range_values_are_rejected(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            Hyperparams(**bad)

    def test_zero_budgets_and_tradeoffs_are_legal(self):
        Hyperparams(alpha=0.0, beta=0.0, lam=0.0, max_iters=0, y_steps=0, h_steps=0)


class TestTrain:
    def test_zero_iterations_returns_initialization(self):
        network = random_network(40, n=15, t=2)
        hyper = Hyperparams(dim=4, max_iters=0, hidden_dims=(6,), seed=1)
        state = train(network, hyper)
        assert len(state.objective_trace) == 1
        assert state.iter_seconds == []

    def test_objective_trace_is_non_increasing(self):
        net = synth_generate(SynthConfig(n=100, communities=4, t=2, pdr=0.25,
                                         feature_dim=10, seed=2))
        hyper = Hyperparams(dim=8, max_iters=12, hidden_dims=(12,), seed=2,
                            proximity=ProximityConfig(order=3, weights=(1.0, 0.5, 0.25)))
        state = train(net, hyper)
        trace = state.objective_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        assert np.all(np.isfinite(state.Y))

    def test_same_seed_is_bitwise_identical(self):
        net = synth_generate(SynthConfig(n=40, communities=3, t=2, pdr=0.2,
                                         feature_dim=8, seed=3))
        hyper = Hyperparams(dim=5, max_iters=4, hidden_dims=(7,), seed=9)
        a = train(net, hyper)
        b = train(net, hyper)
        assert np.array_equal(a.Y, b.Y)
        assert a.objective_trace == b.objective_trace

    def test_resume_continues_without_objective_jump(self):
        net = synth_generate(SynthConfig(n=30, communities=3, t=2, feature_dim=6, seed=4))
        hyper = Hyperparams(dim=4, max_iters=3, hidden_dims=(5,), seed=4)
        first = train(net, hyper)
        resumed = train(net, hyper, init_state=first)
        trace = resumed.objective_trace
        assert trace[:4] == first.objective_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    @pytest.mark.parametrize("change", [
        {"alpha": 2.0}, {"beta": 0.5}, {"lam": 0.1},
        {"proximity": ProximityConfig(order=2)}, {"dim": 5}, {"hidden_dims": (6,)}])
    def test_resume_with_other_tradeoffs_is_refused(self, change):
        net = synth_generate(SynthConfig(n=30, communities=3, t=2, feature_dim=6, seed=4))
        hyper = Hyperparams(dim=4, max_iters=2, hidden_dims=(5,), seed=4)
        first = train(net, hyper)
        with pytest.raises(ValueError, match=next(iter(change))):
            train(net, replace(hyper, **change), init_state=first)

    def test_resume_on_another_network_is_refused(self):
        config = SynthConfig(n=30, communities=3, t=2, pdr=0.2, feature_dim=6, seed=4)
        hyper = Hyperparams(dim=4, max_iters=1, hidden_dims=(5,), seed=4)
        first = train(synth_generate(config), hyper)
        for other, problem in ((replace(config, n=31), "nodes"), (replace(config, t=3), "views"),
                               (replace(config, seed=5), "masks"),
                               (replace(config, feature_dim=7), "feature")):
            with pytest.raises(ValueError, match=problem):
                train(synth_generate(other), hyper, init_state=first)

    def test_early_stop_cuts_the_iteration_budget(self):
        # zero inner steps make every block a no-op, so the trace stalls at once
        # and the patience rule must stop the run after exactly 3 iterations
        net = synth_generate(SynthConfig(n=20, communities=2, t=1, feature_dim=4, seed=5))
        hyper = Hyperparams(dim=2, max_iters=500, hidden_dims=(2,),
                            y_steps=0, h_steps=0, seed=5)
        state = train(net, hyper)
        assert len(state.objective_trace) - 1 == 3

    def test_masked_feature_storage_cannot_influence_training(self):
        net = synth_generate(SynthConfig(n=25, communities=3, t=2, pdr=0.3,
                                         feature_dim=6, seed=6))
        hyper = Hyperparams(dim=4, max_iters=3, hidden_dims=(5,), seed=6)
        baseline = train(net, hyper)
        victim = np.flatnonzero(~net.views[0].mask)[0]
        net.views[0].features[victim] = 77.0  # violates the zero-row convention
        poisoned = train(net, hyper)
        assert np.array_equal(baseline.Y, poisoned.Y)
        assert baseline.objective_trace == poisoned.objective_trace


class TestInvariances:
    @pytest.mark.parametrize("seed", range(3))
    def test_rotation_leaves_consistency_and_proximity_terms_unchanged(self, seed):
        network, hyper, prox, state = small_setup(seed + 25)
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((hyper.dim, hyper.dim)))
        rotated = EmbeddingState(state.Y @ Q, [Q.T @ B for B in state.B], state.H,
                                 state.masks, state.autoencoders, hyper)
        for trial in (Hyperparams(alpha=1.0, beta=0.0, lam=0.0, dim=hyper.dim),
                      Hyperparams(alpha=0.0, beta=1.0, lam=0.0, dim=hyper.dim)):
            a = objective(state, network, prox, trial)
            b = objective(rotated, network, prox, trial)
            assert abs(a - b) / max(abs(a), 1e-12) < 1e-10

    def test_objective_from_params_matches_cached_state(self):
        network, hyper, prox, state = small_setup(28)
        fresh = objective_from_params(network, prox, state.Y, state.B,
                                      state.autoencoders, hyper)
        assert fresh == pytest.approx(objective(state, network, prox, hyper), rel=1e-12)


class TestReconstructMissing:
    def test_zero_basis_gives_zero_vector(self):
        network, hyper, prox, state = small_setup(30)
        state.B[0][:] = 0.0
        assert np.array_equal(reconstruct_missing(state, 1, 0),
                              np.zeros(state.B[0].shape[1]))

    def test_scalar_case_is_a_plain_product(self):
        hyper = Hyperparams(dim=1, hidden_dims=(1,))
        params = ae.init_autoencoder(1, (1,), rng=np.random.default_rng(0))
        state = EmbeddingState(np.array([[3.0]]), [np.array([[2.0]])],
                               [np.zeros((1, 1))], [np.ones(1, dtype=bool)],
                               [params], hyper)
        assert reconstruct_missing(state, 0, 0) == pytest.approx([6.0])

    def test_out_of_range_indices_raise(self):
        network, hyper, prox, state = small_setup(31)
        with pytest.raises(IndexError):
            reconstruct_missing(state, network.n, 0)
        with pytest.raises(IndexError):
            reconstruct_missing(state, 0, network.t)

    def test_reconstruction_tracks_encoder_output_after_training(self):
        net = synth_generate(SynthConfig(n=60, communities=3, t=2, pdr=0.2, noise=0.05,
                                         feature_dim=8, seed=7))
        hyper = Hyperparams(alpha=2.0, beta=0.05, lam=0.01, dim=6, max_iters=25,
                            hidden_dims=(8,), seed=7)
        state = train(net, hyper)
        view = 0
        mask = net.views[view].mask
        errs, scales = [], []
        for node in np.flatnonzero(mask):
            approx = reconstruct_missing(state, int(node), view)
            actual = state.H[view][node]
            errs.append(np.linalg.norm(approx - actual))
            scales.append(np.linalg.norm(actual))
        ratio = float(np.mean(errs) / max(np.mean(scales), 1e-12))
        # reported, not hard-bounded: the subspace fit should explain most of H
        print(f"subspace reconstruction relative error: {ratio:.3f}")
        assert np.isfinite(ratio)
