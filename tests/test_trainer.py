import math
import threading
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from dpmne import autoencoder as ae
from dpmne import trainer
from dpmne.graph_model import MultiplexNetwork, SynthConfig, ViewData, synth_generate
from dpmne.io import checkpoint, restore
from dpmne.proximity import ProximityConfig, build_stack
from dpmne.trainer import (EmbeddingState, Hyperparams, _y_grad, _y_value, _y_views,
                           forward_passes, grad_Y, objective, reconstruct_missing,
                           representations, train, update_B, update_H, update_Y)

from conftest import random_network, recording_armijo
from oracles import svd_warm_start


def make_state(network, hyper, seed=0):
    """Random state consistent with the network's masks."""
    rng = np.random.default_rng(seed)
    n, d = network.n, hyper.dim
    autoencoders = [ae.init_autoencoder(v.dim, hyper.hidden_dims, hyper.activation,
                                        hyper.output_activation, rng)
                    for v in network.views]
    Y = rng.standard_normal((n, d))
    B = [rng.standard_normal((d, autoencoders[s].code_dim))
         for s in range(network.t)]
    masks = [v.mask.copy() for v in network.views]
    return EmbeddingState(Y, B, masks, autoencoders, hyper)


def objective_oracle(state, H, network, prox, hyper):
    """Independent term-by-term re-summation with explicit loops over views.

    ``H`` holds the representations on all rows (``representations``); each
    view's reconstruction is decoded from them here.
    """
    recon = 0.0
    consistency = 0.0
    reg = 0.0
    for s, view in enumerate(network.views):
        Xt = ae.decode(state.autoencoders[s], H[s])
        for i in range(network.n):
            if not view.mask[i]:
                continue
            recon += float(np.sum((view.features[i] - Xt[i]) ** 2))
            resid = H[s][i] - state.Y[i] @ state.B[s]
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
    """Small network, hyperparameters, proximity, random state and the state's forward passes."""
    network = random_network(seed, n=n, t=2, dims=(5, 4), missing=(0.2, 0.3))
    hyper = Hyperparams(alpha=0.8, beta=0.3, lam=0.05, dim=d, hidden_dims=hidden,
                        proximity=ProximityConfig(order=2),
                        seed=seed)
    prox = build_stack(network, hyper.proximity)
    state = make_state(network, hyper, seed)
    return network, hyper, prox, state, forward_passes(state, network)


def codes(passes):
    """Each view's present-row code: what the Y and B blocks read of the passes."""
    return [vpass.code for vpass in passes]


def float64_passes(state, network):
    """Per view, the pass of the state's autoencoder over float64 rows: the float64 path."""
    return [ae._view_forward(params, view.features[m])
            for params, view, m in zip(state.autoencoders, network.views, state.masks)]


def zero_padded(passes, masks):
    """Each pass's code on all rows, zero on the masked ones, as ``representations`` gives."""
    H = [np.zeros((m.size, vpass.code.shape[1]), dtype=vpass.code.dtype)
         for vpass, m in zip(passes, masks)]
    for h, vpass, m in zip(H, passes, masks):
        h[m] = vpass.code
    return H


def decoded_error(rows, params, code):
    """The squared reconstruction error of ``rows`` from ``code``, summed in float64."""
    diff = rows.astype(np.float64) - ae.decode(params, code).astype(np.float64)
    return float(np.sum(diff ** 2))


class CountingLaplacian:
    """Wraps a Laplacian and appends "L" to ``calls`` per product."""
    def __init__(self, laplacian, calls):
        self.laplacian, self.calls = laplacian, calls

    def __matmul__(self, Y):
        self.calls.append("L")
        return self.laplacian @ Y


class TestObjective:
    def test_each_term_vanishes_in_its_zero_case(self):
        network, hyper, prox, state, _ = small_setup(0)
        passes = float64_passes(state, network)

        def value(st, passes, settings):
            return objective(replace(st, hyper=settings), passes, prox)
        # reconstruction alone: alpha = beta = lam = 0
        bare = Hyperparams(alpha=0.0, beta=0.0, lam=0.0, dim=hyper.dim,
                           hidden_dims=hyper.hidden_dims)
        recon_only = value(state, passes, bare)
        H = zero_padded(passes, state.masks)
        recon_direct = sum(
            float(np.sum((v.features[v.mask]
                          - ae.decode(state.autoencoders[s], H[s][v.mask])) ** 2))
            for s, v in enumerate(network.views))
        assert recon_only == pytest.approx(recon_direct, rel=1e-12)
        # consistency term vanishes when the codes equal Y B on present rows; no encoder
        # gives such codes, so the passes are given them in place of their own
        k = len(hyper.hidden_dims)  # the code's index among a pass's outputs
        matched = [replace(vpass, outputs=vpass.outputs[:k] + [state.Y[m] @ B]
                           + vpass.outputs[k + 1:])
                   for m, B, vpass in zip(state.masks, state.B, passes)]
        views, LY = _y_views(state, matched), prox.laplacian @ state.Y
        assert all(np.array_equal(code, state.Y[m] @ B) for m, code, B in views)
        alpha_only = Hyperparams(alpha=5.0, beta=0.0, lam=0.0, dim=hyper.dim)
        assert _y_value(state.Y, LY, views, alpha_only) == pytest.approx(
            _y_value(state.Y, LY, views, bare), abs=1e-12)
        # proximity term vanishes for a constant-column embedding
        const = EmbeddingState(np.ones_like(state.Y), state.B, state.masks,
                               state.autoencoders, hyper)
        beta_only = Hyperparams(alpha=0.0, beta=2.0, lam=0.0, dim=hyper.dim)
        assert value(const, passes, beta_only) == pytest.approx(value(const, passes, bare),
                                                                abs=1e-8)
        # regularizer vanishes for orthonormal Y, zero B, zero weights (whose codes are zero)
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((network.n, hyper.dim)))
        zero_ae = [p.replace_arrays([np.zeros_like(a) for a in p.all_arrays()])
                   for p in state.autoencoders]
        zero_state = EmbeddingState(q, [np.zeros_like(b) for b in state.B],
                                    state.masks, zero_ae, hyper)
        zero_passes = float64_passes(zero_state, network)
        assert all(not np.any(vpass.code) for vpass in zero_passes)
        lam_only = Hyperparams(alpha=0.0, beta=0.0, lam=3.0, dim=hyper.dim)
        assert value(zero_state, zero_passes, lam_only) == pytest.approx(
            value(zero_state, zero_passes, bare), abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_term_by_term_oracle(self, seed):
        network, hyper, prox, state, _ = small_setup(seed)
        passes = float64_passes(state, network)
        value = objective(state, passes, prox)
        oracle = objective_oracle(state, zero_padded(passes, state.masks), network, prox, hyper)
        assert abs(value - oracle) / abs(oracle) < 1e-10

    def test_zero_tradeoffs_leave_reconstruction_only(self):
        network, hyper, prox, state, _ = small_setup(1)
        passes = float64_passes(state, network)
        bare = Hyperparams(alpha=0.0, beta=0.0, lam=0.0, dim=hyper.dim)
        value = objective(replace(state, hyper=bare), passes, prox)
        H = zero_padded(passes, state.masks)
        recon = 0.0
        for s, v in enumerate(network.views):
            diff = (v.features - ae.decode(state.autoencoders[s], H[s]))[v.mask]
            recon += float(np.sum(diff * diff))
        assert value == pytest.approx(recon, rel=1e-12)

    def test_non_finite_objective_raises(self):
        network, hyper, prox, state, passes = small_setup(2)
        state.Y[0, 0] = np.inf
        with pytest.raises(FloatingPointError), pytest.warns(RuntimeWarning):
            objective(state, passes, prox)

    def test_refuses_the_passes_of_another_state(self):
        # a stale pass would price the previous autoencoder's reconstruction error
        network, hyper, prox, state, passes = small_setup(0)
        stale = forward_passes(state, network)
        trained, fresh = update_H(update_B(state, passes), passes)
        with pytest.raises(ValueError, match="^view 0: the pass is not of the state's"):
            objective(trained, stale, prox)
        with pytest.raises(ValueError, match="^view 1: "):
            objective(trained, [fresh[0], stale[1]], prox)
        with pytest.raises(ValueError, match="^1 passes for 2 views$"):
            objective(trained, fresh[:1], prox)
        assert objective(trained, fresh, prox) == objective(
            trained, forward_passes(trained, network), prox)


class TestGradY:
    def test_orthonormal_embedding_with_zero_tradeoffs_is_stationary(self):
        network, hyper, prox, state, passes = small_setup(3)
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((network.n, hyper.dim)))
        state.Y = q
        only_reg = Hyperparams(alpha=0.0, beta=0.0, lam=0.7, dim=hyper.dim)
        assert np.max(np.abs(grad_Y(replace(state, hyper=only_reg), passes, prox))) < 1e-12

    def test_constant_columns_kill_the_proximity_term(self):
        network, hyper, prox, state, passes = small_setup(4)
        state.Y = np.ones_like(state.Y)
        only_beta = Hyperparams(alpha=0.0, beta=1.3, lam=0.0, dim=hyper.dim)
        assert np.max(np.abs(grad_Y(replace(state, hyper=only_beta), passes, prox))) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_differences(self, seed):
        network, hyper, prox, state, passes = small_setup(seed + 5)

        def fun(Y):
            trial = EmbeddingState(Y, state.B, state.masks,
                                   state.autoencoders, hyper)
            return objective(trial, passes, prox)

        analytic = grad_Y(state, passes, prox)
        numeric = central_difference_matrix(fun, state.Y)
        assert rel_error(analytic, numeric) < 1e-5


class TestUpdateY:
    def test_zero_gradient_is_a_fixed_point(self):
        network, hyper, prox, state, passes = small_setup(6)
        # all trade-offs zero: the subproblem is constant, its gradient exactly zero
        frozen = Hyperparams(alpha=0.0, beta=0.0, lam=0.0, dim=hyper.dim, y_steps=4)
        out = update_Y(replace(state, hyper=frozen), passes, prox)
        assert np.array_equal(out.Y, state.Y)
        # zero embedding is a stationary point of the orthogonality penalty
        state.Y = np.zeros_like(state.Y)
        reg_only = Hyperparams(alpha=0.0, beta=0.0, lam=0.9, dim=hyper.dim, y_steps=4)
        out = update_Y(replace(state, hyper=reg_only), passes, prox)
        assert np.array_equal(out.Y, state.Y)

    @pytest.mark.parametrize("seed", range(4))
    def test_never_increases_the_objective(self, seed):
        network, hyper, prox, state, passes = small_setup(seed + 10)
        before = objective(state, passes, prox)
        out = update_Y(state, passes, prox)
        assert objective(out, passes, prox) <= before + 1e-12

    @pytest.mark.parametrize("y_steps", [1, 5, 8])
    def test_applies_the_laplacian_once_per_step(self, y_steps):
        network, hyper, prox, state, passes = small_setup(23)
        calls = []
        update_Y(replace(state, hyper=replace(hyper, y_steps=y_steps)), passes,
                 replace(prox, laplacian=CountingLaplacian(prox.laplacian, calls)))
        assert calls == ["L"] * (y_steps + 1)  # L Y once, then L G per step

    def test_training_applies_the_laplacian_once_per_step_and_objective(self, monkeypatch):
        network, hyper, _, _, _ = small_setup(24)
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

    def test_handed_over_products_leave_the_trace_equal_to_objective(self, tmp_path):
        # L Y, the codes and the reconstruction errors all come from the blocks
        network, hyper, _, _, _ = small_setup(25)
        prox = build_stack(network, hyper.proximity)
        hyper = replace(hyper, stop_patience=10)
        full = train(network, replace(hyper, max_iters=3))
        for k in range(4):
            state = train(network, replace(hyper, max_iters=k))
            assert state.objective_trace == full.objective_trace[:k + 1]
            assert state.objective_trace[k] == objective(
                state, forward_passes(state, network), prox)
        half = train(network, replace(hyper, max_iters=1))
        resumed = resume_from_disk(network, half, replace(hyper, max_iters=2), tmp_path / "s.npz")
        assert resumed.objective_trace == full.objective_trace
        assert resumed.objective_trace[-1] == objective(
            resumed, forward_passes(resumed, network), prox)

    def test_reaches_reference_descent_objective(self):
        # run-to-convergence comparison on a tiny instance from the same start
        network, hyper, prox, state, passes = small_setup(7, n=8, d=2, hidden=(4, 3))
        Hp = codes(passes)

        def sub_objective(Y):
            val = hyper.beta * float(np.sum(Y * (prox.laplacian @ Y)))
            gram = Y.T @ Y - np.eye(Y.shape[1])
            val += hyper.lam * float(np.sum(gram * gram))
            for s, m in enumerate(state.masks):
                diff = Hp[s] - Y[m] @ state.B[s]
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
            fast = update_Y(fast, passes, prox)
        assert sub_objective(fast.Y) <= value + 1e-6


def ray_setup(seed, **changes):
    """Small state, its hyperparameters and everything one exact Y step reads."""
    network, hyper, prox, state, passes = small_setup(seed)
    hyper = replace(hyper, **changes)
    views, L = _y_views(state, passes), prox.laplacian
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
        network, hyper, prox, state, passes = small_setup(8)
        heavy = Hyperparams(alpha=1.0, beta=0.0, lam=1e12, dim=hyper.dim)
        out = update_B(replace(state, hyper=heavy), passes)
        for B in out.B:
            assert np.max(np.abs(B)) < 1e-6

    def test_full_mask_square_embedding_interpolates_exactly(self):
        rng = np.random.default_rng(3)
        network = random_network(30, n=4, t=1, dims=(4, 4), missing=(0.0, 0.0))
        network.views[0].mask[:] = True
        hyper = Hyperparams(alpha=1.0, beta=0.0, lam=0.0, dim=4, hidden_dims=(3,))
        state = make_state(network, hyper, seed=3)
        passes = forward_passes(state, network)
        state.Y = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
        out = update_B(state, passes)
        np.testing.assert_allclose(out.B[0], np.linalg.solve(state.Y, passes[0].code),
                                   atol=1e-8)

    def test_singular_system_with_zero_ridge_raises(self):
        network, hyper, prox, state, passes = small_setup(9)
        state.Y = np.zeros_like(state.Y)
        bad = Hyperparams(alpha=1.0, beta=0.0, lam=0.0, dim=hyper.dim)
        with pytest.raises(ValueError, match="lam"):
            update_B(replace(state, hyper=bad), passes)

    def test_singular_system_with_a_negligible_ridge_names_lam(self):
        network, hyper, prox, state, passes = small_setup(9)
        state.Y = np.ones_like(state.Y)  # alpha Y^T Y + lam I rounds to a singular matrix
        bad = Hyperparams(alpha=1.0, beta=0.0, lam=5e-324, dim=hyper.dim)
        with pytest.raises(ValueError, match=r"view \d: basis system is singular with lam = 4.94"):
            update_B(replace(state, hyper=bad), passes)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_descent_to_convergence_oracle(self, seed):
        network, hyper, prox, state, passes = small_setup(seed + 15)
        out = update_B(state, passes)
        for s, view in enumerate(network.views):
            m = view.mask
            Yp, Hp = state.Y[m], passes[s].code

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

    def test_solves_over_the_state_masks(self):
        network, hyper, prox, state, _ = small_setup(12)
        hidden = np.flatnonzero(state.masks[0])[0]
        state.masks[0][hidden] = False  # make_state copied the network's masks
        passes = forward_passes(state, network)
        out = update_B(state, passes)
        m = state.masks[0]
        Yp, Hp = state.Y[m], passes[0].code
        assert np.array_equal(passes[0].rows, network.views[0].features[m].astype(np.float32))
        ridge = np.linalg.solve(hyper.alpha * Yp.T @ Yp + hyper.lam * np.eye(hyper.dim),
                                hyper.alpha * Yp.T @ Hp)
        np.testing.assert_allclose(out.B[0], ridge, rtol=1e-10, atol=1e-12)


class TestUpdateH:
    def test_returns_the_representations_of_the_trained_autoencoders(self):
        network, hyper, prox, state, passes = small_setup(10)
        before = codes(passes)
        out, trained = update_H(state, passes)
        assert passes == [None] * network.t  # taken out as they were handed over
        assert not all(np.array_equal(a, b) for a, b in zip(before, codes(trained)))
        H = representations(out, network)
        for s, view in enumerate(network.views):
            assert trained[s].params is out.autoencoders[s]
            assert np.array_equal(trained[s].code, H[s][view.mask])
            assert trained[s].recon == decoded_error(trained[s].rows, out.autoencoders[s],
                                                     trained[s].code)

    def test_never_increases_the_objective(self):
        network, hyper, prox, state, passes = small_setup(11)
        state = update_B(state, passes)
        before = objective(state, passes, prox)
        out, trained = update_H(state, passes)
        assert objective(out, trained, prox) <= before + 1e-12
        assert objective(out, trained, prox) == objective(out, forward_passes(out, network), prox)

    def test_hidden_state_mask_row_stays_zero(self):
        network, hyper, prox, state, _ = small_setup(13)
        hidden = np.flatnonzero(state.masks[1])[0]
        state.masks[1][hidden] = False
        out, trained = update_H(state, forward_passes(state, network))
        assert np.array_equal(trained[1].rows,
                              network.views[1].features[state.masks[1]].astype(np.float32))
        assert np.all(representations(out, network)[1][hidden] == 0.0)

    @pytest.mark.parametrize("h_steps", [0, 1, 4])
    def test_starting_from_handed_passes_changes_no_byte(self, h_steps):
        network, hyper, prox, state, passes = small_setup(14)
        state = replace(state, hyper=replace(hyper, h_steps=h_steps))
        first, passes = update_H(state, passes)
        first = update_B(first, passes)
        handed = update_H(first, passes)
        fresh = update_H(first, forward_passes(first, network))
        assert passes == [None] * network.t  # taken out as they were handed over
        for a, b in zip(handed[0].autoencoders, fresh[0].autoencoders):
            assert all(x.tobytes() == y.tobytes() for x, y in zip(a.all_arrays(), b.all_arrays()))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(codes(handed[1]), codes(fresh[1])))
        assert [p.recon for p in handed[1]] == [p.recon for p in fresh[1]]

    def test_refuses_the_passes_of_another_state(self):
        # searched from the previous state's passes, with their values and gradients, the
        # next update raised the objective of this state from 126.48 to 134.01
        network, hyper, prox, state, passes = small_setup(0)
        state = update_B(replace(state, hyper=replace(hyper, h_steps=1)), passes)
        stale = forward_passes(state, network)
        trained, passes = update_H(state, passes)
        trained = update_B(trained, passes)
        with pytest.raises(ValueError, match="^view 0: the pass is not of the state's"):
            update_H(trained, stale)
        assert all(vpass is not None for vpass in stale)  # refused before any search ran
        stale[0] = passes[0]
        with pytest.raises(ValueError, match="^view 1: "):
            update_H(trained, stale)


# every block that reads the passes, called as train calls it
BLOCKS = {"update_Y": lambda state, passes, prox: update_Y(state, passes, prox),
          "update_B": lambda state, passes, prox: update_B(state, passes),
          "grad_Y": grad_Y, "objective": objective,
          "update_H": lambda state, passes, prox: update_H(state, passes)}


class TestForeignInput:
    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("given", ["representations", "passes of another state"])
    def test_each_block_refuses_what_is_not_the_state_s_passes(self, block, given):
        network, hyper, prox, state, _ = small_setup(0)
        other = make_state(network, hyper, seed=1)
        foreign = (representations(state, network) if given == "representations"
                   else forward_passes(other, network))
        with pytest.raises(ValueError,
                           match="^view 0: the pass is not of the state's autoencoder$"):
            BLOCKS[block](state, foreign, prox)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_each_block_takes_one_pass_per_view(self, block):
        network, hyper, prox, state, passes = small_setup(22)
        for wrong in (passes[:1], passes + passes[:1]):
            with pytest.raises(ValueError, match=f"^{len(wrong)} passes for 2 views$"):
                BLOCKS[block](state, wrong, prox)


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
        Y = trainer._init_state(network, Hyperparams(dim=d, hidden_dims=(3,), seed=5))[0].Y
        assert projector_distance(Y[:, :kept], oracle) < 1e-10
        fill = np.random.default_rng(5).standard_normal((n, d - kept)) / np.sqrt(d)
        assert np.array_equal(Y[:, kept:], fill)

    def test_all_zero_features_fill_everything_from_rng(self):
        network = random_network(3, n=10, t=2)
        for view in network.views:
            view.features[:] = 0.0
        Y = trainer._init_state(network, Hyperparams(dim=4, hidden_dims=(3,), seed=8))[0].Y
        assert np.array_equal(Y, np.random.default_rng(8).standard_normal((10, 4)) / 2.0)


def resume_from_disk(net, state, hyper, path):
    """Checkpoint ``state`` to ``path``, restore it and train on from the restored state."""
    checkpoint(state, str(path))
    return train(net, hyper, init_state=restore(str(path)))


def same_run(a, b):
    """Equal bytes in Y, the bases, the autoencoders and the objective trace."""
    arrays = [(a.Y, b.Y), (np.asarray(a.objective_trace), np.asarray(b.objective_trace))]
    arrays += list(zip(a.B, b.B))
    for p, q in zip(a.autoencoders, b.autoencoders):
        arrays += list(zip(p.all_arrays(), q.all_arrays()))
    return all(x.tobytes() == y.tobytes() for x, y in arrays)


class TestResume:
    def test_a_resume_mid_run_is_the_uninterrupted_run(self, tmp_path):
        net = synth_generate(SynthConfig(n=120, communities=4, t=2, pdr=0.3, feature_dim=60,
                                         seed=4))
        hyper = Hyperparams(dim=8, max_iters=4, hidden_dims=(64, 16), seed=4, stop_tol=0.0)
        half = train(net, replace(hyper, max_iters=2))
        resumed = resume_from_disk(net, half, replace(hyper, max_iters=2), tmp_path / "s.npz")
        assert len(resumed.objective_trace) == 5
        assert same_run(resumed, train(net, hyper))


class TestHyperparams:
    @pytest.mark.parametrize("bad", [
        {"alpha": -1.0}, {"beta": -1.0}, {"lam": -0.5}, {"alpha": float("nan")},
        {"dim": 0}, {"max_iters": -1}, {"y_steps": -1}, {"h_steps": -2},
        {"hidden_dims": ()}, {"hidden_dims": (4, 0)},
        {"alpha": math.inf}, {"beta": math.inf}, {"lam": math.inf},
        {"stop_patience": -3}, {"stop_patience": 0},
        {"stop_tol": math.nan}, {"stop_tol": -1e-6}, {"stop_tol": math.inf}, {"seed": -1},
        {"dim": "x"}, {"output_activation": "swish"}, {"dim": 2.5}, {"max_iters": 1.5},
        {"hidden_dims": (2.5,)}, {"hidden_dims": ("a",)}, {"dim": True}, {"alpha": False},
        {"seed": None}, {"hidden_dims": 5}, {"hidden_dims": "ab"},
        {"proximity": {"order": 2}}, {"proximity": None}])
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
                            proximity=ProximityConfig(order=3))
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

    def test_a_resumed_run_reports_its_own_hyperparameters(self, tmp_path):
        net = synth_generate(SynthConfig(n=30, communities=3, t=2, feature_dim=6, seed=4))
        first = train(net, Hyperparams(dim=4, hidden_dims=(5,), h_steps=5, y_steps=5,
                                       max_iters=2, seed=1))
        run = replace(first.hyper, h_steps=7, y_steps=2, max_iters=3, seed=9)
        resumed = train(net, run, init_state=first)
        path = str(tmp_path / "state.npz")
        checkpoint(resumed, path)
        assert resumed.hyper == run and restore(path).hyper == run
        assert first.hyper.h_steps == 5 and len(resumed.objective_trace) == 6

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

    @pytest.mark.parametrize("config, hyper", [
        (SynthConfig(n=60, communities=3, t=2, pdr=0.2, feature_dim=6, seed=1),
         Hyperparams(dim=4, max_iters=400, hidden_dims=(5,), seed=1, stop_tol=1e-3)),
        (SynthConfig(n=20, communities=2, t=1, feature_dim=4, seed=5),
         Hyperparams(dim=2, max_iters=500, hidden_dims=(2,), y_steps=0, h_steps=0, seed=5))])
    def test_a_resume_stops_where_the_uninterrupted_run_stops(self, config, hyper, tmp_path):
        # the stored trace's stalled drops count toward the patience of the resumed run
        net = synth_generate(config)
        full = train(net, hyper)
        iterations = len(full.objective_trace) - 1
        assert iterations < hyper.max_iters
        before = train(net, replace(hyper, max_iters=iterations - 1))
        resumed = resume_from_disk(net, before, hyper, tmp_path / "state.npz")
        assert len(resumed.objective_trace) - 1 == iterations
        assert same_run(resumed, full)

    def test_a_stopped_run_resumes_only_with_a_looser_rule(self):
        net = synth_generate(SynthConfig(n=20, communities=2, t=1, feature_dim=4, seed=5))
        hyper = Hyperparams(dim=2, max_iters=500, hidden_dims=(2,), y_steps=0, h_steps=0, seed=5)
        stopped = train(net, hyper)
        assert train(net, hyper, init_state=stopped).objective_trace == stopped.objective_trace
        longer = train(net, replace(hyper, stop_patience=5), init_state=stopped)
        assert len(longer.objective_trace) - 1 == 5

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


def use_view_threads(monkeypatch, threads):
    """``DPMNE_THREADS`` at ``threads``; above 1, the views take their threads at any size."""
    monkeypatch.setenv("DPMNE_THREADS", threads)
    if int(threads) > 1:
        monkeypatch.setattr(trainer, "_VIEW_THREAD_MIN_MACS", 0)


class TestForwardPasses:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_one_pass_per_view_at_the_start_then_one_per_trial(self, threads, monkeypatch):
        use_view_threads(monkeypatch, threads)
        network, hyper, _, _, _ = small_setup(26)
        hyper = replace(hyper, max_iters=2, stop_patience=10)
        calls = []
        forward = ae._view_forward

        def counted_forward(*args):
            calls.append("forward")
            return forward(*args)

        def refused(*args, **kwargs):
            raise AssertionError("a training encodes or decodes only through its passes")

        monkeypatch.setattr(ae, "_view_forward", counted_forward)
        monkeypatch.setattr(ae, "armijo_minimize", recording_armijo(calls))
        monkeypatch.setattr(ae, "encode", refused)
        monkeypatch.setattr(ae, "decode", refused)
        state = train(network, hyper)
        assert calls.count("f") > 0 and calls.count("g") == 2 * network.t * hyper.h_steps
        assert calls.count("forward") == network.t + calls.count("f")
        del calls[:]
        resumed = train(network, replace(hyper, max_iters=1), init_state=state)
        assert len(resumed.objective_trace) == 4
        assert calls.count("forward") == network.t + calls.count("f")

    def test_a_training_copies_each_view_s_present_rows_once(self, monkeypatch):
        network, hyper, _, _, _ = small_setup(28)
        hyper = replace(hyper, max_iters=2, stop_patience=10)
        calls = []
        present_rows = ae._present_rows

        def counted(X, mask):
            calls.append(mask)
            return present_rows(X, mask)

        monkeypatch.setattr(ae, "_present_rows", counted)
        state = train(network, hyper)
        assert len(calls) == network.t
        del calls[:]
        resumed = train(network, replace(hyper, max_iters=1), init_state=state)
        assert len(resumed.objective_trace) == 4
        assert len(calls) == network.t

    def test_a_pass_holds_the_code_and_the_decoded_error_of_the_present_rows(self):
        network, hyper, prox, state, passes = small_setup(29)
        H = representations(state, network)
        for s, (vpass, view) in enumerate(zip(passes, network.views)):
            assert vpass.params is state.autoencoders[s]
            assert np.array_equal(vpass.rows, view.features[view.mask].astype(np.float32))
            assert vpass.code.tobytes() == H[s][view.mask].tobytes()
            assert vpass.recon == decoded_error(vpass.rows, state.autoencoders[s],
                                                H[s][view.mask])

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_no_earlier_pass_of_a_view_is_alive_when_its_forward_pass_runs(self, threads,
                                                                          monkeypatch):
        # the carried pass is handed over to the search, which drops it after its gradient
        use_view_threads(monkeypatch, threads)
        network, hyper, _, _, _ = small_setup(27)
        alive, seen = {}, []  # passes alive per rows array; (rows, alive) per forward pass
        lock = threading.Lock()
        forward = ae._view_forward

        def dropped(key):
            with lock:
                alive[key] -= 1

        def tracked_forward(params, rows):
            with lock:
                seen.append(alive.get(id(rows), 0))
            vpass = forward(params, rows)
            with lock:
                alive[id(rows)] = alive.get(id(rows), 0) + 1
            weakref.finalize(vpass, dropped, id(rows))
            return vpass

        monkeypatch.setattr(ae, "_view_forward", tracked_forward)
        state = train(network, replace(hyper, max_iters=3, stop_patience=10))
        assert len(state.objective_trace) == 4
        assert len(seen) > network.t * (1 + 3 * hyper.h_steps)  # some trial was rejected
        assert seen == [0] * len(seen)
        assert all(count == 0 for count in alive.values())  # train keeps no pass


class TestLargeFeatures:
    @pytest.mark.parametrize("activation, output_activation, value, block", [
        ("identity", "sigmoid", 1e100, "H block"),  # beyond float32: the rows' cast overflows
        ("relu", "sigmoid", 1e100, "H block"),
        ("identity", "identity", 1e20, "H block"),  # float32 rows whose gradient overflows
        ("tanh", "sigmoid", 1e160, "warm start")])
    @pytest.mark.parametrize("runtime_warnings", ["error", "ignore"])
    def test_an_overflow_raises_one_error_naming_the_block(self, activation, output_activation,
                                                           value, block, runtime_warnings):
        # finite features whose products overflow: no LAPACK or scipy input error escapes
        view = ViewData(np.array([[value], [1.0]]), np.ones(2, dtype=bool), sp.csr_matrix((2, 2)))
        hyper = Hyperparams(dim=1, hidden_dims=(1,), activation=activation,
                            output_activation=output_activation, max_iters=3)
        with warnings.catch_warnings():
            warnings.simplefilter(runtime_warnings, RuntimeWarning)
            with pytest.raises(FloatingPointError, match=f"^{block}: overflow encountered"):
                train(MultiplexNetwork(2, [view]), hyper)

    @pytest.mark.parametrize("value", [6.9e8, 1.9e8])
    def test_one_huge_feature_trains_down_within_two_iterations(self, value):
        # the step the autoencoder needs lies far above the unit-length first step
        view = ViewData(np.array([[value]]), np.ones(1, dtype=bool), sp.csr_matrix((1, 1)))
        hyper = Hyperparams(dim=1, hidden_dims=(1,), activation="tanh",
                            output_activation="identity", max_iters=2)
        trace = train(MultiplexNetwork(1, [view]), hyper).objective_trace
        assert trace[0] == pytest.approx(value ** 2, rel=1e-6)
        assert trace[2] < 1e-12 * trace[0]


class TestInvariances:
    @pytest.mark.parametrize("seed", range(3))
    def test_rotation_leaves_consistency_and_proximity_terms_unchanged(self, seed):
        network, hyper, prox, state, passes = small_setup(seed + 25)
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((hyper.dim, hyper.dim)))
        rotated = EmbeddingState(state.Y @ Q, [Q.T @ B for B in state.B],
                                 state.masks, state.autoencoders, hyper)
        for trial in (Hyperparams(alpha=1.0, beta=0.0, lam=0.0, dim=hyper.dim),
                      Hyperparams(alpha=0.0, beta=1.0, lam=0.0, dim=hyper.dim)):
            a = objective(replace(state, hyper=trial), passes, prox)
            b = objective(replace(rotated, hyper=trial), passes, prox)
            assert abs(a - b) / max(abs(a), 1e-12) < 1e-10


class TestReconstructMissing:
    def test_zero_basis_gives_zero_vector(self):
        network, hyper, prox, state, _ = small_setup(30)
        state.B[0][:] = 0.0
        assert np.array_equal(reconstruct_missing(state, 1, 0),
                              np.zeros(state.B[0].shape[1]))

    def test_scalar_case_is_a_plain_product(self):
        hyper = Hyperparams(dim=1, hidden_dims=(1,))
        params = ae.init_autoencoder(1, (1,), "tanh", "sigmoid", np.random.default_rng(0))
        state = EmbeddingState(np.array([[3.0]]), [np.array([[2.0]])],
                               [np.ones(1, dtype=bool)], [params], hyper)
        assert reconstruct_missing(state, 0, 0) == pytest.approx([6.0])

    def test_out_of_range_indices_raise(self):
        network, hyper, prox, state, _ = small_setup(31)
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
        H = representations(state, net)
        mask = net.views[view].mask
        errs, scales = [], []
        for node in np.flatnonzero(mask):
            approx = reconstruct_missing(state, int(node), view)
            actual = H[view][node]
            errs.append(np.linalg.norm(approx - actual))
            scales.append(np.linalg.norm(actual))
        ratio = float(np.mean(errs) / max(np.mean(scales), 1e-12))
        # reported, not hard-bounded: the subspace fit should explain most of H
        print(f"subspace reconstruction relative error: {ratio:.3f}")
        assert np.isfinite(ratio)
