from dataclasses import replace

import numpy as np
import pytest

from dpmne import autoencoder as ae
from dpmne import trainer
from dpmne.graph_model import SynthConfig, synth_generate
from dpmne.optim import armijo_minimize
from dpmne.proximity import ProximityConfig, build_stack
from dpmne.trainer import (EmbeddingState, Hyperparams, _y_grad, _y_value, _y_views, grad_B,
                           grad_Y, objective, reconstruct_missing, train, update_B, update_H,
                           update_Y)

from conftest import random_network, recording_armijo
from oracles import objective_from_params


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
        recon = sum(
            ae.reconstruction_loss(v.features,
                                   ae.decode(state.autoencoders[s], state.H[s]),
                                   v.mask)
            for s, v in enumerate(network.views))
        assert value == pytest.approx(recon, rel=1e-12)

    def test_non_finite_objective_raises(self):
        network, hyper, prox, state = small_setup(2)
        state.Y[0, 0] = np.inf
        with pytest.raises(FloatingPointError):
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

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_plain_value_and_gradient_line_search(self, seed):
        network, hyper, prox, state = small_setup(seed + 20)
        shape, views, L = state.Y.shape, _y_views(state), prox.laplacian
        vec, _, _ = armijo_minimize(
            lambda v: _y_value(v.reshape(shape), L @ v.reshape(shape), views, hyper),
            lambda v: _y_grad(v.reshape(shape), L @ v.reshape(shape), views, hyper).ravel(),
            state.Y.ravel(), steps=hyper.y_steps, step0=hyper.y_lr)
        assert np.array_equal(update_Y(state, prox, hyper).Y, vec.reshape(shape))

    def test_each_point_applies_the_laplacian_once(self, monkeypatch):
        network, hyper, prox, state = small_setup(23)
        calls = []

        class CountingLaplacian:
            def __matmul__(self, Y):
                calls.append("L")
                return prox.laplacian @ Y

        monkeypatch.setattr(trainer, "armijo_minimize", recording_armijo(calls))
        update_Y(state, replace(prox, laplacian=CountingLaplacian()),
                 replace(hyper, y_steps=6))
        assert calls.count("g") > 0
        assert calls.count("L") == calls.count("f")

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


class TestHyperparams:
    @pytest.mark.parametrize("bad", [
        {"alpha": -1.0}, {"beta": -1.0}, {"lam": -0.5}, {"alpha": float("nan")},
        {"dim": 0}, {"max_iters": -1}, {"y_steps": -1}, {"h_steps": -2},
        {"hidden_dims": ()}, {"hidden_dims": (4, 0)}, {"y_lr": 0.0}, {"h_lr": -0.1}])
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
