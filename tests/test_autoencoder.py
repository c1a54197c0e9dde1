import numpy as np
import pytest
from scipy.special import expit

from dpmne import autoencoder as ae
from dpmne.autoencoder import (AutoencoderParams, decode, encode, init_autoencoder,
                               train_view_autoencoder, view_loss, view_loss_and_grads)
from dpmne.optim import armijo_minimize, flatten, unflatten

from conftest import recording_armijo


def straight_line_forward(params, X):
    """Independent re-implementation of the whole layer recurrence."""
    fns = {"identity": lambda z: z, "tanh": np.tanh, "sigmoid": expit}
    depth = len(params.weights) // 2
    h = np.asarray(X, dtype=np.float64)
    for W, b in zip(params.weights[:depth], params.biases[:depth]):
        h = fns[params.activation](h @ W + b)
    x = h
    for k, (W, b) in enumerate(zip(params.weights[depth:], params.biases[depth:])):
        act = params.output_activation if k == depth - 1 else params.activation
        x = fns[act](x @ W + b)
    return h, x


def identity_params(dim):
    eye = np.eye(dim)
    zero = np.zeros(dim)
    return AutoencoderParams([eye.copy(), eye.copy()], [zero.copy(), zero.copy()],
                             activation="identity", output_activation="identity")


def central_difference(fun, vec, eps=1e-6):
    grad = np.zeros_like(vec)
    for i in range(vec.size):
        up = vec.copy()
        dn = vec.copy()
        up[i] += eps
        dn[i] -= eps
        grad[i] = (fun(up) - fun(dn)) / (2.0 * eps)
    return grad


def rel_error(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


class TestEncode:
    def test_all_masked_input_encodes_to_zero(self):
        params = init_autoencoder(4, (3,), rng=np.random.default_rng(0))
        H = encode(params, np.zeros((5, 4)), np.zeros(5, dtype=bool))
        assert np.array_equal(H, np.zeros((5, 3)))

    def test_identity_network_reproduces_present_rows(self):
        params = identity_params(3)
        X = np.arange(12.0).reshape(4, 3)
        mask = np.array([True, False, True, True])
        X = X * mask[:, None]
        H = encode(params, X, mask)
        np.testing.assert_array_equal(H[mask], X[mask])
        assert np.all(H[~mask] == 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_forward_matches_straight_line_oracle(self, seed):
        rng = np.random.default_rng(seed)
        params = init_autoencoder(5, (7, 3), rng=rng)
        X = rng.random((8, 5))
        H = encode(params, X)
        H_oracle, X_oracle = straight_line_forward(params, X)
        assert np.max(np.abs(H - H_oracle)) < 1e-12
        assert np.max(np.abs(decode(params, H) - X_oracle)) < 1e-12

    def test_masked_row_storage_never_changes_output(self):
        rng = np.random.default_rng(9)
        params = init_autoencoder(4, (3,), rng=rng)
        X = rng.random((6, 4))
        mask = np.array([True, True, False, True, False, True])
        X[~mask] = 0.0
        base = encode(params, X, mask)
        X_poisoned = X.copy()
        X_poisoned[~mask] = rng.random((2, 4)) * 100
        assert np.array_equal(encode(params, X_poisoned, mask), base)

    def test_shape_mismatch_rejected(self):
        params = init_autoencoder(4, (3,), rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            encode(params, np.zeros((5, 3)))
        with pytest.raises(ValueError):
            encode(params, np.zeros((5, 4)), np.ones(4, dtype=bool))


class TestDecode:
    def test_round_trip_through_identity_network(self):
        params = identity_params(2)
        X = np.array([[0.1, 0.2], [0.3, 0.4]])
        np.testing.assert_array_equal(decode(params, encode(params, X)), X)

    def test_zero_hidden_row_decodes_to_bias_response(self):
        rng = np.random.default_rng(1)
        params = init_autoencoder(4, (3,), rng=rng)
        params.biases[1][:] = rng.random(4)  # the decoder's only layer
        out = decode(params, np.zeros((1, 3)))
        np.testing.assert_allclose(out[0], expit(params.biases[1]), atol=1e-15)


def small_problem(seed, n=10, d_in=5, hidden=(6, 4), d=3, missing=2):
    rng = np.random.default_rng(seed)
    params = init_autoencoder(d_in, hidden, rng=rng)
    mask = np.ones(n, dtype=bool)
    mask[rng.choice(n, size=missing, replace=False)] = False
    X = rng.random((n, d_in))
    X[~mask] = 0.0
    Y = rng.standard_normal((n, d))
    B = rng.standard_normal((d, params.code_dim))
    return params, X, mask, Y, B


class TestTrainViewAutoencoder:
    @pytest.mark.parametrize("seed", range(3))
    def test_plain_gradient_matches_finite_differences(self, seed):
        # alpha = 0 reduces to an ordinary autoencoder
        params, X, mask, _, _ = small_problem(seed)
        templates = params.all_arrays()
        vec = flatten(templates)
        loss, grads = view_loss_and_grads(params, X, mask, alpha=0.0, lam=0.01)

        def fun(v):
            return view_loss(params.replace_arrays(unflatten(v, templates)),
                             X, mask, alpha=0.0, lam=0.01)

        assert view_loss(params, X, mask, alpha=0.0, lam=0.01) == loss
        assert rel_error(flatten(grads), central_difference(fun, vec)) < 1e-5

    @pytest.mark.parametrize("seed", range(3))
    def test_coupled_gradient_matches_finite_differences(self, seed):
        params, X, mask, Y, B = small_problem(seed + 10)
        templates = params.all_arrays()
        vec = flatten(templates)
        loss, grads = view_loss_and_grads(params, X, mask, Y, B, alpha=0.7, lam=0.05)

        def fun(v):
            return view_loss(params.replace_arrays(unflatten(v, templates)),
                             X, mask, Y, B, alpha=0.7, lam=0.05)

        assert view_loss(params, X, mask, Y, B, alpha=0.7, lam=0.05) == loss
        assert rel_error(flatten(grads), central_difference(fun, vec)) < 1e-5

    def test_zero_steps_leaves_params_unchanged(self):
        params, X, mask, Y, B = small_problem(4)
        out, _ = train_view_autoencoder(params, X, mask, Y, B, 1.0, 0.01, steps=0)
        for before, after in zip(params.all_arrays(), out.all_arrays()):
            assert np.array_equal(before, after)

    @pytest.mark.parametrize("seed", range(4))
    def test_loss_never_increases(self, seed):
        params, X, mask, Y, B = small_problem(seed + 20)
        before = view_loss(params, X, mask, Y, B, alpha=1.0, lam=0.01)
        out, _ = train_view_autoencoder(params, X, mask, Y, B, 1.0, 0.01, steps=8, lr=0.5)
        after = view_loss(out, X, mask, Y, B, alpha=1.0, lam=0.01)
        assert after <= before + 1e-12

    def test_non_finite_input_raises(self):
        params, X, mask, Y, B = small_problem(5)
        X = X.copy()
        X[0, 0] = np.nan
        mask = np.ones_like(mask)
        with pytest.raises(FloatingPointError):
            train_view_autoencoder(params, X, mask, Y, B, 1.0, 0.01, steps=1)

    @pytest.mark.parametrize("alpha", [0.0, 0.8])
    def test_matches_plain_loss_and_gradient_line_search(self, alpha):
        params, X, mask, Y, B = small_problem(30)
        templates = params.all_arrays()

        def unpack(v):
            return params.replace_arrays(unflatten(v, templates))

        vec, _, _ = armijo_minimize(
            lambda v: view_loss(unpack(v), X, mask, Y, B, alpha, 0.01),
            lambda v: flatten(view_loss_and_grads(unpack(v), X, mask, Y, B, alpha, 0.01)[1]),
            flatten(templates), steps=8, step0=0.5)
        out, _ = train_view_autoencoder(params, X, mask, Y, B, alpha, 0.01, steps=8, lr=0.5)
        assert np.array_equal(flatten(out.all_arrays()), vec)

    def test_each_point_runs_one_forward_pass(self, monkeypatch):
        params, X, mask, Y, B = small_problem(31)
        calls = []
        forward = ae._view_forward

        def counted_forward(*args):
            calls.append("forward")
            return forward(*args)

        monkeypatch.setattr(ae, "_view_forward", counted_forward)
        monkeypatch.setattr(ae, "armijo_minimize", recording_armijo(calls))
        train_view_autoencoder(params, X, mask, Y, B, 1.0, 0.01, steps=6, lr=0.5)
        assert calls.count("g") > 0
        assert calls.count("forward") == calls.count("f")

    def test_loss_invariant_under_node_permutation(self):
        params, X, mask, Y, B = small_problem(6)
        perm = np.random.default_rng(0).permutation(X.shape[0])
        a = view_loss(params, X, mask, Y, B, alpha=0.9, lam=0.02)
        b = view_loss(params, X[perm], mask[perm], Y[perm], B, alpha=0.9, lam=0.02)
        assert a == pytest.approx(b, rel=1e-12)
