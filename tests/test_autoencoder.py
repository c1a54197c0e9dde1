import warnings

import numpy as np
import pytest
from scipy.special import expit

from dpmne import autoencoder as ae
from dpmne import optim
from dpmne.autoencoder import (AutoencoderParams, decode, encode, flatten, init_autoencoder,
                               train_view_autoencoder, unflatten, view_loss_and_grads)
from dpmne.graph_model import SynthConfig, synth_generate
from dpmne.optim import armijo_minimize

from conftest import point_pass, recording_armijo


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
        params = init_autoencoder(4, (3,), "tanh", "sigmoid", np.random.default_rng(0))
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
        params = init_autoencoder(5, (7, 3), "tanh", "sigmoid", rng)
        X = rng.random((8, 5))
        H_oracle, X_oracle = straight_line_forward(params, X)
        reference = ae._view_forward(params, X)  # float64 rows: the float64 path
        assert np.max(np.abs(reference.code - H_oracle)) < 1e-12
        assert np.max(np.abs(decode(params, reference.code) - X_oracle)) < 1e-12
        H = encode(params, X, np.ones(8, dtype=bool))  # float32, as training runs
        assert H.dtype == np.float32 and decode(params, H).dtype == np.float32
        assert rel_error(H, H_oracle) < 1e-5
        assert rel_error(decode(params, H), X_oracle) < 1e-5

    def test_masked_row_storage_never_changes_output(self):
        rng = np.random.default_rng(9)
        params = init_autoencoder(4, (3,), "tanh", "sigmoid", rng)
        X = rng.random((6, 4))
        mask = np.array([True, True, False, True, False, True])
        X[~mask] = 0.0
        base = encode(params, X, mask)
        X_poisoned = X.copy()
        X_poisoned[~mask] = rng.random((2, 4)) * 100
        assert np.array_equal(encode(params, X_poisoned, mask), base)

    def test_shape_mismatch_rejected(self):
        params = init_autoencoder(4, (3,), "tanh", "sigmoid", np.random.default_rng(0))
        with pytest.raises(ValueError):
            encode(params, np.zeros((5, 3)), np.ones(5, dtype=bool))
        with pytest.raises(ValueError):
            encode(params, np.zeros((5, 4)), np.ones(4, dtype=bool))


class TestDecode:
    def test_round_trip_through_identity_network(self):
        params = identity_params(2)
        X = np.array([[0.1, 0.2], [0.3, 0.4]])
        np.testing.assert_array_equal(decode(params, encode(params, X, np.ones(2, dtype=bool))),
                                      X.astype(np.float32))  # encode runs in float32

    def test_zero_hidden_row_decodes_to_bias_response(self):
        rng = np.random.default_rng(1)
        params = init_autoencoder(4, (3,), "tanh", "sigmoid", rng)
        params.biases[1][:] = rng.random(4)  # the decoder's only layer
        out = decode(params, np.zeros((1, 3)))
        np.testing.assert_allclose(out[0], expit(params.biases[1]), atol=1e-15)


def small_problem(seed, n=10, d_in=5, hidden=(6, 4), d=3, missing=2):
    rng = np.random.default_rng(seed)
    params = init_autoencoder(d_in, hidden, "tanh", "sigmoid", rng)
    mask = np.ones(n, dtype=bool)
    mask[rng.choice(n, size=missing, replace=False)] = False
    X = rng.random((n, d_in))
    X[~mask] = 0.0
    Y = rng.standard_normal((n, d))
    B = rng.standard_normal((d, params.code_dim))
    return params, X, mask, Y, B


def train_from_params(params, X, mask, Y, B, alpha, steps):
    """``train_view_autoencoder`` from the pass of ``params`` toward the target of Y and B."""
    return train_view_autoencoder(ae._view_forward(params, X[mask]),
                                  ae._view_target(mask, Y, B, alpha), alpha, 0.01, steps)


def plain_line_search(params, X, mask, Y, B, alpha, steps, trials=None):
    """The search's final point from ``view_loss_and_grads`` alone.

    Each value the search asks for is appended to ``trials`` when given.
    """
    templates = params.all_arrays()
    trials = [] if trials is None else trials

    def unpack(v):
        return params.replace_arrays(unflatten(v, templates))

    def fun(v):
        trials.append(v)
        return view_loss_and_grads(unpack(v), X, mask, Y, B, alpha, 0.01)[0]

    forward, backward = point_pass(fun, lambda v: flatten(
        view_loss_and_grads(unpack(v), X, mask, Y, B, alpha, 0.01)[1]))
    x0 = flatten(templates)
    return armijo_minimize(forward, backward, x0, steps=steps, start=forward(x0))[0]


class TestTrainViewAutoencoder:
    @pytest.mark.parametrize("seed", range(3))
    def test_plain_gradient_matches_finite_differences(self, seed):
        # alpha = 0 reduces to an ordinary autoencoder
        params, X, mask, Y, B = small_problem(seed)
        templates = params.all_arrays()
        vec = flatten(templates)
        grads = view_loss_and_grads(params, X, mask, Y, B, alpha=0.0, lam=0.01)[1]

        def fun(v):
            return view_loss_and_grads(params.replace_arrays(unflatten(v, templates)),
                                       X, mask, Y, B, alpha=0.0, lam=0.01)[0]

        assert rel_error(flatten(grads), central_difference(fun, vec)) < 1e-5

    @pytest.mark.parametrize("seed", range(3))
    def test_coupled_gradient_matches_finite_differences(self, seed):
        params, X, mask, Y, B = small_problem(seed + 10)
        templates = params.all_arrays()
        vec = flatten(templates)
        grads = view_loss_and_grads(params, X, mask, Y, B, alpha=0.7, lam=0.05)[1]

        def fun(v):
            return view_loss_and_grads(params.replace_arrays(unflatten(v, templates)),
                                       X, mask, Y, B, alpha=0.7, lam=0.05)[0]

        assert rel_error(flatten(grads), central_difference(fun, vec)) < 1e-5

    def test_zero_steps_leaves_params_unchanged(self):
        params, X, mask, Y, B = small_problem(4)
        out = train_from_params(params, X, mask, Y, B, 1.0, steps=0).params
        for before, after in zip(params.all_arrays(), out.all_arrays()):
            assert np.array_equal(before, after)

    @pytest.mark.parametrize("seed", range(4))
    def test_loss_never_increases(self, seed):
        params, X, mask, Y, B = small_problem(seed + 20)
        before = view_loss_and_grads(params, X, mask, Y, B, alpha=1.0, lam=0.01)[0]
        out = train_from_params(params, X, mask, Y, B, 1.0, steps=8).params
        after = view_loss_and_grads(out, X, mask, Y, B, alpha=1.0, lam=0.01)[0]
        assert after <= before + 1e-12

    def test_non_finite_input_raises(self):
        params, X, mask, Y, B = small_problem(5)
        X = X.copy()
        X[0, 0] = np.nan
        mask = np.ones_like(mask)
        with pytest.raises(FloatingPointError):
            train_from_params(params, X, mask, Y, B, 1.0, steps=1)

    @pytest.mark.parametrize("alpha", [0.0, 0.8])
    def test_matches_plain_loss_and_gradient_line_search(self, alpha):
        params, X, mask, Y, B = small_problem(30)
        vec = plain_line_search(params, X, mask, Y, B, alpha, steps=8)
        out = train_from_params(params, X, mask, Y, B, alpha, steps=8).params
        assert np.array_equal(flatten(out.all_arrays()), vec)

    def test_each_point_runs_one_forward_pass(self, monkeypatch):
        params, X, mask, Y, B = small_problem(31)
        start = ae._view_forward(params, X[mask])
        target = ae._view_target(mask, Y, B, 1.0)
        calls = []
        forward = ae._view_forward

        def counted_forward(*args):
            calls.append("forward")
            return forward(*args)

        monkeypatch.setattr(ae, "_view_forward", counted_forward)
        monkeypatch.setattr(ae, "armijo_minimize", recording_armijo(calls))
        train_view_autoencoder(start, target, 1.0, 0.01, steps=6)
        assert calls[0] == "g"  # the start pass is priced, not run again
        assert calls.count("g") > 0
        assert calls.count("forward") == calls.count("f")

    @pytest.mark.parametrize("steps", [0, 1, 6])
    def test_returns_the_pass_of_the_trained_parameters(self, steps):
        params, X, mask, Y, B = small_problem(32)
        start = ae._view_forward(params, ae._present_rows(X, mask))  # float32, as in training
        vpass = train_view_autoencoder(start, ae._view_target(mask, Y, B, 1.0), 1.0, 0.01, steps)
        fresh = ae._view_forward(vpass.params, ae._present_rows(X, mask))
        assert vpass.recon == fresh.recon
        assert all(a.tobytes() == b.tobytes() for a, b in zip(vpass.outputs, fresh.outputs))
        assert vpass.code.tobytes() == encode(vpass.params, X, mask)[mask].tobytes()

    @pytest.mark.parametrize("steps", [0, 1, 6])
    def test_a_start_pass_saves_the_first_forward_pass_and_changes_no_byte(self, steps,
                                                                          monkeypatch):
        params, X, mask, Y, B = small_problem(33)
        start = train_from_params(params, X, mask, Y, B, 1.0, steps=3)
        B = B + 0.1  # a new target: the start is repriced, not recomputed
        trials = []
        vec = plain_line_search(start.params, X, mask, Y, B, 1.0, steps, trials)
        calls = []
        monkeypatch.setattr(ae, "armijo_minimize", recording_armijo(calls))
        last = train_view_autoencoder(start, ae._view_target(mask, Y, B, 1.0), 1.0, 0.01, steps)
        assert flatten(last.params.all_arrays()).tobytes() == vec.tobytes()
        assert last.rows is start.rows  # the present rows are taken once
        assert (last is start) == (steps == 0)
        assert calls.count("f") == len(trials) - 1

    @pytest.mark.parametrize("steps", [0, 4])
    def test_returns_the_pass_the_search_returns(self, steps, monkeypatch):
        params, X, mask, Y, B = small_problem(34)
        start = ae._view_forward(params, X[mask])
        target = ae._view_target(mask, Y, B, 1.0)
        returned = []

        def recorded_armijo(*args, **kwargs):
            returned.append(armijo_minimize(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(ae, "armijo_minimize", recorded_armijo)
        vpass = train_view_autoencoder(start, target, 1.0, 0.01, steps=steps)
        (vec, _, last), = returned
        assert vpass is last and flatten(vpass.params.all_arrays()).tobytes() == vec.tobytes()
        assert vpass.recon == ae._view_forward(vpass.params, X[mask]).recon

    def test_loss_invariant_under_node_permutation(self):
        params, X, mask, Y, B = small_problem(6)
        perm = np.random.default_rng(0).permutation(X.shape[0])
        a = view_loss_and_grads(params, X, mask, Y, B, alpha=0.9, lam=0.02)[0]
        b = view_loss_and_grads(params, X[perm], mask[perm], Y[perm], B, alpha=0.9,
                                lam=0.02)[0]
        assert a == pytest.approx(b, rel=1e-12)


def wide_problem():
    """A view of the ``ae-wide`` bench shape: 420 present rows, 300 features, (256, 64) layers."""
    net = synth_generate(SynthConfig(n=600, communities=8, t=3, feature_dim=300, pdr=0.3, seed=5))
    view, rng = net.views[0], np.random.default_rng(5)
    params = init_autoencoder(300, (256, 64), "tanh", "sigmoid", rng)
    Y = rng.standard_normal((600, 64)) / 8.0
    B = rng.standard_normal((64, 64)) / 8.0
    return params, view.features, view.mask, Y, B


SHAPES = {"ae-wide": wide_problem,
          "small": lambda: small_problem(40),
          "small-deep": lambda: small_problem(41, n=30, d_in=12, hidden=(9, 7, 3), missing=7)}


class TestFloat32Passes:
    """Training's float32 passes against the float64 reference at the same point.

    The bounds were fixed before the first run: loss and reconstruction error
    within 1e-6 relative, the flat gradient within 1e-5 relative in norm and
    the codes within 1e-5 relative.
    """

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_loss_gradient_and_codes_match_the_float64_reference(self, shape, alpha):
        params, X, mask, Y, B = SHAPES[shape]()
        lam = 0.01
        target = ae._view_target(mask, Y, B, alpha)
        fast = ae._view_forward(params, ae._present_rows(X, mask))
        reference = ae._view_forward(params, X[mask])
        loss, grads = view_loss_and_grads(params, X, mask, Y, B, alpha, lam)
        assert ae._view_loss(fast, target, alpha, lam) == pytest.approx(loss, rel=1e-6)
        assert fast.recon == pytest.approx(reference.recon, rel=1e-6)
        assert rel_error(flatten(ae._view_backward(fast, target, alpha, lam)),
                         flatten(grads)) < 1e-5
        assert rel_error(fast.code, reference.code) < 1e-5

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_pass_is_float32_and_everything_else_float64(self, shape, monkeypatch):
        params, X, mask, Y, B = SHAPES[shape]()
        start = ae._view_forward(params, ae._present_rows(X, mask))
        assert all(out.dtype == np.float32 for out in start.outputs)
        assert encode(params, X, mask)[mask].tobytes() == start.code.tobytes()
        target = ae._view_target(mask, Y, B, 1.0)
        grads = ae._view_backward(start, target, 1.0, 0.01)
        assert all(g.dtype == np.float64 for g in grads[:len(params.weights)])  # ridge in float64
        assert flatten(grads).dtype == np.float64
        pairs = []
        direction = optim._lbfgs_direction

        def recorded(g, kept):
            pairs.extend(kept)
            return direction(g, kept)

        monkeypatch.setattr(optim, "_lbfgs_direction", recorded)
        trained = train_view_autoencoder(start, target, 1.0, 0.01, steps=4)
        assert pairs and all(s.dtype == y.dtype == np.float64 for s, y, _ in pairs)
        assert all(a.dtype == np.float64 for a in trained.params.all_arrays())
        assert all(out.dtype == np.float32 for out in trained.outputs)
        assert type(trained.recon) is float

    def test_the_reconstruction_error_is_summed_in_float64(self):
        # squares of 1e20 overflow float32; the error of zero weights is the rows' squared sum
        params = identity_params(2)
        params = params.replace_arrays([np.zeros_like(a) for a in params.all_arrays()])
        rows = np.array([[1e20, -3e19], [2.5e20, 7.0]], dtype=np.float32)
        with np.errstate(over="raise"):
            vpass = ae._view_forward(params, rows)
        assert np.isfinite(vpass.recon)
        assert vpass.recon == float(np.sum(rows.astype(np.float64) ** 2))

    def test_an_overflowing_trial_is_priced_not_raised(self, monkeypatch):
        # inside update_H overflows raise; a trial that overflows must still cost inf or nan
        params, X, mask, Y, B = small_problem(42)
        start = ae._view_forward(params, ae._present_rows(X, mask))
        target = ae._view_target(mask, Y, B, 1.0)
        expected = train_view_autoencoder(start, target, 1.0, 0.01, steps=3)
        far = []

        def probing(forward, backward, x0, steps, start):
            far.append(forward(x0 * 1e39)[0])  # its float32 cast overflows
            return armijo_minimize(forward, backward, x0, steps, start)

        monkeypatch.setattr(ae, "armijo_minimize", probing)
        with np.errstate(over="raise", invalid="raise"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trained = train_view_autoencoder(start, target, 1.0, 0.01, steps=3)
        assert len(far) == 1 and not np.isfinite(far[0])
        assert flatten(trained.params.all_arrays()).tobytes() == flatten(
            expected.params.all_arrays()).tobytes()
