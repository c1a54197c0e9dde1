"""Property tests: training and resume over small random networks that ``validate`` accepts."""

import os
import tempfile

import numpy as np
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpmne import io
from dpmne.graph_model import MultiplexNetwork, ViewData, validate
from dpmne.proximity import ProximityConfig
from dpmne.trainer import Hyperparams, train

# Features stay within +-1e6: from about 2e8 (at h_lr = 1) an autoencoder needs steps below
# the 60 halvings of h_lr its line search tries, and training raises a RuntimeError.
FEATURE_MAX = 1e6

SETTINGS = settings(max_examples=25, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def networks(draw):
    n = draw(st.integers(1, 12))
    t = draw(st.integers(1, 3))
    views = []
    for _ in range(t):
        dim = draw(st.integers(1, 4))
        mask = draw(arrays(bool, n))
        mask[draw(st.integers(0, n - 1))] = True  # validate wants a present node per view
        values = draw(arrays(np.float64, (n, dim), elements=st.floats(-FEATURE_MAX, FEATURE_MAX)))
        upper = np.triu(draw(arrays(bool, (n, n))), k=1)
        views.append(ViewData(dim, np.where(mask[:, None], values, 0.0), mask,
                              sp.csr_matrix((upper | upper.T).astype(np.float64))))
    network = MultiplexNetwork(n, t, views)
    assert validate(network) == []
    return network


weights = st.floats(0.0, 10.0)
activations = st.sampled_from(["identity", "tanh", "sigmoid", "relu"])
hyperparams = st.builds(
    Hyperparams, alpha=weights, beta=weights, lam=weights, dim=st.integers(1, 4),
    max_iters=st.integers(0, 2), y_steps=st.integers(0, 3), h_steps=st.integers(0, 3),
    h_lr=st.floats(1e-3, 1.0), hidden_dims=st.lists(st.integers(1, 4), min_size=1,
                                                    max_size=2).map(tuple),
    activation=activations, output_activation=activations,
    proximity=st.builds(ProximityConfig, order=st.integers(1, 3), normalize=st.booleans()),
    seed=st.integers(0, 2**32 - 1))


def train_or_value_error(network, hyper, init_state=None):
    """The trained state, or None when training refuses the input with a ValueError."""
    try:
        return train(network, hyper, init_state=init_state)
    except ValueError:
        return None


@SETTINGS
@given(networks(), hyperparams)
def test_training_refuses_with_a_value_error_or_gives_a_monotone_finite_trace(network, hyper):
    state = train_or_value_error(network, hyper)
    if state is not None:
        trace = np.asarray(state.objective_trace)
        assert trace.size >= 1 and np.all(np.isfinite(trace))
        assert np.all(np.diff(trace) <= 0.0)


@SETTINGS
@given(networks(), hyperparams)
def test_resuming_from_a_checkpoint_is_resuming_from_the_state(network, hyper):
    state = train_or_value_error(network, hyper)
    if state is None:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.npz")
        io.checkpoint(state, path)
        restored = io.restore(path)
    direct = train_or_value_error(network, hyper, init_state=state)
    resumed = train_or_value_error(network, hyper, init_state=restored)
    assert (direct is None) == (resumed is None)
    if direct is None:
        return
    assert direct.objective_trace == resumed.objective_trace
    assert np.array_equal(direct.Y, resumed.Y)
    for name in ("B", "H"):
        assert all(map(np.array_equal, getattr(direct, name), getattr(resumed, name)))
    for a, b in zip(direct.autoencoders, resumed.autoencoders):
        assert all(map(np.array_equal, a.all_arrays(), b.all_arrays()))
