"""Property tests: training and resume over small random networks that ``validate`` accepts."""

import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpmne import io
from dpmne.proximity import ProximityConfig
from dpmne.trainer import Hyperparams, train

from conftest import networks

# Features stay within +-1e9. The autoencoders' line search starts at the unit-length step
# 1/||g||, so the steps it tries scale with the features; a search from a fixed first step
# ran out of halvings from about 2e8. From about 1.7e38, half of float32's range, the float32
# passes' reconstruction error gradient overflows, and features near 1e154 overflow the warm
# start's Gram.
FEATURE_MAX = 1e9

SETTINGS = settings(max_examples=25, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


bounded_networks = networks(features=st.floats(-FEATURE_MAX, FEATURE_MAX))
weights = st.floats(0.0, 10.0)
hyperparams = st.builds(
    Hyperparams, alpha=weights, beta=weights, lam=weights, dim=st.integers(1, 4),
    max_iters=st.integers(0, 2), y_steps=st.integers(0, 3), h_steps=st.integers(0, 3),
    hidden_dims=st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple),
    proximity=st.builds(ProximityConfig, order=st.integers(1, 3), normalize=st.booleans()),
    seed=st.integers(0, 2**32 - 1))


def train_or_value_error(network, hyper, init_state=None):
    """The trained state, or None when training refuses the input with a ValueError."""
    try:
        return train(network, hyper, init_state=init_state)
    except ValueError:
        return None


@SETTINGS
@given(bounded_networks, hyperparams)
def test_training_refuses_with_a_value_error_or_gives_a_monotone_finite_trace(network, hyper):
    state = train_or_value_error(network, hyper)
    if state is not None:
        trace = np.asarray(state.objective_trace)
        assert trace.size >= 1 and np.all(np.isfinite(trace))
        assert np.all(np.diff(trace) <= 0.0)


@SETTINGS
@given(bounded_networks, hyperparams)
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
    assert all(map(np.array_equal, direct.B, resumed.B))
    for a, b in zip(direct.autoencoders, resumed.autoencoders):
        assert all(map(np.array_equal, a.all_arrays(), b.all_arrays()))
