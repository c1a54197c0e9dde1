import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpmne import optim
from dpmne.graph_model import MultiplexNetwork, ViewData, validate


def recording_armijo(calls):
    """``armijo_minimize`` that appends "f" per loss and "g" per gradient call to ``calls``.

    The wrapped callables receive the optimizer's own arrays, so a closure
    keyed on their identity behaves as without the wrapper.
    """
    def armijo(fun, grad, x0, *args, **kwargs):
        def recorded_fun(x):
            calls.append("f")
            return fun(x)

        def recorded_grad(x):
            calls.append("g")
            return grad(x)

        return optim.armijo_minimize(recorded_fun, recorded_grad, x0, *args, **kwargs)
    return armijo


def make_view(features, mask, edges, n):
    features = np.asarray(features, dtype=np.float64)
    adj = sp.lil_matrix((n, n))
    for u, v in edges:
        adj[u, v] = 1.0
        adj[v, u] = 1.0
    return ViewData(features, np.asarray(mask, dtype=bool), sp.csr_matrix(adj))


@pytest.fixture
def tiny_network():
    """Well-formed 3-node, 2-view network with one masked row in view 1."""
    view0 = make_view([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                      [True, True, True], [(0, 1), (1, 2)], 3)
    view1 = make_view([[0.5], [0.0], [0.25]],
                      [True, False, True], [(0, 2)], 3)
    return MultiplexNetwork(3, [view0, view1])


def random_network(seed, n=12, t=2, dims=(5, 4), missing=(0.25, 0.25), edge_p=0.3,
                   labels=False):
    """Small random network for property checks; every node present somewhere."""
    rng = np.random.default_rng(seed)
    views = []
    masks = [np.ones(n, dtype=bool) for _ in range(t)]
    for s in range(t):
        count = int(missing[s] * n)
        present_elsewhere = np.sum(masks, axis=0)
        candidates = np.flatnonzero(masks[s] & (present_elsewhere >= 2))
        drop = rng.choice(candidates, size=min(count, candidates.size), replace=False)
        masks[s][drop] = False
    for s in range(t):
        features = rng.random((n, dims[s]))
        features[~masks[s]] = 0.0
        upper = np.triu(rng.random((n, n)) < edge_p, k=1)
        adj = sp.csr_matrix((upper | upper.T).astype(np.float64))
        views.append(ViewData(features, masks[s], adj))
    lab = rng.integers(0, 3, size=n) if labels else None
    return MultiplexNetwork(n, views, lab)


@st.composite
def networks(draw, features=st.floats(allow_nan=False, allow_infinity=False), labels=False):
    """Networks with n <= 12, t <= 3, widths <= 4 and random masks that ``validate`` accepts.

    Feature values come from ``features``; with ``labels``, each node gets an int64 label.
    """
    n = draw(st.integers(1, 12))
    t = draw(st.integers(1, 3))
    views = []
    for _ in range(t):
        dim = draw(st.integers(1, 4))
        mask = draw(arrays(bool, n))
        mask[draw(st.integers(0, n - 1))] = True  # validate wants a present node per view
        values = draw(arrays(np.float64, (n, dim), elements=features))
        upper = np.triu(draw(arrays(bool, (n, n))), k=1)
        views.append(ViewData(np.where(mask[:, None], values, 0.0), mask,
                              sp.csr_matrix((upper | upper.T).astype(np.float64))))
    node_labels = draw(arrays(np.int64, n)) if labels else None
    network = MultiplexNetwork(n, views, node_labels)
    assert validate(network) == []
    return network
