import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from dpmne.graph_model import MultiplexNetwork, ViewData
from dpmne.proximity import ProximityConfig, ProximityLaplacian, build_stack, default_weights

from conftest import random_network
from oracles import aggregate_and_laplacian, high_order_proximity

def dense_power_oracle(adj, order, weights):
    """Sum of weighted matrix powers by plain dense multiplication."""
    A = np.asarray(adj.todense() if sp.issparse(adj) else adj, dtype=np.float64)
    total = np.zeros_like(A)
    power = np.eye(A.shape[0])
    for w in weights[:order]:
        power = power @ A
        total += w * power
    return total


def random_adjacency(rng, n, p):
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return sp.csr_matrix((upper | upper.T).astype(np.float64))


def path_graph():
    return sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.float64))


def test_default_weights_halve():
    assert default_weights(5) == (1.0, 0.5, 0.25, 0.125, 0.0625)


def test_empty_graph_gives_zero_proximity():
    P = high_order_proximity(sp.csr_matrix((4, 4)))
    assert P.nnz == 0


def test_path_graph_second_order_by_hand():
    cfg = ProximityConfig(order=2, weights=(1.0, 0.5))
    P = high_order_proximity(path_graph(), cfg).toarray()
    expected = np.array([[0.5, 1.0, 0.5],
                         [1.0, 1.0, 1.0],
                         [0.5, 1.0, 0.5]])
    np.testing.assert_array_equal(P, expected)


@pytest.mark.parametrize("seed", range(5))
def test_default_config_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    adj = random_adjacency(rng, 50, 0.15)
    P = high_order_proximity(adj).toarray()
    expected = dense_power_oracle(adj, 5, default_weights(5))
    assert np.max(np.abs(P - expected)) < 1e-9


def test_first_order_returns_the_adjacency():
    rng = np.random.default_rng(2)
    adj = random_adjacency(rng, 20, 0.2)
    P = high_order_proximity(adj, ProximityConfig(order=1, weights=(1.0,)))
    assert (P != adj).nnz == 0


def test_adding_an_edge_never_decreases_entries():
    rng = np.random.default_rng(3)
    adj = random_adjacency(rng, 15, 0.2).tolil()
    empty = np.argwhere(adj.toarray() == 0)
    off = empty[(empty[:, 0] < empty[:, 1])][0]
    before = high_order_proximity(sp.csr_matrix(adj)).toarray()
    adj[off[0], off[1]] = 1.0
    adj[off[1], off[0]] = 1.0
    after = high_order_proximity(sp.csr_matrix(adj)).toarray()
    assert np.all(after >= before - 1e-12)


def test_result_is_symmetric_even_for_directed_input():
    adj = sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=np.float64))
    P = high_order_proximity(adj, ProximityConfig(order=2, weights=(1.0, 0.5)))
    assert (P != P.T).nnz == 0


def test_order_below_one_rejected():
    with pytest.raises(ValueError):
        high_order_proximity(path_graph(), ProximityConfig(order=0, weights=()))


def test_wrong_weight_count_rejected():
    with pytest.raises(ValueError):
        high_order_proximity(path_graph(), ProximityConfig(order=3, weights=(1.0,)))


@pytest.mark.parametrize("bad", [{"order": 0}, {"weights": (1.0,), "order": 2},
                                 {"weights": (1.0, -0.5), "order": 2},
                                 {"weights": (math.nan,), "order": 1},
                                 {"weights": (1.0, math.inf), "order": 2},
                                 {"order": 2.5}, {"order": True}, {"order": None},
                                 {"weights": (1.0, None), "order": 2},
                                 {"weights": (False,), "order": 1}])
def test_config_is_validated_when_built(bad):
    # the first key names the setting at fault
    with pytest.raises(ValueError, match=next(iter(bad))):
        ProximityConfig(**bad)


def test_dense_fill_in_agrees_with_oracle():
    # dense-ish graph: the powers fill in the whole matrix
    rng = np.random.default_rng(4)
    adj = random_adjacency(rng, 30, 0.5)
    P = high_order_proximity(adj).toarray()
    expected = dense_power_oracle(adj, 5, default_weights(5))
    assert np.max(np.abs(P - expected)) < 1e-9


def test_normalized_variant_stays_symmetric_and_bounded():
    rng = np.random.default_rng(5)
    adj = random_adjacency(rng, 25, 0.2)
    P = high_order_proximity(adj, ProximityConfig(normalize=True)).toarray()
    np.testing.assert_allclose(P, P.T, atol=1e-12)
    assert np.max(np.abs(P)) <= sum(default_weights(5)) + 1e-9


class TestAggregateAndLaplacian:
    def test_single_view_aggregate_is_that_view(self):
        P = high_order_proximity(path_graph(), ProximityConfig(order=2, weights=(1.0, 0.5)))
        stack = aggregate_and_laplacian([P])
        np.testing.assert_array_equal(np.diag(stack.degree) - stack.laplacian.toarray(),
                                      P.toarray())

    def test_path_graph_degree_and_laplacian_by_row_sums(self):
        P = high_order_proximity(path_graph(), ProximityConfig(order=2, weights=(1.0, 0.5)))
        stack = aggregate_and_laplacian([P])
        dense = P.toarray()
        degree_oracle = np.array([sum(row) for row in dense])
        np.testing.assert_allclose(stack.degree, degree_oracle, atol=1e-12)
        np.testing.assert_allclose(stack.degree, [2.0, 3.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(stack.laplacian.toarray(),
                                   np.diag(degree_oracle) - dense, atol=1e-12)

    def test_constant_vector_is_in_the_null_space(self):
        rng = np.random.default_rng(6)
        stack = aggregate_and_laplacian(
            [high_order_proximity(random_adjacency(rng, 20, 0.3))])
        ones = np.ones(20)
        assert abs(ones @ (stack.laplacian @ ones)) < 1e-8

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate_and_laplacian([sp.eye(3).tocsr(), sp.eye(4).tocsr()])

    @pytest.mark.parametrize("seed", range(5))
    def test_quadratic_form_identity(self, seed):
        # tr(Y^T L Y) must equal half the proximity-weighted squared distances
        rng = np.random.default_rng(seed)
        n, d = 15, 4
        P = rng.random((n, n))
        P = P + P.T
        stack = aggregate_and_laplacian([sp.csr_matrix(P)])
        Y = rng.standard_normal((n, d))
        lhs = float(np.sum(Y * (stack.laplacian @ Y)))
        rhs = 0.5 * sum(P[i, j] * np.sum((Y[i] - Y[j]) ** 2)
                        for i in range(n) for j in range(n))
        assert abs(lhs - rhs) / abs(rhs) < 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_laplacian_row_sums_and_psd(self, seed):
        rng = np.random.default_rng(seed + 50)
        views = [high_order_proximity(random_adjacency(rng, 30, 0.2)) for _ in range(3)]
        stack = aggregate_and_laplacian(views)
        row_sums = np.asarray(stack.laplacian.sum(axis=1)).ravel()
        scale = max(1.0, float(np.abs(views[0] + views[1] + views[2]).max()))
        assert np.max(np.abs(row_sums)) < 1e-10 * scale
        assert (stack.laplacian != stack.laplacian.T).nnz == 0
        for _ in range(100):
            y = rng.standard_normal(30)
            assert y @ (stack.laplacian @ y) >= -1e-10 * (y @ y)


def random_multiplex(seed, n, t, edge_p=0.15):
    """Random t-view network; view 0 is given as a directed (upper-triangular) graph."""
    net = random_network(seed, n=n, t=t, dims=(2,) * t, missing=(0.2,) * t, edge_p=edge_p)
    net.views[0].adjacency = sp.triu(net.views[0].adjacency, format="csr")
    return net


def oracle_stack(net, cfg):
    return aggregate_and_laplacian([high_order_proximity(v.adjacency, cfg) for v in net.views])


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


OPERATOR_CASES = [(t, order, normalize) for t in (1, 3) for order in range(1, 6)
                  for normalize in (False, True)]


class TestMatrixFreeLaplacian:
    @pytest.mark.parametrize("t,order,normalize", OPERATOR_CASES)
    def test_operator_matches_explicit_oracle(self, t, order, normalize):
        rng = np.random.default_rng(100 * t + 10 * order + normalize)
        net = random_multiplex(int(rng.integers(1 << 30)), n=25, t=t)
        cfg = ProximityConfig(order=order, weights=tuple(rng.random(order)),
                              normalize=normalize)
        stack = build_stack(net, cfg)
        oracle = oracle_stack(net, cfg)
        assert isinstance(stack.laplacian, ProximityLaplacian)
        assert stack.laplacian.shape == (25, 25)
        assert rel_err(stack.degree, oracle.degree) <= 1e-12
        Y = rng.standard_normal((25, 4))
        y = rng.standard_normal(25)
        assert rel_err(stack.laplacian @ Y, oracle.laplacian @ Y) <= 1e-12
        out = stack.laplacian @ y
        assert out.shape == (25,)
        assert rel_err(out, oracle.laplacian @ y) <= 1e-12
        assert rel_err(stack.laplacian.toarray(), oracle.laplacian.toarray()) <= 1e-12

    def test_operand_of_wrong_length_rejected(self, tiny_network):
        laplacian = build_stack(tiny_network).laplacian
        for bad in (np.ones(6), np.ones((4, 2)), np.ones((3, 2, 2))):
            with pytest.raises(ValueError):
                laplacian @ bad

    def test_order_below_one_rejected(self, tiny_network):
        with pytest.raises(ValueError):
            build_stack(tiny_network, ProximityConfig(order=0, weights=()))

    @pytest.mark.parametrize("seed", range(4))
    def test_criterion_4_properties_hold_for_the_operator(self, seed):
        rng = np.random.default_rng(seed + 70)
        n, t = int(rng.integers(10, 30)), int(rng.integers(1, 4))
        net = random_multiplex(seed + 70, n=n, t=t, edge_p=0.2)
        cfg = ProximityConfig(order=int(rng.integers(1, 6)), normalize=bool(seed % 2))
        L = build_stack(net, cfg).laplacian
        P = sum(high_order_proximity(v.adjacency, cfg).toarray() for v in net.views)
        scale = max(1.0, float(P.max()))
        Y = rng.standard_normal((n, 3))
        lhs = float(np.sum(Y * (L @ Y)))
        rhs = 0.5 * sum(P[i, j] * float(np.sum((Y[i] - Y[j]) ** 2))
                        for i in range(n) for j in range(n))
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
        assert np.max(np.abs(L @ np.ones(n))) <= 1e-12 * scale
        for _ in range(20):
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            bound = 1e-12 * scale * np.linalg.norm(x) * np.linalg.norm(y)
            assert abs(x @ (L @ y) - y @ (L @ x)) <= bound
            assert y @ (L @ y) >= -1e-12 * scale * (y @ y)

    def test_large_sparse_graph_is_never_densified(self):
        # n = 20000, expected degree about 5: a dense n x n float matrix would be 3.2 GB
        n, t, d = 20000, 2, 8
        rng = np.random.default_rng(9)
        views = []
        for _ in range(t):
            u, v = rng.integers(0, n, size=(2, n * 5 // 2))
            keep = u != v
            adj = sp.csr_matrix((np.ones(keep.sum()), (u[keep], v[keep])), shape=(n, n))
            views.append(ViewData(np.zeros((n, 1)), np.ones(n, dtype=bool),
                                  adj.maximum(adj.T)))
        net = MultiplexNetwork(n, views)
        edges = sum(view.adjacency.nnz for view in views)
        Y = rng.standard_normal((n, d))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stack = build_stack(net, ProximityConfig(order=5, normalize=True))
            stored = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = stack.laplacian @ Y
            product_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert stack.laplacian.nnz <= 2 * edges
        # two copies of every edge at 8 bytes per value and index, plus O(t n)
        assert stored <= 2 * edges * 16 + 64 * t * n
        assert product_peak <= 8 * t * Y.nbytes
        assert out.shape == (n, d) and np.all(np.isfinite(out))
