import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmne import evaluation
from dpmne.evaluation import (SWEEP_METHODS, EvalProtocol, classify_f1, cluster_accuracy,
                              cross_validate, fit_logistic_regression, kfold_indices,
                              kmeans, knn_impute, matched_accuracy, micro_macro_f1,
                              pdr_sweep, predict_logistic)
from dpmne.graph_model import SynthConfig, synth_generate
from dpmne.proximity import ProximityConfig
from dpmne.quantizer import binarize_sign, itq
from dpmne.trainer import Hyperparams, train

from conftest import make_view, random_network
from oracles import armijo_logreg_oracle, row_major_logreg_grad, row_major_logreg_loss
from dpmne.graph_model import MultiplexNetwork, ViewData


def f1_from_counts_oracle(y_true, y_pred, num_classes):
    """Definition-level F1 with explicit per-class counting loops."""
    tp = [0] * num_classes
    fp = [0] * num_classes
    fn = [0] * num_classes
    for t, p in zip(y_true, y_pred):
        if t == p:
            tp[p] += 1
        else:
            fp[p] += 1
            fn[t] += 1
    micro_den = 2 * sum(tp) + sum(fp) + sum(fn)
    micro = 2 * sum(tp) / micro_den if micro_den else 0.0
    per_class = []
    for c in range(num_classes):
        den = 2 * tp[c] + fp[c] + fn[c]
        per_class.append(2 * tp[c] / den if den else 0.0)
    return micro, sum(per_class) / num_classes


def knn_warning(fallbacks):
    """The text of knn_impute's fallback warning for these (view, node) pairs."""
    more = f" and {len(fallbacks) - 10} more" if len(fallbacks) > 10 else ""
    return (f"knn_impute: zero-filled {len(fallbacks)} rows with no comparable neighbor: "
            f"{fallbacks[:10]}{more}")


def knn_impute_peak_bytes(n, missing, rng, width=16):
    """Traced peak allocation of one knn_impute call; ``missing`` lists each view's absent nodes."""
    views = []
    for rows in missing:
        mask = np.ones(n, dtype=bool)
        mask[rows] = False
        f = rng.random((n, width))
        f[~mask] = 0.0
        views.append(ViewData(f, mask, sp.csr_matrix((n, n))))
    net = MultiplexNetwork(n, views)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # nodes missing from every view fall back
            knn_impute(net)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def knn_impute_oracle(features, masks, k):
    """kNN fill by scalar loops over views, missing nodes, candidates and entries.

    Returns the filled per-view feature lists and the (view, node) pairs left
    at zero. The cosine divides by sqrt(sq_i * sq_j), as the library does, so
    integer features give bitwise-equal similarities and equal tie order.
    """
    n = len(masks[0])
    filled = [[list(row) for row in f] for f in features]
    fallbacks = []
    for s, (f_s, m_s) in enumerate(zip(features, masks)):
        for i in range(n):
            if m_s[i]:
                continue
            sims = {}
            for j in range(n):
                if j == i or not m_s[j]:
                    continue
                num, sq_i, sq_j = 0.0, 0.0, 0.0
                for f, m in zip(features, masks):
                    if m[i] and m[j]:
                        for a, b in zip(f[i], f[j]):
                            num += a * b
                            sq_i += a * a
                            sq_j += b * b
                if sq_i > 0 and sq_j > 0:
                    sims[j] = num / math.sqrt(sq_i * sq_j)
            top = sorted(sims, key=lambda j: -sims[j])[:k]
            weight = sum(sims[j] for j in top)
            if weight <= 1e-12:
                fallbacks.append((s, i))
                continue
            filled[s][i] = [sum(sims[j] * f_s[j][c] for j in top) / weight
                            for c in range(len(f_s[i]))]
    return filled, fallbacks


def assert_knn_matches_oracle(features, masks, k):
    n = len(masks[0])
    views = [ViewData(f, m, sp.csr_matrix((n, n))) for f, m in zip(features, masks)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = knn_impute(MultiplexNetwork(n, views), k=k)
    expected, fallbacks = knn_impute_oracle([f.tolist() for f in features], masks, k)
    for view, want in zip(out.views, expected):
        np.testing.assert_allclose(view.features, np.array(want).reshape(n, -1),
                                   rtol=0, atol=1e-10)
    messages = [str(w.message) for w in caught]
    assert messages == ([knn_warning(fallbacks)] if fallbacks else [])


@st.composite
def partial_networks(draw):
    """Features and masks of n <= 12 nodes in t <= 3 views; masked rows are zero."""
    n = draw(st.integers(1, 12))
    t = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tied = draw(st.booleans())
    features, masks = [], []
    for _ in range(t):
        width = draw(st.integers(1, 4))
        mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        f = rng.integers(-1, 3, (n, width)).astype(np.float64) if tied else rng.random((n, width))
        f[rng.random(n) < 0.15] = 0.0  # all-zero rows among the present ones
        f[~mask] = 0.0
        features.append(f)
        masks.append(mask)
    return features, masks, draw(st.integers(1, 5))


class TestF1:
    def test_hand_confusion_matrix(self):
        # 3 classes; class 0: tp=2 fp=1 fn=1; class 1: tp=1 fp=1 fn=1; class 2: tp=1 fp=1 fn=1
        y_true = [0, 0, 0, 1, 1, 2, 2]
        y_pred = [0, 0, 1, 1, 2, 2, 0]
        micro, macro = micro_macro_f1(y_true, y_pred, 3)
        oracle_micro, oracle_macro = f1_from_counts_oracle(y_true, y_pred, 3)
        assert micro == pytest.approx(oracle_micro, abs=1e-12)
        assert macro == pytest.approx(oracle_macro, abs=1e-12)
        assert micro == pytest.approx(4.0 / 7.0, abs=1e-12)

    def test_single_class_predictions_on_balanced_two_class_data(self):
        y_true = [0] * 10 + [1] * 10
        y_pred = [0] * 20
        micro, macro = micro_macro_f1(y_true, y_pred, 2)
        assert micro == pytest.approx(0.5, abs=1e-12)
        assert macro == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_confusions_match_definition_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        y_true = rng.integers(0, k, size=60)
        y_pred = rng.integers(0, k, size=60)
        micro, macro = micro_macro_f1(y_true, y_pred, k)
        oracle = f1_from_counts_oracle(list(y_true), list(y_pred), k)
        assert abs(micro - oracle[0]) < 1e-12
        assert abs(macro - oracle[1]) < 1e-12

    @pytest.mark.parametrize("y_pred", [[0, 2], [-1, 0]])
    def test_labels_outside_the_classes_rejected(self, y_pred):
        with pytest.raises(ValueError, match="outside"):
            micro_macro_f1([0, 1], y_pred, 2)


class TestClassify:
    def test_perfectly_separable_one_hot_embeddings(self):
        labels = np.array([0, 1, 2] * 8)
        embeddings = np.eye(3)[labels]
        report = classify_f1(embeddings, labels, EvalProtocol(repeats=3, seed=0))
        assert report.micro_f1 == pytest.approx(1.0)
        assert report.macro_f1 == pytest.approx(1.0)
        assert report.micro_f1_std == 0.0

    def test_reported_stds_are_sample_standard_deviations(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=40)
        embeddings = np.eye(2)[labels] + 0.8 * rng.standard_normal((40, 2))
        protocol = EvalProtocol(repeats=6, seed=3)
        report = classify_f1(embeddings, labels, protocol)
        # recompute each repeat's micro with the library, then the std by hand
        micro_values = []
        for child in np.random.SeedSequence(3).spawn(6):
            srng = np.random.default_rng(child)
            n = labels.size
            n_train = int(round(0.5 * n))
            perm = srng.permutation(n)
            while np.unique(labels[perm[:n_train]]).size != 2:
                perm = srng.permutation(n)
            tr, te = perm[:n_train], perm[n_train:]
            W = fit_logistic_regression(embeddings[tr], labels[tr], 2)
            micro_values.append(
                micro_macro_f1(labels[te], predict_logistic(W, embeddings[te]), 2)[0])
        mean = sum(micro_values) / len(micro_values)
        std = (sum((v - mean) ** 2 for v in micro_values) / (len(micro_values) - 1)) ** 0.5
        assert report.micro_f1 == pytest.approx(mean, abs=1e-12)
        assert report.micro_f1_std == pytest.approx(std, abs=1e-12)

    def test_rare_class_still_lands_in_training_split(self):
        labels = np.array([0] * 19 + [1])
        embeddings = np.arange(20.0).reshape(-1, 1)
        report = classify_f1(embeddings, labels, EvalProtocol(repeats=4, seed=2))
        assert 0.0 <= report.micro_f1 <= 1.0

    def test_more_labels_than_embedding_rows_rejected(self):
        X = np.random.default_rng(3).standard_normal((30, 4))
        with pytest.raises(ValueError, match="30 embedding rows but 40 labels"):
            classify_f1(X, np.arange(40) % 3, EvalProtocol())

    def test_logistic_regression_fits_separable_data(self):
        rng = np.random.default_rng(4)
        X = np.vstack([rng.standard_normal((30, 2)) + (4, 0),
                       rng.standard_normal((30, 2)) - (4, 0)])
        y = np.array([0] * 30 + [1] * 30)
        W = fit_logistic_regression(X, y, 2)
        assert np.mean(predict_logistic(W, X) == y) == 1.0

    def test_reaches_at_most_the_loss_of_gradient_descent(self):
        # 2-10 classes; the oracle stops on its step budget (8, 40 or 500 steps) or
        # on gtol. The fit runs to gtol, so its loss is at most the oracle's up to
        # rounding, and where the oracle reached gtol both predict alike.
        converged = 0
        for i in range(90):
            rng = np.random.default_rng(i)
            classes, budget = 2 + i % 9, (8, 40, 500)[(i // 9) % 3]
            m, f = int(rng.integers(classes + 20, 300)), int(rng.integers(1, 40))
            y = rng.integers(0, classes, m)
            y[:classes] = np.arange(classes)
            centers = rng.uniform(0, 3) * rng.standard_normal((classes, f))
            X = rng.standard_normal((m, f)) + centers[y]
            W = fit_logistic_regression(X, y, classes)
            W_ref = armijo_logreg_oracle(X, y, classes, max_steps=budget)
            assert W.shape == (f + 1, classes)
            ref_loss = row_major_logreg_loss(W_ref, X, y)
            assert row_major_logreg_loss(W, X, y) <= ref_loss + 1e-12 * abs(ref_loss)
            if np.max(np.abs(row_major_logreg_grad(W_ref, X, y))) <= 1e-6:
                converged += 1
                X_test = rng.standard_normal((100, f)) * 2.0
                for rows in (X, X_test):
                    assert np.array_equal(predict_logistic(W, rows),
                                          predict_logistic(W_ref, rows))
        assert converged >= 10  # 10 of the 90 oracle fits reach gtol

    def test_reaches_gtol_on_the_pipeline_shape(self):
        # 750 training rows of dimension 32 in 10 overlapping classes: gradient
        # descent ends its 500 steps above gtol, the fit returns below it
        rng = np.random.default_rng(0)
        y = rng.integers(0, 10, 750)
        X = rng.standard_normal((750, 32)) + 0.7 * rng.standard_normal((10, 32))[y]
        W = fit_logistic_regression(X, y, 10)
        assert np.max(np.abs(row_major_logreg_grad(W, X, y))) <= 1e-6
        W_ref = armijo_logreg_oracle(X, y, 10)
        assert np.max(np.abs(row_major_logreg_grad(W_ref, X, y))) > 1e-6
        assert row_major_logreg_loss(W, X, y) < row_major_logreg_loss(W_ref, X, y)


class TestClusterAccuracy:
    def test_clusters_identical_to_labels(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert matched_accuracy(labels, labels) == 1.0

    def test_permuted_cluster_ids_still_perfect(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        permuted = np.array([2, 2, 0, 0, 1, 1])
        assert matched_accuracy(permuted, labels) == 1.0

    def test_five_point_instance_against_exhaustive_matching(self):
        # one point of five sits in the wrong cluster
        clusters = np.array([0, 0, 0, 1, 1])
        labels = np.array([0, 0, 1, 1, 1])
        best = 0.0
        for perm in itertools.permutations(range(2)):
            hits = sum(1 for c, l in zip(clusters, labels) if perm[c] == l)
            best = max(best, hits / 5.0)
        assert best == pytest.approx(0.8)
        assert matched_accuracy(clusters, labels) == pytest.approx(best)

    @pytest.mark.parametrize("seed", range(5))
    def test_matching_is_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        clusters = rng.integers(0, 4, size=30)
        labels = rng.integers(0, 4, size=30)
        base = matched_accuracy(clusters, labels)
        cshuf = rng.permutation(4)
        lshuf = rng.permutation(4)
        assert matched_accuracy(cshuf[clusters], lshuf[labels]) == pytest.approx(base)

    @pytest.mark.parametrize("num_clusters,num_classes", [(3, 2), (2, 4), (5, 3)])
    def test_unequal_counts_against_exhaustive_matching(self, num_clusters, num_classes):
        rng = np.random.default_rng(10 * num_clusters + num_classes)
        clusters = rng.integers(0, num_clusters, size=25)
        labels = rng.integers(0, num_classes, size=25)
        small, large = sorted((num_clusters, num_classes))
        best = 0
        for image in itertools.permutations(range(large), small):
            if num_clusters <= num_classes:
                hits = sum(1 for c, l in zip(clusters, labels) if image[c] == l)
            else:
                hits = sum(1 for c, l in zip(clusters, labels) if image[l] == c)
            best = max(best, hits)
        assert matched_accuracy(clusters, labels) == best / 25

    def test_importing_the_package_leaves_scipy_optimize_unloaded(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", "import sys, dpmne; print('scipy.optimize' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_kmeans_recovers_separated_blobs(self):
        rng = np.random.default_rng(6)
        centers = np.array([[8.0, 0.0], [-8.0, 0.0], [0.0, 8.0]])
        labels = np.repeat([0, 1, 2], 25)
        X = centers[labels] + 0.5 * rng.standard_normal((75, 2))
        assert cluster_accuracy(X, labels, 3, seed=0) == 1.0

    def test_kmeans_is_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((40, 3))
        assert np.array_equal(kmeans(X, 4, seed=5), kmeans(X, 4, seed=5))

    def test_kmeans_with_more_clusters_than_distinct_points(self):
        X = np.array([[0.0, 0.0]] * 6 + [[5.0, 5.0]] * 6)
        ids = kmeans(X, 3, seed=0)
        assert len(ids) == 12  # empty-cluster reseeding must not crash

    @pytest.mark.parametrize("seed", [-1, 1.5, None, True])
    @pytest.mark.parametrize("run", [
        lambda X, seed: kmeans(X, 2, seed=seed),
        lambda X, seed: cluster_accuracy(X, [0, 1, 0, 1], 2, seed=seed)])
    def test_negative_seed_rejected(self, run, seed):
        with pytest.raises(ValueError,
                           match=f"^{re.escape(f'seed must be an integer >= 0, got {seed!r}')}$"):
            run(np.eye(4), seed)

    @pytest.mark.parametrize("k", [0, 5, 2.5, True, None])
    def test_bad_cluster_count_rejected(self, k):
        with pytest.raises(ValueError, match=r"^k must be an integer in \[1, 4\]"):
            kmeans(np.eye(4), k)

    def test_more_labels_than_embedding_rows_rejected(self):
        X = np.random.default_rng(3).standard_normal((30, 4))
        with pytest.raises(ValueError, match="30 embedding rows but 40 labels"):
            cluster_accuracy(X, np.arange(40) % 3, 3)


class TestKnnImpute:
    def test_no_missing_data_changes_nothing(self):
        net = synth_generate(SynthConfig(n=20, communities=2, t=2, seed=1))
        out = knn_impute(net)
        for before, after in zip(net.views, out.views):
            assert np.array_equal(before.features, after.features)
            assert after.mask.all()

    def test_single_exact_duplicate_neighbor_is_copied(self):
        # node 2 misses view 1; node 0 is its exact duplicate in view 0
        n = 3
        v0 = make_view([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], [True] * 3, [], n)
        v1 = make_view([[5.0, 7.0], [2.0, 2.0], [0.0, 0.0]],
                       [True, True, False], [], n)
        net = MultiplexNetwork(n, [v0, v1])
        out = knn_impute(net, k=1)
        np.testing.assert_allclose(out.views[1].features[2], [5.0, 7.0], atol=1e-12)

    def test_six_node_instance_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(8)
        n = 6
        f0 = rng.random((n, 4))
        f1 = rng.random((n, 3))
        mask1 = np.array([True, True, False, True, True, False])
        f1[~mask1] = 0.0
        assert_knn_matches_oracle([f0, f1], [np.ones(n, dtype=bool), mask1], k=3)

    def test_masked_feature_storage_is_never_read(self):
        rng = np.random.default_rng(9)
        f0, f1 = rng.random((6, 4)), rng.random((6, 3))
        m0 = np.array([True, False, True, True, True, True])
        m1 = np.array([True, True, False, True, False, True])
        f0[~m0], f1[~m1] = 0.0, 0.0
        clean = knn_impute(MultiplexNetwork(6, [make_view(f0, m0, [], 6),
                                                    make_view(f1, m1, [], 6)]), k=2)
        f0[~m0], f1[~m1] = np.nan, 1e6
        dirty = knn_impute(MultiplexNetwork(6, [make_view(f0, m0, [], 6),
                                                    make_view(f1, m1, [], 6)]), k=2)
        for a, b, m in zip(clean.views, dirty.views, (m0, m1)):
            assert np.array_equal(a.features[~m], b.features[~m])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(partial_networks())
    def test_random_networks_match_scalar_loop_oracle(self, case):
        features, masks, k = case
        assert_knn_matches_oracle(features, masks, k)

    def test_peak_memory_stays_below_one_n_by_n_array(self):
        n, t = 4000, 3
        rng = np.random.default_rng(11)
        missing = rng.permutation(n)[:t * (n // 20)].reshape(t, -1)  # 5% per view
        assert knn_impute_peak_bytes(n, missing, rng) < n * n * 8

    def test_peak_memory_at_half_missing_stays_below_one_n_by_n_array(self):
        n, t = 4000, 3
        rng = np.random.default_rng(13)
        missing = [rng.permutation(n)[:n // 2] for _ in range(t)]  # 50% per view
        assert knn_impute_peak_bytes(n, missing, rng) < n * n * 8

    def test_row_blocks_match_scalar_loop_oracle(self, monkeypatch):
        # 40 nodes at 4 missing rows per block: several blocks per view
        rng = np.random.default_rng(12)
        n = 40
        masks = [rng.random(n) > p for p in (0.3, 0.5, 0.6)]
        features = [rng.integers(-1, 3, (n, w)).astype(np.float64) for w in (3, 2, 4)]
        for f, m in zip(features, masks):
            f[~m] = 0.0
        monkeypatch.setattr(evaluation, "_KNN_BLOCK", 4 * n)
        assert_knn_matches_oracle(features, masks, k=3)

    def test_present_rows_are_never_modified(self):
        net = synth_generate(SynthConfig(n=30, communities=3, t=2, pdr=0.3, seed=9))
        out = knn_impute(net)
        for before, after in zip(net.views, out.views):
            assert np.array_equal(before.features[before.mask],
                                  after.features[before.mask])

    @pytest.mark.parametrize("rows,k", [
        ([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], 2),    # only present view is all zero
        ([[1.0, 1e-13], [1.0, 0.0], [0.0, 1.0]], 1)])  # best similarity is 1e-13
    def test_isolated_node_falls_back_to_zero_fill_with_warning(self, rows, k):
        # node 2 is missing from view 1 and has no usable neighbour in view 0
        n = 3
        v0 = make_view(rows, [True] * 3, [], n)
        v1 = make_view([[5.0], [6.0], [0.0]], [True, True, False], [], n)
        net = MultiplexNetwork(n, [v0, v1])
        with pytest.warns(UserWarning, match="zero-filled"):
            out = knn_impute(net, k=k)
        assert np.array_equal(out.views[1].features[2], [0.0])

    def test_fallback_warning_names_at_most_ten_pairs(self):
        # view 0 is all zero, so the 12 nodes missing from view 1 have no neighbour
        n = 16
        v0 = make_view(np.zeros((n, 2)), [True] * n, [], n)
        v1 = make_view(np.vstack([np.ones((4, 1)), np.zeros((12, 1))]),
                       [True] * 4 + [False] * 12, [], n)
        with pytest.warns(UserWarning) as caught:
            knn_impute(MultiplexNetwork(n, [v0, v1]))
        assert [str(w.message) for w in caught] == [
            "knn_impute: zero-filled 12 rows with no comparable neighbor: "
            "[(1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (1, 10), (1, 11), (1, 12), "
            "(1, 13)] and 2 more"]

    @pytest.mark.parametrize("k", [0, 2.5, True, None])
    def test_bad_k_rejected(self, k):
        net = synth_generate(SynthConfig(n=10, communities=2, seed=0))
        with pytest.raises(ValueError, match="^k must be an integer >= 1"):
            knn_impute(net, k=k)


def quick_hyper(seed=0):
    return Hyperparams(dim=4, max_iters=4, hidden_dims=(6,), seed=seed,
                       proximity=ProximityConfig(order=2))


class TestPdrSweep:
    def test_row_count_is_ratios_times_methods(self):
        net = synth_generate(SynthConfig(n=40, communities=2, t=2, feature_dim=6, seed=3))
        protocol = EvalProtocol(repeats=2, seed=1)
        rows = pdr_sweep(net, [0.0, 0.2], ("dpmne", "zero-fill"), protocol, quick_hyper())
        assert len(rows) == 4
        assert [(r.ratio, r.method) for r in rows] == [
            (0.0, "dpmne"), (0.0, "zero-fill"), (0.2, "dpmne"), (0.2, "zero-fill")]

    def test_zero_ratio_row_equals_a_plain_evaluation(self):
        net = synth_generate(SynthConfig(n=30, communities=2, t=2, feature_dim=6, seed=4))
        protocol = EvalProtocol(repeats=2, seed=2)
        rows = pdr_sweep(net, [0.0], ("dpmne",), protocol, quick_hyper(seed=5))
        state = train(net, quick_hyper(seed=5))
        direct = classify_f1(state.Y, net.labels, protocol)
        assert rows[0].report.micro_f1 == pytest.approx(direct.micro_f1, abs=1e-12)

    def test_every_training_runs_with_the_hyperparameters_given(self, monkeypatch):
        # the protocol seed draws the masks and the splits; the training seed is the hyper's
        net = synth_generate(SynthConfig(n=30, communities=2, t=2, feature_dim=6, seed=4))
        hyper = quick_hyper(seed=5)
        seen = []

        def recording(network, run_hyper, init_state=None):
            seen.append(run_hyper)
            return train(network, run_hyper, init_state)

        monkeypatch.setattr(evaluation, "train", recording)
        pdr_sweep(net, [0.0, 0.2], SWEEP_METHODS, EvalProtocol(repeats=1, seed=2), hyper)
        assert len(seen) == 6 and all(h == hyper for h in seen)

    def test_unsorted_ratios_rejected(self):
        net = synth_generate(SynthConfig(n=20, communities=2, seed=0))
        with pytest.raises(ValueError):
            pdr_sweep(net, [0.2, 0.1], ("dpmne",), EvalProtocol(repeats=1), quick_hyper())

    def test_unknown_method_rejected(self):
        net = synth_generate(SynthConfig(n=20, communities=2, seed=0))
        with pytest.raises(ValueError):
            pdr_sweep(net, [0.0], ("magic",), EvalProtocol(repeats=1), quick_hyper())

    def test_missing_labels_rejected(self):
        net = random_network(0, labels=False)
        with pytest.raises(ValueError):
            pdr_sweep(net, [0.0], ("dpmne",), EvalProtocol(repeats=1), quick_hyper())

    @pytest.mark.parametrize("ratios", [[0.3, 1.5], [0.3, True], [0.3, None]])
    def test_every_ratio_is_checked_before_any_training(self, ratios, monkeypatch):
        net = synth_generate(SynthConfig(n=20, communities=2, seed=0))
        trainings = []
        monkeypatch.setattr(evaluation, "train", lambda *args: trainings.append(args))
        with pytest.raises(ValueError, match="^ratio must be a number in \\[0, 1\\), got"):
            pdr_sweep(net, ratios, SWEEP_METHODS, EvalProtocol(repeats=1), quick_hyper())
        assert trainings == []

    @pytest.mark.parametrize("ratios,methods,message", [
        ([], ("dpmne",), "ratios must hold at least one ratio, got []"),
        ([0.0], (), "methods must hold at least one method, got ()"),
        ([], (), "ratios must hold at least one ratio, got []")],
        ids=["no-ratio", "no-method", "neither"])
    def test_empty_sweep_rejected_before_any_training(self, ratios, methods, message,
                                                      monkeypatch):
        # an empty sweep would report nothing and pass, as an empty grid would
        net = synth_generate(SynthConfig(n=20, communities=2, seed=0))
        trainings = []
        monkeypatch.setattr(evaluation, "train", lambda *args: trainings.append(args))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pdr_sweep(net, ratios, methods, EvalProtocol(repeats=1), quick_hyper())
        assert trainings == []


class TestCrossValidate:
    def test_single_grid_point_is_returned_unchanged(self):
        net = synth_generate(SynthConfig(n=30, communities=2, t=2, feature_dim=6, seed=5))
        best = cross_validate(net, [(0.7, 0.2, 0.05)], folds=3,
                              protocol=EvalProtocol(seed=1), base_hyper=quick_hyper())
        assert (best.alpha, best.beta, best.lam) == (0.7, 0.2, 0.05)

    def test_every_training_runs_with_the_base_seed(self, monkeypatch):
        net = synth_generate(SynthConfig(n=30, communities=2, t=2, feature_dim=6, seed=5))
        seen = []

        def recording(network, hyper, init_state=None):
            seen.append(hyper)
            return train(network, hyper, init_state)

        monkeypatch.setattr(evaluation, "train", recording)
        grid = [(0.7, 0.2, 0.05), (1.0, 0.1, 0.01)]
        cross_validate(net, grid, folds=3, protocol=EvalProtocol(seed=1),
                       base_hyper=quick_hyper(seed=5))
        assert [(h.alpha, h.beta, h.lam, h.seed) for h in seen] == [
            (0.7, 0.2, 0.05, 5), (1.0, 0.1, 0.01, 5)]

    def test_fold_partition_covers_every_node_exactly_once(self):
        rng = np.random.default_rng(0)
        folds = kfold_indices(23, 5, rng)
        combined = np.sort(np.concatenate(folds))
        assert np.array_equal(combined, np.arange(23))

    def test_dominant_grid_point_wins_on_a_rigged_instance(self):
        # an overwhelming proximity weight crushes the embedding toward
        # constant columns (the Laplacian null space), so classification
        # collapses to chance and the sane point must win the folds
        net = synth_generate(SynthConfig(n=60, communities=3, t=2, noise=0.05,
                                         feature_dim=8, seed=6))
        sane = (1.0, 0.1, 0.01)
        broken = (0.0, 1e6, 0.01)
        base = Hyperparams(dim=4, max_iters=6, hidden_dims=(6,),
                           proximity=ProximityConfig(order=2))
        best = cross_validate(net, [broken, sane], folds=3,
                              protocol=EvalProtocol(seed=2), base_hyper=base)
        assert (best.alpha, best.beta, best.lam) == sane

    @pytest.mark.parametrize("point", [(0.7, 0.2), (0.7, 0.2, 0.05, 1.0)])
    def test_grid_point_without_three_values_rejected(self, point):
        net = synth_generate(SynthConfig(n=20, communities=2, seed=0))
        with pytest.raises(ValueError, match="alpha, beta, lam"):
            cross_validate(net, [(1.0, 0.1, 0.01), point], folds=2, protocol=EvalProtocol(),
                           base_hyper=Hyperparams())

    @pytest.mark.parametrize("folds", [1, 11, 2.5, True])
    def test_bad_fold_count_rejected(self, folds):
        with pytest.raises(ValueError, match=r"^folds must be an integer in \[2, 10\]"):
            kfold_indices(10, folds, np.random.default_rng(0))

    def test_empty_grid_rejected(self):
        net = synth_generate(SynthConfig(n=20, communities=2, seed=0))
        with pytest.raises(ValueError):
            cross_validate(net, [], folds=2, protocol=EvalProtocol(), base_hyper=Hyperparams())

    def test_every_grid_point_is_checked_before_any_training(self, monkeypatch):
        net = synth_generate(SynthConfig(n=20, communities=2, seed=0))
        trainings = []
        monkeypatch.setattr(evaluation, "train", lambda *args: trainings.append(args))
        grid = [(1, 0.1, 0.01), (1, 0.1, 0.01), (-1, 0.1, 0.01)]
        with pytest.raises(ValueError, match="^alpha must be a finite number >= 0, got -1"):
            cross_validate(net, grid, folds=2, protocol=EvalProtocol(), base_hyper=quick_hyper())
        assert trainings == []


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("score", [
    lambda Y, labels: classify_f1(Y, labels, EvalProtocol(repeats=2)),
    lambda Y, labels: cluster_accuracy(Y, labels, 4),
    lambda Y, labels: binarize_sign(Y),
    lambda Y, labels: itq(Y)], ids=["classify_f1", "cluster_accuracy", "binarize_sign", "itq"])
def test_a_non_finite_embedding_is_refused_before_any_scoring(score, value):
    # one NaN among 160 entries would otherwise reach the fit and give a score, or numpy's error
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((40, 4))
    Y[7, 2] = value
    labels = np.arange(40) % 4
    with pytest.raises(ValueError, match="^embedding has non-finite entries$"):
        score(Y, labels)


class TestProtocolValidation:
    def test_bad_train_fraction_rejected(self):
        with pytest.raises(ValueError):
            EvalProtocol(train_fraction=1.0)

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError):
            EvalProtocol(repeats=0)

    @pytest.mark.parametrize("name,value", [
        ("seed", -1), ("seed", 1.5), ("seed", None), ("train_fraction", "0.5"),
        ("train_fraction", math.nan), ("repeats", 2.5), ("repeats", True)])
    def test_out_of_range_setting_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            EvalProtocol(**{name: value})

    def test_the_classifier_ridge_is_not_a_protocol_setting(self):
        # the ridge weight is the constant _LOGREG_L2, one spelling for one choice
        with pytest.raises(TypeError, match="l2"):
            EvalProtocol(l2=1.0)
