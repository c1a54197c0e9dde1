"""Evaluation harness: classification, clustering, imputation, sweeps, tuning.

Node classification fits a multinomial logistic regression with the fixed
ridge weight ``_LOGREG_L2`` on a random half of the nodes and scores the rest
with micro and macro F1, averaged over repeated splits. Clustering runs
restarted k-means and scores the best assignment against the labels under an
optimal cluster-to-class matching.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .graph_model import _check_ratio, _check_setting, _finite_embedding, apply_pdr
from .optim import armijo_minimize  # noqa: F401  unused here; bench/tracing.py patches it
from .parallel import one_blas_thread
from .trainer import train

_SPLIT_TRIES = 100  # random splits drawn before giving up on one that holds every class
_LOGREG_L2 = 1.0  # ridge weight of the classifier's feature weights
_LOGREG_GTOL = 1e-6  # gradient max-norm at which the classifier fit stops
_LOGREG_MAX_STEPS = 500
_KMEANS_RESTARTS = 10
_KMEANS_MAX_ITER = 300
_KMEANS_TOL = 1e-6  # relative inertia decrease below which Lloyd iterations stop
_KNN_BLOCK = 2 ** 20  # entries of one (missing rows, n) similarity block in knn_impute
_KNN_WARN_PAIRS = 10  # (view, node) pairs named in knn_impute's fallback warning


@dataclass
class EvalProtocol:
    train_fraction: float = 0.5
    repeats: int = 10
    seed: int = 0

    def __post_init__(self):
        self.train_fraction = _check_setting("train_fraction", self.train_fraction, 0, 1,
                                             low_open=True, high_open=True)
        self.repeats = _check_setting("repeats", self.repeats, 1, integer=True)
        self.seed = _check_setting("seed", self.seed, 0, integer=True)


@dataclass
class MetricsReport:
    micro_f1: float
    micro_f1_std: float
    macro_f1: float
    macro_f1_std: float


@dataclass
class SweepRow:
    ratio: float
    method: str
    report: MetricsReport


def _sample_std(values):
    values = np.asarray(values, dtype=np.float64)
    return float(np.std(values, ddof=1)) if values.size > 1 else 0.0


def _count_pairs(a, b, na, nb):
    """(na, nb) table whose entry (i, j) counts the positions where a == i and b == j."""
    return np.bincount(a * nb + b, minlength=na * nb).reshape(na, nb)


def micro_macro_f1(y_true, y_pred, num_classes):
    """F1 from pooled counts and the unweighted per-class mean."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    for name, y in (("y_true", y_true), ("y_pred", y_pred)):
        if np.any((y < 0) | (y >= num_classes)):
            raise ValueError(f"{name} has labels outside [0, {num_classes})")
    confusion = _count_pairs(y_true, y_pred, num_classes, num_classes)
    tp = np.diag(confusion)
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp
    pooled = 2.0 * tp.sum() + fp.sum() + fn.sum()
    micro = 2.0 * tp.sum() / pooled if pooled > 0 else 0.0
    denom = 2.0 * tp + fp + fn
    per_class = np.where(denom > 0, 2.0 * tp / np.where(denom > 0, denom, 1.0), 0.0)
    return float(micro), float(per_class.mean())


def fit_logistic_regression(X, y, num_classes):
    """Full-batch multinomial logistic regression with ridge weight ``_LOGREG_L2``, fit by L-BFGS.

    Runs until the gradient max-norm drops below ``_LOGREG_GTOL``, a step no
    longer lowers the loss, or ``_LOGREG_MAX_STEPS`` iterations have run; the
    bias row is not regularized. Returns the (features + 1) x classes weight matrix.

    The logits are held class-major, (classes, rows), so the softmax
    reductions run over the leading axis, and the gradient reuses the
    softmax terms of the loss evaluation at the same point.
    """
    # imported here, not at the top: scipy.optimize is the slowest import in the package
    from scipy.optimize import minimize

    X = np.asarray(X, dtype=np.float64)
    m = X.shape[0]
    XbT = np.vstack([X.T, np.ones((1, m))])
    picked = np.asarray(y) * m + np.arange(m)  # flat index of each row's true-class logit
    shape = (XbT.shape[0], num_classes)

    def loss_and_grad(vec):
        W = vec.reshape(shape)
        logits = W.T @ XbT
        logits -= logits.max(axis=0)
        exp = np.exp(logits)
        norm = exp.sum(axis=0)
        loss = float(np.sum(np.log(norm) - logits.ravel()[picked]))
        loss += 0.5 * _LOGREG_L2 * float(np.sum(W[:-1] ** 2))
        residual = exp / norm
        residual.ravel()[picked] -= 1.0  # probabilities minus the one-hot labels
        G = XbT @ residual.T
        G[:-1] += _LOGREG_L2 * W[:-1]
        return loss, G.ravel()

    # the gradient max-norm test is L-BFGS-B's gtol (no bounds: nothing is projected)
    result = minimize(loss_and_grad, np.zeros(shape).ravel(), jac=True, method="L-BFGS-B",
                      options={"gtol": _LOGREG_GTOL, "maxiter": _LOGREG_MAX_STEPS, "ftol": 0.0})
    return result.x.reshape(shape)


def predict_logistic(W, X):
    Xb = np.hstack([np.asarray(X, dtype=np.float64), np.ones((X.shape[0], 1))])
    return np.argmax(Xb @ W, axis=1)


def _split_with_all_classes(rng, labels, train_fraction, num_classes):
    n = labels.shape[0]
    n_train = int(round(train_fraction * n))
    n_train = min(max(n_train, 1), n - 1)
    for _ in range(_SPLIT_TRIES):
        perm = rng.permutation(n)
        train_idx, test_idx = perm[:n_train], perm[n_train:]
        if np.unique(labels[train_idx]).size == num_classes:
            return train_idx, test_idx
    raise RuntimeError("could not draw a training split containing every class")


def _holdout_f1(X, y, train_idx, test_idx, num_classes):
    """Micro and macro F1 on the test rows of a classifier fit on the training rows."""
    W = fit_logistic_regression(X[train_idx], y[train_idx], num_classes)
    return micro_macro_f1(y[test_idx], predict_logistic(W, X[test_idx]), num_classes)


def _check_lengths(embeddings, labels):
    """Raise unless there is one label per embedding row."""
    if len(embeddings) != len(labels):
        raise ValueError(f"{len(embeddings)} embedding rows but {len(labels)} labels")


@one_blas_thread()
def classify_f1(embeddings, labels, protocol):
    """Mean and std of micro/macro F1 over repeated random splits.

    BLAS runs at one thread meanwhile (as in ``train``), so the scores do
    not depend on the thread setting. A NaN or infinite entry raises one
    ValueError before any fit.
    """
    embeddings = _finite_embedding(embeddings)
    _check_lengths(embeddings, labels)
    classes, y = np.unique(np.asarray(labels), return_inverse=True)
    scores = []
    for child in np.random.SeedSequence(protocol.seed).spawn(protocol.repeats):
        train_idx, test_idx = _split_with_all_classes(
            np.random.default_rng(child), y, protocol.train_fraction, classes.size)
        scores.append(_holdout_f1(embeddings, y, train_idx, test_idx, classes.size))
    micro, macro = zip(*scores)
    return MetricsReport(float(np.mean(micro)), _sample_std(micro),
                         float(np.mean(macro)), _sample_std(macro))


def _kmeans_single(X, k, rng):
    n = X.shape[0]
    sq = np.sum(X * X, axis=1)
    # k-means++ seeding
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[j] = X[rng.integers(n)]
        else:
            centers[j] = X[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, np.sum((X - centers[j]) ** 2, axis=1))

    inertia = np.inf
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(_KMEANS_MAX_ITER):
        dists = sq[:, None] - 2.0 * (X @ centers.T) + np.sum(centers * centers, axis=1)
        labels = np.argmin(dists, axis=1)
        point_cost = dists[np.arange(n), labels]
        for j in range(k):
            members = labels == j
            if members.any():
                centers[j] = X[members].mean(axis=0)
            else:
                # re-seed an emptied centroid at the currently worst-fit point
                far = int(np.argmax(point_cost))
                centers[j] = X[far]
                labels[far] = j
                point_cost[far] = 0.0
        new_inertia = float(np.sum((X - centers[labels]) ** 2))
        if inertia - new_inertia <= _KMEANS_TOL * max(inertia, 1e-300) and np.isfinite(inertia):
            inertia = new_inertia
            break
        inertia = new_inertia
    return labels, inertia


def kmeans(X, k, seed=0):
    """Best of ``_KMEANS_RESTARTS`` runs of Lloyd iterations with plus-plus seeding."""
    X = np.asarray(X, dtype=np.float64)
    k = _check_setting("k", k, 1, X.shape[0], integer=True)
    rng = np.random.default_rng(_check_setting("seed", seed, 0, integer=True))
    best_labels, best_inertia = None, np.inf
    for _ in range(_KMEANS_RESTARTS):
        labels, inertia = _kmeans_single(X, k, rng)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


def matched_accuracy(cluster_ids, labels):
    """Fraction correct under the best cluster-to-class assignment."""
    clusters, cluster_idx = np.unique(np.asarray(cluster_ids), return_inverse=True)
    classes, class_idx = np.unique(np.asarray(labels), return_inverse=True)
    # imported here, not at the top: scipy.optimize is the slowest import in the package
    from scipy.optimize import linear_sum_assignment

    table = _count_pairs(cluster_idx, class_idx, clusters.size, classes.size)
    rows, cols = linear_sum_assignment(-table)
    return float(table[rows, cols].sum() / class_idx.size)


def cluster_accuracy(embeddings, labels, num_clusters, seed=0):
    """k-means the embeddings and score against labels with optimal matching.

    A NaN or infinite entry raises one ValueError before any clustering.
    """
    embeddings = _finite_embedding(embeddings)
    _check_lengths(embeddings, labels)
    return matched_accuracy(kmeans(embeddings, num_clusters, seed=seed), labels)


@one_blas_thread()
def knn_impute(network, k=5):
    """Fill each missing feature row from its most similar present nodes.

    Similarity between two nodes is the cosine over the concatenation of the
    views where both are present. The k best comparable nodes present in the
    target view contribute a similarity-weighted average. Nodes with no
    usable neighbor fall back to zero fill and trigger a warning. All masks
    come back True; present rows are untouched.

    Each view scores its missing rows against every node in blocks of
    ``_KNN_BLOCK // n`` rows (at least one): each (rows, n) similarity block
    is built from per-view products, so memory stays bounded whatever the
    missing ratio. BLAS runs at one thread meanwhile (as in ``train``), so
    the filled features do not depend on the thread setting.
    """
    k = _check_setting("k", k, 1, integer=True)
    n = network.n
    present = np.column_stack([view.mask for view in network.views])        # (n, t)
    feats = [np.where(view.mask[:, None], view.features, 0.0) for view in network.views]
    sqnorms = np.column_stack([np.sum(F * F, axis=1) for F in feats])      # (n, t)

    chunk = max(1, _KNN_BLOCK // n)
    fallbacks = []
    views = []
    for s, view in enumerate(network.views):
        features = view.features.copy()
        missing = np.flatnonzero(~view.mask)
        for start in range(0, missing.size, chunk):
            rows = missing[start:start + chunk]
            # masked rows are zero, so each product only sums views where both nodes are present
            numer = sum(F[rows] @ F.T for F in feats)
            sq_i = sqnorms[rows] @ present.T
            sq_j = present[rows] @ sqnorms.T
            usable = view.mask & (sq_i > 0) & (sq_j > 0)
            sims = np.where(usable, numer / np.sqrt(np.where(usable, sq_i * sq_j, 1.0)), 0.0)
            top = np.argsort(np.where(usable, -sims, np.inf), axis=1, kind="stable")[:, :k]
            top_sims = np.where(np.take_along_axis(usable, top, axis=1),
                                np.take_along_axis(sims, top, axis=1), 0.0)
            weight = top_sims.sum(axis=1)
            ok = weight > 1e-12
            fallbacks += [(s, int(i)) for i in rows[~ok]]
            features[rows[ok]] = (np.einsum("rk,rkd->rd", top_sims[ok], feats[s][top[ok]])
                                  / weight[ok, None])
        views.append(replace(view, features=features, mask=np.ones(n, dtype=bool)))
    if fallbacks:
        more = len(fallbacks) - _KNN_WARN_PAIRS
        warnings.warn(f"knn_impute: zero-filled {len(fallbacks)} rows with no comparable "
                      f"neighbor: {fallbacks[:_KNN_WARN_PAIRS]}"
                      + (f" and {more} more" if more > 0 else ""))
    return replace(network, views=views)


SWEEP_METHODS = ("dpmne", "zero-fill", "knn-fill")


def _check_sweep(ratios, methods):
    """The sweep's ratios as a list; one ValueError at the first setting at fault.

    Neither list may be empty, the ratios must ascend, each passing
    ``apply_pdr``'s check, and each method must be known.
    """
    ratios = [_check_ratio(r) for r in ratios]
    if not ratios:
        raise ValueError("ratios must hold at least one ratio, got []")
    if sorted(ratios) != ratios:
        raise ValueError("ratios must be sorted ascending")
    if not methods:
        raise ValueError(f"methods must hold at least one method, got {methods!r}")
    unknown = [m for m in methods if m not in SWEEP_METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {SWEEP_METHODS}")
    return ratios


def pdr_sweep(network, ratios, methods, protocol, hyper):
    """Classification metrics per (missing ratio, method) pair.

    Each ratio gets one masked copy of the network, shared by all methods:
    the mask-aware model trains on it directly, while the fill variants
    erase the masks after zero or neighbor fill. The masks and the scores
    follow the protocol seed, and every training runs with ``hyper`` as given,
    its seed included.
    """
    ratios = _check_sweep(ratios, methods)
    if network.labels is None:
        raise ValueError("pdr_sweep needs node labels")

    rows = []
    for idx, ratio in enumerate(ratios):
        masked = apply_pdr(network, ratio, seed=protocol.seed + 7919 * idx)
        for method in methods:
            if method == "dpmne":
                source = masked
            elif method == "zero-fill":  # masked rows are zero already: only the masks go
                source = replace(masked, views=[replace(v, mask=np.ones(network.n, dtype=bool))
                                                for v in masked.views])
            else:
                source = knn_impute(masked)
            state = train(source, hyper)
            rows.append(SweepRow(ratio, method, classify_f1(state.Y, network.labels, protocol)))
    return rows


def _grid_hypers(grid, base_hyper):
    """``base_hyper`` at each (alpha, beta, lam) point of ``grid``, every point checked."""
    points = [tuple(p) for p in grid]
    if not points:
        raise ValueError("empty hyperparameter grid")
    for p in points:
        if len(p) != 3:
            raise ValueError(f"grid point {p} must be (alpha, beta, lam)")
    return [replace(base_hyper, alpha=alpha, beta=beta, lam=lam)
            for alpha, beta, lam in points]


def _check_folds(folds, n=math.inf):
    """``folds`` if it is a fold count from 2 to ``n``, else one ValueError naming it."""
    return _check_setting("folds", folds, 2, n, integer=True)


def kfold_indices(n, folds, rng):
    """Disjoint folds covering 0..n-1 exactly once."""
    return np.array_split(rng.permutation(n), _check_folds(folds, n))


@one_blas_thread()
def cross_validate(network, grid, folds=5, *, protocol, base_hyper):
    """Pick the (alpha, beta, lam) grid point with the best mean fold micro-F1.

    The embedding is learned once per grid point (training never sees
    labels), with ``base_hyper``'s seed; only the downstream classifier is
    cross-validated, on folds drawn from the protocol seed. Ties keep
    the earliest grid point. BLAS runs at one thread, as in ``classify_f1``,
    so the fold scores do not depend on its thread setting.
    """
    if network.labels is None:
        raise ValueError("cross_validate needs node labels")
    hypers = _grid_hypers(grid, base_hyper)
    classes, y = np.unique(network.labels, return_inverse=True)
    rng = np.random.default_rng(protocol.seed)
    fold_sets = kfold_indices(network.n, folds, rng)

    best_score, best_hyper = -np.inf, None
    for hyper in hypers:
        state = train(network, hyper)
        scores = []
        for f in range(folds):
            train_idx = np.concatenate([fold_sets[g] for g in range(folds) if g != f])
            scores.append(_holdout_f1(state.Y, y, train_idx, fold_sets[f], classes.size)[0])
        score = float(np.mean(scores))
        if score > best_score:
            best_score, best_hyper = score, hyper
    return best_hyper
