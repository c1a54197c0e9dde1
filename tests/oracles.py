"""Reference implementations the tests compare the library against.

They build explicit matrices or recompute cached values, so they suit small
inputs only; nothing outside the tests calls them.
"""

import numpy as np
import scipy.sparse as sp

from dpmne import autoencoder as ae
from dpmne.proximity import ProximityConfig, ProximityStack, proximity_adjacency
from dpmne.trainer import EmbeddingState, objective


def high_order_proximity(adjacency, config=None):
    """Weighted sum of the first ``order`` powers of the (prepared) adjacency.

    The powers fill in, so this is for small graphs. Diagonal entries of the
    powers (closed walks) are kept: they add nothing to pairwise embedding
    distances.
    """
    cfg = config or ProximityConfig()
    weights = cfg.resolved_weights()
    A = proximity_adjacency(adjacency, cfg.normalize)
    total = weights[0] * A
    power = A
    for w in weights[1:]:
        power = power @ A
        total = total + w * power
    return sp.csr_matrix(total)


def aggregate_and_laplacian(per_view):
    """Sum explicit per-view proximities and form the Laplacian of the total.

    The reference for ``build_stack``; the Laplacian is a CSR matrix.
    """
    per_view = list(per_view)
    if not per_view:
        raise ValueError("need at least one per-view proximity matrix")
    shape = per_view[0].shape
    for s, P in enumerate(per_view):
        if P.shape != shape:
            raise ValueError(f"view {s}: proximity shape {P.shape} != {shape}")
    aggregate = sp.csr_matrix(per_view[0], dtype=np.float64)
    for P in per_view[1:]:
        aggregate = aggregate + sp.csr_matrix(P, dtype=np.float64)
    degree = np.asarray(aggregate.sum(axis=1)).ravel()
    return ProximityStack(degree, sp.csr_matrix(sp.diags(degree) - aggregate))


def objective_from_params(network, prox, Y, B, autoencoders, hyper):
    """Objective with the representations recomputed from the autoencoders."""
    masks = [view.mask for view in network.views]
    H = [ae.encode(autoencoders[s], view.features, view.mask)
         for s, view in enumerate(network.views)]
    state = EmbeddingState(Y, list(B), masks, list(autoencoders), hyper)
    return objective(state, H, network, prox)


def svd_warm_start(X, k):
    """Top-``k`` left singular vectors of X from a full thin SVD, rank cut at 1e-12 sigma_max."""
    U, S, _ = np.linalg.svd(X, full_matrices=False)
    keep = min(k, int(np.sum(S > 1e-12 * S[0])))
    return U[:, :keep]
