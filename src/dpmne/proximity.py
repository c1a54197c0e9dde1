"""High-order proximity and the graph Laplacian built from it.

Each view's proximity is a weighted sum of adjacency powers; powers count
multi-hop walks, so densely connected node pairs get large entries. The
per-view proximities are summed across views, and the Laplacian of that sum
is what the trainer uses to keep linked nodes close in embedding space.

Training never forms the summed proximity: even on sparse graphs its powers
fill in to a dense n x n matrix. ``build_stack`` returns a
``ProximityLaplacian`` that applies the Laplacian by repeated sparse
products with the views' adjacencies.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph_model import _check_setting
from .parallel import map_views  # noqa: F401  unused here; bench/tracing.py patches it


def default_weights(order):
    """Walk-length weights: 1 for direct edges, halving per extra hop."""
    return tuple(0.5 ** k for k in range(order))


@dataclass
class ProximityConfig:
    """Walks of up to ``order`` hops, weighted by ``default_weights(order)``."""
    order: int = 5
    normalize: bool = False  # scale adjacency by inverse sqrt degrees first

    def __post_init__(self):
        self.order = _check_setting("order", self.order, 1, integer=True)
        if not isinstance(self.normalize, (bool, np.bool_)):
            raise ValueError(f"normalize must be a bool, got {self.normalize!r}")
        self.normalize = bool(self.normalize)


@dataclass
class ProximityStack:
    """Degree vector of the summed proximity and its Laplacian."""
    degree: np.ndarray
    laplacian: object  # anything with ``laplacian @ Y``


def proximity_adjacency(adjacency, normalize):
    """The sparse matrix whose powers the proximity sums.

    The input is symmetrized (undirected relations) and, with ``normalize``,
    scaled by inverse square-root degrees on both sides.
    """
    A = sp.csr_matrix(adjacency, dtype=np.float64)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"adjacency must be square, got {A.shape}")
    A = A.maximum(A.T)
    if normalize:
        deg = np.asarray(A.sum(axis=1)).ravel()
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
        D = sp.diags(inv_sqrt)
        A = sp.csr_matrix(D @ A @ D)
    return A


class ProximityLaplacian:
    """L = diag(P 1) - P for P = sum_s sum_k w_k A_s^k, applied without forming P.

    ``views`` holds the n x n CSR adjacency of each view, and ``stacked``
    the same matrices stacked row-wise into one (t n) x n CSR matrix
    (``nnz``, ``data``, ``indices`` and ``indptr`` are its arrays).
    ``self @ Y`` evaluates P Y in Horner form,
    sum_s A_s (w_1 Y + A_s (w_2 Y + ... + A_s (w_K Y))): the innermost hop is
    one product with the stacked matrix, each further hop one product per
    view. A product costs O(t order nnz(A) d) time and O(t n d) memory.
    """

    def __init__(self, adjacencies, weights):
        if not adjacencies:
            raise ValueError("need at least one view adjacency")
        n = adjacencies[0].shape[0]
        self.shape = (n, n)
        self.weights = tuple(weights)
        self.views = list(adjacencies)
        self.stacked = sp.vstack(self.views, format="csr")
        self.degree = self._proximity_product(np.ones((n, 1))).ravel()

    nnz = property(lambda self: self.stacked.nnz)
    data = property(lambda self: self.stacked.data)
    indices = property(lambda self: self.stacked.indices)
    indptr = property(lambda self: self.stacked.indptr)

    def _proximity_product(self, X):
        """P @ X for an (n, k) array ``X``."""
        w = self.weights
        hops = (self.stacked @ (w[-1] * X)).reshape(len(self.views), *X.shape)
        for wk in reversed(w[:-1]):
            hops = [A @ (Z + wk * X) for A, Z in zip(self.views, hops)]
        return sum(hops[1:], hops[0])

    def __matmul__(self, Y):
        Y = np.asarray(Y, dtype=np.float64)
        n = self.shape[0]
        if Y.ndim not in (1, 2) or Y.shape[0] != n:
            raise ValueError(f"operand shape {Y.shape} does not match {self.shape}")
        X = Y.reshape(n, -1)
        return (self.degree[:, None] * X - self._proximity_product(X)).reshape(Y.shape)

    def toarray(self):
        """Dense L, for small-n checks only."""
        return self @ np.eye(self.shape[0])


def build_stack(network, config):
    """The summed proximity's degree vector and its matrix-free Laplacian under ``config``."""
    adjacencies = [proximity_adjacency(view.adjacency, config.normalize)
                   for view in network.views]
    laplacian = ProximityLaplacian(adjacencies, default_weights(config.order))
    return ProximityStack(laplacian.degree, laplacian)
