"""Reference implementations the tests compare the library against.

They build explicit matrices or recompute cached values, so they suit small
inputs only; nothing outside the tests calls them.
"""

import numpy as np
import scipy.sparse as sp

from dpmne.optim import ARMIJO_C, CURVATURE_TOL, MAX_TRIALS
from dpmne.proximity import (ProximityConfig, ProximityStack, default_weights,
                             proximity_adjacency)
from dpmne import autoencoder as ae
from dpmne.trainer import EmbeddingState, objective


def high_order_proximity(adjacency, config=None):
    """Weighted sum of the first ``order`` powers of the (prepared) adjacency.

    The powers fill in, so this is for small graphs. Diagonal entries of the
    powers (closed walks) are kept: they add nothing to pairwise embedding
    distances.
    """
    cfg = config or ProximityConfig()
    weights = default_weights(cfg.order)
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
    """Objective with the forward passes recomputed from the autoencoders over float64 rows.

    Float64 passes make it smooth enough for finite differences, which the
    float32 passes of training are not.
    """
    masks = [view.mask for view in network.views]
    state = EmbeddingState(Y, list(B), masks, list(autoencoders), hyper)
    passes = [ae._view_forward(params, view.features[view.mask])
              for params, view in zip(autoencoders, network.views)]
    return objective(state, passes, prox)


def svd_warm_start(X, k):
    """Top-``k`` left singular vectors of X from a full thin SVD, rank cut at 1e-12 sigma_max."""
    U, S, _ = np.linalg.svd(X, full_matrices=False)
    keep = min(k, int(np.sum(S > 1e-12 * S[0])))
    return U[:, :keep]


def row_major_logreg_loss(W, X, y, l2=1.0):
    """Classifier loss with row-major (rows, classes) logits, as first written."""
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    logits = Xb @ W
    logits -= logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(logits).sum(axis=1))
    nll = float(np.sum(log_norm - logits[np.arange(len(y)), y]))
    return nll + 0.5 * l2 * float(np.sum(W[:-1] ** 2))


def row_major_logreg_grad(W, X, y, l2=1.0):
    """Gradient of ``row_major_logreg_loss`` with respect to W."""
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    logits = Xb @ W
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(len(y)), y] -= 1.0
    G = Xb.T @ probs
    G[:-1] += l2 * W[:-1]
    return G


def armijo_logreg_oracle(X, y, num_classes, l2=1.0, gtol=1e-6, max_steps=500):
    """The classifier as first written: gradient descent with Armijo steps on
    row-major logits, stopped by ``gtol`` or after ``max_steps`` steps.

    Each step's first trial is 1.0 at first and then twice the last accepted
    step; the search halves until the Armijo test passes.
    """
    W = np.zeros((X.shape[1] + 1, num_classes))
    f, step = row_major_logreg_loss(W, X, y, l2), 1.0
    for _ in range(max_steps):
        G = row_major_logreg_grad(W, X, y, l2)
        gg = float(G.ravel() @ G.ravel())
        if gg == 0.0 or np.max(np.abs(G)) <= gtol:
            break
        least = np.inf
        for _ in range(MAX_TRIALS):
            W_new = W - step * G
            f_new = row_major_logreg_loss(W_new, X, y, l2)
            if np.isfinite(f_new) and f_new <= f - ARMIJO_C * step * gg:
                break
            if np.isfinite(f_new):
                least = min(least, f_new)
            step *= 0.5
        else:
            if least <= f + 1e-12 * max(1.0, abs(f)):
                break
            raise RuntimeError("line search failed")
        W, f, step = W_new, f_new, 2.0 * step
    return W


def interpolated_step(t, f, gd, f_t):
    """The step after the trial at ``t`` fails with the finite value ``f_t``.

    It is the minimizer of q(a) = f - gd a + c a^2 with q(t) = f_t, so
    c = (f_t - f + gd t) / t^2, clamped to [t/10, t/2].
    """
    minimizer = t * (gd * t) / (2.0 * (f_t - f + gd * t))
    return min(max(minimizer, t / 10.0), t / 2.0)


def unit_step_armijo_trials(fun, grad, x0, steps):
    """The points ``optim.armijo_minimize`` tries, from its rule as the README states it.

    Each step moves along -d: d is g/||g|| while no (s, y) pair is kept or
    when the recursion's g'd is not positive, and the two-loop recursion over
    the kept pairs otherwise. A pair is kept when
    s'y > CURVATURE_TOL ||s|| ||y||. Each search tries t = 1 first. After a
    finite trial value fails the Armijo test on g'd, the next t is
    ``interpolated_step``; after a non-finite one it is t/2. Returns the
    trial points in order and the final (x, f). The stationary exit and the
    failure are left out: a search that passes no trial raises.
    """
    x = np.asarray(x0, dtype=np.float64)
    f, trials, ss, ys, previous = float(fun(x)), [], [], [], None
    for _ in range(steps):
        g = np.asarray(grad(x), dtype=np.float64)
        if previous is not None:
            s, y = x - previous[0], g - previous[1]
            if float(s @ y) > CURVATURE_TOL * np.sqrt(float(s @ s)) * np.sqrt(float(y @ y)):
                ss.append(s)
                ys.append(y)
        gg = float(g @ g)
        if gg == 0.0:
            break
        d = g / np.sqrt(gg)
        if ss:
            q, alphas = g.copy(), []
            for s, y in zip(ss[::-1], ys[::-1]):
                alphas.append(float(s @ q) / float(s @ y))
                q = q - alphas[-1] * y
            q = q * (float(ss[-1] @ ys[-1]) / float(ys[-1] @ ys[-1]))
            for s, y, a in zip(ss, ys, alphas[::-1]):
                q = q + (a - float(y @ q) / float(s @ y)) * s
            if float(g @ q) > 0.0:
                d = q
        gd, t = float(g @ d), 1.0
        for _ in range(MAX_TRIALS):
            x_new = x - t * d
            f_new = float(fun(x_new))
            trials.append(x_new)
            if np.isfinite(f_new) and f_new <= f - ARMIJO_C * t * gd:
                break
            t = interpolated_step(t, f, gd, f_new) if np.isfinite(f_new) else t / 2.0
        else:
            raise RuntimeError("line search failed")
        previous = x, g
        x, f = x_new, f_new
    return trials, x, f


def bfgs_inverse_hessian(ss, ys):
    """The dense BFGS inverse-Hessian estimate from (s, y) pairs, oldest first.

    It starts at (s'y / y'y) I of the newest pair and applies
    H <- (I - rho s y') H (I - rho y s') + rho s s', rho = 1 / s'y, per pair.
    """
    s, y = ss[-1], ys[-1]
    H = float(s @ y) / float(y @ y) * np.eye(s.size)
    for s, y in zip(ss, ys):
        rho = 1.0 / float(s @ y)
        V = np.eye(s.size) - rho * np.outer(y, s)
        H = V.T @ H @ V + rho * np.outer(s, s)
    return H


def doubling_armijo_descent(fun, grad, x0, steps):
    """Gradient descent by the autoencoders' earlier rule; returns the final (x, f).

    The first trial is the step 1/||g0|| along -g0, each later search starts
    at twice the step accepted before it, and a search halves until the
    Armijo test passes.
    """
    x = np.asarray(x0, dtype=np.float64)
    f, t = float(fun(x)), None
    for _ in range(steps):
        g = np.asarray(grad(x), dtype=np.float64)
        gg = float(g @ g)
        if gg == 0.0:
            break
        t = 1.0 / np.sqrt(gg) if t is None else 2.0 * t
        for _ in range(MAX_TRIALS):
            x_new = x - t * g
            f_new = float(fun(x_new))
            if np.isfinite(f_new) and f_new <= f - ARMIJO_C * t * gg:
                break
            t *= 0.5
        else:
            raise RuntimeError("line search failed")
        x, f = x_new, f_new
    return x, f
