"""Joint embedding objective and its three-block coordinate descent.

The shared embedding Y, the per-view bases B and the per-view autoencoders
are trained by alternation: exact steps along the negative gradient on Y, an
exact closed-form solve for each B, and backpropagation steps with an Armijo
line search on each autoencoder. Every block is non-increasing, so the
recorded objective trace is monotone.

Along a ray Y - tau G the Y subproblem is a quartic in tau (the graph and
consistency terms are quadratic, the orthogonality penalty quartic), so one
Laplacian product L G and d x d algebra give its five coefficients, and the
step goes to the ray's best stationary point. The L Y of each iteration's
objective is handed to the next Y block, which starts from the same Y.

Y starts in the span of the top left singular vectors of the stacked present
features, taken from a truncated eigensolve of the smaller Gram matrix. Each
autoencoder's line search starts from the step its search of the previous
iteration returned; ``armijo_minimize`` states when that accepts the same
steps as a search from ``h_lr``.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import autoencoder as ae
from .graph_model import _check_setting
from .optim import armijo_minimize  # noqa: F401  unused here; bench/tracing.py patches it
from .parallel import map_views, one_blas_thread, worker_count
from .proximity import ProximityConfig, build_stack


@dataclass
class Hyperparams:
    """Trade-off weights, sizes and inner-loop settings for training."""
    alpha: float = 1.0        # latent-subspace consistency weight
    beta: float = 0.1         # graph-proximity weight
    lam: float = 0.01         # regularization weight
    dim: int = 128            # embedding dimension
    max_iters: int = 60       # outer coordinate-descent iterations
    y_steps: int = 5          # gradient steps on Y per outer iteration
    h_steps: int = 5          # backprop steps per autoencoder per outer iteration
    h_lr: float = 0.1         # initial line-search step for the autoencoders
    hidden_dims: tuple = (200,)
    activation: str = "tanh"
    output_activation: str = "sigmoid"
    proximity: ProximityConfig = field(default_factory=ProximityConfig)
    stop_tol: float = 1e-6    # relative decrease below this counts as stalled
    stop_patience: int = 3    # stalled iterations before stopping early
    seed: int = 0

    def __post_init__(self):
        # a setting of the wrong type or range (say, from a checkpoint) fails here with its name
        for name, low, integer in (("alpha", 0, False), ("beta", 0, False), ("lam", 0, False),
                                   ("stop_tol", 0, False), ("max_iters", 0, True),
                                   ("y_steps", 0, True), ("h_steps", 0, True), ("seed", 0, True),
                                   ("dim", 1, True), ("stop_patience", 1, True)):
            setattr(self, name, _check_setting(name, getattr(self, name), low, integer=integer))
        self.h_lr = _check_setting("h_lr", self.h_lr, 0, low_open=True)
        if not self.hidden_dims:
            raise ValueError(f"hidden_dims must hold at least one width, got {self.hidden_dims!r}")
        self.hidden_dims = tuple(_check_setting("hidden_dims", w, 1, integer=True)
                                 for w in self.hidden_dims)
        ae._activation(self.activation)
        ae._activation(self.output_activation, "output_activation")


@dataclass
class EmbeddingState:
    """Everything the trainer iterates on, plus the recorded objective trace."""
    Y: np.ndarray             # (n, dim) shared embedding
    B: list                   # per-view (dim, code_dim) bases
    H: list                   # per-view (n, code_dim) representations, zero on masked rows
    masks: list               # per-view boolean presence vectors
    autoencoders: list
    hyper: Hyperparams
    objective_trace: list = field(default_factory=list)
    iter_seconds: list = field(default_factory=list)
    # per-view step each autoencoder's last line search returned: the next
    # search's first-step hint; never checkpointed, so a resume starts at h_lr
    h_last_step: list = None


def _orth_penalty(Y):
    gram = Y.T @ Y - np.eye(Y.shape[1])
    return float(np.sum(gram * gram))


def _y_views(state):
    """Per-view (mask, present H rows, basis): everything the Y terms read besides Y."""
    return [(m, state.H[s][m], state.B[s]) for s, m in enumerate(state.masks)]


def _y_value(Y, LY, views, hyper):
    """Y-dependent objective terms: graph proximity, orthogonality, consistency.

    ``LY`` is the Laplacian applied to ``Y``; the value and the gradient at
    one point share it.
    """
    val = hyper.beta * float(np.sum(Y * LY)) + hyper.lam * _orth_penalty(Y)
    for m, Hp, B in views:
        diff = Hp - Y[m] @ B
        val += hyper.alpha * float(np.sum(diff * diff))
    return val


def _y_grad(Y, LY, views, hyper):
    """Exact gradient of ``_y_value`` with respect to Y."""
    G = 2.0 * hyper.beta * LY
    G += 4.0 * hyper.lam * (Y @ (Y.T @ Y - np.eye(Y.shape[1])))
    for m, Hp, B in views:
        G[m] += 2.0 * hyper.alpha * (Y[m] @ B - Hp) @ B.T
    return G


def objective(state, network, prox, hyper, LY=None):
    """Value of the full training objective at the current state.

    ``LY``, the Laplacian applied to ``state.Y``, is computed when not given.
    """
    LY = prox.laplacian @ state.Y if LY is None else LY
    total = _y_value(state.Y, LY, _y_views(state), hyper)
    ridge = 0.0
    for s, view in enumerate(network.views):
        m = state.masks[s]
        Xt = ae.decode(state.autoencoders[s], state.H[s][m])
        total += float(np.sum((view.features[m] - Xt) ** 2))
        ridge += float(np.sum(state.B[s] ** 2)) + state.autoencoders[s].weight_sq_norm()
    total += hyper.lam * ridge
    if not np.isfinite(total):
        raise FloatingPointError("objective is not finite")
    return total


def grad_Y(state, prox, hyper):
    """Exact gradient of the objective's Y-dependent terms."""
    return _y_grad(state.Y, prox.laplacian @ state.Y, _y_views(state), hyper)


def grad_B(state, hyper):
    """Per-view gradients of the basis subproblem (consistency + ridge)."""
    grads = []
    for s in range(len(state.B)):
        m = state.masks[s]
        Yp = state.Y[m]
        residual = Yp @ state.B[s] - state.H[s][m]
        grads.append(2.0 * hyper.alpha * (Yp.T @ residual) + 2.0 * hyper.lam * state.B[s])
    return grads


def _ray_coefficients(Y, G, LY, LG, views, hyper, f):
    """Coefficients c0..c4 of the quartic f(tau) = ``_y_value`` at Y - tau G.

    ``G`` is the gradient at Y, so c1 = -<G, G>; ``LY`` and ``LG`` are the
    Laplacian applied to Y and G, and ``f`` is the value at Y.
    """
    M = Y.T @ Y - np.eye(Y.shape[1])
    YtG = Y.T @ G
    S = YtG + YtG.T
    Q = G.T @ G
    c2 = hyper.beta * float(np.sum(G * LG))
    for m, _, B in views:
        GB = G[m] @ B
        c2 += hyper.alpha * float(np.sum(GB * GB))
    c2 += hyper.lam * (float(np.sum(S * S)) + 2.0 * float(np.sum(M * Q)))
    return np.array([f, -float(np.sum(G * G)), c2,
                     -2.0 * hyper.lam * float(np.sum(S * Q)), hyper.lam * float(np.sum(Q * Q))])


_FLOAT_MAX = np.finfo(np.float64).max


def _best_step(coeffs):
    """The tau > 0 where f'(tau) = 0 with the least f(tau); 0.0 when there is none.

    Real parts of complex roots are candidates too: a nearly double root
    keeps its step, and any other such candidate loses to the real minimizer.
    A leading coefficient below the largest other one divided by the float64
    maximum only adds stationary points beyond float64's range, so it is
    dropped rather than let ``np.roots`` overflow.
    """
    deriv = np.array([4.0 * coeffs[4], 3.0 * coeffs[3], 2.0 * coeffs[2], coeffs[1]])
    while deriv.size > 1 and abs(deriv[0]) < np.max(np.abs(deriv[1:])) / _FLOAT_MAX:
        deriv = deriv[1:]
    roots = np.roots(deriv)
    taus = roots.real[roots.real > 0.0]
    if taus.size == 0:
        return 0.0
    return float(taus[np.argmin(np.polyval(coeffs[::-1], taus))])


def update_Y(state, prox, hyper, LY=None):
    """Exact steps along the negative gradient of Y; the Y subproblem never increases.

    L Y (``LY``, computed when not given) is carried through the steps as
    L Y - tau L G, so a step costs one Laplacian product, L G, and the
    carried product's rounding never outlives the call. Each step moves to
    the best stationary point of the quartic along -G (``_ray_coefficients``,
    ``_best_step``) and is kept only if ``_y_value`` there is below the
    current value; otherwise the block stops at the current Y.
    """
    views = _y_views(state)
    L = prox.laplacian
    Y = state.Y
    LY = L @ Y if LY is None else LY
    f = _y_value(Y, LY, views, hyper)
    if not np.isfinite(f):
        raise FloatingPointError("objective is not finite at the starting point")
    for _ in range(hyper.y_steps):
        G = _y_grad(Y, LY, views, hyper)
        if not np.all(np.isfinite(G)):
            raise FloatingPointError("gradient has non-finite entries")
        if not np.any(G):
            break
        LG = L @ G
        tau = _best_step(_ray_coefficients(Y, G, LY, LG, views, hyper, f))
        Y_new, LY_new = Y - tau * G, LY - tau * LG
        f_new = _y_value(Y_new, LY_new, views, hyper)
        if not f_new < f:
            break
        Y, LY, f = Y_new, LY_new, f_new
    return replace(state, Y=Y)


def update_B(state, network, hyper):
    """Closed-form ridge solve for every view's basis matrix."""
    d = state.Y.shape[1]
    new_B = []
    for s, m in enumerate(state.masks):
        Yp = state.Y[m]
        A = hyper.alpha * (Yp.T @ Yp) + hyper.lam * np.eye(d)
        rhs = hyper.alpha * (Yp.T @ state.H[s][m])
        try:
            factor = scipy.linalg.cho_factor(A)
            new_B.append(scipy.linalg.cho_solve(factor, rhs))
        except scipy.linalg.LinAlgError:
            raise ValueError(f"view {s}: basis system is singular with lam = {hyper.lam:g}; "
                             "use a larger lam") from None
    return replace(state, B=new_B)


def update_H(state, network, hyper):
    """Train each view's autoencoder and refresh its cached representation.

    Each view's line search starts from the step its previous search
    returned (``state.h_last_step``), or from ``h_lr`` when there is none.
    """
    hints = state.h_last_step or [None] * len(network.views)

    def train_one(s):
        X, m = network.views[s].features, state.masks[s]
        params, step = ae.train_view_autoencoder(
            state.autoencoders[s], X, m, state.Y, state.B[s], hyper.alpha, hyper.lam,
            steps=hyper.h_steps, lr=hyper.h_lr, first_step=hints[s])
        return params, ae.encode(params, X, m), step

    results = map_views(train_one, range(len(network.views)))
    return replace(state,
                   autoencoders=[r[0] for r in results],
                   H=[r[1] for r in results],
                   h_last_step=[r[2] for r in results])


# Gram eigenvalues below this fraction of the largest count as zero (see below)
_GRAM_RTOL = 1e-10


def _leading_left_singular_vectors(X, k):
    """Orthonormal top-``k`` left singular vectors of X, from its smaller Gram matrix.

    X Xᵀ gives them as eigenvectors when X has no more rows than columns;
    otherwise the eigenvectors V of Xᵀ X give X V / sigma. A Gram eigenvalue
    carries a rounding error of about size * eps * lambda_max (1.3e-13
    lambda_max at size 600), so eigenvalues below ``_GRAM_RTOL`` *
    lambda_max count as zero and fewer than ``k`` vectors come back when X
    has lower rank. In singular values that cutoff is 1e-5 sigma_max; the
    Gram cannot resolve much less, and X V / sigma keeps its columns
    orthogonal to about eps / _GRAM_RTOL.
    """
    n, m = X.shape
    gram = X @ X.T if n <= m else X.T @ X
    size = gram.shape[0]
    k = min(k, size)
    lam, vec = scipy.linalg.eigh(gram, subset_by_index=[size - k, size - 1])
    lam, vec = lam[::-1], vec[:, ::-1]
    rank = int(np.sum(lam > _GRAM_RTOL * lam[0]))
    if n <= m:
        return vec[:, :rank]
    return (X @ vec[:, :rank]) / np.sqrt(lam[:rank])


def _init_state(network, hyper, rng):
    n, d = network.n, hyper.dim
    # warm start: top singular directions of the concatenated present features
    stacked = np.hstack([np.where(view.mask[:, None], view.features, 0.0)
                         for view in network.views])
    Y = np.zeros((n, d))
    filled = 0
    if np.any(stacked):
        U = _leading_left_singular_vectors(stacked, d)
        filled = U.shape[1]
        Y[:, :filled] = U
    if filled < d:
        Y[:, filled:] = rng.standard_normal((n, d - filled)) / np.sqrt(d)

    autoencoders = [
        ae.init_autoencoder(view.dim, hyper.hidden_dims, hyper.activation,
                            hyper.output_activation, rng)
        for view in network.views
    ]
    H = [ae.encode(autoencoders[s], view.features, view.mask)
         for s, view in enumerate(network.views)]
    masks = [view.mask.copy() for view in network.views]
    code_dim = autoencoders[0].code_dim
    B = [np.zeros((d, code_dim)) for _ in network.views]
    state = EmbeddingState(Y, B, H, masks, autoencoders, hyper)
    return update_B(state, network, hyper)


def _check_resume(state, network, hyper):
    """Refuse a resume whose state or trade-offs do not belong to this run."""
    if state.Y.shape[0] != network.n:
        raise ValueError(f"resume state has {state.Y.shape[0]} nodes, network has {network.n}")
    if {len(state.B), len(state.H), len(state.masks), len(state.autoencoders)} != {network.t}:
        raise ValueError(f"resume state has {len(state.B)} views, network has {network.t}")
    for s, view in enumerate(network.views):
        width = state.autoencoders[s].input_dim
        if width != view.features.shape[1]:
            raise ValueError(f"view {s}: resume state's autoencoder takes {width} features, "
                             f"network has {view.features.shape[1]}")
        if not np.array_equal(state.masks[s], view.mask):
            raise ValueError(f"view {s}: resume state masks differ from the network's")
    for name in ("alpha", "beta", "lam", "proximity", "dim", "hidden_dims", "activation",
                 "output_activation"):
        if getattr(state.hyper, name) != getattr(hyper, name):
            raise ValueError(f"resume with {name}={getattr(hyper, name)!r} continues a trace "
                             f"made with {name}={getattr(state.hyper, name)!r}")


def train(network, hyper=None, init_state=None):
    """Alternate the Y, B and autoencoder updates until stalled or exhausted.

    Expects a validated network; masked feature rows are never read. Returns
    the final state with one objective value recorded per completed outer
    iteration (plus the starting value). Fixing the seed fixes the output:
    BLAS runs on one thread meanwhile, so its thread setting does not split
    sums differently, and the caller's setting is restored on return.
    """
    hyper = hyper if hyper is not None else Hyperparams()
    worker_count(network.t)  # a bad DPMNE_THREADS fails here, before any work
    with one_blas_thread():
        if init_state is None:
            state = _init_state(network, hyper, np.random.default_rng(hyper.seed))
        else:
            _check_resume(init_state, network, hyper)
            state = replace(init_state, h_last_step=None)
        prox = build_stack(network, hyper.proximity)
        # the objective's L Y is handed to the next update_Y: B and H leave Y as it is
        LY = None
        trace = list(state.objective_trace)
        if not trace:
            LY = prox.laplacian @ state.Y
            trace.append(objective(state, network, prox, hyper, LY))
        iter_seconds = list(state.iter_seconds)

        stalled = 0
        for _ in range(hyper.max_iters):
            tic = time.perf_counter()
            state = update_Y(state, prox, hyper, LY)
            state = update_B(state, network, hyper)
            state = update_H(state, network, hyper)
            LY = prox.laplacian @ state.Y
            value = objective(state, network, prox, hyper, LY)
            iter_seconds.append(time.perf_counter() - tic)
            previous = trace[-1]
            trace.append(value)
            rel_drop = (previous - value) / max(abs(previous), 1e-300)
            stalled = stalled + 1 if rel_drop < hyper.stop_tol else 0
            if stalled >= hyper.stop_patience:
                break
        return replace(state, objective_trace=trace, iter_seconds=iter_seconds)


def reconstruct_missing(state, node, view):
    """Deep representation predicted from the shared embedding alone."""
    n = state.Y.shape[0]
    if not 0 <= node < n:
        raise IndexError(f"node {node} outside [0, {n})")
    if not 0 <= view < len(state.B):
        raise IndexError(f"view {view} outside [0, {len(state.B)})")
    return state.Y[node] @ state.B[view]
