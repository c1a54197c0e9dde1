"""Joint embedding objective and its three-block coordinate descent.

The shared embedding Y, the per-view bases B and the per-view autoencoders
are trained by alternation: gradient steps on Y, an exact closed-form solve
for each B, and backpropagation steps on each autoencoder. Every block is
non-increasing, so the recorded objective trace is monotone.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import autoencoder as ae
from .optim import armijo_minimize, latest_point
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
    y_lr: float = 1.0         # initial line-search step for the Y block
    h_lr: float = 0.1         # initial line-search step for the autoencoders
    hidden_dims: tuple = (200,)
    activation: str = "tanh"
    output_activation: str = "sigmoid"
    proximity: ProximityConfig = field(default_factory=ProximityConfig)
    stop_tol: float = 1e-6    # relative decrease below this counts as stalled
    stop_patience: int = 3    # stalled iterations before stopping early
    seed: int = 0

    def __post_init__(self):
        for name in ("max_iters", "y_steps", "h_steps", "alpha", "beta", "lam"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("dim", "y_lr", "h_lr"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.hidden_dims or any(w < 1 for w in self.hidden_dims):
            raise ValueError(f"hidden_dims must be non-empty and positive, got {self.hidden_dims}")


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


def objective(state, network, prox, hyper):
    """Value of the full training objective at the current state."""
    total = _y_value(state.Y, prox.laplacian @ state.Y, _y_views(state), hyper)
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


def update_Y(state, prox, hyper):
    """Backtracking gradient steps on Y; the Y subproblem never increases.

    Each gradient reuses the Laplacian product of the loss evaluation that
    accepted its point.
    """
    shape = state.Y.shape
    views = _y_views(state)

    @latest_point
    def forward(v):
        Y = v.reshape(shape)
        return Y, prox.laplacian @ Y

    vec, _, _ = armijo_minimize(
        lambda v: _y_value(*forward(v), views, hyper),
        lambda v: _y_grad(*forward(v), views, hyper).ravel(),
        state.Y.ravel(), steps=hyper.y_steps, step0=hyper.y_lr)
    return replace(state, Y=vec.reshape(shape))


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
            if hyper.lam == 0.0:
                raise ValueError(
                    f"view {s}: basis system is singular with lam = 0; use lam > 0")
            raise
    return replace(state, B=new_B)


def update_H(state, network, hyper):
    """Train each view's autoencoder and refresh its cached representation."""
    def train_one(s):
        X, m = network.views[s].features, state.masks[s]
        params = ae.train_view_autoencoder(
            state.autoencoders[s], X, m, state.Y, state.B[s],
            hyper.alpha, hyper.lam, steps=hyper.h_steps, lr=hyper.h_lr)
        return params, ae.encode(params, X, m)

    results = map_views(train_one, range(len(network.views)))
    return replace(state,
                   autoencoders=[r[0] for r in results],
                   H=[r[1] for r in results])


def _init_state(network, hyper, rng):
    n, d = network.n, hyper.dim
    # warm start: top singular directions of the concatenated present features
    stacked = np.hstack([np.where(view.mask[:, None], view.features, 0.0)
                         for view in network.views])
    Y = np.zeros((n, d))
    filled = 0
    if np.any(stacked):
        U, S, _ = np.linalg.svd(stacked, full_matrices=False)
        keep = min(d, int(np.sum(S > 1e-12 * S[0])))
        Y[:, :keep] = U[:, :keep]
        filled = keep
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
            state = init_state
        prox = build_stack(network, hyper.proximity)
        trace = list(state.objective_trace) or [objective(state, network, prox, hyper)]
        iter_seconds = list(state.iter_seconds)

        stalled = 0
        for _ in range(hyper.max_iters):
            tic = time.perf_counter()
            state = update_Y(state, prox, hyper)
            state = update_B(state, network, hyper)
            state = update_H(state, network, hyper)
            value = objective(state, network, prox, hyper)
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
