"""Joint embedding objective and its three-block coordinate descent.

The shared embedding Y, the per-view bases B and the per-view autoencoders
are trained by alternation: exact steps along the negative gradient on Y, an
exact closed-form solve for each B, and L-BFGS steps with an Armijo line
search on each autoencoder's backpropagated loss. Every block is
non-increasing, so the recorded objective trace is monotone.

Along a ray Y - tau G the Y subproblem is a quartic in tau (the graph and
consistency terms are quadratic, the orthogonality penalty quartic), so one
Laplacian product L G and d x d algebra give its five coefficients, and the
step goes to the ray's best stationary point. The L Y of each iteration's
objective is handed to the next Y block, which starts from the same Y.

Y starts in the span of the top left singular vectors of the stacked present
features, taken from a truncated eigensolve of the smaller Gram matrix. Each
autoencoder's L-BFGS history lives for one ``update_H`` call and its first
trial is a unit-length step. The blocks see each view's autoencoder only
through its forward pass over the present rows (``ae.ViewPass``), which
depends only on the parameters and the rows: the Y and B blocks read its
code, the objective also its reconstruction error, and ``update_H`` starts
the view's search from it and returns the pass of the trained parameters.
``forward_passes`` is the one place that reads the features, and a training
calls it once, so each accepted point costs one forward pass. Each block
refuses, naming the view, anything but a pass of the state's autoencoder.
The blocks read their settings from ``state.hyper``, and early stopping
reads the objective trace, so a state is exactly what ``io.checkpoint``
writes; a resume recomputes the passes and is exact.

The passes run in float32 (``forward_passes`` takes the rows as float32),
and everything else stays float64: Y, B, the autoencoders' parameters, the
Y and B blocks' arithmetic and every objective value. The objective reads
the passes' float64 reconstruction errors, the very numbers the H block's
line search compares, so the trace stays non-increasing. An overflow in a
pass or a gradient raises one FloatingPointError naming the H block.

``update_H`` and ``forward_passes`` run the views in the caller's thread
unless the largest view's forward pass reaches ``_VIEW_THREAD_MIN_MACS``
multiply-adds; then each view gets a thread of ``map_views``. A view's
operations and their BLAS thread are the same either way, so the bytes are.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import autoencoder as ae
from .graph_model import _check_setting, _check_settings
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
    h_steps: int = 5          # L-BFGS steps per autoencoder per outer iteration
    hidden_dims: tuple = (200,)
    activation: str = "tanh"
    output_activation: str = "sigmoid"  # matches 0/1-valued input features
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
        self.hidden_dims = _check_settings("hidden_dims", self.hidden_dims, 1, integer=True)
        if not self.hidden_dims:
            raise ValueError("hidden_dims must hold at least one width, got ()")
        if not isinstance(self.proximity, ProximityConfig):
            raise ValueError(f"proximity must be a ProximityConfig, got {self.proximity!r}")
        ae._activation(self.activation)
        ae._activation(self.output_activation, "output_activation")


@dataclass
class EmbeddingState:
    """Everything the trainer iterates on and the objective trace: what ``io.checkpoint`` writes.

    The forward passes are not stored: they follow from the autoencoders and
    the present features (``forward_passes``), and ``train`` carries them
    from one block to the next. ``representations`` gives the encoders'
    output on all rows.
    """
    Y: np.ndarray             # (n, dim) shared embedding
    B: list                   # per-view (dim, code_dim) bases
    masks: list               # per-view boolean presence vectors
    autoencoders: list
    hyper: Hyperparams
    objective_trace: list = field(default_factory=list)
    iter_seconds: list = field(default_factory=list)


@contextmanager
def _overflow_names(block):
    """Turn an overflow or invalid value inside into one FloatingPointError naming ``block``."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise FloatingPointError(f"{block}: {exc}; rescale the features") from None


def _orth_penalty(Y):
    gram = Y.T @ Y - np.eye(Y.shape[1])
    return float(np.sum(gram * gram))


@one_blas_thread()
def representations(state, network):
    """Per-view (n, code_dim) float32 representations H of the state: zero on masked rows.

    They come from float32 rows and BLAS runs at one thread, as in
    ``train``, so on the present rows these are the bytes of the codes
    that training computed.
    """
    return [ae.encode(params, view.features, m)
            for params, view, m in zip(state.autoencoders, network.views, state.masks)]


def _y_views(state, passes):
    """Per-view (mask, code, basis) of the state's checked passes: all the Y terms read but Y."""
    _check_passes(state, passes)
    return [(m, vpass.code, B) for m, vpass, B in zip(state.masks, passes, state.B)]


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


def _check_passes(state, passes):
    """Refuse passes that are not, view by view, of the state's autoencoders."""
    if len(passes) != len(state.autoencoders):
        raise ValueError(f"{len(passes)} passes for {len(state.autoencoders)} views")
    for s, (vpass, params) in enumerate(zip(passes, state.autoencoders)):
        if getattr(vpass, "params", None) is not params:  # an array has no params
            raise ValueError(f"view {s}: the pass is not of the state's autoencoder")


def objective(state, passes, prox, LY=None):
    """Value of the full training objective at the current state.

    ``passes`` holds per view the forward pass of the state's autoencoder
    over its present rows (``forward_passes``, or ``update_H``'s second
    result); their code and reconstruction error give the view's terms, and
    any other value raises one ValueError naming the view. ``LY``,
    the Laplacian applied to ``state.Y``, is computed when not given.
    """
    views = _y_views(state, passes)
    LY = prox.laplacian @ state.Y if LY is None else LY
    total = _y_value(state.Y, LY, views, state.hyper)
    ridge = 0.0
    for s, vpass in enumerate(passes):
        total += vpass.recon
        ridge += float(np.sum(state.B[s] ** 2)) + state.autoencoders[s].weight_sq_norm()
    total += state.hyper.lam * ridge
    if not np.isfinite(total):
        raise FloatingPointError("objective is not finite")
    return total


def grad_Y(state, passes, prox):
    """Exact gradient of the objective's Y-dependent terms at the state's ``passes``."""
    return _y_grad(state.Y, prox.laplacian @ state.Y, _y_views(state, passes), state.hyper)


@_overflow_names("Y block")
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


def update_Y(state, passes, prox, LY=None):
    """Exact descent steps on Y at the codes of ``passes``; the Y subproblem never increases.

    L Y (``LY``, computed when not given) is carried through the steps as
    L Y - tau L G, so a step costs one Laplacian product, L G, and the
    carried product's rounding never outlives the call. Each step moves to
    the best stationary point of the quartic along -G (``_ray_coefficients``,
    ``_best_step``) and is kept only if ``_y_value`` there is below the
    current value; otherwise the block stops at the current Y. Coefficients
    that overflow raise a FloatingPointError naming the Y block.
    """
    hyper = state.hyper
    views = _y_views(state, passes)
    L, Y = prox.laplacian, state.Y
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


def update_B(state, passes):
    """Closed-form ridge solve for every view's basis, against the codes of ``passes``."""
    hyper = state.hyper
    d = state.Y.shape[1]
    new_B = []
    for s, (m, code, _) in enumerate(_y_views(state, passes)):
        Yp = state.Y[m]
        A = hyper.alpha * (Yp.T @ Yp) + hyper.lam * np.eye(d)
        rhs = hyper.alpha * (Yp.T @ code)
        try:
            factor = scipy.linalg.cho_factor(A)
            new_B.append(scipy.linalg.cho_solve(factor, rhs))
        except scipy.linalg.LinAlgError:
            raise ValueError(f"view {s}: basis system is singular with lam = {hyper.lam:g}; "
                             "use a larger lam") from None
    return replace(state, B=new_B)


# Multiply-adds per forward pass of the largest view below which the views run
# inline: their numpy calls are so short that passing the GIL between view threads
# costs what a second CPU gives. On two CPUs, with float32 passes, view threads tied
# with inline trainings at 3.4M and beat them from 4.3M on (README, "Threads").
_VIEW_THREAD_MIN_MACS = 3_400_000


def _per_view(fn, state):
    """``fn(s)`` for each view s of the state, in order: inline, or on the view threads.

    A view's forward pass costs its present rows times its autoencoder's
    weight entries multiply-adds; when the largest view's reaches
    ``_VIEW_THREAD_MIN_MACS``, the views go through ``map_views``, looked
    up in this module at each call.
    """
    views = range(len(state.masks))
    macs = max(int(np.count_nonzero(m)) * sum(W.size for W in params.weights)
               for params, m in zip(state.autoencoders, state.masks))
    if macs < _VIEW_THREAD_MIN_MACS:
        return [fn(s) for s in views]
    return map_views(fn, views)


def _take(items, i):
    """``items[i]``, leaving None in its place so that the list no longer holds it."""
    item, items[i] = items[i], None
    return item


def update_H(state, passes):
    """Train each view's autoencoder from its pass; returns the new state and its passes.

    ``passes`` holds the state's own passes (``forward_passes``, or the
    previous call's second result); the returned ones are, per view, the
    forward pass of the trained autoencoder over the present rows. Each
    view's search starts from its pass, which is taken out of the list as it
    is handed over, so the search alone holds it and drops it after its
    first gradient. A pass of other parameters than the state's autoencoder
    raises one ValueError naming the view, before any search runs.
    """
    hyper = state.hyper
    _check_passes(state, passes)

    def train_one(s):
        target = ae._view_target(state.masks[s], state.Y, state.B[s], hyper.alpha)
        with _overflow_names("H block"):  # trials price an overflow; gradients raise on one
            return ae.train_view_autoencoder(_take(passes, s), target, hyper.alpha, hyper.lam,
                                             hyper.h_steps)

    trained = _per_view(train_one, state)
    return replace(state, autoencoders=[vpass.params for vpass in trained]), trained


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
    with _overflow_names("warm start"):
        gram = X @ X.T if n <= m else X.T @ X
    size = gram.shape[0]
    k = min(k, size)
    lam, vec = scipy.linalg.eigh(gram, subset_by_index=[size - k, size - 1])
    lam, vec = lam[::-1], vec[:, ::-1]
    rank = int(np.sum(lam > _GRAM_RTOL * lam[0]))
    if n <= m:
        return vec[:, :rank]
    return (X @ vec[:, :rank]) / np.sqrt(lam[:rank])


def forward_passes(state, network):
    """Per view, the float32 forward pass of the state's autoencoder over its present rows.

    The one place a training reads the features: these float32 rows are the
    only copy of them it takes, and every later pass reads them. Features
    beyond float32's range, or a pass that overflows, raise one
    FloatingPointError naming the H block.
    """
    def forward(s):
        with _overflow_names("H block"):
            rows = ae._present_rows(network.views[s].features, state.masks[s])
            return ae._view_forward(state.autoencoders[s], rows)

    return _per_view(forward, state)


def _init_state(network, hyper):
    """The starting state and its passes; ``hyper.seed`` seeds every draw."""
    rng = np.random.default_rng(hyper.seed)
    n, d = network.n, hyper.dim
    # warm start: top singular directions of the present features, then random columns
    stacked = np.hstack([np.where(view.mask[:, None], view.features, 0.0)
                         for view in network.views])
    U = _leading_left_singular_vectors(stacked, d) if np.any(stacked) else np.zeros((n, 0))
    Y = np.hstack([U, rng.standard_normal((n, d - U.shape[1])) / np.sqrt(d)])
    autoencoders = [ae.init_autoencoder(view.dim, hyper.hidden_dims, hyper.activation,
                                        hyper.output_activation, rng) for view in network.views]
    masks = [view.mask.copy() for view in network.views]
    B = [np.zeros((d, params.code_dim)) for params in autoencoders]
    state = EmbeddingState(Y, B, masks, autoencoders, hyper)
    passes = forward_passes(state, network)
    return update_B(state, passes), passes


def _check_resume(state, network, hyper):
    """Refuse a resume whose state or trade-offs do not belong to this run."""
    if state.Y.shape[0] != network.n:
        raise ValueError(f"resume state has {state.Y.shape[0]} nodes, network has {network.n}")
    if {len(state.B), len(state.masks), len(state.autoencoders)} != {network.t}:
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
    the final state, which carries this run's ``hyper`` (also on a resume),
    with one objective value recorded per completed outer iteration (plus
    the starting value). Before each iteration the run stops if each of the
    trace's last ``stop_patience`` relative drops, those of a resumed trace
    included, is below ``stop_tol``. Fixing the seed fixes the output: BLAS runs
    on one thread meanwhile, so its thread setting does not split sums
    differently, and the caller's setting is restored on return.
    """
    hyper = hyper if hyper is not None else Hyperparams()
    worker_count(network.t)  # a bad DPMNE_THREADS fails here, before any work
    with one_blas_thread():
        if init_state is None:
            state, passes = _init_state(network, hyper)
        else:
            _check_resume(init_state, network, hyper)
            state = replace(init_state, hyper=hyper)
            passes = forward_passes(state, network)  # the passes the interrupted run held
        prox = build_stack(network, hyper.proximity)
        # the objective's L Y is handed to the next update_Y: the B and H blocks leave Y as it is
        LY = prox.laplacian @ state.Y
        trace = list(state.objective_trace) or [objective(state, passes, prox, LY)]
        iter_seconds = list(state.iter_seconds)
        for _ in range(hyper.max_iters):
            tail = trace[-hyper.stop_patience - 1:]
            drops = [(a - b) / max(abs(a), 1e-300) for a, b in zip(tail, tail[1:])]
            if len(drops) == hyper.stop_patience and all(d < hyper.stop_tol for d in drops):
                break
            tic = time.perf_counter()
            state = update_Y(state, passes, prox, LY)
            state = update_B(state, passes)
            state, passes = update_H(state, passes)
            LY = prox.laplacian @ state.Y
            trace.append(objective(state, passes, prox, LY))
            iter_seconds.append(time.perf_counter() - tic)
        return replace(state, objective_trace=trace, iter_seconds=iter_seconds)


def reconstruct_missing(state, node, view):
    """Deep representation predicted from the shared embedding alone."""
    n = state.Y.shape[0]
    if not 0 <= node < n:
        raise IndexError(f"node {node} outside [0, {n})")
    if not 0 <= view < len(state.B):
        raise IndexError(f"view {view} outside [0, {len(state.B)})")
    return state.Y[node] @ state.B[view]
