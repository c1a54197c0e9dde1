"""Per-view autoencoder: forward pass, coupled loss and training.

One autoencoder per view maps raw features to a deep representation and back.
Missing nodes never enter the computation: their representation rows are
forced to zero and their (zero-stored) feature rows are excluded from every
loss term. Training adds a regression pull toward the shared embedding's
per-view subspace, so the deep representations stay consistent across views.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .optim import armijo_minimize, flatten, latest_point, unflatten

_ACT = {
    "identity": (lambda z: z, lambda a: np.ones_like(a)),
    "tanh": (np.tanh, lambda a: 1.0 - a * a),
    "sigmoid": (expit, lambda a: a * (1.0 - a)),
    "relu": (lambda z: np.maximum(z, 0.0), lambda a: (a > 0.0).astype(np.float64)),
}


def _activation(name, setting="activation"):
    try:
        return _ACT[name]
    except KeyError:
        raise ValueError(f"unknown {setting} {name!r}; choose from {sorted(_ACT)}")


@dataclass
class AutoencoderParams:
    """The layer stack of a K-layer encoder and its mirrored decoder.

    ``weights[k]`` (fan-in x fan-out) and ``biases[k]`` belong to layer k of
    2K: layers 0..K-1 encode and layers K..2K-1 decode, so the widths read
    input, hidden..., code, hidden reversed..., input. ``activation`` is
    applied on every layer except the last, which uses ``output_activation``
    (sigmoid by default, matching 0/1-valued input features).
    """
    weights: list
    biases: list
    activation: str = "tanh"
    output_activation: str = "sigmoid"

    @property
    def input_dim(self):
        return self.weights[0].shape[0]

    @property
    def code_dim(self):
        return self.weights[len(self.weights) // 2 - 1].shape[1]

    def weight_sq_norm(self):
        return float(sum(np.sum(W * W) for W in self.weights))

    def all_arrays(self):
        return self.weights + self.biases

    def replace_arrays(self, arrays):
        return replace(self, weights=arrays[:len(self.weights)],
                       biases=arrays[len(self.weights):])


def _layer_widths(input_dim, hidden_dims):
    """Input and output widths of the stack: input, hidden, then hidden mirrored to the input."""
    widths = [int(input_dim)] + [int(w) for w in hidden_dims]
    return widths + widths[-2::-1]


def init_autoencoder(input_dim, hidden_dims=(200,), activation="tanh",
                     output_activation="sigmoid", rng=None):
    """Glorot-uniform weights, zero biases; decoder mirrors the encoder widths."""
    rng = rng if rng is not None else np.random.default_rng(0)
    _activation(activation), _activation(output_activation, "output_activation")
    widths = _layer_widths(input_dim, hidden_dims)
    if any(w < 1 for w in widths):
        raise ValueError(f"layer widths must be positive, got {widths}")

    def glorot(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    return AutoencoderParams([glorot(a, b) for a, b in zip(widths, widths[1:])],
                             [np.zeros(b) for b in widths[1:]], activation, output_activation)


def _layer_activation(params, k):
    """(activation, derivative from the output) of layer ``k``."""
    if k == len(params.weights) - 1:
        return _activation(params.output_activation, "output_activation")
    return _activation(params.activation)


def _forward(params, X, layers):
    """Outputs of the ``layers`` (a range of layer indices) applied in turn, input first."""
    outputs = [X]
    for k in layers:
        act = _layer_activation(params, k)[0]
        outputs.append(act(outputs[-1] @ params.weights[k] + params.biases[k]))
    return outputs


def encode(params, X, mask=None):
    """Deep representation of X; rows where ``mask`` is False come out as zero."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise ValueError(f"features have shape {X.shape}, expected (*, {params.input_dim})")
    encoder = range(len(params.weights) // 2)
    if mask is None:
        return _forward(params, X, encoder)[-1]
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (X.shape[0],):
        raise ValueError(f"mask length {mask.shape} does not match {X.shape[0]} rows")
    H = np.zeros((X.shape[0], params.code_dim))
    if mask.any():
        H[mask] = _forward(params, X[mask], encoder)[-1]
    return H


def decode(params, H):
    """Reconstruct features from deep representations (no masking here)."""
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[1] != params.code_dim:
        raise ValueError(f"representations have shape {H.shape}, expected (*, {params.code_dim})")
    return _forward(params, H, range(len(params.weights) // 2, len(params.weights)))[-1]


def _view_rows(X, mask, Y, B, alpha):
    """Present feature rows and their subspace target rows (None when ``alpha`` is 0)."""
    X = np.asarray(X, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    target = None
    if alpha != 0.0:
        if Y is None or B is None:
            raise ValueError("alpha != 0 requires the embedding Y and basis B")
        target = (Y @ B)[mask]
    return X[mask], target


def _view_forward(params, Xp, target, alpha, lam):
    """Forward pass over the present rows ``Xp`` and the per-view loss.

    Returns the loss and the outputs of every layer (input first, code at
    index K = ``len(params.weights) // 2``).
    """
    outputs = _forward(params, Xp, range(len(params.weights)))
    loss = float(np.sum((outputs[0] - outputs[-1]) ** 2))
    if target is not None:
        loss += alpha * float(np.sum((outputs[len(params.weights) // 2] - target) ** 2))
    loss += lam * params.weight_sq_norm()
    return loss, outputs


def _view_backward(params, outputs, target, alpha, lam):
    """Gradients of ``_view_forward``'s loss from its layer outputs, in ``all_arrays`` order."""
    weights = params.weights
    code = len(weights) // 2
    grad_w, grad_b = [None] * len(weights), [None] * len(weights)
    d_out = 2.0 * (outputs[-1] - outputs[0])
    for k in range(len(weights) - 1, -1, -1):
        if k == code - 1 and target is not None:
            d_out = d_out + 2.0 * alpha * (outputs[code] - target)
        dZ = d_out * _layer_activation(params, k)[1](outputs[k + 1])
        grad_w[k] = outputs[k].T @ dZ + 2.0 * lam * weights[k]
        grad_b[k] = dZ.sum(axis=0)
        if k:  # no gradient is needed with respect to the input features
            d_out = dZ @ weights[k].T
    return grad_w + grad_b


def view_loss(params, X, mask, Y=None, B=None, alpha=0.0, lam=0.0):
    """Per-view training objective; a forward pass only (see ``view_loss_and_grads``)."""
    Xp, target = _view_rows(X, mask, Y, B, alpha)
    return _view_forward(params, Xp, target, alpha, lam)[0]


def view_loss_and_grads(params, X, mask, Y=None, B=None, alpha=0.0, lam=0.0):
    """Loss and exact gradients of the per-view training objective.

    The objective is the masked reconstruction error, plus ``alpha`` times
    the squared distance between the deep representation and the embedding
    subspace Y B on present rows, plus ``lam`` times the squared norm of
    all weight matrices. Gradients come back in ``all_arrays`` order.
    """
    Xp, target = _view_rows(X, mask, Y, B, alpha)
    loss, outputs = _view_forward(params, Xp, target, alpha, lam)
    return loss, _view_backward(params, outputs, target, alpha, lam)


def train_view_autoencoder(params, X, mask, Y, B, alpha, lam, steps=5, lr=0.1, first_step=None):
    """Backpropagation steps on one view's autoencoder; never increases the loss.

    The present rows and the subspace target are taken once, and each
    gradient runs only the backward pass of the loss evaluation that
    accepted its point. ``first_step`` is ``armijo_minimize``'s speed hint
    for the first step, typically the step this function returned for the
    same view before. Returns the trained parameters and the line search's
    last step.
    """
    templates = params.all_arrays()
    Xp, target = _view_rows(X, mask, Y, B, alpha)

    @latest_point
    def forward(vec):
        cur = params.replace_arrays(unflatten(vec, templates))
        return cur, _view_forward(cur, Xp, target, alpha, lam)

    def fun(vec):
        return forward(vec)[1][0]

    def grad(vec):
        cur, (_, outputs) = forward(vec)
        return flatten(_view_backward(cur, outputs, target, alpha, lam))

    vec, _, step = armijo_minimize(fun, grad, flatten(templates), steps=steps, step0=lr,
                                   first_step=first_step)
    return params.replace_arrays(unflatten(vec, templates)), step
