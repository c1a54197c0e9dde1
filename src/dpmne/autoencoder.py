"""Per-view autoencoder: forward pass, reconstruction loss, coupled training.

One autoencoder per view maps raw features to a deep representation and back.
Missing nodes never enter the computation: their representation rows are
forced to zero and their (zero-stored) feature rows are excluded from every
loss term. Training adds a regression pull toward the shared embedding's
per-view subspace, so the deep representations stay consistent across views.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .optim import armijo_minimize, flatten, unflatten

_ACT = {
    "identity": (lambda z: z, lambda a: np.ones_like(a)),
    "tanh": (np.tanh, lambda a: 1.0 - a * a),
    "sigmoid": (expit, lambda a: a * (1.0 - a)),
    "relu": (lambda z: np.maximum(z, 0.0), lambda a: (a > 0.0).astype(np.float64)),
}


def _activation(name):
    try:
        return _ACT[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; choose from {sorted(_ACT)}")


@dataclass
class AutoencoderParams:
    """Weight and bias stacks for a K-layer encoder and its mirrored decoder.

    ``activation`` is applied on every layer except the last decoder layer,
    which uses ``output_activation`` (sigmoid by default, matching 0/1-valued
    input features).
    """
    enc_weights: list
    enc_biases: list
    dec_weights: list
    dec_biases: list
    activation: str = "tanh"
    output_activation: str = "sigmoid"

    @property
    def input_dim(self):
        return self.enc_weights[0].shape[0]

    @property
    def code_dim(self):
        return self.enc_weights[-1].shape[1]

    def weight_sq_norm(self):
        return float(sum(np.sum(W * W) for W in self.enc_weights + self.dec_weights))

    def all_arrays(self):
        return self.enc_weights + self.enc_biases + self.dec_weights + self.dec_biases

    def replace_arrays(self, arrays):
        ne, nd = len(self.enc_weights), len(self.dec_weights)
        return replace(self, enc_weights=arrays[:ne], enc_biases=arrays[ne:2 * ne],
                       dec_weights=arrays[2 * ne:2 * ne + nd], dec_biases=arrays[2 * ne + nd:])


def init_autoencoder(input_dim, hidden_dims=(200,), activation="tanh",
                     output_activation="sigmoid", rng=None):
    """Glorot-uniform weights, zero biases; decoder mirrors the encoder widths."""
    rng = rng if rng is not None else np.random.default_rng(0)
    _activation(activation), _activation(output_activation)
    widths = [int(input_dim)] + [int(w) for w in hidden_dims]
    if any(w < 1 for w in widths):
        raise ValueError(f"layer widths must be positive, got {widths}")

    def glorot(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    enc_w = [glorot(widths[k], widths[k + 1]) for k in range(len(widths) - 1)]
    enc_b = [np.zeros(widths[k + 1]) for k in range(len(widths) - 1)]
    rev = widths[::-1]
    dec_w = [glorot(rev[k], rev[k + 1]) for k in range(len(rev) - 1)]
    dec_b = [np.zeros(rev[k + 1]) for k in range(len(rev) - 1)]
    return AutoencoderParams(enc_w, enc_b, dec_w, dec_b, activation, output_activation)


def _layers(params, decoder):
    """(activation, derivative) pair of every layer in the encoder or decoder stack."""
    act = _activation(params.activation)
    if not decoder:
        return [act] * len(params.enc_weights)
    return [act] * (len(params.dec_weights) - 1) + [_activation(params.output_activation)]


def _forward(weights, biases, layers, X):
    """Returns the list of layer outputs, input first."""
    outputs = [X]
    for W, b, (act, _) in zip(weights, biases, layers):
        outputs.append(act(outputs[-1] @ W + b))
    return outputs


def encode(params, X, mask=None):
    """Deep representation of X; rows where ``mask`` is False come out as zero."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise ValueError(f"features have shape {X.shape}, expected (*, {params.input_dim})")
    layers = _layers(params, decoder=False)
    if mask is None:
        return _forward(params.enc_weights, params.enc_biases, layers, X)[-1]
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (X.shape[0],):
        raise ValueError(f"mask length {mask.shape} does not match {X.shape[0]} rows")
    H = np.zeros((X.shape[0], params.code_dim))
    if mask.any():
        H[mask] = _forward(params.enc_weights, params.enc_biases, layers, X[mask])[-1]
    return H


def decode(params, H):
    """Reconstruct features from deep representations (no masking here)."""
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[1] != params.code_dim:
        raise ValueError(f"representations have shape {H.shape}, expected (*, {params.code_dim})")
    return _forward(params.dec_weights, params.dec_biases, _layers(params, decoder=True), H)[-1]


def reconstruction_loss(X, X_hat, mask=None):
    """Squared Frobenius distance restricted to the present rows."""
    X = np.asarray(X, dtype=np.float64)
    X_hat = np.asarray(X_hat, dtype=np.float64)
    if X.shape != X_hat.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {X_hat.shape}")
    diff = X - X_hat if mask is None else X[mask] - X_hat[mask]
    return float(np.sum(diff * diff))


def _view_forward(params, X, mask, Y, B, alpha, lam):
    """Forward pass over the present rows and the per-view loss.

    Returns the loss, the outputs of every encoder and then decoder layer
    (input first, code at index ``len(params.enc_weights)``) and the
    subspace target rows (None when ``alpha`` is 0).
    """
    X = np.asarray(X, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    target = None
    if alpha != 0.0:
        if Y is None or B is None:
            raise ValueError("alpha != 0 requires the embedding Y and basis B")
        target = (Y @ B)[mask]
    outputs = _forward(params.enc_weights + params.dec_weights,
                       params.enc_biases + params.dec_biases,
                       _layers(params, False) + _layers(params, True), X[mask])
    loss = float(np.sum((outputs[0] - outputs[-1]) ** 2))
    if target is not None:
        loss += alpha * float(np.sum((outputs[len(params.enc_weights)] - target) ** 2))
    loss += lam * params.weight_sq_norm()
    return loss, outputs, target


def view_loss(params, X, mask, Y=None, B=None, alpha=0.0, lam=0.0):
    """Per-view training objective; a forward pass only (see ``view_loss_and_grads``)."""
    return _view_forward(params, X, mask, Y, B, alpha, lam)[0]


def view_loss_and_grads(params, X, mask, Y=None, B=None, alpha=0.0, lam=0.0):
    """Loss and exact gradients of the per-view training objective.

    The objective is the masked reconstruction error, plus ``alpha`` times
    the squared distance between the deep representation and the embedding
    subspace Y B on present rows, plus ``lam`` times the squared norm of
    all weight matrices. Gradients come back in ``all_arrays`` order.
    """
    loss, outputs, target = _view_forward(params, X, mask, Y, B, alpha, lam)
    ne = len(params.enc_weights)
    weights = params.enc_weights + params.dec_weights
    layers = _layers(params, False) + _layers(params, True)
    grad_w, grad_b = [None] * len(weights), [None] * len(weights)
    d_out = 2.0 * (outputs[-1] - outputs[0])
    for k in range(len(weights) - 1, -1, -1):
        if k == ne - 1 and target is not None:
            d_out = d_out + 2.0 * alpha * (outputs[ne] - target)
        dZ = d_out * layers[k][1](outputs[k + 1])
        grad_w[k] = outputs[k].T @ dZ + 2.0 * lam * weights[k]
        grad_b[k] = dZ.sum(axis=0)
        d_out = dZ @ weights[k].T
    return loss, grad_w[:ne] + grad_b[:ne] + grad_w[ne:] + grad_b[ne:]


def train_view_autoencoder(params, X, mask, Y, B, alpha, lam, steps=5, lr=0.1):
    """Backpropagation steps on one view's autoencoder; never increases the loss."""
    templates = params.all_arrays()

    def fun(vec):
        cur = params.replace_arrays(unflatten(vec, templates))
        return view_loss(cur, X, mask, Y, B, alpha, lam)

    def grad(vec):
        cur = params.replace_arrays(unflatten(vec, templates))
        _, grads = view_loss_and_grads(cur, X, mask, Y, B, alpha, lam)
        return flatten(grads)

    vec, _, _ = armijo_minimize(fun, grad, flatten(templates), steps=steps, step0=lr)
    return params.replace_arrays(unflatten(vec, templates))
