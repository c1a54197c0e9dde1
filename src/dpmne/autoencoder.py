"""Per-view autoencoder: forward pass, coupled loss and training.

One autoencoder per view maps raw features to a deep representation and back.
Missing nodes never enter the computation: their representation rows are
forced to zero and their (zero-stored) feature rows are excluded from every
loss term. Training adds a regression pull toward the shared embedding's
per-view subspace, so the deep representations stay consistent across views.

A pass runs in the precision of the rows it is handed. Training and
``encode`` take the present rows as float32 (``_present_rows``), so their
layer products, activations, codes and backpropagated errors are float32,
while the parameters stay float64 (mixed precision, Micikevicius et al.,
"Mixed Precision Training", ICLR 2018). Every loss, the reconstruction
error and the flattened gradient are float64: the squared errors are summed
in float64 and the ridge term is added to the float32 layer gradient in
float64. ``view_loss_and_grads`` takes the rows as float64 and is the
float64 reference.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .optim import armijo_minimize


def flatten(arrays):
    """Concatenate a list of arrays into one flat float64 vector."""
    if not arrays:
        return np.zeros(0)
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])


def unflatten(vec, templates):
    """Split a flat vector back into arrays shaped like ``templates``."""
    out, offset = [], 0
    for tpl in templates:
        out.append(vec[offset:offset + tpl.size].reshape(tpl.shape))
        offset += tpl.size
    if offset != vec.size:
        raise ValueError(f"flat vector has {vec.size} entries, templates need {offset}")
    return out

_ACT = {
    "identity": (lambda z: z, lambda a: np.ones_like(a)),
    "tanh": (np.tanh, lambda a: 1.0 - a * a),
    "sigmoid": (expit, lambda a: a * (1.0 - a)),
    "relu": (lambda z: np.maximum(z, 0.0), lambda a: (a > 0.0).astype(a.dtype)),
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
    applied on every layer except the last, which uses ``output_activation``.
    """
    weights: list
    biases: list
    activation: str
    output_activation: str

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


def init_autoencoder(input_dim, hidden_dims, activation, output_activation, rng):
    """Glorot-uniform weights from ``rng``, zero biases; decoder mirrors the encoder widths."""
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
    """Outputs of the ``layers`` (a range of layer indices) applied in turn, input first.

    They are in the dtype of ``X``: each layer's parameters are cast to it.
    """
    outputs = [X]
    for k in layers:
        act = _layer_activation(params, k)[0]
        W, b = (a.astype(X.dtype, copy=False) for a in (params.weights[k], params.biases[k]))
        outputs.append(act(outputs[-1] @ W + b))
    return outputs


def encode(params, X, mask):
    """Deep representation of X, in float32 as training computes it; masked rows are zero."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise ValueError(f"features have shape {X.shape}, expected (*, {params.input_dim})")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (X.shape[0],):
        raise ValueError(f"mask length {mask.shape} does not match {X.shape[0]} rows")
    H = np.zeros((X.shape[0], params.code_dim), dtype=np.float32)
    if mask.any():
        H[mask] = _forward(params, _present_rows(X, mask), range(len(params.weights) // 2))[-1]
    return H


def decode(params, H):
    """Reconstruct features from deep representations (no masking here).

    Float32 representations, such as ``encode`` gives, are decoded in float32
    and any others in float64.
    """
    H = np.asarray(H)
    H = H if H.dtype == np.float32 else H.astype(np.float64)
    if H.ndim != 2 or H.shape[1] != params.code_dim:
        raise ValueError(f"representations have shape {H.shape}, expected (*, {params.code_dim})")
    return _forward(params, H, range(len(params.weights) // 2, len(params.weights)))[-1]


def _present_rows(X, mask):
    """The feature rows of the present nodes, as a float32 copy: the rows training reads."""
    return np.asarray(X)[np.asarray(mask, dtype=bool)].astype(np.float32)


def _view_target(mask, Y, B, alpha):
    """The subspace target rows (Y B) of the present nodes; None when ``alpha`` is 0."""
    if alpha == 0.0:
        return None
    return (Y @ B)[np.asarray(mask, dtype=bool)]


@dataclass(eq=False)
class ViewPass:
    """One forward pass of a view's autoencoder over the present feature rows.

    ``outputs`` holds every layer's output, the rows themselves first and
    the code at index K = ``len(params.weights) // 2``, all in the rows'
    dtype; ``recon`` is the squared reconstruction error summed over the
    rows in float64. Neither depends on Y or B, so one pass prices its
    point for any target.
    """
    params: AutoencoderParams
    outputs: list
    recon: float

    @property
    def rows(self):
        return self.outputs[0]

    @property
    def code(self):
        return self.outputs[len(self.params.weights) // 2]


def _view_forward(params, rows):
    """The forward pass of ``params`` over the present feature ``rows``, in their precision."""
    outputs = _forward(params, rows, range(len(params.weights)))
    diff = np.subtract(outputs[0], outputs[-1], dtype=np.float64)
    return ViewPass(params, outputs, float(np.sum(diff ** 2)))


def _view_loss(vpass, target, alpha, lam):
    """The per-view loss at a pass: reconstruction error, pull toward ``target`` and ridge."""
    loss = vpass.recon
    if target is not None:
        loss += alpha * float(np.sum((vpass.code - target) ** 2))
    loss += lam * vpass.params.weight_sq_norm()
    return loss


def _view_backward(vpass, target, alpha, lam):
    """Gradients of ``_view_loss`` at a pass, in ``all_arrays`` order.

    The errors propagate in the pass's dtype; the weight gradients come back
    in float64, with the ridge term added in float64.
    """
    weights, outputs = vpass.params.weights, vpass.outputs
    code = len(weights) // 2
    grad_w, grad_b = [None] * len(weights), [None] * len(weights)
    d_out = 2.0 * (outputs[-1] - outputs[0])
    for k in range(len(weights) - 1, -1, -1):
        if k == code - 1 and target is not None:
            d_out = d_out + (2.0 * alpha * (outputs[code] - target)).astype(d_out.dtype,
                                                                           copy=False)
        dZ = d_out * _layer_activation(vpass.params, k)[1](outputs[k + 1])
        grad_w[k] = outputs[k].T @ dZ + 2.0 * lam * weights[k]
        grad_b[k] = dZ.sum(axis=0)
        if k:  # no gradient is needed with respect to the input features
            d_out = dZ @ weights[k].T.astype(dZ.dtype, copy=False)
    return grad_w + grad_b


def view_loss_and_grads(params, X, mask, Y, B, alpha, lam):
    """Loss and exact gradients of the per-view training objective, in float64.

    The objective is the masked reconstruction error, plus ``alpha`` times
    the squared distance between the deep representation and the embedding
    subspace Y B on present rows, plus ``lam`` times the squared norm of
    all weight matrices. Y and B are not read when ``alpha`` is 0.
    Gradients come back in ``all_arrays`` order. The present rows are taken
    as float64, so this is the float64 reference for training's float32
    passes and for finite differences.
    """
    mask = np.asarray(mask, dtype=bool)
    target = _view_target(mask, Y, B, alpha)
    vpass = _view_forward(params, np.asarray(X, dtype=np.float64)[mask])
    return _view_loss(vpass, target, alpha, lam), _view_backward(vpass, target, alpha, lam)


def train_view_autoencoder(start, target, alpha, lam, steps):
    """``steps`` L-BFGS steps on a view's autoencoder from its pass ``start``; returns the new pass.

    ``start`` is a forward pass over the view's present rows, such as the
    previous call returned, and ``target`` those rows' subspace target
    (``_view_target``). The search takes the parameters and rows from the
    pass and only reprices it under ``target``; the pass is handed on to the
    search, and no frame of this call keeps it alive while the search runs.
    ``optim.armijo_minimize`` turns the backpropagated gradients into L-BFGS
    directions with a history of this call's steps only, and the loss never
    increases. Each point runs one forward pass (a stationary end point
    two), and its gradient only the backward pass. The returned pass is the
    search's, that of the trained parameters ``vpass.params``: its code and
    reconstruction error are the view's representations and its share of
    the objective. Every pass runs in the precision of ``start``'s rows. A
    trial whose pass overflows is priced inf or nan, with no warning, and
    the search shortens its step; the backward pass keeps the caller's
    floating-point error handling, under which ``update_H`` raises.
    """
    params, rows = start.params, start.rows
    templates = params.all_arrays()
    start = [(_view_loss(start, target, alpha, lam), start)]  # the search alone keeps it

    def forward(vec):
        with np.errstate(over="ignore", invalid="ignore"):
            vpass = _view_forward(params.replace_arrays(unflatten(vec, templates)), rows)
            return _view_loss(vpass, target, alpha, lam), vpass

    def backward(vpass):
        return flatten(_view_backward(vpass, target, alpha, lam))

    return armijo_minimize(forward, backward, flatten(templates), steps=steps,
                           start=start.pop())[2]
