"""Binary node codes: plain sign binarization and rotation-optimized codes.

Rotating the embedding by any orthogonal matrix leaves the training objective
unchanged, so the rotation is a free parameter that can be spent on shrinking
the gap between the embedding and its binary code. The alternation below
fixes the codes given the rotation (entrywise sign) and the rotation given
the codes (an orthogonal Procrustes solve), each step an exact minimizer.
Because the objective does not see the rotation, neither does the start of
the alternation: it is the identity, or one orthogonal matrix the caller gives.
"""

from dataclasses import dataclass, field

import numpy as np

from .graph_model import _check_setting


@dataclass
class BinaryCodes:
    codes: np.ndarray        # (n, d) entries exactly -1 or +1
    rotation: np.ndarray     # (d, d) orthogonal
    quant_loss: float        # squared distance between codes and rotated embedding
    loss_trace: list = field(default_factory=list)


def _sign_pm1(M):
    # ties at zero resolve to +1, everywhere
    return np.where(M >= 0.0, 1.0, -1.0)


def _quant_loss(C, Y, Q):
    diff = C - Y @ Q
    return float(np.sum(diff * diff))


def procrustes_rotation(Y, C):
    """Orthogonal Q minimizing the distance between C and Y Q."""
    U, _, Vt = np.linalg.svd(Y.T @ C)
    return U @ Vt


def binarize_sign(Y):
    """Entrywise sign codes with the identity rotation."""
    Y = np.asarray(Y, dtype=np.float64)
    if not np.all(np.isfinite(Y)):
        raise ValueError("embedding has non-finite entries")
    C = _sign_pm1(Y)
    loss = _quant_loss(C, Y, np.eye(Y.shape[1]))
    return BinaryCodes(C, np.eye(Y.shape[1]), loss, [loss])


_ITQ_TOL = 1e-10  # loss improvement below which the alternation stops


def _check_iterations(iterations):
    """``iterations`` if it is a round count ``itq`` accepts, else one ValueError naming it."""
    return _check_setting("iterations", iterations, 1, integer=True)


def itq(Y, iterations=50, initial_rotation=None):
    """Alternating code/rotation optimization of the quantization error.

    Starts from ``initial_rotation``, the identity when it is not given, and
    stops after ``iterations`` rounds or once the loss improves by less than
    ``_ITQ_TOL``. Each half-step is an exact minimizer, so the loss trace is
    non-increasing; a round that fails to improve due to rounding noise is
    discarded. The returned codes are the exact signs of the rotated embedding.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if not np.all(np.isfinite(Y)):
        raise ValueError("embedding has non-finite entries")
    iterations = _check_iterations(iterations)
    d = Y.shape[1]
    Q = np.eye(d) if initial_rotation is None else np.asarray(initial_rotation, dtype=np.float64)
    if Q.shape != (d, d) or np.linalg.norm(Q.T @ Q - np.eye(d)) > 1e-8:
        raise ValueError("initial_rotation must be a d x d orthogonal matrix")
    C = _sign_pm1(Y @ Q)
    loss = _quant_loss(C, Y, Q)
    trace = [loss]
    for _ in range(iterations):
        Q_next = procrustes_rotation(Y, C)
        C_next = _sign_pm1(Y @ Q_next)
        new_loss = _quant_loss(C_next, Y, Q_next)
        if new_loss > loss:
            # analytically impossible, so this is rounding noise at a fixed point
            break
        C, Q = C_next, Q_next
        trace.append(new_loss)
        converged = loss - new_loss < _ITQ_TOL
        loss = new_loss
        if converged:
            break
    return BinaryCodes(C, Q, loss, trace)


def pack_codes(C):
    """Pack one code row per output row: bit j of row i is (C_ij + 1) / 2.

    Bits fill each byte least-significant first and rows are zero-padded to
    a whole number of bytes.
    """
    C = np.asarray(C)
    if not np.isin(C, (-1.0, 1.0)).all():
        raise ValueError("codes must contain only -1 and +1")
    bits = ((C + 1) // 2).astype(np.uint8)
    return np.packbits(bits, axis=1, bitorder="little")


def unpack_codes(packed, dim):
    """Inverse of pack_codes for a known code length ``dim`` >= 0 and one packed row per code."""
    dim = _check_setting("dim", dim, 0, integer=True)
    packed = np.asarray(packed, dtype=np.uint8)
    if packed.ndim != 2:
        raise ValueError(f"packed codes must be 2-D, one row per code, got shape {packed.shape}")
    if dim > 8 * packed.shape[1]:
        raise ValueError(
            f"code length {dim} exceeds the {8 * packed.shape[1]} packed bits per row")
    bits = np.unpackbits(packed, axis=1, count=dim, bitorder="little")
    return bits.astype(np.float64) * 2.0 - 1.0
