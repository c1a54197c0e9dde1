"""Full-batch gradient descent with an Armijo line search, for the autoencoders.

Each trial point runs one forward pass, and each gradient reads the accepted trial's pass.
"""

import numpy as np


def flatten(arrays):
    """Concatenate a list of arrays into one flat float64 vector."""
    if not arrays:
        return np.zeros(0)
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])


def unflatten(vec, templates):
    """Split a flat vector back into arrays shaped like ``templates``."""
    out = []
    offset = 0
    for tpl in templates:
        size = tpl.size
        out.append(vec[offset:offset + size].reshape(tpl.shape))
        offset += size
    if offset != vec.size:
        raise ValueError(f"flat vector has {vec.size} entries, templates need {offset}")
    return out


ARMIJO_C = 1e-4  # sufficient-decrease constant of the Armijo test
MAX_HALVINGS = 60  # trials a search makes before it gives up


def armijo_minimize(forward, backward, x0, steps):
    """Run ``steps`` descent steps with an Armijo line search; returns (x, f).

    ``forward(x)`` returns (value, pass) and ``backward(pass)`` the gradient
    at that pass's point. Each trial point is evaluated once; the gradient
    of the next step reads the accepted trial's pass. A pass is dropped once
    its gradient is taken or its trial fails.

    The first trial is the unit-length step t = 1/||g0|| along the first
    gradient; each later step starts at twice the step accepted before it.
    A search halves its step until the Armijo sufficient-decrease test
    passes, for at most ``MAX_HALVINGS`` trials. Scaling the objective by a
    power of two scales every step inversely, so the points visited stay
    the same. The returned value never exceeds the value at ``x0``: a step
    is only taken when it decreases the objective, and a step whose
    achievable decrease is below machine precision terminates the loop
    instead of failing.
    """
    x = np.asarray(x0, dtype=np.float64)
    f, work = forward(x)
    f = float(f)
    if not np.isfinite(f):
        raise FloatingPointError("objective is not finite at the starting point")
    t = None
    for _ in range(int(steps)):
        g = np.asarray(backward(work), dtype=np.float64)
        work = None  # the pass is spent: free it before the trials run
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("gradient has non-finite entries")
        gg = float(g @ g)
        if gg == 0.0:
            break
        t = 1.0 / np.sqrt(gg) if t is None else 2.0 * t
        least = np.inf
        for _ in range(MAX_HALVINGS):
            x_new = x - t * g
            f_new, work = forward(x_new)
            f_new = float(f_new)
            if np.isfinite(f_new) and f_new <= f - ARMIJO_C * t * gg:
                break
            work = None
            if np.isfinite(f_new):
                least = min(least, f_new)
            t *= 0.5
        else:
            if least <= f + 1e-12 * max(1.0, abs(f)):
                break  # no decrease beyond rounding error: stationary point
            raise RuntimeError(
                "line search failed: no decrease after "
                f"{MAX_HALVINGS} halvings (objective {f:.6e})")
        x, f = x_new, f_new
    return x, f
