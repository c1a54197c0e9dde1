"""Full-batch gradient descent with Armijo backtracking, shared by all blocks."""

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


def latest_point(forward):
    """Memoize ``forward`` on the identity of its one argument, keeping only the last call.

    ``fun`` and ``grad`` closures for ``armijo_minimize`` share a wrapped
    forward pass, so the gradient at the accepted point reuses the work its
    loss evaluation did. A call with any other array recomputes.
    """
    last_x, last_out = None, None

    def cached(x):
        nonlocal last_x, last_out
        if x is not last_x:
            last_x = last_out = None  # free the old point's work before computing the new one
            last_out = forward(x)
            last_x = x
        return last_out
    return cached


def armijo_minimize(fun, grad, x0, steps, step0=1.0, c=1e-4, max_halvings=60, gtol=0.0):
    """Run ``steps`` descent steps on ``fun`` with backtracking line search.

    Each step tries the carried-over step size (doubled after an accepted
    step) and halves it until the Armijo sufficient-decrease test passes.
    The returned objective value never exceeds ``fun(x0)``: a step is only
    taken when it decreases the objective, and a step whose achievable
    decrease is below machine precision terminates the loop instead of
    failing.

    ``grad(x)`` is only called with the array object most recently passed
    to ``fun`` (x0 converted to float64, or the accepted trial), so ``fun``
    and ``grad`` may share that point's forward pass (see ``latest_point``).

    Returns (x, f, last_step).
    """
    x = np.asarray(x0, dtype=np.float64)
    f = float(fun(x))
    if not np.isfinite(f):
        raise FloatingPointError("objective is not finite at the starting point")
    t = float(step0)
    for _ in range(int(steps)):
        g = np.asarray(grad(x), dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("gradient has non-finite entries")
        gg = float(g @ g)
        if gg == 0.0 or np.max(np.abs(g)) <= gtol:
            break
        trial = t
        accepted = False
        best_seen = np.inf
        for _ in range(int(max_halvings)):
            x_new = x - trial * g
            f_new = float(fun(x_new))
            if np.isfinite(f_new) and f_new <= f - c * trial * gg:
                x, f = x_new, f_new
                accepted = True
                break
            if np.isfinite(f_new):
                best_seen = min(best_seen, f_new)
            trial *= 0.5
        if not accepted:
            if best_seen <= f + 1e-12:
                # no decrease representable in float64: stationary point
                break
            raise RuntimeError(
                "line search failed: no decrease after "
                f"{max_halvings} halvings (objective {f:.6e})")
        t = 2.0 * trial
    return x, f, t
