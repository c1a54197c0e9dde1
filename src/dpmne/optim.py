"""Full-batch gradient descent with Armijo backtracking, for the autoencoders and the classifier."""

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


def _trial(fun, x, f, g, gg, step, c):
    """The point ``step`` along -g, its value, and whether it passes the Armijo test."""
    x_new = x - step * g
    f_new = float(fun(x_new))
    return x_new, f_new, bool(np.isfinite(f_new) and f_new <= f - c * step * gg)


def _backtrack(fun, x, f, g, gg, step, c, max_halvings):
    """Halve ``step`` until the Armijo test passes: (x, f, step), or None when stationary."""
    best_seen = np.inf
    for _ in range(int(max_halvings)):
        x_new, f_new, passed = _trial(fun, x, f, g, gg, step, c)
        if passed:
            return x_new, f_new, step
        if np.isfinite(f_new):
            best_seen = min(best_seen, f_new)
        step *= 0.5
    if best_seen <= f + 1e-12:
        return None  # no decrease representable in float64: stationary point
    raise RuntimeError(
        "line search failed: no decrease after "
        f"{max_halvings} halvings (objective {f:.6e})")


def _bracket(fun, x, f, g, gg, start, top, floor, c):
    """Armijo step from ``start`` on the grid top * 2**-k: double while passing, else halve.

    Returns (x, f, step) for the largest passing step below a failing one
    (or ``top``), or None when no step from ``start`` down to ``floor`` passes.
    """
    step = start
    x_new, f_new, passed = _trial(fun, x, f, g, gg, step, c)
    if passed:
        best = x_new, f_new, step
        while step < top:
            step *= 2.0
            x_new, f_new, passed = _trial(fun, x, f, g, gg, step, c)
            if not passed:
                fun(best[0])  # the gradient is taken at the point ``fun`` saw last
                break
            best = x_new, f_new, step
        return best
    while step > floor:
        step *= 0.5
        x_new, f_new, passed = _trial(fun, x, f, g, gg, step, c)
        if passed:
            return x_new, f_new, step
    return None


def armijo_minimize(fun, grad, x0, steps, step0=1.0, c=1e-4, max_halvings=60, gtol=0.0,
                    first_step=None):
    """Run ``steps`` descent steps on ``fun`` with backtracking line search.

    Each step tries the carried-over step size (doubled after an accepted
    step) and halves it until the Armijo sufficient-decrease test passes.
    The returned objective value never exceeds ``fun(x0)``: a step is only
    taken when it decreases the objective, and a step whose achievable
    decrease is below machine precision terminates the loop instead of
    failing.

    ``first_step`` is a speed hint for the first step only, such as the step
    a search on a nearby problem returned. It is capped at ``step0`` and
    rounded down onto the grid step0 * 2**-k that halving from ``step0``
    tries; from there the first step doubles while the Armijo test passes
    (never above ``step0``) and halves while it fails. That accepts the same
    step as halving from ``step0`` whenever no larger grid step passes above
    a failing one, which holds when the test passes for every step below
    some threshold and fails above it. When no step at or below the hint
    passes, the first step halves from ``step0`` as without a hint, so the
    stationary exit and the error are unchanged.

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
    floor = t * 0.5 ** (int(max_halvings) - 1)  # the smallest step halving from step0 tries
    start = None if first_step is None else t
    while start is not None and start > first_step and start > floor:
        start *= 0.5
    for _ in range(int(steps)):
        g = np.asarray(grad(x), dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("gradient has non-finite entries")
        gg = float(g @ g)
        if gg == 0.0 or np.max(np.abs(g)) <= gtol:
            break
        found = None
        if start is not None and start < t:
            found = _bracket(fun, x, f, g, gg, start, t, floor, c)
        start = None
        if found is None:
            found = _backtrack(fun, x, f, g, gg, t, c, max_halvings)
            if found is None:
                break
        x, f, trial = found
        t = 2.0 * trial
    return x, f, t
