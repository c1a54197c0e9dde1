"""Full-batch gradient descent with an Armijo line search, for the autoencoders."""

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


ARMIJO_C = 1e-4  # sufficient-decrease constant of the Armijo test
MAX_HALVINGS = 60  # grid steps a search tries before it gives up


def _trial(fun, x, f, g, gg, step):
    """The point ``step`` along -g, its value, and whether it passes the Armijo test."""
    x_new = x - step * g
    f_new = float(fun(x_new))
    return x_new, f_new, bool(np.isfinite(f_new) and f_new <= f - ARMIJO_C * step * gg)


def _search(fun, x, f, g, gg, start, top, floor):
    """Armijo step from ``start`` on the grid top * 2**-k: double while passing, else halve.

    Returns (x, f, step) for the largest passing step below a failing one (or
    ``top``). When no step from ``start`` down to ``floor`` passes, returns
    (None, least finite value tried, None).
    """
    step = start
    x_new, f_new, passed = _trial(fun, x, f, g, gg, step)
    if passed:
        best = x_new, f_new, step
        while step < top:
            step *= 2.0
            x_new, f_new, passed = _trial(fun, x, f, g, gg, step)
            if not passed:
                fun(best[0])  # the gradient is taken at the point ``fun`` saw last
                break
            best = x_new, f_new, step
        return best
    least = np.inf
    while not passed:
        if np.isfinite(f_new):
            least = min(least, f_new)
        if step <= floor:
            return None, least, None
        step *= 0.5
        x_new, f_new, passed = _trial(fun, x, f, g, gg, step)
    return x_new, f_new, step


def armijo_minimize(fun, grad, x0, steps, step0=1.0, gtol=0.0, first_step=None):
    """Run ``steps`` descent steps on ``fun`` with an Armijo line search.

    Each step searches the grid t * 2**-k below the carried-over step size t
    (``step0`` at first, then twice the last accepted step), halving from t
    until the Armijo sufficient-decrease test passes, for at most
    ``MAX_HALVINGS`` trials. The returned objective value never exceeds
    ``fun(x0)``: a step is only taken when it decreases the objective, and a
    step whose achievable decrease is below machine precision terminates the
    loop instead of failing.

    ``first_step`` is a speed hint for the first step only, such as the step
    a search on a nearby problem returned. The first step starts at the hint
    rounded down onto the grid (capped at ``step0``), doubles while the test
    passes (never above ``step0``) and halves while it fails. That accepts
    the same step as halving from ``step0`` whenever no larger grid step
    passes above a failing one, which holds when the test passes for every
    step below some threshold and fails above it. When no step at or below
    the hint passes, the search halves from ``step0`` down to the grid step
    above the hint, so every grid step is tried once and the stationary exit
    and the error are those of the search without a hint.

    ``grad(x)`` is only called with the array object most recently passed
    to ``fun`` (x0 converted to float64, or the accepted trial), so ``fun``
    and ``grad`` may share that point's forward pass (see ``latest_point``).

    Returns (x, f, last_step).
    """
    x = np.asarray(x0, dtype=np.float64)
    f = float(fun(x))
    if not np.isfinite(f):
        raise FloatingPointError("objective is not finite at the starting point")
    t = start = float(step0)
    floor = t * 0.5 ** (MAX_HALVINGS - 1)  # the smallest step a search from t tries
    while first_step is not None and start > first_step and start > floor:
        start *= 0.5
    for _ in range(int(steps)):
        g = np.asarray(grad(x), dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("gradient has non-finite entries")
        gg = float(g @ g)
        if gg == 0.0 or np.max(np.abs(g)) <= gtol:
            break
        x_new, f_new, trial = _search(fun, x, f, g, gg, start, t, floor)
        if x_new is None and start < t:  # nothing at or below the hint passes: try above it
            least = f_new
            x_new, f_new, trial = _search(fun, x, f, g, gg, t, t, 2.0 * start)
            if x_new is None:
                f_new = min(least, f_new)
        if x_new is None:
            if f_new <= f + 1e-12 * max(1.0, abs(f)):
                break  # no decrease beyond rounding error: stationary point
            raise RuntimeError(
                "line search failed: no decrease after "
                f"{MAX_HALVINGS} halvings (objective {f:.6e})")
        x, f = x_new, f_new
        t = start = 2.0 * trial
        floor = t * 0.5 ** (MAX_HALVINGS - 1)
    return x, f, t
