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
MAX_HALVINGS = 60  # grid steps a search tries before it gives up


def _trial(forward, x, f, g, gg, step):
    """((x, f, pass, step), f) at ``step`` along -g if it passes the Armijo test, else (None, f)."""
    x_new = x - step * g
    f_new, work = forward(x_new)
    f_new = float(f_new)
    if np.isfinite(f_new) and f_new <= f - ARMIJO_C * step * gg:
        return (x_new, f_new, work, step), f_new
    return None, f_new


def _search(forward, x, f, g, gg, start, top, floor):
    """Armijo step from ``start`` on the grid top * 2**-k: double while passing, else halve.

    Returns (trial, least): the trial (x, f, pass, step) of the largest passing
    step below a failing one (or ``top``), or None with the least finite value
    tried when no step from ``start`` down to ``floor`` passes.
    """
    step, least = start, np.inf
    best, f_new = _trial(forward, x, f, g, gg, step)
    while best is not None and step < top:  # only the best passing trial's pass stays alive
        step *= 2.0
        trial, _ = _trial(forward, x, f, g, gg, step)
        if trial is None:
            break
        best = trial
    while best is None:
        if np.isfinite(f_new):
            least = min(least, f_new)
        if step <= floor:
            break
        step *= 0.5
        best, f_new = _trial(forward, x, f, g, gg, step)
    return best, least


def armijo_minimize(forward, backward, x0, steps, step0=1.0, gtol=0.0, first_step=None):
    """Run ``steps`` descent steps with an Armijo line search.

    ``forward(x)`` returns (value, pass) and ``backward(pass)`` the gradient
    at that pass's point. Each trial point is evaluated once; the gradient
    of the next step reads the accepted trial's pass. A pass is dropped once
    its gradient is taken or its trial fails, and while the search doubles
    only the best passing trial's pass is kept.

    Each step searches the grid t * 2**-k below the carried-over step size t
    (``step0`` at first, then twice the last accepted step), halving from t
    until the Armijo sufficient-decrease test passes, for at most
    ``MAX_HALVINGS`` trials. The returned objective value never exceeds the
    value at ``x0``: a step is only taken when it decreases the objective,
    and a step whose achievable decrease is below machine precision
    terminates the loop instead of failing.

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

    Returns (x, f, last_step).
    """
    x = np.asarray(x0, dtype=np.float64)
    f, work = forward(x)
    f = float(f)
    if not np.isfinite(f):
        raise FloatingPointError("objective is not finite at the starting point")
    t = start = float(step0)
    floor = t * 0.5 ** (MAX_HALVINGS - 1)  # the smallest step a search from t tries
    while first_step is not None and start > first_step and start > floor:
        start *= 0.5
    for _ in range(int(steps)):
        g = np.asarray(backward(work), dtype=np.float64)
        work = accepted = None  # the pass is spent: free it before the trials run
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("gradient has non-finite entries")
        gg = float(g @ g)
        if gg == 0.0 or np.max(np.abs(g)) <= gtol:
            break
        accepted, least = _search(forward, x, f, g, gg, start, t, floor)
        if accepted is None and start < t:  # nothing at or below the hint passes: try above it
            accepted, above = _search(forward, x, f, g, gg, t, t, 2.0 * start)
            least = min(least, above)
        if accepted is None:
            if least <= f + 1e-12 * max(1.0, abs(f)):
                break  # no decrease beyond rounding error: stationary point
            raise RuntimeError(
                "line search failed: no decrease after "
                f"{MAX_HALVINGS} halvings (objective {f:.6e})")
        x, f, work, trial = accepted
        t = start = 2.0 * trial
        floor = t * 0.5 ** (MAX_HALVINGS - 1)
    return x, f, t
