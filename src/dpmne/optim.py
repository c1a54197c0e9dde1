"""Full-batch L-BFGS descent with an Armijo line search, for the autoencoders.

Each trial point runs one forward pass, and each gradient reads the accepted
trial's pass. The caller hands in the pass of the starting point and gets
back the pass of the point returned, so that a point is evaluated once even
across calls (the end point of a stationary search twice).

The point, the gradient, the L-BFGS pairs and the directions are float64,
and every value is compared as a float64 number, whatever precision the
caller's passes run in: the autoencoders' passes run in float32 and hand
back float64 losses and gradients.
"""

import numpy as np


ARMIJO_C = 1e-4  # sufficient-decrease constant of the Armijo test
MAX_TRIALS = 60  # trials a search makes before it gives up
CURVATURE_TOL = 1e-10  # a pair is kept when s'y > CURVATURE_TOL ||s|| ||y||


def _lbfgs_direction(g, pairs):
    """The L-BFGS estimate of the inverse Hessian times ``g``, by the two-loop recursion.

    ``pairs`` holds (s, y, s'y) per kept step, oldest first, and the initial
    estimate is (s'y / y'y) I from the newest pair. Without a pair the
    direction is the unit vector g / ||g||.
    """
    if not pairs:
        return g / np.sqrt(float(g @ g))
    q = g.copy()
    alphas = []
    for s, y, sy in reversed(pairs):
        a = float(s @ q) / sy
        q -= a * y
        alphas.append(a)
    _, y, sy = pairs[-1]
    q *= sy / float(y @ y)
    for (s, y, sy), a in zip(pairs, reversed(alphas)):
        q += (a - float(y @ q) / sy) * s
    return q


def _backtrack(t, f, gd, f_new):
    """The next trial step after the finite trial at ``t`` fails the Armijo test.

    It is the minimizer of the quadratic through f(x), slope -g'd at t = 0
    and f(x - t d), clamped to [t/10, t/2] (Nocedal & Wright, *Numerical
    Optimization*, section 3.5). The failed test keeps the quadratic's
    curvature positive; a rounded-away one gives t/2. Scaling f and g'd by
    a power of two leaves the step unchanged.
    """
    step = t * (gd * t) / (2.0 * (f_new - f + gd * t))
    if not step < t / 2.0:
        return t / 2.0
    return max(step, t / 10.0)


def armijo_minimize(forward, backward, x0, steps, start):
    """Run ``steps`` L-BFGS descent steps with an Armijo line search; returns (x, f, pass).

    ``forward(x)`` returns (value, pass) and ``backward(pass)`` the gradient
    at that pass's point. ``start`` is ``forward(x0)``'s (value, pass), so
    the search runs no forward pass at ``x0``. Each trial point is evaluated
    once; the gradient of the next step reads the accepted trial's pass. A
    pass is dropped once its nonzero gradient is taken or its trial fails,
    the handed-in one too, so the returned pass is that of the returned
    point: the last accepted trial's, or the start's when no step ran. The
    stationary exit below runs ``forward(x)`` for it.

    Each step moves along -d, where d = ``_lbfgs_direction(g, pairs)`` and
    ``pairs`` holds the (s, y) of this call's earlier steps: s the step taken
    and y the change of the gradient over it. A pair is kept only when
    s'y > ``CURVATURE_TOL`` ||s|| ||y||, so at most ``steps`` - 1 are held,
    and none outlives the call. With no pair kept, d = g/||g||, so the first
    trial is the unit-length step. Should rounding leave g'd <= 0, the step
    takes that unit-length direction too. Every search starts at t = 1. A
    finite trial that fails the Armijo test f(x - t d) <= f(x) - c t g'd is
    followed by the trial at ``_backtrack``'s step, a non-finite one by the
    trial at t/2, for at most ``MAX_TRIALS`` trials. Scaling the objective
    by a power of two scales g, y and the inverse-Hessian estimate exactly,
    so the points visited stay the same. The returned value never exceeds
    the value at ``x0``: a step is only taken when it decreases the
    objective, and a step whose achievable decrease is below machine
    precision terminates the loop instead of failing.
    """
    x = np.asarray(x0, dtype=np.float64)
    f, work = start
    start = None  # from here on the search alone holds the starting pass
    f = float(f)
    if not np.isfinite(f):
        raise FloatingPointError("objective is not finite at the starting point")
    pairs, s, g_prev = [], None, None
    for _ in range(int(steps)):
        g = np.asarray(backward(work), dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("gradient has non-finite entries")
        if s is not None:
            y = g - g_prev
            sy = float(s @ y)
            if sy > CURVATURE_TOL * np.sqrt(float(s @ s)) * np.sqrt(float(y @ y)):
                pairs.append((s, y, sy))
        if float(g @ g) == 0.0:
            break
        work = None  # the pass is spent: free it before the trials run
        d = _lbfgs_direction(g, pairs)
        gd = float(g @ d)
        if not gd > 0.0:
            d = _lbfgs_direction(g, [])
            gd = float(g @ d)
        t, least = 1.0, np.inf
        for _ in range(MAX_TRIALS):
            x_new = x - t * d
            f_new, work = forward(x_new)
            f_new = float(f_new)
            if np.isfinite(f_new) and f_new <= f - ARMIJO_C * t * gd:
                break
            work = None
            if np.isfinite(f_new):
                least = min(least, f_new)
                t = _backtrack(t, f, gd, f_new)
            else:
                t *= 0.5
        else:
            if least <= f + 1e-12 * max(1.0, abs(f)):
                work = forward(x)[1]  # no decrease beyond rounding error: stationary point
                break
            raise RuntimeError(
                "line search failed: no decrease after "
                f"{MAX_TRIALS} trials (objective {f:.6e})")
        s, g_prev = x_new - x, g
        x, f = x_new, f_new
    return x, f, work
