"""The L-BFGS line search of ``optim.armijo_minimize``.

Each trial point runs one forward pass, the next gradient reads the pass of
the accepted trial, and no earlier pass is alive when a forward pass runs; the
handed-in starting pass replaces the forward pass at x0, and the pass of the
returned point comes back. The first trial is a unit-length step and every
later search starts at t = 1 along the two-loop direction; a rejected trial
is followed by the clamped minimizer of the interpolating quadratic, so
scaling the loss by a power of two changes no point the search visits.
Tests pass a plain ``fun`` and ``grad`` through ``conftest.point_pass``,
whose pass is the point itself, and most run on four losses: a separable
quadratic, a logistic loss, a non-convex double well and the per-view
autoencoder loss.
"""

import weakref

import numpy as np
import pytest
from scipy.special import expit

from dpmne import optim
from dpmne.autoencoder import flatten, init_autoencoder, unflatten, view_loss_and_grads
from dpmne.optim import ARMIJO_C, CURVATURE_TOL, MAX_TRIALS, armijo_minimize

from conftest import point_pass
from oracles import (bfgs_inverse_hessian, doubling_armijo_descent, interpolated_step,
                     unit_step_armijo_trials)


def quadratic(seed, dim=6):
    """f(x) = ½ Σ sᵢ xᵢ²: along -g the Armijo test passes for all steps below a threshold."""
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.5, 400.0, dim)

    def fun(x):
        return 0.5 * float(np.sum(scales * x * x))

    def grad(x):
        return scales * x
    return fun, grad, rng.standard_normal(dim)


def logistic(seed, dim=6, rows=40):
    """L2-regularised logistic loss on random labels: convex, and no quadratic."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, dim)) * rng.uniform(0.5, 20.0, dim)
    y = rng.choice([-1.0, 1.0], rows)

    def fun(x):
        return float(np.sum(np.logaddexp(0.0, -y * (A @ x)))) + 0.5 * float(x @ x)

    def grad(x):
        return A.T @ (-y * expit(-y * (A @ x))) + x
    return fun, grad, rng.standard_normal(dim)


def double_well(seed, dim=6):
    """f(x) = Σ sᵢ (xᵢ² - 1)² + ½ ||M x||²: non-convex, with coupled coordinates."""
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.5, 50.0, dim)
    M = rng.standard_normal((dim, dim))

    def fun(x):
        return float(np.sum(scales * (x * x - 1.0) ** 2)) + 0.5 * float(np.sum((M @ x) ** 2))

    def grad(x):
        return 4.0 * scales * x * (x * x - 1.0) + M.T @ (M @ x)
    return fun, grad, rng.standard_normal(dim)


def autoencoder(seed, rows=12, features=5):
    """The per-view autoencoder loss over its flat parameters, some rows masked."""
    rng = np.random.default_rng(seed)
    params = init_autoencoder(features, (4, 3), "tanh", "sigmoid", rng)
    templates = params.all_arrays()
    X = rng.uniform(0.0, 1.0, (rows, features))
    mask = rng.uniform(size=rows) < 0.8
    Y, B = rng.standard_normal((rows, 2)), rng.standard_normal((2, 3))

    def unpack(x):
        return params.replace_arrays(unflatten(x, templates))

    def fun(x):
        return view_loss_and_grads(unpack(x), X, mask, Y, B, alpha=0.5, lam=0.01)[0]

    def grad(x):
        return flatten(view_loss_and_grads(unpack(x), X, mask, Y, B, alpha=0.5, lam=0.01)[1])
    return fun, grad, flatten(templates)


def concave():
    """f(x) = -½||x||² + ||x||⁴/400 from near the origin: concave where ||x|| < 5.7, so s'y < 0."""
    def fun(x):
        return -0.5 * float(x @ x) + float(x @ x) ** 2 / 400.0

    def grad(x):
        return x * (float(x @ x) / 100.0 - 1.0)
    return fun, grad, np.array([0.01, 0.005])


PROBLEMS = {"quadratic": quadratic, "logistic": logistic, "double_well": double_well,
            "autoencoder": autoencoder}
each_problem = pytest.mark.parametrize("problem", PROBLEMS)


def logged(fun, grad):
    """``forward`` and ``backward`` that append ("f", x) and ("g", pass) per call to a log."""
    log = []
    forward, backward = point_pass(fun, grad)

    def f(x):
        log.append(("f", x))
        return forward(x)

    def g(work):
        log.append(("g", work))
        return backward(work)
    return f, g, log


def backtracking_start(problem, seed):
    """A problem started eight times nearer the origin, where some search backtracks in 8 steps."""
    fun, grad, x0 = PROBLEMS[problem](seed)
    return fun, grad, x0 / 8.0


def searches(log):
    """Per step: the point whose gradient began it and the trial points that followed."""
    out = []
    for kind, x in log[1:]:
        if kind == "g":
            out.append((x, []))
        else:
            out[-1][1].append(x)
    return [(x, trials) for x, trials in out if trials]


class TestSearch:
    @each_problem
    @pytest.mark.parametrize("seed", range(4))
    def test_first_trials_are_unit_steps_along_the_bfgs_direction_then_interpolate(
            self, problem, seed):
        fun, grad, x0 = backtracking_start(problem, seed)
        f, g, log = logged(fun, grad)
        armijo_minimize(f, g, x0, steps=8, start=f(x0))
        tried = searches(log)
        assert len(tried) == 8 and any(len(trials) > 1 for _, trials in tried)
        ss, ys = [], []
        for k, (x, trials) in enumerate(tried):
            gx = grad(x)
            if k:
                s, y = x - tried[k - 1][0], gx - grad(tried[k - 1][0])
                if s @ y > CURVATURE_TOL * np.linalg.norm(s) * np.linalg.norm(y):
                    ss.append(s)
                    ys.append(y)
            # the unit-length step while no pair is kept, then the dense BFGS estimate
            d = bfgs_inverse_hessian(ss, ys) @ gx if ss else gx / np.linalg.norm(gx)
            t = 1.0
            for trial in trials:
                np.testing.assert_allclose(x - trial, t * d, rtol=1e-6,
                                           atol=1e-12 * np.max(np.abs(x)))
                t = interpolated_step(t, fun(x), float(gx @ d), fun(trial))

    @pytest.mark.parametrize("seed", range(12))
    def test_on_a_quadratic_the_second_trial_is_the_minimizer_along_the_ray(self, seed):
        fun, grad, x0 = quadratic(seed)
        scales = grad(np.ones_like(x0))
        landed = 0
        for x1 in (x0, x0 / 4.0, x0 / 16.0):
            f, g, log = logged(fun, grad)
            armijo_minimize(f, g, x1, steps=8, start=f(x1))
            for x, trials in searches(log):
                if len(trials) < 2:
                    continue
                d = x - trials[0]  # every search tries t = 1 first
                best = float(grad(x) @ d) / float(d @ (scales * d))
                if 0.1 <= best <= 0.5:
                    np.testing.assert_allclose(x - trials[1], best * d, rtol=1e-10)
                    landed += 1
        assert landed > 0

    @each_problem
    def test_each_gradient_reads_the_pass_of_the_accepted_trial(self, problem):
        fun, grad, x0 = PROBLEMS[problem](3)
        f, g, log = logged(fun, grad)
        x, value, work = armijo_minimize(f, g, x0, steps=5, start=f(x0))
        assert log[1] == ("g", log[0][1])
        for (kind, trial), (next_kind, read) in zip(log[1:], log[2:]):
            if next_kind == "g":
                assert kind == "f" and read is trial
        last_trial = [x for kind, x in log if kind == "f"][-1]
        assert x is last_trial and work is last_trial and value == fun(x)

    @each_problem
    @pytest.mark.parametrize("steps", [0, 5])
    def test_a_handed_start_replaces_the_first_forward_pass(self, problem, steps):
        fun, grad, x0 = PROBLEMS[problem](2)
        f, g, log = logged(fun, grad)  # its first entry is the start's forward pass
        x, value, work = armijo_minimize(f, g, x0, steps=steps, start=f(x0))
        f, g, handed_log = logged(fun, grad)
        start_pass = np.array(x0)  # the pass is the point: a twin of x0, not x0 itself
        handed = armijo_minimize(f, g, x0, steps=steps, start=(fun(x0), start_pass))
        assert handed_log == [] if steps == 0 else handed_log[0] == ("g", start_pass)
        assert [x.tobytes() for _, x in handed_log[1:]] == [x.tobytes() for _, x in log[2:]]
        assert handed[0].tobytes() == x.tobytes() and handed[1] == value
        assert handed[2] is (start_pass if steps == 0 else handed_log[-1][1])

    @each_problem
    @pytest.mark.parametrize("seed", range(6))
    def test_visits_the_points_of_the_stated_rule(self, problem, seed):
        fun, grad, x0 = PROBLEMS[problem](seed)
        f, g, log = logged(fun, grad)
        x, value, _ = armijo_minimize(f, g, x0, steps=8, start=f(x0))
        trials, expected_x, expected_value = unit_step_armijo_trials(fun, grad, x0, steps=8)
        assert [x.tobytes() for kind, x in log[1:] if kind == "f"] == [t.tobytes() for t in trials]
        assert x.tobytes() == expected_x.tobytes() and value == expected_value
        assert value < fun(x0)

    @pytest.mark.parametrize("excess", [1.0, 1e-13])  # no decrease; a rounding error above f0
    def test_no_decrease_tries_each_stated_step_once(self, excess):
        x0, g0, f0 = np.zeros(3), np.array([1.0, -2.0, 0.5]), 1.0

        def never_lower(x):
            return f0 if x is x0 else f0 + excess

        f, g, log = logged(never_lower, lambda x: g0)
        if excess == 1.0:
            with pytest.raises(RuntimeError, match=f"no decrease after {MAX_TRIALS} trials"):
                armijo_minimize(f, g, x0, steps=3, start=f(x0))
        else:
            x, value, work = armijo_minimize(f, g, x0, steps=3, start=f(x0))
            assert x is x0 and value == f0 and work is x0
            kind, point = log.pop()  # after its trials the search runs the pass of x0 once
            assert kind == "f" and point is x0
        # x0 = 0 makes each trial point exactly -t * g0 / ||g0||
        unit = 1.0 / np.linalg.norm(g0)
        tried = [float(-x[0] / g0[0]) / unit for kind, x in log[1:] if kind == "f"]
        expected, gd = [1.0], float(np.linalg.norm(g0))
        while len(expected) < MAX_TRIALS:
            expected.append(interpolated_step(expected[-1], f0, gd, f0 + excess))
        np.testing.assert_allclose(tried, expected, rtol=1e-12)

    @pytest.mark.parametrize("problem, kept", [("quadratic", True), ("concave", False)])
    def test_keeps_a_pair_only_with_positive_curvature(self, problem, kept, monkeypatch):
        fun, grad, x0 = concave() if problem == "concave" else PROBLEMS[problem](0)
        held = []
        direction = optim._lbfgs_direction

        def recorded(g, pairs):
            held.append([sy for _, _, sy in pairs])
            return direction(g, pairs)

        monkeypatch.setattr(optim, "_lbfgs_direction", recorded)
        f, g = point_pass(fun, grad)
        x, value, _ = armijo_minimize(f, g, x0, steps=4, start=f(x0))
        assert value < fun(x0)
        assert [len(products) for products in held] == ([0, 1, 2, 3] if kept else [0, 0, 0, 0])
        assert all(sy > 0.0 for products in held for sy in products)

    def test_a_direction_that_does_not_descend_gives_the_unit_length_step(self, monkeypatch):
        fun, grad, x0 = PROBLEMS["quadratic"](1)
        direction = optim._lbfgs_direction
        monkeypatch.setattr(optim, "_lbfgs_direction",
                            lambda g, pairs: -g if pairs else direction(g, pairs))
        f, g, log = logged(fun, grad)
        x, value, _ = armijo_minimize(f, g, x0, steps=4, start=f(x0))
        assert value < fun(x0)
        for point, trials in searches(log):
            gx = grad(point)
            np.testing.assert_allclose(point - trials[0], gx / np.linalg.norm(gx), rtol=1e-9,
                                       atol=1e-12 * np.max(np.abs(point)))


class TestDirection:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_two_loop_recursion_is_the_dense_bfgs_estimate_times_the_gradient(self, seed, count):
        rng = np.random.default_rng(seed)
        dim = 7
        A = rng.standard_normal((dim, dim))
        A = A @ A.T + 0.1 * np.eye(dim)  # y = A s gives s'y > 0
        ss = [rng.standard_normal(dim) for _ in range(count)]
        ys = [A @ s for s in ss]
        g = rng.standard_normal(dim)
        d = optim._lbfgs_direction(g, [(s, y, float(s @ y)) for s, y in zip(ss, ys)])
        np.testing.assert_allclose(d, bfgs_inverse_hessian(ss, ys) @ g, rtol=1e-9, atol=1e-12)


class TestAgainstGradientDescent:
    @pytest.mark.parametrize("problem", ["quadratic", "autoencoder"])
    @pytest.mark.parametrize("seed", range(6))
    def test_ends_below_the_doubling_gradient_rule(self, problem, seed):
        fun, grad, x0 = PROBLEMS[problem](seed)
        f, g = point_pass(fun, grad)
        _, value, _ = armijo_minimize(f, g, x0, steps=8, start=f(x0))
        assert value < doubling_armijo_descent(fun, grad, x0, steps=8)[1]


def rounding_above(f0, x0):
    """A loss that is ``f0`` at ``x0`` and a few ulps above it everywhere else."""
    return lambda x: f0 if x is x0 else f0 + 4 * np.spacing(f0)


class TestScaleInvariance:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [-20, 20])
    @pytest.mark.parametrize("problem", [*PROBLEMS, "stationary"])
    def test_a_power_of_two_times_the_loss_visits_the_same_points(self, seed, k, problem):
        # the loss stays above 1 at both scales, so the stationary tolerance scales too
        stationary = problem == "stationary"
        fun, grad, x0 = backtracking_start("quadratic" if stationary else problem, seed)
        fun = rounding_above(2.0 ** 22, x0) if stationary else (lambda x, f=fun: 2.0 ** 22 + f(x))

        def run(scale):
            f, g, log = logged(lambda x: scale * fun(x), lambda x: scale * grad(x))
            x, value, _ = armijo_minimize(f, g, x0, steps=8, start=f(x0))
            return [x.tobytes() for kind, x in log if kind == "f"], x, value

        points, x, value = run(1.0)
        scaled_points, scaled_x, scaled_value = run(2.0 ** k)
        assert scaled_points == points
        assert scaled_x.tobytes() == x.tobytes() and scaled_value == 2.0 ** k * value
        if stationary:  # every trial of the one step fails, then x0's pass runs once more
            assert len(points) == 2 + MAX_TRIALS and points[-1] == x0.tobytes()
        else:  # some step backtracks
            assert len(points) > 1 + 8


class TestStationaryExit:
    @pytest.mark.parametrize("f0", [0.5, 1e6, 1e17])
    def test_trials_a_rounding_error_above_a_large_objective_are_stationary(self, f0):
        x0, g0 = np.array([0.3, -1.2]), np.array([1.0, 2.0])
        f, g, log = logged(rounding_above(f0, x0), lambda x: g0)
        x, value, work = armijo_minimize(f, g, x0, steps=3, start=f(x0))
        assert x is x0 and value == f0 and work is x0
        # x0's pass, its gradient, the trials, then one forward pass at x0 for the returned pass
        assert [kind for kind, _ in log] == ["f", "g"] + ["f"] * MAX_TRIALS + ["f"]
        assert log[0][1] is x0 and log[-1][1] is x0
        assert all(point is not x0 for _, point in log[2:-1])


class TestExits:
    class Pass:
        def __init__(self, x):
            self.x = x

    @pytest.mark.parametrize("exit", ["steps done", "no steps", "zero gradient at the start",
                                      "zero gradient after a step", "stationary"])
    def test_the_returned_pass_is_that_of_the_returned_point(self, exit):
        fun, grad, x0 = quadratic(0)
        steps = 0 if exit == "no steps" else 5
        if exit == "zero gradient at the start":
            grad = np.zeros_like
        elif exit == "zero gradient after a step":
            # the unit-length first step lands on the minimum, where the gradient is zero
            x0 = np.array([1.0, 0.0])
            fun, grad = (lambda x: 0.5 * float(x @ x)), (lambda x: x.copy())
        elif exit == "stationary":
            fun, grad = rounding_above(fun(x0), x0), (lambda x, g0=grad(x0): g0)

        def forward(x):
            return fun(x), self.Pass(x)

        def backward(work):
            return grad(work.x)

        x, value, work = armijo_minimize(forward, backward, x0, steps, start=forward(x0))
        assert work.x is x and value == fun(x)
        if exit == "zero gradient after a step":
            assert not np.any(x)
        elif exit == "steps done":
            assert value < fun(x0)
        else:
            assert x is x0


class TestLivePasses:
    @each_problem
    @pytest.mark.parametrize("seed", range(4))
    def test_no_earlier_pass_is_alive_when_a_trial_runs(self, problem, seed):
        fun, grad, x0 = backtracking_start(problem, seed)
        alive = 0
        log = []  # ("f", passes alive as it runs) per forward, ("g", None) per backward

        class Pass:
            def __init__(self, x):
                self.x = x

        def dropped():
            nonlocal alive
            alive -= 1

        def forward(x):
            nonlocal alive
            log.append(("f", alive))
            work = Pass(x)
            alive += 1
            weakref.finalize(work, dropped)
            return fun(x), work

        def backward(work):
            log.append(("g", None))
            return grad(work.x)

        # the start is a temporary here, so only the search can hold it
        x, _, work = armijo_minimize(forward, backward, x0, steps=8, start=forward(x0))
        forwards = [live for kind, live in log if kind == "f"]
        assert len(forwards) > 9  # some trial was rejected
        assert forwards == [0] * len(forwards)
        assert alive == 1 and work.x is x  # the returned point's pass, and no other
