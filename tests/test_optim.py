"""The Armijo line search's first-step hint against the search without one."""

import numpy as np
import pytest

from dpmne.optim import armijo_minimize


def quadratic(seed, dim=6):
    """f(x) = ½ Σ sᵢ xᵢ²: along -g the Armijo test passes for all steps below a threshold."""
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.5, 400.0, dim)

    def fun(x):
        return 0.5 * float(np.sum(scales * x * x))

    def grad(x):
        return scales * x
    return fun, grad, rng.standard_normal(dim)


def logged(fun, grad):
    """``fun`` and ``grad`` that append ("f", x) and ("g", x) per call to a log."""
    log = []

    def f(x):
        log.append(("f", x))
        return fun(x)

    def g(x):
        log.append(("g", x))
        return grad(x)
    return f, g, log


def first_step_trials(log, x0, g0):
    """The steps ``fun`` was tried at before the second gradient."""
    second_grad = [i for i, (kind, _) in enumerate(log) if kind == "g"][1]
    return [float((x0 - x)[0] / g0[0]) for kind, x in log[1:second_grad] if kind == "f"]


def same_result(a, b):
    return np.array_equal(a[0], b[0]) and a[1:] == b[1:]


class TestFirstStepHint:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("hint", [1e-9, 1e-4, 3e-3, 0.05, 0.1, 0.4, 1e3])
    @pytest.mark.parametrize("step0", [0.4, 1e-4])  # the test passes at 1e-4: doubling stops there
    def test_accepts_the_same_steps_as_halving_from_step0(self, seed, hint, step0):
        fun, grad, x0 = quadratic(seed)
        plain = armijo_minimize(fun, grad, x0, steps=6, step0=step0)
        hinted = armijo_minimize(fun, grad, x0, steps=6, step0=step0, first_step=hint)
        assert same_result(hinted, plain)

    def test_a_hint_above_step0_is_capped(self):
        fun, grad, x0 = quadratic(1)
        f, g, plain_log = logged(fun, grad)
        plain = armijo_minimize(f, g, x0, steps=4, step0=0.4)
        f, g, hinted_log = logged(fun, grad)
        hinted = armijo_minimize(f, g, x0, steps=4, step0=0.4, first_step=50.0)
        assert same_result(hinted, plain)
        assert [k for k, _ in hinted_log] == [k for k, _ in plain_log]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(hinted_log, plain_log))

    def test_a_failing_hint_halves_on_the_grid(self):
        fun, grad, x0 = quadratic(2)
        f, g, plain_log = logged(fun, grad)
        armijo_minimize(f, g, x0, steps=2, step0=0.4)
        plain_trials = first_step_trials(plain_log, x0, grad(x0))
        assert len(plain_trials) >= 4  # the threshold is several halvings below 0.4
        f, g, log = logged(fun, grad)
        # a hint between grid steps rounds down onto the grid
        armijo_minimize(f, g, x0, steps=2, step0=0.4, first_step=plain_trials[1] * 0.9)
        trials = first_step_trials(log, x0, grad(x0))
        np.testing.assert_allclose(trials, plain_trials[2:], rtol=1e-12)

    def test_a_passing_hint_doubles_and_the_gradient_reads_the_last_point(self):
        fun, grad, x0 = quadratic(3)
        plain = armijo_minimize(fun, grad, x0, steps=3, step0=0.4)
        f, g, log = logged(fun, grad)
        hinted = armijo_minimize(f, g, x0, steps=3, step0=0.4, first_step=1e-6)
        assert same_result(hinted, plain)
        trials = first_step_trials(log, x0, grad(x0))
        # doubling up to the first failure, then the accepted point once more
        assert trials[-1] == trials[-3] and trials[-2] == pytest.approx(2 * trials[-1], rel=1e-12)
        for i, (kind, x) in enumerate(log):
            if kind == "g" and i > 0:
                assert log[i - 1][0] == "f" and log[i - 1][1] is x

    def test_nothing_passing_below_the_hint_falls_back_to_step0(self):
        # the test passes only for steps of at least 0.3: no grid step below 0.4 passes
        fun, grad, x0 = quadratic(4)
        g0 = grad(x0)
        f0 = fun(x0)

        def far_only(x):
            if x is x0:
                return f0
            return f0 - 1e9 if np.linalg.norm(x - x0) >= 0.3 * np.linalg.norm(g0) else f0 + 1.0

        plain = armijo_minimize(far_only, grad, x0, steps=1, step0=0.4)
        hinted = armijo_minimize(far_only, grad, x0, steps=1, step0=0.4, first_step=0.05)
        assert same_result(hinted, plain)
        assert plain[2] == 0.8

    def test_no_decrease_raises_the_same_error(self):
        fun, grad, x0 = quadratic(5)
        f0 = fun(x0)

        def worse(x):
            return f0 if x is x0 else f0 + 1.0

        with pytest.raises(RuntimeError) as plain:
            armijo_minimize(worse, grad, x0, steps=1, step0=0.4)
        with pytest.raises(RuntimeError) as hinted:
            armijo_minimize(worse, grad, x0, steps=1, step0=0.4, first_step=1e-3)
        assert str(hinted.value) == str(plain.value)

    def test_no_representable_decrease_exits_as_stationary(self):
        fun, grad, x0 = quadratic(6)
        f0 = fun(x0)

        def flat(x):  # every trial a rounding error above the start
            return f0 if x is x0 else f0 + 1e-13

        plain = armijo_minimize(flat, grad, x0, steps=3, step0=0.4)
        hinted = armijo_minimize(flat, grad, x0, steps=3, step0=0.4, first_step=1e-3)
        assert same_result(hinted, plain)
        assert np.array_equal(hinted[0], x0) and hinted[2] == 0.4
