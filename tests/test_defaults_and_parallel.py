import inspect
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from dpmne import autoencoder, evaluation, optim, parallel, proximity, trainer
from dpmne.evaluation import EvalProtocol, classify_f1, pdr_sweep
from dpmne.graph_model import SynthConfig, synth_generate
from dpmne.parallel import map_views, one_blas_thread, worker_count
from dpmne.proximity import ProximityConfig, build_stack, default_weights
from dpmne.trainer import Hyperparams, train


class TestShippedDefaults:
    def test_embedding_dimension_and_iteration_budget(self):
        hyper = Hyperparams()
        assert hyper.dim == 128
        assert hyper.max_iters == 60
        assert hyper.hidden_dims == (200,)

    def test_proximity_order_and_halving_weights(self):
        cfg = ProximityConfig()
        assert cfg.order == 5
        assert build_stack(small_network(), cfg).laplacian.weights == (
            1.0, 0.5, 0.25, 0.125, 0.0625)
        assert default_weights(3) == (1.0, 0.5, 0.25)

    def test_evaluation_protocol_split_and_repeats(self):
        protocol = EvalProtocol()
        assert protocol.train_fraction == 0.5
        assert protocol.repeats == 10


# each of these settings comes from Hyperparams, EvalProtocol, the state or the one caller
REQUIRED = [(proximity.build_stack, "config"),
            (proximity.proximity_adjacency, "normalize"),
            (autoencoder.encode, "mask"),
            (autoencoder.train_view_autoencoder, "steps"),
            (optim.armijo_minimize, "start"),
            (autoencoder.init_autoencoder, "hidden_dims"),
            (autoencoder.init_autoencoder, "activation"),
            (autoencoder.init_autoencoder, "output_activation"),
            (autoencoder.init_autoencoder, "rng"),
            (autoencoder.AutoencoderParams, "activation"),
            (autoencoder.AutoencoderParams, "output_activation"),
            (autoencoder.view_loss_and_grads, "Y"), (autoencoder.view_loss_and_grads, "B"),
            (autoencoder.view_loss_and_grads, "alpha"), (autoencoder.view_loss_and_grads, "lam"),
            (evaluation.classify_f1, "protocol"), (evaluation.pdr_sweep, "methods"),
            (evaluation.pdr_sweep, "protocol"), (evaluation.pdr_sweep, "hyper"),
            (evaluation.cross_validate, "protocol"), (evaluation.cross_validate, "base_hyper")]


@pytest.mark.parametrize("function,name", REQUIRED,
                         ids=[f"{f.__name__}-{name}" for f, name in REQUIRED])
def test_a_setting_held_elsewhere_has_no_default_of_its_own(function, name):
    parameter = inspect.signature(function).parameters[name]
    assert parameter.default is inspect.Parameter.empty


def test_classifier_ridge_and_stopping_rule_are_fixed():
    parameters = inspect.signature(evaluation.fit_logistic_regression).parameters
    assert not {"l2", "gtol", "max_steps"} & set(parameters)
    assert (evaluation._LOGREG_L2, evaluation._LOGREG_GTOL,
            evaluation._LOGREG_MAX_STEPS) == (1.0, 1e-6, 500)


def small_network():
    return synth_generate(SynthConfig(n=30, communities=3, t=3, pdr=0.2, feature_dim=6,
                                      seed=21))


SMALL_HYPER = Hyperparams(dim=4, max_iters=3, hidden_dims=(5,), seed=21,
                          proximity=ProximityConfig(order=2))


class TestThreadCap:
    def test_zero_or_unset_means_auto(self, monkeypatch):
        # one worker per task, more than this machine's CPUs if need be
        monkeypatch.delenv("DPMNE_THREADS", raising=False)
        assert worker_count(4) == 4
        monkeypatch.setenv("DPMNE_THREADS", "0")
        assert worker_count(4) == 4

    def test_blank_means_auto(self, monkeypatch):
        monkeypatch.delenv("DPMNE_THREADS", raising=False)
        auto = worker_count(4)
        for blank in ("", "  "):
            monkeypatch.setenv("DPMNE_THREADS", blank)
            assert worker_count(4) == auto

    def test_training_runs_with_blank_value(self, monkeypatch):
        monkeypatch.setenv("DPMNE_THREADS", "")
        state = train(small_network(), SMALL_HYPER)
        assert len(state.objective_trace) == SMALL_HYPER.max_iters + 1

    def test_bad_value_fails_before_the_warm_start(self, monkeypatch):
        def unreachable(*args):
            pytest.fail("training started despite a bad DPMNE_THREADS")
        monkeypatch.setattr(trainer, "_init_state", unreachable)
        for bad in ("lots", "-1"):
            monkeypatch.setenv("DPMNE_THREADS", bad)
            with pytest.raises(ValueError, match="DPMNE_THREADS"):
                train(small_network(), SMALL_HYPER)

    def test_cap_applies_and_never_exceeds_tasks(self, monkeypatch):
        monkeypatch.setenv("DPMNE_THREADS", "2")
        assert worker_count(8) == 2
        assert worker_count(1) == 1

    def test_invalid_values_rejected(self, monkeypatch):
        monkeypatch.setenv("DPMNE_THREADS", "lots")
        with pytest.raises(ValueError):
            worker_count(3)
        monkeypatch.setenv("DPMNE_THREADS", "-1")
        with pytest.raises(ValueError):
            worker_count(3)

    def test_map_views_preserves_order(self, monkeypatch):
        monkeypatch.setenv("DPMNE_THREADS", "3")
        assert map_views(lambda x: x * x, range(7)) == [x * x for x in range(7)]

    def test_training_result_is_thread_count_independent(self, monkeypatch):
        net = small_network()
        monkeypatch.setenv("DPMNE_THREADS", "1")
        serial = train(net, SMALL_HYPER)
        monkeypatch.setenv("DPMNE_THREADS", "3")
        monkeypatch.setattr(trainer, "_VIEW_THREAD_MIN_MACS", 0)
        threaded = train(net, SMALL_HYPER)
        assert np.array_equal(serial.Y, threaded.Y)
        assert serial.objective_trace == threaded.objective_trace


def largest_view_macs(network, hidden):
    """Multiply-adds of the largest view's forward pass: present rows x weight entries."""
    def entries(dim):
        widths = [dim, *hidden]
        return 2 * sum(a * b for a, b in zip(widths, widths[1:]))  # the decoder mirrors it
    return max(int(view.mask.sum()) * entries(view.dim) for view in network.views)


class TestViewSchedule:
    def test_views_below_the_threshold_run_inline(self, monkeypatch):
        net = small_network()
        monkeypatch.delenv("DPMNE_THREADS", raising=False)
        monkeypatch.setattr(trainer, "_VIEW_THREAD_MIN_MACS",
                            largest_view_macs(net, SMALL_HYPER.hidden_dims) + 1)

        def refused(fn, items):
            raise AssertionError("views below the threshold went to map_views")

        monkeypatch.setattr(trainer, "map_views", refused)
        state = train(net, SMALL_HYPER)
        assert len(state.objective_trace) == SMALL_HYPER.max_iters + 1

    def test_views_at_the_threshold_get_one_worker_each(self, monkeypatch):
        net = small_network()
        monkeypatch.delenv("DPMNE_THREADS", raising=False)
        monkeypatch.setattr(trainer, "_VIEW_THREAD_MIN_MACS",
                            largest_view_macs(net, SMALL_HYPER.hidden_dims))
        calls = []

        def recorded(fn, items):
            items = list(items)
            calls.append((len(items), worker_count(len(items))))
            return map_views(fn, items)

        monkeypatch.setattr(trainer, "map_views", recorded)
        train(net, SMALL_HYPER)
        # forward_passes once at the start, then update_H once per iteration
        assert calls == [(net.t, net.t)] * (1 + SMALL_HYPER.max_iters)

    def test_build_stack_prepares_the_views_inline(self, monkeypatch):
        def refused(fn, items):
            raise AssertionError("build_stack went to map_views")

        monkeypatch.setattr(proximity, "map_views", refused)
        monkeypatch.setattr(parallel, "map_views", refused)
        stack = build_stack(small_network(), ProximityConfig(order=2))
        assert stack.degree.shape == (30,)


def blas_counts(controls):
    return [get() for get, _ in controls]


@pytest.fixture
def blas_at_two_threads():
    """The found OpenBLAS controls, each set to 2 threads for the test, then restored."""
    controls = parallel._find_blas_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this numpy/scipy build")
    saved = blas_counts(controls)
    for _, set_ in controls:
        set_(2)
    try:
        yield controls
    finally:
        for (_, set_), count in zip(controls, saved):
            set_(count)


def record_counts_in_update_B(monkeypatch, controls):
    """Patch ``trainer.update_B`` to log the BLAS thread counts on every call."""
    seen = []
    original = trainer.update_B

    def recording(*args):
        seen.append(blas_counts(controls))
        return original(*args)
    monkeypatch.setattr(trainer, "update_B", recording)
    return seen


class TestOneBlasThread:
    def test_training_runs_one_blas_thread_and_restores(self, monkeypatch,
                                                        blas_at_two_threads):
        seen = record_counts_in_update_B(monkeypatch, blas_at_two_threads)
        train(small_network(), SMALL_HYPER)
        assert seen and all(counts == [1] * len(blas_at_two_threads) for counts in seen)
        assert blas_counts(blas_at_two_threads) == [2] * len(blas_at_two_threads)

    def test_classification_runs_one_blas_thread_and_restores(self, monkeypatch,
                                                              blas_at_two_threads):
        seen = []
        fit = evaluation.fit_logistic_regression

        def recording(*args, **kwargs):
            seen.append(blas_counts(blas_at_two_threads))
            return fit(*args, **kwargs)
        monkeypatch.setattr(evaluation, "fit_logistic_regression", recording)
        embeddings = np.random.default_rng(0).standard_normal((40, 3))
        classify_f1(embeddings, np.arange(40) % 2, EvalProtocol(repeats=2))
        assert seen == [[1] * len(blas_at_two_threads)] * 2
        assert blas_counts(blas_at_two_threads) == [2] * len(blas_at_two_threads)

    def test_counts_restored_when_training_raises(self, monkeypatch, blas_at_two_threads):
        def failing(*args):
            raise RuntimeError("update_H failed")
        monkeypatch.setattr(trainer, "update_H", failing)
        with pytest.raises(RuntimeError, match="update_H failed"):
            train(small_network(), SMALL_HYPER)
        assert blas_counts(blas_at_two_threads) == [2] * len(blas_at_two_threads)

    def test_nested_entries_restore_after_the_last_exit(self, blas_at_two_threads):
        ones, twos = [1] * len(blas_at_two_threads), [2] * len(blas_at_two_threads)
        with one_blas_thread():
            with one_blas_thread():
                assert blas_counts(blas_at_two_threads) == ones
            assert blas_counts(blas_at_two_threads) == ones
        assert blas_counts(blas_at_two_threads) == twos

    def test_concurrent_entries_restore_after_the_last_exit(self, blas_at_two_threads):
        ones, twos = [1] * len(blas_at_two_threads), [2] * len(blas_at_two_threads)
        inside, release = threading.Event(), threading.Event()

        def other_caller():
            with one_blas_thread():
                inside.set()
                release.wait(timeout=30)

        worker = threading.Thread(target=other_caller)
        with one_blas_thread():
            worker.start()
            assert inside.wait(timeout=30)
        # this thread left first; the other caller is still inside
        assert blas_counts(blas_at_two_threads) == ones
        release.set()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert blas_counts(blas_at_two_threads) == twos

    def test_many_threads_entering_at_once_keep_one_thread_inside(self, blas_at_two_threads):
        ones, twos = [1] * len(blas_at_two_threads), [2] * len(blas_at_two_threads)
        wrong = []

        def enter_repeatedly():
            for _ in range(200):
                with one_blas_thread():
                    if blas_counts(blas_at_two_threads) != ones:
                        wrong.append(blas_counts(blas_at_two_threads))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=enter_repeatedly) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert wrong == []
        assert parallel._blas_depth == 0
        assert blas_counts(blas_at_two_threads) == twos

    def test_without_blas_controls_training_runs_unchanged(self, monkeypatch,
                                                           blas_at_two_threads):
        limited = train(small_network(), SMALL_HYPER)
        # a module that is missing, a file that is not a library, symbols that are absent
        monkeypatch.setattr(parallel, "_OPENBLAS_HOOKS", (
            ("dpmne_no_such_module", "get", "set"),
            ("json", "get", "set"),
            (parallel._OPENBLAS_HOOKS[0][0], "no_such_get_symbol", "no_such_set_symbol"),
        ))
        monkeypatch.setattr(parallel, "_blas_controls", None)
        assert parallel._find_blas_controls() == []
        seen = record_counts_in_update_B(monkeypatch, blas_at_two_threads)
        unlimited = train(small_network(), SMALL_HYPER)
        assert all(counts == [2] * len(blas_at_two_threads) for counts in seen)
        np.testing.assert_allclose(unlimited.Y, limited.Y, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(unlimited.objective_trace, limited.objective_trace,
                                   rtol=1e-10)


DETERMINISM_SCRIPT = """
import hashlib
import numpy as np
from dpmne.graph_model import SynthConfig, synth_generate
from dpmne.proximity import ProximityConfig
from dpmne.trainer import Hyperparams, representations, train
net = synth_generate(SynthConfig(n=300, communities=4, t=3, feature_dim=100, pdr=0.3, seed=3))
state = train(net, Hyperparams(dim=32, hidden_dims=(64, 16), max_iters=1, seed=3,
                               proximity=ProximityConfig(order=1, normalize=True)))
for a in (state.Y, *representations(state, net), np.array(state.objective_trace)):
    print(hashlib.sha256(a.tobytes()).hexdigest())
"""


KNN_DETERMINISM_SCRIPT = """
import hashlib
from dpmne.evaluation import knn_impute
from dpmne.graph_model import SynthConfig, synth_generate
net = synth_generate(SynthConfig(n=500, communities=5, t=3, pdr=0.3, seed=5))
for view in knn_impute(net).views:
    print(hashlib.sha256(view.features.tobytes()).hexdigest())
"""


# 2000 training rows of width 128: large enough that OpenBLAS splits the
# classifier's products over threads, which changes the bits of each fit
CLASSIFY_DETERMINISM_SCRIPT = """
import hashlib
import numpy as np
from dpmne import evaluation
fit = evaluation.fit_logistic_regression

def recorded(*args, **kwargs):
    W = fit(*args, **kwargs)
    print(hashlib.sha256(W.tobytes()).hexdigest())
    return W
evaluation.fit_logistic_regression = recorded
rng = np.random.default_rng(4)
labels = rng.integers(0, 10, 4000)
embeddings = rng.standard_normal((4000, 128)) + 0.3 * rng.standard_normal((10, 128))[labels]
report = evaluation.classify_f1(embeddings, labels, evaluation.EvalProtocol(repeats=2, seed=4))
for value in (report.micro_f1, report.micro_f1_std, report.macro_f1, report.macro_f1_std):
    print(repr(value))
"""


# the shape at which the fold fits' bits depended on the OpenBLAS thread count
# while cross_validate ran outside one_blas_thread; at n=2000 with 30 features
# and dim 32 they did not
CROSS_VALIDATE_DETERMINISM_SCRIPT = """
import hashlib
from dpmne import evaluation
from dpmne.graph_model import SynthConfig, synth_generate
from dpmne.trainer import Hyperparams
fit = evaluation.fit_logistic_regression

def recorded(*args, **kwargs):
    W = fit(*args, **kwargs)
    print(hashlib.sha256(W.tobytes()).hexdigest())
    return W
evaluation.fit_logistic_regression = recorded
net = synth_generate(SynthConfig(n=2500, communities=10, t=2, feature_dim=150, seed=3))
hyper = Hyperparams(dim=128, hidden_dims=(8,), max_iters=0)
evaluation.cross_validate(net, [(1.0, 0.1, 0.01)], folds=5, protocol=evaluation.EvalProtocol(),
                          base_hyper=hyper)
"""


def digests_under_openblas_threads(script):
    """Output lines of ``script`` run in a child with 1, then 2, OpenBLAS threads."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    digests = {}
    for threads in ("1", "2"):  # one child at a time: never more than 2 BLAS threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests[threads] = done.stdout.split()
    return digests


def test_seed_output_is_independent_of_openblas_threads():
    digests = digests_under_openblas_threads(DETERMINISM_SCRIPT)
    assert len(digests["1"]) == 5  # Y, three H, the trace
    assert digests["1"] == digests["2"]


def test_knn_fill_is_independent_of_openblas_threads():
    digests = digests_under_openblas_threads(KNN_DETERMINISM_SCRIPT)
    assert len(digests["1"]) == 3  # one filled feature matrix per view
    assert digests["1"] == digests["2"]


def test_classification_fits_are_independent_of_openblas_threads():
    digests = digests_under_openblas_threads(CLASSIFY_DETERMINISM_SCRIPT)
    assert len(digests["1"]) == 6  # the weights of two fits, micro and macro F1 with stds
    assert digests["1"] == digests["2"]


def test_cross_validation_fits_are_independent_of_openblas_threads():
    digests = digests_under_openblas_threads(CROSS_VALIDATE_DETERMINISM_SCRIPT)
    assert len(digests["1"]) == 5  # the weights of each fold's fit
    assert digests["1"] == digests["2"]


def test_sweep_neighbor_fill_method_runs():
    net = synth_generate(SynthConfig(n=30, communities=2, t=2, feature_dim=5, seed=22))
    hyper = Hyperparams(dim=3, max_iters=2, hidden_dims=(4,),
                        proximity=ProximityConfig(order=2))
    rows = pdr_sweep(net, [0.2], ("knn-fill",), EvalProtocol(repeats=2, seed=1), hyper)
    assert len(rows) == 1
    assert rows[0].method == "knn-fill"
    assert 0.0 <= rows[0].report.micro_f1 <= 1.0
