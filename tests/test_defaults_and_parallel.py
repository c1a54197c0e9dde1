import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from dpmne import parallel, trainer
from dpmne.evaluation import EvalProtocol, pdr_sweep
from dpmne.graph_model import SynthConfig, synth_generate
from dpmne.parallel import map_views, one_blas_thread, worker_count
from dpmne.proximity import ProximityConfig, default_weights
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
        assert cfg.resolved_weights() == (1.0, 0.5, 0.25, 0.125, 0.0625)
        assert default_weights(3) == (1.0, 0.5, 0.25)

    def test_evaluation_protocol_split_and_repeats(self):
        protocol = EvalProtocol()
        assert protocol.train_fraction == 0.5
        assert protocol.repeats == 10
        assert protocol.l2 == 1.0


def small_network():
    return synth_generate(SynthConfig(n=30, communities=3, t=3, pdr=0.2, feature_dim=6,
                                      seed=21))


SMALL_HYPER = Hyperparams(dim=4, max_iters=3, hidden_dims=(5,), seed=21,
                          proximity=ProximityConfig(order=2, weights=(1.0, 0.5)))


class TestThreadCap:
    def test_zero_or_unset_means_auto(self, monkeypatch):
        monkeypatch.delenv("DPMNE_THREADS", raising=False)
        assert 1 <= worker_count(4) <= 4
        monkeypatch.setenv("DPMNE_THREADS", "0")
        assert 1 <= worker_count(4) <= 4

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
        threaded = train(net, SMALL_HYPER)
        assert np.array_equal(serial.Y, threaded.Y)
        assert serial.objective_trace == threaded.objective_trace


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
from dpmne.trainer import Hyperparams, train
net = synth_generate(SynthConfig(n=300, communities=4, t=3, feature_dim=100, pdr=0.3, seed=3))
state = train(net, Hyperparams(dim=32, hidden_dims=(64, 16), max_iters=1, seed=3,
                               proximity=ProximityConfig(order=1, normalize=True)))
for a in (state.Y, *state.H, np.array(state.objective_trace)):
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


def test_sweep_neighbor_fill_method_runs():
    net = synth_generate(SynthConfig(n=30, communities=2, t=2, feature_dim=5, seed=22))
    hyper = Hyperparams(dim=3, max_iters=2, hidden_dims=(4,),
                        proximity=ProximityConfig(order=2, weights=(1.0, 0.5)))
    rows = pdr_sweep(net, [0.2], ("knn-fill",), EvalProtocol(repeats=2, seed=1), hyper)
    assert len(rows) == 1
    assert rows[0].method == "knn-fill"
    assert 0.0 <= rows[0].report.micro_f1 <= 1.0
