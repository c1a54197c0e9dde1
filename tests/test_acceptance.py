"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The partial-data trend and scaling checks train many
models and take several minutes.
"""

import itertools
import os
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from dpmne import autoencoder as ae
from dpmne.autoencoder import flatten, unflatten
from dpmne.cli import main as cli_main
from dpmne.evaluation import EvalProtocol, pdr_sweep
from dpmne.graph_model import SynthConfig, synth_generate
from dpmne.proximity import ProximityConfig, ProximityLaplacian, default_weights
from dpmne.quantizer import binarize_sign, itq, procrustes_rotation
from dpmne.trainer import (EmbeddingState, Hyperparams, forward_passes, grad_Y, objective, train,
                           update_B)

from conftest import random_network
from oracles import aggregate_and_laplacian, high_order_proximity, objective_from_params


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d}: {status} - {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {description} {detail}"


def rel_error(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


def random_instance(seed):
    """n <= 20, d <= 4, t = 2, all hidden widths <= 8; the state comes with its forward passes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 21))
    d = int(rng.integers(2, 5))
    network = random_network(seed, n=n, t=2, dims=(6, 5), missing=(0.2, 0.25))
    hyper = Hyperparams(alpha=0.9, beta=0.2, lam=0.03, dim=d, hidden_dims=(7,),
                        proximity=ProximityConfig(order=2),
                        seed=seed)
    from dpmne.proximity import build_stack
    prox = build_stack(network, hyper.proximity)
    autoencoders = [ae.init_autoencoder(v.dim, hyper.hidden_dims, rng) for v in network.views]
    Y = rng.standard_normal((n, d))
    B = [rng.standard_normal((d, autoencoders[s].code_dim)) for s in range(2)]
    masks = [v.mask.copy() for v in network.views]
    state = EmbeddingState(Y, B, masks, autoencoders, hyper)
    passes = forward_passes(state, network)
    return network, prox, state, passes, hyper


def central_diff(fun, vec, eps=1e-6):
    grad = np.zeros_like(vec)
    for i in range(vec.size):
        up, dn = vec.copy(), vec.copy()
        up[i] += eps
        dn[i] -= eps
        grad[i] = (fun(up) - fun(dn)) / (2.0 * eps)
    return grad


def test_criterion_01_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        network, prox, state, passes, hyper = random_instance(seed)

        def with_Y(vec):
            trial = EmbeddingState(vec.reshape(state.Y.shape), state.B,
                                   state.masks, state.autoencoders, hyper)
            return objective(trial, passes, prox)

        worst = max(worst, rel_error(grad_Y(state, passes, prox).ravel(),
                                     central_diff(with_Y, state.Y.ravel())))

        for s, view in enumerate(network.views):
            params = state.autoencoders[s]
            templates = params.all_arrays()
            _, grads = ae.view_loss_and_grads(params, view.features, view.mask,
                                              state.Y, state.B[s],
                                              hyper.alpha, hyper.lam)

            def with_params(vec, s=s, params=params, templates=templates):
                autoencoders = list(state.autoencoders)
                autoencoders[s] = params.replace_arrays(unflatten(vec, templates))
                return objective_from_params(network, prox, state.Y, state.B,
                                             autoencoders, hyper)

            worst = max(worst, rel_error(flatten(grads),
                                         central_diff(with_params, flatten(templates))))
    elapsed = time.perf_counter() - started
    report(1, "analytic gradients match central finite differences",
           worst < 1e-5 and elapsed < 30.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_coordinate_descent_monotonicity():
    started = time.perf_counter()
    net = synth_generate(SynthConfig(n=200, communities=4, t=3, intra=0.05,
                                     inter=0.005, noise=0.3, pdr=0.3,
                                     feature_dim=16, seed=7))
    hyper = Hyperparams(alpha=1.0, beta=0.05, lam=0.01, dim=16, max_iters=60,
                        hidden_dims=(24,), seed=7, stop_tol=0.0,
                        proximity=ProximityConfig(normalize=True))
    state = train(net, hyper)
    trace = state.objective_trace
    elapsed = time.perf_counter() - started
    monotone = all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    report(2, "objective trace non-increasing over 60 iterations",
           monotone and len(trace) == 61 and elapsed < 120.0,
           f"{len(trace) - 1} iterations, {elapsed:.1f}s")


def test_criterion_03_closed_form_basis_optimality():
    worst_dist = 0.0
    worst_grad = 0.0
    for seed in range(20):
        network, prox, state, passes, hyper = random_instance(seed + 100)
        out = update_B(state, passes)
        for s, view in enumerate(network.views):
            m = view.mask
            Yp, Hp = state.Y[m], passes[s].code

            def grad(B):
                return 2 * hyper.alpha * Yp.T @ (Yp @ B - Hp) + 2 * hyper.lam * B

            def loss(B):
                diff = Hp - Yp @ B
                return hyper.alpha * float(np.sum(diff * diff)) + hyper.lam * float(np.sum(B * B))

            B_ref = np.zeros_like(out.B[s])
            step, value = 0.1, loss(B_ref)
            for _ in range(200000):
                g = grad(B_ref)
                if np.max(np.abs(g)) <= 1e-9:
                    break
                while step > 1e-18:
                    candidate = B_ref - step * g
                    cand_val = loss(candidate)
                    if cand_val < value:
                        break
                    step *= 0.5
                if step <= 1e-18:
                    break
                B_ref, value = candidate, cand_val
                step *= 2.0
            worst_dist = max(worst_dist, float(np.max(np.abs(out.B[s] - B_ref))))
            worst_grad = max(worst_grad, float(np.max(np.abs(grad(out.B[s])))))
    report(3, "closed-form basis update matches descent-to-convergence oracle",
           worst_dist < 1e-6 and worst_grad < 1e-8,
           f"worst distance {worst_dist:.2e}, worst gradient {worst_grad:.2e}")


def test_criterion_04_laplacian_identity():
    rng = np.random.default_rng(0)
    worst_identity = 0.0
    worst_row = 0.0
    worst_quad = 0.0
    for _ in range(10):
        n, d = int(rng.integers(10, 30)), int(rng.integers(2, 6))
        P = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
        P = P + P.T
        stack = aggregate_and_laplacian([sp.csr_matrix(P)])
        Y = rng.standard_normal((n, d))
        lhs = float(np.sum(Y * (stack.laplacian @ Y)))
        rhs = 0.5 * sum(P[i, j] * float(np.sum((Y[i] - Y[j]) ** 2))
                        for i in range(n) for j in range(n))
        worst_identity = max(worst_identity, abs(lhs - rhs) / max(abs(rhs), 1e-12))
        rows = np.asarray(stack.laplacian.sum(axis=1)).ravel()
        worst_row = max(worst_row, float(np.max(np.abs(rows))) / max(1.0, P.max()))
        for _ in range(10):
            y = rng.standard_normal(n)
            quad = float(y @ (stack.laplacian @ y))
            worst_quad = min(worst_quad, quad / float(y @ y))
    report(4, "graph Laplacian identity, zero row sums, positive semidefinite",
           worst_identity < 1e-8 and worst_row < 1e-10 and worst_quad >= -1e-10,
           f"identity err {worst_identity:.2e}, min quad {worst_quad:.2e}")


def test_criterion_05_high_order_proximity():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(5):
        upper = np.triu(rng.random((50, 50)) < 0.12, k=1)
        adj = sp.csr_matrix((upper | upper.T).astype(np.float64))
        P = high_order_proximity(adj).toarray()
        dense = adj.toarray()
        expected = np.zeros_like(dense)
        power = np.eye(50)
        for w in default_weights(5):
            power = power @ dense
            expected += w * power
        worst = max(worst, float(np.max(np.abs(P - expected))))
    path = sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.float64))
    hand = high_order_proximity(path, ProximityConfig(order=2)).toarray()
    exact = np.array_equal(hand, [[0.5, 1.0, 0.5], [1.0, 1.0, 1.0], [0.5, 1.0, 0.5]])
    report(5, "high-order proximity matches dense matrix-power oracle",
           worst < 1e-9 and exact, f"worst dev {worst:.2e}, path example exact={exact}")


def test_criterion_06_rotation_optimized_codes():
    def brute_force(Y):
        best = np.inf
        for bits in itertools.product((-1.0, 1.0), repeat=4):
            C = np.array(bits).reshape(2, 2)
            Q = procrustes_rotation(Y, C)
            best = min(best, float(np.sum((C - Y @ Q) ** 2)))
        return best

    ok_monotone = True
    ok_orthogonal = True
    ok_optimal = True
    for seed in range(20):
        Y = np.random.default_rng(seed + 40).standard_normal((2, 2))
        codes = itq(Y, iterations=300)
        trace = codes.loss_trace
        ok_monotone &= all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        Q = codes.rotation
        ok_orthogonal &= float(np.linalg.norm(Q.T @ Q - np.eye(2))) < 1e-8
        if codes.quant_loss > brute_force(Y) + 1e-9:
            # must then be a certified fixed point of both alternation steps
            Q_next = procrustes_rotation(Y, codes.codes)
            C_next = np.where(Y @ Q_next >= 0, 1.0, -1.0)
            next_loss = float(np.sum((C_next - Y @ Q_next) ** 2))
            ok_optimal &= (next_loss >= codes.quant_loss - 1e-12
                           and np.array_equal(C_next, codes.codes))
    # larger instances keep the trace monotone and the rotation orthogonal too
    for seed in range(5):
        Y = np.random.default_rng(seed + 60).standard_normal((40, 6))
        codes = itq(Y, iterations=60)
        trace = codes.loss_trace
        ok_monotone &= all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        ok_orthogonal &= float(np.linalg.norm(codes.rotation.T @ codes.rotation
                                              - np.eye(6))) < 1e-8
        ok_optimal &= codes.quant_loss <= binarize_sign(Y).quant_loss + 1e-12
    report(6, "rotation-optimized codes: monotone, orthogonal, optimal or certified",
           ok_monotone and ok_orthogonal and ok_optimal)


def test_criterion_07_partial_data_trend():
    started = time.perf_counter()
    hyper = Hyperparams(alpha=2.0, beta=0.05, lam=0.01, dim=16, max_iters=25,
                        hidden_dims=(32,), proximity=ProximityConfig(normalize=True))
    ratios = [0.0, 0.1, 0.2, 0.3, 0.4]
    margins, retentions = [], []
    for seed in range(5):
        net = synth_generate(SynthConfig(n=500, communities=5, t=3, intra=0.05,
                                         inter=0.005, noise=0.3, feature_dim=16,
                                         seed=seed))
        protocol = EvalProtocol(repeats=3, seed=seed)
        rows = pdr_sweep(net, ratios, ("dpmne", "zero-fill"), protocol,
                         replace(hyper, seed=seed))
        assert len(rows) == len(ratios) * 2
        table = {(r.ratio, r.method): r.report.micro_f1 for r in rows}
        margins.append(table[(0.4, "dpmne")] - table[(0.4, "zero-fill")])
        retentions.append(table[(0.4, "dpmne")] / table[(0.0, "dpmne")])
    margin = float(np.mean(margins))
    retention = float(np.mean(retentions))
    elapsed = time.perf_counter() - started
    report(7, "mask-aware training beats zero fill at high missing ratios",
           margin >= 0.03 and retention >= 0.8 and elapsed < 900.0,
           f"margin {margin:+.3f}, retention {retention:.2f}, {elapsed:.0f}s")


def test_criterion_08_masked_node_insensitivity():
    net = synth_generate(SynthConfig(n=80, communities=4, t=3, pdr=0.3,
                                     feature_dim=10, seed=13))
    hyper = Hyperparams(dim=8, max_iters=5, hidden_dims=(12,), seed=13,
                        proximity=ProximityConfig(normalize=True))
    baseline = train(net, hyper)
    mutated = 0
    for view in net.views:
        hidden = np.flatnonzero(~view.mask)
        if hidden.size:
            view.features[hidden[0]] = 1e6  # garbage where the mask says absent
            mutated += 1
    assert mutated >= 2
    poisoned = train(net, hyper)
    identical = (np.array_equal(baseline.Y, poisoned.Y)
                 and baseline.objective_trace == poisoned.objective_trace)
    report(8, "masked feature storage cannot influence the trained embedding",
           identical, f"mutated {mutated} masked rows")


@pytest.mark.skipif(not os.environ.get("DPMNE_CORA_DIR"),
                    reason="citation benchmark not available; set DPMNE_CORA_DIR")
def test_criterion_09_citation_benchmark():
    from dpmne.cora import load_citation_network
    from dpmne.evaluation import classify_f1

    base = os.environ["DPMNE_CORA_DIR"]
    started = time.perf_counter()
    net = load_citation_network(os.path.join(base, "cora.content"),
                                os.path.join(base, "cora.cites"))
    hyper = Hyperparams(alpha=1.0, beta=0.05, lam=0.01, dim=128, max_iters=60,
                        hidden_dims=(200,), seed=0,
                        proximity=ProximityConfig(normalize=True))
    state = train(net, hyper)
    rep = classify_f1(state.Y, net.labels, EvalProtocol(repeats=10, seed=0))
    elapsed = time.perf_counter() - started
    report(9, "citation benchmark micro-F1 with a 50/50 split",
           rep.micro_f1 >= 0.75 and elapsed < 1800.0,
           f"micro {rep.micro_f1:.3f}, {elapsed:.0f}s")


def scaling_input(n, seed):
    """Criterion 10's sparse planted-partition network of size n and its training set-up."""
    cfg = SynthConfig(n=n, communities=4, t=2, intra=8.0 / n, inter=0.4 / n,
                      noise=0.2, feature_dim=32, pdr=0.2, seed=seed)
    hyper = Hyperparams(alpha=1.0, beta=0.05, lam=0.01, dim=16, max_iters=6,
                        hidden_dims=(32,), seed=seed, stop_tol=0.0,
                        proximity=ProximityConfig(normalize=True))
    return synth_generate(cfg), hyper


def test_criterion_10_scaling_sanity():
    def per_iter_seconds(n, seed):
        state = train(*scaling_input(n, seed))
        return float(np.mean(state.iter_seconds[1:]))  # drop the warm-up iteration

    # alternate the sizes so a slow spell of a shared machine lands on both sides
    seconds = {600: [], 1200: []}
    for run in range(3):
        for n in seconds:
            seconds[n].append(per_iter_seconds(n, run))
    small, large = np.mean(seconds[600]), np.mean(seconds[1200])
    ratio = large / small
    report(10, "doubling n scales per-iteration time near-linearly",
           ratio < 2.8, f"{small * 1e3:.1f} ms -> {large * 1e3:.1f} ms, ratio {ratio:.2f}")


def test_criterion_10_scaling_work_count(monkeypatch):
    """Criterion 10 as a count: Laplacian products x stacked adjacency nnz per iteration."""
    work = []
    original = ProximityLaplacian.__matmul__

    def counted(self, Y):
        work.append(self.nnz)
        return original(self, Y)
    monkeypatch.setattr(ProximityLaplacian, "__matmul__", counted)

    def per_iter_work(n, seed):
        work.clear()
        state = train(*scaling_input(n, seed))
        return sum(work) / (len(state.objective_trace) - 1)

    per_size = {n: np.mean([per_iter_work(n, seed) for seed in range(3)]) for n in (600, 1200)}
    ratio = per_size[1200] / per_size[600]
    report(10, "doubling n scales per-iteration sparse work near-linearly", ratio < 2.8,
           f"products x stacked nnz {per_size[600]:.3g} -> {per_size[1200]:.3g}, "
           f"ratio {ratio:.2f}")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli_main(["synth", "--n", "60", "--communities", "3", "--views", "2",
                     "--feature-dim", "8", "--pdr", "0.2", "--seed", "5",
                     "--out", str(data)]) == 0
    flags = ["--manifest", str(data / "manifest.txt"), "--dim", "6",
             "--max-iters", "5", "--layers", "10", "--seed", "5"]
    assert cli_main(["train", *flags, "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["train", *flags, "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    with open(tmp_path / "a" / "embeddings.tsv", "rb") as fa, \
            open(tmp_path / "b" / "embeddings.tsv", "rb") as fb:
        identical = fa.read() == fb.read()
    report(11, "identical flags and seed give byte-identical embedding files", identical)
