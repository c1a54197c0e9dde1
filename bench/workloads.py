"""The benchmark's workloads: inputs made from a seed, one timed pass, checks.

Each workload is a closed loop with one caller in one process: a pass
starts only after the previous one has returned. ``setup`` builds the
inputs from the seed (this is what ``setup_s`` times); ``run_pass`` is the
timed section and returns its results for the checks and the metrics.
Every call into dpmne goes through a module attribute, so the wrappers in
``tracing`` see it.
"""

import os
from dataclasses import dataclass

import numpy as np


class OpFailed(Exception):
    """A call into dpmne raised; the rest of the pass is not attempted."""


class Ops:
    """Counts attempted and failed operations: dpmne calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any failure inside dpmne is a failed operation
            self.failed += 1
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            raise OpFailed(label) from exc

    def check(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"check failed: {label}")


def check_train_state(ops, label, state):
    trace = np.asarray(state.objective_trace, dtype=np.float64)
    ops.check(f"{label}: objective trace finite", bool(np.all(np.isfinite(trace))))
    ops.check(f"{label}: objective trace non-increasing", bool(np.all(np.diff(trace) <= 0.0)))
    ops.check(f"{label}: Y finite", bool(np.all(np.isfinite(state.Y))))


def check_f1(ops, label, micro_f1, communities):
    ops.check(f"{label}: micro F1 above chance", micro_f1 > 1.0 / communities)


def _same_network(a, b):
    if a.n != b.n or a.t != b.t or not np.array_equal(a.labels, b.labels):
        return False
    for va, vb in zip(a.views, b.views):
        if not (np.array_equal(va.features, vb.features) and np.array_equal(va.mask, vb.mask)
                and (va.adjacency != vb.adjacency).nnz == 0):
            return False
    return True


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


@dataclass
class Inputs:
    """One generated network and what a pass needs to run on it."""
    seed: int
    size: dict
    network: object
    manifest: str | None = None


class Workload:
    """A named input family: ``sizes`` maps "full" and "tiny" to its settings."""
    name = ""
    why = ""
    sizes = {}

    def setup(self, dp, seed, tiny, workdir):
        size = self.sizes["tiny" if tiny else "full"]
        config = dp.graph_model.SynthConfig(seed=seed, **size["synth"])
        return Inputs(seed, size, dp.graph_model.synth_generate(config))

    def hyper(self, dp, inputs):
        size = inputs.size
        return dp.trainer.Hyperparams(
            dim=size["dim"], hidden_dims=size["hidden"], max_iters=size["max_iters"],
            proximity=dp.proximity.ProximityConfig(order=size["order"], normalize=True),
            seed=inputs.seed)

    def protocol(self, dp, inputs):
        return dp.evaluation.EvalProtocol(repeats=5, seed=inputs.seed)

    def communities(self, inputs):
        return inputs.size["synth"]["communities"]


class Pipeline(Workload):
    name = "pipeline-n1500"
    why = ("full user path: load, train, checkpoint, restore, classify, cluster, ITQ, pack; "
           "the order-5 Laplacian is dense, so proximity and the Y block dominate")
    # per-view expected degree 4.75, as at n=2500 with intra 0.01 and inter 0.001
    sizes = {
        "full": {"synth": {"n": 1500, "communities": 10, "t": 3, "intra": 0.0167,
                           "inter": 0.00167, "pdr": 0.3},
                 "dim": 32, "hidden": (64,), "order": 5, "max_iters": 2},
        "tiny": {"synth": {"n": 150, "communities": 10, "t": 3, "intra": 0.1,
                           "inter": 0.01, "pdr": 0.3},
                 "dim": 8, "hidden": (16,), "order": 5, "max_iters": 2},
    }

    def setup(self, dp, seed, tiny, workdir):
        inputs = super().setup(dp, seed, tiny, workdir)
        inputs.manifest = dp.io.save_network(inputs.network, os.path.join(workdir, "dataset"))
        return inputs

    def run_pass(self, dp, inputs, ops, workdir):
        communities = self.communities(inputs)
        network = ops.call("load_network", dp.io.load_network, inputs.manifest)
        ops.check("load_network(save_network(net)) round-trips",
                  _same_network(network, inputs.network))
        state = ops.call("train", dp.trainer.train, network, self.hyper(dp, inputs))
        path = os.path.join(workdir, "state.npz")
        ops.call("checkpoint", dp.io.checkpoint, state, path)
        back = ops.call("restore", dp.io.restore, path)
        ops.check("restore(checkpoint(state)) gives back Y bit for bit",
                  back.Y.dtype == state.Y.dtype and np.array_equal(back.Y, state.Y))
        ops.check("restore(checkpoint(state)) gives back the trace bit for bit",
                  np.array_equal(np.asarray(back.objective_trace),
                                 np.asarray(state.objective_trace)))
        report = ops.call("classify_f1", dp.evaluation.classify_f1, state.Y, network.labels,
                          self.protocol(dp, inputs))
        check_f1(ops, "classify_f1", report.micro_f1, communities)
        acc = ops.call("cluster_accuracy", dp.evaluation.cluster_accuracy, state.Y,
                       network.labels, communities, seed=inputs.seed)
        ops.check("cluster accuracy above chance", acc > 1.0 / communities)
        codes = ops.call("itq", dp.quantizer.itq, state.Y, 50)
        ops.check("itq loss trace non-increasing",
                  bool(np.all(np.diff(np.asarray(codes.loss_trace)) <= 0.0)))
        packed = ops.call("pack_codes", dp.quantizer.pack_codes, codes.codes)
        unpacked = ops.call("unpack_codes", dp.quantizer.unpack_codes, packed, state.Y.shape[1])
        ops.check("unpack_codes(pack_codes(C)) == C", np.array_equal(unpacked, codes.codes))
        return {"micro": [report.micro_f1], "macro": [report.macro_f1],
                "cluster_acc": acc, "itq_rounds": len(codes.loss_trace) - 1,
                "checkpoint_bytes": os.path.getsize(path),
                "dataset_bytes": _dir_bytes(os.path.dirname(inputs.manifest))}


class AeWide(Workload):
    name = "ae-wide"
    why = ("300 features per view and a (256, 64) autoencoder over a sparse order-1 "
           "Laplacian, so the H block and the per-view threads dominate")
    sizes = {
        "full": {"synth": {"n": 600, "communities": 8, "t": 3, "feature_dim": 300, "pdr": 0.3},
                 "dim": 64, "hidden": (256, 64), "order": 1, "max_iters": 2},
        "tiny": {"synth": {"n": 120, "communities": 8, "t": 3, "feature_dim": 30, "pdr": 0.3},
                 "dim": 8, "hidden": (16, 8), "order": 1, "max_iters": 2},
    }

    def run_pass(self, dp, inputs, ops, workdir):
        network = inputs.network
        state = ops.call("train", dp.trainer.train, network, self.hyper(dp, inputs))
        report = ops.call("classify_f1", dp.evaluation.classify_f1, state.Y, network.labels,
                          self.protocol(dp, inputs))
        check_f1(ops, "classify_f1", report.micro_f1, self.communities(inputs))
        return {"micro": [report.micro_f1], "macro": [report.macro_f1]}


class SweepPdr(Workload):
    name = "sweep-pdr"
    why = ("pdr_sweep at ratios 0.3 and 0.5 with three methods: six short trainings on "
           "one adjacency, kNN fill and many logistic-regression fits")
    methods = ("dpmne", "zero-fill", "knn-fill")
    sizes = {
        "full": {"synth": {"n": 500, "communities": 5, "t": 3, "pdr": 0.2},
                 "dim": 16, "hidden": (32,), "order": 5, "max_iters": 2},
        "tiny": {"synth": {"n": 150, "communities": 5, "t": 3, "pdr": 0.2},
                 "dim": 8, "hidden": (16,), "order": 5, "max_iters": 2},
    }

    def run_pass(self, dp, inputs, ops, workdir):
        rows = ops.call("pdr_sweep", dp.evaluation.pdr_sweep, inputs.network, [0.3, 0.5],
                        self.methods, self.protocol(dp, inputs), self.hyper(dp, inputs))
        ops.check("one row per (ratio, method)", len(rows) == 2 * len(self.methods))
        for row in rows:
            check_f1(ops, f"{row.method} at pdr {row.ratio}", row.report.micro_f1,
                     self.communities(inputs))
        dpmne_rows = [i for i, row in enumerate(rows) if row.method == "dpmne"]
        # pdr_sweep trains once per row, in row order
        return {"micro": [rows[i].report.micro_f1 for i in dpmne_rows],
                "macro": [rows[i].report.macro_f1 for i in dpmne_rows],
                "quality_runs": dpmne_rows}


WORKLOADS = {w.name: w for w in (Pipeline(), AeWide(), SweepPdr())}
