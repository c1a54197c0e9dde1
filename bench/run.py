"""Run one dpmne benchmark workload and print its metrics.

    python3 bench/run.py --workload pipeline-n1500 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; dpmne is imported from ``src/`` there.
With ``--trace 0`` every pass is untraced and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics come from the traced ones. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. ``--workload all`` runs each workload in its own process and
prints one table. Full results, the environment record and (when traced)
the spans go to ``bench/out/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
from workloads import WORKLOADS, OpFailed, Ops, check_train_state

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# Inputs per run, each made by one set-up from its own seed. Passes cycle
# through them, so a run's medians average over inputs as well as over time,
# and the quality metrics are means over them.
INPUTS = 5
# fresh-interpreter imports per run; setup_s adds their median
IMPORT_PROBES = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "train_s": "s", "peak_rss_mb": "MB",
                    "micro_f1": "1", "macro_f1": "1", "objective_final": "1"}
# printed and saved but not bounded: k-means accuracy moves by ~7% between
# seeds even as a mean over five inputs
UNBOUNDED_UNITS = {"cluster_acc": "1"}


SETUP_LAYERS = ("graph_model.synth_generate_s", "io.save_network_s")

LAYERS = ("graph_model", "io", "proximity", "trainer", "optim", "autoencoder", "parallel",
          "evaluation", "quantizer")

PER_LAYER_UNITS = {
    "graph_model.synth_generate_s": "s", "io.save_network_s": "s",
    "proximity.build_stack_s": "s", "proximity.build_stack_calls": "count",
    "proximity.laplacian_nnz": "count", "proximity.laplacian_density": "1",
    "proximity.laplacian_mb_computed": "MB",
    "trainer.train_s": "s", "trainer.update_Y_s": "s", "trainer.update_B_s": "s",
    "trainer.update_H_s": "s", "trainer.objective_s": "s", "trainer.other_s": "s",
    "trainer.iterations": "count",
    "autoencoder.train_view_autoencoder_s": "s",
    "autoencoder.train_view_autoencoder_calls": "count",
    "parallel.map_views_s": "s", "parallel.task_s": "s", "parallel.overlap": "1",
    "parallel.workers": "count",
    "evaluation.classify_f1_s": "s", "evaluation.fit_logistic_regression_s": "s",
    "evaluation.cluster_accuracy_s": "s", "evaluation.knn_impute_s": "s",
    "graph_model.apply_pdr_s": "s",
    "quantizer.itq_s": "s", "quantizer.itq_rounds": "count", "quantizer.pack_codes_s": "s",
    "io.load_network_s": "s", "io.checkpoint_s": "s", "io.restore_s": "s",
    "io.checkpoint_bytes": "bytes", "io.dataset_bytes": "bytes",
    **{f"optim.{b}_{k}": u for b in ("Y", "H", "logreg")
       for k, u in (("evals", "count"), ("steps", "count"), ("accept_ratio", "1"))},
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}

# times ``import dpmne`` in a fresh interpreter, as a user's first import pays it
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "tic = time.perf_counter(); import dpmne; print(time.perf_counter() - tic)")


def import_dpmne():
    """Import dpmne from this checkout's src/; returns (package, import seconds per probe)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dpmne", "__init__.py")):
        raise SystemExit(f"bench: no dpmne package under {src}")
    probes = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src], capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"bench: importing dpmne failed:\n{proc.stderr}")
        probes.append(float(proc.stdout))
    sys.path.insert(0, src)
    import dpmne
    if os.path.dirname(os.path.dirname(os.path.abspath(dpmne.__file__))) != src:
        raise SystemExit(f"bench: dpmne imported from {dpmne.__file__}, not {src}")
    return dpmne, probes


def environment(dp, workload, seed, views):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {name: os.environ.get(name) for name in
           ("DPMNE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update({
        "workload": workload, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "worker_count": dp.parallel.worker_count(views),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
    })
    return env


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer, result, states):
    """Per-layer metrics of one traced pass."""
    seconds, calls = tracing.totals(tracer.spans)
    counts, peak = tracer.counts, tracer.values

    def s(name):
        return seconds.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    train_s = s("trainer.train")
    m = {
        "proximity.build_stack_s": s("proximity.build_stack"),
        "proximity.build_stack_calls": calls.get("proximity.build_stack", 0),
        "proximity.laplacian_nnz": peak.get("proximity.laplacian_nnz", 0),
        "proximity.laplacian_density": peak.get("proximity.laplacian_density", 0.0),
        "proximity.laplacian_mb_computed": peak.get("proximity.laplacian_mb_computed", 0.0),
        "trainer.train_s": train_s,
        "trainer.update_Y_s": s("trainer.update_Y"),
        "trainer.update_B_s": s("trainer.update_B"),
        "trainer.update_H_s": s("trainer.update_H"),
        "trainer.objective_s": s("trainer.objective"),
        "trainer.iterations": sum(len(st.objective_trace) - 1 for st in states),
        "autoencoder.train_view_autoencoder_s": s("autoencoder.train_view_autoencoder"),
        "autoencoder.train_view_autoencoder_calls":
            calls.get("autoencoder.train_view_autoencoder", 0),
        "parallel.map_views_s": s("parallel.map_views"),
        "parallel.task_s": counts.get("parallel.task_s", 0.0),
        "parallel.overlap": ratio(counts.get("parallel.task_s", 0.0), s("parallel.map_views")),
        "parallel.workers": peak.get("parallel.workers", 0),
        "evaluation.classify_f1_s": s("evaluation.classify_f1"),
        "evaluation.fit_logistic_regression_s": s("evaluation.fit_logistic_regression"),
        "evaluation.cluster_accuracy_s": s("evaluation.cluster_accuracy"),
        "evaluation.knn_impute_s": s("evaluation.knn_impute"),
        "graph_model.apply_pdr_s": s("graph_model.apply_pdr"),
        "quantizer.itq_s": s("quantizer.itq"),
        "quantizer.itq_rounds": result.get("itq_rounds", 0),
        "quantizer.pack_codes_s": s("quantizer.pack_codes"),
        "io.load_network_s": s("io.load_network"),
        "io.checkpoint_s": s("io.checkpoint"),
        "io.restore_s": s("io.restore"),
        "io.checkpoint_bytes": result.get("checkpoint_bytes", 0),
        "io.dataset_bytes": result.get("dataset_bytes", 0),
    }
    for block in ("Y", "H", "logreg"):
        evals = counts.get(f"optim.{block}_evals", 0)
        steps = counts.get(f"optim.{block}_steps", 0)
        m[f"optim.{block}_evals"] = evals
        m[f"optim.{block}_steps"] = steps
        m[f"optim.{block}_accept_ratio"] = ratio(steps, evals)
    for layer, own in tracing.self_times(tracer.spans).items():
        m[f"self.{layer}_s"] = own
    return m


def measure(dp, workload, args, ops, workdir):
    """Set up the inputs, then run passes until ``args.seconds`` is used.

    Returns (inputs, passes, set-up seconds, traced set-up layer times).
    A failed call into dpmne raises ``OpFailed`` out of here.
    """
    recorder, tracer = tracing.TrainRecorder(), tracing.Tracer()
    inputs, passes, setup_seconds, setup_layers = [], [], [], []
    base = tracing.Patches()
    try:
        tracing.install_train_recorder(dp, recorder, base)
        for k in range(INPUTS):
            traced = tracing.Patches()
            if args.trace:
                tracing.install_tracer(dp, tracer, traced)
            tic = time.perf_counter()
            try:
                inputs.append(ops.call("setup", workload.setup, dp, args.seed * INPUTS + k,
                                       args.tiny, os.path.join(workdir, f"input{k}")))
            finally:
                setup_seconds.append(time.perf_counter() - tic)
                traced.restore()
            if args.trace:
                seconds, _ = tracing.totals(tracer.spans)
                setup_layers.append({name: seconds.get(name[:-2], 0.0) for name in SETUP_LAYERS})
                tracer.reset()

        start = time.perf_counter()
        while True:
            # a traced run pairs each traced pass with an untraced one on the same input
            traced_pass = bool(args.trace) and len(passes) % 2 == 1
            source = inputs[(len(passes) // (2 if args.trace else 1)) % len(inputs)]
            traced = tracing.Patches()
            if traced_pass:
                tracing.install_tracer(dp, tracer, traced)
            recorder.reset()
            tic = time.perf_counter()
            try:
                result = workload.run_pass(dp, source, ops, workdir)
            finally:
                wall = time.perf_counter() - tic
                traced.restore()
            for i, state in enumerate(recorder.states):
                check_train_state(ops, f"train call {i}", state)
            record = {"traced": traced_pass, "input": source.seed, "wall_s": wall,
                      "train_s": sum(recorder.seconds), "result": result,
                      "states": list(recorder.states)}
            if traced_pass:
                record["layers"] = layer_metrics(tracer, result, record["states"])
                record["spans"] = tracer.spans
                tracer.reset()
            passes.append(record)
            elapsed = time.perf_counter() - start
            needed = 2 if args.trace else len(inputs)
            if ops.failed or (len(passes) >= needed
                              and elapsed * (len(passes) + 1) / len(passes) > args.seconds):
                return inputs, passes, setup_seconds, setup_layers
    finally:
        base.restore()


def summarize_layers(passes, setup_layers):
    """Per-layer metrics of a traced run: medians over its traced passes."""
    traced = [p for p in passes if p["traced"]]
    per_layer = {}
    for name in PER_LAYER_UNITS:
        if name in SETUP_LAYERS:
            per_layer[name] = _median([s[name] for s in setup_layers])
        else:
            per_layer[name] = _median([p["layers"].get(name, 0.0) for p in traced])
    # the remainder of train_s, from the reported medians so that the parts add up
    per_layer["trainer.other_s"] = per_layer["trainer.train_s"] - sum(
        per_layer[name] for name in ("proximity.build_stack_s", "trainer.update_Y_s",
                                     "trainer.update_B_s", "trainer.update_H_s",
                                     "trainer.objective_s"))
    per_layer["trace.overhead_s"] = _median(
        [t["wall_s"] - u["wall_s"] for u, t in zip(passes[::2], passes[1::2])])
    return per_layer


def run_workload(args):
    dp, import_seconds = import_dpmne()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    size = workload.sizes["tiny" if args.tiny else "full"]
    env = environment(dp, workload.name, args.seed, size["synth"]["t"])
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    ops = Ops()
    inputs, passes, setup_seconds, setup_layers, quality = [], [], [], [], {}
    try:
        inputs, passes, setup_seconds, setup_layers = measure(dp, workload, args, ops, workdir)
        if not args.trace:
            quality = quality_metrics(dp, workload, inputs, passes, ops)
    except OpFailed:
        pass
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    end_to_end = {
        "setup_s": _median(import_seconds) + _median(setup_seconds),
        "wall_s": _median([p["wall_s"] for p in plain]),
        "train_s": _median([p["train_s"] for p in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **quality,
    }
    per_layer = summarize_layers(passes, setup_layers) if args.trace else {}
    correct = ops.failed == 0 and bool(passes)
    report = {
        "workload": workload.name, "why": workload.why, "env": env,
        "import_seconds": import_seconds, "setup_seconds": setup_seconds,
        "passes": [{k: p[k] for k in ("traced", "input", "wall_s", "train_s")} for p in passes],
        "attempted": ops.attempted, "failed": ops.failed,
        "failed_ops_frac": ops.failed / max(ops.attempted, 1), "problems": ops.problems,
        "end_to_end": end_to_end, "per_layer": per_layer,
    }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if args.trace:
        spans = [{"pass": i, "id": sid, "name": n, "start": a, "end": b, "parent": par}
                 for i, p in enumerate(passes) if p["traced"]
                 for sid, n, a, b, par in p["spans"]]
        with open(os.path.join(OUT_DIR, name + ".spans.json"), "w", encoding="utf-8") as fh:
            json.dump(spans, fh)

    for problem in ops.problems:
        print("problem:", problem)
    print("env", json.dumps(env))
    shown = per_layer if args.trace else end_to_end
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for key, value in shown.items():
        unit = units.get(key) or UNBOUNDED_UNITS[key]
        print(f"{workload.name:16s} {key:42s} {value:.6g} {unit}")
    print(f"{workload.name:16s} {'failed_ops_frac':42s} {report['failed_ops_frac']:.6g} ratio"
          f"  ({ops.failed} of {ops.attempted})")
    print(f"{workload.name:16s} {'passes':42s} {len(plain)} untraced, "
          f"{len(passes) - len(plain)} traced")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in shown.items() if k in units}
    print(json.dumps({"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def quality_metrics(dp, workload, inputs, passes, ops):
    """Output quality, averaged over the inputs: F1, cluster accuracy, final objective.

    Passes are deterministic in their input, so each input is scored from
    the first pass that ran on it. Cluster accuracy is computed here, after
    the timed passes, unless the pass measured it itself (the pipeline does).
    """
    per_input = []
    for source in inputs:
        record = next((p for p in passes if p["input"] == source.seed), None)
        if record is None:
            continue
        result = record["result"]
        runs = [record["states"][i] for i in result.get("quality_runs", [0])]
        acc = result.get("cluster_acc")
        if acc is None:
            acc = statistics.fmean(
                ops.call("cluster_accuracy", dp.evaluation.cluster_accuracy, st.Y,
                         source.network.labels, workload.communities(source), seed=source.seed)
                for st in runs)
        per_input.append({"micro_f1": statistics.fmean(result["micro"]),
                          "macro_f1": statistics.fmean(result["macro"]),
                          "cluster_acc": acc,
                          "objective_final": statistics.fmean(
                              st.objective_trace[-1] for st in runs)})
    return {key: statistics.fmean(q[key] for q in per_input) for key in per_input[0]
            } if per_input else {}


def run_all(args):
    """Each workload in a process of its own; prints their tables, not their result lines."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        print("\n".join(line for line in proc.stdout.splitlines()[:-1]
                        if not line.startswith("env ")))
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure passes until this much time is used")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test only")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
