"""Command-line interface: synth, train, binarize, eval, sweep-pdr, tune."""

import argparse
import inspect
import os
import sys
from dataclasses import MISSING, fields

import numpy as np

from . import io
from .evaluation import (SWEEP_METHODS, EvalProtocol, _check_folds, _check_sweep, _grid_hypers,
                         classify_f1, cluster_accuracy, cross_validate, pdr_sweep)
from .graph_model import SynthConfig, normalize_features, synth_generate
from .proximity import ProximityConfig
from .quantizer import _check_iterations, binarize_sign, itq
from .trainer import Hyperparams, train


def _floats(text):
    return [float(tok) for tok in text.split(",") if tok]


def _ints(text):
    return [int(tok) for tok in text.split(",") if tok]


def _scalar_or_list(values):
    return values[0] if len(values) == 1 else values


def _per_view_floats(text):
    """One value for every view, or a comma-separated value per view."""
    return _scalar_or_list(_floats(text))


def _per_view_ints(text):
    return _scalar_or_list(_ints(text))


def _widths(text):
    return tuple(_ints(text))


# flag defaults come from the library's own defaults
_HYPER = Hyperparams()
_PROXIMITY = ProximityConfig()
_PROTOCOL = EvalProtocol()
_SYNTH = {f.name: f.default for f in fields(SynthConfig) if f.default is not MISSING}


def _add_hyper_flags(p, tradeoffs=True):
    if tradeoffs:
        p.add_argument("--alpha", type=float, default=_HYPER.alpha)
        p.add_argument("--beta", type=float, default=_HYPER.beta)
        p.add_argument("--lambda", dest="lam", type=float, default=_HYPER.lam)
    p.add_argument("--dim", type=int, default=_HYPER.dim)
    p.add_argument("--max-iters", type=int, default=_HYPER.max_iters)
    p.add_argument("--layers", dest="hidden_dims", metavar="LAYERS", type=_widths,
                   default=_HYPER.hidden_dims,
                   help="comma-separated encoder widths, last one is the code size")


def _add_protocol_flags(p):
    p.add_argument("--train-frac", dest="train_fraction", metavar="TRAIN_FRAC", type=float,
                   default=_PROTOCOL.train_fraction)
    p.add_argument("--repeats", type=int, default=_PROTOCOL.repeats)


def _build_parser():
    parser = argparse.ArgumentParser(prog="dpmne",
                                     description="Partial multiplex network embedding")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted-partition dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--communities", type=int, required=True)
    p.add_argument("--views", dest="t", metavar="VIEWS", type=int, default=_SYNTH["t"])
    for name in ("intra", "inter", "noise", "pdr"):
        p.add_argument(f"--{name}", type=_per_view_floats, default=_SYNTH[name])
    p.add_argument("--feature-dim", type=_per_view_ints, default=_SYNTH["feature_dim"])
    p.add_argument("--seed", type=int, default=_SYNTH["seed"])
    p.add_argument("--out", required=True, help="output dataset directory")

    p = sub.add_parser("train", help="learn embeddings from a dataset manifest")
    p.add_argument("--manifest", required=True)
    _add_hyper_flags(p)
    p.add_argument("--y-steps", type=int, default=_HYPER.y_steps)
    p.add_argument("--h-steps", type=int, default=_HYPER.h_steps)
    p.add_argument("--order", type=int, default=_PROXIMITY.order, help="proximity order")
    p.add_argument("--normalize-features", action="store_true")
    p.add_argument("--seed", type=int, default=_HYPER.seed)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("binarize", help="binary codes from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--itq", action="store_true", help="optimize a rotation first")
    p.add_argument("--iters", type=int, default=None, help="rotation iterations")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("eval", help="score embeddings against dataset labels")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--task", choices=("classify", "cluster"), required=True)
    _add_protocol_flags(p)
    p.add_argument("--seed", type=int, default=_PROTOCOL.seed)

    p = sub.add_parser("sweep-pdr", help="metrics across missing-data ratios")
    p.add_argument("--manifest", required=True)
    p.add_argument("--ratios", type=_floats, required=True)
    p.add_argument("--methods", default=",".join(SWEEP_METHODS))
    _add_hyper_flags(p)
    _add_protocol_flags(p)
    p.add_argument("--seed", type=int, default=_PROTOCOL.seed)
    p.add_argument("--out", default=None, help="directory for table + long-format files")

    p = sub.add_parser("tune", help="grid search by k-fold cross validation")
    p.add_argument("--manifest", required=True)
    p.add_argument("--grid", required=True,
                   help="semicolon-separated alpha,beta,lambda triples, e.g. '1,0.1,0.01;1,1,0.01'")
    p.add_argument("--folds", type=int,
                   default=inspect.signature(cross_validate).parameters["folds"].default)
    _add_hyper_flags(p, tradeoffs=False)
    p.add_argument("--seed", type=int, default=_HYPER.seed)
    return parser


def _hyper_from_args(args):
    """Hyperparams from the flags a subcommand has; fields without a flag keep their default."""
    flags = vars(args)
    kwargs = {f.name: flags[f.name] for f in fields(Hyperparams) if f.name in flags}
    if "order" in flags:
        kwargs["proximity"] = ProximityConfig(order=flags["order"])
    return Hyperparams(**kwargs)


def _protocol_from_args(args):
    return EvalProtocol(train_fraction=args.train_fraction, repeats=args.repeats,
                        seed=args.seed)


def _synth_config_from_args(args):
    flags = vars(args)
    return SynthConfig(**{f.name: flags[f.name] for f in fields(SynthConfig)})


def _cmd_synth(args):
    manifest = io.save_network(synth_generate(_synth_config_from_args(args)), args.out)
    print(manifest)
    return 0


def _cmd_train(args):
    hyper = _hyper_from_args(args)
    network = io.load_network(args.manifest)
    if args.normalize_features:
        network = normalize_features(network)
    state = train(network, hyper)
    os.makedirs(args.out, exist_ok=True)
    io.checkpoint(state, os.path.join(args.out, "checkpoint.npz"))
    io.save_embeddings(state.Y, os.path.join(args.out, "embeddings.tsv"))
    print(f"{os.path.join(args.out, 'checkpoint.npz')}\t"
          f"objective={state.objective_trace[-1]:.17g}\t"
          f"iterations={len(state.objective_trace) - 1}")
    return 0


def _cmd_binarize(args):
    if args.iters is not None:
        if not args.itq:
            raise ValueError("--iters only applies together with --itq")
        _check_iterations(args.iters)
    state = io.restore(args.checkpoint)
    if args.itq:
        codes = itq(state.Y) if args.iters is None else itq(state.Y, iterations=args.iters)
    else:
        codes = binarize_sign(state.Y)
    os.makedirs(args.out, exist_ok=True)
    io.save_embeddings(codes.codes, os.path.join(args.out, "codes.tsv"))
    io.save_embeddings(codes.codes, os.path.join(args.out, "codes.bin"), fmt="packed")
    print(f"{os.path.join(args.out, 'codes.tsv')}\tquant_loss={codes.quant_loss:.17g}")
    return 0


def _cmd_eval(args):
    protocol = _protocol_from_args(args)
    network = io.load_network(args.manifest)
    if network.labels is None:
        raise ValueError("eval needs a dataset with labels")
    state = io.restore(args.checkpoint)
    if args.task == "classify":
        rep = classify_f1(state.Y, network.labels, protocol)
        print("metric\tmean\tstd")
        print(f"micro_f1\t{rep.micro_f1:.6f}\t{rep.micro_f1_std:.6f}")
        print(f"macro_f1\t{rep.macro_f1:.6f}\t{rep.macro_f1_std:.6f}")
    else:
        acc = cluster_accuracy(state.Y, network.labels,
                               int(np.unique(network.labels).size), seed=args.seed)
        print("metric\tvalue")
        print(f"clustering_accuracy\t{acc:.6f}")
    return 0


def _cmd_sweep(args):
    methods = tuple(tok for tok in args.methods.split(",") if tok)
    _check_sweep(args.ratios, methods)
    protocol = _protocol_from_args(args)
    hyper = _hyper_from_args(args)
    network = io.load_network(args.manifest)
    rows = pdr_sweep(network, args.ratios, methods, protocol, hyper)
    header = "ratio\tmethod\tmicro_f1\tmicro_f1_std\tmacro_f1\tmacro_f1_std"
    wide = [header] + [
        f"{r.ratio:g}\t{r.method}\t{r.report.micro_f1:.6f}\t{r.report.micro_f1_std:.6f}"
        f"\t{r.report.macro_f1:.6f}\t{r.report.macro_f1_std:.6f}" for r in rows]
    long_rows = ["ratio\tmethod\tmetric\tmean\tstd"]
    for r in rows:
        long_rows.append(f"{r.ratio:g}\t{r.method}\tmicro_f1\t"
                         f"{r.report.micro_f1:.6f}\t{r.report.micro_f1_std:.6f}")
        long_rows.append(f"{r.ratio:g}\t{r.method}\tmacro_f1\t"
                         f"{r.report.macro_f1:.6f}\t{r.report.macro_f1_std:.6f}")
    print("\n".join(wide))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "sweep.tsv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(wide) + "\n")
        with open(os.path.join(args.out, "sweep_long.tsv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(long_rows) + "\n")
    return 0


def _cmd_tune(args):
    points = [_floats(chunk) for chunk in args.grid.split(";") if chunk.strip()]
    base = _hyper_from_args(args)
    protocol = EvalProtocol(seed=args.seed)
    _grid_hypers(points, base)
    _check_folds(args.folds)  # the upper bound, the node count, waits for the manifest
    network = io.load_network(args.manifest)
    best = cross_validate(network, points, folds=args.folds, protocol=protocol,
                          base_hyper=base)
    print(f"alpha={best.alpha:g}\tbeta={best.beta:g}\tlambda={best.lam:g}")
    return 0


_HANDLERS = {"synth": _cmd_synth, "train": _cmd_train, "binarize": _cmd_binarize,
             "eval": _cmd_eval, "sweep-pdr": _cmd_sweep, "tune": _cmd_tune}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # one parsable line, nonzero exit
        print(f"dpmne-error\t{type(exc).__name__}\t{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
