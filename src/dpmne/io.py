"""Dataset files, manifests, embedding export and training checkpoints.

Every dataset file except the manifest is a table: LF-terminated lines of
tab-separated numbers, read by ``_read_table`` and written by
``_write_table``. Numbers are read with Python's ``float`` and ``int`` and
reals written as %.17g, so a load/save round trip is byte-stable. Empty
lines are skipped in edge and mask files only. Every rejected table raises
one ``ManifestError`` naming ``path:line[:col]``. The checkpoint is a single
.npz archive holding everything needed to resume training.
"""

import dataclasses
import json
import os

import numpy as np
import scipy.sparse as sp

from .autoencoder import AutoencoderParams
from .graph_model import MultiplexNetwork, ViewData, validate
from .proximity import ProximityConfig
from .quantizer import pack_codes
from .trainer import EmbeddingState, Hyperparams

MANIFEST_FORMAT = 1


class ManifestError(ValueError):
    """Raised for malformed manifests or dataset files; message carries location."""


def _read_table(path, width, parse, rows=None):
    """Parse the lines of ``path`` as ``width`` tab-separated values each.

    ``parse`` is ``float`` or ``int``. With ``rows`` the file must have
    exactly that many lines; without, empty lines are skipped. Returns the
    (lines, width) array and the line number of each of its rows.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if rows is not None and len(lines) != rows:
        raise ManifestError(f"{path}:{min(len(lines), rows) + 1}: "
                            f"expected {rows} lines, found {len(lines)}")
    line_nos = [i for i, line in enumerate(lines, start=1) if rows is not None or line]
    values = []
    for line_no in line_nos:
        tokens = lines[line_no - 1].split("\t")
        if len(tokens) != width:
            raise ManifestError(f"{path}:{line_no}: expected {width} values, found {len(tokens)}")
        try:
            values.append(list(map(parse, tokens)))
        except ValueError:  # find the token at fault
            for col, token in enumerate(tokens, start=1):
                try:
                    parse(token)
                except ValueError:
                    kind = "a number" if parse is float else "an integer"
                    raise ManifestError(f"{path}:{line_no}:{col}: not {kind}: {token!r}") from None
    try:
        table = np.array(values, dtype=np.float64 if parse is float else np.int64)
    except OverflowError:  # int() has no bound, int64 has
        i, col = next((i, col) for i, row in enumerate(values)
                      for col, v in enumerate(row, start=1) if not -2**63 <= v < 2**63)
        raise ManifestError(f"{path}:{line_nos[i]}:{col}: "
                            f"{values[i][col - 1]} outside the int64 range") from None
    return table.reshape(-1, width), line_nos


def _read_nodes(path, n, width):
    """Node ids, ``width`` to a line, each in [0, n)."""
    nodes, line_nos = _read_table(path, width, int)
    outside = np.argwhere((nodes < 0) | (nodes >= n))
    if outside.size:
        i, j = outside[0]
        raise ManifestError(f"{path}:{line_nos[i]}:{j + 1}: node {nodes[i, j]} outside [0, {n})")
    return nodes


def _read_edges(path, n):
    u, v = _read_nodes(path, n, 2).T
    adj = sp.csr_matrix((np.ones(2 * u.size), (np.concatenate([u, v]), np.concatenate([v, u]))),
                        shape=(n, n))
    adj.data[:] = 1.0  # repeated edges and self-loops were summed; keep them 0/1
    return adj


def _write_table(path, rows, fmt):
    """Write ``rows`` (a 1-D array writes one value to a line) tab-separated, LF-terminated."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, rows, fmt=fmt, delimiter="\t")


def load_network(manifest_path):
    """Parse a dataset manifest, build the network, and reject any violation."""
    if not os.path.exists(manifest_path):
        raise ManifestError(f"{manifest_path}: no such file")
    base = os.path.dirname(os.path.abspath(manifest_path))
    entries = {}
    with open(manifest_path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh.read().splitlines(), start=1):
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ManifestError(f"{manifest_path}:{line_no}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            entries[key.strip()] = value.strip()

    fmt = entries.get("format")
    if fmt != str(MANIFEST_FORMAT):
        raise ManifestError(f"{manifest_path}: unsupported format {fmt!r}")
    try:
        n = int(entries["n"])
        t = int(entries["t"])
    except KeyError as exc:
        raise ManifestError(f"{manifest_path}: missing required key {exc}")
    except ValueError:
        raise ManifestError(f"{manifest_path}: n and t must be integers")

    views = []
    for s in range(t):
        prefix = f"view.{s}."
        try:
            dim = int(entries[prefix + "dim"])
            feat_path = os.path.join(base, entries[prefix + "features"])
            edge_path = os.path.join(base, entries[prefix + "edges"])
            mask_path = os.path.join(base, entries[prefix + "mask"])
        except KeyError as exc:
            raise ManifestError(f"{manifest_path}: missing key {exc} for view {s}")
        for path in (feat_path, edge_path, mask_path):
            if not os.path.exists(path):
                raise ManifestError(f"{manifest_path}: view {s} file missing: {path}")
        features = _read_table(feat_path, dim, float, rows=n)[0]
        adjacency = _read_edges(edge_path, n)
        mask = np.ones(n, dtype=bool)
        mask[_read_nodes(mask_path, n, 1).ravel()] = False
        views.append(ViewData(dim, features, mask, adjacency))

    labels = None
    if "labels" in entries:
        labels_path = os.path.join(base, entries["labels"])
        if not os.path.exists(labels_path):
            raise ManifestError(f"{manifest_path}: labels file missing: {labels_path}")
        labels = _read_table(labels_path, 1, int, rows=n)[0].ravel()

    network = MultiplexNetwork(n, t, views, labels)
    violations = validate(network)
    if violations:
        raise ManifestError(f"{manifest_path}: invalid network: " + "; ".join(violations))
    return network


def save_network(network, out_dir, manifest_name="manifest.txt"):
    """Write the canonical dataset files; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    lines = [f"format={MANIFEST_FORMAT}", f"n={network.n}", f"t={network.t}"]
    if network.labels is not None:
        lines.append("labels=labels.txt")
        _write_table(os.path.join(out_dir, "labels.txt"), network.labels, "%d")
    for s, view in enumerate(network.views):
        feat_name = f"view{s}.features.tsv"
        edge_name = f"view{s}.edges.tsv"
        mask_name = f"view{s}.mask.txt"
        lines += [f"view.{s}.dim={view.dim}",
                  f"view.{s}.features={feat_name}",
                  f"view.{s}.edges={edge_name}",
                  f"view.{s}.mask={mask_name}"]
        _write_table(os.path.join(out_dir, feat_name), view.features, "%.17g")
        coo = sp.triu(view.adjacency, k=1).tocoo()
        order = np.lexsort((coo.col, coo.row))
        _write_table(os.path.join(out_dir, edge_name),
                     np.column_stack([coo.row, coo.col])[order], "%d")
        _write_table(os.path.join(out_dir, mask_name), np.flatnonzero(~view.mask), "%d")
    manifest_path = os.path.join(out_dir, manifest_name)
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return manifest_path


def save_embeddings(matrix, path, fmt="tsv"):
    """Write embeddings (or codes) as node_id + values, or as packed bits."""
    matrix = np.asarray(matrix)
    if fmt == "tsv":
        _write_table(path, np.column_stack([np.arange(len(matrix)), matrix]),
                     ["%d"] + ["%.17g"] * matrix.shape[1])
    elif fmt == "packed":
        pack_codes(matrix).tofile(path)
    else:
        raise ValueError(f"unknown embedding format {fmt!r}; use 'tsv' or 'packed'")


def _hyper_to_json(hyper):
    data = dataclasses.asdict(hyper)
    data["hidden_dims"] = list(data["hidden_dims"])
    prox = data["proximity"]
    if prox["weights"] is not None:
        prox["weights"] = list(prox["weights"])
    return json.dumps(data)


def _hyper_from_json(blob):
    data = json.loads(blob)
    prox = data.pop("proximity")
    weights = prox["weights"]
    config = ProximityConfig(order=prox["order"],
                             weights=None if weights is None else tuple(weights),
                             normalize=prox["normalize"])
    data["hidden_dims"] = tuple(data["hidden_dims"])
    data.pop("y_lr", None)  # older checkpoints store the Y block's retired Armijo step
    return Hyperparams(proximity=config, **data)


def checkpoint(state, path):
    """Persist a training state to one .npz archive."""
    arrays = {"Y": state.Y,
              "trace": np.asarray(state.objective_trace, dtype=np.float64),
              "iter_seconds": np.asarray(state.iter_seconds, dtype=np.float64)}
    meta = {"format": 1,
            "t": len(state.B),
            "hyper": _hyper_to_json(state.hyper),
            "activations": [[p.activation, p.output_activation]
                            for p in state.autoencoders],
            "enc_layers": [len(p.enc_weights) for p in state.autoencoders]}
    for s in range(len(state.B)):
        arrays[f"B_{s}"] = state.B[s]
        arrays[f"H_{s}"] = state.H[s]
        arrays[f"mask_{s}"] = state.masks[s]
        params = state.autoencoders[s]
        for k, W in enumerate(params.enc_weights):
            arrays[f"ae{s}_enc_w{k}"] = W
        for k, b in enumerate(params.enc_biases):
            arrays[f"ae{s}_enc_b{k}"] = b
        for k, W in enumerate(params.dec_weights):
            arrays[f"ae{s}_dec_w{k}"] = W
        for k, b in enumerate(params.dec_biases):
            arrays[f"ae{s}_dec_b{k}"] = b
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


def _shape_text(shape):
    dims = ["*" if w is None else str(w) for w in shape]
    return "(" + ", ".join(dims) + ("," if len(dims) == 1 else "") + ")"


def restore(path):
    """Rebuild the training state saved by ``checkpoint``.

    Every array must be present and agree in shape with the metadata and
    with the other arrays: Y is (n, dim), each B_s (dim, code), H_s
    (n, code) and mask_s (n,), each autoencoder's layer widths chain, and
    the trace and iteration times are 1-D. Otherwise one ValueError names
    the array.
    """
    with np.load(path, allow_pickle=False) as archive:
        def array(name, *shape):
            """The archive's array ``name``; a ``None`` in ``shape`` matches any size."""
            if name not in archive.files:
                raise ValueError(f"{path}: checkpoint has no array {name!r}")
            value = archive[name]
            if value.ndim != len(shape) or any(
                    w is not None and w != got for w, got in zip(shape, value.shape)):
                raise ValueError(f"{path}: checkpoint array {name!r} has shape "
                                 f"{_shape_text(value.shape)}, expected {_shape_text(shape)}")
            return value

        meta = json.loads(str(array("meta")))
        if meta.get("format") != 1:
            raise ValueError(f"{path}: unsupported checkpoint format {meta.get('format')!r}")
        try:
            hyper = _hyper_from_json(meta["hyper"])
            t, enc_layers, activations = meta["t"], meta["enc_layers"], meta["activations"]
        except KeyError as exc:
            raise ValueError(f"{path}: checkpoint metadata has no {exc}") from None
        if len(enc_layers) != t or len(activations) != t:
            raise ValueError(f"{path}: checkpoint metadata lists {len(enc_layers)} encoders "
                             f"and {len(activations)} activation pairs for {t} views")
        Y = array("Y", None, hyper.dim)
        n = Y.shape[0]
        B, H, masks, autoencoders = [], [], [], []
        for s in range(t):
            layers = enc_layers[s]
            if layers < 1:
                raise ValueError(f"{path}: view {s} autoencoder has {layers} encoder layers")
            widths = [None]
            enc_w, enc_b = [], []
            for k in range(layers):
                enc_w.append(array(f"ae{s}_enc_w{k}", widths[-1], None))
                widths[-1] = enc_w[-1].shape[0]  # fixes the input width on the first layer
                widths.append(enc_w[-1].shape[1])
                enc_b.append(array(f"ae{s}_enc_b{k}", widths[-1]))
            rev = widths[::-1]
            dec_w = [array(f"ae{s}_dec_w{k}", rev[k], rev[k + 1]) for k in range(layers)]
            dec_b = [array(f"ae{s}_dec_b{k}", rev[k + 1]) for k in range(layers)]
            B.append(array(f"B_{s}", hyper.dim, widths[-1]))
            H.append(array(f"H_{s}", n, widths[-1]))
            masks.append(array(f"mask_{s}", n).astype(bool))
            act, out_act = activations[s]
            autoencoders.append(AutoencoderParams(
                enc_weights=enc_w, enc_biases=enc_b, dec_weights=dec_w, dec_biases=dec_b,
                activation=act, output_activation=out_act))
        return EmbeddingState(
            Y=Y, B=B, H=H, masks=masks, autoencoders=autoencoders,
            hyper=hyper, objective_trace=array("trace", None).tolist(),
            iter_seconds=array("iter_seconds", None).tolist())
