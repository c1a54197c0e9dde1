"""Dataset files, manifests, embedding export and training checkpoints.

The manifest gives each key once, as key=value lines. Every other dataset
file is a table: LF-terminated lines of tab-separated values, read by
``_read_table`` and written by ``_write_table``. Numbers are read with
Python's ``float`` and ``int`` and reals written as %.17g, so a load/save
round trip is byte-stable. Empty lines are skipped in edge and mask files
only. Every rejected table raises one ``ManifestError`` naming
``path:line[:col]``; the citation loader in ``cora`` reads its files through
the same reader. The checkpoint is a single
.npz archive, written at exactly the path given, holding everything needed to
resume training.
"""

import dataclasses
import json
import os

import numpy as np
import scipy.sparse as sp

from .autoencoder import AutoencoderParams, _layer_widths
from .graph_model import MultiplexNetwork, ViewData, _check_setting, validate
from .proximity import ProximityConfig, default_weights
from .quantizer import pack_codes
from .trainer import EmbeddingState, Hyperparams

MANIFEST_FORMAT = 1
MANIFEST_NAME = "manifest.txt"
CHECKPOINT_FORMAT = 2  # format 1 also stored each view's representations as H_s


class ManifestError(ValueError):
    """Raised for malformed manifests or dataset files; message carries location."""


def _bad_token(path, line_nos, rows, parse, first_col=1):
    """ManifestError at the first token ``parse`` rejects; ``rows[i]`` is on ``line_nos[i]``."""
    for line_no, tokens in zip(line_nos, rows):
        for col, token in enumerate(tokens, start=first_col):
            try:
                parse(token)
            except ValueError:
                kind = "a number" if parse is float else "an integer"
                return ManifestError(f"{path}:{line_no}:{col}: not {kind}: {token!r}")


def _read_table(path, width, parse, rows=None):
    """Parse the lines of ``path`` as ``width`` tab-separated values each.

    ``parse`` is ``float``, ``int`` or ``str`` (the tokens as they are, in
    an object array). ``width`` None takes the width of the first line read.
    With ``rows`` the file must have exactly that many lines; without, empty
    lines are skipped. Returns the (lines, width) array and the line number
    of each of its rows.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if rows is not None and len(lines) != rows:
        raise ManifestError(f"{path}:{min(len(lines), rows) + 1}: "
                            f"expected {rows} lines, found {len(lines)}")
    line_nos = [i for i, line in enumerate(lines, start=1) if rows is not None or line]
    if width is None:
        if not line_nos:
            raise ManifestError(f"{path}: no lines")
        width = lines[line_nos[0] - 1].count("\t") + 1
    values = []
    for line_no in line_nos:
        tokens = lines[line_no - 1].split("\t")
        if len(tokens) != width:
            raise ManifestError(f"{path}:{line_no}: expected {width} values, found {len(tokens)}")
        try:
            values.append(tokens if parse is str else list(map(parse, tokens)))
        except ValueError:
            raise _bad_token(path, [line_no], [tokens], parse) from None
    try:
        table = np.array(values, dtype={float: np.float64, int: np.int64, str: object}[parse])
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


def _symmetric_adjacency(u, v, n):
    """0/1 n x n CSR matrix with entries (u[i], v[i]) and (v[i], u[i])."""
    adj = sp.csr_matrix((np.ones(2 * u.size), (np.concatenate([u, v]), np.concatenate([v, u]))),
                        shape=(n, n))
    adj.data[:] = 1.0  # repeated edges and self-loops were summed; keep them 0/1
    return adj


def _read_edges(path, n):
    return _symmetric_adjacency(*_read_nodes(path, n, 2).T, n)


def _write_table(path, rows, fmt):
    """Write ``rows`` (a 1-D array writes one value to a line) tab-separated, LF-terminated."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, rows, fmt=fmt, delimiter="\t")


def load_network(manifest_path):
    """Parse a dataset manifest, build the network, and reject any violation."""
    if not os.path.exists(manifest_path):
        raise ManifestError(f"{manifest_path}: no such file")
    base = os.path.dirname(os.path.abspath(manifest_path))
    entries, key_lines = {}, {}
    with open(manifest_path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh.read().splitlines(), start=1):
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ManifestError(f"{manifest_path}:{line_no}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in entries:
                raise ManifestError(f"{manifest_path}:{line_no}: key {key!r} "
                                    f"already given at line {key_lines[key]}")
            entries[key], key_lines[key] = value, line_no

    fmt = entries.get("format")
    if fmt != str(MANIFEST_FORMAT):
        raise ManifestError(f"{manifest_path}: unsupported format {fmt!r}")

    def count(key):
        """The value of ``key`` if it is an integer >= 1, else one ManifestError naming the key."""
        try:
            value = int(entries[key])
        except ValueError:
            value = entries[key]  # not an integer: _check_setting rejects the text
        try:
            return _check_setting(key, value, 1, integer=True)
        except ValueError as exc:
            raise ManifestError(f"{manifest_path}: {exc}") from None

    try:
        n, t = count("n"), count("t")
    except KeyError as exc:
        raise ManifestError(f"{manifest_path}: missing required key {exc}")

    views = []
    for s in range(t):
        prefix = f"view.{s}."
        try:
            dim = count(prefix + "dim")
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
        views.append(ViewData(features, mask, adjacency))

    labels = None
    if "labels" in entries:
        labels_path = os.path.join(base, entries["labels"])
        if not os.path.exists(labels_path):
            raise ManifestError(f"{manifest_path}: labels file missing: {labels_path}")
        labels = _read_table(labels_path, 1, int, rows=n)[0].ravel()

    network = MultiplexNetwork(n, views, labels)
    violations = validate(network)
    if violations:
        raise ManifestError(f"{manifest_path}: invalid network: " + "; ".join(violations))
    return network


def save_network(network, out_dir):
    """Write the canonical dataset files; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    lines = [f"format={MANIFEST_FORMAT}", f"n={network.n}", f"t={network.t}"]
    if network.labels is not None:
        lines.append("labels=labels.txt")
        _write_table(os.path.join(out_dir, "labels.txt"), network.labels, "%d")
    for s, view in enumerate(network.views):
        coo = sp.triu(view.adjacency, k=1).tocoo()
        edges = np.column_stack([coo.row, coo.col])[np.lexsort((coo.col, coo.row))]
        lines.append(f"view.{s}.dim={view.dim}")
        for key, name, rows, fmt in (
                ("features", f"view{s}.features.tsv", view.features, "%.17g"),
                ("edges", f"view{s}.edges.tsv", edges, "%d"),
                ("mask", f"view{s}.mask.txt", np.flatnonzero(~view.mask), "%d")):
            lines.append(f"view.{s}.{key}={name}")
            _write_table(os.path.join(out_dir, name), rows, fmt)
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
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


def _hyper_from_json(blob):
    data = json.loads(blob)
    for retired in ("y_lr", "h_lr"):  # older checkpoints store the retired Armijo start steps
        data.pop(retired, None)
    # a null proximity, stored by older releases for Hyperparams(proximity=None), is the default
    proximity = dict(data.pop("proximity") or {})
    weights = proximity.pop("weights", None)  # older releases store the walk weights too
    proximity = ProximityConfig(**proximity)
    default = list(default_weights(proximity.order))
    if weights not in (None, default):
        raise ValueError(f"weights must be {default} at order {proximity.order}, got {weights!r}")
    return Hyperparams(proximity=proximity, **data)


def _layer_name(s, k, depth, kind):
    """Archive name of view s's layer-k weight (kind "w") or bias ("b"), such as ae0_dec_w1."""
    part, index = ("enc", k) if k < depth else ("dec", k - depth)
    return f"ae{s}_{part}_{kind}{index}"


def checkpoint(state, path):
    """Persist a training state to one .npz archive at exactly ``path``.

    The metadata holds the format, the view count and the hyperparameters,
    which give each autoencoder's depth, hidden widths and activations. The
    representations H are not stored: a resume recomputes them from the
    autoencoders.
    """
    arrays = {"Y": state.Y,
              "trace": np.asarray(state.objective_trace, dtype=np.float64),
              "iter_seconds": np.asarray(state.iter_seconds, dtype=np.float64)}
    meta = {"format": CHECKPOINT_FORMAT,
            "t": len(state.B),
            "hyper": json.dumps(dataclasses.asdict(state.hyper))}
    for s in range(len(state.B)):
        arrays[f"B_{s}"] = state.B[s]
        arrays[f"mask_{s}"] = state.masks[s]
        params = state.autoencoders[s]
        depth = len(params.weights) // 2
        for k, (W, b) in enumerate(zip(params.weights, params.biases)):
            arrays[_layer_name(s, k, depth, "w")] = W
            arrays[_layer_name(s, k, depth, "b")] = b
    arrays["meta"] = np.array(json.dumps(meta))
    with open(path, "wb") as fh:  # np.savez would append .npz to a path without it
        np.savez(fh, **arrays)


def _shape_text(shape):
    dims = ["*" if w is None else str(w) for w in shape]
    return "(" + ", ".join(dims) + ("," if len(dims) == 1 else "") + ")"


def restore(path):
    """Rebuild the training state saved by ``checkpoint``.

    Each autoencoder's widths are the rows of ``ae{s}_enc_w0``, then
    ``hyper.hidden_dims``, then their mirror back to the input, and its
    activations are ``hyper``'s. Every array must be present and agree in
    shape with them and with the other arrays: Y is (n, dim), each B_s
    (dim, code) and mask_s (n,), the trace 1-D, finite and non-increasing,
    and the iteration times one entry shorter (none for an empty trace).
    Otherwise one ValueError names the array, or the metadata key at fault.
    Formats 1 and 2 load; the H_s arrays of format 1 are not read, since the
    representations follow from the autoencoders. Metadata keys other than
    format, t and hyper are ignored.
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
        if meta.get("format") not in (1, CHECKPOINT_FORMAT):
            raise ValueError(f"{path}: unsupported checkpoint format {meta.get('format')!r}")
        try:
            hyper = _hyper_from_json(meta["hyper"])
            t = meta["t"]
        except KeyError as exc:
            raise ValueError(f"{path}: checkpoint metadata has no {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:  # not JSON, unknown key, bad value
            raise ValueError(f"{path}: checkpoint metadata 'hyper' is invalid: {exc}") from None
        if type(t) is not int or t < 1:
            raise ValueError(f"{path}: checkpoint metadata 't' is {t!r}, not a view count")
        Y = array("Y", None, hyper.dim)
        n = Y.shape[0]
        depth, code = len(hyper.hidden_dims), hyper.hidden_dims[-1]
        B, masks, autoencoders = [], [], []
        for s in range(t):
            widths = _layer_widths(array(_layer_name(s, 0, depth, "w"), None, None).shape[0],
                                   hyper.hidden_dims)
            weights = [array(_layer_name(s, k, depth, "w"), fan_in, fan_out)
                       for k, (fan_in, fan_out) in enumerate(zip(widths, widths[1:]))]
            biases = [array(_layer_name(s, k, depth, "b"), fan_out)
                      for k, fan_out in enumerate(widths[1:])]
            B.append(array(f"B_{s}", hyper.dim, code))
            masks.append(array(f"mask_{s}", n).astype(bool))
            autoencoders.append(AutoencoderParams(weights, biases, hyper.activation,
                                                  hyper.output_activation))
        trace = array("trace", None)
        if not (np.all(np.isfinite(trace)) and np.all(np.diff(trace) <= 0.0)):
            raise ValueError(f"{path}: checkpoint array 'trace' increases or is not finite")
        return EmbeddingState(Y, B, masks, autoencoders, hyper, trace.tolist(),
                              array("iter_seconds", max(trace.size - 1, 0)).tolist())
