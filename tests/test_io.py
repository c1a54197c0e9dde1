import dataclasses
import json
import os
import re
import tempfile
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from dpmne import autoencoder as ae
from dpmne.graph_model import MultiplexNetwork, SynthConfig, ViewData, synth_generate
from dpmne.io import (ManifestError, _read_edges, checkpoint, load_network, restore,
                      save_embeddings, save_network)
from dpmne.proximity import ProximityConfig, build_stack
from dpmne.quantizer import unpack_codes
from dpmne.trainer import (EmbeddingState, Hyperparams, forward_passes, objective, representations,
                           train)

from conftest import networks


def small_net(seed=0):
    return synth_generate(SynthConfig(n=12, communities=2, t=2, pdr=[0.25, 0.0],
                                      feature_dim=(3, 4), seed=seed))


def rewrite_meta(path, edit):
    """Replace the metadata of the checkpoint at ``path`` by ``edit(metadata)``."""
    with np.load(path) as archive:
        arrays = dict(archive)
    arrays["meta"] = np.array(json.dumps(edit(json.loads(str(arrays["meta"])))))
    np.savez(path, **arrays)


def with_stored_weights(meta, weights):
    """``meta`` with ``weights`` stored among its proximity settings, as older releases did."""
    hyper = json.loads(meta["hyper"])
    return {**meta, "hyper": json.dumps({**hyper, "proximity": {**hyper["proximity"],
                                                                 "weights": weights}})}


def same_value(a, b):
    """Equal values of one type: arrays to the byte, lists and dataclasses item by item."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(same_value, a, b))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(same_value(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    return type(a) is type(b) and a == b


def read_all(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestNetworkRoundTrip:
    def test_round_trip_is_byte_identical_canonical_form(self, tmp_path):
        net = small_net()
        first = tmp_path / "a"
        second = tmp_path / "b"
        save_network(net, first)
        loaded = load_network(first / "manifest.txt")
        save_network(loaded, second)
        assert read_all(first) == read_all(second)

    def test_loaded_network_matches_original_values(self, tmp_path):
        net = small_net(3)
        manifest = save_network(net, tmp_path)
        loaded = load_network(manifest)
        assert loaded.n == net.n and loaded.t == net.t
        assert np.array_equal(loaded.labels, net.labels)
        for a, b in zip(net.views, loaded.views):
            np.testing.assert_array_equal(a.features, b.features)
            assert np.array_equal(a.mask, b.mask)
            assert (a.adjacency != b.adjacency).nnz == 0

    def test_three_node_fixture_parses_to_hand_written_values(self, tmp_path):
        (tmp_path / "m.txt").write_text(
            "format=1\nn=3\nt=1\nlabels=y.txt\n"
            "view.0.dim=2\nview.0.features=f.tsv\nview.0.edges=e.tsv\n"
            "view.0.mask=k.txt\n")
        (tmp_path / "f.tsv").write_text("1.5\t-2\n0\t0\n0.25\t1e-3\n")
        (tmp_path / "e.tsv").write_text("0\t2\n")
        (tmp_path / "k.txt").write_text("1\n")
        (tmp_path / "y.txt").write_text("0\n1\n0\n")
        net = load_network(tmp_path / "m.txt")
        np.testing.assert_array_equal(net.views[0].features,
                                      [[1.5, -2.0], [0.0, 0.0], [0.25, 0.001]])
        assert list(net.views[0].mask) == [True, False, True]
        np.testing.assert_array_equal(net.views[0].adjacency.toarray(),
                                      [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
        assert list(net.labels) == [0, 1, 0]

    def test_wrong_dimension_error_names_the_view(self, tmp_path):
        net = small_net()
        manifest = save_network(net, tmp_path)
        with open(manifest, encoding="utf-8") as fh:
            text = fh.read().replace("view.1.dim=4", "view.1.dim=9")
        with open(manifest, "w", encoding="utf-8") as fh:
            fh.write(text)
        with pytest.raises(ManifestError, match="view1.features"):
            load_network(manifest)

    def test_missing_file_is_reported(self, tmp_path):
        net = small_net()
        manifest = save_network(net, tmp_path)
        os.remove(tmp_path / "view0.edges.tsv")
        with pytest.raises(ManifestError, match="view 0 file missing"):
            load_network(manifest)

    def test_non_numeric_token_reports_line_and_column(self, tmp_path):
        net = small_net()
        manifest = save_network(net, tmp_path)
        path = tmp_path / "view0.features.tsv"
        lines = path.read_text().splitlines()
        parts = lines[1].split("\t")
        parts[2] = "oops"
        lines[1] = "\t".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match=r"features\.tsv:2:3"):
            load_network(manifest)

    def test_self_loop_edge_fails_validation_on_load(self, tmp_path):
        net = small_net()
        manifest = save_network(net, tmp_path)
        with open(tmp_path / "view0.edges.tsv", "a") as fh:
            fh.write("1\t1\n")
        with pytest.raises(ManifestError, match="self-loop"):
            load_network(manifest)

    def test_duplicate_reversed_and_self_loop_edges_collapse_to_one(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("0\t1\n0\t1\n1\t0\n2\t2\n3\t1\n\n")
        adj = _read_edges(str(path), 5)
        expected = np.zeros((5, 5))
        for u, v in ((0, 1), (2, 2), (1, 3)):
            expected[u, v] = expected[v, u] = 1.0
        assert sp.isspmatrix_csr(adj) and adj.dtype == np.float64
        assert adj.has_canonical_format
        np.testing.assert_array_equal(adj.toarray(), expected)

    def test_empty_edge_file_gives_empty_adjacency(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("")
        adj = _read_edges(str(path), 3)
        assert adj.shape == (3, 3) and adj.nnz == 0

    def test_unknown_format_version_rejected(self, tmp_path):
        net = small_net()
        manifest = save_network(net, tmp_path)
        with open(manifest, encoding="utf-8") as fh:
            text = fh.read().replace("format=1", "format=7")
        with open(manifest, "w", encoding="utf-8") as fh:
            fh.write(text)
        with pytest.raises(ManifestError, match="unsupported format"):
            load_network(manifest)

    @pytest.mark.parametrize("line", ["view.1.mask=view0.mask.txt", "n=12", " t = 2"])
    def test_key_given_twice_names_both_lines(self, tmp_path, line):
        # the later line would otherwise win without a word
        manifest = save_network(small_net(), tmp_path)
        with open(manifest, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        key = line.split("=")[0].strip()
        first = next(i for i, text in enumerate(lines, start=1) if text.startswith(key + "="))
        with pytest.raises(ManifestError, match=rf"^{re.escape(manifest)}:{len(lines) + 1}: "
                                                rf"key '{re.escape(key)}' already given at "
                                                rf"line {first}$"):
            load_network(manifest)


def pinned_network():
    """Three nodes: float extremes and a triangle in view 0 (node 2 masked), no edges in view 1."""
    features = np.array([[-0.0, 5e-324], [1.7976931348623157e308, 0.1], [0.0, 0.0]])
    view0 = ViewData(features, np.array([True, True, False]),
                     sp.csr_matrix(np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]])))
    view1 = ViewData(np.array([[0.1], [2.5], [-3.0]]), np.ones(3, dtype=bool),
                     sp.csr_matrix((3, 3)))
    return MultiplexNetwork(3, [view0, view1], np.array([0, 1, 1]))


PINNED_FILES = {
    "labels.txt": b"0\n1\n1\n",
    "manifest.txt": b"format=1\nn=3\nt=2\nlabels=labels.txt\n"
                    b"view.0.dim=2\nview.0.features=view0.features.tsv\n"
                    b"view.0.edges=view0.edges.tsv\nview.0.mask=view0.mask.txt\n"
                    b"view.1.dim=1\nview.1.features=view1.features.tsv\n"
                    b"view.1.edges=view1.edges.tsv\nview.1.mask=view1.mask.txt\n",
    "view0.edges.tsv": b"0\t1\n0\t2\n1\t2\n",
    "view0.features.tsv": b"-0\t4.9406564584124654e-324\n"
                          b"1.7976931348623157e+308\t0.10000000000000001\n0\t0\n",
    "view0.mask.txt": b"2\n",
    "view1.edges.tsv": b"",
    "view1.features.tsv": b"0.10000000000000001\n2.5\n-3\n",
    "view1.mask.txt": b"",
}


def assert_same_network(a, b):
    assert (a.n, a.t) == (b.n, b.t)
    assert (a.labels is None) == (b.labels is None)
    if a.labels is not None:
        assert a.labels.dtype == b.labels.dtype and a.labels.tobytes() == b.labels.tobytes()
    for va, vb in zip(a.views, b.views):
        assert va.dim == vb.dim
        for x, y in ((va.features, vb.features), (va.mask, vb.mask),
                     (va.adjacency.indptr, vb.adjacency.indptr),
                     (va.adjacency.indices, vb.adjacency.indices),
                     (va.adjacency.data, vb.adjacency.data)):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestTableFormat:
    def test_saved_bytes_are_pinned(self, tmp_path):
        save_network(pinned_network(), tmp_path)
        assert read_all(tmp_path) == PINNED_FILES

    def test_pinned_files_load_bit_for_bit(self, tmp_path):
        for name, data in PINNED_FILES.items():
            (tmp_path / name).write_bytes(data)
        assert_same_network(load_network(tmp_path / "manifest.txt"), pinned_network())

    def test_edges_are_written_sorted_whatever_the_index_order(self, tmp_path):
        net = pinned_network()
        view = net.views[0]
        adj = view.adjacency
        reversed_rows = np.concatenate([adj.indices[a:b][::-1]
                                        for a, b in zip(adj.indptr, adj.indptr[1:])])
        net.views[0] = ViewData(view.features, view.mask,
                                sp.csr_matrix((adj.data, reversed_rows, adj.indptr), adj.shape))
        save_network(net, tmp_path)
        assert read_all(tmp_path) == PINNED_FILES

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(networks(labels=True))
    def test_load_of_save_is_bitwise_and_a_second_save_is_byte_identical(self, network):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "a"), os.path.join(tmp, "b")
            loaded = load_network(save_network(network, first))
            assert_same_network(loaded, network)
            save_network(loaded, second)
            assert read_all(first) == read_all(second)

    @pytest.mark.parametrize("name,edit,where", [
        ("labels.txt", lambda lines: lines[:1] + ["12345678901234567890"] + lines[2:],
         r"labels\.txt:2:1: "),
        ("view0.edges.tsv", lambda lines: ["0\t1\t2"] + lines, r"edges\.tsv:1: "),
        ("view0.edges.tsv", lambda lines: lines + ["0\t12"], r"edges\.tsv:\d+:2: node 12 outside"),
        ("view0.mask.txt", lambda lines: ["1.5"] + lines, r"mask\.txt:1:1: not an integer"),
        ("view1.features.tsv", lambda lines: lines[:4] + [""] + lines[5:],
         r"view1\.features\.tsv:5: "),
        ("view1.features.tsv", lambda lines: lines[:-1], r"view1\.features\.tsv:12: "),
    ], ids=["20-digit-label", "3-token-edge", "edge-node-out-of-range", "real-in-mask",
            "blank-features-line", "truncated-features"])
    def test_hostile_file_raises_one_error_naming_its_place(self, tmp_path, name, edit, where):
        manifest = save_network(small_net(), tmp_path)
        path = tmp_path / name
        lines = edit(path.read_text().splitlines())
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ManifestError, match=where):
            load_network(manifest)

    @pytest.mark.parametrize("key,value", [
        ("n", "-1"), ("n", "0"), ("n", "1e3"), ("n", "x"), ("t", "0"), ("t", "-2"),
        ("view.0.dim", "0"), ("view.0.dim", "-3"), ("view.0.dim", "x")])
    def test_bad_manifest_count_raises_one_error_naming_the_key(self, tmp_path, key, value):
        manifest = save_network(small_net(), tmp_path)
        path = tmp_path / "manifest.txt"
        path.write_text(re.sub(rf"^{re.escape(key)}=.*$", f"{key}={value}", path.read_text(),
                               count=1, flags=re.M))
        got = value if value.lstrip("-").isdigit() else repr(value)
        with pytest.raises(ManifestError, match=rf"^{re.escape(manifest)}: {re.escape(key)} "
                                                rf"must be an integer >= 1, got {re.escape(got)}$"):
            load_network(manifest)


class TestEmbeddingExport:
    def test_tsv_has_node_ids_and_full_precision(self, tmp_path):
        Y = np.array([[1.0 / 3.0, -2.0], [0.5, 1e-17]])
        path = tmp_path / "emb.tsv"
        save_embeddings(Y, path)
        lines = path.read_text().splitlines()
        assert lines[0].split("\t")[0] == "0"
        parsed = np.array([[float(x) for x in line.split("\t")[1:]] for line in lines])
        np.testing.assert_array_equal(parsed, Y)

    def test_packed_codes_round_trip_through_file(self, tmp_path):
        rng = np.random.default_rng(0)
        C = np.where(rng.standard_normal((5, 12)) >= 0, 1.0, -1.0)
        path = tmp_path / "codes.bin"
        save_embeddings(C, path, fmt="packed")
        raw = np.fromfile(path, dtype=np.uint8).reshape(5, 2)
        assert np.array_equal(unpack_codes(raw, 12), C)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_embeddings(np.eye(2), tmp_path / "x", fmt="parquet")


class TestCheckpoint:
    def test_restore_reproduces_objective_exactly(self, tmp_path):
        net = small_net(5)
        hyper = Hyperparams(dim=3, max_iters=3, hidden_dims=(5,), seed=5,
                            proximity=ProximityConfig(order=2))
        state = train(net, hyper)
        path = tmp_path / "ckpt.npz"
        checkpoint(state, path)
        back = restore(path)
        prox = build_stack(net, hyper.proximity)
        a = objective(state, forward_passes(state, net), prox)
        b = objective(back, forward_passes(back, net), prox)
        assert abs(a - b) < 1e-12
        assert back.hyper == hyper
        assert back.objective_trace == state.objective_trace

    def test_every_state_field_survives_a_checkpoint(self, tmp_path):
        net = small_net(7)
        state = train(net, Hyperparams(dim=3, max_iters=2, hidden_dims=(5, 2), seed=7,
                                       proximity=ProximityConfig(order=2)))
        checkpoint(state, tmp_path / "ckpt.npz")
        back = restore(tmp_path / "ckpt.npz")
        for field in dataclasses.fields(EmbeddingState):
            assert same_value(getattr(state, field.name), getattr(back, field.name)), field.name

    def test_same_seed_checkpoints_differ_only_in_the_iteration_times(self, tmp_path):
        net = small_net(9)
        hyper = Hyperparams(dim=3, max_iters=3, hidden_dims=(5, 2), seed=9,
                            proximity=ProximityConfig(order=2))
        for name in "ab":
            checkpoint(train(net, hyper), tmp_path / f"{name}.npz")
        with np.load(tmp_path / "a.npz") as a, np.load(tmp_path / "b.npz") as b:
            assert a.files == b.files
            for key in a.files:
                if key != "iter_seconds":  # wall-clock times, never the same twice
                    assert (a[key].dtype, a[key].shape, a[key].tobytes()) == \
                        (b[key].dtype, b[key].shape, b[key].tobytes()), key
            assert a["iter_seconds"].shape == b["iter_seconds"].shape == (3,)

    def test_path_without_the_npz_suffix_is_written_as_given(self, tmp_path):
        state = train(small_net(8), Hyperparams(dim=3, max_iters=1, hidden_dims=(2,), seed=8))
        path = str(tmp_path / "ckpt")
        checkpoint(state, path)
        assert os.listdir(tmp_path) == ["ckpt"]
        back = restore(path)
        for field in dataclasses.fields(EmbeddingState):
            assert same_value(getattr(state, field.name), getattr(back, field.name)), field.name

    def test_training_resumes_deterministically_from_restore(self, tmp_path):
        net = small_net(6)
        hyper = Hyperparams(dim=3, max_iters=2, hidden_dims=(4,), seed=6)
        state = train(net, hyper)
        path = tmp_path / "ckpt.npz"
        checkpoint(state, path)
        resumed_a = train(net, hyper, init_state=restore(path))
        resumed_b = train(net, hyper, init_state=restore(path))
        assert np.array_equal(resumed_a.Y, resumed_b.Y)
        assert resumed_a.objective_trace == resumed_b.objective_trace
        trace = resumed_a.objective_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_run_configured_with_lists_resumes_from_its_checkpoint(self, tmp_path):
        net = small_net(6)
        hyper = Hyperparams(dim=3, max_iters=2, hidden_dims=[3, 2], seed=6,
                            proximity=ProximityConfig(order=2))
        state = train(net, hyper)
        path = tmp_path / "ckpt.npz"
        checkpoint(state, path)
        from_disk = train(net, hyper, init_state=restore(path))
        live = train(net, hyper, init_state=state)
        assert np.array_equal(from_disk.Y, live.Y)
        assert from_disk.objective_trace == live.objective_trace

    @pytest.mark.parametrize("name,tamper", [
        ("Y", lambda a: a[:, :-1]),                        # (n, dim - 1)
        ("B_1", lambda a: a[:-1]),                         # (dim - 1, code)
        ("mask_0", lambda a: a[:-1]),                      # (n - 1,)
        ("ae0_enc_w1", lambda a: a[:-1]),                  # rows differ from layer 0's width
        ("ae1_enc_b0", lambda a: a[:-1]),                  # bias differs from its layer
        ("ae0_dec_w0", lambda a: a.T),                     # decoder does not mirror the encoder
        ("ae1_dec_b1", lambda a: a[:-1]),                  # output bias differs from the input
        ("trace", lambda a: a[:, None]),                   # 2-D trace
        ("iter_seconds", lambda a: a[None, :]),            # 2-D iteration times
        ("trace", lambda a: a[::-1]),                      # increasing
        ("trace", lambda a: np.r_[np.nan, a[1:]]),         # not finite
        ("iter_seconds", lambda a: a[:-1]),                # one time short of the trace
        ("B_0", None),                                     # missing array
        ("ae0_dec_b0", None),
    ])
    def test_tampered_checkpoint_names_the_array(self, tmp_path, name, tamper):
        net = small_net(7)
        hyper = Hyperparams(dim=3, max_iters=2, hidden_dims=(5, 2), seed=7)
        path = tmp_path / "ckpt.npz"
        checkpoint(train(net, hyper), path)
        with np.load(path) as archive:
            arrays = dict(archive)
        if tamper is None:
            del arrays[name]
        else:
            arrays[name] = tamper(arrays[name])
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=f"'{name}'"):
            restore(path)

    @pytest.mark.parametrize("name,value", [("Y", np.nan), ("B_1", np.inf),
                                            ("ae0_enc_w0", np.nan), ("ae1_dec_b1", -np.inf)])
    def test_non_finite_array_is_refused_naming_it(self, tmp_path, name, value):
        # training never writes one, and eval would score it without complaint
        path = tmp_path / "ckpt.npz"
        checkpoint(train(small_net(7), Hyperparams(dim=3, max_iters=1, hidden_dims=(5, 2))),
                   path)
        with np.load(path) as archive:
            arrays = dict(archive)
        arrays[name].flat[-1] = value
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint array "
                                             f"'{name}' has non-finite entries$"):
            restore(path)

    @pytest.mark.parametrize("key,value", [("t", None), ("hyper", None), ("t", 0), ("t", "2")])
    def test_inconsistent_checkpoint_metadata_rejected(self, tmp_path, key, value):
        path = tmp_path / "ckpt.npz"
        checkpoint(train(small_net(8), Hyperparams(dim=3, max_iters=1, hidden_dims=(4,))), path)
        rewrite_meta(path, lambda meta: {k: v for k, v in meta.items() if k != key}
                     if value is None else {**meta, key: value})
        with pytest.raises(ValueError, match=f"'{key}'"):
            restore(path)

    @pytest.mark.parametrize("rewrite,key", [
        (lambda blob: json.dumps({**json.loads(blob), "colour": 1}), "colour"),  # unknown key
        (lambda blob: json.dumps({**json.loads(blob), "dim": "x"}), "dim"),      # not a number
        (lambda blob: blob[:-1], "hyper"),                                      # not JSON
        (lambda blob: json.dumps({**json.loads(blob), "activation": "swish"}), "activation"),
        (lambda blob: json.dumps({**json.loads(blob), "max_iters": 1.5}), "max_iters"),
        (lambda blob: json.dumps({**json.loads(blob), "proximity": {  # truthy, were it kept
            **json.loads(blob)["proximity"], "normalize": "false"}}), "normalize"),
    ])
    def test_bad_stored_hyperparameters_rejected(self, tmp_path, rewrite, key):
        path = tmp_path / "ckpt.npz"
        checkpoint(train(small_net(8), Hyperparams(dim=3, max_iters=1, hidden_dims=(4,))), path)
        rewrite_meta(path, lambda meta: {**meta, "hyper": rewrite(meta["hyper"])})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{key}") as info:
            restore(path)
        assert type(info.value) is ValueError

    def test_hidden_dims_that_disagree_with_the_arrays_are_rejected(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        checkpoint(train(small_net(8), Hyperparams(dim=3, max_iters=1, hidden_dims=(5, 2))), path)
        rewrite_meta(path, lambda meta: {**meta, "hyper": json.dumps(
            {**json.loads(meta["hyper"]), "hidden_dims": [4, 2]})})
        with pytest.raises(ValueError, match=re.escape("'ae0_enc_w0' has shape (3, 5), "
                                                       "expected (3, 4)")):
            restore(path)

    def test_checkpoint_with_layer_metadata_restores_unchanged(self, tmp_path):
        # earlier checkpoints also list each view's encoder depth and activation names, and
        # their hyperparameters name the layers and store the stopping patience
        hyper = Hyperparams(dim=3, max_iters=1, hidden_dims=(5, 2))
        state = train(small_net(8), hyper)
        path = tmp_path / "ckpt.npz"
        checkpoint(state, path)
        rewrite_meta(path, lambda meta: {
            **meta, "enc_layers": [2, 2], "activations": [["tanh", "sigmoid"]] * 2,
            "hyper": json.dumps({**json.loads(meta["hyper"]), "activation": "tanh",
                                 "output_activation": "sigmoid", "stop_patience": 5})})
        back = restore(path)

        def arrays(st):
            return [st.Y, *st.B, *st.masks,
                    *(a for params in st.autoencoders for a in params.all_arrays())]

        for a, b in zip(arrays(back), arrays(state), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert back.hyper == hyper
        assert back.objective_trace == state.objective_trace

    @pytest.mark.parametrize("key,value", [("activation", "relu"), ("activation", "sigmoid"),
                                           ("output_activation", "identity")])
    def test_stored_layers_other_than_tanh_and_sigmoid_rejected(self, tmp_path, key, value):
        # the layers are fixed, so a checkpoint of other layers holds another model
        path = tmp_path / "ckpt.npz"
        checkpoint(train(small_net(8), Hyperparams(dim=3, max_iters=1, hidden_dims=(4,))), path)
        rewrite_meta(path, lambda meta: {**meta, "hyper": json.dumps(
            {**json.loads(meta["hyper"]), key: value})})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint metadata "
                                             f"'hyper' is invalid: {key} must be") as info:
            restore(path)
        assert type(info.value) is ValueError

    def test_a_checkpoint_of_the_previous_release_restores_and_resumes(self):
        # written before the layers and the stopping patience were fixed, with its two
        # trainings: the hyperparameters name the layers and store the patience
        path = os.path.join(os.path.dirname(__file__), "data", "checkpoint_format2.npz")
        with np.load(path) as archive:
            meta = json.loads(str(archive["meta"]))
        stored = json.loads(meta["hyper"])
        assert meta["format"] == 2
        assert [stored[k] for k in ("activation", "output_activation", "stop_patience")] == [
            "tanh", "sigmoid", 3]
        net = synth_generate(SynthConfig(n=30, communities=3, t=2, pdr=0.2, feature_dim=6,
                                         seed=31))
        hyper = Hyperparams(dim=3, max_iters=2, hidden_dims=(5, 2), seed=31, stop_tol=0.0)
        back = restore(path)
        assert back.hyper == hyper and len(back.objective_trace) == 3
        prox = build_stack(net, hyper.proximity)
        assert objective(back, forward_passes(back, net), prox) == pytest.approx(
            back.objective_trace[-1], rel=1e-6)
        trace = train(net, hyper, init_state=back).objective_trace
        assert trace[:3] == back.objective_trace and len(trace) == 5
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    @pytest.mark.parametrize("fmt", [1, 2])
    def test_resume_from_either_format_continues_the_uninterrupted_trace(self, tmp_path, fmt):
        net = small_net(10)
        hyper = Hyperparams(dim=3, max_iters=4, hidden_dims=(5, 2), seed=10, stop_tol=0.0)
        uninterrupted = train(net, hyper)
        half = train(net, replace(hyper, max_iters=2))
        path = tmp_path / "ckpt.npz"
        checkpoint(half, path)
        with np.load(path) as archive:
            assert json.loads(str(archive["meta"]))["format"] == 2
            assert not any(name.startswith("H_") for name in archive.files)
        if fmt == 1:  # format 1 also stored each view's representations
            with np.load(path) as archive:
                arrays = dict(archive)
            arrays.update({f"H_{s}": H for s, H in enumerate(representations(half, net))})
            np.savez(path, **arrays)
            rewrite_meta(path, lambda meta: {**meta, "format": 1})
        resumed = train(net, replace(hyper, max_iters=2), init_state=restore(path))
        assert resumed.objective_trace == uninterrupted.objective_trace
        assert np.array_equal(resumed.Y, uninterrupted.Y)

    def test_a_checkpoint_of_float64_passes_resumes_on_float32_passes(self, tmp_path,
                                                                      monkeypatch):
        # the format is unchanged, as the parameters are float64 on either path; a checkpoint
        # written while the passes ran in float64 resumes with its next iterations in float32
        net = small_net(11)
        hyper = Hyperparams(dim=3, max_iters=3, hidden_dims=(5, 2), seed=11)
        with monkeypatch.context() as patch:
            patch.setattr(ae, "_present_rows",
                          lambda X, mask: np.asarray(X, dtype=np.float64)[mask])
            before = train(net, hyper)
        path = tmp_path / "ckpt.npz"
        checkpoint(before, path)
        with np.load(path) as archive:
            assert json.loads(str(archive["meta"]))["format"] == 2
            assert {archive[k].dtype for k in archive.files if k.startswith("ae")} == {
                np.dtype(np.float64)}
        row_dtypes = []
        forward = ae._view_forward

        def recorded(params, rows):
            row_dtypes.append(rows.dtype)
            return forward(params, rows)

        monkeypatch.setattr(ae, "_view_forward", recorded)
        resumed = train(net, replace(hyper, max_iters=5), init_state=restore(path))
        assert set(row_dtypes) == {np.dtype(np.float32)}
        trace = resumed.objective_trace
        assert trace[:4] == before.objective_trace and len(trace) == 9
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_stored_null_proximity_restores_as_the_default(self, tmp_path):
        net = small_net(11)
        hyper = Hyperparams(dim=3, max_iters=1, hidden_dims=(2,))
        state = train(net, hyper)
        path = tmp_path / "ckpt.npz"
        checkpoint(state, path)
        assert restore(path).hyper == hyper
        # earlier releases stored Hyperparams(proximity=None) as a null
        rewrite_meta(path, lambda meta: {**meta, "hyper": json.dumps(
            {**json.loads(meta["hyper"]), "proximity": None})})
        back = restore(path)
        assert back.hyper == hyper
        resumed = train(net, hyper, init_state=back)
        assert resumed.objective_trace[:2] == state.objective_trace

    @pytest.mark.parametrize("weights", [None, [1.0, 0.5]])
    def test_stored_halving_weights_restore_and_resume(self, tmp_path, weights):
        # older releases store the proximity's walk weights: null, or the halving weights
        net = small_net(13)
        hyper = Hyperparams(dim=3, max_iters=4, hidden_dims=(5, 2), seed=13, stop_tol=0.0,
                            proximity=ProximityConfig(order=2))
        path = tmp_path / "ckpt.npz"
        checkpoint(train(net, replace(hyper, max_iters=2)), path)
        rewrite_meta(path, lambda meta: with_stored_weights(meta, weights))
        back = restore(path)
        assert back.hyper == replace(hyper, max_iters=2)
        resumed = train(net, replace(hyper, max_iters=2), init_state=back)
        uninterrupted = train(net, hyper)
        assert resumed.objective_trace == uninterrupted.objective_trace
        assert np.array_equal(resumed.Y, uninterrupted.Y)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(resumed.B, uninterrupted.B))

    @pytest.mark.parametrize("weights", [[1.0, 0.25], [1.0], [1.0, 0.5, 0.25], [], "ab", 0.5])
    def test_stored_weights_other_than_the_halving_ones_rejected(self, tmp_path, weights):
        path = tmp_path / "ckpt.npz"
        checkpoint(train(small_net(8), Hyperparams(dim=3, max_iters=1, hidden_dims=(4,),
                                                   proximity=ProximityConfig(order=2))), path)
        rewrite_meta(path, lambda meta: with_stored_weights(meta, weights))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint metadata "
                                             "'hyper' is invalid: weights ") as info:
            restore(path)
        assert type(info.value) is ValueError

    def test_checkpoint_with_retired_y_lr_still_loads(self, tmp_path):
        # checkpoints written while the Y block line-searched store its first step
        path = tmp_path / "ckpt.npz"
        hyper = Hyperparams(dim=3, max_iters=1, hidden_dims=(4,))
        checkpoint(train(small_net(9), hyper), path)
        rewrite_meta(path, lambda meta: {**meta, "hyper": json.dumps(
            {**json.loads(meta["hyper"]), "y_lr": 1.0})})
        assert restore(path).hyper == hyper

    def test_checkpoint_with_retired_h_lr_restores_and_resumes(self, tmp_path):
        # format-2 checkpoints written while the autoencoders' search had a first step store it
        net = small_net(12)
        hyper = Hyperparams(dim=3, max_iters=4, hidden_dims=(5, 2), seed=12, stop_tol=0.0)
        half = train(net, replace(hyper, max_iters=2))
        path = tmp_path / "ckpt.npz"
        checkpoint(half, path)
        rewrite_meta(path, lambda meta: {**meta, "hyper": json.dumps(
            {**json.loads(meta["hyper"]), "h_lr": 0.1})})
        with np.load(path) as archive:
            meta = json.loads(str(archive["meta"]))
        assert meta["format"] == 2 and json.loads(meta["hyper"])["h_lr"] == 0.1
        back = restore(path)
        assert back.hyper == replace(hyper, max_iters=2)
        resumed = train(net, replace(hyper, max_iters=2), init_state=back)
        uninterrupted = train(net, hyper)
        assert resumed.objective_trace == uninterrupted.objective_trace
        assert np.array_equal(resumed.Y, uninterrupted.Y)

    def test_bad_checkpoint_format_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, meta=np.array('{"format": 99}'))
        with pytest.raises(ValueError, match="unsupported checkpoint"):
            restore(path)
