import json
import os
import re
import tempfile

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from dpmne.graph_model import MultiplexNetwork, SynthConfig, ViewData, synth_generate
from dpmne.io import (ManifestError, _read_edges, checkpoint, load_network, restore,
                      save_embeddings, save_network)
from dpmne.proximity import ProximityConfig, build_stack
from dpmne.quantizer import unpack_codes
from dpmne.trainer import Hyperparams, objective, train

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
                            proximity=ProximityConfig(order=2, weights=(1.0, 0.5)))
        state = train(net, hyper)
        path = tmp_path / "ckpt.npz"
        checkpoint(state, path)
        back = restore(path)
        prox = build_stack(net, hyper.proximity)
        a = objective(state, net, prox, hyper)
        b = objective(back, net, prox, back.hyper)
        assert abs(a - b) < 1e-12
        assert back.hyper == hyper
        assert back.objective_trace == state.objective_trace

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
                            proximity=ProximityConfig(order=2, weights=[1.0, 0.5]))
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
        ("H_0", lambda a: a[:-1]),                         # (n - 1, code)
        ("H_1", lambda a: np.hstack([a, a])),              # (n, 2 code)
        ("mask_0", lambda a: a[:-1]),                      # (n - 1,)
        ("ae0_enc_w1", lambda a: a[:-1]),                  # rows differ from layer 0's width
        ("ae1_enc_b0", lambda a: a[:-1]),                  # bias differs from its layer
        ("ae0_dec_w0", lambda a: a.T),                     # decoder does not mirror the encoder
        ("ae1_dec_b1", lambda a: a[:-1]),                  # output bias differs from the input
        ("trace", lambda a: a[:, None]),                   # 2-D trace
        ("iter_seconds", lambda a: a[None, :]),            # 2-D iteration times
        ("H_1", None),                                     # missing array
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
        # earlier checkpoints also list each view's encoder depth and activation names
        hyper = Hyperparams(dim=3, max_iters=1, hidden_dims=(5, 2), activation="relu")
        state = train(small_net(8), hyper)
        path = tmp_path / "ckpt.npz"
        checkpoint(state, path)
        rewrite_meta(path, lambda meta: {**meta, "enc_layers": [2, 2],
                                         "activations": [["relu", "sigmoid"]] * 2})
        back = restore(path)

        def arrays(st):
            return [st.Y, *st.B, *st.H, *st.masks,
                    *(a for params in st.autoencoders for a in params.all_arrays())]

        for a, b in zip(arrays(back), arrays(state), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert back.hyper == hyper
        assert back.objective_trace == state.objective_trace
        assert [(p.activation, p.output_activation) for p in back.autoencoders] == [
            ("relu", "sigmoid")] * 2

    def test_checkpoint_with_retired_y_lr_still_loads(self, tmp_path):
        # checkpoints written while the Y block line-searched store its first step
        path = tmp_path / "ckpt.npz"
        hyper = Hyperparams(dim=3, max_iters=1, hidden_dims=(4,))
        checkpoint(train(small_net(9), hyper), path)
        rewrite_meta(path, lambda meta: {**meta, "hyper": json.dumps(
            {**json.loads(meta["hyper"]), "y_lr": 1.0})})
        assert restore(path).hyper == hyper

    def test_bad_checkpoint_format_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, meta=np.array('{"format": 99}'))
        with pytest.raises(ValueError, match="unsupported checkpoint"):
            restore(path)
