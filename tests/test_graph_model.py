import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from dpmne.graph_model import (SynthConfig, apply_pdr, normalize_features,
                               synth_generate, validate)

from conftest import make_view


class TestValidate:
    def test_well_formed_network_gives_empty_report(self, tiny_network):
        assert validate(tiny_network) == []

    def test_self_loop_is_flagged(self, tiny_network):
        adj = tiny_network.views[0].adjacency.tolil()
        adj[1, 1] = 1.0
        tiny_network.views[0].adjacency = sp.csr_matrix(adj)
        report = validate(tiny_network)
        assert any("diagonal" in item for item in report)

    def test_nonzero_masked_row_is_flagged(self, tiny_network):
        tiny_network.views[1].features[1, 0] = 3.0
        report = validate(tiny_network)
        assert any("masked-out node 1" in item for item in report)

    def test_non_finite_present_row_is_flagged(self, tiny_network):
        tiny_network.views[0].features[2, 1] = np.nan
        report = validate(tiny_network)
        assert any("node 2 has a non-finite feature" in item for item in report)

    def test_asymmetric_adjacency_is_flagged(self, tiny_network):
        adj = tiny_network.views[0].adjacency.tolil()
        adj[0, 2] = 1.0  # no reverse entry
        tiny_network.views[0].adjacency = sp.csr_matrix(adj)
        assert any("symmetric" in item for item in validate(tiny_network))

    def test_all_masked_view_is_flagged(self, tiny_network):
        tiny_network.views[1].mask[:] = False
        tiny_network.views[1].features[:] = 0.0
        assert any("no present node" in item for item in validate(tiny_network))

    def test_view_without_feature_columns_is_flagged(self, tiny_network):
        tiny_network.views[1].features = np.zeros((3, 0))
        assert validate(tiny_network) == ["view 1: features have no columns"]

    def test_bad_label_shape_is_flagged(self, tiny_network):
        tiny_network.labels = np.array([0, 1])
        assert any("labels" in item for item in validate(tiny_network))


class TestSynthGenerate:
    def test_zero_pdr_means_every_mask_entry_true(self):
        net = synth_generate(SynthConfig(n=40, communities=4, t=3, seed=3))
        for view in net.views:
            assert view.mask.all()

    def test_same_seed_gives_identical_networks(self):
        cfg = SynthConfig(n=60, communities=3, t=2, pdr=0.2, noise=0.2, seed=11)
        a = synth_generate(cfg)
        b = synth_generate(cfg)
        assert np.array_equal(a.labels, b.labels)
        for va, vb in zip(a.views, b.views):
            assert np.array_equal(va.features, vb.features)
            assert np.array_equal(va.mask, vb.mask)
            assert (va.adjacency != vb.adjacency).nnz == 0

    def test_present_count_matches_recount_oracle(self):
        # pdr 0.3 of 200 nodes: the generator masks exactly round(0.3 * 200)
        net = synth_generate(SynthConfig(n=200, communities=4, t=2, pdr=0.3, seed=5))
        for view in net.views:
            recount = sum(1 for present in view.mask if present)
            assert recount == 140
            assert int(view.mask.sum()) == recount

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_networks_always_validate(self, seed):
        cfg = SynthConfig(n=50, communities=5, t=3, pdr=[0.0, 0.3, 0.5],
                          noise=0.3, seed=seed)
        assert validate(synth_generate(cfg)) == []

    def test_labels_are_community_ids(self):
        net = synth_generate(SynthConfig(n=30, communities=3, seed=0))
        assert sorted(np.unique(net.labels)) == [0, 1, 2]

    def test_impossible_pdr_is_rejected(self):
        with pytest.raises(ValueError):
            synth_generate(SynthConfig(n=10, communities=2, t=1, pdr=0.96, seed=0))

    def test_bad_probability_is_rejected(self):
        with pytest.raises(ValueError):
            synth_generate(SynthConfig(n=10, communities=2, intra=1.5, seed=0))

    @pytest.mark.parametrize("bad", [
        {"n": 0}, {"communities": 0}, {"t": 0}, {"communities": 21}, {"intra": 1.5},
        {"inter": [0.1, -0.1]}, {"noise": [0.1, 0.1, 0.1]}, {"pdr": 1.0}, {"pdr": 0.98, "t": 1},
        {"feature_dim": 0}, {"feature_dim": [4, 0]}, {"noise": -1.0}, {"noise": math.nan},
        {"noise": [0.1, math.inf]}, {"seed": -1}, {"n": 10.5}, {"t": 2.0}, {"feature_dim": 2.5},
        {"seed": 1.5}, {"n": True}, {"seed": None}, {"intra": None}, {"pdr": "0.1"}])
    def test_out_of_range_settings_are_rejected_when_built(self, bad):
        # the first key names the setting at fault
        with pytest.raises(ValueError, match=rf"\b{next(iter(bad))}\b"):
            SynthConfig(**{"n": 20, "communities": 2, **bad})


class TestApplyPdr:
    def test_zero_ratio_is_identity(self):
        net = synth_generate(SynthConfig(n=30, communities=3, t=2, seed=7))
        out = apply_pdr(net, 0.0, seed=1)
        for before, after in zip(net.views, out.views):
            assert np.array_equal(before.mask, after.mask)
            assert np.array_equal(before.features, after.features)

    def test_half_ratio_masks_exactly_five_of_ten(self):
        net = synth_generate(SynthConfig(n=10, communities=2, t=2, seed=2))
        out = apply_pdr(net, [0.5, 0.0], seed=3)
        assert int(np.count_nonzero(~out.views[0].mask)) == 5
        assert out.views[1].mask.all()

    def test_recounted_pdr_matches_request(self):
        n = 123
        net = synth_generate(SynthConfig(n=n, communities=3, t=3, seed=4))
        out = apply_pdr(net, 0.4, seed=5)
        for view in out.views:
            measured = np.count_nonzero(~view.mask) / n
            assert abs(measured - 0.4) <= 1.0 / n

    @pytest.mark.parametrize("seed", range(4))
    def test_masks_only_grow_and_present_rows_unchanged(self, seed):
        net = synth_generate(SynthConfig(n=40, communities=4, t=2, pdr=0.1, seed=seed))
        out = apply_pdr(net, 0.5, seed=seed + 100)
        for before, after in zip(net.views, out.views):
            assert not np.any(after.mask & ~before.mask)  # no node was unmasked
            still = after.mask
            assert np.array_equal(before.features[still], after.features[still])
            assert np.all(after.features[~after.mask] == 0.0)

    def test_every_node_stays_present_somewhere(self):
        net = synth_generate(SynthConfig(n=50, communities=5, t=3, seed=9))
        out = apply_pdr(net, 0.6, seed=10)
        present = np.zeros(50, dtype=int)
        for view in out.views:
            present += view.mask
        assert np.all(present >= 1)

    def test_unreachable_constraint_is_rejected(self):
        net = synth_generate(SynthConfig(n=10, communities=2, t=2, seed=0))
        with pytest.raises(ValueError):
            apply_pdr(net, 0.8, seed=0)  # 2 views at 0.8 leaves some node nowhere

    def test_shrinking_missing_fraction_is_rejected(self):
        net = synth_generate(SynthConfig(n=20, communities=2, t=2, pdr=0.4, seed=0))
        with pytest.raises(ValueError):
            apply_pdr(net, 0.1, seed=0)

    def test_ratio_out_of_range_is_rejected(self):
        net = synth_generate(SynthConfig(n=20, communities=2, t=1, seed=0))
        with pytest.raises(ValueError):
            apply_pdr(net, 1.0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, True])
    def test_negative_seed_is_rejected(self, seed):
        net = synth_generate(SynthConfig(n=20, communities=2, t=2, seed=0))
        with pytest.raises(ValueError,
                           match=f"^{re.escape(f'seed must be an integer >= 0, got {seed!r}')}$"):
            apply_pdr(net, 0.3, seed=seed)


class TestNormalizeFeatures:
    def test_present_columns_land_in_unit_interval(self):
        net = synth_generate(SynthConfig(n=30, communities=3, t=2, pdr=0.2,
                                         noise=2.0, seed=6))
        out = normalize_features(net)
        for view in out.views:
            present = view.features[view.mask]
            assert present.min() >= 0.0 and present.max() <= 1.0
            assert np.all(view.features[~view.mask] == 0.0)

    def test_masked_rows_stay_zero_and_validate_passes(self):
        net = synth_generate(SynthConfig(n=30, communities=3, t=2, pdr=0.3, seed=8))
        assert validate(normalize_features(net)) == []


def test_view_post_init_coerces_types():
    view = make_view([[1, 0], [0, 1]], [1, 0], [(0, 1)], 2)
    assert view.features.dtype == np.float64
    assert view.mask.dtype == bool
    assert sp.issparse(view.adjacency)
