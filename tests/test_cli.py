import inspect
import os

import numpy as np
import pytest

from dpmne.cli import (_build_parser, _hyper_from_args, _protocol_from_args,
                       _synth_config_from_args, main)
from dpmne.evaluation import EvalProtocol, cross_validate
from dpmne.graph_model import SynthConfig
from dpmne.trainer import Hyperparams


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def dataset(tmp_path, capsys):
    out = tmp_path / "data"
    code, stdout, _ = run(capsys, "synth", "--n", "40", "--communities", "2",
                          "--views", "2", "--feature-dim", "5", "--pdr", "0.2",
                          "--seed", "3", "--out", str(out))
    assert code == 0
    return stdout.strip()


TRAIN_FLAGS = ["--dim", "4", "--max-iters", "3", "--layers", "6", "--seed", "1"]


class TestSynth:
    def test_writes_a_loadable_dataset(self, dataset):
        assert os.path.exists(dataset)

    def test_bad_config_fails_with_one_line_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--n", "10", "--communities", "20",
                           "--out", str(tmp_path / "x"))
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith("dpmne-error\t")

    def test_zero_feature_dim_is_rejected_before_writing(self, tmp_path, capsys):
        out = tmp_path / "x"
        code, _, err = run(capsys, "synth", "--n", "20", "--communities", "2",
                           "--feature-dim", "0", "--out", str(out))
        assert code == 1
        assert err.startswith("dpmne-error\tValueError\tfeature_dim") and err.count("\n") == 1
        assert not os.path.exists(out)


class TestTrain:
    def test_produces_checkpoint_and_embeddings(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run(capsys, "train", "--manifest", dataset,
                              *TRAIN_FLAGS, "--out", str(out))
        assert code == 0
        assert os.path.exists(out / "checkpoint.npz")
        assert os.path.exists(out / "embeddings.tsv")
        assert "objective=" in stdout

    def test_identical_flags_give_byte_identical_embeddings(self, dataset, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "train", "--manifest", dataset, *TRAIN_FLAGS,
                   "--out", str(out_a))[0] == 0
        assert run(capsys, "train", "--manifest", dataset, *TRAIN_FLAGS,
                   "--out", str(out_b))[0] == 0
        with open(out_a / "embeddings.tsv", "rb") as fa, \
                open(out_b / "embeddings.tsv", "rb") as fb:
            assert fa.read() == fb.read()

    def test_missing_manifest_fails_cleanly(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--manifest", str(tmp_path / "nope.txt"),
                           "--out", str(tmp_path / "r"))
        assert code == 1 and "dpmne-error" in err

    def test_bad_dim_fails_before_any_output(self, dataset, tmp_path, capsys):
        out = tmp_path / "r"
        code, _, err = run(capsys, "train", "--manifest", dataset, "--dim", "0",
                           "--out", str(out))
        assert code == 1
        assert not os.path.exists(out)

    def test_empty_layers_fail_with_one_value_error_line(self, dataset, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--manifest", dataset, "--layers", "",
                           "--out", str(tmp_path / "r"))
        assert code == 1
        assert err.startswith("dpmne-error\tValueError\t") and err.count("\n") == 1

    def test_zero_order_fails_with_one_value_error_line(self, dataset, tmp_path, capsys):
        out = tmp_path / "r"
        code, _, err = run(capsys, "train", "--manifest", dataset, "--order", "0",
                           "--out", str(out))
        assert code == 1
        assert err.startswith("dpmne-error\tValueError\t") and err.count("\n") == 1
        assert not os.path.exists(out)

    def test_negative_seed_fails_with_one_line_naming_it(self, dataset, tmp_path, capsys):
        out = tmp_path / "r"
        code, _, err = run(capsys, "train", "--manifest", dataset, *TRAIN_FLAGS, "--seed", "-1",
                           "--out", str(out))
        assert code == 1
        assert err.startswith("dpmne-error\tValueError\tseed") and err.count("\n") == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag", ["--h-lr", "--lambda"])
    def test_infinite_setting_fails_with_one_value_error_line(self, dataset, tmp_path, capsys,
                                                              flag):
        out = tmp_path / "r"
        code, _, err = run(capsys, "train", "--manifest", dataset, *TRAIN_FLAGS, flag, "inf",
                           "--out", str(out))
        assert code == 1
        assert err.startswith("dpmne-error\tValueError\t") and err.count("\n") == 1
        assert not os.path.exists(out)

    def test_bad_thread_cap_fails_with_one_value_error_line(self, dataset, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.setenv("DPMNE_THREADS", "lots")
        out = tmp_path / "r"
        code, _, err = run(capsys, "train", "--manifest", dataset, *TRAIN_FLAGS,
                           "--out", str(out))
        assert code == 1
        assert err.startswith("dpmne-error\tValueError\tDPMNE_THREADS") and err.count("\n") == 1
        assert not os.path.exists(out)

    def test_flag_defaults_are_the_library_defaults(self):
        parser = _build_parser()
        for argv in (["train", "--manifest", "m", "--out", "o"],
                     ["sweep-pdr", "--manifest", "m", "--ratios", "0.3"],
                     ["tune", "--manifest", "m", "--grid", "1,1,1"]):
            assert _hyper_from_args(parser.parse_args(argv)) == Hyperparams()
        for argv in (["eval", "--manifest", "m", "--checkpoint", "c", "--task", "cluster"],
                     ["sweep-pdr", "--manifest", "m", "--ratios", "0.3"]):
            assert _protocol_from_args(parser.parse_args(argv)) == EvalProtocol()
        synth = parser.parse_args(["synth", "--n", "20", "--communities", "2", "--out", "o"])
        assert _synth_config_from_args(synth) == SynthConfig(n=20, communities=2)
        tune = parser.parse_args(["tune", "--manifest", "m", "--grid", "1,1,1"])
        assert tune.folds == inspect.signature(cross_validate).parameters["folds"].default
        # no --iters: binarize calls itq with itq's own default
        assert parser.parse_args(["binarize", "--checkpoint", "c", "--itq",
                                  "--out", "o"]).iters is None


class TestBinarize:
    @pytest.fixture
    def trained(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        run(capsys, "train", "--manifest", dataset, *TRAIN_FLAGS, "--out", str(out))
        return str(out / "checkpoint.npz")

    def test_plain_sign_codes(self, trained, tmp_path, capsys):
        out = tmp_path / "codes"
        code, stdout, _ = run(capsys, "binarize", "--checkpoint", trained,
                              "--out", str(out))
        assert code == 0
        assert os.path.exists(out / "codes.tsv")
        assert os.path.exists(out / "codes.bin")
        values = {float(x) for line in (out / "codes.tsv").read_text().splitlines()
                  for x in line.split("\t")[1:]}
        assert values <= {-1.0, 1.0}

    def test_rotation_variant_reports_no_worse_loss(self, trained, tmp_path, capsys):
        _, plain_out, _ = run(capsys, "binarize", "--checkpoint", trained,
                              "--out", str(tmp_path / "p"))
        _, rotated_out, _ = run(capsys, "binarize", "--checkpoint", trained, "--itq",
                                "--iters", "30", "--out", str(tmp_path / "q"))
        plain = float(plain_out.split("quant_loss=")[1])
        rotated = float(rotated_out.split("quant_loss=")[1])
        assert rotated <= plain + 1e-9

    def test_iters_without_itq_fails_fast(self, trained, tmp_path, capsys):
        out = tmp_path / "c"
        code, _, err = run(capsys, "binarize", "--checkpoint", trained,
                           "--iters", "5", "--out", str(out))
        assert code == 1 and "dpmne-error" in err
        assert not os.path.exists(out)

    def test_zero_rotation_iterations_fail_with_one_value_error_line(self, trained, tmp_path,
                                                                     capsys):
        out = tmp_path / "c"
        code, _, err = run(capsys, "binarize", "--checkpoint", trained, "--itq",
                           "--iters", "0", "--out", str(out))
        assert code == 1
        assert err.startswith("dpmne-error\tValueError\t") and err.count("\n") == 1
        assert not os.path.exists(out)


class TestEval:
    @pytest.fixture
    def trained(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        run(capsys, "train", "--manifest", dataset, *TRAIN_FLAGS, "--out", str(out))
        return str(out / "checkpoint.npz")

    def test_classification_report(self, dataset, trained, capsys):
        code, stdout, _ = run(capsys, "eval", "--manifest", dataset,
                              "--checkpoint", trained, "--task", "classify",
                              "--repeats", "3", "--seed", "2")
        assert code == 0
        assert "micro_f1" in stdout and "macro_f1" in stdout

    def test_clustering_report(self, dataset, trained, capsys):
        code, stdout, _ = run(capsys, "eval", "--manifest", dataset,
                              "--checkpoint", trained, "--task", "cluster")
        assert code == 0
        assert "clustering_accuracy" in stdout

    def test_bad_train_fraction_fails_fast(self, dataset, trained, capsys):
        code, _, err = run(capsys, "eval", "--manifest", dataset,
                           "--checkpoint", trained, "--task", "classify",
                           "--train-frac", "1.5")
        assert code == 1 and "dpmne-error" in err

    def test_determinism_across_runs(self, dataset, trained, capsys):
        args = ("eval", "--manifest", dataset, "--checkpoint", trained,
                "--task", "classify", "--repeats", "2", "--seed", "7")
        _, out_a, _ = run(capsys, *args)
        _, out_b, _ = run(capsys, *args)
        assert out_a == out_b


class TestSweepAndTune:
    def test_sweep_writes_wide_and_long_tables(self, dataset, tmp_path, capsys):
        out = tmp_path / "sweep"
        code, stdout, _ = run(capsys, "sweep-pdr", "--manifest", dataset,
                              "--ratios", "0.2,0.3", "--methods", "dpmne,zero-fill",
                              "--dim", "4", "--max-iters", "2", "--layers", "6",
                              "--repeats", "2", "--seed", "1", "--out", str(out))
        assert code == 0
        wide = (out / "sweep.tsv").read_text().splitlines()
        assert len(wide) == 1 + 4  # header + ratios x methods
        long = (out / "sweep_long.tsv").read_text().splitlines()
        assert len(long) == 1 + 8  # two metrics per row
        assert stdout.splitlines()[0].startswith("ratio\tmethod")

    def test_unsorted_ratios_fail_before_training(self, dataset, capsys):
        code, _, err = run(capsys, "sweep-pdr", "--manifest", dataset,
                           "--ratios", "0.3,0.1")
        assert code == 1 and "dpmne-error" in err

    def test_tune_prints_the_selected_point(self, dataset, capsys):
        code, stdout, _ = run(capsys, "tune", "--manifest", dataset,
                              "--grid", "1,0.1,0.01", "--folds", "2",
                              "--dim", "4", "--max-iters", "2", "--layers", "6",
                              "--seed", "1")
        assert code == 0
        assert stdout.strip() == "alpha=1\tbeta=0.1\tlambda=0.01"

    def test_malformed_grid_fails_fast(self, dataset, capsys):
        code, _, err = run(capsys, "tune", "--manifest", dataset, "--grid", "1,2")
        assert code == 1
        assert err.startswith("dpmne-error\tValueError\t") and err.count("\n") == 1
        assert "must be (alpha, beta, lam)" in err  # raised by cross_validate

    def test_empty_grid_fails_with_one_value_error_line(self, dataset, capsys):
        code, _, err = run(capsys, "tune", "--manifest", dataset, "--grid", " ; ")
        assert code == 1
        assert err.startswith("dpmne-error\tValueError\t") and err.count("\n") == 1
