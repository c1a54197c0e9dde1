import itertools

import numpy as np
import pytest

from dpmne.quantizer import (BinaryCodes, binarize_sign, itq, pack_codes,
                             procrustes_rotation, unpack_codes)


def quant_loss(C, Y, Q):
    return float(np.sum((C - Y @ Q) ** 2))


def brute_force_optimum(Y):
    """Global minimum over all sign patterns, each with its best rotation."""
    n, d = Y.shape
    best = np.inf
    for bits in itertools.product((-1.0, 1.0), repeat=n * d):
        C = np.array(bits).reshape(n, d)
        Q = procrustes_rotation(Y, C)
        best = min(best, quant_loss(C, Y, Q))
    return best


def is_fixed_point(codes, Y, tol=1e-12):
    """One more alternation round must leave the loss (and codes) unchanged."""
    Q_next = procrustes_rotation(Y, codes.codes)
    C_next = np.where(Y @ Q_next >= 0, 1.0, -1.0)
    next_loss = quant_loss(C_next, Y, Q_next)
    return (next_loss >= codes.quant_loss - tol
            and np.array_equal(C_next, codes.codes))


class TestBinarizeSign:
    def test_binary_input_is_lossless(self):
        Y = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
        codes = binarize_sign(Y)
        assert np.array_equal(codes.codes, Y)
        assert codes.quant_loss == 0.0
        assert np.array_equal(codes.rotation, np.eye(2))

    def test_zero_matrix_ties_resolve_to_plus_one(self):
        codes = binarize_sign(np.zeros((3, 2)))
        assert np.array_equal(codes.codes, np.ones((3, 2)))

    @pytest.mark.parametrize("seed", range(4))
    def test_loss_matches_elementwise_expansion(self, seed):
        Y = np.random.default_rng(seed).standard_normal((6, 4))
        codes = binarize_sign(Y)
        oracle = sum((abs(y) - 1.0) ** 2 for y in Y.ravel())
        assert abs(codes.quant_loss - oracle) < 1e-10

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            binarize_sign(np.array([[np.nan, 1.0]]))


class TestItq:
    def test_already_binary_converges_immediately_with_zero_loss(self):
        Y = np.where(np.random.default_rng(0).standard_normal((5, 3)) >= 0, 1.0, -1.0)
        codes = itq(Y, iterations=10)
        assert codes.quant_loss == 0.0
        assert np.array_equal(codes.codes, Y)
        assert len(codes.loss_trace) <= 2  # converged within the first round

    @pytest.mark.parametrize("seed", range(20))
    def test_two_by_two_instances_reach_brute_force_or_certified_local_optimum(self, seed):
        Y = np.random.default_rng(seed).standard_normal((2, 2))
        codes = itq(Y, iterations=200)
        global_best = brute_force_optimum(Y)
        assert (codes.quant_loss <= global_best + 1e-9) or is_fixed_point(codes, Y)

    @pytest.mark.parametrize("seed", range(5))
    def test_loss_trace_is_non_increasing(self, seed):
        Y = np.random.default_rng(seed + 100).standard_normal((30, 5))
        codes = itq(Y, iterations=50)
        trace = codes.loss_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    @pytest.mark.parametrize("seed", range(5))
    def test_rotation_stays_orthogonal(self, seed):
        Y = np.random.default_rng(seed + 200).standard_normal((20, 4))
        codes = itq(Y, iterations=30)
        Q = codes.rotation
        assert np.linalg.norm(Q.T @ Q - np.eye(4)) < 1e-8

    def test_codes_are_signs_of_the_rotated_embedding(self):
        Y = np.random.default_rng(7).standard_normal((15, 3))
        codes = itq(Y, iterations=25)
        assert np.array_equal(codes.codes, np.where(Y @ codes.rotation >= 0, 1.0, -1.0))
        assert np.isin(codes.codes, (-1.0, 1.0)).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_rotating_the_input_leaves_the_final_loss_unchanged(self, seed):
        # the solution sets of Y and Y R are one orbit: starting Y R from the
        # counter-rotation retraces the same trajectory at the same losses
        rng = np.random.default_rng(seed + 300)
        Y = rng.standard_normal((40, 3))
        R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = itq(Y, iterations=100)
        b = itq(Y @ R, iterations=100, initial_rotation=R.T)
        assert abs(a.quant_loss - b.quant_loss) < 1e-8
        # and any fixed point of Y maps to an equal-loss fixed point of Y R
        mapped = quant_loss(a.codes, Y @ R, R.T @ a.rotation)
        assert abs(mapped - a.quant_loss) < 1e-8
        assert is_fixed_point(BinaryCodes(a.codes, R.T @ a.rotation, mapped, []), Y @ R,
                              tol=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_rotating_the_input_preserves_the_global_optimum(self, seed):
        # brute-force check of the orbit argument at enumerable size
        rng = np.random.default_rng(seed + 500)
        Y = rng.standard_normal((3, 2))
        R, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        assert abs(brute_force_optimum(Y) - brute_force_optimum(Y @ R)) < 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_never_worse_than_plain_sign_codes(self, seed):
        Y = np.random.default_rng(seed + 400).standard_normal((25, 4))
        assert itq(Y, iterations=20).quant_loss <= binarize_sign(Y).quant_loss + 1e-12

    def test_separated_clusters_keep_small_intra_hamming_distance(self):
        rng = np.random.default_rng(11)
        centers = np.array([[4.0, 4.0, -4.0], [-4.0, -4.0, 4.0]])
        points = np.vstack([centers[0] + 0.3 * rng.standard_normal((20, 3)),
                            centers[1] + 0.3 * rng.standard_normal((20, 3))])
        codes = itq(points, iterations=30).codes
        ham = (codes[:, None, :] != codes[None, :, :]).sum(axis=2)
        intra = np.concatenate([ham[:20, :20].ravel(), ham[20:, 20:].ravel()])
        inter = ham[:20, 20:].ravel()
        assert intra.mean() < inter.mean()

    @pytest.mark.parametrize("iterations", [0, 2.5, True, None])
    def test_bad_iteration_count_rejected(self, iterations):
        with pytest.raises(ValueError, match="^iterations must be an integer >= 1"):
            itq(np.eye(3), iterations=iterations)

    def test_the_start_is_given_only_as_a_rotation(self):
        # a seed would be a second spelling of the start that initial_rotation gives
        with pytest.raises(TypeError, match="seed"):
            itq(np.eye(3), seed=5)

    @pytest.mark.parametrize("rotation", [np.eye(2), 2.0 * np.eye(3), np.ones((3, 3))])
    def test_start_that_is_not_a_d_by_d_rotation_rejected(self, rotation):
        with pytest.raises(ValueError, match="^initial_rotation must be a d x d orthogonal"):
            itq(np.eye(3), initial_rotation=rotation)

    def test_rank_deficient_embedding_is_handled(self):
        Y = np.zeros((6, 3))
        Y[:, 0] = np.random.default_rng(17).standard_normal(6)
        codes = itq(Y, iterations=20)
        assert np.isin(codes.codes, (-1.0, 1.0)).all()
        assert np.linalg.norm(codes.rotation.T @ codes.rotation - np.eye(3)) < 1e-8


class TestPackedCodes:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        C = np.where(rng.standard_normal((7, 11)) >= 0, 1.0, -1.0)
        packed = pack_codes(C)
        assert packed.shape == (7, 2)  # 11 bits pad to 2 bytes
        assert np.array_equal(unpack_codes(packed, 11), C)

    def test_bit_layout_is_little_endian_per_byte(self):
        C = -np.ones((1, 9))
        C[0, 0] = 1.0   # bit 0 of byte 0
        C[0, 8] = 1.0   # bit 0 of byte 1
        packed = pack_codes(C)
        assert packed.tolist() == [[1, 1]]

    def test_non_binary_input_rejected(self):
        with pytest.raises(ValueError):
            pack_codes(np.array([[0.5, 1.0]]))

    def test_code_length_beyond_the_packed_bits_rejected(self):
        packed = pack_codes([[1.0, -1.0, 1.0]])
        assert unpack_codes(packed, 8).shape == (1, 8)  # the padding of the one byte
        with pytest.raises(ValueError):
            unpack_codes(packed, 12)

    @pytest.mark.parametrize("dim", [-3, 2.0, 1.5, True, None, "8"])
    def test_code_length_that_is_not_a_count_rejected(self, dim):
        packed = pack_codes(np.ones((3, 10)))
        with pytest.raises(ValueError, match=r"^dim must be an integer >= 0, got "):
            unpack_codes(packed, dim)

    @pytest.mark.parametrize("shape", [(2,), (), (1, 2, 1)])
    def test_packed_codes_that_are_not_one_row_per_code_rejected(self, shape):
        with pytest.raises(ValueError, match=r"^packed codes must be 2-D"):
            unpack_codes(np.zeros(shape, dtype=np.uint8), 8)

    def test_zero_length_codes_unpack_to_empty_rows(self):
        assert unpack_codes(pack_codes(np.ones((3, 10))), 0).shape == (3, 0)
