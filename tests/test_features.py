
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import invert_permutation
from shufflerl.errors import NonFiniteError, ShuffleRlError
from shufflerl.features import (
    FeatureLayout,
    PermutationSpec,
    WindowMatrix,
    apply_permutation,
    build_feature_vector,
    slide_window,
    ticker_block_permutation,
)

# Frozen from the block formula by independent enumeration (see
# name_based_permutation below), D = 2.
PERM_D2 = [0, 1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 33,
           2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34]


def name_based_permutation(d):
    """Oracle: derive the permutation from feature names, not index math."""
    canonical = (
        ["bal"]
        + [f"p{i}" for i in range(d)]
        + [f"h{i}" for i in range(d)]
        + [f"r{j}.{i}" for j in range(15) for i in range(d)]
    )
    shuffled = ["bal"]
    for i in range(d):
        shuffled += [f"p{i}", f"h{i}"] + [f"r{j}.{i}" for j in range(15)]
    index = {name: k for k, name in enumerate(canonical)}
    return [index[name] for name in shuffled]


class TestFeatureLayout:
    def test_total_for_thirty_tickers(self):
        layout = FeatureLayout(30)
        assert layout.total == 511
        assert layout.price_index(0) == 1
        assert layout.holding_index(0) == 31
        assert layout.ratio_index(0, 0) == 61
        assert layout.ratio_index(14, 29) == 510

    @pytest.mark.parametrize("d", [1, 2, 5, 17, 40])
    def test_total_formula(self, d):
        assert FeatureLayout(d).total == 1 + 17 * d

    def test_ratio_index_hand_value(self):
        # D=2, ratio 3 of ticker 1: 2*2+1 + 3*2 + 1 = 12
        assert FeatureLayout(2).ratio_index(3, 1) == 12

    def test_rejects_zero_tickers(self):
        with pytest.raises(ShuffleRlError):
            FeatureLayout(0)


class TestBuildFeatureVector:
    def test_scaled_balance_and_length(self):
        d = 30
        vec = build_feature_vector(
            balance=1_000_000.0,
            prices=np.full(d, 50.0),
            holdings=np.zeros(d, dtype=np.int64),
            ratios=np.zeros((15, d)),
            scale=1e-6,
        )
        assert vec.shape == (511,)
        assert vec.dtype == np.float64
        assert vec[0] == 1.0

    def test_block_layout_two_tickers(self):
        vec = build_feature_vector(
            balance=0.0,
            prices=np.array([10.0, 20.0]),
            holdings=np.array([0, 0]),
            ratios=np.zeros((15, 2)),
            scale=1.0,
        )
        assert len(vec) == 35
        expected = np.zeros(35)
        expected[1], expected[2] = 10.0, 20.0
        np.testing.assert_array_equal(vec, expected)

    def test_ratio_placement(self):
        ratios = np.zeros((15, 2))
        ratios[3, 1] = 7.5
        vec = build_feature_vector(0.0, np.array([1.0, 1.0]), np.array([0, 0]), ratios, 1.0)
        assert vec[12] == 7.5

    def test_dimension_mismatch(self):
        with pytest.raises(ShuffleRlError):
            build_feature_vector(0.0, np.array([1.0, 2.0]), np.array([0]), np.zeros((15, 2)), 1.0)
        with pytest.raises(ShuffleRlError):
            build_feature_vector(0.0, np.array([1.0]), np.array([0]), np.zeros((14, 1)), 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError):
            build_feature_vector(np.nan, np.array([1.0]), np.array([0]), np.zeros((15, 1)), 1.0)

    def test_nonpositive_price_rejected(self):
        with pytest.raises(ShuffleRlError):
            build_feature_vector(0.0, np.array([0.0]), np.array([0]), np.zeros((15, 1)), 1.0)


class TestTickerBlockPermutation:
    def test_single_ticker_is_identity(self):
        spec = ticker_block_permutation(FeatureLayout(1))
        np.testing.assert_array_equal(spec.perm, np.arange(18))

    def test_two_tickers_frozen_value(self):
        spec = ticker_block_permutation(FeatureLayout(2))
        assert spec.perm.tolist() == PERM_D2

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 30])
    def test_matches_name_oracle(self, d):
        spec = ticker_block_permutation(FeatureLayout(d))
        assert spec.perm.tolist() == name_based_permutation(d)

    @pytest.mark.parametrize("d", [1, 2, 7, 30])
    def test_price_and_shares_adjacent(self, d):
        layout = FeatureLayout(d)
        spec = ticker_block_permutation(layout)
        positions = invert_permutation(spec).perm  # canonical index -> shuffled position
        for i in range(d):
            assert positions[layout.price_index(i)] == 1 + 17 * i
            assert positions[layout.holding_index(i)] == 1 + 17 * i + 1

    @pytest.mark.parametrize("d", [1, 3, 12, 40])
    def test_block_contiguity(self, d):
        layout = FeatureLayout(d)
        positions = invert_permutation(ticker_block_permutation(layout)).perm
        for i in range(d):
            block = [positions[layout.price_index(i)], positions[layout.holding_index(i)]]
            block += [positions[layout.ratio_index(j, i)] for j in range(15)]
            block.sort()
            assert block == list(range(block[0], block[0] + 17))


class TestApplyAndInvert:
    def test_identity(self):
        vec = np.array([3.0, 1.0, 4.0])
        out = apply_permutation(vec, PermutationSpec(np.arange(3)))
        np.testing.assert_array_equal(out, vec)

    def test_gather_semantics(self):
        vec = np.array([1.0, 2.0, 3.0, 4.0])  # (a, b, c, d)
        out = apply_permutation(vec, PermutationSpec(np.array([2, 0, 3, 1])))
        np.testing.assert_array_equal(out, [3.0, 1.0, 4.0, 2.0])  # (c, a, d, b)

    def test_invert_hand_values(self):
        assert invert_permutation(PermutationSpec(np.array([2, 0, 1]))).perm.tolist() == [1, 2, 0]
        assert invert_permutation(PermutationSpec(np.arange(5))).perm.tolist() == list(range(5))

    def test_length_mismatch(self):
        with pytest.raises(ShuffleRlError):
            apply_permutation(np.zeros(3), PermutationSpec(np.arange(4)))

    def test_not_a_bijection(self):
        with pytest.raises(ShuffleRlError):
            PermutationSpec(np.array([0, 0, 1]))

    def test_roundtrip_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            spec = PermutationSpec(rng.permutation(n))
            vec = rng.standard_normal(n)
            back = apply_permutation(apply_permutation(vec, spec), invert_permutation(spec))
            np.testing.assert_array_equal(back, vec)
            composed = spec.perm[invert_permutation(spec).perm]
            np.testing.assert_array_equal(composed, np.arange(n))

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_value_multiset_conserved(self, d, seed):
        rng = np.random.default_rng(seed)
        layout = FeatureLayout(d)
        vec = rng.standard_normal(layout.total)
        out = apply_permutation(vec, ticker_block_permutation(layout))
        np.testing.assert_array_equal(np.sort(out), np.sort(vec))


class TestWindow:
    def _vectors(self, count, width=4, start=0.0):
        return [np.full(width, start + k) for k in range(count)]

    def test_slide_semantics(self):
        window = WindowMatrix(np.stack(self._vectors(3)))
        slid = slide_window(window, np.full(4, 9.0))
        assert slid.rows.shape == window.rows.shape
        np.testing.assert_array_equal(slid.rows[0], np.full(4, 1.0))
        np.testing.assert_array_equal(slid.rows[2], np.full(4, 9.0))
        # original untouched
        np.testing.assert_array_equal(window.rows[0], np.zeros(4))

    def test_slide_replay_replaces_all_rows(self):
        length = 5
        window = WindowMatrix(np.stack(self._vectors(length)))
        news = self._vectors(length, start=100.0)
        for vec in news:
            window = slide_window(window, vec)
        np.testing.assert_array_equal(window.rows, np.stack(news))

    def test_slide_width_mismatch(self):
        window = WindowMatrix(np.stack(self._vectors(3)))
        with pytest.raises(ShuffleRlError):
            slide_window(window, np.zeros(5))

    def test_shuffle_commutes_with_slide(self):
        rng = np.random.default_rng(7)
        layout = FeatureLayout(2)
        spec = ticker_block_permutation(layout)
        vectors = [rng.standard_normal(layout.total) for _ in range(4)]
        newest = rng.standard_normal(layout.total)

        shuffled_then_slid = slide_window(
            WindowMatrix(np.stack([apply_permutation(v, spec) for v in vectors])),
            apply_permutation(newest, spec),
        )
        slid = slide_window(WindowMatrix(np.stack(vectors)), newest)
        slid_then_shuffled = np.stack([row[spec.perm] for row in slid.rows])
        np.testing.assert_array_equal(shuffled_then_slid.rows, slid_then_shuffled)
