import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuromesh.aggregation import diff_sum_aggregate
from neuromesh.control import ControlPolicy, policy_forward
from neuromesh.errors import ShapeError, WeightFormatError
from neuromesh.tensors import (
    WEIGHTS_MAGIC,
    WEIGHTS_VERSION,
    AttentionSpec,
    MlpSpec,
    attention_forward,
    identity_mlp,
    load_attention,
    load_matrices,
    load_mlp,
    mlp_forward,
    random_attention,
    random_mlp,
    save_attention,
    save_matrices,
    save_mlp,
    softplus_shift,
)

from oracles import naive_attention_forward, naive_mlp_forward


class TestMlpForward:
    def test_identity_network_passes_input_through(self):
        spec = identity_mlp(2)
        out = mlp_forward(spec, [1.5, -2.0])
        assert np.array_equal(out, np.array([1.5, -2.0], dtype=np.float32))

    def test_single_affine_layer(self):
        spec = MlpSpec([np.array([[2.0, 0.0], [0.0, 3.0]])], [np.array([1.0, 1.0])], "none")
        out = mlp_forward(spec, [1.0, 1.0])
        assert np.array_equal(out, np.array([3.0, 4.0], dtype=np.float32))

    def test_seeded_four_layer_matches_scalar_loop_oracle(self):
        spec = random_mlp([8, 64, 64, 64, 4], seed=42)
        x = np.ones(8, dtype=np.float32)
        got = mlp_forward(spec, x)
        want = naive_mlp_forward(spec, x)
        assert np.allclose(got, want, atol=1e-6)

    def test_input_length_mismatch_names_both_dims(self):
        spec = random_mlp([4, 8, 2], seed=0)
        with pytest.raises(ShapeError, match="3.*4|4.*3"):
            mlp_forward(spec, np.zeros(3, dtype=np.float32))

    def test_layer_shape_validation(self):
        with pytest.raises(ShapeError, match="bias"):
            MlpSpec([np.eye(2, dtype=np.float32)], [np.zeros(3, dtype=np.float32)])
        with pytest.raises(ShapeError, match="layer 1"):
            MlpSpec(
                [np.eye(2, dtype=np.float32), np.ones((2, 3), dtype=np.float32)],
                [np.zeros(2, dtype=np.float32)] * 2,
            )

    def test_relu_positive_homogeneity_single_hidden_layer(self):
        spec = random_mlp([4, 16, 3], seed=7)
        for w in spec.biases:
            w[:] = 0.0
        x = np.random.default_rng(1).normal(size=4).astype(np.float32)
        base = mlp_forward(spec, x)
        scaled = mlp_forward(spec, 2.5 * x)
        assert np.allclose(scaled, 2.5 * base, rtol=1e-5, atol=1e-6)

    def test_deterministic_bit_identical(self):
        spec = random_mlp([6, 32, 6], seed=3)
        x = np.random.default_rng(5).normal(size=6).astype(np.float32)
        assert mlp_forward(spec, x).tobytes() == mlp_forward(spec, x).tobytes()


class TestSoftplusShift:
    def test_zero_maps_to_one_plus_ln2(self):
        out = softplus_shift(np.array([0.0]))
        assert abs(float(out[0]) - (1.0 + math.log(2.0))) < 1e-9

    def test_large_negative_saturates_to_one(self):
        assert abs(float(softplus_shift(np.array([-1000.0]))[0]) - 1.0) < 1e-9

    def test_large_positive_is_shifted_identity(self):
        assert abs(float(softplus_shift(np.array([1000.0]))[0]) - 1001.0) < 1e-6

    def test_stable_at_extreme_magnitudes(self):
        out = softplus_shift(np.array([-1e4, 1e4]))
        assert np.isfinite(out).all()
        assert abs(out[0] - 1.0) < 1e-9
        assert abs(out[1] - 10001.0) < 1e-3

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_monotone_and_above_one(self, values):
        arr = np.array(sorted(values))
        out = softplus_shift(arr)
        assert (np.diff(out) >= 0).all()
        assert (out - 1.0 >= 0).all()

    def test_rejects_non_finite(self):
        with pytest.raises(ShapeError):
            softplus_shift(np.array([np.nan]))


def _identity_attention(dim, heads=1, layers=1):
    eye = np.eye(dim, dtype=np.float32)
    return AttentionSpec(
        heads=heads, model_dim=dim,
        wq=[eye.copy() for _ in range(layers)], wk=[eye.copy() for _ in range(layers)],
        wv=[eye.copy() for _ in range(layers)], wo=[eye.copy() for _ in range(layers)],
    )


class TestAttentionForward:
    def test_single_context_identity_projections_returns_context(self):
        spec = _identity_attention(4)
        query = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)
        ctx = np.array([5.0, -1.0, 0.5, 2.0], dtype=np.float32)
        assert np.array_equal(attention_forward(spec, query, [ctx]), ctx)

    def test_duplicate_context_equals_single_context(self):
        spec = _identity_attention(4, heads=2)
        query = np.array([0.1, 0.2, 0.3, 0.4], dtype=np.float32)
        ctx = np.array([5.0, -1.0, 0.5, 2.0], dtype=np.float32)
        single = attention_forward(spec, query, [ctx])
        double = attention_forward(spec, query, [ctx, ctx.copy()])
        assert np.array_equal(single, double)

    def test_seeded_spec_matches_straight_line_oracle(self):
        spec = random_attention(model_dim=12, heads=3, layers=2, seed=11)
        rng = np.random.default_rng(13)
        query = rng.normal(size=12).astype(np.float32)
        context = [rng.normal(size=12).astype(np.float32) for _ in range(3)]
        got = attention_forward(spec, query, context)
        want = naive_attention_forward(spec, query, context)
        assert np.allclose(got, want, atol=1e-5)

    @pytest.mark.parametrize("context,match", [
        ([np.zeros(4), np.zeros(3)], "equal rows"),
        ([np.zeros((2, 4))], r"\(M, 4\)"),
        (np.zeros(4), r"\(M, 4\)"),
        ([np.zeros(3)], r"\(M, 4\)"),
        ([np.zeros(4), np.array([0.0, np.inf, 0.0, 0.0])], "non-finite"),
    ], ids=["ragged", "rank-3", "rank-1", "width", "non-finite"])
    def test_malformed_context_block_is_a_shape_error(self, context, match):
        spec = _identity_attention(4)
        with pytest.raises(ShapeError, match=match):
            attention_forward(spec, np.zeros(4, dtype=np.float32), context)

    def test_a_context_block_equals_its_list_of_rows(self):
        spec = random_attention(model_dim=12, heads=3, layers=2, seed=11)
        rng = np.random.default_rng(13)
        query = rng.normal(size=12).astype(np.float32)
        block = rng.normal(size=(3, 12)).astype(np.float32)
        assert np.array_equal(attention_forward(spec, query, block),
                              attention_forward(spec, query, list(block)))

    def test_empty_context_rejected(self):
        spec = _identity_attention(4)
        with pytest.raises(ShapeError, match="fallback"):
            attention_forward(spec, np.zeros(4, dtype=np.float32), [])

    def test_output_in_convex_hull_of_values(self):
        # 1 layer, 1 head, identity output projection: the result is a convex
        # combination of the value-projected context vectors.
        rng = np.random.default_rng(17)
        dim = 6
        eye = np.eye(dim, dtype=np.float32)
        spec = AttentionSpec(
            heads=1, model_dim=dim,
            wq=[rng.normal(size=(dim, dim)).astype(np.float32)],
            wk=[rng.normal(size=(dim, dim)).astype(np.float32)],
            wv=[rng.normal(size=(dim, dim)).astype(np.float32)],
            wo=[eye],
        )
        query = rng.normal(size=dim).astype(np.float32)
        context = [rng.normal(size=dim).astype(np.float32) for _ in range(4)]
        values = np.stack([spec.wv[0].astype(np.float64) @ c for c in context])
        out = attention_forward(spec, query, context)
        assert (out >= values.min(axis=0) - 1e-5).all()
        assert (out <= values.max(axis=0) + 1e-5).all()

    def test_model_dim_must_divide_by_heads(self):
        with pytest.raises(ShapeError, match="divisible"):
            random_attention(model_dim=10, heads=3, layers=1, seed=0)


class TestWeightFiles:
    def test_mlp_round_trip(self, tmp_path):
        spec = random_mlp([5, 16, 3], seed=21)
        path = tmp_path / "mlp.mwts"
        save_mlp(path, spec)
        loaded = load_mlp(path)
        for w1, w2 in zip(spec.weights, loaded.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(spec.biases, loaded.biases):
            assert np.array_equal(b1, b2)

    def test_a_non_relu_network_is_not_saved(self, tmp_path):
        # the format records no activation and loads ReLU: this identity network
        # maps [-1, 2, -3] to itself, but would load back mapping it to [0, 2, 0]
        spec = identity_mlp(3, layers=2)
        x = np.array([-1.0, 2.0, -3.0], dtype=np.float32)
        assert np.array_equal(mlp_forward(spec, x), x)
        path = tmp_path / "identity.mwts"
        with pytest.raises(WeightFormatError, match="ReLU networks only"):
            save_mlp(path, spec)
        assert not path.exists()

    def test_attention_round_trip(self, tmp_path):
        spec = random_attention(model_dim=8, heads=2, layers=2, seed=5)
        path = tmp_path / "att.mwts"
        save_attention(path, spec)
        loaded = load_attention(path, heads=2)
        x = np.random.default_rng(0).normal(size=8).astype(np.float32)
        ctx = [np.random.default_rng(1).normal(size=8).astype(np.float32)]
        assert np.array_equal(
            attention_forward(spec, x, ctx), attention_forward(loaded, x, ctx)
        )

    def test_the_attention_file_gives_the_layer_count(self, tmp_path):
        spec = random_attention(model_dim=6, heads=3, layers=3, seed=2)
        path = tmp_path / "att3.mwts"
        save_attention(path, spec)
        loaded = load_attention(path, heads=3)
        assert loaded.layers == 3
        x = np.random.default_rng(0).normal(size=6).astype(np.float32)
        ctx = np.random.default_rng(1).normal(size=(2, 6)).astype(np.float32)
        assert (attention_forward(loaded, x, ctx).tobytes()
                == attention_forward(spec, x, ctx).tobytes())

    @pytest.mark.parametrize("count", [0, 6])
    def test_an_attention_file_of_partial_layers_is_refused(self, tmp_path, count):
        path = tmp_path / "partial.mwts"
        mats = [np.eye(4, dtype=np.float32)] * count
        zeros = [np.zeros(4, dtype=np.float32)] * count
        if count:
            save_matrices(path, mats, zeros)
        else:  # save_matrices refuses an empty stack, so write the bare header
            path.write_bytes(WEIGHTS_MAGIC + bytes([WEIGHTS_VERSION, 0]))
        with pytest.raises(WeightFormatError, match=f"4 projection matrices per attention "
                                                    f"layer, got {count}"):
            load_attention(path, heads=1)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mwts"
        path.write_bytes(b"XXXX\x01\x01" + b"\0" * 16)
        with pytest.raises(WeightFormatError, match="magic"):
            load_matrices(path)

    def test_truncated_file_rejected(self, tmp_path):
        spec = random_mlp([4, 4], seed=1)
        path = tmp_path / "trunc.mwts"
        save_mlp(path, spec)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(WeightFormatError, match="truncated"):
            load_matrices(path)

    @pytest.mark.parametrize("blob,message", [
        (WEIGHTS_MAGIC + bytes([WEIGHTS_VERSION]), "shorter than its header"),
        (WEIGHTS_MAGIC + bytes([WEIGHTS_VERSION + 1, 1]), "unsupported weight-file version"),
        (WEIGHTS_MAGIC + bytes([WEIGHTS_VERSION, 1]) + bytes(7), "layer 0: truncated shape header"),
    ], ids=["short-header", "unknown-version", "short-shape-header"])
    def test_a_malformed_header_is_refused(self, tmp_path, blob, message):
        path = tmp_path / "bad.mwts"
        path.write_bytes(blob)
        with pytest.raises(WeightFormatError, match=message):
            load_matrices(path)

    @pytest.mark.parametrize("layers,biases,message", [
        (1, 2, "weights and biases count differ"),
        (0, 0, r"layer count 0 outside \[1, 255\]"),
        (256, 256, r"layer count 256 outside \[1, 255\]"),
        ("vector", 1, "not a matrix plus row bias"),
        ("short-bias", 1, "not a matrix plus row bias"),
    ], ids=["count-mismatch", "no-layers", "too-many-layers", "vector-weight", "short-bias"])
    def test_a_stack_that_is_not_layers_is_not_saved(self, tmp_path, layers, biases, message):
        eye, zero = np.eye(4, dtype=np.float32), np.zeros(4, dtype=np.float32)
        weights = {"vector": [zero], "short-bias": [eye]}.get(layers) or [eye] * layers
        bias = [zero[:3]] if layers == "short-bias" else [zero] * biases
        with pytest.raises(WeightFormatError, match=message):
            save_matrices(tmp_path / "bad.mwts", weights, bias)

    def test_trailing_bytes_rejected(self, tmp_path):
        spec = random_mlp([4, 4], seed=1)
        path = tmp_path / "extra.mwts"
        save_mlp(path, spec)
        path.write_bytes(path.read_bytes() + b"\0\0")
        with pytest.raises(WeightFormatError, match="trailing"):
            load_matrices(path)


# Layer shapes of the learned navigation policy (ControlPolicy.random defaults).
NAV_SHAPES = {
    "encoder": [8, 64, 64, 64, 16],
    "pairwise": [16, 64, 64, 16],
    "decoder": [16, 64, 64, 64, 4],
}
ODD_SHAPES = ([3, 5, 2], [7, 13, 1], [5, 33, 17, 9], [1, 1], [11, 2, 11])


def _tensor_pin_digest() -> str:
    """SHA-256 over the output bytes of seeded kernel calls.

    Covers ``mlp_forward`` on one vector, ``diff_sum_aggregate`` with 0 to 29
    neighbors, ``policy_forward`` and ``attention_forward``, on nav-shaped
    and odd-shaped networks; inputs span several magnitudes.
    """
    digest = hashlib.sha256()
    rng = np.random.default_rng(20261018)
    scales = (1e-3, 1.0, 50.0)
    for k, dims in enumerate([*NAV_SHAPES.values(), *ODD_SHAPES]):
        for activation in ("relu", "none"):
            spec = random_mlp(dims, seed=100 + k, activation=activation)
            for scale in scales:
                for _ in range(10):
                    x = (scale * rng.standard_normal(dims[0])).astype(np.float32)
                    digest.update(mlp_forward(spec, x).tobytes())
    square = [NAV_SHAPES["pairwise"], [3, 8, 3], [5, 33, 17, 5], [2, 2]]
    for k, dims in enumerate(square):
        g = random_mlp(dims, seed=200 + k)
        for m in range(30):
            for scale in scales:
                f = (scale * rng.standard_normal(dims[0])).astype(np.float32)
                nbrs = [(scale * rng.standard_normal(dims[0])).astype(np.float32)
                        for _ in range(m)]
                digest.update(diff_sum_aggregate(g, f, nbrs).tobytes())
            digest.update(diff_sum_aggregate(g, f, [f.copy() for _ in range(m)]).tobytes())
    for seed, (feature_dim, hidden) in enumerate(((16, 64), (16, 64), (5, 13))):
        policy = ControlPolicy.random(feature_dim=feature_dim, hidden=hidden, seed=300 + seed)
        for m in range(12):
            obs = (50.0 * rng.standard_normal(8)).astype(np.float32)
            nbrs = [rng.standard_normal(feature_dim).astype(np.float32) for _ in range(m)]
            digest.update(policy_forward(policy, obs, nbrs).as_array().tobytes())
    for k, (dim, heads, layers) in enumerate(((16, 4, 2), (12, 3, 1), (7, 1, 3), (8, 8, 1))):
        spec = random_attention(model_dim=dim, heads=heads, layers=layers, seed=400 + k)
        for m in range(1, 12):
            query = rng.standard_normal(dim).astype(np.float32)
            context = [rng.standard_normal(dim).astype(np.float32) for _ in range(m)]
            digest.update(attention_forward(spec, query, context).tobytes())
    return digest.hexdigest()


# Recorded before mlp_forward took stacked inputs and cached float64 weights.
TENSOR_PIN_SHA256 = "55eaffc0e3f06022297e58fbfb2af375f6cd8ce63666e66dc02e82c6c01cd411"


def test_tensor_outputs_match_pinned_digest():
    assert _tensor_pin_digest() == TENSOR_PIN_SHA256


class TestStackedMlpForward:
    @pytest.mark.parametrize("shape", list(NAV_SHAPES))
    def test_stacked_call_equals_stacked_per_row_calls(self, shape):
        dims = NAV_SHAPES[shape]
        for seed in range(6):
            spec = random_mlp(dims, seed=500 + seed)
            rng = np.random.default_rng(600 + seed)
            for m in range(1, 50):
                scale = (0.01, 1.0, 50.0)[m % 3]
                x = (scale * rng.standard_normal((m, dims[0]))).astype(np.float32)
                stacked = mlp_forward(spec, x)
                per_row = np.stack([mlp_forward(spec, row) for row in x])
                assert stacked.shape == (m, dims[-1])
                assert stacked.tobytes() == per_row.tobytes(), (shape, seed, m)

    def test_rank_and_width_validation(self):
        spec = random_mlp([4, 8, 2], seed=0)
        with pytest.raises(ShapeError, match="3.*4|4.*3"):
            mlp_forward(spec, np.zeros((5, 3), dtype=np.float32))
        with pytest.raises(ShapeError, match="1-D or 2-D"):
            mlp_forward(spec, np.zeros((2, 2, 4), dtype=np.float32))


class TestCachedWeights:
    def test_weight_edit_after_first_forward_raises(self):
        spec = random_mlp([4, 8, 2], seed=1)
        spec.weights[0][0, 0] = 3.0  # before the first call an edit still counts
        x = np.ones(4, dtype=np.float32)
        mlp_forward(spec, x)
        with pytest.raises(ValueError, match="read-only"):
            spec.weights[0][0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            spec.biases[1][:] = 0.0

    def test_attention_projection_edit_after_first_forward_raises(self):
        spec = random_attention(model_dim=4, heads=2, layers=1, seed=2)
        x = np.ones(4, dtype=np.float32)
        attention_forward(spec, x, [x])
        for mats in (spec.wq, spec.wk, spec.wv, spec.wo):
            with pytest.raises(ValueError, match="read-only"):
                mats[0][0, 0] = 1.0
