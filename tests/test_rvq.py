import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from sunac import codec, rvq
from sunac.errors import ContractViolationError, InvalidArgumentError, SunacError


def identity_weights(feature_dim=6, code_dim=3, n_entries=8, n_layers=4,
                     seed=2):
    """Down projection picks the first code_dim coordinates, up embeds
    them back; entry 0 of every book is the zero vector.  Lets tests
    place feature vectors exactly on codebook entries."""
    rng = np.random.default_rng(seed)
    down = np.zeros((code_dim, feature_dim), dtype=np.float32)
    down[:, :code_dim] = np.eye(code_dim)
    up = np.zeros((feature_dim, code_dim), dtype=np.float32)
    up[:code_dim, :] = np.eye(code_dim)
    books = []
    for _ in range(n_layers):
        book = rng.standard_normal((n_entries, code_dim)).astype(np.float32)
        book[0] = 0.0
        books.append(book)
    return rvq.RvqWeights(
        down_w=down, down_b=np.zeros(code_dim, dtype=np.float32),
        up_w=up, up_b=np.zeros(feature_dim, dtype=np.float32),
        codebooks=tuple(books))


@pytest.fixture(scope="module")
def store_weights(tiny_config, tiny_store):
    return rvq.RvqWeights.from_store(tiny_store, tiny_config)


class TestRvqWeights:
    def test_from_store_shapes(self, tiny_config, store_weights):
        w = store_weights
        assert w.feature_dim == tiny_config.latent_dim
        assert w.code_dim == tiny_config.code_dim
        assert w.n_layers == tiny_config.n_codebooks
        assert w.n_entries == tiny_config.codebook_size

    def test_module_indexed_stores(self):
        # SDCodec is analyzer-only, so its three quantizer modules are
        # checked through the manifest and the seeded init, not RvqWeights.
        config = codec.ModelConfig(
            arch_family="SDCodec", enc_base_dim=4, dec_base_dim=32,
            latent_dim=8, transformer_hidden=8, n_heads=2, ff_dim=16,
            n_codebooks=2, codebook_size=16, code_dim=4)
        rvq_specs = [s for s in codec.manifest(config)
                     if s.name.startswith("rvq")]
        assert [s.name for s in rvq_specs] == [
            f"rvq{m}.{part}" for m in range(3)
            for part in ("down.weight", "down.bias", "up.weight", "up.bias",
                         "codebook0", "codebook1")]
        shapes = {s.name: s.shape for s in rvq_specs}
        for m in range(3):
            assert shapes[f"rvq{m}.down.weight"] == (4, 8)
            assert shapes[f"rvq{m}.up.weight"] == (8, 4)
            assert shapes[f"rvq{m}.codebook1"] == (16, 4)
        store = codec.init_weights(config, seed=1)
        downs = [store[f"rvq{m}.down.weight"] for m in range(3)]
        assert not np.array_equal(downs[0], downs[1])
        assert not np.array_equal(downs[1], downs[2])

    def test_shape_validation(self):
        with pytest.raises(ContractViolationError):
            rvq.RvqWeights(
                down_w=np.zeros((3, 6), dtype=np.float32),
                down_b=np.zeros(3, dtype=np.float32),
                up_w=np.zeros((6, 3), dtype=np.float32),
                up_b=np.zeros(6, dtype=np.float32),
                codebooks=(np.zeros((8, 4), dtype=np.float32),))


class TestQuantize:
    def test_exact_entry_is_recovered(self):
        w = identity_weights()
        x = np.zeros((6, 1), dtype=np.float32)
        x[:3, 0] = w.codebooks[0][5]
        result = rvq.quantize(x, w, n_active=4)
        assert result.codes[0, 0] == 5
        # Later layers see a zero residual and pick the pinned zero entry.
        np.testing.assert_array_equal(result.codes[1:, 0], 0)
        np.testing.assert_array_equal(result.residual_norms, 0.0)
        np.testing.assert_allclose(result.quantized, x, atol=1e-7)

    def test_matches_bruteforce_scan(self, rng):
        w = identity_weights(feature_dim=5, code_dim=5, n_entries=11,
                             n_layers=3)
        # Full-rank square case so the scan target equals the input.
        w = rvq.RvqWeights(
            down_w=np.eye(5, dtype=np.float32),
            down_b=np.zeros(5, dtype=np.float32),
            up_w=np.eye(5, dtype=np.float32),
            up_b=np.zeros(5, dtype=np.float32),
            codebooks=w.codebooks)
        x = rng.standard_normal((5, 17)).astype(np.float32)
        result = rvq.quantize(x, w, n_active=3)
        books = [b.astype(np.float64) for b in w.codebooks]
        want_codes, want_sum = oracles.nearest_codes_naive(
            x.astype(np.float64), books, n_active=3)
        np.testing.assert_array_equal(result.codes, want_codes)
        np.testing.assert_allclose(result.quantized, want_sum, atol=1e-6)

    def test_store_weights_roundtrip_paths_agree(self, store_weights, rng):
        x = rng.standard_normal((store_weights.feature_dim, 9)).astype(np.float32)
        result = rvq.quantize(x, store_weights, n_active=4)
        rebuilt = rvq.codes_to_features(result.codes, store_weights)
        np.testing.assert_array_equal(result.quantized, rebuilt)

    def test_residual_norms_never_increase(self, store_weights, rng):
        x = rng.standard_normal(
            (store_weights.feature_dim, 1000)).astype(np.float32)
        result = rvq.quantize(x, store_weights,
                              n_active=store_weights.n_layers)
        norms = result.residual_norms
        assert np.all(np.diff(norms) <= 1e-9)

    def test_per_frame_monotonicity(self, store_weights, rng):
        # The zero entry makes "skip this layer" always available, so the
        # residual of every single frame is non-increasing in depth.
        w = store_weights
        x = rng.standard_normal((w.feature_dim, 1000)).astype(np.float32)
        result = rvq.quantize(x, w, n_active=w.n_layers)
        target = (w.down_w.astype(np.float64) @ x.astype(np.float64)
                  + w.down_b.astype(np.float64)[:, None])
        residual = target.copy()
        prev = np.sqrt(np.sum(residual ** 2, axis=0))
        for layer in range(w.n_layers):
            entries = w.codebooks[layer].astype(np.float64)
            residual -= entries[result.codes[layer]].T
            cur = np.sqrt(np.sum(residual ** 2, axis=0))
            assert np.all(cur <= prev + 1e-9)
            prev = cur

    def test_deterministic(self, store_weights, rng):
        x = rng.standard_normal((store_weights.feature_dim, 20)).astype(np.float32)
        a = rvq.quantize(x, store_weights, n_active=3)
        b = rvq.quantize(x, store_weights, n_active=3)
        np.testing.assert_array_equal(a.codes, b.codes)
        np.testing.assert_array_equal(a.quantized, b.quantized)

    def test_identical_frames_get_identical_codes(self, store_weights, rng):
        col = rng.standard_normal(store_weights.feature_dim).astype(np.float32)
        x = np.stack([col, col, col], axis=1)
        result = rvq.quantize(x, store_weights, n_active=2)
        assert np.all(result.codes[:, 0] == result.codes[:, 1])
        assert np.all(result.codes[:, 1] == result.codes[:, 2])

    def test_n_active_bounds(self, store_weights, rng):
        x = rng.standard_normal((store_weights.feature_dim, 3)).astype(np.float32)
        with pytest.raises(InvalidArgumentError):
            rvq.quantize(x, store_weights, n_active=0)
        with pytest.raises(InvalidArgumentError):
            rvq.quantize(x, store_weights,
                         n_active=store_weights.n_layers + 1)

    def test_feature_shape_checks(self, store_weights):
        with pytest.raises(ContractViolationError):
            rvq.quantize(np.zeros((3, 4), dtype=np.float32),
                         store_weights, n_active=1)
        with pytest.raises(InvalidArgumentError):
            rvq.quantize(np.zeros((store_weights.feature_dim, 0),
                                  dtype=np.float32),
                         store_weights, n_active=1)


    def test_reconstruction_is_built_only_when_read(self, store_weights, rng,
                                                     monkeypatch):
        class Built(Exception):
            pass

        def codes_to_features(*args, **kwargs):
            raise Built

        monkeypatch.setattr(rvq, "codes_to_features", codes_to_features)
        x = rng.standard_normal((store_weights.feature_dim, 5)).astype(np.float32)
        result = rvq.quantize(x, store_weights, n_active=2)
        assert result.codes.shape == (2, 5)
        with pytest.raises(Built):
            result.quantized

    def test_result_holds_its_weights_out_of_repr(self, store_weights, rng):
        x = rng.standard_normal((store_weights.feature_dim, 6)).astype(np.float32)
        result = rvq.quantize(x, store_weights, n_active=3)
        assert result.weights is store_weights
        assert "weights" not in repr(result)
        np.testing.assert_array_equal(
            result.quantized, rvq.codes_to_features(result.codes, store_weights))


def _frames(w, dtype=np.float32):
    return np.zeros((w.feature_dim, 3), dtype=dtype)


# Wrongly typed arguments at the quantizer's edges, each of which numpy
# would otherwise reject with its own exception or warning.
BAD_TYPES = {
    "n_active-float": lambda w: rvq.quantize(_frames(w), w, 1.5),
    "n_active-str": lambda w: rvq.quantize(_frames(w), w, "2"),
    "n_active-bool": lambda w: rvq.quantize(_frames(w), w, True),
    "features-complex": lambda w: rvq.quantize(_frames(w, np.complex64), w, 1),
    "features-str": lambda w: rvq.quantize(_frames(w, str), w, 1),
    "codes-float": lambda w: rvq.codes_to_features(np.zeros((1, 3)), w),
    "codes-bool": lambda w: rvq.codes_to_features(np.zeros((1, 3), bool), w),
    "codes-complex": lambda w: rvq.codes_to_features(
        np.zeros((1, 3), complex), w),
    "codes-str": lambda w: rvq.codes_to_features(np.full((1, 3), "0"), w),
    "codes-object": lambda w: rvq.codes_to_features(
        np.zeros((1, 3), object), w),
}


@pytest.mark.parametrize("case", list(BAD_TYPES))
def test_wrong_types_raise_invalid_argument(store_weights, case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError):
            BAD_TYPES[case](store_weights)


SWEEP_WEIGHTS = identity_weights()
_F32_MAX = float(np.float32(1e38))
_EXTREMES = st.sampled_from([_F32_MAX, -_F32_MAX, float("nan")])


def _elements(dtype: np.dtype):
    if dtype.kind == "O":
        return st.one_of(st.none(), st.integers(-3, 9), st.floats(),
                         st.text(max_size=2))
    if dtype.kind in "iu":
        return st.one_of(st.integers(0, 7), hnp.from_dtype(dtype))
    if dtype.kind in "fc" and float(np.finfo(dtype).max) >= _F32_MAX:
        return st.one_of(_EXTREMES, hnp.from_dtype(dtype))
    return hnp.from_dtype(dtype)


@st.composite
def any_arrays(draw, first_dim):
    """Arrays of every dtype kind the quantizer may be handed, of rank 0-4;
    half of them (first_dim, T) so that valid calls come up too."""
    dtype = draw(st.one_of(
        hnp.boolean_dtypes(), hnp.integer_dtypes(),
        hnp.unsigned_integer_dtypes(), hnp.floating_dtypes(),
        hnp.complex_number_dtypes(), hnp.unicode_string_dtypes(max_len=3),
        st.just(np.dtype(object))))
    shape = draw(st.one_of(
        hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5),
        st.tuples(first_dim, st.integers(0, 5))))
    return draw(hnp.arrays(dtype, shape, elements=_elements(dtype)))


N_ACTIVE = st.one_of(st.integers(1, SWEEP_WEIGHTS.n_layers), st.integers(-2, 6),
                     st.floats(), st.booleans(), st.text(max_size=3))


@settings(max_examples=300, deadline=None)
@given(features=any_arrays(st.just(SWEEP_WEIGHTS.feature_dim)),
       n_active=N_ACTIVE)
def test_quantize_returns_or_raises_typed_errors(features, n_active):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = rvq.quantize(features, SWEEP_WEIGHTS, n_active)
        except SunacError:
            return
        assert result.quantized.shape == features.shape


@settings(max_examples=300, deadline=None)
@given(codes=any_arrays(st.integers(0, SWEEP_WEIGHTS.n_layers + 1)))
def test_codes_to_features_returns_or_raises_typed_errors(codes):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = rvq.codes_to_features(codes, SWEEP_WEIGHTS)
        except SunacError:
            return
        assert out.shape == (SWEEP_WEIGHTS.feature_dim, codes.shape[1])


class TestCodesToFeatures:
    def test_matches_summation_oracle(self, store_weights, rng):
        w = store_weights
        codes = rng.integers(0, w.n_entries, size=(w.n_layers, 13))
        got = rvq.codes_to_features(codes, w)
        books = [b.astype(np.float64) for b in w.codebooks]
        summed = oracles.codes_to_sum_naive(codes, books)
        want = (w.up_w.astype(np.float64) @ summed
                + w.up_b.astype(np.float64)[:, None])
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_zero_codes_give_constant_bias_map(self, store_weights):
        codes = np.zeros((2, 5), dtype=np.int64)
        out = rvq.codes_to_features(codes, store_weights)
        for t in range(5):
            np.testing.assert_array_equal(out[:, t], store_weights.up_b)

    def test_rejects_out_of_range(self, store_weights):
        codes = np.zeros((2, 3), dtype=np.int64)
        codes[1, 2] = store_weights.n_entries
        with pytest.raises(InvalidArgumentError):
            rvq.codes_to_features(codes, store_weights)
        codes[1, 2] = -1
        with pytest.raises(InvalidArgumentError):
            rvq.codes_to_features(codes, store_weights)

    def test_rejects_codes_without_frames(self, store_weights):
        with pytest.raises(InvalidArgumentError, match="no frames"):
            rvq.codes_to_features(np.zeros((2, 0), dtype=np.int64),
                                  store_weights)

    def test_fewer_rows_than_books_is_allowed(self, store_weights, rng):
        codes = rng.integers(0, store_weights.n_entries, size=(1, 4))
        out = rvq.codes_to_features(codes, store_weights)
        assert out.shape == (store_weights.feature_dim, 4)
