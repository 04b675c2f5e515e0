import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracles
from sunac import numerics
from sunac.audio import AudioBuffer
from sunac.errors import ContractViolationError, InvalidArgumentError


def random_layer(rng, hidden=16, n_heads=2, ff_dim=24, scale=0.2):
    def mat(*shape):
        return (rng.standard_normal(shape) * scale).astype(np.float32)

    d = hidden
    return numerics.TransformerLayerWeights(
        n_heads=n_heads,
        wq=mat(d, d), wk=mat(d, d), wv=mat(d, d), wo=mat(d, d),
        bq=mat(d), bk=mat(d), bv=mat(d), bo=mat(d),
        ln1_gain=np.ones(d, np.float32), ln1_bias=np.zeros(d, np.float32),
        ln2_gain=np.ones(d, np.float32), ln2_bias=np.zeros(d, np.float32),
        ff_w1=mat(ff_dim, d), ff_b1=mat(ff_dim),
        ff_w2=mat(d, ff_dim), ff_b2=mat(d),
    )


class TestConv1d:
    def test_identity_kernel(self, rng):
        x = rng.standard_normal((3, 20)).astype(np.float32)
        w = np.zeros((3, 3, 1), dtype=np.float32)
        for c in range(3):
            w[c, c, 0] = 1.0
        out = numerics.conv1d(x, w)
        np.testing.assert_array_equal(out, x)

    @pytest.mark.parametrize("stride,padding,dilation,k", [
        (1, 0, 1, 3), (2, 1, 1, 4), (4, 3, 1, 8), (1, 6, 3, 7), (5, 2, 2, 3),
    ])
    def test_matches_naive_forward(self, rng, stride, padding, dilation, k):
        x = rng.standard_normal((3, 37)).astype(np.float32)
        w = rng.standard_normal((5, 3, k)).astype(np.float32)
        b = rng.standard_normal(5).astype(np.float32)
        got = numerics.conv1d(x, w, b, stride=stride, padding=padding,
                              dilation=dilation)
        want = oracles.conv1d_naive(x, w, b, stride=stride, padding=padding,
                                    dilation=dilation)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-5)

    @pytest.mark.parametrize("stride,padding,k,output_padding,dilation", [
        (1, 0, 3, 0, 1), (2, 1, 4, 0, 1), (5, 2, 10, 1, 1), (8, 4, 16, 0, 1),
        (4, 0, 8, 0, 1), (1, 2, 3, 0, 2), (4, 3, 8, 0, 3), (5, 2, 4, 1, 2),
    ], ids=["1-0-3-0", "2-1-4-0", "5-2-10-1", "8-4-16-0", "4-0-8-0",
            "1-2-3-0-dilation2", "4-3-8-0-dilation3", "5-2-4-1-dilation2"])
    def test_matches_naive_transposed(self, rng, stride, padding, k,
                                      output_padding, dilation):
        x = rng.standard_normal((4, 13)).astype(np.float32)
        w = rng.standard_normal((2, 4, k)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        got = numerics.conv1d(x, w, b, stride=stride, padding=padding,
                              dilation=dilation, transposed=True,
                              output_padding=output_padding)
        want = oracles.conv1d_transposed_naive(
            x, w, b, stride=stride, padding=padding, dilation=dilation,
            output_padding=output_padding)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_downsample_cascade_reaches_token_rate(self, rng):
        # The encoder's strided stages use kernel 2s with ceil(s/2) padding;
        # chained over (2, 4, 5, 8) one second of 16 kHz audio lands on
        # exactly 50 columns.
        x = rng.standard_normal((1, 16000)).astype(np.float32)
        for stride in (2, 4, 5, 8):
            k = 2 * stride
            p = (stride + 1) // 2
            w = rng.standard_normal((1, 1, k)).astype(np.float32)
            x = numerics.conv1d(x, w, stride=stride, padding=p)
        assert x.shape == (1, 50)

    def test_transposed_inverts_length(self, rng):
        # Decoder mirror: for every stride, a transposed conv with matched
        # padding and output_padding = s % 2 multiplies the length by s.
        for stride in (2, 4, 5, 8):
            k = 2 * stride
            p = (stride + 1) // 2
            out_pad = stride % 2
            x = rng.standard_normal((2, 50)).astype(np.float32)
            w = rng.standard_normal((3, 2, k)).astype(np.float32)
            y = numerics.conv1d(x, w, stride=stride, padding=p,
                                transposed=True, output_padding=out_pad)
            assert y.shape == (3, 50 * stride)

    def test_rejects_bad_arguments(self, rng):
        x = rng.standard_normal((2, 10)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3)).astype(np.float32)
        with pytest.raises(InvalidArgumentError):
            numerics.conv1d(x, w, stride=0)
        with pytest.raises(InvalidArgumentError):
            numerics.conv1d(x, w, dilation=0)
        with pytest.raises(InvalidArgumentError):
            numerics.conv1d(x, w, padding=-1)
        with pytest.raises(InvalidArgumentError):
            numerics.conv1d(x, w, output_padding=1)
        with pytest.raises(ContractViolationError):
            numerics.conv1d(rng.standard_normal((3, 10)).astype(np.float32), w)

    @pytest.mark.parametrize("c_in,c_out,length,k,kwargs,bound", [
        (96, 96, 16000, 7, dict(dilation=3, padding=9), 3.0),
        (384, 192, 2000, 8, dict(stride=4, padding=2, transposed=True), 2.0),
    ], ids=["forward", "transposed"])
    def test_working_set_is_not_k_times_the_signal(self, rng, c_in, c_out,
                                                   length, k, kwargs, bound):
        # Peak allocation during the call, against the float64 size of
        # input plus output; an im2col buffer alone would be K times the
        # input.
        x = rng.standard_normal((c_in, length)).astype(np.float32)
        w = rng.standard_normal((c_out, c_in, k)).astype(np.float32)
        b = rng.standard_normal(c_out).astype(np.float32)
        tracemalloc.start()
        try:
            y = numerics.conv1d(x, w, b, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 8 * (x.size + y.size)

    @pytest.mark.parametrize("c_in,c_out,length,k,kwargs", [
        (48, 48, 160000, 7, dict(dilation=9, padding=27)),
        (96, 48, 40000, 8, dict(stride=4, padding=2, transposed=True)),
    ], ids=["forward", "transposed"])
    def test_working_set_is_the_output_plus_tiles(self, rng, c_in, c_out,
                                                  length, k, kwargs):
        # Beyond the float32 output, a call holds only tile-sized float64
        # buffers; a full-length float64 padded input, accumulator or
        # product would each be twice the output.
        x = rng.standard_normal((c_in, length)).astype(np.float32)
        w = rng.standard_normal((c_out, c_in, k)).astype(np.float32)
        b = rng.standard_normal(c_out).astype(np.float32)
        tracemalloc.start()
        try:
            y = numerics.conv1d(x, w, b, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * y.nbytes

    @staticmethod
    def _conv_in_tiles(monkeypatch, columns, *args, **kwargs):
        monkeypatch.setattr(numerics, "_TILE_COLUMNS", columns)
        monkeypatch.setattr(numerics, "_TILE_CHANNELS", 1)
        return numerics.conv1d(*args, **kwargs)

    def _assert_tiles_do_not_change_bits(self, rng, monkeypatch, c_in, c_out,
                                         length, k, **kwargs):
        # Tiles of 1 and 3 columns also cut BLAS register blocks, which can
        # move a float64 sum in its last bit; the float32 output must still
        # match one tile's.
        x = rng.standard_normal((c_in, length)).astype(np.float32)
        w = rng.standard_normal((c_out, c_in, k)).astype(np.float32)
        b = rng.standard_normal(c_out).astype(np.float32)
        whole = self._conv_in_tiles(monkeypatch, 10**9, x, w, b, **kwargs)
        for columns in (1, 3, 64):
            tiled = self._conv_in_tiles(monkeypatch, columns, x, w, b, **kwargs)
            np.testing.assert_array_equal(tiled, whole, err_msg=f"{columns}")

    @pytest.mark.parametrize("stride", range(1, 9))
    @pytest.mark.parametrize("transposed", [False, True],
                             ids=["forward", "transposed"])
    def test_tiles_do_not_change_bits(self, rng, monkeypatch, transposed,
                                      stride):
        # Tiles of 1, 3 and 64 output columns against one tile; at least 150
        # outputs, so 64-column tiles leave a remainder.
        length = 150 if transposed else 150 * stride
        for dilation in (1, 3, 9):
            self._assert_tiles_do_not_change_bits(
                rng, monkeypatch, 6, 5, length, 4, stride=stride,
                dilation=dilation, padding=2 * dilation, transposed=transposed)

    @pytest.mark.parametrize("c_in,c_out,length,k,kwargs", [
        (3, 4, 5, 3, dict(padding=12)),
        (3, 4, 5, 16, dict(stride=2, padding=7, transposed=True)),
        (4, 3, 41, 6, dict(stride=3, padding=2, transposed=True,
                           output_padding=1)),
        (4, 3, 41, 10, dict(stride=5, padding=3, transposed=True,
                            output_padding=4)),
        (4, 3, 41, 7, dict(stride=7, dilation=3, padding=1, transposed=True,
                           output_padding=6)),
        (768, 384, 20, 16, dict(stride=8, padding=4, transposed=True)),
    ], ids=["padding-wider-than-input", "transposed-padding-wider-than-input",
            "stride3-output-padding", "stride5-output-padding",
            "stride7-dilation3-output-padding", "decoder-k16-stride8"])
    def test_tiles_do_not_change_bits_at_edges(self, rng, monkeypatch, c_in,
                                               c_out, length, k, kwargs):
        self._assert_tiles_do_not_change_bits(rng, monkeypatch, c_in, c_out,
                                              length, k, **kwargs)

    @pytest.mark.parametrize("transposed", [False, True],
                             ids=["forward", "transposed"])
    def test_aligned_tiles_keep_float64_sums(self, rng, transposed):
        # Tiles that start on multiples of _GEMM_ALIGN, as production tiles
        # do, keep every float64 sum of one tile, not only its float32
        # rounding.
        x = rng.standard_normal((48, 700)).astype(np.float32)
        w = rng.standard_normal((24, 48, 7)).astype(np.float32)
        b64 = rng.standard_normal((24, 1))
        conv = dict(stride=2, padding=3, dilation=3)
        l_out = numerics.conv_out_len(700, 7, transposed=transposed, **conv)
        run = (numerics._conv_transposed_tiles if transposed
               else numerics._conv_forward_tiles)

        def sums(edges):
            y = np.empty((24, l_out))
            run(x, w, b64, y, edges, conv["stride"], conv["padding"],
                conv["dilation"])
            return y

        step = 2 * numerics._GEMM_ALIGN
        edges = list(range(0, l_out - step, step)) + [l_out]
        np.testing.assert_array_equal(sums(edges), sums([0, l_out]))

    CASES = [
        (6, 5, 300, 7, dict(padding=9, dilation=3)),
        (6, 5, 300, 4, dict(stride=3, padding=2)),
        (6, 5, 90, 10, dict(stride=5, padding=3, transposed=True,
                            output_padding=1)),
        (6, 5, 90, 8, dict(stride=4, padding=2, dilation=2, transposed=True)),
        (3, 4, 5, 16, dict(stride=2, padding=7, transposed=True)),
    ]
    CASE_IDS = ["dilated", "strided", "transposed-output-padding",
                "transposed-dilated", "transposed-padding-wider-than-input"]

    @pytest.mark.parametrize("c_in,c_out,length,k,kwargs", CASES, ids=CASE_IDS)
    @pytest.mark.parametrize("columns", [1, 16, 64])
    def test_tiles_cover_the_output_in_order(self, monkeypatch, c_in, c_out,
                                             length, k, kwargs, columns):
        monkeypatch.setattr(numerics, "_TILE_COLUMNS", columns)
        tiles = numerics.conv_tiles(length, c_out, c_in, k, **kwargs)
        l_out = numerics.conv_out_len(length, k, **kwargs)
        assert [t[0] for t in tiles[1:]] == [t[1] for t in tiles[:-1]]
        assert tiles[0][0] == 0 and tiles[-1][1] == l_out
        assert all(0 <= lo <= hi <= length for _, _, lo, hi in tiles)
        los = [lo for _, _, lo, _ in tiles]
        assert los == sorted(los)

    @pytest.mark.parametrize("c_in,c_out,length,k,kwargs", CASES, ids=CASE_IDS)
    @pytest.mark.parametrize("columns", [1, 3, 16, 64])
    def test_no_tile_is_wider_than_its_width(self, monkeypatch, c_in, c_out,
                                             length, k, kwargs, columns):
        # The last tile takes no remainder, so a tile's buffers are bounded
        # whatever the length.
        monkeypatch.setattr(numerics, "_TILE_COLUMNS", columns)
        monkeypatch.setattr(numerics, "_TILE_CHANNELS", 1)
        tiles = numerics.conv_tiles(length, c_out, c_in, k, **kwargs)
        assert all(t1 - t0 <= columns for t0, t1, _, _ in tiles), tiles

    @pytest.mark.parametrize("c_in,c_out,length,k,kwargs", CASES, ids=CASE_IDS)
    @pytest.mark.parametrize("columns", [1, 3, 16, 64])
    def test_a_tile_from_its_window_alone_keeps_float64_sums(
            self, rng, monkeypatch, c_in, c_out, length, k, kwargs, columns):
        # Each tile computed from only the input columns it reads, at its
        # offset, issues the products it issues inside a whole-length call,
        # so every float64 sum is the same.
        monkeypatch.setattr(numerics, "_TILE_COLUMNS", columns)
        monkeypatch.setattr(numerics, "_TILE_CHANNELS", 1)
        x = rng.standard_normal((c_in, length)).astype(np.float32)
        w = rng.standard_normal((c_out, c_in, k)).astype(np.float32)
        b64 = rng.standard_normal((c_out, 1))
        conv = {"stride": 1, "padding": 0, "dilation": 1, **kwargs}
        run = (numerics._conv_transposed_tiles if conv.pop("transposed", False)
               else numerics._conv_forward_tiles)
        conv.pop("output_padding", None)
        tiles = numerics.conv_tiles(length, c_out, c_in, k, **kwargs)
        whole = np.empty((c_out, tiles[-1][1]))
        run(x, w, b64, whole, [t[0] for t in tiles] + [tiles[-1][1]],
            conv["stride"], conv["padding"], conv["dilation"])
        for t0, t1, lo, hi in tiles:
            alone = np.empty((c_out, t1 - t0))
            run(x[:, lo:hi], w, b64, alone, [t0, t1], conv["stride"],
                conv["padding"], conv["dilation"], lo)
            np.testing.assert_array_equal(alone, whole[:, t0:t1],
                                          err_msg=f"tile {t0}:{t1}")

    def test_tile_call_returns_its_columns(self, rng, monkeypatch):
        monkeypatch.setattr(numerics, "_TILE_COLUMNS", 16)
        monkeypatch.setattr(numerics, "_TILE_CHANNELS", 1)
        x = rng.standard_normal((4, 50)).astype(np.float32)
        w = rng.standard_normal((3, 4, 6)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        conv = dict(stride=3, padding=2, transposed=True, output_padding=1)
        whole = numerics.conv1d(x, w, b, **conv)
        for tile in numerics.conv_tiles(50, 3, 4, 6, **conv):
            t0, t1, lo, hi = tile
            got = numerics.conv1d(x[:, lo:hi], w, b, tile=tile, **conv)
            np.testing.assert_array_equal(got, whole[:, t0:t1])
        with pytest.raises(ContractViolationError):
            numerics.conv1d(x[:, lo : hi - 1], w, b, tile=tile, **conv)

    def test_kernel_longer_than_input(self, rng):
        x = rng.standard_normal((1, 4)).astype(np.float32)
        w = rng.standard_normal((1, 1, 9)).astype(np.float32)
        with pytest.raises(InvalidArgumentError):
            numerics.conv1d(x, w)


class TestActivations:
    def test_snake_at_zero(self):
        x = np.zeros((3, 5), dtype=np.float32)
        alpha = np.array([0.5, 1.0, 2.0], dtype=np.float32)
        np.testing.assert_array_equal(numerics.snake(x, alpha), x)

    def test_snake_formula(self, rng):
        x = rng.standard_normal((2, 7)).astype(np.float32)
        alpha = np.array([0.7, 1.3], dtype=np.float32)
        want = x + np.sin(alpha[:, None] * x) ** 2 / alpha[:, None]
        np.testing.assert_allclose(numerics.snake(x, alpha), want, atol=1e-6)

    def test_snake_matches_expression_bit_for_bit(self, rng):
        # The in-place form performs the same float32 operations, in order.
        x = (rng.standard_normal((32, 64000)) * 3).astype(np.float32)
        alpha = (rng.random(32) * 2 + 0.1).astype(np.float32)[:, None]
        want = x + np.square(np.sin(alpha * x)) / alpha
        got = numerics.snake(x, alpha[:, 0])
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)

    def test_gelu_known_points(self):
        got = numerics.gelu(np.array([0.0, 100.0, -100.0]))
        np.testing.assert_allclose(got, [0.0, 100.0, 0.0], atol=1e-6)

    def test_layer_norm_rows(self, rng):
        x = rng.standard_normal((4, 9))
        out = numerics.layer_norm(x, np.ones(4), np.zeros(4))
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)


@pytest.fixture(scope="module")
def scipy_erf():
    # scipy is a test dependency only: the oracle for numerics.erf.
    return pytest.importorskip("scipy.special").erf


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def init_scale_layer(rng, d=1024, n_heads=8, ff_dim=1536):
    # The widths of full SUNAC's Transformer layers, drawn like
    # init_weights: U[-a, a] with a = sqrt(1 / fan_in), unit norm gains.
    def uniform(fan_in, *shape):
        bound = np.sqrt(1.0 / fan_in)
        return rng.uniform(-bound, bound, shape).astype(np.float32)

    return numerics.TransformerLayerWeights(
        n_heads=n_heads,
        wq=uniform(d, d, d), wk=uniform(d, d, d), wv=uniform(d, d, d),
        wo=uniform(d, d, d), bq=uniform(d, d), bk=uniform(d, d),
        bv=uniform(d, d), bo=uniform(d, d),
        ln1_gain=np.ones(d, np.float32), ln1_bias=np.zeros(d, np.float32),
        ln2_gain=np.ones(d, np.float32), ln2_bias=np.zeros(d, np.float32),
        ff_w1=uniform(d, ff_dim, d), ff_b1=uniform(d, ff_dim),
        ff_w2=uniform(ff_dim, d, ff_dim), ff_b2=uniform(ff_dim, d),
    )


class TestErf:
    def test_bitwise_equal_to_scipy_up_to_one(self, scipy_erf):
        x = np.random.default_rng(1301).uniform(-1.0, 1.0, 1_000_000)
        np.testing.assert_array_equal(_bits(numerics.erf(x)),
                                      _bits(scipy_erf(x)))

    def test_special_points_bit_for_bit(self, scipy_erf):
        tiny = np.finfo(np.float64).smallest_subnormal
        points = np.array([0.0, tiny, 1e-310, 1.0, np.nextafter(1.0, 2.0),
                           8.0, 27.0, 1e300, np.inf])
        x = np.concatenate([points, -points, [np.nan]])
        got, want = numerics.erf(x), scipy_erf(x)
        np.testing.assert_array_equal(_bits(got), _bits(want))
        assert np.signbit(got[len(points)])  # erf(-0) is -0
        np.testing.assert_array_equal(got[[8, 17]], [1.0, -1.0])

    def test_within_one_ulp_beyond_one(self, scipy_erf):
        # exp is the one step whose rounding numpy and the C library may
        # choose differently.
        x = np.random.default_rng(1302).uniform(1.0, 8.0, 200_000)
        x = np.concatenate([x, -x])
        ulps = np.abs(_bits(numerics.erf(x)) - _bits(scipy_erf(x)))
        assert ulps.max() <= 1
        assert np.count_nonzero(ulps) < 0.01 * x.size

    def test_odd_bit_for_bit(self):
        x = np.random.default_rng(1303).standard_normal(100_000) * 3.0
        np.testing.assert_array_equal(_bits(numerics.erf(-x)),
                                      _bits(-numerics.erf(x)))

    def test_any_layout_keeps_shape_and_input(self):
        x = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
        before = x.copy()
        want = numerics.erf(x)
        assert want.shape == (2, 3, 4)
        np.testing.assert_array_equal(x, before)
        for view in (x.T, x[:, ::2], x[::-1]):
            np.testing.assert_array_equal(numerics.erf(view),
                                          numerics.erf(view.copy()))
            np.testing.assert_array_equal(numerics.gelu(view),
                                          numerics.gelu(view.copy()))
        np.testing.assert_array_equal(x, before)

    def test_gelu_is_the_expression_bit_for_bit(self):
        # Pins gelu's operation order: the in-place steps round like
        # 0.5 * x * (1.0 + erf(x / sqrt(2))), on both erf branches and
        # across block edges.
        x = np.random.default_rng(1304).standard_normal((3, 40_001)) * 2.0
        want = 0.5 * x * (1.0 + numerics.erf(x / np.sqrt(2.0)))
        np.testing.assert_array_equal(_bits(numerics.gelu(x)), _bits(want))

    @pytest.mark.parametrize("t", [50, 201, 800])
    def test_full_width_layer_bit_equal_to_scipy_gelu(self, scipy_erf,
                                                      monkeypatch, t):
        rng = np.random.default_rng(1305 + t)
        layer = init_scale_layer(rng)
        x = rng.standard_normal((1024, t)).astype(np.float32)
        got = numerics.transformer_block(x, layer)
        monkeypatch.setattr(numerics, "gelu", lambda h: 0.5 * h * (
            1.0 + scipy_erf(h / np.sqrt(2.0))))
        want = numerics.transformer_block(x, layer)
        np.testing.assert_array_equal(got, want)

    def test_gelu_holds_two_arrays_of_its_input(self):
        x = np.random.default_rng(1306).standard_normal((1600, 1536))
        tracemalloc.start()
        try:
            numerics.gelu(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The result and one temporary, plus 384 KiB of block scratch;
        # the plain expression holds three.
        assert peak <= 2 * x.nbytes + (1 << 20)


class TestTransformer:
    def test_output_shape_and_finiteness(self, rng):
        layer = random_layer(rng)
        x = rng.standard_normal((16, 11)).astype(np.float32)
        out = numerics.transformer_block(x, layer)
        assert out.shape == (16, 11)
        assert np.all(np.isfinite(out))

    def test_single_token(self, rng):
        layer = random_layer(rng)
        x = rng.standard_normal((16, 1)).astype(np.float32)
        out = numerics.transformer_block(x, layer)
        assert out.shape == (16, 1)

    def test_rotation_separates_equal_tokens(self, rng):
        x = np.broadcast_to(rng.standard_normal((1, 2, 6)), (3, 2, 6)).copy()
        out = numerics.rope_rotate(x, np.arange(3))
        assert not np.allclose(out[0], out[1])
        assert not np.allclose(out[1], out[2])
        # Position 0 is the identity rotation.
        np.testing.assert_allclose(out[0], x[0], atol=1e-12)

    def test_position_coding_breaks_token_symmetry(self, rng):
        # Two equal columns next to a distinct third one: with rotary
        # coding they attend to the third differently, without it the
        # layer is permutation-equivariant and they stay equal.
        layer = random_layer(rng)
        col = rng.standard_normal(16).astype(np.float32)
        other = rng.standard_normal(16).astype(np.float32)
        x = np.stack([col, col, other], axis=1)
        out = numerics.transformer_block(x, layer)
        assert not np.allclose(out[:, 0], out[:, 1])
        plain = numerics.transformer_block(x, layer, use_rope=False)
        np.testing.assert_allclose(plain[:, 0], plain[:, 1], atol=1e-6)

    def test_deterministic(self, rng):
        layer = random_layer(rng)
        x = rng.standard_normal((16, 8)).astype(np.float32)
        a = numerics.transformer_block(x, layer)
        b = numerics.transformer_block(x, layer)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n_tokens", [1, 50, 257, 600])
    def test_matches_per_query_oracle(self, rng, n_tokens):
        # 257 and 600 span two and three query blocks.  The oracle runs in
        # float64, so the gap is the float32 rounding of the output plus
        # float64 summation-order noise: 1e-6 covers a few float32 ulps.
        layer = random_layer(rng)
        x = rng.standard_normal((16, n_tokens)).astype(np.float32)
        want = oracles.transformer_block_naive(x, layer)
        got = numerics.transformer_block(x, layer)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)

    def test_query_blocks_do_not_change_bits(self, rng, monkeypatch):
        layer = random_layer(rng)
        x = rng.standard_normal((16, 600)).astype(np.float32)
        blocked = numerics.transformer_block(x, layer)
        monkeypatch.setattr(numerics, "_QUERY_BLOCK", 10**9)
        np.testing.assert_array_equal(numerics.transformer_block(x, layer), blocked)

    def test_attention_memory_is_linear_in_length(self, rng):
        # One (H, T, T) float64 score tensor at T = 2048 is 64 MiB; query
        # blocking keeps the whole call under a quarter of that.
        layer = random_layer(rng)
        n_tokens = 2048
        x = rng.standard_normal((16, n_tokens)).astype(np.float32)
        tracemalloc.start()
        try:
            numerics.transformer_block(x, layer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * layer.n_heads * n_tokens * n_tokens / 4

    def test_rope_rejects_odd_head_dim(self, rng):
        x = rng.standard_normal((4, 2, 3))
        with pytest.raises(ContractViolationError):
            numerics.rope_rotate(x, np.arange(4))

    @pytest.mark.parametrize("change", [
        dict(n_heads=3), dict(n_heads=16), dict(wq=np.zeros((16, 8), np.float32)),
        dict(ff_b1=np.zeros(16, np.float32)),
    ])
    def test_weights_are_checked_on_construction(self, rng, change):
        # n_heads=16 leaves a head dim of 1, which rotary coding cannot pair.
        with pytest.raises(ContractViolationError):
            dataclasses.replace(random_layer(rng), **change)

    def test_hidden_dim_mismatch(self, rng):
        layer = random_layer(rng)
        with pytest.raises(ContractViolationError):
            numerics.transformer_block(
                rng.standard_normal((8, 4)).astype(np.float32), layer)


class TestStft:
    def test_frame_count(self, rng):
        x = rng.standard_normal(16000).astype(np.float32)
        spec = numerics.stft(x, 512, 160)
        assert spec.shape == (257, 1 + 16000 // 160)

    def test_pure_tone_peaks_at_its_bin(self):
        # A bin-centered tone leaks only into the two Hann neighbours.
        n_fft, hop, rate = 512, 160, 16000
        bin_index = 32
        freq = bin_index * rate / n_fft
        t = np.arange(rate) / rate
        x = np.sin(2 * np.pi * freq * t).astype(np.float32)
        spec = np.abs(numerics.stft(x, n_fft, hop))
        interior = spec[:, 4:-4]
        assert np.all(np.argmax(interior, axis=0) == bin_index)

    def test_zero_input(self):
        spec = numerics.stft(np.zeros(3200, dtype=np.float32), 256, 64)
        np.testing.assert_array_equal(spec, np.zeros_like(spec))

    def test_roundtrip(self, rng):
        x = rng.standard_normal(4096).astype(np.float32)
        spec = numerics.stft(x, 512, 128)
        back = numerics.istft(spec, 512, 128, length=4096)
        assert back.shape == (4096,)
        err = np.sqrt(np.mean((back - x) ** 2))
        assert err < 1e-4

    def test_linearity(self, rng):
        a = rng.standard_normal(2048).astype(np.float64)
        b = rng.standard_normal(2048).astype(np.float64)
        sa = numerics.stft(a, 256, 64)
        sb = numerics.stft(b, 256, 64)
        sab = numerics.stft(a + 2.0 * b, 256, 64)
        scale = np.abs(sab).max()
        np.testing.assert_allclose(sab, sa + 2.0 * sb, atol=1e-6 * scale)

    def test_parameter_validation(self):
        x = np.zeros(100, dtype=np.float32)
        with pytest.raises(InvalidArgumentError):
            numerics.stft(x, 500, 100)  # not a power of two
        with pytest.raises(InvalidArgumentError):
            numerics.stft(x, 256, 0)
        with pytest.raises(InvalidArgumentError):
            numerics.stft(x, 256, 512)  # hop > n_fft
        with pytest.raises(InvalidArgumentError):
            numerics.stft(np.zeros(0, dtype=np.float32), 256, 64)

    def test_accepts_audio_buffer(self, rng):
        samples = rng.standard_normal(1600).astype(np.float32)
        buf = AudioBuffer(samples=samples, sample_rate=16000)
        np.testing.assert_array_equal(
            numerics.stft(buf, 256, 64), numerics.stft(samples, 256, 64))
