import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from sunac import numerics
from sunac.audio import AudioBuffer
from sunac.errors import (ContractViolationError, InvalidArgumentError,
                          NumericError)


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
        run = (numerics._conv_transposed_tile if transposed
               else numerics._conv_forward_tile)

        def sums(edges):
            y = np.empty((24, l_out))
            for t0, t1 in zip(edges, edges[1:]):
                run(x, w, b64, y[:, t0:t1], t0, 0, conv["stride"],
                    conv["padding"], conv["dilation"])
            return y

        step = 2 * numerics._GEMM_ALIGN
        edges = list(range(0, l_out - step, step)) + [l_out]
        np.testing.assert_array_equal(sums(edges), sums([0, l_out]))

    def test_forward_sums_run_in_aligned_chunks(self, rng, monkeypatch):
        # A narrow layer's tile is wider than _TILE_COLUMNS.  Its forward
        # sums run over _TILE_COLUMNS columns at a time, so each float64
        # sum is the one a single pass over the tile computes, and the
        # kernel holds two chunk-wide float64 buffers beside its window.
        x = rng.standard_normal((2, 4, 2000)).astype(np.float32)
        w = rng.standard_normal((3, 4, 7)).astype(np.float32)
        b64 = rng.standard_normal((3, 1))
        conv = (2, 3, 3)  # stride, padding, dilation
        l_out = numerics.conv_out_len(2000, 7, stride=2, padding=3, dilation=3)

        def sums(columns):
            monkeypatch.setattr(numerics, "_TILE_COLUMNS", columns)
            y = np.empty((2, 3, l_out))
            tracemalloc.start()
            numerics._conv_forward_tile(x, w, b64, y, 0, 0, *conv)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return y, peak

        (chunked, peak), (whole, whole_peak) = sums(64), sums(10**9)
        np.testing.assert_array_equal(chunked, whole)
        window = 8 * x[..., 0].size * ((l_out - 1) * 2 + 6 * 3 + 1)
        chunk = 8 * 2 * 3 * 64
        assert peak - window < 8 * chunk
        assert whole_peak - window > 2 * chunk * l_out // 64

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

    @pytest.mark.parametrize("n_src", [1, 2, 3])
    @pytest.mark.parametrize("c_in,c_out,length,k,kwargs", [
        (1024, 768, 50, 7, dict(padding=3)),
        (768, 384, 50, 16, dict(stride=8, padding=4, transposed=True)),
        (48, 48, 5000, 7, dict(dilation=9, padding=27)),
        (96, 48, 1250, 4, dict(stride=2, padding=1, transposed=True)),
        (6, 5, 300, 4, dict(stride=3, padding=2)),
    ], ids=["wide", "wide-transposed", "narrow-multi-tile",
            "narrow-transposed-multi-tile", "strided"])
    def test_stack_is_bit_equal_to_one_call_per_signal(
            self, rng, c_in, c_out, length, k, kwargs, n_src):
        # The stack's tiles are 1 / S as wide as one signal's, and each tap
        # is one broadcast product over the stack.
        x = rng.standard_normal((n_src, c_in, length)).astype(np.float32)
        w = (rng.standard_normal((c_out, c_in, k)) / c_in).astype(np.float32)
        b = rng.standard_normal(c_out).astype(np.float32)
        got = numerics.conv1d(x, w, b, **kwargs)
        for s in range(n_src):
            np.testing.assert_array_equal(
                got[s], numerics.conv1d(x[s], w, b, **kwargs),
                err_msg=f"signal {s}")

    @pytest.mark.parametrize("rows, n_src, width", [
        (48, 1, 4096), (48, 2, 2048), (48, 3, 1024), (1024, 1, 1024),
        (1024, 2, 512), (1024, 3, 256), (1024, 200, 16),
    ])
    def test_sources_share_the_tile_width(self, rows, n_src, width):
        # The width over the power of two at or above S, so the stack's
        # float64 buffers are no larger than one signal's, and no tile
        # narrower than _GEMM_ALIGN, so every tile starts on a multiple.
        tiles = numerics.conv_tiles(10**5, rows, rows, 1, sources=n_src)
        assert tiles[0][1] == width
        assert all(t0 % numerics._GEMM_ALIGN == 0 for t0, _, _, _ in tiles)

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
        run = (numerics._conv_transposed_tile if conv.pop("transposed", False)
               else numerics._conv_forward_tile)
        conv.pop("output_padding", None)
        tiles = numerics.conv_tiles(length, c_out, c_in, k, **kwargs)
        whole = np.empty((c_out, tiles[-1][1]))
        for t0, t1, _, _ in tiles:
            run(x, w, b64, whole[:, t0:t1], t0, 0, conv["stride"],
                conv["padding"], conv["dilation"])
        for t0, t1, lo, hi in tiles:
            alone = np.empty((c_out, t1 - t0))
            run(x[:, lo:hi], w, b64, alone, t0, lo, conv["stride"],
                conv["padding"], conv["dilation"])
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

    @pytest.mark.parametrize("shape, conv", [
        ((4, 50), dict(stride=2, padding=3, dilation=2)),
        ((2, 4, 50), dict(stride=2, padding=3, dilation=2)),
        ((4, 50), dict(stride=3, padding=2, transposed=True,
                       output_padding=1)),
    ], ids=["forward", "stack", "transposed"])
    def test_a_float64_window_is_read_as_it_is(self, rng, monkeypatch, shape,
                                               conv):
        # A float64 tile window gives the bits of the float32 call, also
        # when a forward window spans its zero padding: then its columns
        # are [first, first + width), below 0 and past the end included.
        monkeypatch.setattr(numerics, "_TILE_COLUMNS", 16)
        monkeypatch.setattr(numerics, "_TILE_CHANNELS", 1)
        x = rng.standard_normal(shape).astype(np.float32)
        w = rng.standard_normal((3, 4, 6)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        whole = numerics.conv1d(x, w, b, **conv)
        tiles = numerics.conv_tiles(50, 3, 4, 6, sources=math.prod(shape[:-2]),
                                    **conv)
        for t0, t1, lo, hi in tiles:
            window = x[..., lo:hi].astype(np.float64)
            got = numerics.conv1d(window, w, b, tile=(t0, t1, lo, hi), **conv)
            np.testing.assert_array_equal(got, whole[..., t0:t1])
            if conv.get("transposed"):
                continue
            first = t0 * conv["stride"] - conv["padding"]
            width = (t1 - t0 - 1) * conv["stride"] + 5 * conv["dilation"] + 1
            padded = np.zeros((*shape[:-1], width))
            padded[..., lo - first : hi - first] = window
            got = numerics.conv1d(padded, w, b, tile=(t0, t1, first,
                                                     first + width), **conv)
            np.testing.assert_array_equal(got, whole[..., t0:t1])

    @staticmethod
    def _summed_per_tap(x, w, b, stride, padding, dilation, transposed):
        # One tile's sums as separate passes: an accumulator started from
        # zeros, one float64 product added per tap in ascending order, the
        # bias added on its own, then the cast to float32.
        c_out, c_in, k = w.shape
        length = x.shape[-1]
        l_out = numerics.conv_out_len(length, k, stride=stride,
                                      padding=padding, dilation=dilation,
                                      transposed=transposed)
        if transposed:
            x64 = x.astype(np.float64)
            full = np.zeros((*x.shape[:-2], c_out,
                             (length - 1) * stride + (k - 1) * dilation + 1))
            for tap in range(k):
                start = tap * dilation
                full[..., start : start + (length - 1) * stride + 1 : stride] += (
                    w[:, :, tap].astype(np.float64) @ x64)
            acc = full[..., padding : padding + l_out]
        else:
            width = (l_out - 1) * stride + (k - 1) * dilation + 1
            window = np.zeros((*x.shape[:-1], width))
            window[..., padding : padding + length] = x[..., : width - padding]
            acc = np.zeros((*x.shape[:-2], c_out, l_out))
            for tap in range(k):
                start = tap * dilation
                acc += w[:, :, tap].astype(np.float64) @ window[
                    ..., start : start + (l_out - 1) * stride + 1 : stride]
        if b is not None:
            acc += b.astype(np.float64)[:, None]
        return acc.astype(np.float32)

    @pytest.mark.parametrize("stride", range(1, 9))
    @pytest.mark.parametrize("k", [1, 7])
    @pytest.mark.parametrize("c_in", [1, 3])
    @pytest.mark.parametrize("transposed", [False, True],
                             ids=["forward", "transposed"])
    def test_signed_zeros_match_per_tap_sums(self, rng, transposed, c_in, k,
                                             stride):
        # Every other input column is zero, one block of columns wider than
        # the kernel's reach is all zeros (some -0.0), and the kernels are
        # all negative, so products of -0.0 reach the sums; without a bias,
        # or with a -0.0 one, an output of zero must still be +0.0 wherever
        # separate per-tap adds from a zero accumulator give +0.0.
        c_out = 4
        w = -np.abs(rng.standard_normal((c_out, c_in, k))).astype(np.float32)
        biases = [None, np.full(c_out, -0.0, np.float32),
                  rng.standard_normal(c_out).astype(np.float32)]
        for dilation in (1, 3):
            span = (k - 1) * dilation + 1
            reach = span + stride
            length = 3 * reach
            conv = dict(stride=stride, padding=span // 2, dilation=dilation,
                        transposed=transposed)
            for shape in ((c_in, length), (2, c_in, length)):
                x = rng.standard_normal(shape).astype(np.float32)
                x[..., ::2] = 0.0
                x[..., reach : 2 * reach] = 0.0
                x[..., reach : 2 * reach : 3] = -0.0
                for b in biases:
                    got = numerics.conv1d(x, w, b, **conv)
                    want = self._summed_per_tap(x, w, b, **conv)
                    if b is None:
                        assert (want == 0).any()
                    np.testing.assert_array_equal(
                        got.view(np.uint32), want.view(np.uint32),
                        err_msg=f"dilation {dilation}, input {shape}, "
                                f"bias {b}")

    def test_kernel_longer_than_input(self, rng):
        x = rng.standard_normal((1, 4)).astype(np.float32)
        w = rng.standard_normal((1, 1, 9)).astype(np.float32)
        with pytest.raises(InvalidArgumentError):
            numerics.conv1d(x, w)

    def test_non_finite_output_is_a_numeric_error(self):
        # inf - inf in the product: a NumericError, not a RuntimeWarning.
        x = np.array([[np.inf], [-np.inf]], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="in numerics.conv1d"):
                numerics.conv1d(x, np.ones((1, 2, 1)))


class TestActivations:
    @pytest.mark.parametrize("shape, channels", [
        ((0, 0), 2), ((3, 5), 2), ((5,), 2), ((2, 5), 1), ((1, 1, 2, 5), 2)])
    def test_snake_takes_one_alpha_per_channel(self, shape, channels):
        with pytest.raises(ContractViolationError, match="snake wants"):
            numerics.snake(np.ones(shape), np.ones(channels))

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

    @pytest.mark.parametrize("shape", [(3, 40), (2, 3, 40)])
    def test_snake_into_float64_out_is_the_widened_snake(self, rng, shape):
        x = (rng.standard_normal(shape) * 3).astype(np.float32)
        alpha = (rng.random(3) * 2 + 0.1).astype(np.float32)
        out = np.full(shape, np.nan)
        assert numerics.snake(x, alpha, out=out) is out
        want = numerics.snake(x, alpha).astype(np.float64)
        np.testing.assert_array_equal(out.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("out, error", [
        (np.empty((3, 40), dtype=np.float32), InvalidArgumentError),
        (np.empty((3, 40)).tolist(), InvalidArgumentError),
        (np.empty((3, 39)), ContractViolationError),
        (np.empty((4, 40)), ContractViolationError),
        (np.empty((1, 3, 40)), ContractViolationError),
        (np.empty(120), ContractViolationError),
    ], ids=["float32", "list", "columns", "channels", "stack", "flat"])
    def test_snake_refuses_a_bad_out(self, out, error):
        x = np.ones((3, 40), dtype=np.float32)
        with pytest.raises(error):
            numerics.snake(x, np.ones(3, dtype=np.float32), out=out)

    def test_gelu_known_points(self):
        got = numerics.gelu(np.array([0.0, 100.0, -100.0]))
        np.testing.assert_allclose(got, [0.0, 100.0, 0.0], atol=1e-6)

    @pytest.mark.parametrize("call, stage", [
        (lambda: numerics.gelu(np.array([-np.inf, 1.0])), "numerics.gelu"),
        (lambda: numerics.gelu(np.array([np.nan])), "numerics.gelu"),
        (lambda: numerics.rope_rotate(np.full((1, 1, 2), np.inf),
                                      np.arange(1)), "numerics.rope_rotate"),
        (lambda: numerics.snake(np.array([[np.inf], [1.0]]), np.ones(2)),
         "numerics.snake"),
        (lambda: numerics.snake(np.array([[np.nan]]), np.ones(1)),
         "numerics.snake"),
    ], ids=["gelu-inf", "gelu-nan", "rope_rotate-inf", "snake-inf",
            "snake-nan"])
    def test_non_finite_output_names_the_kernel(self, call, stage):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match=f"non-finite output in {stage}$"):
                call()

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
        monkeypatch.setattr(numerics, "_gelu_in_place", lambda h: np.copyto(
            h, 0.5 * h * (1.0 + scipy_erf(h / np.sqrt(2.0)))))
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

    def test_in_place_helper_is_gelu_on_a_copy(self):
        # Transformer layers run GELU over their own FF activation; the
        # bits are those of the public call, on both erf branches and
        # across block edges.
        x = np.random.default_rng(1307).standard_normal((3, 40_001)) * 2.0
        want = numerics.gelu(x)
        numerics._gelu_in_place(x)
        np.testing.assert_array_equal(_bits(x), _bits(want))


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

    def test_non_finite_rotation_names_the_layer(self, rng):
        # The layer rotates through the unchecked helper, so an inf query
        # weight surfaces as the layer's own error, not the kernel's.
        layer = random_layer(rng)
        wq = layer.wq.copy()
        wq[0, 0] = np.inf
        x = rng.standard_normal((16, 5)).astype(np.float32)
        with pytest.raises(NumericError,
                           match="non-finite output in transformer layer probe"):
            numerics.transformer_block(x, dataclasses.replace(layer, wq=wq),
                                       name="probe")

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
        plain = oracles.transformer_block_naive(x, layer, use_rope=False)
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

    @pytest.mark.parametrize("shape", [(1024, 1024), (1536, 1024),
                                       (1024, 1536), (1280, 1024)],
                             ids=["1024x1024", "1536x1024", "1024x1536",
                                  "1280x1024"])
    @pytest.mark.parametrize("n_rows", [1, 2, 3, 16, 50, 203])
    def test_chunked_projection_is_the_whole_weight_product(self, shape,
                                                            n_rows):
        # Full SUNAC's Q/K/V/O, FF up and FF down weights, and one that
        # splits into chunks of 512 and 768 rows.
        rng = np.random.default_rng(n_rows * 10_000 + shape[0])
        weight = rng.uniform(-0.03, 0.03, shape).astype(np.float32)
        rows = rng.standard_normal((n_rows, shape[1]))
        np.testing.assert_array_equal(numerics._project(rows, weight),
                                      rows @ weight.T.astype(np.float64))

    def test_full_width_layer_widens_no_whole_weight(self):
        # A whole float64 FF weight is 12 MiB; this layer traced 13.96 MiB
        # widening whole weights and 7.96 MiB in chunks of 512 rows.
        layer = init_scale_layer(np.random.default_rng(1603))
        x = np.random.default_rng(1604).standard_normal(
            (1024, 50)).astype(np.float32)
        tracemalloc.start()
        try:
            numerics.transformer_block(x, layer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

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

    def test_full_width_layer_frees_each_activation(self):
        # Net of its float32 output, one layer at T = 1,600 traces 87.6 MiB,
        # set by attention.  With the LN1 and LN2 outputs held to the end
        # of the layer and GELU run on a copy of the FF1 output, 100.1 MiB.
        rng = np.random.default_rng(1308)
        layer = init_scale_layer(rng)
        x = rng.standard_normal((1024, 1600)).astype(np.float32)
        tracemalloc.start()
        try:
            y = numerics.transformer_block(x, layer)
            peak = tracemalloc.get_traced_memory()[1] - y.nbytes
        finally:
            tracemalloc.stop()
        assert peak < 92 * 2**20


class TestTransformerStack:
    """An (S, F, T) stack gives each map exactly the bits of its own call."""

    @pytest.fixture(scope="class")
    def full_layer(self):
        return init_scale_layer(np.random.default_rng(1601))

    @pytest.mark.parametrize("n_src", [1, 2, 3])
    @pytest.mark.parametrize("t", [1, 2, 50, 51, 200])
    def test_stack_is_bit_equal_to_one_call_per_map(self, full_layer, n_src,
                                                    t):
        # At T = 200 two maps already pass the 256-row cap.
        x = np.random.default_rng(t * 10 + n_src).standard_normal(
            (n_src, 1024, t)).astype(np.float32)
        got = numerics.transformer_block(x, full_layer, name="stack")
        assert got.shape == x.shape
        for s in range(n_src):
            np.testing.assert_array_equal(
                got[s], numerics.transformer_block(x[s], full_layer),
                err_msg=f"map {s}")

    def test_groups_split_at_the_row_cap(self, full_layer):
        # Six 51-frame maps: 5 * 51 = 255 rows fit under 256, the sixth
        # starts a second group.
        x = np.random.default_rng(1602).standard_normal(
            (6, 1024, 51)).astype(np.float32)
        got = numerics.transformer_block(x, full_layer)
        for s in range(6):
            np.testing.assert_array_equal(
                got[s], numerics.transformer_block(x[s], full_layer))

    @pytest.mark.parametrize("n_src, t, groups", [
        (3, 1, [1, 1, 1]), (3, 2, [3]), (6, 51, [5, 1]), (3, 50, [3]),
        (2, 200, [1, 1]), (2, 300, [1, 1]), (1, 600, [1]),
    ])
    def test_group_sizes(self, rng, monkeypatch, n_src, t, groups):
        # One-token maps run alone: stacked, their one-row products would
        # be GEMMs instead of GEMVs, which sum in another order.  That
        # moves most float64 projections by an ulp and only rarely a
        # float32 output, so the bit test above cannot be relied on to
        # see it.
        layer = random_layer(rng)
        seen = []
        block_rows = numerics._block_rows

        def spy(stack, *args):
            seen.append(stack.shape[0])
            return block_rows(stack, *args)

        monkeypatch.setattr(numerics, "_block_rows", spy)
        x = rng.standard_normal((n_src, 16, t)).astype(np.float32)
        numerics.transformer_block(x, layer)
        assert seen == groups

    def test_positions_count_from_zero_in_every_map(self, rng):
        # Equal maps stay equal: no map sees another's positions or keys.
        layer = random_layer(rng)
        x = np.broadcast_to(rng.standard_normal((16, 7)),
                            (3, 16, 7)).astype(np.float32)
        out = numerics.transformer_block(x, layer)
        np.testing.assert_array_equal(out[1], out[0])
        np.testing.assert_array_equal(out[2], out[0])

    def test_rejects_other_ranks(self, rng):
        layer = random_layer(rng)
        with pytest.raises(ContractViolationError):
            numerics.transformer_block(
                rng.standard_normal((1, 2, 16, 4)).astype(np.float32), layer)

    def test_rejects_an_empty_stack(self, rng):
        with pytest.raises(InvalidArgumentError):
            numerics.transformer_block(np.zeros((0, 16, 4), np.float32),
                                       random_layer(rng))


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

    @pytest.mark.parametrize("length", [4353, 4400, 10000])
    def test_length_past_the_frames_is_refused(self, rng, length):
        # 16 frames at hop 256 cover 15 * 256 + 1024 - 512 = 4352 samples.
        spec = numerics.stft(rng.standard_normal(4000), 1024, 256)
        assert numerics.istft(spec, 1024, 256, 4352).shape == (4352,)
        with pytest.raises(InvalidArgumentError, match="past the 4352"):
            numerics.istft(spec, 1024, 256, length)

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
