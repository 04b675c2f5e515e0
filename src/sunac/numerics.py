"""Dense numeric kernels shared by the codec stack.

One-dimensional convolutions (strided, dilated, and transposed), a
Transformer block with rotary position coding, and the STFT behind
mask-based evaluation.

Neural kernels keep tensors in float32 but accumulate every dot product in
float64, so outputs are reproducible bit for bit on a given platform.
Convolutions produce their output one time tile at a time (`conv_tiles`),
none wider than a fixed width.  Each kernel call computes one tile from its
own input window alone, and a whole-length `conv1d` loops over the tiles,
so a caller can stream a signal through a stack of convolutions holding
tile-sized pieces, and the peak working set is one tile's float64 buffers.
Every output column gets the same per-tap products, summed in the same
order, whatever the tile width, so the bits depend neither on the tile size
nor on how the input arrives.  A tile makes no float64 pass it does not
need (`conv1d`), and Transformer layers add their biases and residuals in
place, in the order the formulas state, so neither moves a bit.
Attention runs both of its products on BLAS, one fixed-size block of
queries at a time, so its memory grows linearly with the token count; a
softmax row needs only its own query, so the blocking leaves the bits
unchanged.  Convolutions and Transformer layers also take an (S, C, L)
stack of signals, widen each weight once per tile or row group for all of
them (`conv_tiles`, `stack_groups`; one-token maps stay alone, as numpy
sums one-row products as GEMVs), and give each its own call's bits.
GELU's error function is Cephes' rational approximation evaluated here in
numpy (`erf`), so numpy is the only library the kernels need: it equals
scipy's `erf` bit for bit where |x| <= 1 and is within one ulp beyond, and
the GELU bits do not depend on whether or which scipy is installed.  All
functions are pure: no hidden state, safe to call concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolationError, InvalidArgumentError, NumericError, integer, real_array)

__all__ = [
    "conv_out_len",
    "conv_tiles",
    "conv1d",
    "snake",
    "layer_norm",
    "gelu",
    "erf",
    "rope_rotate",
    "TransformerLayerWeights",
    "transformer_block",
    "stack_groups",
    "stft",
    "istft",
]

_LN_EPS = 1e-5
_ROPE_BASE = 10000.0
# Queries per attention block; bounds the score buffer at (H, 256, T).
_QUERY_BLOCK = 256
# Convolution tiles (see conv_tiles): _TILE_COLUMNS output columns, times
# as many as fit when the layer is narrower than _TILE_CHANNELS.  A float64
# tile buffer of a narrow layer then holds about 3 MB, while wide layers
# amortize each tap's weight widening over 2,048 columns.  _GEMM_ALIGN
# columns make the widest BLAS register block.
_TILE_COLUMNS = 2048
_TILE_CHANNELS = 192
_GEMM_ALIGN = 16


def as_samples(audio, dtype=np.float64) -> np.ndarray:
    """The finite 1-D `dtype` sample vector of an AudioBuffer or array."""
    arr = real_array("samples", getattr(audio, "samples", audio), dtype)
    if arr.ndim != 1:
        raise ContractViolationError(f"expected 1-D audio, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidArgumentError("audio contains non-finite samples")
    return arr


def check_finite(array: np.ndarray, where: str) -> np.ndarray:
    """Return `array` as is, or raise NumericError naming the stage `where`."""
    if not np.isfinite(array).all():
        raise NumericError(f"non-finite output in {where}")
    return array


def forward_stage(fn):
    """Run `fn`, a stage that checks its outputs with `check_finite`, with
    float overflow and invalid results quiet, so that they surface as the
    stage's NumericError and not as a numpy warning (an exception under
    `python -W error`) from whichever step first made them."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)
    return run


# ---------------------------------------------------------------------------
# convolution


def conv_out_len(
    length: int,
    kernel: int,
    *,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
    transposed: bool = False,
    output_padding: int = 0,
) -> int:
    """Output column count of `conv1d` for an input of `length` columns.

    With span = (kernel - 1) * dilation + 1 this is
    (length + 2 * padding - span) // stride + 1 forward and
    (length - 1) * stride - 2 * padding + span + output_padding transposed.
    The result is not checked; it is below one when the kernel does not fit.
    """
    span = (kernel - 1) * dilation + 1
    if transposed:
        return (length - 1) * stride - 2 * padding + span + output_padding
    return (length + 2 * padding - span) // stride + 1


def conv_tiles(
    length: int,
    c_out: int,
    c_in: int,
    kernel: int,
    *,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
    transposed: bool = False,
    output_padding: int = 0,
    sources: int = 1,
) -> list[tuple[int, int, int, int]]:
    """The output tiles of `conv1d` over `length` input columns, in order.

    Each tile is (t0, t1, lo, hi): it computes output columns [t0, t1) and
    reads input columns [lo, hi), its receptive field plus, when
    transposed, the widening to _GEMM_ALIGN columns.  Tiles are
    _TILE_COLUMNS output columns, times as many as fit when the layer is
    narrower than _TILE_CHANNELS, over the least power of two >= `sources`;
    they start on multiples of that width and none is wider than it, so the
    last one may be narrower.  `lo` never decreases from one tile to the next.
    """
    l_out = conv_out_len(length, kernel, stride=stride, padding=padding,
                         dilation=dilation, transposed=transposed,
                         output_padding=output_padding)
    if l_out < 1:
        raise InvalidArgumentError(f"conv output length {l_out} is not positive")
    # Float64 rows per output column in the largest tile buffer: C_out in
    # the accumulator, C_in in the window (C_in / stride when transposed).
    rows = max(c_out, c_in // stride if transposed else c_in)
    columns = _TILE_COLUMNS * max(1, _TILE_CHANNELS // rows)
    columns = max(min(columns, _GEMM_ALIGN),
                  columns >> (sources - 1).bit_length())
    edges = [*range(0, l_out, columns), l_out]
    span = (kernel - 1) * dilation + 1
    tiles = []
    for t0, t1 in zip(edges, edges[1:]):
        if transposed:
            # The input columns that scatter into padded output columns
            # [t0 + padding, t1 + padding), widened out to multiples of
            # _GEMM_ALIGN and clipped at the input's end.
            lo = max(0, _ceil_div(t0 + padding - span + 1, stride))
            lo -= lo % _GEMM_ALIGN
            hi = min(length, _ceil_div(t1 + padding, _GEMM_ALIGN * stride)
                     * _GEMM_ALIGN)
        else:
            first = t0 * stride - padding
            lo = min(max(first, 0), length)
            hi = min(max(first + (t1 - t0 - 1) * stride + span, lo), length)
        tiles.append((t0, t1, lo, hi))
    return tiles


def conv1d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    *,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
    transposed: bool = False,
    output_padding: int = 0,
    tile: tuple[int, int, int, int] | None = None,
) -> np.ndarray:
    """Strided 1-D convolution, or its transpose, over a channel-major signal.

    Args:
        x: input of shape (C_in, L) or an (S, C_in, L) stack, float32;
            with `tile`, only the input columns [lo, hi) that it reads.
        weight: kernels of shape (C_out, C_in, K).  The same layout is used
            for the transposed direction; C_in is always the channel count
            of `x`.
        bias: optional (C_out,) vector added to every output column.
        stride, padding, dilation: the usual conv hyperparameters.
        transposed: scatter instead of gather.
        output_padding: extra columns appended in the transposed direction
            only, to disambiguate the output length for odd strides.
        tile: one (t0, t1, lo, hi) entry of `conv_tiles` for the whole
            input; then only output columns [t0, t1) are computed.

    Returns:
        (C_out, L_out) float32, with L_out given by `conv_out_len`, or
        (C_out, t1 - t0) with `tile`; with a stack, S such maps.

    Each kernel call computes one tile from its window: without `tile`
    the call loops over `conv_tiles`, with `tile` it is one kernel call.
    The kernel widens the input columns the tile reads (its window, halo
    and zero padding included) into a float64 buffer; then for each tap in
    ascending order it widens that tap's weights and computes the float64
    product `weight[:, :, tap] @ window`.  Forward, the product reads a
    strided view of the window: the first tap's product is written
    straight into the tile's float64 accumulator, and each later one goes
    through one product buffer (none for a one-tap kernel) and is added to
    it.  With one input channel the product is the broadcast
    `weight[:, 0, tap] * window_row` instead of a GEMM, added to an
    accumulator started from zeros.  Transposed, each product lands on a
    strided slice of an accumulator started from zeros.  One pass then adds
    the bias in float64 and writes the float32 tile.  Beyond the float32
    input and output, the peak working set is one tile's float64 buffers:
    at most three (channels, tile) arrays (3 to 6 MB each for a narrow
    layer; the forward window is `stride` times wider) and one tap's
    weights, whatever L and K are.  For a stack, `np.matmul` broadcasts
    each widened tap as one GEMM call per signal, the call the signal
    alone makes.

    The summation order is part of the result, and tiling keeps it: every
    output column receives the same per-tap sums over C_in, added in tap
    order.  BLAS computes a column's sum the same way wherever it sits in a
    product, except in a product's last few columns, which it handles in
    narrower register blocks.  So every product starts on a multiple of
    _GEMM_ALIGN columns and either spans a whole number of them or ends
    where an untiled product would: tiles start on multiples of 2,048, and
    each transposed product is widened out to multiples of _GEMM_ALIGN
    input columns.  Each float64 sum is then the one an untiled pass
    computes, and a `tile` call is the kernel call a whole-length call
    makes for that tile, so stream bytes and decoded samples stay pinned
    (`tests/test_golden.py`).  Forward, the sum
    over (C_in, K) is grouped by tap; every float32 x float32 product is
    exact in float64, so another grouping would move only float64
    rounding, far below a float32 step.  The same exactness makes the
    one-channel broadcast product BLAS's one-term sum.  BLAS and numpy
    start every sum from +0.0, so a GEMM product is never -0.0 and can
    start the accumulator; a broadcast product is -0.0 where a negative
    weight meets a zero sample, so the one-channel accumulator starts from
    zeros, which adds it in as +0.0 (`tests/test_numerics.py` checks the
    bits, signed zeros included).
    """
    x = np.asarray(x, dtype=np.float32)
    w = np.asarray(weight, dtype=np.float32)
    if x.ndim not in (2, 3) or w.ndim != 3:
        raise ContractViolationError(
            f"conv1d wants ([S,] C_in, L) input and (C_out, C_in, K) "
            f"kernels, got {x.shape} and {w.shape}"
        )
    stride = integer("stride", stride, 1)
    dilation = integer("dilation", dilation, 1)
    padding = integer("padding", padding, 0)
    output_padding = integer("output_padding", output_padding, 0, stride)
    if output_padding and not transposed:
        raise InvalidArgumentError("output_padding only applies when transposed")
    c_out, c_in, k = w.shape
    if x.shape[-2] != c_in:
        raise ContractViolationError(
            f"input has {x.shape[-2]} channels, kernels expect {c_in}"
        )
    b64 = None if bias is None else np.asarray(bias, dtype=np.float64)[:, None]
    kernel = _conv_transposed_tile if transposed else _conv_forward_tile
    if tile is not None:
        t0, t1, lo, hi = tile
        if x.shape[-1] != hi - lo:
            raise ContractViolationError(
                f"tile {tile} reads {hi - lo} input columns, got {x.shape[-1]}"
            )
        y = np.empty((*x.shape[:-2], c_out, t1 - t0), dtype=np.float32)
        kernel(x, w, b64, y, t0, lo, stride, padding, dilation)
        return y
    tiles = conv_tiles(x.shape[-1], c_out, c_in, k, stride=stride,
                       padding=padding, dilation=dilation,
                       transposed=transposed, output_padding=output_padding,
                       sources=math.prod(x.shape[:-2]))
    y = np.empty((*x.shape[:-2], c_out, tiles[-1][1]), dtype=np.float32)
    for t0, t1, lo, hi in tiles:
        kernel(x[..., lo:hi], w, b64, y[..., t0:t1], t0, lo, stride, padding,
               dilation)
    return y


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# The tile kernels write output columns [t0, t0 + y.shape[-1]) into y.  x holds
# input columns [lo, lo + x.shape[-1]), which must include the tile's window
# (`conv_tiles`); columns outside x read as zero padding.


def _conv_forward_tile(x, w, b64, y, t0, lo, stride, padding, dilation):
    # Output column t reads padded input column t * stride + tap * dilation,
    # so a tile of n outputs from t0 reads (n - 1) * stride + span padded
    # columns from t0 * stride: its window, zero padding written in place.
    c_out, c_in, k = w.shape
    n = y.shape[-1]
    first = t0 * stride - padding - lo
    width = (n - 1) * stride + (k - 1) * dilation + 1
    window = np.empty((*x.shape[:-1], width))
    # Window columns [a, b) hold input; the rest is padding.
    a = min(max(-first, 0), width)
    b = min(max(x.shape[-1] - first, a), width)
    window[..., :a] = 0.0
    window[..., a:b] = x[..., first + a : first + b]
    window[..., b:] = 0.0
    prod = np.empty(y.shape) if k > 1 or c_in == 1 else None
    if c_in == 1:
        # Broadcast products, not one-term GEMMs (see conv1d); the zero
        # start adds a -0.0 product in as +0.0, as BLAS's sums do.
        w64 = w[:, 0, :, None].astype(np.float64)
        acc = np.zeros(y.shape)
        for tap in range(k):
            start = tap * dilation
            np.multiply(w64[:, tap],
                        window[..., start : start + (n - 1) * stride + 1 : stride],
                        out=prod)
            acc += prod
    else:
        acc = np.empty(y.shape)
        w_tap = np.empty((c_out, c_in))
        for tap in range(k):
            start = tap * dilation
            np.copyto(w_tap, w[:, :, tap])
            np.matmul(w_tap,
                      window[..., start : start + (n - 1) * stride + 1 : stride],
                      out=prod if tap else acc)
            if tap:
                acc += prod
    _write_tile(acc, b64, y)


def _write_tile(acc, b64, y):
    # The bias add and the float32 cast in one pass: the add is float64,
    # and only its sum is rounded to float32.
    if b64 is None:
        y[...] = acc
    else:
        np.add(acc, b64, out=y)


def _conv_transposed_tile(x, w, b64, y, t0, lo, stride, padding, dilation):
    # Input column i lands on padded output column i * stride + tap * dilation,
    # so into a tile of padded columns [p0, p1) tap `tap` scatters input
    # columns [ceil((p0 - tap * dilation) / stride), ceil((p1 - ...) / stride)).
    # Each tap's product runs over that range widened out to multiples of
    # _GEMM_ALIGN (clipped at the input's end), where an untiled product over
    # the whole input would have BLAS block boundaries too.  That clip never
    # reaches past a tile's window from `conv_tiles`, so clipping at the end
    # of x is clipping at the input's end.
    c_out, c_in, k = w.shape
    n = y.shape[-1]
    p0, p1 = t0 + padding, t0 + n + padding
    end = lo + x.shape[-1]
    window = x.astype(np.float64)
    acc = np.zeros(y.shape)
    prod_buf = np.empty(window.size // c_in * c_out)
    w_tap = np.empty((c_out, c_in))
    for tap in range(k):
        start = tap * dilation
        i0 = max(0, _ceil_div(p0 - start, stride))
        i1 = min(end, _ceil_div(p1 - start, stride))
        if i0 >= i1:
            continue
        c0 = i0 - i0 % _GEMM_ALIGN
        c1 = min(end, i1 + -i1 % _GEMM_ALIGN)
        prod = prod_buf[: prod_buf.size // x.shape[-1] * (c1 - c0)].reshape(
            *x.shape[:-2], c_out, c1 - c0)
        np.copyto(w_tap, w[:, :, tap])
        np.matmul(w_tap, window[..., c0 - lo : c1 - lo], out=prod)
        col = i0 * stride + start - p0
        acc[..., col : col + (i1 - i0 - 1) * stride + 1 : stride] += prod[..., i0 - c0 : i1 - c0]
    _write_tile(acc, b64, y)


def snake(x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Periodic activation x + sin^2(alpha * x) / alpha with per-channel alpha."""
    x = np.asarray(x, dtype=np.float32)
    a = np.asarray(alpha, dtype=np.float32)[:, None]
    # One output buffer, every step in place: same float32 operations in the
    # same order as x + sin(a * x) ** 2 / a, without four temporaries.
    y = a * x
    np.sin(y, out=y)
    np.square(y, out=y)
    y /= a
    y += x
    return y


# ---------------------------------------------------------------------------
# transformer block


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact (erf-based) Gaussian error linear unit, in float64.

    The bits are those of 0.5 * x * (1.0 + erf(x / np.sqrt(2.0))), but the
    steps run in place, so the call holds two arrays of the input's size.
    """
    x = np.asarray(x, dtype=np.float64)
    half = 0.5 * x
    u = np.divide(x, np.sqrt(2.0), order="C")
    _erf_in_place(u)
    u += 1.0
    u *= half
    return u


def erf(x: np.ndarray) -> np.ndarray:
    """The error function of float64 values, as Cephes computes it.

    Moshier's rational approximations (Cephes `ndtr.c`, as in
    `scipy.special.erf`), with the same operations in the same order:
    x * T(x^2) / U(x^2) for |x| <= 1, 1 - exp(-x^2) * P(|x|) / Q(|x|) with
    the sign of x for 1 < |x| < 8, and +-1 beyond.  The result equals
    scipy's bit for bit where |x| <= 1; beyond, it is within one ulp,
    because numpy's `exp` may round differently from the C library's.
    erf(-0) is -0, erf(+-inf) is +-1 and a NaN gives a NaN.
    """
    u = np.array(x, dtype=np.float64, order="C")
    _erf_in_place(u)
    return u


# Cephes erf coefficients, highest power first.  U and Q are monic: their
# leading 1 is not stored (Cephes p1evl).
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERF_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
          7.46321056442269912687E0, 4.86371970985681366614E1,
          1.96520832956077098242E2, 5.26445194995477358631E2,
          9.34528527171957607540E2, 1.02755188689515710272E3,
          5.57535335369399327526E2)
_ERF_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
          3.54937778887819891062E2, 9.75708501743205489753E2,
          1.82390916687909736289E3, 2.24633760818710981792E3,
          1.65666309194161350182E3, 5.57535340817727675546E2)
# Values per block of _erf_in_place: its three scratch buffers hold 384 KiB.
_ERF_BLOCK = 1 << 14


def _horner(out: np.ndarray, x: np.ndarray, coefs, monic: bool) -> None:
    # Cephes polevl (monic: p1evl) at x into out, one step at a time in
    # place: ans = c0 (monic: x + c0), then ans = ans * x + c for each
    # later c.
    if monic:
        np.add(x, coefs[0], out=out)
        rest = coefs[1:]
    else:
        np.multiply(x, coefs[0], out=out)
        out += coefs[1]
        rest = coefs[2:]
    for c in rest:
        out *= x
        out += c


def _erf_in_place(u: np.ndarray) -> None:
    # u is C-contiguous, so its blocks are views.  A fixed block at a time:
    # the |x| <= 1 formula over the whole block in scratch buffers, then the
    # entries with |x| > 1 (x * x > 1; about 1.4% of the decoder's
    # activations) recomputed by the other branch.
    flat = u.reshape(-1)
    n = min(flat.size, _ERF_BLOCK)
    z_buf, num_buf, den_buf = np.empty(n), np.empty(n), np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, flat.size, _ERF_BLOCK):
            x = flat[start : start + _ERF_BLOCK]
            m = x.size
            z, num, den = z_buf[:m], num_buf[:m], den_buf[:m]
            np.multiply(x, x, out=z)
            far = np.flatnonzero(z > 1.0)
            x_far, z_far = x[far], z[far]
            _horner(num, z, _ERF_T, monic=False)
            _horner(den, z, _ERF_U, monic=True)
            num *= x
            np.divide(num, den, out=x)
            if far.size:
                x[far] = _erf_far(x_far, z_far)


def _erf_far(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    # erf for |x| > 1 from x and z = x * x: 1 - erfc(|x|) with the sign of
    # x.  Cephes' other erfc branch (|x| >= 8) only moves values below
    # 2**-54, which 1 - erfc rounds away, so it is 1 there.
    a = np.abs(x)
    p, q = np.empty_like(a), np.empty_like(a)
    _horner(p, a, _ERF_P, monic=False)
    _horner(q, a, _ERF_Q, monic=True)
    y = np.exp(-z)
    y *= p
    y /= q
    np.subtract(1.0, y, out=y)
    y[a >= 8.0] = 1.0
    return np.copysign(y, x, out=y)


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Normalize each column of an (F, T) map across its features."""
    x64 = np.asarray(x, dtype=np.float64)
    out = _ln_rows(x64.T, np.asarray(gain, np.float64), np.asarray(bias, np.float64))
    return out.T.astype(np.float32)


def _ln_rows(tokens: np.ndarray, gain, bias) -> np.ndarray:
    # tokens: (T, D) float64, normalized along the last axis.
    # The operations of (x - mean) / sqrt(var + eps) * gain + bias, with
    # the centred copy made once and every later step in place.
    out = tokens - tokens.mean(axis=-1, keepdims=True)
    var = np.square(out).mean(axis=-1, keepdims=True)
    out /= np.sqrt(var + _LN_EPS)
    out *= gain
    out += bias
    return out


def rope_rotate(x: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Apply rotary position coding to per-head vectors.

    x has shape (T, H, Dh) with Dh even.  Consecutive (even, odd) pairs of
    each head vector are rotated by an angle that grows with the token
    position and shrinks geometrically with the pair index, so two equal
    tokens at different positions stop being equal after rotation.
    """
    x = np.asarray(x, dtype=np.float64)
    dh = x.shape[-1]
    if dh % 2 != 0:
        raise ContractViolationError(f"rotary coding needs an even head dim, got {dh}")
    freqs = _ROPE_BASE ** (-np.arange(0, dh, 2, dtype=np.float64) / dh)
    angles = np.asarray(positions, dtype=np.float64)[:, None] * freqs[None, :]
    cos = np.cos(angles)[:, None, :]
    sin = np.sin(angles)[:, None, :]
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    # even * cos - odd * sin and even * sin + odd * cos, written in place
    # into the two halves of out with one scratch buffer.
    scratch = odd * sin
    np.multiply(even, cos, out=out[..., 0::2])
    out[..., 0::2] -= scratch
    np.multiply(odd, cos, out=scratch)
    np.multiply(even, sin, out=out[..., 1::2])
    out[..., 1::2] += scratch
    return out


@dataclass(frozen=True)
class TransformerLayerWeights:
    """Parameters of one pre-norm Transformer layer.

    Projection matrices are (D, D) with rows indexing outputs; the feed
    forward expands to ff_dim and contracts back.  Construction checks that
    the shapes agree and that the per-head dimension is even, which the
    rotary coding requires, so a block never runs on weights that fail.
    Fields after n_heads follow the tensor order of a Transformer node's
    manifest, which `TransformerNode.weights` reads positionally.
    """

    n_heads: int
    ln1_gain: np.ndarray
    ln2_gain: np.ndarray
    ln1_bias: np.ndarray
    ln2_bias: np.ndarray
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    ff_w1: np.ndarray
    ff_b1: np.ndarray
    ff_w2: np.ndarray
    ff_b2: np.ndarray

    @property
    def hidden_dim(self) -> int:
        return self.wq.shape[0]

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.n_heads

    @property
    def ff_dim(self) -> int:
        return self.ff_w1.shape[0]

    def __post_init__(self):
        d = self.hidden_dim
        if self.n_heads < 1 or d % self.n_heads != 0:
            raise ContractViolationError(
                f"{self.n_heads} heads do not divide hidden dim {d}"
            )
        if (d // self.n_heads) % 2 != 0:
            raise ContractViolationError(
                f"head dim {d // self.n_heads} must be even for rotary coding"
            )
        for name in ("wq", "wk", "wv", "wo"):
            if getattr(self, name).shape != (d, d):
                raise ContractViolationError(f"{name} must be ({d}, {d})")
        for name in ("bq", "bk", "bv", "bo", "ln1_gain", "ln1_bias",
                     "ln2_gain", "ln2_bias", "ff_b2"):
            if getattr(self, name).shape != (d,):
                raise ContractViolationError(f"{name} must be ({d},)")
        f = self.ff_dim
        if self.ff_w1.shape != (f, d) or self.ff_w2.shape != (d, f):
            raise ContractViolationError("feed-forward shapes are inconsistent")
        if self.ff_b1.shape != (f,):
            raise ContractViolationError(f"ff_b1 must be ({f},)")


def _attention(tokens, w: TransformerLayerWeights, use_rope: bool, t: int):
    m, d = tokens.shape
    heads, dh = w.n_heads, w.head_dim
    q = _project(tokens, w.wq, w.bq).reshape(-1, t, heads, dh)
    k = _project(tokens, w.wk, w.bk).reshape(-1, t, heads, dh)
    v = _project(tokens, w.wv, w.bv).reshape(-1, t, heads, dh)
    if use_rope:
        positions = np.arange(t)
        q = rope_rotate(q, positions)
        k = rope_rotate(k, positions)
    # Both products run on BLAS (np.matmul over per-map, per-head views),
    # one block of at most _QUERY_BLOCK queries at a time.  A softmax row
    # depends on its own query alone, so blocking needs no online
    # rescaling: the bits do not depend on the block size, and the score
    # buffer per map is (H, _QUERY_BLOCK, T) rather than (H, T, T).
    q_h = q.transpose(0, 2, 1, 3)
    k_ht = k.transpose(0, 2, 3, 1)
    v_h = v.transpose(0, 2, 1, 3)
    scale = np.sqrt(dh)
    block = min(t, _QUERY_BLOCK)
    score_buf = np.empty((q.shape[0], heads, block, t))
    ctx = np.empty((q.shape[0], heads, t, dh))
    for start in range(0, t, block):
        rows = slice(start, min(start + block, t))
        scores = score_buf[:, :, : rows.stop - start]
        np.matmul(q_h[:, :, rows], k_ht, out=scores)
        scores /= scale
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        np.matmul(scores, v_h, out=ctx[:, :, rows])
    # Free Q, K, V and the scores before the output projection allocates.
    del q, k, v, q_h, k_ht, v_h, score_buf, scores
    ctx = ctx.transpose(0, 2, 1, 3).reshape(m, d)
    return _project(ctx, w.wo, w.bo)


def _project(rows, weight, bias):
    # rows @ weight.T + bias, the bias added in place onto the product.
    out = rows @ weight.T.astype(np.float64)
    out += bias
    return out


@forward_stage
def transformer_block(
    x: np.ndarray,
    weights: TransformerLayerWeights,
    *,
    use_rope: bool = True,
    name: str | None = None,
) -> np.ndarray:
    """Run one pre-norm Transformer layer over an (F, T) map or a stack.

    Columns are tokens.  F must equal the layer's hidden dim.  Attention is
    full (non-causal) within each map, rotary coding (from position 0 in
    each map) is applied to queries and keys only, and a stack runs in
    `stack_groups`.  Raises NumericError naming the layer if not finite.
    """
    x = np.asarray(x, dtype=np.float32)
    stack = x if x.ndim == 3 else x[None]
    if x.ndim not in (2, 3) or stack.shape[1] != weights.hidden_dim:
        raise ContractViolationError(
            f"expected ({weights.hidden_dim}, T) input, got {x.shape}"
        )
    n, _, t = stack.shape
    if n < 1 or t < 1:
        raise InvalidArgumentError("transformer input needs at least one token")
    out = np.empty(stack.shape, dtype=np.float32)
    for g in stack_groups(n, t):
        _block_rows(stack[g], weights, use_rope, out[g])
    check_finite(out, f"transformer layer {name or '<unnamed>'}")
    return out if x.ndim == 3 else out[0]


def stack_groups(n: int, t: int) -> list[slice]:
    """Groups of consecutive t-token maps of n that share each GEMM: up to
    _QUERY_BLOCK tokens in all, but longer and one-token maps alone."""
    size = max(1, _QUERY_BLOCK // t) if t > 1 else 1
    return [slice(s, min(s + size, n)) for s in range(0, n, size)]


def _block_rows(stack, weights: TransformerLayerWeights, use_rope: bool, out):
    # One group of a stack, written into `out`.  Its (rows, F) tokens are
    # feature-major, as one map's transpose is, so each row's reductions sum
    # as for that map.
    g, d, t = stack.shape
    tokens = stack.transpose(1, 0, 2).reshape(d, g * t).T.astype(np.float64)

    # tokens is this call's own copy, so both residual adds run in place,
    # in the order (tokens + attn) then (tokens + hidden @ W2) + b2.
    normed = _ln_rows(tokens, weights.ln1_gain, weights.ln1_bias)
    tokens += _attention(normed, weights, use_rope, t)
    normed = _ln_rows(tokens, weights.ln2_gain, weights.ln2_bias)
    hidden = gelu(_project(normed, weights.ff_w1, weights.ff_b1))
    tokens += hidden @ weights.ff_w2.T.astype(np.float64)
    tokens += weights.ff_b2

    out[...] = tokens.reshape(g, t, d).transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# STFT


def _hann(n_fft: int) -> np.ndarray:
    # Periodic form, the right one for overlap-add analysis.
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)


def _check_stft_params(n_fft: int, hop: int) -> tuple[int, int]:
    n_fft = integer("n_fft", n_fft, 2)
    if n_fft & (n_fft - 1) != 0:
        raise InvalidArgumentError(f"n_fft must be a power of two, got {n_fft}")
    return n_fft, integer("hop", hop, 1, n_fft)


def stft(audio, n_fft: int, hop: int) -> np.ndarray:
    """Short-time Fourier transform of a mono signal, Hann-windowed.

    The signal is zero-padded by n_fft // 2 on both sides, so frame `t`
    is centered on sample `t * hop` and the frame count is a pure function
    of the input length: 1 + len(x) // hop.

    Args:
        audio: AudioBuffer or 1-D array.
        n_fft: FFT size, a power of two.
        hop: step between frames, 0 < hop <= n_fft.

    Returns:
        Complex matrix of shape (n_fft // 2 + 1, n_frames).
    """
    x = as_samples(audio)
    if x.size == 0:
        raise InvalidArgumentError("cannot transform empty audio")
    n_fft, hop = _check_stft_params(n_fft, hop)
    win = _hann(n_fft)
    pad = n_fft // 2
    xp = np.concatenate([np.zeros(pad), x, np.zeros(pad)])
    n_frames = 1 + x.size // hop
    frames = np.lib.stride_tricks.sliding_window_view(xp, n_fft)[::hop][:n_frames]
    return np.fft.rfft(frames * win, axis=1).T


def istft(spec: np.ndarray, n_fft: int, hop: int, length: int) -> np.ndarray:
    """Invert `stft` by Hann-windowed overlap-add with squared-window
    weighting, returning `length` samples after stripping the center
    padding."""
    spec = np.asarray(spec)
    n_fft, hop = _check_stft_params(n_fft, hop)
    length = integer("length", length, 0)
    if spec.ndim != 2 or spec.shape[0] != n_fft // 2 + 1:
        raise ContractViolationError(
            f"expected ({n_fft // 2 + 1}, n_frames) spectrogram, got {spec.shape}"
        )
    win = _hann(n_fft)
    n_frames = spec.shape[1]
    frames = np.fft.irfft(spec.T, n=n_fft, axis=1)
    total = (n_frames - 1) * hop + n_fft
    acc = np.zeros(total)
    weight = np.zeros(total)
    for t in range(n_frames):
        start = t * hop
        acc[start : start + n_fft] += frames[t] * win
        weight[start : start + n_fft] += win * win
    out = acc / np.maximum(weight, 1e-12)
    pad = n_fft // 2
    return out[pad : pad + length]
