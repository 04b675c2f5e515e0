"""Codec model family: configurations, deterministic weights, encode/decode.

The runnable signal path is a strided convolutional encoder (residual units
with dilations 1, 3, 9 between downsampling stages), optional Transformer
stages on either side, a shared residual vector quantizer, and a mirrored
transposed-convolution decoder.  Five named configurations cover the family:

    DAC       conv encoder/decoder only, wide (base dims 64 / 1536)
    DACT      narrow conv stacks (32 / 768) plus 3 Transformer layers per side
    SDCodec   DAC topology with three quantizer modules (analyzer only)
    SDCodecT  DACT topology with three quantizer modules (analyzer only)
    SUNAC     DACT conv stacks plus a prompt-driven extraction front end

Every architecture is first described as a tree of layer nodes, FiLM and
the quantizer included.  Each node alone knows its shape fields and tensor
order, and gives its manifest, its forward pass, its cost rows as (name,
kind, shape fields) and its tensors read from a store, so the analyzer and
the weight loaders cannot drift from the signal path.

`encode` and `decode` stream a signal through their node chain in column
pieces.  A conv node emits each tile of its whole-length output (see
`numerics.conv_tiles`) as soon as the tile's input window has arrived, and
holds only the input a later tile still reads.  A window is never joined:
the conv writes the parts of the held pieces it spans straight into the
tile's float64 window, through its own snake, whose last float32 add lands
there, so it holds its input pieces untransformed (in a residual unit, the
pieces its skip path holds anyway).  A residual unit holds its skip pieces
until its branch catches up, and adds them piece by piece; a Transformer
layer collects its frame-rate input and runs once.  So the conv stacks
hold tile-sized pieces at any length.  The bits do not depend on how the
pieces arrive: each tile is computed from exactly the input columns a
whole-length call would give it, by the same BLAS products in the same
order, and the snake and the residual add act on each column alone.  The
final tanh runs once on the checked output.  Pieces may also be (S, C, n)
source stacks, as when `decode` takes an (S, F, T) stack of maps.

`init_weights` draws no value: the store it returns draws each tensor on
first read.  `WeightStore.load` checks every value of a weight file but
keeps none: its store reads each tensor from the file on first read.  The
encoder and decoder share no weights, so a process that only encodes or
only decodes holds only its own side's weights; a round trip in one
process still ends up holding every weight.
"""

from __future__ import annotations

import collections
import functools
import math
import os
import struct
import threading
import weakref
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields

import numpy as np

from .audio import AudioBuffer, _atomic_open
from .errors import (
    ConfigError,
    ContractViolationError,
    CorruptStreamError,
    InvalidArgumentError,
    instance,
    integer,
    real_array,
    shape,
)
from . import numerics

__all__ = [
    "ARCH_FAMILIES",
    "RES_DILATIONS",
    "ModelConfig",
    "default_config",
    "bitrate_bps",
    "TensorSpec",
    "manifest",
    "WeightStore",
    "init_weights",
    "count_params",
    "ParamCount",
    "encode",
    "decode",
    "frames_for_length",
    "load_weights",
]

ARCH_FAMILIES = ("DAC", "DACT", "SDCodec", "SDCodecT", "SUNAC")
RES_DILATIONS = (1, 3, 9)
_RUNNABLE = ("DAC", "DACT", "SUNAC")
_ANALYZER_ONLY = ("SDCodec", "SDCodecT")

WEIGHTS_MAGIC = b"SUWT"
WEIGHTS_VERSION = 1


# ---------------------------------------------------------------------------
# configuration


# Lowest value of each integer field of ModelConfig but n_heads and the
# seed.  A stride of 1 would add a column in its kernel-2 downsampling conv.
_LOWEST = dict(sample_rate=1, strides=2, enc_base_dim=1, dec_base_dim=1,
               latent_dim=1, n_enc_transformer=0, n_dec_transformer=0,
               transformer_hidden=1, ff_dim=1, n_codebooks=1, codebook_size=2,
               code_dim=1)


def _seed(value, error=InvalidArgumentError) -> int:
    # The weight file stores the seed in an unsigned 64-bit field.
    try:
        return integer("seed", value, 0, 2**64 - 1)
    except InvalidArgumentError:
        raise error(
            f"seed must be an integer in [0, 2**64), got {value!r}") from None


@dataclass(frozen=True)
class ModelConfig:
    """Structural description of one codec instance.

    Everything the forward pass, the weight initializer, and the cost
    model need is recorded here so they always agree.  `strides` list the
    encoder downsampling factors; the decoder mirrors them in reverse.
    """

    arch_family: str = "SUNAC"
    sample_rate: int = 16000
    strides: tuple[int, ...] = (2, 4, 5, 8)
    enc_base_dim: int = 32
    dec_base_dim: int = 768
    latent_dim: int = 1024
    n_enc_transformer: int = 0
    n_dec_transformer: int = 3
    transformer_hidden: int = 1024
    n_heads: int = 8
    ff_dim: int = 1536
    n_codebooks: int = 12
    codebook_size: int = 1024
    code_dim: int = 8
    seed: int = 0

    def __post_init__(self):
        # Integral values (2.0) are stored as int; 2.5, "2", True, inf, NaN
        # or a value under _LOWEST in an integer field is a ConfigError.
        for field in fields(self):
            value = getattr(self, field.name)
            lo = _LOWEST.get(field.name, -math.inf)
            try:
                if field.type == "int":
                    value = integer(field.name, value, lo)
                elif field.name == "strides":
                    value = tuple(integer("strides", s, lo) for s in value)
            except (TypeError, InvalidArgumentError) as exc:
                kind = "integers" if field.name == "strides" else "an integer"
                least = "" if lo == -math.inf else f" of at least {lo}"
                raise ConfigError(
                    f"{field.name} must be {kind}{least}, got {value!r}"
                ) from exc
            object.__setattr__(self, field.name, value)
        self.validate()

    def validate(self) -> None:
        if self.arch_family not in ARCH_FAMILIES:
            raise ConfigError(
                f"unknown arch family {self.arch_family!r}, "
                f"expected one of {ARCH_FAMILIES}"
            )
        if not self.strides:
            raise ConfigError("strides must not be empty")
        if self.sample_rate % self.hop != 0:
            raise ConfigError(
                f"stride product {self.hop} must divide sample rate "
                f"{self.sample_rate} for an integer token rate"
            )
        if self.dec_base_dim % (2 ** len(self.strides)) != 0:
            raise ConfigError(
                f"dec_base_dim {self.dec_base_dim} must be divisible by "
                f"2^{len(self.strides)} so decoder stages can halve it"
            )
        uses_transformers = (
            self.n_enc_transformer > 0
            or self.n_dec_transformer > 0
            or self.arch_family == "SUNAC"
        )
        if uses_transformers:
            if self.latent_dim != self.transformer_hidden:
                raise ConfigError(
                    "Transformer stages act on the latent map directly, so "
                    f"latent_dim ({self.latent_dim}) must equal "
                    f"transformer_hidden ({self.transformer_hidden})"
                )
            if self.n_heads < 1 or self.transformer_hidden % self.n_heads != 0:
                raise ConfigError(
                    f"{self.n_heads} heads do not divide hidden "
                    f"{self.transformer_hidden}"
                )
            if (self.transformer_hidden // self.n_heads) % 2 != 0:
                raise ConfigError("per-head dim must be even for rotary coding")
        _seed(self.seed, ConfigError)

    # -- derived quantities

    @property
    def hop(self) -> int:
        return math.prod(self.strides)

    @property
    def token_rate(self) -> int:
        return self.sample_rate // self.hop

    @property
    def has_extractor(self) -> bool:
        return self.arch_family == "SUNAC"

    @property
    def n_rvq_modules(self) -> int:
        return 3 if self.arch_family in _ANALYZER_ONLY else 1

    @property
    def bits_per_code(self) -> int:
        return max(1, (self.codebook_size - 1).bit_length())

    @property
    def is_runnable(self) -> bool:
        return self.arch_family in _RUNNABLE

    # -- serialization (json is imported on first use: set-up needs none)

    def to_json(self) -> str:
        import json

        return json.dumps(asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "ModelConfig":
        import json

        try:
            payload = json.loads(text)
        except ValueError as exc:  # also bad UTF-8, or too long an integer
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError("config JSON must be an object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def default_config(family: str) -> ModelConfig:
    """Full-size configuration for one of the named architectures."""
    wide = dict(enc_base_dim=64, dec_base_dim=1536)
    narrow = dict(enc_base_dim=32, dec_base_dim=768)
    per_family = {
        "DAC": dict(wide, n_enc_transformer=0, n_dec_transformer=0),
        "SDCodec": dict(wide, n_enc_transformer=0, n_dec_transformer=0),
        "DACT": dict(narrow, n_enc_transformer=3, n_dec_transformer=3),
        "SDCodecT": dict(narrow, n_enc_transformer=3, n_dec_transformer=3),
        "SUNAC": dict(narrow, n_enc_transformer=0, n_dec_transformer=3),
    }
    # ModelConfig refuses any other family, an unhashable one too.
    overrides = per_family.get(family, {}) if isinstance(family, str) else {}
    return ModelConfig(arch_family=family, **overrides)


def bitrate_bps(config: ModelConfig) -> int:
    """Bits per second on the wire: codebooks x bits per code x token rate."""
    instance("config", config, ModelConfig)
    return config.n_codebooks * config.bits_per_code * config.token_rate


# ---------------------------------------------------------------------------
# layer nodes

# Init rules understood by init_weights.
INIT_UNIFORM = "uniform"      # U[-a, a] with a = sqrt(1 / fan_in)
INIT_ONES = "ones"
INIT_ZEROS = "zeros"
INIT_CODEBOOK = "codebook"    # uniform rows, entry 0 pinned to zero
# Values a first read draws, scales and casts in one pass (256 KiB of
# float64, so each pass reads what the last one left in cache); also the
# float32 values a weight file's scan checks, and a first read copies, in
# one pass.
_INIT_BLOCK = 2**15


@dataclass(frozen=True)
class TensorSpec:
    name: str
    shape: tuple[int, ...]
    init: str
    fan_in: int = 0

    @property
    def size(self) -> int:
        return int(math.prod(self.shape))


class _Node:
    """Defaults: no counted cost rows, tensors read in manifest order, the
    output as long as the input."""

    def rows(self):
        return []

    def read(self, store):
        return [store[spec.name] for spec in self.manifest()]

    def out_len(self, length):
        return length


class ConvNode(_Node):
    """A conv layer, and the snake named `snake` in front of it, if any."""

    def __init__(self, name, c_in, c_out, kernel, *, snake=None, stride=1,
                 dilation=1, padding=0, transposed=False, output_padding=0):
        self.name = name
        self.snake = snake
        self.c_in = c_in
        self.c_out = c_out
        self.kernel = kernel
        self.stride = stride
        self.dilation = dilation
        self.padding = padding
        self.transposed = transposed
        self.output_padding = output_padding

    def manifest(self):
        fan_in = self.c_in * self.kernel
        alpha = [] if self.snake is None else [
            TensorSpec(f"{self.snake}.alpha", (self.c_in,), INIT_ONES)]
        return alpha + [
            TensorSpec(f"{self.name}.weight", (self.c_out, self.c_in, self.kernel),
                       INIT_UNIFORM, fan_in),
            TensorSpec(f"{self.name}.bias", (self.c_out,), INIT_UNIFORM, fan_in),
        ]

    def rows(self):
        kind = "transposed_conv1d" if self.transposed else "conv1d"
        return [(self.name, kind, dict(
            c_in=self.c_in, c_out=self.c_out, kernel=self.kernel,
            stride=self.stride, dilation=self.dilation, padding=self.padding,
            output_padding=self.output_padding))]

    def _conv(self):
        return dict(stride=self.stride, padding=self.padding,
                    dilation=self.dilation, transposed=self.transposed,
                    output_padding=self.output_padding)

    def out_len(self, length):
        return numerics.conv_out_len(length, self.kernel, **self._conv())

    def stream(self, pieces, store, length):
        # One conv1d call per tile of the whole-length layer, each on its
        # own float64 window; a window's pieces stay held, untransformed,
        # only while a later tile still reads them.  A forward window spans
        # the tile's zero padding too, so the kernel copies no edge tile.
        # The window is passed on unnamed, so no window outlives its tile.
        conv = self._conv()
        *alpha, weight, bias = self.read(store)
        held = _Columns(pieces)
        tiles = numerics.conv_tiles(length, self.c_out, self.c_in, self.kernel,
                                    sources=held.sources(), **conv)
        keeps = [lo for _, _, lo, _ in tiles[1:]] + [length]
        for (t0, t1, lo, hi), keep in zip(tiles, keeps):
            a, b = lo, hi
            if not self.transposed:
                a = t0 * self.stride - self.padding
                b = (a + (t1 - t0 - 1) * self.stride
                     + (self.kernel - 1) * self.dilation + 1)
            yield numerics.conv1d(
                _widen(held.window(lo, hi, keep), lo - a, b - hi, *alpha),
                weight, bias, tile=(t0, t1, a, b), **conv)


def _widen(parts, left, right, alpha=None) -> np.ndarray:
    """The float64 window of a tile: `left` zero columns, each part written
    once (through the snake, whose last add lands here, or copied), then
    `right` zero columns."""
    window = np.empty((*parts[0].shape[:-1],
                       left + sum(p.shape[-1] for p in parts) + right))
    window[..., :left] = 0.0
    window[..., window.shape[-1] - right :] = 0.0
    a = left
    for part in parts:
        b = a + part.shape[-1]
        if alpha is None:
            window[..., a:b] = part
        else:
            numerics.snake(part, alpha, out=window[..., a:b])
        a = b
    return window


class ResidualNode(_Node):
    """y = x + f(x) where f is the child chain; children preserve length."""

    def __init__(self, children):
        self.children = list(children)

    def manifest(self):
        return [spec for child in self.children for spec in child.manifest()]

    def rows(self):
        return [row for child in self.children for row in child.rows()]

    def stream(self, pieces, store, length):
        # The skip path holds each input piece until the branch has emitted
        # every column of it.  Both operands are float32.  A float32 add
        # rounds once to the same value as a float64 add rounded back
        # (53 >= 2 * 24 + 2 significand bits make the double rounding
        # harmless), without the float64 copy.  Each branch piece reads its
        # skip columns as a window of views, so no skip columns are joined;
        # `map` holds no output between pulls, as a generator frame would.
        skip = _Columns(pieces)
        done = 0

        def add(y):
            nonlocal done
            out, a, hi = np.empty_like(y), 0, done + y.shape[-1]
            for part in skip.window(done, hi, hi):
                b = a + part.shape[-1]
                np.add(part, y[..., a:b], out=out[..., a:b])
                a = b
            done = hi
            return out

        return map(add, _stream(self.children, skip.feed(), store, length))

    def apply(self, x, store):
        """The unit over a whole ([S,] C, L) signal, as one piece."""
        return _join(self.stream([x], store, x.shape[-1]))


class LinearNode(_Node):
    """Per-column affine map, used by the quantizer projections and FiLM."""

    def __init__(self, name, d_in, d_out):
        self.name = name
        self.d_in = d_in
        self.d_out = d_out

    def manifest(self):
        return [
            TensorSpec(f"{self.name}.weight", (self.d_out, self.d_in),
                       INIT_UNIFORM, self.d_in),
            TensorSpec(f"{self.name}.bias", (self.d_out,), INIT_UNIFORM, self.d_in),
        ]


class ParamNode(_Node):
    """A bare tensor with no forward op (the prompt vectors)."""

    def __init__(self, name, shape, init, fan_in=0):
        self.name = name
        self.shape = tuple(shape)
        self.init = init
        self.fan_in = fan_in

    def manifest(self):
        return [TensorSpec(self.name, self.shape, self.init, self.fan_in)]


class FilmNode(_Node):
    """Scale and shift maps of a prompt column, each a (dim, dim) affine."""

    def __init__(self, name, dim):
        self.name = name
        self.dim = dim

    def manifest(self):
        return [spec for part in ("scale", "shift")
                for spec in LinearNode(f"{self.name}.{part}", self.dim,
                                       self.dim).manifest()]

    def rows(self):
        return [(self.name, "film", dict(d_model=self.dim))]


class RvqNode(_Node):
    """Quantizer modules, each a down and an up projection plus one codebook
    per layer.  Runnable families have one module, `rvq`; the SDCodec
    families have three, `rvq0`..`rvq2`, and a source runs through one."""

    name = "rvq"

    def __init__(self, config: ModelConfig):
        self.config = config

    def manifest(self):
        c = self.config
        f, d, n = c.latent_dim, c.code_dim, c.n_rvq_modules
        specs = []
        for prefix in ["rvq"] if n == 1 else [f"rvq{m}" for m in range(n)]:
            specs += LinearNode(f"{prefix}.down", f, d).manifest()
            specs += LinearNode(f"{prefix}.up", d, f).manifest()
            specs += [TensorSpec(f"{prefix}.codebook{i}", (c.codebook_size, d),
                                 INIT_CODEBOOK, d) for i in range(c.n_codebooks)]
        return specs

    def rows(self):
        c = self.config
        return [(self.name, "rvq_scan", dict(
            d_model=c.latent_dim, n_codebooks=c.n_codebooks,
            n_entries=c.codebook_size, code_dim=c.code_dim))]


class TransformerNode(_Node):
    def __init__(self, name, hidden, n_heads, ff_dim):
        self.name = name
        self.hidden = hidden
        self.n_heads = n_heads
        self.ff_dim = ff_dim

    def manifest(self):
        d, f, n = self.hidden, self.ff_dim, self.name
        norms = ("ln1", "ln2")
        specs = [TensorSpec(f"{n}.{ln}.gain", (d,), INIT_ONES) for ln in norms]
        specs += [TensorSpec(f"{n}.{ln}.bias", (d,), INIT_ZEROS) for ln in norms]
        linears = [LinearNode(f"{n}.attn.{w}", d, d) for w in ("wq", "wk", "wv", "wo")]
        linears += [LinearNode(f"{n}.ff.w1", d, f), LinearNode(f"{n}.ff.w2", f, d)]
        return specs + [spec for node in linears for spec in node.manifest()]

    def rows(self):
        return [(f"{self.name}.attn", "attention",
                 dict(d_model=self.hidden, n_heads=self.n_heads)),
                (f"{self.name}.ff", "feed_forward",
                 dict(d_model=self.hidden, d_ff=self.ff_dim))]

    def weights(self, store) -> numerics.TransformerLayerWeights:
        return numerics.TransformerLayerWeights(self.n_heads, *self.read(store))

    def stream(self, pieces, store, length):
        # Attention needs every frame, so the layer runs once on the whole
        # frame-rate map.
        yield numerics.transformer_block(_join(pieces), self.weights(store),
                                         name=self.name)


def _join(pieces) -> np.ndarray:
    parts = list(pieces)
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


class _Columns:
    """Columns of a stream of ([S,] C, n) pieces, held while read.

    Pieces are pulled from the source only when a window reaches past the
    held columns, and dropped once no later window reads them.  A window is
    handed out as its parts, views of the held pieces it spans, never
    joined: a conv writes them straight into its float64 window (`_widen`),
    and a residual unit adds each onto the matching columns of its branch.
    """

    def __init__(self, pieces):
        self._source = iter(pieces)
        self._held = collections.deque()
        self._start = 0      # first held column
        self._end = 0        # one past the last held column

    def _hold(self, piece):
        self._held.append(piece)
        self._end += piece.shape[-1]
        return piece

    def sources(self) -> int:  # per piece, 1 unstacked; from the first piece
        if not self._held:
            self._hold(next(self._source))
        return math.prod(self._held[0].shape[:-2])

    def feed(self):
        """The source pieces, each held here as it passes."""
        return map(self._hold, self._source)

    def window(self, lo: int, hi: int, keep: int) -> list[np.ndarray]:
        """Columns [lo, hi) as views of the held pieces they lie in, in
        order; afterwards only pieces that reach past column `keep` stay
        held."""
        while self._end < hi:
            self._hold(next(self._source))
        parts, start = [], self._start
        for piece in self._held:
            end = start + piece.shape[-1]
            if start < hi and end > lo:
                parts.append(piece[..., max(lo - start, 0) : hi - start])
            start = end
        self._drop(keep, hi - lo)
        return parts

    def _drop(self, keep: int, width: int) -> None:
        # Drop the pieces that end by column `keep`.  Of a piece that
        # straddles it (starts before `keep`, ends after it), keep a copy
        # of the tail from `keep` on when that tail is no wider than the
        # window just read, so a halo does not hold a whole piece and the
        # copies stay linear in the length.  A piece that starts at `keep`
        # is held as it is: all of it is still to be read.
        while self._held and self._start + self._held[0].shape[-1] <= keep:
            self._start += self._held.popleft().shape[-1]
        if (self._held and self._start < keep
                and self._start + self._held[0].shape[-1] - keep <= width):
            self._held[0] = self._held[0][..., keep - self._start :].copy()
            self._start = keep


def _stream(nodes, pieces, store, length):
    """Chain nodes over a stream of pieces of a `length`-column signal.

    A node with a `stream` method takes the stream and yields its output
    pieces as soon as their inputs have arrived; any other node runs its
    `apply` on each piece as it passes.  Nothing runs until the result is
    iterated, and no step holds a piece it has passed on.
    """
    for node in nodes:
        if hasattr(node, "stream"):
            pieces = node.stream(pieces, store, length)
            length = node.out_len(length)
        else:
            pieces = map(functools.partial(node.apply, store=store), pieces)
    return pieces


def _write(pieces, out: np.ndarray, stage: str) -> None:
    """Fill `out` with a stream of pieces, checking each is finite."""
    done = 0
    for piece in pieces:
        n = piece.shape[1]
        if piece.shape[0] != out.shape[0] or done + n > out.shape[1]:
            raise ContractViolationError(
                f"{stage} produced a {piece.shape} piece at column {done} "
                f"of a {out.shape} output"
            )
        out[:, done : done + n] = numerics.check_finite(piece, stage)
        done += n
        del piece  # not held while the next piece is computed
    if done != out.shape[1]:
        raise ContractViolationError(
            f"{stage} produced {done} columns, expected {out.shape[1]}"
        )


# ---------------------------------------------------------------------------
# architecture builders


def _residual_unit(prefix: str, channels: int, dilation: int) -> ResidualNode:
    return ResidualNode([
        ConvNode(f"{prefix}.conv1", channels, channels, 7,
                 snake=f"{prefix}.snake1", dilation=dilation,
                 padding=3 * dilation),
        ConvNode(f"{prefix}.conv2", channels, channels, 1,
                 snake=f"{prefix}.snake2"),
    ])


def encoder_nodes(config: ModelConfig) -> list:
    """Conv stack (plus any Transformer stages) mapping waveform to latents."""
    c = config.enc_base_dim
    nodes = [ConvNode("encoder.conv_in", 1, c, 7, padding=3)]
    for bi, s in enumerate(config.strides):
        prefix = f"encoder.block{bi}"
        for ri, d in enumerate(RES_DILATIONS):
            nodes.append(_residual_unit(f"{prefix}.res{ri}", c, d))
        # Downsampling conv: kernel 2s with ceil(s/2) padding keeps the
        # length exactly divisible through the whole cascade.
        nodes.append(ConvNode(f"{prefix}.down", c, 2 * c, 2 * s,
                              snake=f"{prefix}.snake", stride=s,
                              padding=math.ceil(s / 2)))
        c *= 2
    nodes.append(ConvNode("encoder.conv_out", c, config.latent_dim, 3,
                          snake="encoder.snake_out", padding=1))
    for ti in range(config.n_enc_transformer):
        nodes.append(TransformerNode(f"encoder.transformer{ti}",
                                     config.transformer_hidden,
                                     config.n_heads, config.ff_dim))
    return nodes


def decoder_nodes(config: ModelConfig) -> list:
    """Transformer stages (if any) plus the upsampling conv stack."""
    nodes = []
    for ti in range(config.n_dec_transformer):
        nodes.append(TransformerNode(f"decoder.transformer{ti}",
                                     config.transformer_hidden,
                                     config.n_heads, config.ff_dim))
    c = config.dec_base_dim
    nodes.append(ConvNode("decoder.conv_in", config.latent_dim, c, 7, padding=3))
    for bi, s in enumerate(reversed(config.strides)):
        prefix = f"decoder.block{bi}"
        # output_padding 1 for odd strides makes each stage produce exactly
        # stride * L columns, so decode length is T * prod(strides).
        nodes.append(ConvNode(f"{prefix}.up", c, c // 2, 2 * s,
                              snake=f"{prefix}.snake", stride=s,
                              padding=math.ceil(s / 2), transposed=True,
                              output_padding=s % 2))
        c //= 2
        for ri, d in enumerate(RES_DILATIONS):
            nodes.append(_residual_unit(f"{prefix}.res{ri}", c, d))
    nodes.append(ConvNode("decoder.conv_out", c, 1, 7,
                          snake="decoder.snake_out", padding=3))
    return nodes


def extractor_nodes(config: ModelConfig) -> list:
    """Prompt bank, cross-prompt layer, FiLM maps, and refinement stages."""
    f = config.latent_dim
    hidden, heads, ff = config.transformer_hidden, config.n_heads, config.ff_dim
    return [
        ParamNode("extractor.prompts", (4, f), INIT_UNIFORM, f),
        TransformerNode("extractor.cross", hidden, heads, ff),
        FilmNode("extractor.film", f),
        TransformerNode("extractor.refine0", hidden, heads, ff),
        TransformerNode("extractor.refine1", hidden, heads, ff),
    ]


def model_nodes(config: ModelConfig) -> list:
    """Every node of a configuration in signal order: encoder, prompt front
    end (SUNAC only), quantizer, decoder."""
    nodes = list(encoder_nodes(config))
    if config.has_extractor:
        nodes.extend(extractor_nodes(config))
    nodes.append(RvqNode(config))
    nodes.extend(decoder_nodes(config))
    return nodes


def manifest(config: ModelConfig) -> list[TensorSpec]:
    """Ordered tensor manifest for a configuration.

    The order is load-bearing: init_weights draws tensors from a single
    seeded stream in exactly this order.
    """
    instance("config", config, ModelConfig)
    specs = [spec for node in model_nodes(config) for spec in node.manifest()]
    seen = set()
    for spec in specs:
        if spec.name in seen:
            raise ConfigError(f"duplicate tensor name {spec.name}")
        seen.add(spec.name)
    return specs


# ---------------------------------------------------------------------------
# weights


@dataclass
class WeightStore:
    """Named float32 tensors plus the seed they were drawn from.

    A store built from a dict holds its arrays as given.  One made by
    `init_weights` or `load` reads each tensor on first access and keeps
    it (see `_Drawn`); its `tensors` maps names to float32 arrays in
    manifest or file order, reading as it is read, while names, `in` and
    `total_params` read nothing.
    """

    seed: int
    tensors: dict[str, np.ndarray]

    def __post_init__(self):
        # Non-finite values are kept: only a file read refuses them.  A
        # float32 tensor is kept as it is, not copied.
        self.seed = _seed(self.seed)
        if not isinstance(self.tensors, _Drawn):
            self.tensors = {_tensor_name(name): real_array(name, t, np.float32)
                            for name, t
                            in instance("tensors", self.tensors, dict).items()}

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.tensors[name]
        except KeyError:
            raise ContractViolationError(f"weight store has no tensor {name!r}")

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def names(self) -> list[str]:
        return list(self.tensors)

    def _shape(self, name: str) -> tuple[int, ...]:
        if isinstance(self.tensors, _Drawn):
            return self.tensors.table[name][0].shape
        return self[name].shape

    @property
    def total_params(self) -> int:
        return sum(math.prod(self._shape(name)) for name in self.tensors)

    def save(self, path: str) -> None:
        """Write the store atomically, one tensor at a time."""
        with _atomic_open(path) as handle:
            handle.write(WEIGHTS_MAGIC)
            handle.write(struct.pack("<HQ", WEIGHTS_VERSION, self.seed))
            for name, tensor in self.tensors.items():
                encoded = name.encode("utf-8")
                handle.write(struct.pack("<H", len(encoded)))
                handle.write(encoded)
                handle.write(struct.pack(f"<B{tensor.ndim}I", tensor.ndim,
                                         *tensor.shape))
                handle.write(np.ascontiguousarray(tensor, dtype="<f4").data)

    @classmethod
    def load(cls, path: str) -> "WeightStore":
        """Read a store's tensor table and check every value, one block at
        a time; each tensor is read into its own float32 array on first
        access, from the file as it was scanned (see `_read_tensor`)."""
        with open(path, "rb") as handle:
            stat = os.fstat(handle.fileno())
            size = stat.st_size
            magic = handle.read(4)
            if magic != WEIGHTS_MAGIC:
                raise CorruptStreamError(
                    f"{path}: bad magic {magic!r}, expected {WEIGHTS_MAGIC!r}"
                )
            table = {}  # name -> (spec, file offset of its data)
            block = np.empty(_INIT_BLOCK, dtype="<f4")
            try:
                version, seed = _read_struct(handle, "<HQ")
                if version != WEIGHTS_VERSION:
                    raise CorruptStreamError(
                        f"{path}: unsupported weight format version {version}"
                    )
                while handle.tell() < size:
                    (name_len,) = _read_struct(handle, "<H")
                    name = handle.read(name_len).decode("utf-8")
                    (rank,) = _read_struct(handle, "<B")
                    shape = _read_struct(handle, f"<{rank}I")
                    count = int(math.prod(shape))
                    offset = handle.tell()
                    if offset + 4 * count > size:
                        raise CorruptStreamError(
                            f"{path}: truncated tensor {name!r}")
                    if name in table:
                        raise CorruptStreamError(
                            f"{path}: duplicate tensor {name!r}")
                    try:  # numpy's shape rules, with nothing allocated
                        np.broadcast_to(block[0], shape)
                    except ValueError as exc:  # rank above 64, or size overflow
                        raise CorruptStreamError(
                            f"{path}: tensor {name!r} has unusable shape: {exc}"
                        ) from exc
                    for start in range(0, count, _INIT_BLOCK):
                        part = block[: count - start]
                        if handle.readinto(part) != part.nbytes:
                            raise CorruptStreamError(
                                f"{path}: truncated tensor {name!r}")
                        if not np.isfinite(part).all():
                            raise CorruptStreamError(
                                f"{path}: tensor {name!r} holds non-finite "
                                "values")
                    # A loaded tensor has no init rule.
                    table[name] = TensorSpec(name, shape, ""), offset
            except (struct.error, UnicodeDecodeError) as exc:
                raise CorruptStreamError(
                    f"{path}: malformed tensor table: {exc}") from exc
            scanned = path, os.dup(handle.fileno()), (size, stat.st_mtime_ns)
        return cls(seed=seed, tensors=_Drawn(seed, table, scanned))


def _tensor_name(name) -> str:
    # A name `save` can write: a str of at most 65,535 UTF-8 bytes.
    try:
        if isinstance(name, str) and len(name.encode("utf-8")) <= 0xFFFF:
            return name
    except UnicodeEncodeError:  # a lone surrogate
        pass
    raise InvalidArgumentError(f"tensor name {name!r:.60} is not a str of at "
                               "most 65,535 UTF-8 bytes")


def _read_struct(handle, fmt: str) -> tuple:
    # struct.error when the file ends first.
    return struct.unpack(fmt, handle.read(struct.calcsize(fmt)))


def _read_tensor(path: str, fd: int, scanned: tuple, spec: TensorSpec,
                 offset: int) -> np.ndarray:
    # A loaded tensor, read from the descriptor its scan held.  A file put
    # in place by rename, as `save` does, leaves the scanned one as it was;
    # one written in place changes its size or modification time.
    stat = os.fstat(fd)
    if (stat.st_size, stat.st_mtime_ns) != scanned:
        raise CorruptStreamError(f"{path}: changed since it was loaded")
    value = np.empty(spec.shape, dtype="<f4")
    flat = value.reshape(-1).view(np.uint8)
    for start in range(0, flat.size, 4 * _INIT_BLOCK):
        n = min(4 * _INIT_BLOCK, flat.size - start)
        flat[start : start + n] = np.frombuffer(
            os.pread(fd, n, offset + start), np.uint8)
    return value


def init_weights(config: ModelConfig, seed: int) -> WeightStore:
    """A deterministic weight store for a configuration, drawn on read.

    Weights and biases are drawn uniformly from [-a, a] with
    a = sqrt(1 / fan_in); norm gains start at one, norm biases at zero,
    snake slopes at one.  Codebooks draw uniform rows, but entry 0 is the
    zero vector, which guarantees that adding a quantizer layer can
    never increase the residual.  Identical (config, seed) pairs give
    bitwise-identical stores.  The seed must fit the weight file's unsigned
    64-bit field.

    The drawn tensors take one value each, in manifest order, from a single
    PCG64 stream seeded with `seed`.  This walks the whole manifest, so an
    unknown init rule raises ConfigError here, but draws nothing: it
    records each tensor's start in the stream, and the store draws a
    tensor the first time it is read (see `_Drawn`).  So a process that
    only encodes holds only the encoder, extractor and quantizer weights,
    and one that only decodes only the quantizer and decoder; a round trip
    in one process ends up holding every weight.
    """
    seed = _seed(seed)
    table = {}  # name -> (spec, stream position of its first value)
    position = 0
    for spec in manifest(config):
        if spec.init not in (INIT_ONES, INIT_ZEROS, INIT_UNIFORM, INIT_CODEBOOK):
            raise ConfigError(f"unknown init rule {spec.init!r}")
        table[spec.name] = spec, position
        if spec.init in (INIT_UNIFORM, INIT_CODEBOOK):
            position += spec.size
    return WeightStore(seed=seed, tensors=_Drawn(seed, table))


class _Drawn(Mapping):
    """A lazy store's tensors, each read on first access and then kept.

    `table` maps each name to its spec and a position.  A seeded store
    draws a tensor from the stream position of its first value; a loaded
    one, given `scanned` (path, descriptor, size and mtime), reads it from
    the file offset of its data.  The descriptor closes with the mapping.
    A first read takes the lock and looks again before reading, in the
    reading thread, so concurrent first reads read once and get one array;
    later reads take no lock.  `in`, `len` and the names read nothing.
    """

    def __init__(self, seed: int, table: dict, scanned: tuple | None = None):
        self.table = table
        self._seed = seed
        self._scanned = scanned
        self._drawn = {}
        self._lock = threading.Lock()
        if scanned is not None:
            weakref.finalize(self, os.close, scanned[1])

    def __getitem__(self, name: str) -> np.ndarray:
        tensor = self._drawn.get(name)
        if tensor is None:
            with self._lock:
                tensor = self._drawn.get(name)
                if tensor is None:
                    if self._scanned is None:
                        tensor = _draw_tensor(self._seed, *self.table[name])
                    else:
                        tensor = _read_tensor(*self._scanned,
                                              *self.table[name])
                    self._drawn[name] = tensor
        return tensor

    def __contains__(self, name) -> bool:
        return name in self.table

    def __iter__(self):
        return iter(self.table)

    def __len__(self) -> int:
        return len(self.table)

    def __reduce__(self):
        # A lock and a descriptor do not pickle.  A seeded copy draws its
        # own tensors when read; a loaded store's copy holds every tensor.
        if self._scanned is None:
            return _Drawn, (self._seed, self.table)
        return dict, (dict(self.items()),)


def _draw_tensor(seed: int, spec: TensorSpec, start: int) -> np.ndarray:
    # A tensor's values from stream position `start` on, mapped as
    # Generator.uniform(-a, a) maps them: one 64-bit step per value,
    # u = random() in [0, 1), then -a + (2 * a) * u in float64.  The
    # generator jumps to the tensor's own position, so the bits do not
    # depend on which tensors were read before it.
    value = (np.ones if spec.init == INIT_ONES else np.zeros)(
        spec.shape, dtype=np.float32)
    if spec.init not in (INIT_UNIFORM, INIT_CODEBOOK):
        return value
    # A codebook's entry 0 stays zero: its stream values are skipped.
    first = value[0].size if spec.init == INIT_CODEBOOK else 0
    out = value.reshape(-1)[first:]
    bits = np.random.PCG64(seed)
    bits.advance(start + first)
    rng = np.random.Generator(bits)
    bound = math.sqrt(1.0 / max(spec.fan_in, 1))
    scratch = np.empty(min(out.size, _INIT_BLOCK))
    for i in range(0, out.size, _INIT_BLOCK):
        block = scratch[: out.size - i]
        rng.random(out=block)
        block *= 2 * bound
        block += -bound
        out[i : i + _INIT_BLOCK] = block
    return value


def load_weights(path: str, config: ModelConfig) -> WeightStore:
    """Load a weight store and validate it against a config."""
    store = WeightStore.load(path)
    validate_store(config, store)
    return store


def validate_store(config: ModelConfig, store: WeightStore) -> None:
    instance("store", store, WeightStore)
    for spec in manifest(config):
        if spec.name not in store:
            raise ContractViolationError(
                f"weight store is missing tensor {spec.name!r}"
            )
        found = store._shape(spec.name)
        if tuple(found) != spec.shape:
            raise ContractViolationError(
                f"tensor {spec.name!r} has shape {tuple(found)}, "
                f"config expects {spec.shape}"
            )


@dataclass(frozen=True)
class ParamCount:
    total: int
    per_tensor: dict[str, int]


def count_params(config: ModelConfig) -> ParamCount:
    """Per-tensor and total parameter counts, straight from the manifest."""
    per_tensor = {spec.name: spec.size for spec in manifest(config)}
    return ParamCount(total=sum(per_tensor.values()), per_tensor=per_tensor)


# ---------------------------------------------------------------------------
# forward passes


def frames_for_length(config: ModelConfig, n_samples: int) -> int:
    """Token count produced for an input of n_samples (before padding)."""
    n_samples = integer("n_samples", n_samples, 1)
    return -(-n_samples // instance("config", config, ModelConfig).hop)  # ceil


def _require_runnable(config: ModelConfig, op: str) -> None:
    if not instance("config", config, ModelConfig).is_runnable:
        raise InvalidArgumentError(
            f"{config.arch_family} exists for cost analysis only and has no "
            f"runnable {op} path; use DAC, DACT, or SUNAC"
        )


@numerics.forward_stage
def encode(audio: AudioBuffer, config: ModelConfig, store: WeightStore) -> np.ndarray:
    """Encode a waveform into a latent feature map of shape (F, T).

    The input is right-padded with zeros to a multiple of the stride
    product, so T = ceil(len / hop) exactly.  The sample rate must match
    the configuration.
    """
    instance("audio", audio, AudioBuffer)
    _require_runnable(config, "encode")
    if audio.sample_rate != config.sample_rate:
        raise InvalidArgumentError(
            f"audio is {audio.sample_rate} Hz but config expects "
            f"{config.sample_rate} Hz"
        )
    if audio.n_samples < 1:
        raise InvalidArgumentError("cannot encode empty audio")
    validate_store(config, store)
    nodes = encoder_nodes(config)
    n = audio.n_samples
    frames = frames_for_length(config, n)
    # The zero padding to a whole frame arrives as its own last piece, so
    # the waveform is read in place.
    pieces = [audio.samples[None, :]]
    if frames * config.hop > n:
        pieces.append(np.zeros((1, frames * config.hop - n), dtype=np.float32))
    features = np.empty((config.latent_dim, frames), dtype=np.float32)
    _write(_stream(nodes, pieces, store, frames * config.hop),
           features, "codec.encode")
    return features


@numerics.forward_stage
def decode(features: np.ndarray, config: ModelConfig,
           store: WeightStore) -> AudioBuffer | list[AudioBuffer]:
    """Decode an (F, T) latent map to an AudioBuffer, or an (S, F, T) stack
    of maps to a list of them, each with the bits of its own (F, T) call.

    A group of sources (`numerics.stack_groups`) runs up to the first
    upsampling once, on (G, C, n) pieces; from there, where the work is
    bound by activations and a stack ran 1.1x slower, sources go one by
    one.  Output length is exactly T * prod(strides); callers trim to the
    original length themselves when they know it.
    """
    _require_runnable(config, "decode")
    features = real_array("features", features, np.float32)
    shape("decode", "features", features, ("ft", "sft"), {"f": config.latent_dim})
    stack = features if features.ndim == 3 else features[None]
    n_src, _, frames = stack.shape
    if n_src < 1 or frames < 1:
        raise InvalidArgumentError("cannot decode an empty feature map")
    validate_store(config, store)
    nodes = decoder_nodes(config)
    split = 1 + [getattr(n, "transposed", False) for n in nodes].index(True)
    out = np.empty((n_src, 1, frames * config.hop), dtype=np.float32)
    for group in numerics.stack_groups(n_src, frames):
        cut = split if group.stop - group.start > 1 else 0
        head = _join(_stream(nodes[:cut], [stack[group]], store, frames))
        for x, y in zip(head, out[group]):
            _write(_stream(nodes[cut:], [x], store, x.shape[-1]), y,
                   "codec.decode")
    np.tanh(out, out=out)
    audio = [AudioBuffer(y[0], config.sample_rate) for y in out]
    return audio if features.ndim == 3 else audio[0]
