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
holds only the input a later tile still reads.  A pointwise node just
before a conv runs on each window the conv reads, so the conv holds its
input pieces untransformed (in a residual unit, the pieces its skip path
holds anyway); elsewhere it runs on each piece as it passes.  A residual
unit holds its skip pieces until its branch catches up, and a Transformer
layer collects its frame-rate input and runs once.  So the conv stacks
hold tile-sized pieces at any length.  The bits do not depend on how the
pieces arrive: each tile is computed from exactly the input columns a
whole-length call would give it, by the same BLAS products in the same
order, and the pointwise maps and the residual add act on each column
alone.  Pieces may also be (S, C, n) source stacks, as when `decode` takes
an (S, F, T) stack of maps.
"""

from __future__ import annotations

import collections
import functools
import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .audio import AudioBuffer, _atomic_open
from .errors import (
    ConfigError,
    ContractViolationError,
    CorruptStreamError,
    InvalidArgumentError,
    integer,
    real_array,
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
        # Integral values (2.0) are stored as int; 2.5, "2", True, inf or
        # NaN in an integer field is a ConfigError.
        for field in fields(self):
            value = getattr(self, field.name)
            try:
                if field.type == "int":
                    value = integer(field.name, value)
                elif field.name == "strides":
                    value = tuple(integer("strides", s) for s in value)
            except (TypeError, InvalidArgumentError) as exc:
                kind = "integers" if field.name == "strides" else "an integer"
                raise ConfigError(
                    f"{field.name} must be {kind}, got {value!r}"
                ) from exc
            object.__setattr__(self, field.name, value)
        self.validate()

    def validate(self) -> None:
        if self.arch_family not in ARCH_FAMILIES:
            raise ConfigError(
                f"unknown arch family {self.arch_family!r}, "
                f"expected one of {ARCH_FAMILIES}"
            )
        if self.sample_rate <= 0:
            raise ConfigError("sample_rate must be positive")
        if not self.strides or any(s < 1 for s in self.strides):
            raise ConfigError(f"strides must be positive, got {self.strides}")
        if self.sample_rate % self.hop != 0:
            raise ConfigError(
                f"stride product {self.hop} must divide sample rate "
                f"{self.sample_rate} for an integer token rate"
            )
        if self.enc_base_dim < 1 or self.dec_base_dim < 1 or self.latent_dim < 1:
            raise ConfigError("channel dims must be positive")
        if self.dec_base_dim % (2 ** len(self.strides)) != 0:
            raise ConfigError(
                f"dec_base_dim {self.dec_base_dim} must be divisible by "
                f"2^{len(self.strides)} so decoder stages can halve it"
            )
        if self.n_codebooks < 1:
            raise ConfigError("need at least one codebook")
        if self.codebook_size < 2:
            raise ConfigError("codebook needs at least two entries")
        if self.code_dim < 1:
            raise ConfigError("code_dim must be positive")
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

    # -- serialization

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "ModelConfig":
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
    if family not in ARCH_FAMILIES:
        raise ConfigError(
            f"unknown arch family {family!r}, expected one of {ARCH_FAMILIES}"
        )
    wide = dict(enc_base_dim=64, dec_base_dim=1536)
    narrow = dict(enc_base_dim=32, dec_base_dim=768)
    per_family = {
        "DAC": dict(wide, n_enc_transformer=0, n_dec_transformer=0),
        "SDCodec": dict(wide, n_enc_transformer=0, n_dec_transformer=0),
        "DACT": dict(narrow, n_enc_transformer=3, n_dec_transformer=3),
        "SDCodecT": dict(narrow, n_enc_transformer=3, n_dec_transformer=3),
        "SUNAC": dict(narrow, n_enc_transformer=0, n_dec_transformer=3),
    }
    return ModelConfig(arch_family=family, **per_family[family])


def bitrate_bps(config: ModelConfig) -> int:
    """Bits per second on the wire: codebooks x bits per code x token rate."""
    return config.n_codebooks * config.bits_per_code * config.token_rate


# ---------------------------------------------------------------------------
# layer nodes

# Init rules understood by init_weights.
INIT_UNIFORM = "uniform"      # U[-a, a] with a = sqrt(1 / fan_in)
INIT_ONES = "ones"
INIT_ZEROS = "zeros"
INIT_CODEBOOK = "codebook"    # uniform rows, entry 0 pinned to zero
# Most values in one drawn part: init_weights cuts each drawn tensor into
# runs of at most this many values, each with its start in the one seeded
# stream, and draws every part of every tensor in one batch.  Each part
# builds and advances its own generator, so fewer parts start up faster:
# full SUNAC has 217 parts at 2**21 and 415 at 2**18, and a fresh process's
# import and init ran faster at 2**21 in 29 of 40 alternating pairs
# (medians 0.45-0.52 s against 0.47-0.60 s, 2-vCPU x86-64 VM).  No buffer
# of this size is allocated; a part draws through one _INIT_BLOCK block.
_INIT_CHUNK = 2**21
# Most threads init_weights draws on; fewer when the process may run on
# fewer CPUs.  The drawn bits do not depend on the count.
_INIT_WORKERS = 4
# Values a worker draws, scales and casts in one pass (256 KiB of float64,
# so each pass reads what the last one left in cache).
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
    def __init__(self, name, c_in, c_out, kernel, *, stride=1, dilation=1,
                 padding=0, transposed=False, output_padding=0):
        self.name = name
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
        return [
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

    def stream(self, pieces, store, length, before=()):
        # One conv1d call per tile of the whole-length layer, each on its
        # own input window; a window's pieces stay held only while a later
        # tile still reads them.  The pointwise functions `before` run on
        # each window as it is read, so the held pieces are the ones given.
        conv = self._conv()
        weight, bias = self.read(store)
        held = _Columns(pieces)
        tiles = numerics.conv_tiles(length, self.c_out, self.c_in, self.kernel,
                                    sources=held.sources(), **conv)
        keeps = [lo for _, _, lo, _ in tiles[1:]] + [length]
        for tile, keep in zip(tiles, keeps):
            yield numerics.conv1d(
                _apply(before, held.window(tile[2], tile[3], keep)), weight,
                bias, tile=tile, **conv)


class SnakeNode(_Node):
    def __init__(self, name, channels):
        self.name = name
        self.channels = channels

    def manifest(self):
        return [TensorSpec(f"{self.name}.alpha", (self.channels,), INIT_ONES)]

    def apply(self, x, store):
        return numerics.snake(x, *self.read(store))


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
        # harmless), without the float64 copy.
        skip = _Columns(pieces)
        return map(lambda y: np.add(skip.take(y.shape[-1]), y),
                   _stream(self.children, skip.feed(), store, length))

    def apply(self, x, store):
        """The unit over a whole ([S,] C, L) signal, as one piece."""
        return _join(self.stream([x], store, x.shape[-1]))


class TanhNode(_Node):
    def manifest(self):
        return []

    def apply(self, x, store):
        return np.tanh(x)


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
    a slice of one held piece, or a copy joined from several.
    """

    def __init__(self, pieces):
        self._source = iter(pieces)
        self._held = collections.deque()
        self._start = 0      # first held column
        self._end = 0        # one past the last held column
        self._taken = 0      # columns handed out by take()

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

    def window(self, lo: int, hi: int, keep: int) -> np.ndarray:
        """Columns [lo, hi) as one array; afterwards only pieces that reach
        past column `keep` stay held."""
        while self._end < hi:
            self._hold(next(self._source))
        parts, start = [], self._start
        for piece in self._held:
            end = start + piece.shape[-1]
            if start < hi and end > lo:
                parts.append(piece[..., max(lo - start, 0) : hi - start])
            start = end
        self._drop(keep, hi - lo)
        return _join(parts)

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

    def take(self, n: int) -> np.ndarray:
        """The next n columns, which are then dropped."""
        lo, self._taken = self._taken, self._taken + n
        return self.window(lo, self._taken, self._taken)


def _stream(nodes, pieces, store, length):
    """Chain nodes over a stream of pieces of a `length`-column signal.

    A node with a `stream` method takes the stream and yields its output
    pieces as soon as their inputs have arrived; any other node is
    pointwise.  A pointwise node's `apply` runs on each window that a
    following conv reads, so the conv holds the pieces it was given rather
    than a transformed copy of them (in a residual unit the skip path holds
    the same pieces); it runs again on the few halo columns that two
    windows share.  Before any other node it runs on each piece as it
    passes.  Nothing runs until the result is iterated, and no step holds a
    piece it has passed on.
    """
    pointwise = []
    for node in nodes:
        if not hasattr(node, "stream"):
            pointwise.append(functools.partial(node.apply, store=store))
            continue
        if isinstance(node, ConvNode):
            pieces = node.stream(pieces, store, length, pointwise)
        else:
            pieces = node.stream(_map(pointwise, pieces), store, length)
        pointwise = []
        length = node.out_len(length)
    return _map(pointwise, pieces)


def _apply(fns, x):
    for fn in fns:
        x = fn(x)
    return x


def _map(fns, pieces):
    return map(functools.partial(_apply, fns), pieces) if fns else pieces


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
        SnakeNode(f"{prefix}.snake1", channels),
        ConvNode(f"{prefix}.conv1", channels, channels, 7,
                 dilation=dilation, padding=3 * dilation),
        SnakeNode(f"{prefix}.snake2", channels),
        ConvNode(f"{prefix}.conv2", channels, channels, 1),
    ])


def encoder_nodes(config: ModelConfig) -> list:
    """Conv stack (plus any Transformer stages) mapping waveform to latents."""
    c = config.enc_base_dim
    nodes = [ConvNode("encoder.conv_in", 1, c, 7, padding=3)]
    for bi, s in enumerate(config.strides):
        prefix = f"encoder.block{bi}"
        for ri, d in enumerate(RES_DILATIONS):
            nodes.append(_residual_unit(f"{prefix}.res{ri}", c, d))
        nodes.append(SnakeNode(f"{prefix}.snake", c))
        # Downsampling conv: kernel 2s with ceil(s/2) padding keeps the
        # length exactly divisible through the whole cascade.
        nodes.append(ConvNode(f"{prefix}.down", c, 2 * c, 2 * s,
                              stride=s, padding=math.ceil(s / 2)))
        c *= 2
    nodes.append(SnakeNode("encoder.snake_out", c))
    nodes.append(ConvNode("encoder.conv_out", c, config.latent_dim, 3, padding=1))
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
        nodes.append(SnakeNode(f"{prefix}.snake", c))
        # output_padding 1 for odd strides makes each stage produce exactly
        # stride * L columns, so decode length is T * prod(strides).
        nodes.append(ConvNode(f"{prefix}.up", c, c // 2, 2 * s, stride=s,
                              padding=math.ceil(s / 2), transposed=True,
                              output_padding=s % 2))
        c //= 2
        for ri, d in enumerate(RES_DILATIONS):
            nodes.append(_residual_unit(f"{prefix}.res{ri}", c, d))
    nodes.append(SnakeNode("decoder.snake_out", c))
    nodes.append(ConvNode("decoder.conv_out", c, 1, 7, padding=3))
    nodes.append(TanhNode())
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
    """Named float32 tensors plus the seed they were drawn from."""

    seed: int
    tensors: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.tensors[name]
        except KeyError:
            raise ContractViolationError(f"weight store has no tensor {name!r}")

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def names(self) -> list[str]:
        return list(self.tensors)

    @property
    def total_params(self) -> int:
        return sum(int(t.size) for t in self.tensors.values())

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
        """Read a store, each tensor straight into its own float32 array."""
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            magic = handle.read(4)
            if magic != WEIGHTS_MAGIC:
                raise CorruptStreamError(
                    f"{path}: bad magic {magic!r}, expected {WEIGHTS_MAGIC!r}"
                )
            tensors: dict[str, np.ndarray] = {}
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
                    if handle.tell() + 4 * count > size:
                        raise CorruptStreamError(
                            f"{path}: truncated tensor {name!r}")
                    if name in tensors:
                        raise CorruptStreamError(
                            f"{path}: duplicate tensor {name!r}")
                    try:
                        data = np.empty(count, dtype="<f4").reshape(shape)
                    except ValueError as exc:  # rank above 64, or size overflow
                        raise CorruptStreamError(
                            f"{path}: tensor {name!r} has unusable shape: {exc}"
                        ) from exc
                    if handle.readinto(data.reshape(-1)) != data.nbytes:
                        raise CorruptStreamError(
                            f"{path}: truncated tensor {name!r}")
                    if not np.all(np.isfinite(data)):
                        raise CorruptStreamError(
                            f"{path}: tensor {name!r} holds non-finite values"
                        )
                    tensors[name] = data
            except (struct.error, UnicodeDecodeError) as exc:
                raise CorruptStreamError(
                    f"{path}: malformed tensor table: {exc}") from exc
        return cls(seed=seed, tensors=tensors)


def _read_struct(handle, fmt: str) -> tuple:
    # struct.error when the file ends first.
    return struct.unpack(fmt, handle.read(struct.calcsize(fmt)))


def init_weights(config: ModelConfig, seed: int) -> WeightStore:
    """Materialize a deterministic weight store for a configuration.

    Weights and biases are drawn uniformly from [-a, a] with
    a = sqrt(1 / fan_in); norm gains start at one, norm biases at zero,
    snake slopes at one.  Codebooks draw uniform rows, but entry 0 is the
    zero vector, which guarantees that adding a quantizer layer can
    never increase the residual.  Identical (config, seed) pairs give
    bitwise-identical stores.  The seed must fit the weight file's unsigned
    64-bit field.

    The drawn tensors take one value each, in manifest order, from a single
    PCG64 stream seeded with `seed`.  Every drawn tensor is cut into parts
    of at most _INIT_CHUNK values, and all parts of all tensors are drawn
    in one batch on a small thread pool; a part's generator jumps ahead to
    the part's own position in the stream, so every value is the one a
    single sequential generator would give it, whatever the worker count
    and timing.  The pool is shut down before this returns.
    """
    seed = _seed(seed)
    tensors: dict[str, np.ndarray] = {}
    parts = []  # (stream position, bound, output slice)
    position = 0
    for spec in manifest(config):
        if spec.init == INIT_ONES:
            value = np.ones(spec.shape, dtype=np.float32)
        elif spec.init == INIT_ZEROS:
            value = np.zeros(spec.shape, dtype=np.float32)
        elif spec.init in (INIT_UNIFORM, INIT_CODEBOOK):
            bound = math.sqrt(1.0 / max(spec.fan_in, 1))
            value = np.zeros(spec.shape, dtype=np.float32)
            flat = value.reshape(-1)
            # A codebook's entry 0 stays zero: its stream values are skipped.
            first = value[0].size if spec.init == INIT_CODEBOOK else 0
            parts += [(position + a, bound, flat[a : a + _INIT_CHUNK])
                      for a in range(first, flat.size, _INIT_CHUNK)]
            position += flat.size
        else:
            raise ConfigError(f"unknown init rule {spec.init!r}")
        tensors[spec.name] = value
    with ThreadPoolExecutor(max_workers=_init_workers()) as pool:
        futures = [pool.submit(_draw_part, seed, *part) for part in parts]
        for future in futures:
            future.result()
    return WeightStore(seed=seed, tensors=tensors)


def _init_workers() -> int:
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(_INIT_WORKERS, cpus)


def _draw_part(seed, skip, bound, out):
    # Values skip, skip + 1, ... of the stream, mapped as
    # Generator.uniform(-bound, bound) maps them: one 64-bit step per value,
    # u = random() in [0, 1), then -bound + (2 * bound) * u in float64.
    bits = np.random.PCG64(seed)
    bits.advance(skip)
    rng = np.random.Generator(bits)
    scratch = np.empty(min(out.size, _INIT_BLOCK))
    for start in range(0, out.size, _INIT_BLOCK):
        block = scratch[: out.size - start]
        rng.random(out=block)
        block *= 2 * bound
        block += -bound
        out[start : start + _INIT_BLOCK] = block


def load_weights(path: str, config: ModelConfig) -> WeightStore:
    """Load a weight store and validate it against a config."""
    store = WeightStore.load(path)
    validate_store(config, store)
    return store


def validate_store(config: ModelConfig, store: WeightStore) -> None:
    for spec in manifest(config):
        if spec.name not in store:
            raise ContractViolationError(
                f"weight store is missing tensor {spec.name!r}"
            )
        found = store[spec.name].shape
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
    return -(-integer("n_samples", n_samples, 1) // config.hop)  # ceil


def _require_runnable(config: ModelConfig, op: str) -> None:
    if not config.is_runnable:
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
    if not isinstance(audio, AudioBuffer):
        raise InvalidArgumentError(
            f"audio must be an AudioBuffer, got {type(audio).__name__}")
    _require_runnable(config, "encode")
    if audio.sample_rate != config.sample_rate:
        raise InvalidArgumentError(
            f"audio is {audio.sample_rate} Hz but config expects "
            f"{config.sample_rate} Hz"
        )
    if audio.n_samples < 1:
        raise InvalidArgumentError("cannot encode empty audio")
    validate_store(config, store)
    n = audio.n_samples
    frames = frames_for_length(config, n)
    # The zero padding to a whole frame arrives as its own last piece, so
    # the waveform is read in place.
    pieces = [audio.samples[None, :]]
    if frames * config.hop > n:
        pieces.append(np.zeros((1, frames * config.hop - n), dtype=np.float32))
    features = np.empty((config.latent_dim, frames), dtype=np.float32)
    _write(_stream(encoder_nodes(config), pieces, store, frames * config.hop),
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
    stack = features if features.ndim == 3 else features[None]
    if features.ndim not in (2, 3) or stack.shape[1] != config.latent_dim:
        raise ContractViolationError(
            f"expected ({config.latent_dim}, T) features or an "
            f"(S, {config.latent_dim}, T) stack, got {features.shape}"
        )
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
    audio = [AudioBuffer(y[0], config.sample_rate) for y in out]
    return audio if features.ndim == 3 else audio[0]
