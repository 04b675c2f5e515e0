"""Multiply-accumulate and parameter accounting for the codec family.

Costs follow the usual conventions: a convolution spends
C_out * C_in * K multiplies per output column, a linear map D_out * D_in
per column, and one attention layer 2 * T^2 * d for scores plus context on
top of 4 * T * d^2 for its projections.  Activations, norms, softmax, and
biases are not counted.  Each layer is tagged either `const` (runs once per
mixture regardless of the source count) or `per_source` (runs once per
decoded source), and flagged by whether its cost grows linearly or
quadratically with the frame count, since attention leaves the linear
regime as inputs get longer.

Each built-in spec is one walk over codec.model_nodes: every node gives
its own counted rows and, through its manifest, its parameters, so the
analyzer cannot drift from the signal path it describes.  A row is `const`
when its name starts with a prefix the family runs once per mixture.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import codec as _codec
from . import numerics
from .errors import ConfigError, integer, samples

__all__ = [
    "TAG_CONST",
    "TAG_PER_SOURCE",
    "LayerSpec",
    "ArchSpec",
    "LayerCost",
    "MacReport",
    "count_macs",
    "builtin_specs",
    "BUILTIN_ORDER",
    "CompareReport",
    "compare_report",
    "format_report_text",
    "report_to_json",
]

TAG_CONST = "const"
TAG_PER_SOURCE = "per_source"

# Largest sample or source count a float holds exactly.
_MAX_COUNT = 2**53

SCALING_LINEAR = "linear"
SCALING_QUADRATIC = "quadratic"

_KINDS = ("conv1d", "transposed_conv1d", "linear", "attention",
          "feed_forward", "film", "rvq_scan")


@dataclass(frozen=True)
class LayerSpec:
    """Shape description of one counted layer.

    Only the fields relevant to `kind` need to be set; count_macs validates
    the rest and tracks channel agreement between consecutive layers.
    """

    name: str
    kind: str
    tag: str
    c_in: int | None = None
    c_out: int | None = None
    kernel: int | None = None
    stride: int = 1
    dilation: int = 1
    padding: int = 0
    output_padding: int = 0
    d_model: int | None = None
    n_heads: int | None = None
    d_ff: int | None = None
    d_in: int | None = None
    d_out: int | None = None
    n_codebooks: int | None = None
    n_entries: int | None = None
    code_dim: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if self.tag not in (TAG_CONST, TAG_PER_SOURCE):
            raise ConfigError(f"unknown tag {self.tag!r}")


@dataclass(frozen=True)
class ArchSpec:
    """An ordered layer list plus the architecture's parameter total."""

    name: str
    layers: tuple[LayerSpec, ...]
    params: int


@dataclass(frozen=True)
class LayerCost:
    name: str
    kind: str
    tag: str
    macs: int
    scaling: str


@dataclass(frozen=True)
class MacReport:
    """Cost of one architecture at a given input duration.

    const_macs covers layers that run once per mixture; per_source_macs
    covers layers that repeat for every requested source.
    """

    arch: str
    params: int
    const_macs: int
    per_source_macs: int
    duration_s: float
    sample_rate: int
    layers: tuple[LayerCost, ...] = field(repr=False)

    def total_macs(self, n_sources: int) -> int:
        n_sources = integer("n_sources", n_sources, 1, _MAX_COUNT)
        return self.const_macs + n_sources * self.per_source_macs

    def to_dict(self, n_sources: int) -> dict:
        """JSON-ready row: totals at `n_sources` plus every layer's cost."""
        return {
            "arch": self.arch,
            "params": self.params,
            "const_macs": self.const_macs,
            "per_source_macs": self.per_source_macs,
            "total_macs": self.total_macs(n_sources),
            "layers": [
                {
                    "name": cost.name,
                    "kind": cost.kind,
                    "tag": cost.tag,
                    "macs": cost.macs,
                    "scaling": cost.scaling,
                }
                for cost in self.layers
            ],
        }


def _check_width(spec: LayerSpec, width: int | None, channels: int) -> None:
    if width != channels:
        raise ConfigError(
            f"layer {spec.name}: expects width {width} but the previous "
            f"layer produced {channels}"
        )


def _layer_cost(spec: LayerSpec, length: int,
                channels: int) -> tuple[int, int, int, str]:
    """Return (macs, new_length, new_channels, scaling) for one layer fed
    `channels` wide at frame count `length`."""
    t = length
    if spec.kind in ("conv1d", "transposed_conv1d"):
        _check_width(spec, spec.c_in, channels)
        out_len = numerics.conv_out_len(
            t, spec.kernel, stride=spec.stride, padding=spec.padding,
            dilation=spec.dilation, transposed=spec.kind == "transposed_conv1d",
            output_padding=spec.output_padding,
        )
        if out_len < 1:
            raise ConfigError(
                f"layer {spec.name}: output length {out_len} is not positive "
                f"at input length {t}"
            )
        per_col = spec.c_out * spec.c_in * spec.kernel
        cols = t if spec.kind == "transposed_conv1d" else out_len
        return per_col * cols, out_len, spec.c_out, SCALING_LINEAR
    if spec.kind == "linear":
        _check_width(spec, spec.d_in, channels)
        return spec.d_out * spec.d_in * t, t, spec.d_out, SCALING_LINEAR
    # Every other kind keeps the width it is fed.
    d = spec.d_model
    _check_width(spec, d, channels)
    if spec.kind == "attention":
        return 4 * t * d * d + 2 * t * t * d, t, d, SCALING_QUADRATIC
    if spec.kind == "feed_forward":
        return 2 * t * d * spec.d_ff, t, d, SCALING_LINEAR
    if spec.kind == "film":
        # Two affine maps on one prompt vector plus the per-frame modulation.
        return 2 * d * d + 2 * d * t, t, d, SCALING_LINEAR
    if spec.kind == "rvq_scan":
        c = spec.code_dim
        scan = spec.n_codebooks * spec.n_entries * c
        projections = 2 * d * c
        return (scan + projections) * t, t, d, SCALING_LINEAR
    raise ConfigError(f"unknown layer kind {spec.kind!r}")


def count_macs(spec: ArchSpec, duration_s: float, sample_rate: int = 16000) -> MacReport:
    """Walk an ArchSpec at a given duration and total its MACs.

    Sequence length starts at round(duration * sample_rate) samples, padded
    up to a multiple of the product of the forward-conv strides as
    `codec.encode` pads its input to whole frames, and is updated by every
    conv layer, so attention stages automatically see the frame count in
    effect where they sit.
    """
    sample_rate = integer("sample rate", sample_rate, 1)
    hop = math.prod(layer.stride for layer in spec.layers
                    if layer.kind == "conv1d")
    length = -(-samples(duration_s, sample_rate, 1, _MAX_COUNT) // hop) * hop
    channels = 1
    costs = []
    const_total = 0
    per_source_total = 0
    for layer in spec.layers:
        macs, length, channels, scaling = _layer_cost(layer, length, channels)
        costs.append(LayerCost(layer.name, layer.kind, layer.tag, macs, scaling))
        if layer.tag == TAG_CONST:
            const_total += macs
        else:
            per_source_total += macs
    return MacReport(
        arch=spec.name,
        params=spec.params,
        const_macs=const_total,
        per_source_macs=per_source_total,
        duration_s=duration_s,
        sample_rate=sample_rate,
        layers=tuple(costs),
    )


# ---------------------------------------------------------------------------
# built-in architecture specs


# Row-name prefixes each family runs once per mixture; every other row
# repeats per source.
_CONST_PREFIXES = {
    "DAC": (),
    "DACT": (),
    "SDCodec": ("encoder.",),
    "SDCodecT": ("encoder.",),
    "SUNAC": ("encoder.", "extractor.cross."),
}


def _arch_spec(name: str, config: _codec.ModelConfig,
               with_decoder: bool = True) -> ArchSpec:
    """Walk the model's nodes in signal order: encoder, the prompt front
    end (cross-prompt layer, FiLM, refinement) when the family has one, the
    quantizer, then the decoder unless `with_decoder` is false.

    The cross-prompt layer is counted at the mixture's frame count; the
    handful of extra prompt tokens it sees is noise at this resolution.
    """
    nodes = _codec.model_nodes(config)
    if not with_decoder:
        del nodes[-len(_codec.decoder_nodes(config)):]
    const = _CONST_PREFIXES[config.arch_family]
    layers = tuple(
        LayerSpec(row, kind, TAG_CONST if row.startswith(const)
                  else TAG_PER_SOURCE, **shape)
        for node in nodes for row, kind, shape in node.rows())
    params = sum(spec.size for node in nodes for spec in node.manifest())
    return ArchSpec(name=name, layers=layers, params=params)


BUILTIN_ORDER = ("DAC", "DACT", "SDCodec", "SDCodecT", "SUNAC",
                 "SUNAC-encoder-only")


def builtin_specs() -> dict[str, ArchSpec]:
    """ArchSpecs for the named architectures, keyed and ordered as reported."""
    specs = {family: _arch_spec(family, _codec.default_config(family))
             for family in _codec.ARCH_FAMILIES}
    specs["SUNAC-encoder-only"] = _arch_spec(
        "SUNAC-encoder-only", _codec.default_config("SUNAC"), with_decoder=False)
    return {name: specs[name] for name in BUILTIN_ORDER}


# ---------------------------------------------------------------------------
# comparison report


@dataclass(frozen=True)
class CompareReport:
    duration_s: float
    n_sources: int
    sample_rate: int
    rows: tuple[MacReport, ...]


def compare_report(duration_s: float = 1.0, n_sources: int = 1,
                   sample_rate: int = 16000) -> CompareReport:
    """Cost table over every built-in spec at one duration and source count."""
    n_sources = integer("n_sources", n_sources, 1, _MAX_COUNT)
    sample_rate = integer("sample rate", sample_rate, 1)
    rows = tuple(
        count_macs(spec, duration_s, sample_rate)
        for spec in builtin_specs().values()
    )
    return CompareReport(duration_s=duration_s, n_sources=n_sources,
                         sample_rate=sample_rate, rows=rows)


def _gmacs(value: int) -> float:
    return value / 1e9


def format_report_text(report: CompareReport) -> str:
    """Fixed-width table: params, const / per-source / total GMACs."""
    header = (
        f"costs at {report.duration_s:g} s, {report.n_sources} source(s), "
        f"{report.sample_rate} Hz"
    )
    lines = [header, ""]
    lines.append(f"{'arch':<20} {'params (M)':>10} {'const (G)':>10} "
                 f"{'per-src (G)':>11} {'total (G)':>10}")
    for row in report.rows:
        total = row.total_macs(report.n_sources)
        lines.append(
            f"{row.arch:<20} {row.params / 1e6:>10.2f} "
            f"{_gmacs(row.const_macs):>10.2f} "
            f"{_gmacs(row.per_source_macs):>11.2f} "
            f"{_gmacs(total):>10.2f}"
        )
    quadratic = sorted({
        cost.name for row in report.rows for cost in row.layers
        if cost.scaling == SCALING_QUADRATIC
    })
    if quadratic:
        lines.append("")
        lines.append(
            "quadratic in frame count: " + ", ".join(quadratic)
        )
    return "\n".join(lines) + "\n"


def report_to_json(report: CompareReport) -> str:
    payload = {
        "duration_s": report.duration_s,
        "n_sources": report.n_sources,
        "sample_rate": report.sample_rate,
        "rows": [row.to_dict(report.n_sources) for row in report.rows],
    }
    return json.dumps(payload, indent=2) + "\n"
