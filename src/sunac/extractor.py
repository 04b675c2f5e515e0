"""Prompt-driven source extraction on top of the shared encoder.

A mixture is encoded once; a bank of four learned prompt vectors (one per
source type) steers what each decoding branch should pull out of it.  The
prompt vectors are prepended to the latent sequence and transformed jointly
with it, so the n-th transformed prompt has seen the whole mixture and its
own position.  Each transformed prompt then modulates the transformed
mixture through a FiLM map with a residual connection, and two further
Transformer layers refine the modulated map.  The FiLM maps and refinement
layers are shared across prompts, so each runs once over the stack of all
prompts' maps, with the bits one call per prompt gives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .codec import ModelConfig, WeightStore, extractor_nodes
from .errors import ContractViolationError, InvalidArgumentError
from .numerics import (
    TransformerLayerWeights,
    check_finite,
    forward_stage,
    transformer_block,
)

__all__ = [
    "PromptType",
    "parse_prompts",
    "PromptBank",
    "FilmWeights",
    "ExtractorWeights",
    "cross_prompt",
    "film",
    "extract",
]


class PromptType(enum.Enum):
    """Source types a prompt can request.

    MIX asks for the mixture itself, which makes plain coding a special
    case of extraction.  Enum order fixes both the prompt bank row and the
    wire tag, so it must not change.
    """

    SPEECH = "speech"
    MUSIC = "music"
    SFX = "sfx"
    MIX = "mix"

    @property
    def wire_tag(self) -> int:
        return _WIRE_ORDER.index(self)

    @classmethod
    def from_wire_tag(cls, tag: int) -> "PromptType":
        if not 0 <= tag < len(_WIRE_ORDER):
            raise InvalidArgumentError(f"unknown prompt tag {tag}")
        return _WIRE_ORDER[tag]

    @classmethod
    def parse(cls, value) -> "PromptType":
        """Return a member as is; look anything else up as a type name."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            valid = ", ".join(p.value for p in cls)
            raise InvalidArgumentError(
                f"unknown prompt type {value!r}, expected one of: {valid}"
            ) from None


_WIRE_ORDER = tuple(PromptType)


def parse_prompts(text: str) -> tuple[PromptType, ...]:
    """Parse a comma-separated prompt list like "speech,speech,music"."""
    if not isinstance(text, str):
        raise InvalidArgumentError(f"prompt list must be text, got {text!r}")
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise InvalidArgumentError("prompt list is empty")
    return tuple(PromptType.parse(p) for p in parts)


@dataclass(frozen=True)
class PromptBank:
    """Learned prompt vectors, one row per PromptType in wire order."""

    vectors: np.ndarray  # (4, F) float32

    def __post_init__(self):
        arr = np.asarray(self.vectors, dtype=np.float32)
        if arr.ndim != 2 or arr.shape[0] != len(_WIRE_ORDER):
            raise ContractViolationError(
                f"prompt bank must be ({len(_WIRE_ORDER)}, F), got {arr.shape}"
            )
        object.__setattr__(self, "vectors", arr)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def vector_for(self, prompt: PromptType) -> np.ndarray:
        return self.vectors[prompt.wire_tag]

    @classmethod
    def from_store(cls, store: WeightStore) -> "PromptBank":
        return cls(store["extractor.prompts"])


@dataclass(frozen=True)
class FilmWeights:
    scale_w: np.ndarray
    scale_b: np.ndarray
    shift_w: np.ndarray
    shift_b: np.ndarray

    @classmethod
    def from_store(cls, store: WeightStore) -> "FilmWeights":
        return cls(
            scale_w=store["extractor.film.scale.weight"],
            scale_b=store["extractor.film.scale.bias"],
            shift_w=store["extractor.film.shift.weight"],
            shift_b=store["extractor.film.shift.bias"],
        )


@dataclass(frozen=True)
class ExtractorWeights:
    """All extraction parameters: one cross layer, one FiLM, two refiners.

    There is deliberately a single FilmWeights and a single refine tuple;
    every prompt runs through the same objects.
    """

    cross: TransformerLayerWeights
    film: FilmWeights
    refine: tuple[TransformerLayerWeights, ...]

    @classmethod
    def from_store(cls, store: WeightStore, config: ModelConfig) -> "ExtractorWeights":
        _, cross, _, *refine = extractor_nodes(config)
        return cls(cross=cross.weights(store), film=FilmWeights.from_store(store),
                   refine=tuple(node.weights(store) for node in refine))


@forward_stage
def cross_prompt(
    features: np.ndarray,
    prompts: tuple[PromptType, ...],
    bank: PromptBank,
    layer: TransformerLayerWeights,
) -> tuple[np.ndarray, np.ndarray]:
    """Jointly transform prompt vectors and mixture latents.

    The N prompt vectors are prepended to the latent sequence at positions
    0..N-1 and a single Transformer layer runs over the combined sequence;
    the first N output columns are split back off.  Rotary position coding
    means two copies of the same prompt at different positions come out
    different, which is what lets duplicated source types separate.

    Returns:
        (transformed_features (F, T), transformed_prompts (F, N)).
    """
    features = np.asarray(features, dtype=np.float32)
    if len(prompts) < 1:
        raise InvalidArgumentError("need at least one prompt")
    if features.ndim != 2 or features.shape[0] != bank.dim:
        raise ContractViolationError(
            f"features {features.shape} do not match prompt dim {bank.dim}"
        )
    columns = np.stack([bank.vector_for(p) for p in prompts], axis=1)
    seq = np.concatenate([columns, features], axis=1)
    out = transformer_block(seq, layer, name="extractor.cross")
    n = len(prompts)
    return out[:, n:], out[:, :n]


@forward_stage
def film(
    x: np.ndarray,
    prompt_column: np.ndarray,
    weights: FilmWeights,
) -> np.ndarray:
    """Feature-wise modulation with a residual path.

    out = x + f(p) * x + h(p), where f and h are affine maps of the
    transformed prompt column p, broadcast over time.  With f and h both
    identically zero this is exactly the identity.  (F, N) prompt columns
    give an (N, F, T) stack, each weight widened once for all of them.
    """
    x = np.asarray(x, dtype=np.float32)
    p = np.asarray(prompt_column, dtype=np.float64)
    if x.ndim != 2 or p.ndim not in (1, 2) or p.shape[0] != x.shape[0]:
        raise ContractViolationError(
            f"prompt columns {p.shape} do not match feature map {x.shape}"
        )
    if p.ndim == 2 and p.shape[1] < 1:
        raise InvalidArgumentError("FiLM needs at least one prompt column")
    columns = np.ascontiguousarray(p.reshape(p.shape[0], -1).T)
    scale = _per_column(weights.scale_w, columns) + weights.scale_b
    shift = _per_column(weights.shift_w, columns) + weights.shift_b
    x64 = x.astype(np.float64)
    out = np.empty((len(columns), *x.shape), dtype=np.float32)
    modulated = np.empty_like(x64)
    for n in range(len(columns)):
        # (x + scale * x) + shift in one scratch buffer; the last add
        # writes the float32 map.
        np.multiply(scale[n][:, None], x64, out=modulated)
        np.add(x64, modulated, out=modulated)
        np.add(modulated, shift[n][:, None], out=out[n])
    return check_finite(out if p.ndim == 2 else out[0], "extractor.film")


def _per_column(weight: np.ndarray, columns: np.ndarray) -> np.ndarray:
    w64 = weight.astype(np.float64)
    return np.stack([w64 @ column for column in columns])


def extract(
    features: np.ndarray,
    prompts: tuple[PromptType, ...],
    bank: PromptBank,
    weights: ExtractorWeights,
) -> list[np.ndarray]:
    """Produce one refined feature map per prompt from shared mixture latents.

    Runs cross_prompt once, then FiLM and each shared refinement layer
    once, on the stack of all prompts' maps.  Output order matches the
    prompt order.
    """
    x_shared, p_shared = cross_prompt(features, prompts, bank, weights.cross)
    stack = film(x_shared, p_shared, weights.film)
    for i, layer in enumerate(weights.refine):
        stack = transformer_block(stack, layer, name=f"extractor.refine{i}")
    return list(stack)
