"""Residual vector quantization with shared down/up projections.

Feature columns are projected to a small code space, then quantized by a
stack of codebooks: each layer picks the entry nearest its incoming
residual (Euclidean, lowest index on ties) and passes the remainder on.
Distances accumulate in float64 so the argmin is reproducible.  Entry 0 of
every codebook is pinned to the zero vector at init, so a layer can always
choose "add nothing" and residual norms never increase with depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import ModelConfig, RvqNode, WeightStore
from .errors import (InvalidArgumentError, instance, integer, real_array, shape,
                     weight_fields)
from .numerics import check_finite, forward_stage

__all__ = [
    "RvqWeights",
    "QuantizeResult",
    "quantize",
    "codes_to_features",
]


@dataclass(frozen=True)
class RvqWeights:
    """Projections and codebooks of one quantizer module.

    down_w/down_b map features (F) to the code space (D); up_w/up_b map
    back.  codebooks holds one (n_entries, D) array per layer; all layers
    share the same entry count.
    """

    down_w: np.ndarray
    down_b: np.ndarray
    up_w: np.ndarray
    up_b: np.ndarray
    codebooks: tuple[np.ndarray, ...]

    def __post_init__(self):
        weight_fields(self, "df d fd f +ed")

    @property
    def n_layers(self) -> int:
        return len(self.codebooks)

    @property
    def n_entries(self) -> int:
        return self.codebooks[0].shape[0]

    @property
    def code_dim(self) -> int:
        return self.codebooks[0].shape[1]

    @property
    def feature_dim(self) -> int:
        return self.down_w.shape[1]

    @classmethod
    def from_store(cls, store: WeightStore, config: ModelConfig) -> "RvqWeights":
        instance("store", store, WeightStore)
        node = RvqNode(config)
        down_w, down_b, up_w, up_b, *codebooks = node.read(store)
        return cls(down_w, down_b, up_w, up_b, tuple(codebooks))


@dataclass(frozen=True)
class QuantizeResult:
    """Outcome of quantizing one feature map.

    codes is (n_active, T) int32; residual_norms[i] is the Frobenius norm of
    the code-space residual after layer i.  quantized, the (F, T)
    reconstruction through the up projection, is built by codes_to_features
    each time it is read, so the two paths agree bitwise by construction.
    """

    codes: np.ndarray
    residual_norms: np.ndarray
    weights: RvqWeights = field(repr=False, compare=False)

    @property
    def quantized(self) -> np.ndarray:
        return codes_to_features(self.codes, self.weights)


@forward_stage
def quantize(features: np.ndarray, weights: RvqWeights, n_active: int) -> QuantizeResult:
    """Quantize an (F, T) feature map with the first n_active layers: a
    greedy layer-by-layer nearest-entry walk in code space, with per-layer
    residual norms in float64."""
    features = real_array("features", features, np.float32)
    shape("quantize", "features", features, "ft", {"f": weights.feature_dim})
    if features.shape[1] < 1:
        raise InvalidArgumentError("feature map has no frames")
    n_active = integer("n_active", n_active, 1, weights.n_layers)
    residual = (weights.down_w.astype(np.float64) @ features.astype(np.float64)
                + weights.down_b.astype(np.float64)[:, None])
    check_finite(residual, "rvq.down projection")
    t = residual.shape[1]
    codes = np.zeros((n_active, t), dtype=np.int32)
    norms = np.zeros(n_active)
    for layer in range(n_active):
        entries = weights.codebooks[layer].astype(np.float64)
        # ||r - e||^2 expanded as (|e|^2 - 2 e.r) + |r|^2, the two adds in
        # place on the product; the argmin ties break toward the lowest
        # index, which np.argmin guarantees.
        d2 = 2.0 * entries @ residual
        np.subtract(np.sum(entries * entries, axis=1)[:, None], d2, out=d2)
        d2 += np.sum(residual * residual, axis=0)
        picked = np.argmin(d2, axis=0)
        codes[layer] = picked.astype(np.int32)
        residual -= entries[picked].T
        check_finite(residual, f"rvq.codebook{layer}")
        norms[layer] = np.sqrt(np.sum(residual * residual))
    return QuantizeResult(codes=codes, residual_norms=norms, weights=weights)


@forward_stage
def codes_to_features(codes: np.ndarray, weights: RvqWeights) -> np.ndarray:
    """Rebuild an (F, T) feature map from code indices.

    Sums the selected entries of the first `codes.shape[0]` codebooks in
    float64 and sends the total through the up projection.
    """
    codes = real_array("codes", codes)
    shape("codes_to_features", "codes", codes, "lt", {})
    if codes.shape[1] == 0:
        raise InvalidArgumentError("codes have no frames")
    n_layers = integer("n_active", codes.shape[0], 1, weights.n_layers)
    if codes.min() < 0 or codes.max() >= weights.n_entries:
        raise InvalidArgumentError(
            f"code indices must be in [0, {weights.n_entries}), "
            f"got range [{codes.min()}, {codes.max()}]"
        )
    total = np.zeros((weights.code_dim, codes.shape[1]))
    for layer in range(n_layers):
        total += weights.codebooks[layer].astype(np.float64)[codes[layer]].T
    up_w = weights.up_w.astype(np.float64)
    out = up_w @ total + weights.up_b.astype(np.float64)[:, None]
    return check_finite(out, "rvq.up projection").astype(np.float32)
