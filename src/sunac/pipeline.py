"""End-to-end paths: mixture to stream, stream to sources, and scoring.

The codec, extractor, and quantizer modules each handle one stage; this
module strings them together the way the command line and the demos use
them, and owns the evaluation protocol: references are regenerated from a
mixture manifest and pushed through the same 16-bit quantization that
estimate files went through, so both sides of a comparison saw identical
storage loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codec, rvq
from .assignment import (
    Assignment,
    SourceSet,
    best_assignment,
    magnitude_mask_reconstruct,
    si_sdr,
)
from .audio import AudioBuffer, pcm16_roundtrip
from .bitstream import EncodedStream
from .errors import InvalidArgumentError, instance, integer, sequence
from .extractor import ExtractorWeights, PromptBank, PromptType, extract
from .fixtures import MixtureManifest, realize

__all__ = [
    "extract_features",
    "encode_mixture",
    "decode_stream",
    "separate",
    "EVAL_MODES",
    "EvalRow",
    "EvalReport",
    "evaluate_estimates",
    "evaluate_manifest",
]


def _require_prompted(config: codec.ModelConfig) -> None:
    if not instance("config", config, codec.ModelConfig).has_extractor:
        raise InvalidArgumentError(
            f"{config.arch_family} has no prompt conditioning; "
            "prompted encoding needs a SUNAC configuration"
        )


def extract_features(
    audio: AudioBuffer,
    prompts,
    config: codec.ModelConfig,
    store: codec.WeightStore,
) -> list[np.ndarray]:
    """Encode a mixture once and return one refined (F, T) feature map per
    prompt, in prompt order, before quantization."""
    _require_prompted(config)
    prompts = PromptType.parse_all("prompts", prompts)
    features = codec.encode(audio, config, store)
    return extract(features, prompts, PromptBank.from_store(store),
                   ExtractorWeights.from_store(store, config))


def encode_mixture(
    audio: AudioBuffer,
    prompts,
    config: codec.ModelConfig,
    store: codec.WeightStore,
    n_active: int | None = None,
) -> EncodedStream:
    """Encode a mixture into one code stream per prompted source.

    n_active selects how many quantizer layers are spent per source, which
    is the bitrate knob; by default all configured codebooks are used.
    """
    _require_prompted(config)
    prompts = PromptType.parse_all("prompts", prompts)
    if n_active is None:
        n_active = config.n_codebooks
    n_active = integer("n_active", n_active, 1, config.n_codebooks)
    per_source = extract_features(audio, prompts, config, store)
    quantizer = rvq.RvqWeights.from_store(store, config)
    codes = np.stack([rvq.quantize(fmap, quantizer, n_active).codes
                      for fmap in per_source])
    return EncodedStream(
        sample_rate=config.sample_rate,
        prompt_types=prompts,
        codes=codes,
        original_len=audio.n_samples,
        bits_per_code=config.bits_per_code,
    )


def decode_stream(
    stream: EncodedStream,
    config: codec.ModelConfig,
    store: codec.WeightStore,
) -> list[tuple[AudioBuffer, PromptType]]:
    """Decode every source in a stream in one pass, trimmed to length."""
    instance("stream", stream, EncodedStream)
    codec._require_runnable(config, "decode")
    if stream.sample_rate != config.sample_rate:
        raise InvalidArgumentError(
            f"stream is {stream.sample_rate} Hz but config expects "
            f"{config.sample_rate} Hz"
        )
    if stream.bits_per_code != config.bits_per_code:
        raise InvalidArgumentError(
            f"stream uses {stream.bits_per_code}-bit codes but config books "
            f"hold {config.bits_per_code} bits"
        )
    if stream.n_codebooks > config.n_codebooks:
        raise InvalidArgumentError(
            f"stream carries {stream.n_codebooks} codebooks but config has "
            f"only {config.n_codebooks}"
        )
    expected_frames = codec.frames_for_length(config, stream.original_len)
    if stream.n_frames != expected_frames:
        raise InvalidArgumentError(
            f"stream holds {stream.n_frames} frames but its declared length "
            f"of {stream.original_len} samples implies {expected_frames}"
        )
    quantizer = rvq.RvqWeights.from_store(store, config)
    features = np.stack([rvq.codes_to_features(codes, quantizer)
                         for codes in stream.codes])
    decoded = codec.decode(features, config, store)
    return [(AudioBuffer(buf.samples[: stream.original_len], buf.sample_rate),
             ptype) for buf, ptype in zip(decoded, stream.prompt_types)]


def separate(
    audio: AudioBuffer,
    prompts,
    config: codec.ModelConfig,
    store: codec.WeightStore,
    n_active: int | None = None,
) -> list[tuple[AudioBuffer, PromptType]]:
    """Prompted encode and decode in one call, no serialization step."""
    stream = encode_mixture(audio, prompts, config, store, n_active)
    return decode_stream(stream, config, store)


# ---------------------------------------------------------------------------
# evaluation

EVAL_MODES = ("direct", "masked")


@dataclass(frozen=True)
class EvalRow:
    """Score of one reference against its assigned estimate."""

    ref_index: int
    prompt_type: PromptType
    estimate_index: int
    si_sdr_db: float


@dataclass(frozen=True)
class EvalReport:
    mode: str
    rows: tuple[EvalRow, ...]
    assignment: Assignment

    @property
    def mean_si_sdr_db(self) -> float:
        return float(np.mean([row.si_sdr_db for row in self.rows]))

    def lines(self) -> list[str]:
        perm = ",".join(str(j) for j in self.assignment.permutation)
        out = [f"mode={self.mode} n_sources={len(self.rows)} permutation={perm}"]
        for row in self.rows:
            out.append(
                f"ref{row.ref_index} type={row.prompt_type.value} "
                f"est{row.estimate_index} si_sdr_db={row.si_sdr_db:.2f}"
            )
        out.append(f"mean_si_sdr_db={self.mean_si_sdr_db:.2f}")
        return out


def evaluate_estimates(
    references: SourceSet,
    estimates,
    mode: str = "direct",
    mixture: AudioBuffer | None = None,
) -> EvalReport:
    """Score estimates against references under type-restricted assignment.

    In masked mode each estimate is first re-synthesized through a
    magnitude mask on the mixture, which bounds the score by what a
    mask-based system could achieve from the same mixture.
    """
    instance("references", references, SourceSet)
    if mixture is not None:
        instance("mixture", mixture, AudioBuffer)
    if mode not in EVAL_MODES:
        raise InvalidArgumentError(
            f"unknown eval mode {mode!r}, expected one of {EVAL_MODES}"
        )
    estimates = sequence("estimates", estimates)
    if mode == "masked":
        mixture = mixture if mixture is not None else references.mixture
        if mixture is None:
            raise InvalidArgumentError("masked evaluation needs the mixture")
        estimates = [magnitude_mask_reconstruct(
                         mixture, est if isinstance(est, AudioBuffer)
                         else AudioBuffer(est, mixture.sample_rate))
                     for est in estimates]
    assignment = best_assignment(references, estimates)
    rows = tuple(
        EvalRow(
            ref_index=i,
            prompt_type=references.types[i],
            estimate_index=j,
            si_sdr_db=si_sdr(references.sources[i][0], estimates[j]),
        )
        for i, j in enumerate(assignment.permutation)
    )
    return EvalReport(mode=mode, rows=rows, assignment=assignment)


def evaluate_manifest(
    manifest: MixtureManifest,
    estimates,
    mode: str = "direct",
) -> EvalReport:
    """Regenerate references from a manifest and score estimate buffers.

    References and the mixture are passed through 16-bit quantization
    before scoring because estimates reach the evaluator through PCM16
    files; comparing quantized to unquantized would smear every score by
    the storage noise floor.
    """
    instance("manifest", manifest, MixtureManifest)
    rendered = realize(manifest)
    quantized_refs = tuple(
        (AudioBuffer(pcm16_roundtrip(buf.samples), buf.sample_rate), ptype)
        for buf, ptype in rendered.sources
    )
    # No mixture inside the SourceSet: quantizing each source separately
    # breaks exact additivity, which the mixture invariant would reject.
    references = SourceSet(sources=quantized_refs)
    mixture = AudioBuffer(
        pcm16_roundtrip(rendered.mixture.samples), rendered.mixture.sample_rate
    )
    return evaluate_estimates(references, estimates, mode, mixture=mixture)
