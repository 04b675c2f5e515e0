"""Prompt-conditioned neural audio codec with source-aware bitstreams.

A mixture is encoded once; lightweight prompt conditioning then splits the
shared latents into per-source token streams that one shared residual
quantizer and decoder turn back into audio.  The package also carries the
cost model used to compare this layout against conventional one-pass and
multi-branch codecs, plus fixtures, evaluation, and serialization for the
full loop.  Forward passes only; there is no training code here.
"""

from .errors import (
    ConfigError,
    ContractViolationError,
    CorruptStreamError,
    InvalidArgumentError,
    NumericError,
    SunacError,
)
from .audio import AudioBuffer, pcm16_roundtrip, read_wav, write_wav
from .codec import (
    ARCH_FAMILIES,
    ModelConfig,
    ParamCount,
    WeightStore,
    bitrate_bps,
    count_params,
    decode,
    default_config,
    encode,
    frames_for_length,
    init_weights,
    load_weights,
)
from .extractor import (
    ExtractorWeights,
    PromptBank,
    PromptType,
    extract,
    parse_prompts,
)
from .rvq import QuantizeResult, RvqWeights, codes_to_features, quantize
from .assignment import (
    Assignment,
    SourceSet,
    best_assignment,
    magnitude_mask_reconstruct,
    restricted_permutations,
    si_sdr,
)
from .analysis import (
    ArchSpec,
    LayerSpec,
    MacReport,
    builtin_specs,
    compare_report,
    count_macs,
)
from .fixtures import (
    FixtureSpec,
    MixtureManifest,
    generate,
    load_manifest,
    make_mixture,
    realize,
    save_manifest,
)
from .bitstream import (
    EncodedStream,
    pack_stream,
    read_stream,
    unpack_stream,
    write_stream,
)
from .pipeline import (
    EvalReport,
    decode_stream,
    encode_mixture,
    evaluate_estimates,
    evaluate_manifest,
    separate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SunacError",
    "InvalidArgumentError",
    "ContractViolationError",
    "NumericError",
    "ConfigError",
    "CorruptStreamError",
    # audio
    "AudioBuffer",
    "read_wav",
    "write_wav",
    "pcm16_roundtrip",
    # codec
    "ARCH_FAMILIES",
    "ModelConfig",
    "ParamCount",
    "WeightStore",
    "default_config",
    "bitrate_bps",
    "count_params",
    "init_weights",
    "load_weights",
    "encode",
    "decode",
    "frames_for_length",
    # extractor
    "PromptType",
    "parse_prompts",
    "PromptBank",
    "ExtractorWeights",
    "extract",
    # rvq
    "RvqWeights",
    "QuantizeResult",
    "quantize",
    "codes_to_features",
    # assignment
    "si_sdr",
    "SourceSet",
    "restricted_permutations",
    "Assignment",
    "best_assignment",
    "magnitude_mask_reconstruct",
    # analysis
    "LayerSpec",
    "ArchSpec",
    "MacReport",
    "count_macs",
    "builtin_specs",
    "compare_report",
    # fixtures
    "FixtureSpec",
    "MixtureManifest",
    "generate",
    "make_mixture",
    "realize",
    "save_manifest",
    "load_manifest",
    # bitstream
    "EncodedStream",
    "pack_stream",
    "unpack_stream",
    "write_stream",
    "read_stream",
    # pipeline
    "encode_mixture",
    "decode_stream",
    "separate",
    "evaluate_estimates",
    "evaluate_manifest",
    "EvalReport",
]
