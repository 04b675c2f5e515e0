"""The benchmark's workloads, the op each one repeats, and its output checks.

Every op drives sunac through its public API.  Functions are always reached
through their module (``pipeline.encode_mixture``, ``bitstream.pack_stream``)
so that the traced run can wrap them at that name.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from sunac import assignment, bitstream, fixtures, pipeline
from sunac.bitstream import unpack_stream as unpack_for_check
from sunac.extractor import PromptType

# SUNAC's stride product: one code frame per 320 input samples.
HOP = 320
# magic, version, rate, codebooks, bits, sources, frames, length.
HEADER_BYTES = 28


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a mixture shape and what an op does with it.

    score is "masked" (evaluate_manifest in masked mode against the
    regenerated references), "mixture" (si_sdr of the single decoded source
    against the input mixture) or None (no decode, no score).
    """

    name: str
    sources: tuple[str, ...]
    prompts: tuple[str, ...]
    duration_s: float
    decode: bool
    score: str | None

    @property
    def prompt_types(self) -> tuple[PromptType, ...]:
        return tuple(PromptType(p) for p in self.prompts)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("roundtrip-1s-speech-music", ("speech", "music"),
             ("speech", "music"), 1.0, decode=True, score="masked"),
    Workload("roundtrip-4s-mix", ("speech", "sfx"), ("mix",), 4.0,
             decode=True, score="mixture"),
    Workload("encode-4s-3src", ("speech", "speech", "music"),
             ("speech", "speech", "music"), 4.0, decode=False, score=None),
)}

# Fixed input whose stream and decoded digests every run prints.
CHECK_WORKLOAD = WORKLOADS["roundtrip-1s-speech-music"]
CHECK_SEED = 0


def op_seeds(seed: int):
    """Fixture seeds for successive ops, all derived from the workload seed."""
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(1, 2**31))


@dataclass
class OpResult:
    op_s: float
    encode_s: float
    decode_s: float
    audio_s: float
    n_bytes: int
    codes: np.ndarray
    errors: list[str]
    stream_bytes: bytes = b""
    decoded: tuple[np.ndarray, ...] = ()


def make_input(w: Workload, seed: int):
    manifest = fixtures.make_mixture(w.sources, seed=seed,
                                     duration_s=w.duration_s)
    return manifest, fixtures.realize(manifest).mixture


def run_op(w: Workload, seed: int, config, store) -> OpResult:
    """One closed-loop op; the input is generated before the clock starts."""
    manifest, mixture = make_input(w, seed)
    prompts = w.prompt_types
    back = decoded = None
    scores: list[float] = []
    t0 = time.perf_counter()
    stream = pipeline.encode_mixture(mixture, prompts, config, store)
    t1 = time.perf_counter()
    blob = bitstream.pack_stream(stream)
    t2 = t3 = t1
    if w.decode:
        back = bitstream.unpack_stream(blob)
        t2 = time.perf_counter()
        decoded = pipeline.decode_stream(back, config, store)
        t3 = time.perf_counter()
        if w.score == "masked":
            report = pipeline.evaluate_manifest(
                manifest, [buf for buf, _ in decoded], mode="masked")
            scores = [row.si_sdr_db for row in report.rows]
        elif w.score == "mixture":
            scores = [assignment.si_sdr(mixture, decoded[0][0])]
    t_end = time.perf_counter()
    errors = check_outputs(w, config, mixture, stream, blob, back, decoded,
                           scores)
    return OpResult(
        op_s=t_end - t0, encode_s=t1 - t0, decode_s=t3 - t2,
        audio_s=mixture.duration_s, n_bytes=len(blob), codes=stream.codes,
        errors=errors, stream_bytes=blob,
        decoded=tuple(buf.samples for buf, _ in decoded or ()),
    )


def check_outputs(w, config, mixture, stream, blob, back, decoded, scores):
    """Every contract an op's outputs must meet; returns the violations."""
    errors = []
    n_src = len(w.prompts)
    n_frames = math.ceil(mixture.n_samples / HOP)
    if stream.n_frames != n_frames:
        errors.append(f"{stream.n_frames} frames, expected {n_frames}")
    if stream.n_sources != n_src or stream.prompt_types != w.prompt_types:
        errors.append(f"stream sources {stream.prompt_types} != prompts")
    if stream.n_codebooks != config.n_codebooks:
        errors.append(f"{stream.n_codebooks} codebooks, expected "
                      f"{config.n_codebooks}")
    expected_len = (HEADER_BYTES + n_src
                    + 2 * n_src * config.n_codebooks * n_frames)
    if len(blob) != expected_len:
        errors.append(f"packed {len(blob)} bytes, expected {expected_len}")
    if back is None:  # bound at import, so the traced run never times it
        back = unpack_for_check(blob)
    header = ("sample_rate", "prompt_types", "original_len", "bits_per_code")
    if (any(getattr(back, f) != getattr(stream, f) for f in header)
            or not np.array_equal(back.codes, stream.codes)):
        errors.append("unpack_stream(pack_stream(s)) differs from s")
    if w.decode:
        if len(decoded) != n_src:
            errors.append(f"decoded {len(decoded)} sources, expected {n_src}")
        for i, (buf, ptype) in enumerate(decoded):
            if buf.n_samples != mixture.n_samples:
                errors.append(f"source {i} has {buf.n_samples} samples, "
                              f"expected {mixture.n_samples}")
            if not np.all(np.isfinite(buf.samples)):
                errors.append(f"source {i} is not finite")
            if ptype is not w.prompt_types[i]:
                errors.append(f"source {i} decoded as {ptype}")
    if w.score is not None and (len(scores) != (n_src if w.score == "masked"
                                                else 1)
                                or not np.all(np.isfinite(scores))):
        errors.append(f"bad scores {scores}")
    return errors


@dataclass(frozen=True)
class CheckResult:
    stream_sha256: str
    decoded_sha256: str
    errors: list[str]


def run_check(w: Workload, config, store) -> CheckResult:
    """Digest a fixed input and check that encoding it twice is identical.

    This also warms every code path before the measured phase starts.
    """
    first = run_op(w, CHECK_SEED, config, store)
    errors = list(first.errors)
    _, mixture = make_input(w, CHECK_SEED)
    again = bitstream.pack_stream(
        pipeline.encode_mixture(mixture, w.prompt_types, config, store))
    if again != first.stream_bytes:
        errors.append("encoding the same mixture twice gave different streams")
    decoded = hashlib.sha256()
    for samples in first.decoded:
        decoded.update(samples.astype("<f4").tobytes())
    return CheckResult(
        stream_sha256=hashlib.sha256(first.stream_bytes).hexdigest(),
        decoded_sha256=decoded.hexdigest(),
        errors=errors,
    )
