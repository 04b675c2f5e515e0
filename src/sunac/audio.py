"""Mono waveform container and 16-bit PCM WAV I/O."""

from __future__ import annotations

import contextlib
import os
import tempfile
import wave
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, integer
from .numerics import as_samples

__all__ = ["AudioBuffer", "read_wav", "write_wav", "pcm16_roundtrip"]


@dataclass(frozen=True, eq=False)
class AudioBuffer:
    """A finite mono signal with its sample rate.

    Samples are stored as contiguous float32 whatever real dtype was passed
    in; construction fails on samples that are not real or not finite, or a
    rate that is not a positive integer.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.ascontiguousarray(
            as_samples(self.samples, np.float32)))
        object.__setattr__(self, "sample_rate",
                           integer("sample_rate", self.sample_rate, 1))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate


@contextlib.contextmanager
def _atomic_open(path: str):
    # Write-then-rename so a crashed run never leaves a half-written file:
    # the caller writes to the yielded handle of a temporary file next to
    # `path`, which replaces `path` only once the block has finished.
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    with _atomic_open(path) as handle:
        handle.write(payload)


def read_wav(path: str) -> AudioBuffer:
    """Read a 16-bit PCM mono WAV file.

    Anything else (stereo, 8/24-bit, compressed, or not a WAV at all) raises
    InvalidArgumentError with a diagnostic naming the offending property.
    """
    try:
        with wave.open(path, "rb") as handle:
            n_channels = handle.getnchannels()
            sampwidth = handle.getsampwidth()
            rate = handle.getframerate()
            n_frames = handle.getnframes()
            raw = handle.readframes(n_frames)
    except (wave.Error, EOFError, RuntimeError) as exc:
        # wave raises a bare RuntimeError for a chunk size it cannot seek.
        raise InvalidArgumentError(f"not a readable WAV file: {path}: {exc}") from exc
    if n_channels != 1:
        raise InvalidArgumentError(
            f"{path}: expected mono audio, got {n_channels} channels"
        )
    if sampwidth != 2:
        raise InvalidArgumentError(
            f"{path}: expected 16-bit PCM, got {8 * sampwidth}-bit"
        )
    if len(raw) % 2:
        raise InvalidArgumentError(
            f"{path}: data chunk holds an odd byte count, {len(raw)}"
        )
    ints = np.frombuffer(raw, dtype="<i2")
    return AudioBuffer(ints.astype(np.float32) / 32768.0, rate)


def write_wav(path: str, buffer: AudioBuffer) -> None:
    """Write an AudioBuffer as 16-bit PCM mono WAV, atomically."""
    ints = _float_to_pcm16(buffer.samples)
    import io

    sink = io.BytesIO()
    with wave.open(sink, "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(buffer.sample_rate)
        handle.writeframes(ints.tobytes())
    _atomic_write_bytes(path, sink.getvalue())


def _float_to_pcm16(samples: np.ndarray) -> np.ndarray:
    # Symmetric lattice: quantize to multiples of 1/32768, clamp the one
    # unrepresentable level (+1.0).  Makes write(read(f)) the identity.
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    ints = np.round(clipped * 32768.0)
    return np.minimum(ints, 32767.0).astype("<i2")


def pcm16_roundtrip(samples: np.ndarray) -> np.ndarray:
    """Quantize float samples exactly as a WAV write/read cycle would.

    Evaluation regenerates reference signals in float; estimates arrive
    through 16-bit files.  Pushing references through the same quantizer
    keeps the comparison like-with-like.  `samples` is read as `as_samples`
    reads audio: a finite 1-D array of real numbers.
    """
    return _float_to_pcm16(as_samples(samples)).astype(np.float32) / 32768.0
