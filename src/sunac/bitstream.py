"""Serialized code stream for prompted encodes.

Layout, all little-endian:

    magic   4 bytes  b"SNAC"
    u16     format version
    u32     sample rate in Hz
    u16     codebooks per source
    u16     bits per code
    u16     number of sources
    u32     frames per source
    u64     original waveform length in samples (before padding)
    u8[n_sources]   prompt tag per source, in stream order
    u16[n_sources * codebooks * frames]  codes, frame fastest, then
                                         codebook, then source

Codes are stored as u16, so codebooks are capped at 65536 entries; the
default 1024-entry books use 10 of those bits.  Readers reject wrong
magic, unknown versions, truncated payloads, trailing bytes, unknown
prompt tags, and codes outside the declared range, all as
CorruptStreamError, so a failed decode can always be blamed on the file.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .audio import _atomic_write_bytes
from .errors import CorruptStreamError, InvalidArgumentError, integer, real_array
from .extractor import PromptType

__all__ = [
    "STREAM_MAGIC",
    "STREAM_VERSION",
    "EncodedStream",
    "pack_stream",
    "unpack_stream",
    "write_stream",
    "read_stream",
]

STREAM_MAGIC = b"SNAC"
STREAM_VERSION = 1

_HEADER = struct.Struct("<4sHIHHHIQ")


@dataclass(frozen=True)
class EncodedStream:
    """Decoded-header view of one stream: codes plus enough context to
    reconstruct audio without the encoder present."""

    sample_rate: int
    prompt_types: tuple[PromptType, ...]
    codes: np.ndarray  # (n_sources, n_codebooks, n_frames) int32
    original_len: int
    bits_per_code: int

    def __post_init__(self):
        codes = real_array("codes", self.codes, np.int64)
        if codes.ndim != 3:
            raise InvalidArgumentError(
                f"codes must be (sources, codebooks, frames), got {codes.shape}"
            )
        # Every count and header value must fit its field of _HEADER, so
        # that any stream that constructs also packs, and unpacks to itself.
        for name, size, top in zip(("sources", "codebooks", "frames"),
                                   codes.shape, (0xFFFF, 0xFFFF, 0xFFFFFFFF)):
            integer(name, size, 1, top)
        object.__setattr__(self, "codes", codes.astype(np.int32))
        object.__setattr__(self, "prompt_types", tuple(
            PromptType.parse(p) for p in self.prompt_types))
        if len(self.prompt_types) != codes.shape[0]:
            raise InvalidArgumentError(
                f"{len(self.prompt_types)} prompt types for "
                f"{codes.shape[0]} coded sources"
            )
        for name, top in (("sample_rate", 0xFFFFFFFF),
                          ("original_len", 0xFFFFFFFFFFFFFFFF),
                          ("bits_per_code", 16)):
            object.__setattr__(self, name,
                               integer(name, getattr(self, name), 1, top))
        limit = 1 << self.bits_per_code
        if codes.min() < 0 or codes.max() >= limit:
            raise InvalidArgumentError(
                f"codes outside [0, {limit}) for {self.bits_per_code}-bit books"
            )

    @property
    def n_sources(self) -> int:
        return self.codes.shape[0]

    @property
    def n_codebooks(self) -> int:
        return self.codes.shape[1]

    @property
    def n_frames(self) -> int:
        return self.codes.shape[2]


def pack_stream(stream: EncodedStream) -> bytes:
    header = _HEADER.pack(
        STREAM_MAGIC,
        STREAM_VERSION,
        stream.sample_rate,
        stream.n_codebooks,
        stream.bits_per_code,
        stream.n_sources,
        stream.n_frames,
        stream.original_len,
    )
    tags = bytes(ptype.wire_tag for ptype in stream.prompt_types)
    body = stream.codes.astype("<u2").tobytes()
    return header + tags + body


def unpack_stream(blob: bytes) -> EncodedStream:
    if len(blob) < _HEADER.size:
        raise CorruptStreamError(
            f"stream is {len(blob)} bytes, shorter than the {_HEADER.size}-byte header"
        )
    (magic, version, sample_rate, n_codebooks, bits_per_code, n_sources,
     n_frames, original_len) = _HEADER.unpack_from(blob)
    if magic != STREAM_MAGIC:
        raise CorruptStreamError(
            f"bad magic {magic!r}, expected {STREAM_MAGIC!r}"
        )
    if version != STREAM_VERSION:
        raise CorruptStreamError(
            f"unsupported stream version {version}, this reader handles "
            f"{STREAM_VERSION}"
        )
    if n_sources < 1 or n_codebooks < 1 or n_frames < 1:
        raise CorruptStreamError("stream declares an empty code tensor")
    expected = _HEADER.size + n_sources + 2 * n_sources * n_codebooks * n_frames
    if len(blob) < expected:
        raise CorruptStreamError(
            f"stream truncated: {len(blob)} bytes, header implies {expected}"
        )
    if len(blob) > expected:
        raise CorruptStreamError(
            f"stream has {len(blob) - expected} trailing bytes"
        )
    offset = _HEADER.size
    try:
        prompt_types = tuple(
            PromptType.from_wire_tag(tag)
            for tag in blob[offset:offset + n_sources]
        )
    except InvalidArgumentError as exc:
        raise CorruptStreamError(str(exc)) from exc
    offset += n_sources
    codes = np.frombuffer(blob, dtype="<u2", offset=offset)
    codes = codes.reshape(n_sources, n_codebooks, n_frames)
    try:
        return EncodedStream(
            sample_rate=sample_rate,
            prompt_types=prompt_types,
            codes=codes,
            original_len=original_len,
            bits_per_code=bits_per_code,
        )
    except InvalidArgumentError as exc:
        raise CorruptStreamError(str(exc)) from exc


def write_stream(stream: EncodedStream, path) -> None:
    _atomic_write_bytes(path, pack_stream(stream))


def read_stream(path) -> EncodedStream:
    with open(path, "rb") as fh:
        return unpack_stream(fh.read())
