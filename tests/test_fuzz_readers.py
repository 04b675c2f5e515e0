"""Fuzzing of the two binary readers: whatever bytes they are handed,
`unpack_stream` and `WeightStore.load` either succeed or raise a typed
SunacError (which the CLI maps to exit code 3), never a raw exception."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sunac.bitstream import EncodedStream, pack_stream, unpack_stream
from sunac.codec import WeightStore
from sunac.errors import SunacError
from sunac.extractor import PromptType


def _valid_stream() -> bytes:
    codes = np.arange(2 * 3 * 5, dtype=np.int32).reshape(2, 3, 5) % 1024
    return pack_stream(EncodedStream(
        sample_rate=16000, prompt_types=(PromptType.SPEECH, PromptType.MIX),
        codes=codes, original_len=1500, bits_per_code=10))


def _valid_weights(path) -> bytes:
    # Small enough that mutations often land in the tensor table; the zero
    # tensor gives a corrupted rank or shape zero-valued dims to read.
    rng = np.random.default_rng(5)
    WeightStore(seed=7, tensors={
        "w": rng.standard_normal((3, 4)).astype(np.float32),
        "z": np.zeros(256, dtype=np.float32),
        "b": np.ones(2, dtype=np.float32),
    }).save(str(path))
    return path.read_bytes()


@st.composite
def mutations(draw, blob: bytes) -> bytes:
    """Overwrite a few bytes, then maybe append a few more.

    Half the overwrites land in the first 26 bytes, which hold a weight
    file's header and its first table entry; the rest anywhere.
    """
    data = bytearray(blob)
    where = st.one_of(st.integers(0, min(25, len(data) - 1)),
                      st.integers(0, len(data) - 1))
    for _ in range(draw(st.integers(1, 4))):
        data[draw(where)] = draw(st.integers(0, 255))
    return bytes(data) + draw(st.binary(max_size=8))


STREAM = _valid_stream()


@pytest.fixture(scope="module")
def weights_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "weights.suwt"
    return path, _valid_weights(path)


def _load_weights(path, blob: bytes):
    path.write_bytes(blob)
    return WeightStore.load(str(path))


def test_every_truncation_raises_only_typed_errors(weights_file):
    path, valid = weights_file
    for end in range(len(STREAM)):
        with pytest.raises(SunacError):
            unpack_stream(STREAM[:end])
    for end in range(len(valid)):
        try:
            _load_weights(path, valid[:end])
        except SunacError:
            pass


@settings(max_examples=500, deadline=None)
@given(blob=mutations(STREAM))
def test_unpack_stream_raises_only_typed_errors(blob):
    try:
        unpack_stream(blob)
    except SunacError:
        pass


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_weight_load_raises_only_typed_errors(weights_file, data):
    path, valid = weights_file
    try:
        _load_weights(path, data.draw(mutations(valid)))
    except SunacError:
        pass
