"""Fuzzing of the readers: whatever bytes or text they are handed,
`unpack_stream`, `WeightStore.load`, `read_wav`, `ModelConfig.from_json`
and `MixtureManifest.from_json` either succeed or raise a typed SunacError
(which the CLI maps to exit code 2 or 3), never a raw exception.

A parsed manifest is not rendered here: memory is not yet bounded as
inputs grow, and a huge `duration_s` asks `generate` for that many
samples (ROADMAP item 3)."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sunac.audio import AudioBuffer, read_wav, write_wav
from sunac.bitstream import EncodedStream, pack_stream, unpack_stream
from sunac.codec import ModelConfig, WeightStore, default_config
from sunac.errors import SunacError
from sunac.extractor import PromptType
from sunac.fixtures import MixtureManifest, make_mixture


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


@pytest.fixture(scope="module")
def wav_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "clip.wav"
    write_wav(str(path), AudioBuffer(np.linspace(-0.5, 0.5, 50), 16000))
    return path, path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_read_wav_raises_only_typed_errors(wav_file, data):
    path, valid = wav_file
    blob = data.draw(mutations(valid))
    path.write_bytes(blob[:data.draw(st.integers(0, len(blob)))])
    try:
        read_wav(str(path))
    except SunacError:
        pass


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    if prefix:
        yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def json_edits(draw, text: str):
    """Replace or delete a few fields of a valid JSON document, or
    overwrite a few of its bytes (which need not stay UTF-8)."""
    if draw(st.booleans()):
        return draw(mutations(text.encode()))
    payload = json.loads(text)
    data = copy.deepcopy(payload)
    for path in draw(st.lists(st.sampled_from(list(_paths(payload))),
                              min_size=1, max_size=3)):
        try:
            parent = data
            for key in path[:-1]:
                parent = parent[key]
            if isinstance(parent, dict) and draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = draw(JSON_VALUES)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed or replaced this path
    return json.dumps(data)


@settings(max_examples=300, deadline=None)
@given(text=json_edits(default_config("SUNAC").to_json()))
def test_config_json_raises_only_typed_errors(text):
    try:
        config = ModelConfig.from_json(text)
    except SunacError:
        return
    # What parses is whole: no float or text reaches an integer field.
    for name, value in vars(config).items():
        if name != "arch_family":
            values = value if name == "strides" else (value,)
            assert all(type(v) is int for v in values), name


@settings(max_examples=300, deadline=None)
@given(text=json_edits(
    make_mixture(["speech", "speech", "music"], seed=3).to_json()))
def test_manifest_json_raises_only_typed_errors(text):
    try:
        MixtureManifest.from_json(text)
    except SunacError:
        pass
