"""One array rule for every array a caller passes.

`errors.real_array` decides it at the six places that take an array: the
samples of `AudioBuffer` and `numerics.as_samples` (behind `si_sdr` and
`stft`), the latent maps of `codec.decode` and `rvq.quantize`, and the codes
of `rvq.codes_to_features` and `EncodedStream`.  Integer arrays pass, and
float arrays where the site takes floats; bools, complex numbers, text,
bytes, objects, dates and ragged lists raise `InvalidArgumentError`.  The
sweep below hands arrays of every dtype kind to the public entry points with
warnings as errors: each call returns or raises a `SunacError`.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sunac import codec, numerics, pipeline, rvq
from sunac.assignment import SourceSet, si_sdr
from sunac.audio import AudioBuffer
from sunac.bitstream import EncodedStream
from sunac.errors import InvalidArgumentError, SunacError

pytestmark = pytest.mark.filterwarnings("error")

DTYPES = [np.dtype(d) for d in (
    bool, np.int8, np.int64, np.uint16, np.uint64, np.float16, np.float32,
    np.float64, np.longdouble, np.complex64, np.complex128, "U4", "S4",
    object, "M8[s]", "m8[ms]")]
# 3 is a valid code; 1e39 is past the float32 range and 1e38 is not.
SMALL = [0.0, 0.5, -0.25, 3.0]
VALUES = SMALL + [1e38, -1e38, 1e39, -1e39, math.nan]

# Length of the references the evaluation entry points score against.
N_REF = 8


def _as_dtype(values: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """float64 `values` in `dtype`, as numpy casts them (inf past a float
    type's range, the nearest bound for an integer type)."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        if dtype.kind == "b":
            return values != 0
        if dtype.kind in "iu":
            info = np.iinfo(dtype)
            return np.clip(np.nan_to_num(values), info.min,
                           info.max).astype(dtype)
        if dtype.kind in "Mm":
            return np.nan_to_num(values).clip(-1e9, 1e9).astype(
                np.int64).astype(dtype)
        return values.astype(dtype)


@st.composite
def arrays(draw, valid_shapes):
    """Arrays of every dtype kind, rank 0-4, or of a shape the entry point
    takes, and half of them of small values only, so that valid calls come
    up too."""
    dtype = draw(st.sampled_from(DTYPES))
    pool = draw(st.sampled_from([SMALL, VALUES]))
    shape = draw(st.one_of(
        hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
        valid_shapes))
    size = math.prod(shape)
    values = draw(st.lists(st.sampled_from(pool), min_size=size,
                           max_size=size))
    return _as_dtype(np.array(values, dtype=np.float64).reshape(shape), dtype)


FRAMES = st.integers(1, 2)
AUDIO = st.tuples(st.sampled_from([1, 5, N_REF]))
MAPS = st.one_of(st.tuples(st.just(16), FRAMES),
                 st.tuples(st.integers(1, 2), st.just(16), FRAMES))
CODES = st.tuples(st.integers(1, 4), FRAMES)
STREAMS = st.tuples(st.integers(1, 2), st.integers(1, 4), FRAMES)


def _tone(n=N_REF):
    return np.sin(np.arange(1, n + 1, dtype=np.float32))


def _references():
    buf = AudioBuffer(_tone(), 16000)
    return SourceSet(sources=((buf, "speech"),), mixture=buf)


def _decode_stream(codes, config, store):
    n_src, frames = (codes.shape[0], codes.shape[-1]) if codes.ndim else (1, 1)
    stream = EncodedStream(sample_rate=config.sample_rate,
                           prompt_types=("speech",) * n_src,
                           codes=codes, original_len=frames * config.hop,
                           bits_per_code=config.bits_per_code)
    return pipeline.decode_stream(stream, config, store)


def _buffer(x, config):
    return AudioBuffer(x, config.sample_rate)


# name -> (valid shapes, call(array, config, store))
ENTRY_POINTS = {
    "codec.encode-bare": (AUDIO, lambda x, c, s: codec.encode(x, c, s)),
    "codec.encode": (AUDIO, lambda x, c, s: codec.encode(_buffer(x, c), c, s)),
    "codec.decode": (MAPS, lambda x, c, s: codec.decode(x, c, s)),
    "rvq.quantize": (MAPS, lambda x, c, s: rvq.quantize(
        x, rvq.RvqWeights.from_store(s, c), 2)),
    "rvq.codes_to_features": (CODES, lambda x, c, s: rvq.codes_to_features(
        x, rvq.RvqWeights.from_store(s, c))),
    "decode_stream": (STREAMS, _decode_stream),
    "encode_mixture-bare": (AUDIO, lambda x, c, s: pipeline.encode_mixture(
        x, ("speech",), c, s)),
    "encode_mixture": (AUDIO, lambda x, c, s: pipeline.encode_mixture(
        _buffer(x, c), ("speech", "music"), c, s)),
    "extract_features": (AUDIO, lambda x, c, s: pipeline.extract_features(
        _buffer(x, c), ("speech",), c, s)),
    "evaluate_estimates-direct": (AUDIO, lambda x, c, s:
                                  pipeline.evaluate_estimates(
                                      _references(), [x], "direct")),
    "evaluate_estimates-masked": (AUDIO, lambda x, c, s:
                                  pipeline.evaluate_estimates(
                                      _references(), [x], "masked")),
    "si_sdr": (AUDIO, lambda x, c, s: si_sdr(_tone(x.size or 1), x)),
    "stft": (AUDIO, lambda x, c, s: numerics.stft(x, 16, 4)),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_entry_point_returns_or_raises_typed_errors(name, tiny_config,
                                                    tiny_store):
    shapes, call = ENTRY_POINTS[name]

    @settings(max_examples=60, deadline=None)
    @given(x=arrays(shapes))
    def sweep(x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call(x, tiny_config, tiny_store)
            except SunacError:
                pass

    sweep()


def _map(config, dtype, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(-2, 3, (config.latent_dim, 2)).astype(dtype)


@pytest.mark.parametrize("site", ["decode", "quantize"])
def test_bool_maps_are_refused(site, tiny_config, tiny_store):
    features = _map(tiny_config, bool)
    with pytest.raises(InvalidArgumentError,
                       match="features must be real numbers, got dtype bool"):
        if site == "decode":
            codec.decode(features, tiny_config, tiny_store)
        else:
            rvq.quantize(features, rvq.RvqWeights.from_store(
                tiny_store, tiny_config), 2)


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64])
def test_integer_maps_are_read_as_their_float_values(dtype, tiny_config,
                                                     tiny_store):
    features = _map(tiny_config, dtype)
    as_float = features.astype(np.float32)
    np.testing.assert_array_equal(
        codec.decode(features, tiny_config, tiny_store).samples,
        codec.decode(as_float, tiny_config, tiny_store).samples)
    weights = rvq.RvqWeights.from_store(tiny_store, tiny_config)
    np.testing.assert_array_equal(rvq.quantize(features, weights, 3).codes,
                                  rvq.quantize(as_float, weights, 3).codes)


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint64])
def test_integer_codes_of_any_width_are_accepted(dtype, tiny_config,
                                                 tiny_store):
    codes = np.array([[0, 3, 31], [5, 0, 1]])
    weights = rvq.RvqWeights.from_store(tiny_store, tiny_config)
    np.testing.assert_array_equal(
        rvq.codes_to_features(codes.astype(dtype), weights),
        rvq.codes_to_features(codes, weights))
    stream = EncodedStream(sample_rate=16000, prompt_types=("speech",),
                           codes=codes[None].astype(dtype), original_len=960,
                           bits_per_code=5)
    assert stream.codes.dtype == np.int32
    np.testing.assert_array_equal(stream.codes[0], codes)


def test_list_of_floats_is_valid_audio():
    samples = [0.25, -0.5, 0.125, 0.0, 1.0]
    buf = AudioBuffer(samples, 16000)
    assert buf.samples.dtype == np.float32
    np.testing.assert_array_equal(buf.samples, np.float32(samples))
    assert si_sdr(samples, samples) == si_sdr(buf, buf)
    np.testing.assert_array_equal(numerics.stft(samples, 4, 2),
                                  numerics.stft(buf, 4, 2))


@pytest.mark.parametrize("samples", [
    np.zeros(4, bool), np.zeros(4, np.complex64), np.array(["0.5"]),
    np.array([b"0.5"]), np.zeros(4, object), np.zeros(4, "M8[s]"),
    [[0.5, 0.5], [0.5]], {"samples": [0.5]}, [0.5, 10**400]],
    ids=["bool", "complex", "text", "bytes", "object", "datetime", "ragged",
         "dict", "huge-int"])
@pytest.mark.parametrize("site", ["AudioBuffer", "si_sdr", "stft"])
def test_non_real_audio_is_refused(samples, site):
    call = {"AudioBuffer": lambda: AudioBuffer(samples, 16000),
            "si_sdr": lambda: si_sdr(samples, samples),
            "stft": lambda: numerics.stft(samples, 4, 2)}[site]
    with pytest.raises(InvalidArgumentError,
                       match="samples must be real numbers, got dtype"):
        call()


with np.errstate(over="ignore"):  # inf where longdouble is float64
    PAST_FLOAT64 = np.full(4, 1e300, np.longdouble) * np.longdouble(1e300)


@pytest.mark.parametrize("call", [
    lambda: AudioBuffer(np.full(4, 1e39), 16000),
    lambda: AudioBuffer(PAST_FLOAT64, 16000),
    lambda: si_sdr(np.ones(4), PAST_FLOAT64),
    lambda: numerics.stft(PAST_FLOAT64, 4, 2)],
    ids=["AudioBuffer-float64", "AudioBuffer-longdouble", "si_sdr", "stft"])
def test_audio_past_the_float_range_is_non_finite(call):
    with pytest.raises(InvalidArgumentError,
                       match="audio contains non-finite samples"):
        call()


@pytest.mark.parametrize("codes", [np.zeros((1, 2, 3)),
                                   np.zeros((1, 2, 3), bool)],
                         ids=["float", "bool"])
def test_stream_codes_must_be_integers(codes):
    with pytest.raises(InvalidArgumentError,
                       match="codes must be integers, got dtype"):
        EncodedStream(sample_rate=16000, prompt_types=("speech",),
                      codes=codes, original_len=960, bits_per_code=5)


def test_stream_codes_past_int64_are_out_of_range():
    codes = np.full((1, 1, 3), 2**64 - 1, dtype=np.uint64)
    with pytest.raises(InvalidArgumentError, match="codes outside"):
        EncodedStream(sample_rate=16000, prompt_types=("speech",),
                      codes=codes, original_len=960, bits_per_code=5)


@pytest.mark.parametrize("entry", ["encode", "encode_mixture",
                                   "extract_features", "separate"])
def test_encode_takes_only_an_audio_buffer(entry, tiny_config, tiny_store,
                                           monkeypatch):
    calls = []
    monkeypatch.setattr(codec, "validate_store",
                        lambda *args: calls.append(args))
    samples = _tone(640)
    with pytest.raises(InvalidArgumentError,
                       match="audio must be an AudioBuffer, got ndarray"):
        if entry == "encode":
            codec.encode(samples, tiny_config, tiny_store)
        else:
            getattr(pipeline, entry)(samples, ("speech",), tiny_config,
                                     tiny_store)
    assert not calls
