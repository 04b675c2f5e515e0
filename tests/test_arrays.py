"""One array rule for every array a caller passes.

`errors.real_array` decides it at every place that takes an array: the
samples of `AudioBuffer` and `numerics.as_samples` (behind `si_sdr`, `stft`
and `audio.pcm16_roundtrip`), the latent maps of `codec.decode`,
`rvq.quantize` and `extractor.cross_prompt`, the vectors of
`extractor.PromptBank`, the codes of `rvq.codes_to_features` and
`EncodedStream`, and the arrays of the public kernels `numerics.conv1d`,
`snake`, `layer_norm`, `gelu`, `erf`, `rope_rotate`, `transformer_block`
and `istft`, and `extractor.film`.  Integer arrays pass, and float arrays
where the site takes floats; bools, complex numbers, text, bytes, objects,
dates and ragged lists raise `InvalidArgumentError`.  The weight holders
(`TransformerLayerWeights`, `RvqWeights`, `FilmWeights`, `PromptBank`) read
every array field through it as well, by way of `errors.weight_fields`.
`errors.shape` checks ranks and sizes, for the holders and every kernel:
a conv bias must hold one entry per output channel, a FiLM map be as wide
as its weights.  The sweep below hands arrays of every dtype kind to the
public entry points with warnings as errors: each call returns or raises a
`SunacError`, and every public name of the kernel modules that takes an
array is in it.  The entry points that take an object whole (an
`AudioBuffer`, `EncodedStream`, stream bytes, `SourceSet` or
`MixtureManifest`) refuse anything else, through `errors.instance`.
"""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sunac import assignment, bitstream, codec, extractor, numerics, pipeline, rvq
from sunac.assignment import (SourceSet, best_assignment,
                              magnitude_mask_reconstruct, si_sdr)
from sunac.audio import AudioBuffer, pcm16_roundtrip
from sunac.bitstream import EncodedStream
from sunac.errors import (ContractViolationError, InvalidArgumentError,
                          NumericError, SunacError)
from sunac.extractor import (ExtractorWeights, FilmWeights, PromptBank,
                             PromptType, cross_prompt, extract, film)

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
BANKS = st.tuples(st.just(4), st.just(16))
STREAMS = st.tuples(st.integers(1, 2), st.integers(1, 4), FRAMES)
# Two-channel signals, alone or stacked, for the conv and snake kernels.
SIGNALS = st.one_of(st.tuples(st.just(2), st.integers(1, 5)),
                    st.tuples(st.integers(1, 2), st.just(2),
                              st.integers(1, 5)))
# Four-feature vectors and maps for layer_norm; per-head vectors of two
# tokens, alone or stacked, for rope_rotate; 16-point spectrograms.
NORMED = st.one_of(st.tuples(st.just(4)), st.tuples(st.just(4), FRAMES))
HEADS = st.one_of(st.tuples(st.just(2), FRAMES, st.sampled_from([2, 4])),
                  st.tuples(FRAMES, st.just(2), FRAMES, st.just(2)))
SPECTRA = st.tuples(st.just(9), FRAMES)


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


def _layer(config, store):
    return ExtractorWeights.from_store(store, config).cross


def _rvq(config, store, **fields):
    return dataclasses.replace(rvq.RvqWeights.from_store(store, config),
                               **fields)


def _film(store, **fields):
    return dataclasses.replace(FilmWeights.from_store(store), **fields)


def _cross_prompt(features, config, store):
    return cross_prompt(features, (PromptType.SPEECH,),
                        PromptBank.from_store(store),
                        ExtractorWeights.from_store(store, config).cross)


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
    "pcm16_roundtrip": (AUDIO, lambda x, c, s: pcm16_roundtrip(x)),
    "PromptBank": (BANKS, lambda x, c, s: PromptBank(x)),
    "cross_prompt": (MAPS, _cross_prompt),
    "transformer_block": (MAPS, lambda x, c, s: numerics.transformer_block(
        x, ExtractorWeights.from_store(s, c).cross)),
    "film": (MAPS, lambda x, c, s: film(x, np.ones((16, 2)),
                                        FilmWeights.from_store(s))),
    "conv1d": (SIGNALS, lambda x, c, s: numerics.conv1d(
        x, np.ones((3, 2, 2)), np.ones(3))),
    "snake": (SIGNALS, lambda x, c, s: numerics.snake(x, np.ones(2))),
    "conv1d-bias": (st.tuples(st.just(3)), lambda x, c, s: numerics.conv1d(
        np.ones((2, 5)), np.ones((3, 2, 2)), x)),
    "TransformerLayerWeights": (st.just((16, 16)), lambda x, c, s:
                                numerics.transformer_block(
                                    np.ones((16, 2)), dataclasses.replace(
                                        _layer(c, s), wq=x))),
    "RvqWeights": (st.just((32, 4)), lambda x, c, s: rvq.quantize(
        np.ones((16, 2)), _rvq(c, s, codebooks=(x,)), 1)),
    "FilmWeights": (st.just((16, 16)), lambda x, c, s: film(
        np.ones((16, 2)), np.ones(16), _film(s, scale_w=x))),
    "film-width": (st.tuples(st.just(8), FRAMES), lambda x, c, s: film(
        x, np.ones(8), FilmWeights.from_store(s))),
    "extract": (MAPS, lambda x, c, s: extract(
        x, ("speech",), PromptBank.from_store(s),
        ExtractorWeights.from_store(s, c))),
    "layer_norm": (NORMED, lambda x, c, s: numerics.layer_norm(
        x, np.ones(4), np.zeros(4))),
    "rope_rotate": (HEADS, lambda x, c, s: numerics.rope_rotate(
        x, np.arange(2))),
    "gelu": (AUDIO, lambda x, c, s: numerics.gelu(x)),
    "erf": (AUDIO, lambda x, c, s: numerics.erf(x)),
    "istft": (SPECTRA, lambda x, c, s: numerics.istft(x, 16, 4, 8)),
    "magnitude_mask_reconstruct": (AUDIO, lambda x, c, s:
                                   magnitude_mask_reconstruct(
                                       AudioBuffer(_tone(), 16000),
                                       AudioBuffer(x, 16000))),
    "best_assignment": (AUDIO, lambda x, c, s: best_assignment(
        _references(), [x])),
}

# The public names of the kernel modules that take no array of their own,
# and why the sweep leaves them out.
NOT_SWEPT = {
    "conv_out_len": "takes sizes",
    "conv_tiles": "takes sizes",
    "stack_groups": "takes counts",
    "PromptType": "an enum of source types",
    "parse_prompts": "takes text",
    "ExtractorWeights": "holds weight holders, each swept on its own",
    "QuantizeResult": "the record rvq.quantize returns",
    "SI_SDR_CLAMP_DB": "a constant",
    "SourceSet": "takes AudioBuffers (see WRONG_TYPES)",
    "restricted_permutations": "takes prompt types",
    "Assignment": "the record best_assignment returns",
}


def test_every_public_kernel_is_swept():
    swept = {name.split("-")[0].rsplit(".")[-1] for name in ENTRY_POINTS}
    public = set()
    for module in (numerics, extractor, rvq, assignment):
        public.update(module.__all__)
    assert public - swept - set(NOT_SWEPT) == set()
    assert set(NOT_SWEPT) <= public - swept


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
@pytest.mark.parametrize("site", ["AudioBuffer", "si_sdr", "stft",
                                  "pcm16_roundtrip"])
def test_non_real_audio_is_refused(samples, site):
    call = {"AudioBuffer": lambda: AudioBuffer(samples, 16000),
            "si_sdr": lambda: si_sdr(samples, samples),
            "stft": lambda: numerics.stft(samples, 4, 2),
            "pcm16_roundtrip": lambda: pcm16_roundtrip(samples)}[site]
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


@pytest.mark.parametrize("samples, error, message", [
    (np.zeros((2, 3)), ContractViolationError, "expected 1-D audio"),
    ([0.5, math.nan], InvalidArgumentError, "non-finite samples")],
    ids=["2-D", "NaN"])
def test_pcm16_roundtrip_takes_one_finite_signal(samples, error, message):
    with pytest.raises(error, match=message):
        pcm16_roundtrip(samples)


@pytest.mark.parametrize("dtype", [np.complex64, bool, "U4"])
def test_prompt_bank_takes_real_vectors(dtype):
    with pytest.raises(InvalidArgumentError,
                       match="prompt vectors must be real numbers, got dtype"):
        PromptBank(np.zeros((4, 16), dtype))


def test_integer_prompt_vectors_are_read_as_floats():
    bank = PromptBank(np.arange(64, dtype=np.int16).reshape(4, 16))
    assert bank.vectors.dtype == np.float32
    np.testing.assert_array_equal(bank.vectors,
                                  np.arange(64, dtype=np.float32).reshape(4, 16))


def test_cross_prompt_takes_real_features(tiny_config, tiny_store):
    with pytest.raises(InvalidArgumentError,
                       match="features must be real numbers, got dtype"):
        _cross_prompt(_map(tiny_config, np.complex64), tiny_config, tiny_store)


def _kernels(config, store):
    """Each public kernel as call(**arrays), with valid arrays for it."""
    layer = ExtractorWeights.from_store(store, config).cross
    weights = FilmWeights.from_store(store)
    maps = np.ones((config.latent_dim, 3))
    return {
        "conv1d": (numerics.conv1d, dict(x=np.ones((2, 5)),
                                         weight=np.ones((3, 2, 2)),
                                         bias=np.ones(3))),
        "snake": (numerics.snake, dict(x=np.ones((2, 5)), alpha=np.ones(2))),
        "transformer_block": (
            lambda x: numerics.transformer_block(x, layer), dict(x=maps)),
        "film": (lambda x, prompt_column: film(x, prompt_column, weights),
                 dict(x=maps, prompt_column=maps[:, :2])),
        "layer_norm": (numerics.layer_norm, dict(
            x=np.ones((4, 3)), gain=np.ones(4), bias=np.zeros(4))),
        "rope_rotate": (numerics.rope_rotate, dict(
            x=np.ones((3, 2, 4)), positions=np.arange(3))),
        "gelu": (numerics.gelu, dict(x=np.ones(3))),
        "erf": (numerics.erf, dict(x=np.ones(3))),
    }


# (kernel, argument, the name its message gives)
KERNEL_ARRAYS = [
    ("conv1d", "x", "x"), ("conv1d", "weight", "weight"),
    ("conv1d", "bias", "bias"), ("snake", "x", "x"),
    ("snake", "alpha", "alpha"), ("transformer_block", "x", "x"),
    ("film", "x", "x"), ("film", "prompt_column", "prompt columns"),
    ("layer_norm", "x", "x"), ("layer_norm", "gain", "gain"),
    ("layer_norm", "bias", "bias"), ("rope_rotate", "x", "x"),
    ("rope_rotate", "positions", "positions"), ("gelu", "x", "x"),
    ("erf", "x", "x")]


@pytest.mark.parametrize("dtype", [np.complex64, bool, "U4"])
@pytest.mark.parametrize("kernel, argument, name", KERNEL_ARRAYS,
                         ids=[f"{k}-{a}" for k, a, _ in KERNEL_ARRAYS])
def test_kernels_take_real_arrays(kernel, argument, name, dtype, tiny_config,
                                  tiny_store):
    call, arrays = _kernels(tiny_config, tiny_store)[kernel]
    call(**arrays)
    bad = np.zeros(arrays[argument].shape, dtype)
    with pytest.raises(InvalidArgumentError,
                       match=f"{name} must be real numbers, got dtype"):
        call(**{**arrays, argument: bad})


@pytest.mark.parametrize("bias", [np.ones(7), np.ones((3, 1)), np.ones(1),
                                  np.float64(1.0)],
                         ids=["(7,)", "(3, 1)", "(1,)", "scalar"])
@pytest.mark.parametrize("transposed", [False, True])
def test_conv_bias_has_one_entry_per_output_channel(bias, transposed):
    with pytest.raises(ContractViolationError, match=r"wants a \(3,\) bias"):
        numerics.conv1d(np.ones((2, 5)), np.ones((3, 2, 2)), bias,
                        transposed=transposed)


def _film_of_width(width):
    return FilmWeights(np.zeros((width, width)), np.zeros(width),
                       np.zeros((width, width)), np.zeros(width))


# Shapes that reached numpy before the kernels checked them with
# errors.shape: (call, the kernel and argument its message names).
SHAPE_GAPS = {
    "film-width": (lambda: film(np.ones((8, 2)), np.ones(8),
                                _film_of_width(16)), "film wants a"),
    "layer_norm-gain": (lambda: numerics.layer_norm(
        np.ones((4, 3)), np.ones(5), np.zeros(4)), "layer_norm wants a"),
    "rope_rotate-rank": (lambda: numerics.rope_rotate(
        np.ones((3, 4)), np.arange(3)), "rope_rotate wants a"),
    "rope_rotate-positions": (lambda: numerics.rope_rotate(
        np.ones((3, 2, 4)), np.arange(5)), "rope_rotate wants a"),
}


@pytest.mark.parametrize("gap", list(SHAPE_GAPS))
def test_kernels_check_shapes_before_numpy_does(gap):
    call, message = SHAPE_GAPS[gap]
    with pytest.raises(ContractViolationError, match=message):
        call()


@pytest.mark.parametrize("width", [8, 16])
def test_film_runs_at_the_width_of_its_weights(width):
    out = film(np.ones((width, 2)), np.ones((width, 3)), _film_of_width(width))
    np.testing.assert_array_equal(out, np.ones((3, width, 2)))


@pytest.mark.parametrize("call", [
    lambda: numerics.layer_norm([np.inf, 1.0], np.ones(2), np.zeros(2)),
    lambda: numerics.istft(np.full((9, 2), np.inf), 16, 4, 8)],
    ids=["layer_norm", "istft"])
def test_non_finite_outputs_are_numeric_errors(call):
    with pytest.raises(NumericError, match="non-finite output in numerics"):
        call()


def test_shape_messages_give_the_sizes_wanted():
    with pytest.raises(ContractViolationError, match=re.escape(
            "conv1d wants a (2, l) or (s, 2, l) x, got (3, 5)")):
        numerics.conv1d(np.ones((3, 5)), np.ones((4, 2, 3)))
    with pytest.raises(ContractViolationError, match=re.escape(
            "istft wants a (9, t) spectrogram, got (8, 2)")):
        numerics.istft(np.ones((8, 2)), 16, 4, 8)


# Every weight holder reads its arrays through errors.weight_fields.
HOLDERS = (numerics.TransformerLayerWeights, rvq.RvqWeights, FilmWeights,
           PromptBank)
HOLDER_FIELDS = [(cls.__name__, f.name) for cls in HOLDERS
                 for f in dataclasses.fields(cls) if f.name != "n_heads"]


def _holder(name, config, store):
    return {"TransformerLayerWeights": lambda: _layer(config, store),
            "RvqWeights": lambda: rvq.RvqWeights.from_store(store, config),
            "FilmWeights": lambda: FilmWeights.from_store(store),
            "PromptBank": lambda: PromptBank.from_store(store)}[name]()


def _each(value, change):
    """`change` applied to an array, or to each array of a tuple."""
    return (tuple(map(change, value)) if isinstance(value, tuple)
            else change(value))


@pytest.mark.parametrize("dtype", [np.complex64, bool, "U4"])
@pytest.mark.parametrize("holder, field", HOLDER_FIELDS,
                         ids=[f"{h}.{f}" for h, f in HOLDER_FIELDS])
def test_weight_holders_take_real_arrays(holder, field, dtype, tiny_config,
                                         tiny_store):
    weights = _holder(holder, tiny_config, tiny_store)
    bad = _each(getattr(weights, field), lambda a: np.zeros(a.shape, dtype))
    name = "prompt vectors" if holder == "PromptBank" else f"{holder}.{field}"
    with pytest.raises(InvalidArgumentError,
                       match=f"{name} must be real numbers, got dtype"):
        dataclasses.replace(weights, **{field: bad})


# "longer" adds one to every size.
@pytest.mark.parametrize("change", ["extra-axis", "missing-axis", "longer"])
@pytest.mark.parametrize("holder, field", HOLDER_FIELDS,
                         ids=[f"{h}.{f}" for h, f in HOLDER_FIELDS])
def test_weight_holders_check_every_shape(holder, field, change, tiny_config,
                                          tiny_store):
    weights = _holder(holder, tiny_config, tiny_store)
    bad = _each(getattr(weights, field), {
        "extra-axis": lambda a: a[..., None],
        "missing-axis": lambda a: a[..., 0],
        "longer": lambda a: np.pad(a, (0, 1))}[change])
    # A longer first use of a size sets it, and a later field disagrees.
    where = f"{holder}.{field}" if change != "longer" else holder
    with pytest.raises(ContractViolationError, match=where):
        dataclasses.replace(weights, **{field: bad})


@pytest.mark.parametrize("holder, fields, where", [
    ("RvqWeights", dict(down_b=np.zeros(7)), "RvqWeights.down_b"),
    ("RvqWeights", dict(up_b=np.zeros(7)), "RvqWeights.up_b"),
    ("RvqWeights", dict(codebooks=()), "RvqWeights.codebooks holds no"),
    ("RvqWeights", dict(codebooks=(np.zeros((32, 4)), np.zeros((31, 4)))),
     "RvqWeights.codebooks"),
    ("FilmWeights", dict(shift_b=np.zeros(7)), "FilmWeights.shift_b"),
    ("FilmWeights", dict(scale_w=np.zeros((3, 16))), "FilmWeights.scale_w"),
    ("TransformerLayerWeights", dict(ff_w2=np.zeros((24, 16))),
     "TransformerLayerWeights.ff_w2"),
], ids=["down_b", "up_b", "no-codebooks", "uneven-codebooks", "shift_b",
        "scale_w", "ff_w2"])
def test_weight_shapes_that_once_reached_the_kernels(holder, fields, where,
                                                     tiny_config, tiny_store):
    weights = _holder(holder, tiny_config, tiny_store)
    with pytest.raises(ContractViolationError, match=where):
        dataclasses.replace(weights, **fields)


@pytest.mark.parametrize("holder", [cls.__name__ for cls in HOLDERS])
def test_float32_weights_are_held_uncopied(holder, tiny_config, tiny_store):
    weights = _holder(holder, tiny_config, tiny_store)
    again = dataclasses.replace(weights)
    for field in dataclasses.fields(weights):
        old, new = getattr(weights, field.name), getattr(again, field.name)
        pairs = (zip(old, new, strict=True) if isinstance(old, tuple)
                 else [(old, new)])
        assert all(a is b for a, b in pairs), field.name


def test_integer_weights_are_read_as_floats(tiny_store):
    weights = FilmWeights.from_store(tiny_store)
    ints = dataclasses.replace(weights, **{
        f.name: np.round(getattr(weights, f.name) * 8).astype(np.int16)
        for f in dataclasses.fields(weights)})
    for f in dataclasses.fields(ints):
        value = getattr(ints, f.name)
        assert value.dtype == np.float32
        np.testing.assert_array_equal(
            value, np.round(getattr(weights, f.name) * 8))


@pytest.mark.parametrize("n_heads", ["2", None, True, np.True_, 2.5,
                                     math.nan, math.inf])
def test_head_count_must_be_an_integer(n_heads, tiny_config, tiny_store):
    with pytest.raises(InvalidArgumentError, match="n_heads must be"):
        dataclasses.replace(_layer(tiny_config, tiny_store), n_heads=n_heads)


@pytest.mark.parametrize("n_heads", [2.0, np.int64(2), np.uint8(2)])
def test_integral_head_counts_are_held_as_ints(n_heads, tiny_config,
                                               tiny_store):
    layer = dataclasses.replace(_layer(tiny_config, tiny_store),
                                n_heads=n_heads)
    assert type(layer.n_heads) is int and layer.n_heads == 2
    maps = np.ones((16, 3), np.float32)
    np.testing.assert_array_equal(
        numerics.transformer_block(maps, layer),
        numerics.transformer_block(maps, _layer(tiny_config, tiny_store)))


@pytest.mark.parametrize("n_heads", [0, -2])
def test_heads_must_divide_the_hidden_size(n_heads, tiny_config, tiny_store):
    with pytest.raises(ContractViolationError, match="heads do not divide"):
        dataclasses.replace(_layer(tiny_config, tiny_store), n_heads=n_heads)


def test_codes_range_message_shows_the_values_as_given(tiny_config,
                                                       tiny_store):
    codes = np.array([[2**64 - 1, 3]], np.uint64)
    with pytest.raises(InvalidArgumentError,
                       match=r"got range \[3, 18446744073709551615\]"):
        rvq.codes_to_features(codes, rvq.RvqWeights.from_store(
            tiny_store, tiny_config))


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


def _must_not_run(*args, **kwargs):
    raise AssertionError("a rejected argument reached the work")


def _one_source():
    return SourceSet(sources=((AudioBuffer(_tone(), 16000), "speech"),))


# (id, call(config, store, path), the start of its message)
WRONG_TYPES = [
    ("decode_stream", lambda c, s, p: pipeline.decode_stream(None, c, s),
     "stream must be an EncodedStream, got NoneType"),
    ("pack_stream", lambda c, s, p: bitstream.pack_stream(None),
     "stream must be an EncodedStream, got NoneType"),
    ("write_stream", lambda c, s, p: bitstream.write_stream(b"SNAC", p),
     "stream must be an EncodedStream, got bytes"),
    ("unpack_stream", lambda c, s, p: bitstream.unpack_stream(None),
     "stream must be bytes, got NoneType"),
    ("unpack_stream-text", lambda c, s, p: bitstream.unpack_stream("SNAC"),
     "stream must be bytes, got str"),
    ("SourceSet-None", lambda c, s, p: SourceSet(None), "sources must be"),
    ("SourceSet-one-item", lambda c, s, p: SourceSet(
        ((AudioBuffer(_tone(), 16000),),)), "sources must be"),
    ("SourceSet-bare-array", lambda c, s, p: SourceSet(((_tone(), "music"),)),
     "sources must be"),
    ("SourceSet-second-array", lambda c, s, p: SourceSet(
        ((AudioBuffer(_tone(), 16000), "speech"), (_tone(), "music"))),
     "sources must be"),
    ("SourceSet-mixture", lambda c, s, p: SourceSet(
        _one_source().sources, mixture=_tone()),
     "mixture must be an AudioBuffer, got ndarray"),
    ("evaluate_estimates", lambda c, s, p: pipeline.evaluate_estimates(
        None, [_tone()]), "references must be a SourceSet, got NoneType"),
    ("evaluate_estimates-mixture", lambda c, s, p: pipeline.evaluate_estimates(
        _one_source(), [_tone()], "masked", mixture=_tone()),
     "mixture must be an AudioBuffer, got ndarray"),
    ("evaluate_manifest", lambda c, s, p: pipeline.evaluate_manifest(
        None, [_tone()]), "manifest must be a MixtureManifest, got NoneType"),
    ("magnitude_mask_reconstruct-mixture", lambda c, s, p:
     magnitude_mask_reconstruct(_tone(), AudioBuffer(_tone(), 16000)),
     "mixture must be an AudioBuffer, got ndarray"),
    ("magnitude_mask_reconstruct-estimate", lambda c, s, p:
     magnitude_mask_reconstruct(AudioBuffer(_tone(), 16000), _tone()),
     "estimate must be an AudioBuffer, got ndarray"),
    ("best_assignment", lambda c, s, p: best_assignment(None, []),
     "references must be a SourceSet, got NoneType"),
]


@pytest.mark.parametrize("site", WRONG_TYPES,
                         ids=[site[0] for site in WRONG_TYPES])
def test_entry_points_take_only_their_types(site, tiny_config, tiny_store,
                                            tmp_path, monkeypatch):
    name, call, message = site
    monkeypatch.setattr(codec, "_require_runnable", _must_not_run)
    with pytest.raises(InvalidArgumentError, match=message):
        call(tiny_config, tiny_store, tmp_path / "out.snac")
    assert not list(tmp_path.iterdir())

