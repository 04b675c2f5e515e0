"""One integer rule for every count, rate and seed argument.

Each row of SITES is one place that takes an integer from a caller.  A bool,
text, None, a fraction, NaN, an infinity or a value outside the site's range
raises the site's documented error type; numpy integers and integral floats
are accepted and come back as Python ints.  Warnings are errors here.
"""

import ast
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sunac import analysis, audio, bitstream, codec, fixtures, numerics, pipeline, rvq
from sunac.errors import ConfigError, InvalidArgumentError
from sunac.extractor import parse_prompts

pytestmark = pytest.mark.filterwarnings("error")

SRC = Path(__file__).resolve().parents[1] / "src" / "sunac"


def _spec(seed=3):
    return fixtures.FixtureSpec("speech", "band_limited_noise", seed=seed)


def _stream(**fields):
    header = dict(sample_rate=16000, prompt_types=("mix",),
                  codes=np.zeros((1, 2, 3), dtype=np.int32), original_len=100,
                  bits_per_code=5)
    return bitstream.EncodedStream(**{**header, **fields})


def _manifest_json(value):
    payload = json.loads(fixtures.MixtureManifest((_spec(),)).to_json())
    payload["sample_rate"] = value
    return json.dumps(payload, default=lambda v: v.item())


def _quantize(value, cfg, store):
    weights = rvq.RvqWeights.from_store(store, cfg)
    features = np.ones((weights.feature_dim, 3), dtype=np.float32)
    codes = rvq.quantize(features, weights, value).codes
    rvq.codes_to_features(codes, weights)
    return codes.shape[0]


def _encode(value, cfg, store):
    mixture = audio.AudioBuffer(np.sin(np.arange(640) / 7.0), cfg.sample_rate)
    return pipeline.encode_mixture(mixture, ("speech",), cfg, store,
                                   n_active=value).n_codebooks


_SIGNAL = np.ones((1, 8), dtype=np.float32)
_KERNEL = np.ones((1, 1, 3), dtype=np.float32)
_DAC = analysis.count_macs(analysis.builtin_specs()["DAC"], 0.1)

# (id, call(value, config, store) -> the int the site keeps or returns,
#  error type, lowest valid value, highest valid value or None, a valid value)
SITES = [
    ("ModelConfig.code_dim",
     lambda v, c, s: codec.ModelConfig(code_dim=v).code_dim,
     ConfigError, 1, None, 8),
    ("ModelConfig.strides",
     lambda v, c, s: codec.ModelConfig(strides=(v, 4, 5, 8)).strides[0],
     ConfigError, 1, None, 2),
    ("ModelConfig.seed", lambda v, c, s: codec.ModelConfig(seed=v).seed,
     ConfigError, 0, 2**64 - 1, 3),
    ("init_weights.seed", lambda v, c, s: codec.init_weights(c, v).seed,
     InvalidArgumentError, 0, 2**64 - 1, 3),
    ("frames_for_length", lambda v, c, s: codec.frames_for_length(c, v),
     InvalidArgumentError, 1, None, 321),
    ("AudioBuffer.sample_rate",
     lambda v, c, s: audio.AudioBuffer(np.zeros(8), v).sample_rate,
     InvalidArgumentError, 1, None, 16000),
    ("EncodedStream.sample_rate",
     lambda v, c, s: _stream(sample_rate=v).sample_rate,
     InvalidArgumentError, 1, 2**32 - 1, 16000),
    ("EncodedStream.original_len",
     lambda v, c, s: _stream(original_len=v).original_len,
     InvalidArgumentError, 1, 2**64 - 1, 100),
    ("EncodedStream.bits_per_code",
     lambda v, c, s: _stream(bits_per_code=v).bits_per_code,
     InvalidArgumentError, 1, 16, 5),
    ("rvq.quantize.n_active", _quantize, InvalidArgumentError, 1, 4, 2),
    ("encode_mixture.n_active", _encode, InvalidArgumentError, 1, 4, 2),
    ("FixtureSpec.seed", lambda v, c, s: _spec(v).seed,
     InvalidArgumentError, 0, None, 3),
    ("MixtureManifest.sample_rate",
     lambda v, c, s: fixtures.MixtureManifest((_spec(),), 1.0, v).sample_rate,
     InvalidArgumentError, 1, None, 16000),
    ("MixtureManifest.from_json.sample_rate",
     lambda v, c, s: fixtures.MixtureManifest.from_json(
         _manifest_json(v)).sample_rate,
     ConfigError, 1, None, 16000),
    ("generate.sample_rate",
     lambda v, c, s: fixtures.generate(_spec(), 0.01, v).sample_rate,
     InvalidArgumentError, 1, None, 16000),
    ("count_macs.sample_rate",
     lambda v, c, s: analysis.count_macs(
         analysis.builtin_specs()["DAC"], 0.1, v).sample_rate,
     InvalidArgumentError, 1, None, 16000),
    ("MacReport.total_macs", lambda v, c, s: _DAC.total_macs(v),
     InvalidArgumentError, 1, 2**53, 2),
    ("compare_report.n_sources",
     lambda v, c, s: analysis.compare_report(0.1, n_sources=v).n_sources,
     InvalidArgumentError, 1, 2**53, 2),
    ("conv1d.stride",
     lambda v, c, s: numerics.conv1d(_SIGNAL, _KERNEL, stride=v).shape[-1],
     InvalidArgumentError, 1, None, 2),
    ("conv1d.dilation",
     lambda v, c, s: numerics.conv1d(_SIGNAL, _KERNEL, dilation=v).shape[-1],
     InvalidArgumentError, 1, None, 2),
    ("conv1d.padding",
     lambda v, c, s: numerics.conv1d(_SIGNAL, _KERNEL, padding=v).shape[-1],
     InvalidArgumentError, 0, None, 1),
    ("conv1d.output_padding",
     lambda v, c, s: numerics.conv1d(_SIGNAL, _KERNEL, stride=2,
                                     transposed=True,
                                     output_padding=v).shape[-1],
     InvalidArgumentError, 0, 2, 1),
    ("stft.n_fft", lambda v, c, s: numerics.stft(np.ones(64), v, 4).shape[0],
     InvalidArgumentError, 2, None, 16),
    ("stft.hop", lambda v, c, s: numerics.stft(np.ones(64), 16, v).shape[1],
     InvalidArgumentError, 1, 16, 4),
    ("compare_report.sample_rate",
     lambda v, c, s: analysis.compare_report(0.1, 1, v).sample_rate,
     InvalidArgumentError, 1, None, 16000),
    ("istft.length",
     lambda v, c, s: numerics.istft(np.ones((9, 5)), 16, 4, v).shape[0],
     InvalidArgumentError, 0, None, 20),
    ("istft.hop",
     lambda v, c, s: numerics.istft(np.ones((9, 5)), 16, v, 20).shape[0],
     InvalidArgumentError, 1, 16, 4),
]


def _must_not_run(*args, **kwargs):
    raise AssertionError("a rejected argument reached the work")


@pytest.mark.parametrize("site", SITES, ids=[site[0] for site in SITES])
def test_integer_rule(site, tiny_config, tiny_store, monkeypatch):
    name, call, error, lo, hi, good = site
    bad = [True, np.True_, 1.5, "2", float("nan"), float("inf"), lo - 1]
    if hi is not None:
        bad.append(hi + 1)
    if name != "encode_mixture.n_active":  # there None selects every codebook
        bad.append(None)
    with monkeypatch.context() as patch:
        patch.setattr(codec, "encode", _must_not_run)
        patch.setattr(fixtures, "_GEN_FUNCS",
                      dict.fromkeys(fixtures.GENERATORS, _must_not_run))
        for value in bad:
            with pytest.raises(error, match="must be"):
                call(value, tiny_config, tiny_store)
    expected = call(good, tiny_config, tiny_store)
    for value in (np.int64(good), np.uint64(good), float(good)):
        result = call(value, tiny_config, tiny_store)
        assert type(result) is int and result == expected, value


def test_fixture_seed_from_numpy_round_trips_through_json():
    manifest = fixtures.MixtureManifest((_spec(np.int64(3)),))
    back = fixtures.MixtureManifest.from_json(manifest.to_json())
    assert type(back.sources[0].seed) is int and back == manifest


def test_fractional_sample_rate_is_rejected():
    with pytest.raises(InvalidArgumentError):
        audio.AudioBuffer(np.zeros(8), 16000.7)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_config_seed_must_fit_the_weight_file(seed):
    with pytest.raises(ConfigError,
                       match=r"seed must be an integer in \[0, 2\*\*64\)"):
        codec.ModelConfig(seed=seed)


@pytest.mark.parametrize("text", [b"speech", None, ["speech"]],
                         ids=["bytes", "None", "list"])
def test_parse_prompts_takes_only_text(text):
    with pytest.raises(InvalidArgumentError, match="must be text"):
        parse_prompts(text)


def _second_integer_rules(tree):
    for node in ast.walk(tree):
        if "Integral" in (getattr(node, "attr", None), getattr(node, "id", None)):
            yield node.lineno
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and any(isinstance(n, ast.Attribute) and n.attr == "integer"
                        for n in ast.walk(node.args[1]))):
            yield node.lineno


def test_errors_integer_is_the_only_integer_rule():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
             for line in _second_integer_rules(ast.parse(path.read_text()))]
    assert not found, f"integer checks outside errors.integer: {found}"


# One duration rule, errors.samples: (id, call(duration) -> a result that
# depends on the sample count).
DURATION_SITES = [
    ("count_macs", lambda d: analysis.count_macs(
        analysis.builtin_specs()["DAC"], d).total_macs(1)),
    ("generate", lambda d: fixtures.generate(_spec(), d).n_samples),
    ("MixtureManifest", lambda d: fixtures.realize(
        fixtures.MixtureManifest((_spec(),), d)).mixture.n_samples),
]


@pytest.mark.parametrize("site", DURATION_SITES,
                         ids=[site[0] for site in DURATION_SITES])
def test_duration_rule(site, monkeypatch):
    name, call = site
    bad = [True, np.True_, "1", None, float("nan"), float("inf"), 0.0, -0.5,
           1e-6, 1e300, 10**400, np.float64(1e308)]
    with monkeypatch.context() as patch:
        patch.setattr(fixtures, "_GEN_FUNCS",
                      dict.fromkeys(fixtures.GENERATORS, _must_not_run))
        for value in bad:
            with pytest.raises(InvalidArgumentError, match="duration_s must"):
                call(value)
    expected = call(0.1)
    for value in (np.float32(0.1), np.float64(0.1), Fraction(1, 10)):
        assert call(value) == expected, value


@pytest.mark.parametrize("duration", ["1", float("nan"), 1e-6, True, 601.0],
                         ids=["text", "nan", "one-sample", "bool", "too-long"])
def test_manifest_that_constructs_renders(duration):
    with pytest.raises(InvalidArgumentError, match="duration_s must"):
        fixtures.MixtureManifest((_spec(),), duration)
    payload = json.loads(fixtures.MixtureManifest((_spec(),)).to_json())
    payload["duration_s"] = duration
    with pytest.raises(ConfigError, match="duration_s must"):
        fixtures.MixtureManifest.from_json(json.dumps(payload))


def test_manifest_duration_is_stored_as_a_float():
    manifest = fixtures.MixtureManifest((_spec(),), np.float32(0.5))
    assert type(manifest.duration_s) is float
    assert fixtures.MixtureManifest.from_json(manifest.to_json()) == manifest


def _second_array_rules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                node.attr == "issubdtype"
                or (node.attr == "kind"
                    and getattr(node.value, "attr", None) == "dtype")):
            yield node.lineno


def test_errors_real_array_is_the_only_array_rule():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
             for line in _second_array_rules(ast.parse(path.read_text()))]
    assert not found, f"dtype checks outside errors.real_array: {found}"
