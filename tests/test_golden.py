"""Golden digests: stream bytes, decoded audio, cost tables, manifests and
configs.

Every value below was recorded once and must never be re-recorded quietly.
A refactor that is meant to change no behaviour keeps all of them; a kernel
change that moves one has to say by how much and why.  The stream and audio
digests were taken with numpy 2.4 and OpenBLAS on x86-64, with one and two
BLAS threads alike.
"""

import hashlib
import json

import numpy as np
import pytest

from sunac import analysis, codec, fixtures, pipeline
from sunac.bitstream import pack_stream
from sunac.extractor import parse_prompts

STREAM_SHA256 = "b4dff79e580319826e7468b2cfa750afbad5af1665bb0b36dcb9d6a9d1424030"
STREAM_BYTES = 2430
DECODED_SHA256 = "4f2de0947fe42ac28f4c2f6ff253e4074f8af25ff4459edbcd81a5cb892b3d55"
# DACT, the one family with encoder Transformers: codec.encode's features
# and codec.decode's samples for the mixture of golden_stream, seed 0.
DACT_FEATURES_SHA256 = (
    "895418008714b6d508498e431ad2e613794f4b185494aa4b2f427182d920b0d9")
DACT_DECODED_SHA256 = (
    "c75f1e74092d102fb3f0ee315cc7960b82abcb65ae2974e0d7b225b242cf8160")
# Full SUNAC on a 5.5 s mixture prompted `speech,speech`, fixture seed 0:
# T = 275 frames, so attention splits into two query blocks, each map runs
# alone (`numerics.stack_groups`), the duplicate prompt relies on rotary
# coding, and every waveform-rate conv reads windows that span several
# held pieces.
LONG_STREAM_SHA256 = (
    "7000ad9a0351a851776745c9aa7393b5e09394a96206cd090f41e2bf3aa804be")
LONG_STREAM_BYTES = 13230
LONG_DECODED_SHA256 = (
    "dca77a6ed0c52881b7659ae845478eefa7a9cddff6e3e550269500f0b645ad37")
COMPARE_JSON_SHA256 = (
    "7c757c0c6d1d13b20468076dffdc7e29e8be87b03f855db3ff1fbb4b277a4cd1")
# compare_report(duration_s, 3) at the shortest and a non-integral duration.
COMPARE_JSON_3SRC_SHA256 = {
    0.04: "7b9930620d9a4172857db2a2978ee366db317010ba19648d2c91cfc434530ec9",
    7.3: "0ade9ddb38f5a7a40feb509cb4361c752e9bb272f8e64a90616f754a2c1bde9f",
}
# Name, shape, init rule and fan-in of every tensor, in manifest order.
MANIFEST_SHA256 = {
    "DAC": "0e2394e279b889561b66c1848702657b0e6c81210a06d6245915d4c266ac92ba",
    "DACT": "83d34a047835fcc01ebf414172eacbc13b5d2c5d37acacd5044fd8e325ea0e17",
    "SDCodec": "3a839c0a9f1bb706c4b52664774e6ae2b55e7546390540d1a6eae7a56ae8ea82",
    "SDCodecT": "2c8f6b7995778c4e4652c824ac1f2e333caba121c44e4e217b43d4865930e5ba",
    "SUNAC": "a1161f5f632c907b38d49ae89fabf3371d11d7ddda98e64a0f90acd67d77c5ed",
}
CONFIG_JSON_SHA256 = {
    "DAC": "837e3e7a06eb52fc37d91067b5cd1c244244f9998418700610c7f3a89508f1fd",
    "DACT": "3f135355d5636d9403c32b8a5a419df0d9c9b4a27c84ecbf829e52890a91e2df",
    "SDCodec": "03425c3def120471069778f8f1f69feaae7bf775484da80966c2d42407e0a020",
    "SDCodecT": "53dad5de4bca4765e61d737145b025d31e764d2957d3465544f7e5eb7babef6d",
    "SUNAC": "5de351d859edb0394f1354ec3334f3c752ee5ddd1011c54e8ea6535b7f9fed76",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def golden_stream(full_config, full_store):
    prompts = parse_prompts("speech,music")
    manifest = fixtures.make_mixture(prompts, seed=0, duration_s=1.0)
    mixture = fixtures.realize(manifest).mixture
    return pipeline.encode_mixture(mixture, prompts, full_config, full_store)


def test_stream_bytes(golden_stream):
    blob = pack_stream(golden_stream)
    assert len(blob) == STREAM_BYTES
    assert _sha256(blob) == STREAM_SHA256


def test_decoded_samples(golden_stream, full_config, full_store):
    sources = pipeline.decode_stream(golden_stream, full_config, full_store)
    samples = b"".join(np.ascontiguousarray(buf.samples, dtype="<f4").tobytes()
                       for buf, _ in sources)
    assert _sha256(samples) == DECODED_SHA256


def test_long_stream_bytes_and_samples(full_config, full_store):
    prompts = parse_prompts("speech,speech")
    manifest = fixtures.make_mixture(prompts, seed=0, duration_s=5.5)
    mixture = fixtures.realize(manifest).mixture
    stream = pipeline.encode_mixture(mixture, prompts, full_config, full_store)
    assert stream.n_frames == 275
    blob = pack_stream(stream)
    assert len(blob) == LONG_STREAM_BYTES
    assert _sha256(blob) == LONG_STREAM_SHA256
    sources = pipeline.decode_stream(stream, full_config, full_store)
    samples = b"".join(np.ascontiguousarray(buf.samples, dtype="<f4").tobytes()
                       for buf, _ in sources)
    assert _sha256(samples) == LONG_DECODED_SHA256


def test_dact_features_and_samples():
    config = codec.default_config("DACT")
    store = codec.init_weights(config, seed=0)
    manifest = fixtures.make_mixture(parse_prompts("speech,music"), seed=0,
                                     duration_s=1.0)
    features = codec.encode(fixtures.realize(manifest).mixture, config, store)
    samples = codec.decode(features, config, store).samples
    assert _sha256(np.ascontiguousarray(features, dtype="<f4").tobytes()) == (
        DACT_FEATURES_SHA256)
    assert _sha256(np.ascontiguousarray(samples, dtype="<f4").tobytes()) == (
        DACT_DECODED_SHA256)


def test_compare_report_json():
    text = analysis.report_to_json(analysis.compare_report(1.0, 2))
    assert _sha256(text.encode("utf-8")) == COMPARE_JSON_SHA256


@pytest.mark.parametrize("duration_s", sorted(COMPARE_JSON_3SRC_SHA256))
def test_compare_report_json_three_sources(duration_s):
    text = analysis.report_to_json(analysis.compare_report(duration_s, 3))
    assert _sha256(text.encode("utf-8")) == COMPARE_JSON_3SRC_SHA256[duration_s]


@pytest.mark.parametrize("family", codec.ARCH_FAMILIES)
def test_manifest(family):
    specs = codec.manifest(codec.default_config(family))
    text = json.dumps([[s.name, list(s.shape), s.init, s.fan_in]
                       for s in specs])
    assert _sha256(text.encode("utf-8")) == MANIFEST_SHA256[family]


@pytest.mark.parametrize("family", codec.ARCH_FAMILIES)
def test_config_json(family):
    text = codec.default_config(family).to_json()
    assert _sha256(text.encode("utf-8")) == CONFIG_JSON_SHA256[family]
