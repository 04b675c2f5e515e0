"""Golden digests: stream bytes, decoded audio, cost table and configs.

Every value below was recorded once and must never be re-recorded quietly.
A refactor that is meant to change no behaviour keeps all of them; a kernel
change that moves one has to say by how much and why.  The stream and audio
digests were taken with numpy 2.4 and OpenBLAS on x86-64, with one and two
BLAS threads alike.
"""

import hashlib

import numpy as np
import pytest

from sunac import analysis, codec, fixtures, pipeline
from sunac.bitstream import pack_stream
from sunac.extractor import parse_prompts

STREAM_SHA256 = "b4dff79e580319826e7468b2cfa750afbad5af1665bb0b36dcb9d6a9d1424030"
STREAM_BYTES = 2430
DECODED_SHA256 = "4f2de0947fe42ac28f4c2f6ff253e4074f8af25ff4459edbcd81a5cb892b3d55"
COMPARE_JSON_SHA256 = (
    "7c757c0c6d1d13b20468076dffdc7e29e8be87b03f855db3ff1fbb4b277a4cd1")
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


def test_compare_report_json():
    text = analysis.report_to_json(analysis.compare_report(1.0, 2))
    assert _sha256(text.encode("utf-8")) == COMPARE_JSON_SHA256


@pytest.mark.parametrize("family", codec.ARCH_FAMILIES)
def test_config_json(family):
    text = codec.default_config(family).to_json()
    assert _sha256(text.encode("utf-8")) == CONFIG_JSON_SHA256[family]
