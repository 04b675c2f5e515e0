import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sunac import audio, bitstream
from sunac.errors import (
    ContractViolationError,
    CorruptStreamError,
    InvalidArgumentError,
)
from sunac.extractor import PromptType


class TestAudioBuffer:
    def test_normalizes_dtype(self):
        buf = audio.AudioBuffer(np.arange(5, dtype=np.int64) / 10.0, 16000)
        assert buf.samples.dtype == np.float32
        assert buf.n_samples == 5
        assert buf.duration_s == pytest.approx(5 / 16000)

    def test_rejects_bad_signals(self):
        with pytest.raises(ContractViolationError):
            audio.AudioBuffer(np.zeros((2, 3), dtype=np.float32), 16000)
        with pytest.raises(InvalidArgumentError):
            audio.AudioBuffer(np.array([0.0, np.nan]), 16000)
        with pytest.raises(InvalidArgumentError):
            audio.AudioBuffer(np.zeros(4, dtype=np.float32), 0)


class TestWavIo:
    def test_roundtrip_is_exact_after_quantization(self, tmp_path, rng):
        samples = (0.5 * rng.standard_normal(2000)).astype(np.float32)
        buf = audio.AudioBuffer(samples, 16000)
        path = str(tmp_path / "x.wav")
        audio.write_wav(path, buf)
        back = audio.read_wav(path)
        assert back.sample_rate == 16000
        np.testing.assert_array_equal(
            back.samples, audio.pcm16_roundtrip(samples))

    def test_second_roundtrip_is_identity(self, tmp_path, rng):
        # PCM16 quantization is idempotent: once written, re-reading and
        # re-writing changes nothing.
        samples = (0.3 * rng.standard_normal(500)).astype(np.float32)
        p1, p2 = str(tmp_path / "a.wav"), str(tmp_path / "b.wav")
        audio.write_wav(p1, audio.AudioBuffer(samples, 16000))
        first = audio.read_wav(p1)
        audio.write_wav(p2, first)
        np.testing.assert_array_equal(audio.read_wav(p2).samples,
                                      first.samples)

    def test_clipping_is_applied_on_write(self, tmp_path):
        loud = audio.AudioBuffer(np.array([2.0, -2.0, 0.0],
                                          dtype=np.float32), 8000)
        path = str(tmp_path / "c.wav")
        audio.write_wav(path, loud)
        back = audio.read_wav(path)
        assert back.samples.max() <= 1.0
        assert back.samples.min() >= -1.0

    def test_read_rejects_non_wav(self, tmp_path):
        path = str(tmp_path / "not.wav")
        open(path, "wb").write(b"garbage bytes")
        with pytest.raises(InvalidArgumentError):
            audio.read_wav(path)

    def test_pcm16_roundtrip_matches_disk(self, tmp_path, rng):
        samples = rng.uniform(-1, 1, 333).astype(np.float32)
        path = str(tmp_path / "d.wav")
        audio.write_wav(path, audio.AudioBuffer(samples, 16000))
        np.testing.assert_array_equal(audio.read_wav(path).samples,
                                      audio.pcm16_roundtrip(samples))


def make_stream(n_sources=2, n_codebooks=4, n_frames=50, bits=5, seed=0):
    rng = np.random.default_rng(seed)
    types = (PromptType.SPEECH, PromptType.MUSIC, PromptType.SFX,
             PromptType.MIX)[:n_sources]
    codes = rng.integers(0, 1 << bits,
                         size=(n_sources, n_codebooks, n_frames))
    return bitstream.EncodedStream(
        sample_rate=16000, prompt_types=types, codes=codes,
        original_len=16000, bits_per_code=bits)


class TestEncodedStream:
    def test_roundtrip(self):
        stream = make_stream()
        back = bitstream.unpack_stream(bitstream.pack_stream(stream))
        assert back.sample_rate == stream.sample_rate
        assert back.prompt_types == stream.prompt_types
        assert back.original_len == stream.original_len
        assert back.bits_per_code == stream.bits_per_code
        np.testing.assert_array_equal(back.codes, stream.codes)

    def test_file_roundtrip(self, tmp_path):
        stream = make_stream(n_sources=3, seed=4)
        path = str(tmp_path / "s.snac")
        bitstream.write_stream(stream, path)
        back = bitstream.read_stream(path)
        np.testing.assert_array_equal(back.codes, stream.codes)

    def test_size_arithmetic(self):
        # 28-byte header, one tag byte per source, two bytes per code.
        for n_sources, n_codebooks, n_frames in [(1, 12, 50), (3, 12, 50),
                                                 (2, 4, 7)]:
            stream = make_stream(n_sources, n_codebooks, n_frames, bits=10)
            blob = bitstream.pack_stream(stream)
            assert len(blob) == (28 + n_sources
                                 + 2 * n_sources * n_codebooks * n_frames)

    def test_pack_is_deterministic(self):
        a = bitstream.pack_stream(make_stream(seed=9))
        b = bitstream.pack_stream(make_stream(seed=9))
        assert a == b

    def test_header_layout(self):
        blob = bitstream.pack_stream(make_stream())
        assert blob[:4] == b"SNAC"
        assert int.from_bytes(blob[4:6], "little") == 1
        assert int.from_bytes(blob[6:10], "little") == 16000

    def test_validation_on_construction(self):
        good = make_stream()
        with pytest.raises(InvalidArgumentError):
            bitstream.EncodedStream(
                sample_rate=16000, prompt_types=(PromptType.SPEECH,),
                codes=good.codes, original_len=16000, bits_per_code=5)
        with pytest.raises(InvalidArgumentError):
            bitstream.EncodedStream(
                sample_rate=16000, prompt_types=good.prompt_types,
                codes=good.codes.astype(np.float32), original_len=16000,
                bits_per_code=5)
        with pytest.raises(InvalidArgumentError):
            bitstream.EncodedStream(
                sample_rate=16000, prompt_types=good.prompt_types,
                codes=good.codes, original_len=0, bits_per_code=5)
        with pytest.raises(InvalidArgumentError):
            bitstream.EncodedStream(
                sample_rate=16000, prompt_types=good.prompt_types,
                codes=good.codes, original_len=16000, bits_per_code=17)

    def test_codes_must_fit_declared_bits(self):
        codes = np.full((1, 2, 3), 31, dtype=np.int64)
        bitstream.EncodedStream(sample_rate=16000,
                                prompt_types=(PromptType.MIX,),
                                codes=codes, original_len=100,
                                bits_per_code=5)
        with pytest.raises(InvalidArgumentError):
            bitstream.EncodedStream(sample_rate=16000,
                                    prompt_types=(PromptType.MIX,),
                                    codes=codes, original_len=100,
                                    bits_per_code=4)

    @pytest.mark.parametrize("shape,field", [
        ((0, 4, 5), "sources"), ((1, 0, 5), "codebooks"), ((1, 4, 0), "frames"),
    ])
    def test_refuses_empty_code_tensor(self, shape, field):
        with pytest.raises(InvalidArgumentError, match=f"{field} must be"):
            bitstream.EncodedStream(
                sample_rate=16000, prompt_types=(PromptType.MIX,) * shape[0],
                codes=np.zeros(shape, dtype=np.int32), original_len=100,
                bits_per_code=5)

    @pytest.mark.parametrize("field,value", [
        ("sample_rate", 2**32), ("original_len", 2**64),
        ("sample_rate", 16000.5), ("original_len", 5.5),
        ("original_len", float("nan")), ("sample_rate", "16000"),
    ])
    def test_refuses_header_values_pack_cannot_write(self, field, value):
        fields = dict(sample_rate=16000, prompt_types=(PromptType.MIX,),
                      codes=np.zeros((1, 2, 3), dtype=np.int32),
                      original_len=100, bits_per_code=5)
        fields[field] = value
        with pytest.raises(InvalidArgumentError, match=field):
            bitstream.EncodedStream(**fields)

    def test_refuses_more_codebooks_than_the_header_counts(self):
        with pytest.raises(InvalidArgumentError, match="codebooks"):
            bitstream.EncodedStream(
                sample_rate=16000, prompt_types=(PromptType.MIX,),
                codes=np.zeros((1, 65536, 1), dtype=np.int32),
                original_len=100, bits_per_code=5)

    def test_widest_header_values_round_trip(self):
        stream = bitstream.EncodedStream(
            sample_rate=2**32 - 1, prompt_types=(PromptType.MIX,),
            codes=np.full((1, 2, 3), 2**16 - 1), original_len=2**64 - 1,
            bits_per_code=16)
        back = bitstream.unpack_stream(bitstream.pack_stream(stream))
        assert (back.sample_rate, back.original_len) == (2**32 - 1, 2**64 - 1)
        np.testing.assert_array_equal(back.codes, stream.codes)

    def test_integral_fields_are_stored_as_int(self):
        stream = bitstream.EncodedStream(
            sample_rate=16000.0, prompt_types=(PromptType.MIX,),
            codes=np.zeros((1, 2, 3), dtype=np.int32),
            original_len=np.int64(100), bits_per_code=np.uint8(5))
        for name in ("sample_rate", "original_len", "bits_per_code"):
            assert type(getattr(stream, name)) is int

    def test_parses_prompt_type_names(self):
        stream = bitstream.EncodedStream(
            sample_rate=16000, prompt_types=("speech", " Music "),
            codes=np.zeros((2, 2, 3), dtype=np.int32), original_len=100,
            bits_per_code=5)
        assert stream.prompt_types == (PromptType.SPEECH, PromptType.MUSIC)
        back = bitstream.unpack_stream(bitstream.pack_stream(stream))
        assert back.prompt_types == stream.prompt_types
        with pytest.raises(InvalidArgumentError, match="unknown prompt type"):
            bitstream.EncodedStream(
                sample_rate=16000, prompt_types=("drums",),
                codes=np.zeros((1, 2, 3), dtype=np.int32), original_len=100,
                bits_per_code=5)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_stream_that_constructs_round_trips(self, data):
        # Each field is valid nine draws in ten and otherwise just outside
        # its range or of a wrong kind, so both sides of every check come
        # up and a good share of the streams construct.
        def mostly(valid, odd):
            return st.integers(1, 10).flatmap(lambda k: odd if k == 10 else valid)

        def field(top):
            exact = st.integers(1, min(top, 2**53)).map(float)
            return mostly(st.integers(1, top) | exact,
                          st.sampled_from([-1, 0, top + 1, 0.5, float("nan"),
                                           float("inf"), "1"]))

        size = mostly(st.integers(1, 3), st.just(0))
        shape = data.draw(st.tuples(size, size, size))
        bits = data.draw(field(16))
        top = 2**bits if isinstance(bits, int) and 1 <= bits <= 16 else 2
        codes = np.array(data.draw(st.lists(
            st.integers(0, top - 1), min_size=int(np.prod(shape)),
            max_size=int(np.prod(shape)))), dtype=np.int64).reshape(shape)
        if codes.size:
            codes.flat[0] = data.draw(mostly(st.just(codes.flat[0]),
                                             st.sampled_from([-1, top])))
        kinds = mostly(st.sampled_from([*PromptType, "speech", " MIX"]),
                       st.just("drums"))
        n_types = data.draw(mostly(st.just(shape[0]), st.just(shape[0] + 1)))
        types = data.draw(st.lists(kinds, min_size=n_types, max_size=n_types))
        try:
            stream = bitstream.EncodedStream(
                sample_rate=data.draw(field(2**32 - 1)), prompt_types=types,
                codes=codes, original_len=data.draw(field(2**64 - 1)),
                bits_per_code=bits)
        except InvalidArgumentError:
            return
        back = bitstream.unpack_stream(bitstream.pack_stream(stream))
        for name in ("sample_rate", "prompt_types", "original_len",
                     "bits_per_code"):
            assert getattr(back, name) == getattr(stream, name)
        np.testing.assert_array_equal(back.codes, stream.codes)


class TestCorruptStreams:
    def test_short_blob(self):
        with pytest.raises(CorruptStreamError):
            bitstream.unpack_stream(b"SNAC\x01\x00")

    def test_bad_magic(self):
        blob = bitstream.pack_stream(make_stream())
        with pytest.raises(CorruptStreamError):
            bitstream.unpack_stream(b"WAVE" + blob[4:])

    def test_bad_version(self):
        blob = bytearray(bitstream.pack_stream(make_stream()))
        blob[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(CorruptStreamError):
            bitstream.unpack_stream(bytes(blob))

    def test_truncated_body(self):
        blob = bitstream.pack_stream(make_stream())
        with pytest.raises(CorruptStreamError):
            bitstream.unpack_stream(blob[:-10])

    def test_trailing_bytes(self):
        blob = bitstream.pack_stream(make_stream())
        with pytest.raises(CorruptStreamError):
            bitstream.unpack_stream(blob + b"\x00")

    def test_unknown_prompt_tag(self):
        blob = bytearray(bitstream.pack_stream(make_stream()))
        blob[28] = 9  # first tag byte
        with pytest.raises(CorruptStreamError):
            bitstream.unpack_stream(bytes(blob))

    def test_out_of_range_code(self):
        stream = make_stream(bits=5)
        blob = bytearray(bitstream.pack_stream(stream))
        offset = 28 + stream.n_sources
        blob[offset:offset + 2] = (1 << 10).to_bytes(2, "little")
        with pytest.raises(CorruptStreamError):
            bitstream.unpack_stream(bytes(blob))

    def test_empty_tensor_declaration(self):
        blob = bytearray(bitstream.pack_stream(make_stream()))
        blob[14:16] = (0).to_bytes(2, "little")  # n_sources field
        with pytest.raises(CorruptStreamError):
            bitstream.unpack_stream(bytes(blob))
