import tracemalloc

import numpy as np
import pytest

from sunac import codec, extractor, fixtures, numerics, pipeline, rvq
from sunac.audio import AudioBuffer, pcm16_roundtrip
from sunac.bitstream import pack_stream
from sunac.errors import InvalidArgumentError, NumericError
from sunac.extractor import PromptType

S, M, X = PromptType.SPEECH, PromptType.MUSIC, PromptType.SFX


@pytest.fixture(scope="module")
def mixture():
    manifest = fixtures.make_mixture(["speech", "music"], seed=14,
                                     duration_s=0.2)
    return fixtures.realize(manifest)


class TestEncodeMixture:
    def test_stream_shape(self, tiny_config, tiny_store, mixture):
        stream = pipeline.encode_mixture(
            mixture.mixture, (S, M), tiny_config, tiny_store)
        assert stream.n_sources == 2
        assert stream.n_codebooks == tiny_config.n_codebooks
        assert stream.n_frames == codec.frames_for_length(
            tiny_config, mixture.mixture.n_samples)
        assert stream.original_len == mixture.mixture.n_samples
        assert stream.prompt_types == (S, M)

    def test_bitrate_knob_drops_codebooks(self, tiny_config, tiny_store,
                                          mixture):
        stream = pipeline.encode_mixture(
            mixture.mixture, (S,), tiny_config, tiny_store, n_active=2)
        assert stream.n_codebooks == 2

    def test_n_active_bounds(self, tiny_config, tiny_store, mixture):
        with pytest.raises(InvalidArgumentError):
            pipeline.encode_mixture(mixture.mixture, (S,), tiny_config,
                                    tiny_store, n_active=0)
        with pytest.raises(InvalidArgumentError):
            pipeline.encode_mixture(
                mixture.mixture, (S,), tiny_config, tiny_store,
                n_active=tiny_config.n_codebooks + 1)

    @pytest.mark.parametrize("entry", [pipeline.encode_mixture,
                                       pipeline.separate])
    def test_n_active_must_be_an_integer(self, tiny_config, tiny_store,
                                         mixture, entry):
        with pytest.raises(InvalidArgumentError, match="integer"):
            entry(mixture.mixture, (S,), tiny_config, tiny_store,
                  n_active=1.5)
        stream = pipeline.encode_mixture(mixture.mixture, (S,), tiny_config,
                                         tiny_store, n_active=np.int64(2))
        assert stream.n_codebooks == 2

    @pytest.mark.parametrize("entry", [pipeline.encode_mixture,
                                       pipeline.separate])
    def test_n_active_must_not_be_a_bool(self, tiny_config, tiny_store,
                                         mixture, monkeypatch, entry):
        def encode(*args, **kwargs):
            raise AssertionError("the shared encoder ran")

        monkeypatch.setattr(codec, "encode", encode)
        with pytest.raises(InvalidArgumentError, match="integer"):
            entry(mixture.mixture, (S,), tiny_config, tiny_store,
                  n_active=True)

    @pytest.mark.parametrize("prompts", ["speech,music", "speech",
                                         b"speech"],
                             ids=["csv", "str", "bytes"])
    @pytest.mark.parametrize("entry", [pipeline.encode_mixture,
                                       pipeline.extract_features,
                                       pipeline.separate])
    def test_prompts_must_not_be_text(self, tiny_config, tiny_store,
                                      mixture, monkeypatch, entry, prompts):
        def encode(*args, **kwargs):
            raise AssertionError("the shared encoder ran")

        monkeypatch.setattr(codec, "encode", encode)
        with pytest.raises(InvalidArgumentError,
                           match="sequence.*extractor.parse_prompts"):
            entry(mixture.mixture, prompts, tiny_config, tiny_store)

    @pytest.mark.parametrize("entry", [pipeline.encode_mixture,
                                       pipeline.extract_features,
                                       pipeline.separate])
    def test_prompts_must_be_a_sequence(self, tiny_config, tiny_store,
                                        mixture, monkeypatch, entry):
        def encode(*args, **kwargs):
            raise AssertionError("the shared encoder ran")

        monkeypatch.setattr(codec, "encode", encode)
        with pytest.raises(InvalidArgumentError, match="prompts"):
            entry(mixture.mixture, None, tiny_config, tiny_store)

    def test_deterministic(self, tiny_config, tiny_store, mixture):
        a = pipeline.encode_mixture(mixture.mixture, (S, M), tiny_config,
                                    tiny_store)
        b = pipeline.encode_mixture(mixture.mixture, (S, M), tiny_config,
                                    tiny_store)
        np.testing.assert_array_equal(a.codes, b.codes)

    def test_codes_come_without_rebuilding_features(self, tiny_config,
                                                    tiny_store, mixture,
                                                    monkeypatch):
        per_source = pipeline.extract_features(mixture.mixture, (S, M, S),
                                               tiny_config, tiny_store)
        quantizer = rvq.RvqWeights.from_store(tiny_store, tiny_config)
        want = [rvq.quantize(fmap, quantizer, 2).codes for fmap in per_source]

        def codes_to_features(*args, **kwargs):
            raise AssertionError("encode_mixture rebuilt the features")

        monkeypatch.setattr(rvq, "codes_to_features", codes_to_features)
        stream = pipeline.encode_mixture(mixture.mixture, (S, M, S),
                                         tiny_config, tiny_store, n_active=2)
        assert stream.codes.dtype == np.int32
        for got, codes in zip(stream.codes, want, strict=True):
            np.testing.assert_array_equal(got, codes)

    def test_each_source_is_quantized_once(self, tiny_config, tiny_store,
                                           mixture, monkeypatch):
        calls = []
        quantize = rvq.quantize

        def spy(features, weights, n_active):
            calls.append(n_active)
            return quantize(features, weights, n_active)

        monkeypatch.setattr(rvq, "quantize", spy)
        stream = pipeline.encode_mixture(mixture.mixture, (S, M, S),
                                         tiny_config, tiny_store, n_active=3)
        assert calls == [3, 3, 3]
        assert stream.n_sources == 3

    def test_prompt_names_match_prompt_types(self, tiny_config, tiny_store,
                                             mixture):
        by_name = pipeline.encode_mixture(
            mixture.mixture, ("speech", "music"), tiny_config, tiny_store)
        by_type = pipeline.encode_mixture(
            mixture.mixture, (S, M), tiny_config, tiny_store)
        assert by_name.prompt_types == (S, M)
        assert pack_stream(by_name) == pack_stream(by_type)

    @pytest.mark.parametrize("entry, prompts", [
        pytest.param(entry, prompts, id=entry.__name__ + suffix)
        for prompts, suffix in ((("bogus",), ""), ((), "-empty"))
        for entry in (pipeline.encode_mixture, pipeline.extract_features)
    ])
    def test_unknown_prompt_fails_before_encoding(self, tiny_config,
                                                  tiny_store, mixture,
                                                  monkeypatch, entry, prompts):
        def encode(*args, **kwargs):
            raise AssertionError("the shared encoder ran")

        monkeypatch.setattr(codec, "encode", encode)
        with pytest.raises(InvalidArgumentError):
            entry(mixture.mixture, prompts, tiny_config, tiny_store)

    def test_requires_prompted_family(self, tiny_store, mixture):
        import dataclasses

        config = dataclasses.replace(
            codec.default_config("DAC"), enc_base_dim=4, dec_base_dim=32,
            latent_dim=8, transformer_hidden=8, n_heads=2, ff_dim=16,
            n_codebooks=2, codebook_size=16, code_dim=4)
        store = codec.init_weights(config, seed=0)
        with pytest.raises(InvalidArgumentError):
            pipeline.encode_mixture(mixture.mixture, (S,), config, store)


class TestDecodeStream:
    def test_roundtrip_lengths_and_types(self, tiny_config, tiny_store,
                                         mixture):
        stream = pipeline.encode_mixture(
            mixture.mixture, (S, M), tiny_config, tiny_store)
        decoded = pipeline.decode_stream(stream, tiny_config, tiny_store)
        assert len(decoded) == 2
        for (buf, ptype), want in zip(decoded, (S, M)):
            assert ptype is want
            assert buf.n_samples == mixture.mixture.n_samples
            assert np.all(np.isfinite(buf.samples))

    def test_rejects_mismatched_config(self, tiny_config, tiny_store,
                                       mixture):
        stream = pipeline.encode_mixture(
            mixture.mixture, (S,), tiny_config, tiny_store)
        import dataclasses

        other_rate = dataclasses.replace(tiny_config, sample_rate=32000)
        with pytest.raises(InvalidArgumentError):
            pipeline.decode_stream(stream, other_rate, tiny_store)
        fewer_books = dataclasses.replace(tiny_config, n_codebooks=2)
        with pytest.raises(InvalidArgumentError):
            pipeline.decode_stream(stream, fewer_books, tiny_store)

    def test_rejects_analyzer_only_family(self, tiny_config, tiny_store,
                                          mixture):
        import dataclasses

        stream = pipeline.encode_mixture(
            mixture.mixture, (S,), tiny_config, tiny_store)
        config = dataclasses.replace(tiny_config, arch_family="SDCodec")
        with pytest.raises(InvalidArgumentError, match="cost analysis only"):
            pipeline.decode_stream(stream, config, tiny_store)

    def test_rejects_inconsistent_frame_count(self, tiny_config, tiny_store,
                                              mixture):
        from sunac.bitstream import EncodedStream

        stream = pipeline.encode_mixture(
            mixture.mixture, (S,), tiny_config, tiny_store)
        lying = EncodedStream(
            sample_rate=stream.sample_rate,
            prompt_types=stream.prompt_types,
            codes=stream.codes,
            original_len=stream.original_len + 320,
            bits_per_code=stream.bits_per_code)
        with pytest.raises(InvalidArgumentError):
            pipeline.decode_stream(lying, tiny_config, tiny_store)

    def test_separate_is_encode_then_decode(self, tiny_config, tiny_store,
                                            mixture):
        via_stream = pipeline.decode_stream(
            pipeline.encode_mixture(mixture.mixture, (S, M), tiny_config,
                                    tiny_store),
            tiny_config, tiny_store)
        direct = pipeline.separate(mixture.mixture, (S, M), tiny_config,
                                   tiny_store)
        for (a, _), (b, _) in zip(via_stream, direct):
            np.testing.assert_array_equal(a.samples, b.samples)


SSM = (S, S, M)


def _model(request, which):
    return (request.getfixturevalue(f"{which}_config"),
            request.getfixturevalue(f"{which}_store"))


def _one_second_mixture():
    return fixtures.realize(fixtures.make_mixture(
        ["speech", "speech", "music"], seed=16, duration_s=1.0)).mixture


class TestSourceStack:
    """The per-source layers run once over all prompted sources, and each
    source gets the bits one call per source gives it."""

    @pytest.mark.parametrize("which", ["tiny", "full"])
    def test_extract_features_is_bit_equal_to_a_per_source_loop(
            self, request, which):
        config, store = _model(request, which)
        audio = _one_second_mixture()
        got = pipeline.extract_features(audio, SSM, config, store)
        weights = extractor.ExtractorWeights.from_store(store, config)
        x, p = extractor.cross_prompt(
            codec.encode(audio, config, store), SSM,
            extractor.PromptBank.from_store(store), weights.cross)
        assert len(got) == len(SSM)
        for n, fmap in enumerate(got):
            want = extractor.film(x, p[:, n], weights.film)
            for layer in weights.refine:
                want = numerics.transformer_block(want, layer)
            np.testing.assert_array_equal(fmap, want, err_msg=f"source {n}")

    @pytest.mark.parametrize("which, prompts", [
        ("tiny", SSM), ("full", SSM), ("tiny", SSM + (X, X, M))])
    def test_decode_stream_is_bit_equal_to_a_per_source_loop(
            self, request, which, prompts):
        # Six 50-frame sources decode as a group of five and a lone one.
        config, store = _model(request, which)
        stream = pipeline.encode_mixture(_one_second_mixture(), prompts,
                                         config, store)
        got = pipeline.decode_stream(stream, config, store)
        quantizer = rvq.RvqWeights.from_store(store, config)
        for n, (buf, ptype) in enumerate(got):
            features = rvq.codes_to_features(stream.codes[n], quantizer)
            want = codec.decode(features, config, store).samples
            assert ptype is prompts[n]
            np.testing.assert_array_equal(
                buf.samples, want[: stream.original_len], err_msg=f"source {n}")

    def test_each_per_source_layer_runs_once_per_round_trip(
            self, monkeypatch, full_config, full_store):
        calls = []
        block = numerics.transformer_block

        def counted(x, weights, **kwargs):
            calls.append(kwargs.get("name"))
            return block(x, weights, **kwargs)

        monkeypatch.setattr(numerics, "transformer_block", counted)
        monkeypatch.setattr(extractor, "transformer_block", counted)
        audio = _one_second_mixture()
        stream = pipeline.encode_mixture(audio, (S, M), full_config,
                                         full_store)
        pipeline.decode_stream(stream, full_config, full_store)
        assert sorted(calls) == sorted([
            "extractor.cross", "extractor.refine0", "extractor.refine1",
            "decoder.transformer0", "decoder.transformer1",
            "decoder.transformer2"])

    def test_three_source_4s_decode_stays_under_the_one_source_ceiling(
            self, full_config, full_store):
        # The one-source 4 s decode ceiling (36 MiB, in test_codec.py) holds
        # for three sources: 200-frame maps decode one at a time, and
        # shorter ones share only the head, whose size the row cap bounds.
        # Traced 32.8 MiB, as for one source.
        audio = fixtures.realize(fixtures.make_mixture(
            ["speech", "music"], seed=17, duration_s=4.0)).mixture
        stream = pipeline.encode_mixture(audio, SSM, full_config, full_store)
        tracemalloc.start()
        try:
            decoded = pipeline.decode_stream(stream, full_config, full_store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        features = 4 * full_config.latent_dim * stream.n_frames * len(SSM)
        samples = sum(buf.samples.nbytes for buf, _ in decoded)
        assert peak - features - samples < 36 * 2**20


@pytest.mark.parametrize("tensor, stage", [
    ("encoder.conv_in.weight", "codec.encode"),
    ("extractor.film.scale.weight", "extractor.film"),
    ("rvq.down.weight", "rvq.down"),
    ("rvq.codebook3", "rvq.codebook3"),
    ("rvq.up.weight", "rvq.up projection"),
    ("decoder.conv_out.weight", "codec.decode"),
])
def test_non_finite_weight_names_its_stage(tiny_config, tiny_store, mixture,
                                           tensor, stage):
    bad = tiny_store[tensor].copy()
    bad.flat[0] = np.nan
    store = codec.WeightStore(tiny_store.seed, {**tiny_store.tensors, tensor: bad})
    with pytest.raises(NumericError, match=f"non-finite output in {stage}"):
        pipeline.separate(mixture.mixture, (S, M), tiny_config, store)


def test_minute_long_round_trip_stays_under_memory_ceilings(tiny_config,
                                                            tiny_store, rng):
    # Traced peaks of a 60 s input (3.8 MB of float32 samples): about 67 MB
    # to encode and 41 MB to decode.  Full-length float64 convolution
    # buffers would need about 127 and 62 MB.
    audio = AudioBuffer(
        (0.1 * rng.standard_normal(60 * 16000)).astype(np.float32), 16000)
    tracemalloc.start()
    try:
        stream = pipeline.encode_mixture(audio, (S,), tiny_config, tiny_store)
        encode_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        decoded = pipeline.decode_stream(stream, tiny_config, tiny_store)
        decode_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decoded[0][0].n_samples == audio.n_samples
    assert encode_peak < 80e6
    assert decode_peak < 45e6


def noisy_copy(buf, rng, scale=0.01):
    noise = scale * rng.standard_normal(buf.n_samples).astype(np.float32)
    return AudioBuffer(buf.samples + noise, buf.sample_rate)


class TestEvaluateEstimates:
    def test_perfect_estimates_hit_ceiling(self, mixture):
        ests = [buf for buf, _ in mixture.sources]
        report = pipeline.evaluate_estimates(mixture, ests, mode="direct")
        assert report.assignment.permutation == (0, 1)
        for row in report.rows:
            assert row.si_sdr_db == 100.0
        assert report.mean_si_sdr_db == 100.0

    def test_swapped_same_type_estimates_are_reassigned(self, rng):
        manifest = fixtures.make_mixture(["speech", "speech"], seed=5,
                                         duration_s=0.2)
        ss = fixtures.realize(manifest)
        a, b = (buf for buf, _ in ss.sources)
        report = pipeline.evaluate_estimates(
            ss, [noisy_copy(b, rng), noisy_copy(a, rng)], mode="direct")
        assert report.assignment.permutation == (1, 0)
        assert report.rows[0].estimate_index == 1

    def test_masked_mode_needs_mixture(self, mixture):
        no_mix = type(mixture)(sources=mixture.sources)
        ests = [buf for buf, _ in mixture.sources]
        with pytest.raises(InvalidArgumentError):
            pipeline.evaluate_estimates(no_mix, ests, mode="masked")

    def test_masked_mode_rescores_through_mask(self, mixture):
        ests = [buf for buf, _ in mixture.sources]
        masked = pipeline.evaluate_estimates(mixture, ests, mode="masked")
        direct = pipeline.evaluate_estimates(mixture, ests, mode="direct")
        assert masked.mode == "masked"
        # The mask bound is an approximation, so masked scores sit below
        # the direct ceiling but stay high for band-separated fixtures.
        assert masked.mean_si_sdr_db < direct.mean_si_sdr_db
        assert masked.mean_si_sdr_db > 10.0

    def test_masked_mode_takes_bare_arrays(self, mixture):
        # Arrays are read at the mixture's rate, as direct mode reads them.
        bufs = [buf for buf, _ in mixture.sources]
        arrays = [buf.samples.copy() for buf in bufs]
        for mode in pipeline.EVAL_MODES:
            want = pipeline.evaluate_estimates(mixture, bufs, mode=mode)
            got = pipeline.evaluate_estimates(mixture, arrays, mode=mode)
            assert got == want

    def test_unknown_mode(self, mixture):
        with pytest.raises(InvalidArgumentError):
            pipeline.evaluate_estimates(
                mixture, [buf for buf, _ in mixture.sources], mode="oracle")

    def test_report_lines_are_complete(self, mixture):
        ests = [buf for buf, _ in mixture.sources]
        report = pipeline.evaluate_estimates(mixture, ests)
        lines = report.lines()
        assert lines[0] == "mode=direct n_sources=2 permutation=0,1"
        assert len(lines) == 4
        assert lines[-1].startswith("mean_si_sdr_db=")


class TestEvaluateManifest:
    def test_identity_estimates_score_at_ceiling(self):
        manifest = fixtures.make_mixture(["speech", "sfx"], seed=30,
                                         duration_s=0.2)
        rendered = fixtures.realize(manifest)
        # What a decode-to-wav-and-read-back pipeline would hand us.
        ests = [AudioBuffer(pcm16_roundtrip(buf.samples), buf.sample_rate)
                for buf, _ in rendered.sources]
        report = pipeline.evaluate_manifest(manifest, ests, mode="direct")
        for row in report.rows:
            assert row.si_sdr_db == 100.0

    def test_quantization_is_not_penalized(self):
        # Raw float estimates score slightly below quantized ones against
        # quantized references; both stay far above any failure threshold.
        manifest = fixtures.make_mixture(["music"], seed=31, duration_s=0.2)
        rendered = fixtures.realize(manifest)
        raw = [buf for buf, _ in rendered.sources]
        report = pipeline.evaluate_manifest(manifest, raw, mode="direct")
        assert report.rows[0].si_sdr_db > 60.0
