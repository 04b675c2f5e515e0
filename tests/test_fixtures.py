import json

import numpy as np
import pytest

from sunac import assignment, fixtures
from sunac.errors import ConfigError, InvalidArgumentError
from sunac.extractor import PromptType

S, M, X = PromptType.SPEECH, PromptType.MUSIC, PromptType.SFX


def band_energy_fraction(samples, low, high, rate):
    spectrum = np.abs(np.fft.rfft(samples.astype(np.float64))) ** 2
    freqs = np.fft.rfftfreq(samples.shape[0], 1.0 / rate)
    inside = spectrum[(freqs >= low) & (freqs <= high)].sum()
    return inside / spectrum.sum()


class TestGenerate:
    @pytest.mark.parametrize("generator", fixtures.GENERATORS)
    def test_deterministic(self, generator):
        spec = fixtures.FixtureSpec(prompt_type=M, generator=generator,
                                    seed=42)
        a = fixtures.generate(spec)
        b = fixtures.generate(spec)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_length_and_rate(self):
        spec = fixtures.FixtureSpec(prompt_type=S,
                                    generator="band_limited_noise", seed=1)
        buf = fixtures.generate(spec, duration_s=1.0, sample_rate=16000)
        assert buf.n_samples == 16000
        assert buf.sample_rate == 16000

    def test_rms_normalization(self):
        for generator in fixtures.GENERATORS:
            spec = fixtures.FixtureSpec(prompt_type=X, generator=generator,
                                        seed=5)
            buf = fixtures.generate(spec)
            rms = float(np.sqrt(np.mean(buf.samples ** 2)))
            assert rms == pytest.approx(fixtures.TARGET_RMS, rel=1e-4)

    @pytest.mark.parametrize("ptype", [S, M, X])
    def test_energy_stays_in_band(self, ptype):
        spec = fixtures.FixtureSpec(
            prompt_type=ptype,
            generator=fixtures._DEFAULT_GENERATOR[ptype], seed=9)
        buf = fixtures.generate(spec)
        low, high = fixtures.DEFAULT_BANDS[ptype]
        frac = band_energy_fraction(buf.samples, low, high, buf.sample_rate)
        assert frac >= 0.95

    def test_custom_band_is_respected(self):
        spec = fixtures.FixtureSpec(prompt_type=M, generator="harmonic_tone",
                                    seed=3, band=(1000.0, 2000.0))
        buf = fixtures.generate(spec)
        frac = band_energy_fraction(buf.samples, 1000.0, 2000.0,
                                    buf.sample_rate)
        assert frac >= 0.95

    def test_distinct_seeds_are_uncorrelated(self):
        a = fixtures.generate(fixtures.FixtureSpec(
            prompt_type=S, generator="band_limited_noise", seed=1))
        b = fixtures.generate(fixtures.FixtureSpec(
            prompt_type=S, generator="band_limited_noise", seed=2))
        assert assignment.si_sdr(a.samples, b.samples) < 0.0

    def test_rejects_bad_durations(self):
        spec = fixtures.FixtureSpec(prompt_type=S,
                                    generator="band_limited_noise", seed=1)
        with pytest.raises(InvalidArgumentError):
            fixtures.generate(spec, duration_s=0.0)
        with pytest.raises(InvalidArgumentError):
            fixtures.generate(spec, duration_s=1e-5)
        for duration in (float("nan"), float("inf"), 1e12, 1e305):
            with pytest.raises(InvalidArgumentError):
                fixtures.generate(spec, duration_s=duration)

    @pytest.mark.parametrize("fields", [
        dict(seed=-1), dict(seed=1.5), dict(seed="3"),
        dict(seed=0, band=(100.0,)), dict(seed=0, band=(100.0, 200.0, 300.0)),
        dict(seed=0, band=("low", "high")), dict(seed=0, band=5),
    ])
    def test_spec_rejects_bad_seed_or_band(self, fields):
        with pytest.raises(InvalidArgumentError):
            fixtures.FixtureSpec(prompt_type=S,
                                 generator="band_limited_noise", **fields)

    def test_spec_parses_its_prompt_type(self):
        spec = fixtures.FixtureSpec(prompt_type="speech",
                                    generator="band_limited_noise", seed=0)
        assert spec.prompt_type is S
        with pytest.raises(InvalidArgumentError):
            fixtures.FixtureSpec(prompt_type="bogus",
                                 generator="band_limited_noise", seed=0)

    def test_rejects_unknown_generator(self):
        with pytest.raises(InvalidArgumentError):
            fixtures.FixtureSpec(prompt_type=S, generator="square_wave",
                                 seed=0)

    def test_band_above_nyquist_is_rejected(self):
        spec = fixtures.FixtureSpec(prompt_type=S,
                                    generator="band_limited_noise",
                                    seed=0, band=(100.0, 9000.0))
        with pytest.raises(InvalidArgumentError):
            fixtures.generate(spec, sample_rate=16000)


class TestSourceConstraints:
    def test_allows_canonical_sets(self):
        fixtures.check_source_constraints([S])
        fixtures.check_source_constraints([S, M])
        fixtures.check_source_constraints([S, M, X])
        fixtures.check_source_constraints([S, S, M])

    def test_rejects_triple_speech(self):
        with pytest.raises(InvalidArgumentError):
            fixtures.check_source_constraints([S, S, S])

    def test_rejects_duplicate_music_or_sfx(self):
        with pytest.raises(InvalidArgumentError):
            fixtures.check_source_constraints([M, M])
        with pytest.raises(InvalidArgumentError):
            fixtures.check_source_constraints([X, X])

    def test_rejects_mix_as_source(self):
        with pytest.raises(InvalidArgumentError):
            fixtures.check_source_constraints([S, PromptType.MIX])

    def test_four_sources_need_override(self):
        quad = [S, S, M, X]
        with pytest.raises(InvalidArgumentError):
            fixtures.check_source_constraints(quad)
        fixtures.check_source_constraints(quad, allow_four_sources=True)

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            fixtures.check_source_constraints([])


class TestMakeMixture:
    def test_additivity_within_tolerance(self):
        manifest = fixtures.make_mixture(["speech", "music", "sfx"], seed=4)
        ss = fixtures.realize(manifest)
        total = np.sum([b.samples.astype(np.float64) for b in ss.buffers()],
                       axis=0)
        drift = np.max(np.abs(total - ss.mixture.samples))
        assert drift <= 1e-6

    def test_accepts_type_objects_and_names(self):
        a = fixtures.make_mixture([S, M], seed=1)
        b = fixtures.make_mixture(["speech", "music"], seed=1)
        assert a == b

    def test_accepts_ready_specs(self):
        spec = fixtures.FixtureSpec(prompt_type=M, generator="chirp_burst",
                                    seed=77, band=(500.0, 900.0))
        manifest = fixtures.make_mixture([spec, "speech"], seed=0)
        assert manifest.sources[0] == spec
        assert manifest.sources[1].prompt_type is S

    def test_two_speech_sources_get_disjoint_subbands(self):
        manifest = fixtures.make_mixture(["speech", "speech"], seed=0)
        bands = [spec.band for spec in manifest.sources]
        assert bands[0] == fixtures.SPEECH_SUBBANDS[0]
        assert bands[1] == fixtures.SPEECH_SUBBANDS[1]
        assert bands[0][1] <= bands[1][0]

    def test_single_speech_keeps_default_band(self):
        manifest = fixtures.make_mixture(["speech", "music"], seed=0)
        assert manifest.sources[0].band is None

    def test_seed_offsets_per_position(self):
        manifest = fixtures.make_mixture(["speech", "music"], seed=10)
        assert [s.seed for s in manifest.sources] == [10, 11]

    def test_constraints_enforced(self):
        with pytest.raises(InvalidArgumentError):
            fixtures.make_mixture(["speech"] * 3)
        with pytest.raises(InvalidArgumentError):
            fixtures.make_mixture(["mix"])
        quad = fixtures.make_mixture(["speech", "speech", "music", "sfx"],
                                     allow_four_sources=True)
        assert len(quad.sources) == 4

    def test_realize_types_follow_manifest(self):
        manifest = fixtures.make_mixture(["sfx", "speech"], seed=2)
        ss = fixtures.realize(manifest)
        assert ss.types == (X, S)
        assert ss.mixture is not None


class TestManifestSerialization:
    def test_json_roundtrip(self):
        manifest = fixtures.make_mixture(["speech", "speech", "sfx"],
                                         seed=21, duration_s=0.5)
        back = fixtures.MixtureManifest.from_json(manifest.to_json())
        assert back == manifest

    def test_file_roundtrip(self, tmp_path):
        manifest = fixtures.make_mixture(["music"], seed=8)
        path = str(tmp_path / "m.json")
        fixtures.save_manifest(manifest, path)
        assert fixtures.load_manifest(path) == manifest

    def test_rejects_malformed_json(self):
        with pytest.raises(ConfigError):
            fixtures.MixtureManifest.from_json("not json at all")
        with pytest.raises(ConfigError):
            fixtures.MixtureManifest.from_json('{"sample_rate": 16000}')

    @pytest.mark.parametrize("field, value", [
        ("duration_s", "abc"), ("sample_rate", "abc"),
        ("sample_rate", float("inf")), ("seed", "x"), ("seed", -1),
        ("band", [100.0]), ("prompt_type", 5), ("sample_rate", 16000.7),
        ("sample_rate", 0), ("sample_rate", -16000),
    ])
    def test_rejects_bad_values(self, field, value):
        payload = json.loads(fixtures.make_mixture(["speech"], seed=1).to_json())
        target = payload if field in payload else payload["sources"][0]
        target[field] = value
        with pytest.raises(ConfigError):
            fixtures.MixtureManifest.from_json(json.dumps(payload))

    def test_integral_rate_is_stored_as_int(self):
        sources = fixtures.make_mixture(["speech"], seed=1).sources
        rate = fixtures.MixtureManifest(sources, sample_rate=16000.0).sample_rate
        assert rate == 16000 and isinstance(rate, int)

    def test_realize_is_deterministic_across_roundtrip(self):
        manifest = fixtures.make_mixture(["speech", "music"], seed=3)
        direct = fixtures.realize(manifest)
        reloaded = fixtures.realize(
            fixtures.MixtureManifest.from_json(manifest.to_json()))
        np.testing.assert_array_equal(direct.mixture.samples,
                                      reloaded.mixture.samples)
        for (a, _), (b, _) in zip(direct.sources, reloaded.sources):
            np.testing.assert_array_equal(a.samples, b.samples)
