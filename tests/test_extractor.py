import numpy as np
import pytest

import oracles
from sunac import codec, extractor
from sunac.errors import ContractViolationError, InvalidArgumentError
from sunac.extractor import PromptType


@pytest.fixture(scope="module")
def parts(tiny_config, tiny_store):
    return (
        extractor.PromptBank.from_store(tiny_store),
        extractor.ExtractorWeights.from_store(tiny_store, tiny_config),
    )


def latents(tiny_config, n_frames=10, seed=5):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(
        (tiny_config.latent_dim, n_frames)).astype(np.float32)


class TestPromptType:
    @pytest.mark.parametrize("text,expected", [
        ("speech", PromptType.SPEECH),
        ("MUSIC", PromptType.MUSIC),
        (" Sfx ", PromptType.SFX),
        ("mix", PromptType.MIX),
    ])
    def test_parse(self, text, expected):
        assert PromptType.parse(text) is expected

    def test_parse_rejects_unknown(self):
        with pytest.raises(InvalidArgumentError):
            PromptType.parse("vocals")

    def test_wire_tags_are_stable(self):
        assert [p.wire_tag for p in (PromptType.SPEECH, PromptType.MUSIC,
                                     PromptType.SFX, PromptType.MIX)] == [0, 1, 2, 3]
        for p in PromptType:
            assert PromptType.from_wire_tag(p.wire_tag) is p
        with pytest.raises(InvalidArgumentError):
            PromptType.from_wire_tag(4)

    def test_parse_prompts(self):
        got = extractor.parse_prompts("speech, speech,music")
        assert got == (PromptType.SPEECH, PromptType.SPEECH, PromptType.MUSIC)
        with pytest.raises(InvalidArgumentError):
            extractor.parse_prompts("  ,  ")


class TestPromptBank:
    def test_from_store(self, tiny_config, parts):
        bank, _ = parts
        assert bank.dim == tiny_config.latent_dim
        rows = [bank.vector_for(p) for p in PromptType]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                assert not np.array_equal(rows[i], rows[j])

    def test_shape_validation(self):
        with pytest.raises(ContractViolationError):
            extractor.PromptBank(np.zeros((3, 16), dtype=np.float32))


class TestCrossPrompt:
    def test_shapes(self, tiny_config, parts):
        bank, weights = parts
        x = latents(tiny_config, 10)
        out_x, out_p = extractor.cross_prompt(
            x, (PromptType.SPEECH, PromptType.MUSIC), bank, weights.cross)
        assert out_x.shape == (tiny_config.latent_dim, 10)
        assert out_p.shape == (tiny_config.latent_dim, 2)

    def test_duplicate_prompts_come_out_distinct(self, tiny_config, parts):
        # Same prompt vector at two positions: rotary coding must separate
        # the transformed columns or duplicate sources could never split.
        bank, weights = parts
        x = latents(tiny_config, 8)
        _, out_p = extractor.cross_prompt(
            x, (PromptType.SPEECH, PromptType.SPEECH), bank, weights.cross)
        assert not np.allclose(out_p[:, 0], out_p[:, 1])

    def test_prompt_set_changes_latent_path(self, tiny_config, parts):
        bank, weights = parts
        x = latents(tiny_config, 8)
        a, _ = extractor.cross_prompt(x, (PromptType.SPEECH,), bank,
                                      weights.cross)
        b, _ = extractor.cross_prompt(
            x, (PromptType.SPEECH, PromptType.MUSIC), bank, weights.cross)
        assert not np.allclose(a, b)

    def test_rejects_empty_prompts(self, tiny_config, parts):
        bank, weights = parts
        with pytest.raises(InvalidArgumentError):
            extractor.cross_prompt(latents(tiny_config), (), bank,
                                   weights.cross)

    def test_rejects_dim_mismatch(self, parts):
        bank, weights = parts
        with pytest.raises(ContractViolationError):
            extractor.cross_prompt(
                np.zeros((3, 5), dtype=np.float32), (PromptType.MIX,),
                bank, weights.cross)


def zero_film(dim):
    z = np.zeros((dim, dim), dtype=np.float32)
    v = np.zeros(dim, dtype=np.float32)
    return extractor.FilmWeights(scale_w=z, scale_b=v.copy(),
                                 shift_w=z.copy(), shift_b=v.copy())


class TestFilm:
    def test_zero_weights_are_exact_identity(self, rng):
        x = rng.standard_normal((16, 9)).astype(np.float32)
        p = rng.standard_normal(16).astype(np.float32)
        out = extractor.film(x, p, zero_film(16))
        np.testing.assert_array_equal(out, x)

    def test_unit_gain_doubles(self, rng):
        x = rng.standard_normal((16, 9)).astype(np.float32)
        p = rng.standard_normal(16).astype(np.float32)
        w = extractor.FilmWeights(
            scale_w=np.zeros((16, 16), dtype=np.float32),
            scale_b=np.ones(16, dtype=np.float32),
            shift_w=np.zeros((16, 16), dtype=np.float32),
            shift_b=np.zeros(16, dtype=np.float32))
        np.testing.assert_array_equal(extractor.film(x, p, w), 2.0 * x)

    def test_matches_columnwise_oracle(self, rng):
        x = rng.standard_normal((12, 7)).astype(np.float32)
        p = rng.standard_normal(12).astype(np.float32)
        w = extractor.FilmWeights(
            scale_w=(0.1 * rng.standard_normal((12, 12))).astype(np.float32),
            scale_b=(0.1 * rng.standard_normal(12)).astype(np.float32),
            shift_w=(0.1 * rng.standard_normal((12, 12))).astype(np.float32),
            shift_b=(0.1 * rng.standard_normal(12)).astype(np.float32))
        got = extractor.film(x, p, w)
        want = oracles.film_naive(
            x.astype(np.float64), p.astype(np.float64),
            w.scale_w.astype(np.float64), w.scale_b.astype(np.float64),
            w.shift_w.astype(np.float64), w.shift_b.astype(np.float64))
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_rejects_mismatched_prompt(self, rng):
        x = rng.standard_normal((16, 4)).astype(np.float32)
        with pytest.raises(ContractViolationError):
            extractor.film(x, np.zeros(8, dtype=np.float32), zero_film(16))

    def test_rejects_zero_prompt_columns(self, rng):
        x = rng.standard_normal((16, 4)).astype(np.float32)
        with pytest.raises(InvalidArgumentError):
            extractor.film(x, np.zeros((16, 0), dtype=np.float32),
                           zero_film(16))

    @pytest.mark.parametrize("dim", [16, 1024])
    def test_prompt_columns_are_bit_equal_to_one_call_each(self, dim):
        # One matrix-vector product per column, as a single column gets.
        rng = np.random.default_rng(dim)
        bound = np.sqrt(1.0 / dim)

        def uniform(*shape):
            return rng.uniform(-bound, bound, shape).astype(np.float32)

        w = extractor.FilmWeights(uniform(dim, dim), uniform(dim),
                                  uniform(dim, dim), uniform(dim))
        x = rng.standard_normal((dim, 50)).astype(np.float32)
        columns = rng.standard_normal((dim, 3)).astype(np.float32)
        got = extractor.film(x, columns, w)
        assert got.shape == (3, dim, 50)
        for n in range(3):
            np.testing.assert_array_equal(
                got[n], extractor.film(x, columns[:, n], w))


class TestExtract:
    @pytest.mark.parametrize("prompts", [
        (PromptType.MIX,),
        (PromptType.SPEECH, PromptType.MUSIC),
        (PromptType.SPEECH, PromptType.SPEECH, PromptType.SFX),
        (PromptType.SPEECH, PromptType.MUSIC, PromptType.SFX, PromptType.MIX),
    ])
    def test_one_map_per_prompt(self, tiny_config, parts, prompts):
        bank, weights = parts
        x = latents(tiny_config, 6)
        maps = extractor.extract(x, prompts, bank, weights)
        assert len(maps) == len(prompts)
        for m in maps:
            assert m.shape == x.shape
            assert np.all(np.isfinite(m))

    def test_each_layer_runs_once_for_all_prompts(self, tiny_config, parts,
                                                  monkeypatch):
        # Three 200-frame maps make three groups of one (see
        # numerics.stack_groups); the layers split the stack themselves.
        bank, weights = parts
        x = latents(tiny_config, 200)
        prompts = (PromptType.SPEECH, PromptType.SPEECH, PromptType.MUSIC)
        calls = []
        film, block = extractor.film, extractor.transformer_block

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(kwargs.get("name", "film"))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(extractor, "film", counted(film))
        monkeypatch.setattr(extractor, "transformer_block", counted(block))
        maps = extractor.extract(x, prompts, bank, weights)
        assert calls == ["extractor.cross", "film", "extractor.refine0",
                         "extractor.refine1"]
        x_shared, p_shared = extractor.cross_prompt(x, prompts, bank,
                                                    weights.cross)
        for n, got in enumerate(maps):
            want = film(x_shared, p_shared[:, n], weights.film)
            for layer in weights.refine:
                want = block(want, layer)
            np.testing.assert_array_equal(got, want, err_msg=f"prompt {n}")

    def test_deterministic(self, tiny_config, parts):
        bank, weights = parts
        x = latents(tiny_config, 6)
        prompts = (PromptType.SPEECH, PromptType.MUSIC)
        a = extractor.extract(x, prompts, bank, weights)
        b = extractor.extract(x, prompts, bank, weights)
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma, mb)

    def test_duplicate_prompts_give_distinct_maps(self, tiny_config, parts):
        bank, weights = parts
        x = latents(tiny_config, 6)
        maps = extractor.extract(
            x, (PromptType.SPEECH, PromptType.SPEECH), bank, weights)
        assert not np.allclose(maps[0], maps[1])

    def test_prompt_order_matters_per_slot(self, tiny_config, parts):
        bank, weights = parts
        x = latents(tiny_config, 6)
        sm = extractor.extract(
            x, (PromptType.SPEECH, PromptType.MUSIC), bank, weights)
        ms = extractor.extract(
            x, (PromptType.MUSIC, PromptType.SPEECH), bank, weights)
        # The speech map shifts when the speech prompt moves position.
        assert not np.allclose(sm[0], ms[1])

    def test_branch_weights_are_shared_objects(self, tiny_config, tiny_store):
        # One FiLM, one refine pair, no per-prompt parameter copies: the
        # store must carry exactly one extractor tensor set.
        names = [s.name for s in codec.manifest(tiny_config)
                 if s.name.startswith("extractor.")]
        film_names = [n for n in names if n.startswith("extractor.film.")]
        assert sorted(film_names) == [
            "extractor.film.scale.bias", "extractor.film.scale.weight",
            "extractor.film.shift.bias", "extractor.film.shift.weight",
        ]
        refine_prefixes = {n.split(".")[1] for n in names
                           if n.startswith("extractor.refine")}
        assert refine_prefixes == {"refine0", "refine1"}
        weights = extractor.ExtractorWeights.from_store(tiny_store, tiny_config)
        assert len(weights.refine) == 2
