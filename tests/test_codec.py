import dataclasses
import math
import os
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from sunac import codec, numerics
from sunac.audio import AudioBuffer
from sunac.errors import (
    ConfigError,
    ContractViolationError,
    CorruptStreamError,
    InvalidArgumentError,
)


class TestModelConfig:
    def test_defaults_are_valid(self):
        config = codec.ModelConfig()
        assert config.arch_family == "SUNAC"
        assert config.hop == 320
        assert config.token_rate == 50
        assert config.bits_per_code == 10

    def test_every_family_has_a_default(self):
        for family in ("DAC", "DACT", "SDCodec", "SDCodecT", "SUNAC"):
            config = codec.default_config(family)
            assert config.arch_family == family
        with pytest.raises(ConfigError):
            codec.default_config("EnCodec")

    def test_runnable_flags(self):
        assert codec.default_config("DAC").is_runnable
        assert codec.default_config("DACT").is_runnable
        assert codec.default_config("SUNAC").is_runnable
        assert not codec.default_config("SDCodec").is_runnable
        assert not codec.default_config("SDCodecT").is_runnable

    def test_rvq_module_counts(self):
        assert codec.default_config("SUNAC").n_rvq_modules == 1
        assert codec.default_config("DAC").n_rvq_modules == 1
        assert codec.default_config("SDCodec").n_rvq_modules == 3
        assert codec.default_config("SDCodecT").n_rvq_modules == 3

    @pytest.mark.parametrize("overrides", [
        dict(arch_family="nope"),
        dict(sample_rate=0),
        dict(strides=()),
        dict(strides=(2, 0, 5)),
        dict(sample_rate=44100),        # hop 320 does not divide it
        dict(n_codebooks=0),
        dict(codebook_size=1),
        dict(code_dim=0),
        dict(latent_dim=512),           # must match transformer_hidden
        dict(n_heads=7),                # does not divide 1024
        dict(n_heads=0),
        dict(strides=("a",)),
        dict(dec_base_dim=100),         # not divisible by 2^4
        dict(strides=(2.7, 4, 5, 8)),
        dict(strides=(float("inf"),)),
        dict(n_codebooks=1.5),
        dict(codebook_size=2.5),
        dict(enc_base_dim=2.5),
        dict(sample_rate="16000"),
        dict(n_heads=float("nan")),
        dict(strides=5),
    ])
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(ConfigError):
            codec.ModelConfig(**overrides)

    def test_integral_values_are_stored_as_int(self):
        config = codec.ModelConfig(n_heads=8.0, strides=(2.0, 4, 5, 8))
        assert config == codec.ModelConfig()
        assert type(config.n_heads) is int
        assert all(type(s) is int for s in config.strides)
        assert config.to_json() == codec.ModelConfig().to_json()

    def test_json_roundtrip(self, tiny_config):
        text = tiny_config.to_json()
        back = codec.ModelConfig.from_json(text)
        assert back == tiny_config

    def test_json_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            codec.ModelConfig.from_json('{"arch_family": "SUNAC", "nope": 1}')
        with pytest.raises(ConfigError):
            codec.ModelConfig.from_json("not json")
        with pytest.raises(ConfigError):
            codec.ModelConfig.from_json('[1, 2]')

    def test_bitrate_arithmetic(self):
        # 12 codebooks x 10 bits x 50 tokens/s.
        assert codec.bitrate_bps(codec.default_config("SUNAC")) == 6000


class TestManifest:
    def test_linear_node_parameter_count(self):
        node = codec.LinearNode("probe", 1024, 1024)
        total = sum(spec.size for spec in node.manifest())
        assert total == 1_049_600

    def test_names_are_unique(self, tiny_config):
        names = [spec.name for spec in codec.manifest(tiny_config)]
        assert len(names) == len(set(names))

    def test_count_params_matches_materialized_store(self, tiny_config,
                                                     tiny_store):
        count = codec.count_params(tiny_config)
        assert count.total == tiny_store.total_params
        for name, size in count.per_tensor.items():
            assert tiny_store[name].size == size

    def test_group_totals_partition_the_model(self, tiny_config):
        names = codec.count_params(tiny_config).per_tensor
        groups = ("encoder.", "decoder.", "extractor.", "rvq.")
        assert all(sum(n.startswith(g) for g in groups) == 1 for n in names)

    def test_full_size_totals(self):
        # Targets with a five percent band; exact reproduction is not
        # expected because initializer conventions differ across stacks.
        targets = {
            "DAC": 74.10e6,
            "DACT": 66.42e6,
            "SDCodec": 74.82e6,
            "SDCodecT": 67.06e6,
            "SUNAC": 69.17e6,
        }
        for family, target in targets.items():
            total = codec.count_params(codec.default_config(family)).total
            assert abs(total - target) / target < 0.05, (family, total)

    def test_analyzer_only_families_have_three_quantizers(self):
        config = codec.default_config("SDCodec")
        names = {spec.name for spec in codec.manifest(config)}
        assert "rvq0.down.weight" in names
        assert "rvq2.codebook0" in names
        assert "rvq.down.weight" not in names


class TestInitWeights:
    def test_deterministic_for_equal_seeds(self, tiny_config):
        a = codec.init_weights(tiny_config, seed=7)
        b = codec.init_weights(tiny_config, seed=7)
        assert a.names() == b.names()
        for name in a.names():
            np.testing.assert_array_equal(a[name], b[name])

    def test_seed_changes_weights(self, tiny_config):
        a = codec.init_weights(tiny_config, seed=7)
        b = codec.init_weights(tiny_config, seed=8)
        changed = sum(not np.array_equal(a[name], b[name])
                      for name in a.names())
        assert changed > 0

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_seed_must_fit_weight_file(self, tiny_config, seed):
        with pytest.raises(InvalidArgumentError):
            codec.init_weights(tiny_config, seed)

    def test_largest_seed_round_trips(self, tiny_config, tmp_path):
        path = str(tmp_path / "weights.suwt")
        codec.init_weights(tiny_config, 2**64 - 1).save(path)
        assert codec.load_weights(path, tiny_config).seed == 2**64 - 1

    def test_uniform_bound_respected(self, tiny_config, tiny_store):
        for spec in codec.manifest(tiny_config):
            if spec.init == codec.INIT_UNIFORM:
                bound = math.sqrt(1.0 / max(spec.fan_in, 1))
                tensor = tiny_store[spec.name]
                assert np.abs(tensor).max() <= bound

    def test_codebook_entry_zero_is_pinned(self, tiny_config, tiny_store):
        for i in range(tiny_config.n_codebooks):
            book = tiny_store[f"rvq.codebook{i}"]
            np.testing.assert_array_equal(book[0], 0.0)
            assert np.abs(book[1:]).max() > 0.0

    def test_norm_gains_start_at_identity(self, tiny_store):
        gains = [n for n in tiny_store.names() if n.endswith("ln1.gain")]
        assert gains
        for name in gains:
            np.testing.assert_array_equal(tiny_store[name], 1.0)

    def test_save_load_roundtrip(self, tiny_config, tiny_store, tmp_path):
        path = str(tmp_path / "weights.suwt")
        tiny_store.save(path)
        back = codec.load_weights(path, tiny_config)
        assert back.seed == tiny_store.seed
        assert back.names() == tiny_store.names()
        for name in tiny_store.names():
            np.testing.assert_array_equal(back[name], tiny_store[name])

    def test_load_rejects_corruption(self, tiny_config, tiny_store, tmp_path):
        path = str(tmp_path / "weights.suwt")
        tiny_store.save(path)
        blob = Path(path).read_bytes()
        bad_magic = str(tmp_path / "bad_magic.suwt")
        Path(bad_magic).write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(CorruptStreamError):
            codec.load_weights(bad_magic, tiny_config)
        truncated = str(tmp_path / "trunc.suwt")
        Path(truncated).write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CorruptStreamError):
            codec.load_weights(truncated, tiny_config)

    @pytest.mark.parametrize("which", ["tiny", "SUNAC"])
    def test_chunked_draws_equal_whole_tensor_draws(self, tiny_config,
                                                    tiny_store, full_config,
                                                    full_store, which):
        config, store = ((tiny_config, tiny_store) if which == "tiny"
                         else (full_config, full_store))
        specs = [(s.name, s.shape, s.init, s.fan_in)
                 for s in codec.manifest(config)]
        names = []
        for name, want in oracles.init_tensors_whole(specs, store.seed):
            names.append(name)
            got = store[name]
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got.view(np.uint32),
                                          want.view(np.uint32), err_msg=name)
        assert names == store.names()

    def test_init_holds_no_float64_copy_of_a_tensor(self, full_config):
        # A whole-tensor float64 draw of decoder.conv_in.weight alone is
        # 42 MiB.  A chunked draw holds at most 16 MiB beyond the tensors
        # drawn so far, under 1 MiB beyond the finished store.
        tracemalloc.start()
        try:
            store = codec.init_weights(full_config, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = sum(t.nbytes for t in store.tensors.values())
        assert peak < stored + 8 * 2**20

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_store_does_not_depend_on_worker_count(self, monkeypatch,
                                                   full_config, full_store,
                                                   workers):
        monkeypatch.setattr(codec, "_init_workers", lambda: workers)
        store = codec.init_weights(full_config, seed=0)
        assert store.names() == full_store.names()
        for name in store.names():
            np.testing.assert_array_equal(store[name].view(np.uint32),
                                          full_store[name].view(np.uint32),
                                          err_msg=name)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_uneven_chunks_keep_the_bits(self, monkeypatch, tiny_config,
                                         tiny_store, workers):
        # 7-value chunks split unevenly over 2 and 3 workers, some parts are
        # empty, and most tensors end in a partial chunk.
        monkeypatch.setattr(codec, "_INIT_CHUNK", 7)
        monkeypatch.setattr(codec, "_init_workers", lambda: workers)
        store = codec.init_weights(tiny_config, seed=tiny_config.seed)
        for name in tiny_store.names():
            np.testing.assert_array_equal(store[name].view(np.uint32),
                                          tiny_store[name].view(np.uint32),
                                          err_msg=name)

    def test_init_leaves_no_thread_running(self, monkeypatch, tiny_config):
        monkeypatch.setattr(codec, "_init_workers", lambda: 3)
        before = threading.active_count()
        codec.init_weights(tiny_config, seed=1)
        assert threading.active_count() == before
        # The unknown rule comes after every drawn tensor, so the pool has
        # started its threads when init_weights raises.
        specs = [*codec.manifest(tiny_config),
                 codec.TensorSpec("extra", (2,), "gaussian", 1)]
        monkeypatch.setattr(codec, "manifest", lambda config: specs)
        with pytest.raises(ConfigError, match="gaussian"):
            codec.init_weights(tiny_config, seed=1)
        assert threading.active_count() == before

    def test_save_and_load_hold_one_tensor_at_a_time(self, tmp_path):
        # A 16 MiB store.  Building the file in memory took two copies of
        # the store to save and the file plus a copy of it to load.
        tensors = {f"t{i}": np.full((1024, 1024), i + 0.5, dtype=np.float32)
                   for i in range(4)}
        path = str(tmp_path / "weights.suwt")
        tracemalloc.start()
        try:
            codec.WeightStore(seed=1, tensors=tensors).save(path)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            back = codec.WeightStore.load(path)
            load_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert save_peak < 2**20
        assert load_peak < os.path.getsize(path) + 8 * 2**20
        assert back.seed == 1 and back.names() == list(tensors)
        for name, tensor in tensors.items():
            np.testing.assert_array_equal(back[name], tensor)

    def test_validate_store_catches_mismatch(self, tiny_config, tiny_store):
        tensors = dict(tiny_store.tensors)
        del tensors["rvq.down.bias"]
        broken = codec.WeightStore(seed=0, tensors=tensors)
        with pytest.raises(ContractViolationError):
            codec.validate_store(tiny_config, broken)
        tensors = dict(tiny_store.tensors)
        tensors["rvq.down.bias"] = np.zeros(99, dtype=np.float32)
        with pytest.raises(ContractViolationError):
            codec.validate_store(tiny_config, codec.WeightStore(0, tensors))

    def test_missing_tensor_lookup(self, tiny_store):
        with pytest.raises(ContractViolationError):
            tiny_store["decoder.nonexistent"]


class TestFrameArithmetic:
    @given(duration=st.floats(min_value=0.02, max_value=10.0,
                              allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_token_count_is_ceil_of_hop_division(self, duration):
        config = codec.ModelConfig()
        n = max(1, round(duration * config.sample_rate))
        assert codec.frames_for_length(config, n) == math.ceil(n / 320)

    @given(n=st.integers(min_value=1, max_value=200_000))
    @settings(max_examples=300, deadline=None)
    def test_token_count_over_sample_counts(self, n):
        config = codec.ModelConfig()
        frames = codec.frames_for_length(config, n)
        assert frames == math.ceil(n / config.hop)
        # ceil means: enough frames to cover, never a full frame spare.
        assert frames * config.hop >= n
        assert (frames - 1) * config.hop < n

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            codec.frames_for_length(codec.ModelConfig(), 0)


class TestTransformerNode:
    # Field of TransformerLayerWeights -> tensor name under the node's name.
    # Both norm gains start at one and both biases at zero, so a swapped
    # pair would leave every output unchanged; only this table catches it.
    FIELDS = {
        "ln1_gain": "ln1.gain", "ln2_gain": "ln2.gain",
        "ln1_bias": "ln1.bias", "ln2_bias": "ln2.bias",
        "wq": "attn.wq.weight", "bq": "attn.wq.bias",
        "wk": "attn.wk.weight", "bk": "attn.wk.bias",
        "wv": "attn.wv.weight", "bv": "attn.wv.bias",
        "wo": "attn.wo.weight", "bo": "attn.wo.bias",
        "ff_w1": "ff.w1.weight", "ff_b1": "ff.w1.bias",
        "ff_w2": "ff.w2.weight", "ff_b2": "ff.w2.bias",
    }

    def test_weights_map_each_field_to_its_tensor(self, tiny_config,
                                                  tiny_store):
        node = codec.decoder_nodes(tiny_config)[0]
        weights = node.weights(tiny_store)
        names = {f.name for f in dataclasses.fields(weights)}
        assert names == set(self.FIELDS) | {"n_heads"}
        assert weights.n_heads == tiny_config.n_heads
        for field, name in self.FIELDS.items():
            assert getattr(weights, field) is tiny_store[f"{node.name}.{name}"]


class _Returns:
    """Stand-in child node whose output is fixed in advance."""

    def __init__(self, y):
        self.y = y

    def manifest(self):
        return []

    def apply(self, x, store):
        return self.y


class TestResidualNode:
    def test_float32_add_equals_float64_add_rounded(self):
        rng = np.random.default_rng(7)
        n = 1 << 16
        # Uniform finite bit patterns: every exponent gap, subnormals and
        # near-max magnitudes whose sums overflow.  A quarter of the pairs
        # are x and -x with scrambled low bits, which cancel.
        bits = rng.integers(0, 1 << 32, size=6 * n, dtype=np.uint64)
        pool = bits.astype(np.uint32).view(np.float32)
        x, y = pool[np.isfinite(pool)][: 2 * n].reshape(2, n)
        noise = rng.integers(0, 1 << 10, size=n, dtype=np.uint32)
        near = -(x.view(np.uint32) ^ noise).view(np.float32)
        y = np.where(rng.random(n) < 0.25, near, y)
        tiny = np.finfo(np.float32).smallest_subnormal
        big = np.finfo(np.float32).max
        x = np.concatenate([x, [tiny, tiny, big, -big, 1, 3]]).astype(np.float32)
        y = np.concatenate([y, [tiny, -tiny, big, -big, 2.0 ** -24, 2.0 ** -23]])
        x, y = x.reshape(1, -1), y.astype(np.float32).reshape(1, -1)
        with np.errstate(over="ignore"):
            got = codec.ResidualNode([_Returns(y)]).apply(x, {})
            want = np.add(x, y, dtype=np.float64).astype(np.float32)
        assert got.dtype == np.float32
        assert np.isinf(got).any() and (got == 0).any()
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


def buffer_of(n, rate=16000, seed=0):
    rng = np.random.default_rng(seed)
    samples = (0.1 * rng.standard_normal(n)).astype(np.float32)
    return AudioBuffer(samples=samples, sample_rate=rate)


class TestEncodeDecode:
    @pytest.mark.parametrize("duration", [0.02, 0.15, 0.5, 1.0, 2.37])
    def test_encode_frame_count(self, tiny_config, tiny_store, duration):
        n = round(duration * 16000)
        features = codec.encode(buffer_of(n), tiny_config, tiny_store)
        assert features.shape == (tiny_config.latent_dim,
                                  math.ceil(n / 320))

    def test_encode_is_deterministic(self, tiny_config, tiny_store):
        buf = buffer_of(3200)
        a = codec.encode(buf, tiny_config, tiny_store)
        b = codec.encode(buf, tiny_config, tiny_store)
        np.testing.assert_array_equal(a, b)

    def test_encode_zero_input_is_finite(self, tiny_config, tiny_store):
        buf = AudioBuffer(samples=np.zeros(1600, dtype=np.float32),
                          sample_rate=16000)
        features = codec.encode(buf, tiny_config, tiny_store)
        assert np.all(np.isfinite(features))

    def test_encode_rejects_wrong_rate(self, tiny_config, tiny_store):
        buf = buffer_of(800, rate=8000)
        with pytest.raises(InvalidArgumentError):
            codec.encode(buf, tiny_config, tiny_store)

    def test_decode_length(self, tiny_config, tiny_store, rng):
        features = rng.standard_normal(
            (tiny_config.latent_dim, 50)).astype(np.float32)
        out = codec.decode(features, tiny_config, tiny_store)
        assert out.samples.shape == (50 * 320,)
        assert out.sample_rate == 16000
        assert np.all(np.isfinite(out.samples))
        assert np.abs(out.samples).max() <= 1.0  # final squash

    def test_decode_rejects_bad_shapes(self, tiny_config, tiny_store, rng):
        with pytest.raises(ContractViolationError):
            codec.decode(rng.standard_normal((3, 50)).astype(np.float32),
                         tiny_config, tiny_store)

    def test_roundtrip_preserves_frame_grid(self, tiny_config, tiny_store):
        buf = buffer_of(1000)  # not a hop multiple; padded to 1280
        features = codec.encode(buf, tiny_config, tiny_store)
        assert features.shape[1] == 4
        out = codec.decode(features, tiny_config, tiny_store)
        assert out.samples.shape == (1280,)

    def test_analyzer_only_families_do_not_run(self, rng):
        config = codec.default_config("SDCodec")
        with pytest.raises(InvalidArgumentError):
            codec.encode(buffer_of(320), config,
                         codec.WeightStore(0, {}))
        with pytest.raises(InvalidArgumentError):
            codec.decode(rng.standard_normal((1024, 5)).astype(np.float32),
                         config, codec.WeightStore(0, {}))

    def test_dac_family_runs_without_transformers(self):
        config = dataclasses.replace(
            codec.default_config("DAC"),
            enc_base_dim=4, dec_base_dim=32, latent_dim=8,
            transformer_hidden=8, n_heads=2, ff_dim=16,
            n_codebooks=2, codebook_size=16, code_dim=4)
        store = codec.init_weights(config, seed=3)
        features = codec.encode(buffer_of(640), config, store)
        assert features.shape == (8, 2)
        out = codec.decode(features, config, store)
        assert out.samples.shape == (640,)


def _toy_dact():
    """DACT at toy widths: Transformer layers end the encoder chain and
    start the decoder chain."""
    return dataclasses.replace(
        codec.default_config("DACT"), enc_base_dim=4, dec_base_dim=32,
        latent_dim=16, transformer_hidden=16, n_heads=2, ff_dim=24,
        n_enc_transformer=2, n_dec_transformer=1, n_codebooks=2,
        codebook_size=16, code_dim=4)


def _random_store(nodes, rng):
    # Snake slopes stay away from zero, which they divide by.
    return {spec.name: rng.uniform(0.5, 1.5, spec.shape).astype(np.float32)
            for node in nodes for spec in node.manifest()}


def _split(x, widths):
    """Column pieces of x with the given widths, the last taking the rest."""
    edges = np.cumsum([0, *widths, x.shape[1]]).clip(max=x.shape[1])
    return [x[:, a:b].copy() for a, b in zip(edges, edges[1:]) if b > a]


class TestStreaming:
    """Streaming the conv stacks must not move a bit: every piece size and
    every way the input can arrive gives the one-piece output."""

    @staticmethod
    def _tiles(monkeypatch, columns):
        monkeypatch.setattr(numerics, "_TILE_COLUMNS", columns)
        monkeypatch.setattr(numerics, "_TILE_CHANNELS", 1)

    @pytest.mark.parametrize("family", ["SUNAC", "DACT"])
    def test_streamed_chains_keep_the_bits(self, monkeypatch, tiny_config,
                                           tiny_store, family):
        # 700 samples pad to 960, so the zero padding arrives as its own
        # piece; 3 frames are shorter than every tile but the 1-column one.
        # The decoder's stride-5 transposed conv has output_padding 1.
        if family == "SUNAC":
            config, store = tiny_config, tiny_store
        else:
            config = _toy_dact()
            store = codec.init_weights(config, seed=5)
        audio = buffer_of(700)
        features = np.random.default_rng(3).standard_normal(
            (config.latent_dim, 3)).astype(np.float32)

        def run():
            return (codec.encode(audio, config, store),
                    codec.decode(features, config, store).samples)

        self._tiles(monkeypatch, 10**9)
        whole = run()
        for columns in (1, 3, 16, 64):
            self._tiles(monkeypatch, columns)
            for got, want in zip(run(), whole):
                np.testing.assert_array_equal(got, want, err_msg=f"{columns}")

    @pytest.mark.parametrize("widths", [(1,), (5, 7, 30, 1, 2), (33, 64),
                                        (199,)])
    def test_residual_unit_over_uneven_pieces(self, monkeypatch, rng, widths):
        # Input pieces end on columns 16-column branch tiles never end on,
        # so skip and branch pieces end on different columns.
        unit = codec._residual_unit("unit", 3, 3)
        store = _random_store([unit], rng)
        x = rng.standard_normal((3, 200)).astype(np.float32)
        self._tiles(monkeypatch, 10**9)
        whole = unit.apply(x, store)
        self._tiles(monkeypatch, 16)
        pieces = list(unit.stream(_split(x, widths), store, 200))
        assert len(pieces) == 13
        np.testing.assert_array_equal(np.concatenate(pieces, axis=1), whole)

    @pytest.mark.parametrize("widths", [(1,), (3, 4, 1, 9), (17,)])
    @pytest.mark.parametrize("columns", [1, 3, 16, 64])
    def test_transposed_conv_with_output_padding_over_pieces(
            self, monkeypatch, rng, widths, columns):
        node = codec.ConvNode("up", 6, 4, 10, stride=5, padding=3,
                              transposed=True, output_padding=1)
        store = _random_store([node], rng)
        x = rng.standard_normal((6, 41)).astype(np.float32)
        whole = numerics.conv1d(x, store["up.weight"], store["up.bias"],
                                stride=5, padding=3, transposed=True,
                                output_padding=1)
        self._tiles(monkeypatch, columns)
        got = np.concatenate(list(node.stream(_split(x, widths), store, 41)),
                             axis=1)
        np.testing.assert_array_equal(got, whole)

    @pytest.mark.parametrize("widths", [(1,), (2, 3, 5, 8, 13, 21, 34),
                                        (320, 1), (959,)])
    def test_encoder_output_does_not_depend_on_input_pieces(
            self, tiny_config, tiny_store, widths):
        x = buffer_of(960).samples[None, :]
        want = codec.encode(AudioBuffer(x[0], 16000), tiny_config, tiny_store)
        got = np.concatenate(list(codec._stream(
            codec.encoder_nodes(tiny_config), _split(x, widths), tiny_store,
            960)), axis=1)
        np.testing.assert_array_equal(got, want)

    def test_full_model_4s_tiles_keep_the_bits(self, monkeypatch, full_config,
                                               full_store):
        # The golden digests cover 1 s, where most layers are one tile; at
        # 4 s every waveform-rate layer spans several tiles, the last one
        # taking the remainder.
        audio = buffer_of(4 * 16000)

        def run():
            features = codec.encode(audio, full_config, full_store)
            return features, codec.decode(features, full_config,
                                          full_store).samples

        tiled = run()
        self._tiles(monkeypatch, 10**9)
        for got, want in zip(tiled, run()):
            np.testing.assert_array_equal(got, want)

    def test_input_shorter_than_one_tile(self, monkeypatch, tiny_config,
                                         tiny_store):
        audio = buffer_of(1)
        want = codec.encode(audio, tiny_config, tiny_store)
        self._tiles(monkeypatch, 1)
        np.testing.assert_array_equal(
            codec.encode(audio, tiny_config, tiny_store), want)


def _traced_peaks(audio, config, store):
    """Traced peaks of codec.encode and codec.decode, net of the float32
    arrays they return and the features decode reads."""
    tracemalloc.start()
    try:
        features = codec.encode(audio, config, store)
        encode_peak = tracemalloc.get_traced_memory()[1] - features.nbytes
        tracemalloc.reset_peak()
        out = codec.decode(features, config, store)
        decode_peak = (tracemalloc.get_traced_memory()[1] - features.nbytes
                       - out.samples.nbytes)
    finally:
        tracemalloc.stop()
    return encode_peak, decode_peak


class TestStreamingMemory:
    def test_pure_conv_memory_is_flat_in_length(self):
        # No tile is wider than its width, so once every layer spans a few
        # tiles the peak stops growing.  With a hop of 8 that holds by
        # 120 s; a 60 s encode ends before the steady tile phase and peaks
        # lower (37 MiB against 39 MiB).  Whole-length layers grew 3x over
        # 60-240 s (60 -> 185 MiB encode, 56 -> 171 MiB decode); streamed,
        # the 240 s peaks are about 39 / 37 MiB.
        config = dataclasses.replace(
            codec.default_config("DAC"), strides=(2, 4), enc_base_dim=4,
            dec_base_dim=16, latent_dim=8, transformer_hidden=8, n_heads=2,
            ff_dim=16, n_codebooks=2, codebook_size=16, code_dim=4)
        store = codec.init_weights(config, seed=3)
        short = _traced_peaks(buffer_of(120 * 16000), config, store)
        long = _traced_peaks(buffer_of(240 * 16000), config, store)
        for stage, a, b in zip(("encode", "decode"), short, long):
            assert b - a < 2**20, (stage, a, b)
            assert b < 41 * 2**20, (stage, b)

    def test_full_model_32s_round_trip_stays_under_ceilings(self, full_config,
                                                            full_store):
        # Traced 70 / 140 MiB; whole-length layers took 205 / 301 MiB.  The
        # decode peak is one Transformer layer at T = 1,600.
        encode_peak, decode_peak = _traced_peaks(
            buffer_of(32 * 16000), full_config, full_store)
        assert encode_peak < 80 * 2**20
        assert decode_peak < 155 * 2**20

    def test_full_model_4s_decode_stays_under_ceiling(self, full_config,
                                                      full_store):
        # Traced 33 MiB: tile pieces held across the nested pulls of blocks
        # 1-3 and one tile's float64 buffers.  A last tile twice as wide as
        # the others took it to 40 MiB.
        _, decode_peak = _traced_peaks(buffer_of(4 * 16000), full_config,
                                       full_store)
        assert decode_peak < 36 * 2**20
