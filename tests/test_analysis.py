import json

import pytest

from sunac import analysis, codec
from sunac.errors import ConfigError, InvalidArgumentError

# Reference cost table this package is calibrated against: parameter
# count, const GMACs, per-source GMACs at 1.0 s of 16 kHz input.
TARGETS = {
    "DAC": (74.10e6, 0.0, 41.00e9),
    "DACT": (66.42e6, 0.0, 12.88e9),
    "SDCodec": (74.82e6, 12.56e9, 28.44e9),
    "SDCodecT": (67.06e6, 3.91e9, 8.95e9),
    "SUNAC": (69.17e6, 3.50e9, 9.45e9),
}


def single(kind, width=None, **kw):
    """One probed layer tagged per_source; when the layer needs an input
    width other than the raw 1-channel waveform, a kernel-1 conv tagged
    const adapts it, so per_source_macs isolates the probe exactly."""
    layers = []
    if width is not None and width != 1:
        layers.append(analysis.LayerSpec(
            name="adapt", kind="conv1d", tag=analysis.TAG_CONST,
            c_in=1, c_out=width, kernel=1))
    layers.append(analysis.LayerSpec(name="probe", kind=kind,
                                     tag=analysis.TAG_PER_SOURCE, **kw))
    return analysis.ArchSpec(name="probe-arch", layers=tuple(layers),
                             params=0)


class TestCountMacs:
    def test_single_conv_closed_form(self):
        spec = single("conv1d", c_in=1, c_out=1, kernel=3, padding=1)
        report = analysis.count_macs(spec, 1.0, 16000)
        # 1 * 1 * 3 * 16000
        assert report.per_source_macs == 48_000
        assert report.const_macs == 0

    def test_linear_closed_form(self):
        spec = single("linear", width=1024, d_in=1024, d_out=1024)
        report = analysis.count_macs(spec, 1.0, 50)
        assert report.per_source_macs == 52_428_800

    def test_attention_closed_form(self):
        d, t = 64, 50
        spec = single("attention", width=d, d_model=d, n_heads=4)
        report = analysis.count_macs(spec, 1.0, t)
        assert report.per_source_macs == 4 * t * d * d + 2 * t * t * d
        cost = report.layers[-1]
        assert cost.scaling == analysis.SCALING_QUADRATIC

    def test_feed_forward_closed_form(self):
        d, f, t = 64, 96, 50
        spec = single("feed_forward", width=d, d_model=d, d_ff=f)
        report = analysis.count_macs(spec, 1.0, t)
        assert report.per_source_macs == 2 * t * d * f

    def test_transposed_conv_counts_input_length(self):
        spec = single("transposed_conv1d", width=4, c_in=4, c_out=2,
                      kernel=8, stride=4, padding=2)
        report = analysis.count_macs(spec, 1.0, 100)
        # MACs follow the input grid for the scatter direction.
        assert report.per_source_macs == 2 * 4 * 8 * 100

    def test_conv_duration_linearity(self):
        spec = analysis.builtin_specs()["DAC"]
        one = analysis.count_macs(spec, 1.0, 16000)
        two = analysis.count_macs(spec, 2.0, 16000)
        assert two.per_source_macs == 2 * one.per_source_macs

    def test_attention_duration_quadratic(self):
        d = 64
        spec = single("attention", width=d, d_model=d, n_heads=4)
        one = analysis.count_macs(spec, 1.0, 100)
        two = analysis.count_macs(spec, 2.0, 100)
        t1, t2 = 100, 200
        expected_ratio = (4 * t2 * d * d + 2 * t2 * t2 * d) / (
            4 * t1 * d * d + 2 * t1 * t1 * d)
        assert two.per_source_macs / one.per_source_macs == pytest.approx(
            expected_ratio)
        assert two.per_source_macs > 2 * one.per_source_macs

    def test_channel_mismatch_is_rejected(self):
        layers = (
            analysis.LayerSpec(name="a", kind="conv1d",
                               tag=analysis.TAG_CONST, c_in=1, c_out=8,
                               kernel=3, padding=1),
            analysis.LayerSpec(name="b", kind="conv1d",
                               tag=analysis.TAG_CONST, c_in=4, c_out=2,
                               kernel=3, padding=1),
        )
        spec = analysis.ArchSpec(name="broken", layers=layers, params=0)
        with pytest.raises(ConfigError):
            analysis.count_macs(spec, 1.0, 16000)

    @pytest.mark.parametrize("kind, shape", [
        ("linear", dict(d_in=16, d_out=16)),
        ("attention", dict(d_model=16, n_heads=4)),
        ("feed_forward", dict(d_model=16, d_ff=32)),
        ("film", dict(d_model=16)),
        ("rvq_scan", dict(d_model=16, n_codebooks=2, n_entries=4, code_dim=2)),
    ])
    def test_width_mismatch_is_rejected(self, kind, shape):
        with pytest.raises(ConfigError):
            analysis.count_macs(single(kind, width=8, **shape), 1.0, 100)

    @pytest.mark.parametrize("duration", [float("inf"), float("nan"), 1e300])
    def test_duration_must_be_finite_and_exact(self, duration):
        spec = single("linear", width=8, d_in=8, d_out=8)
        with pytest.raises(InvalidArgumentError):
            analysis.count_macs(spec, duration, 16000)

    def test_duration_must_be_positive(self):
        spec = single("linear", width=8, d_in=8, d_out=8)
        with pytest.raises(InvalidArgumentError):
            analysis.count_macs(spec, 0.0, 16000)

    def test_total_identity(self):
        report = analysis.count_macs(analysis.builtin_specs()["SUNAC"], 1.0)
        for n in (1, 2, 3, 7):
            assert report.total_macs(n) == (report.const_macs
                                            + n * report.per_source_macs)
        with pytest.raises(InvalidArgumentError):
            report.total_macs(0)

    def test_bad_layer_kind_rejected_at_construction(self):
        with pytest.raises(ConfigError):
            analysis.LayerSpec(name="x", kind="softmax",
                               tag=analysis.TAG_CONST)
        with pytest.raises(ConfigError):
            analysis.LayerSpec(name="x", kind="linear", tag="shared")


class TestBuiltinSpecs:
    def test_order_and_presence(self):
        specs = analysis.builtin_specs()
        assert tuple(specs) == ("DAC", "DACT", "SDCodec", "SDCodecT",
                                "SUNAC", "SUNAC-encoder-only")

    def test_param_counts_match_runnable_configs_exactly(self):
        specs = analysis.builtin_specs()
        for family in ("DAC", "DACT", "SDCodec", "SDCodecT", "SUNAC"):
            expected = codec.count_params(codec.default_config(family)).total
            assert specs[family].params == expected, family

    def test_param_targets_within_five_percent(self):
        specs = analysis.builtin_specs()
        for family, (params, _, _) in TARGETS.items():
            got = specs[family].params
            assert abs(got - params) / params < 0.05, (family, got)

    def test_mac_targets_within_twenty_percent(self):
        specs = analysis.builtin_specs()
        for family, (_, const, per) in TARGETS.items():
            report = analysis.count_macs(specs[family], 1.0, 16000)
            if const > 0:
                assert abs(report.const_macs - const) / const < 0.20, family
            else:
                assert report.const_macs == 0, family
            assert abs(report.per_source_macs - per) / per < 0.20, family

    def test_single_path_families_have_no_const_share(self):
        specs = analysis.builtin_specs()
        for family in ("DAC", "DACT"):
            report = analysis.count_macs(specs[family], 1.0)
            assert report.const_macs == 0

    def test_prompted_const_is_cheapest(self):
        specs = analysis.builtin_specs()
        sunac = analysis.count_macs(specs["SUNAC"], 1.0)
        sdcodec = analysis.count_macs(specs["SDCodec"], 1.0)
        assert sunac.const_macs < sdcodec.const_macs

    def test_total_ordering_over_source_counts(self):
        specs = analysis.builtin_specs()
        sunac = analysis.count_macs(specs["SUNAC"], 1.0)
        sdcodec = analysis.count_macs(specs["SDCodec"], 1.0)
        for n in (1, 2, 3):
            assert sunac.total_macs(n) < sdcodec.total_macs(n)

    def test_encoder_only_variant(self):
        specs = analysis.builtin_specs()
        full = analysis.count_macs(specs["SUNAC"], 1.0)
        enc = analysis.count_macs(specs["SUNAC-encoder-only"], 1.0)
        assert enc.params < specs["SUNAC"].params
        assert enc.const_macs == full.const_macs
        assert enc.per_source_macs < full.per_source_macs

    def test_all_costs_nonnegative(self):
        for name, spec in analysis.builtin_specs().items():
            report = analysis.count_macs(spec, 1.0)
            assert report.const_macs >= 0, name
            assert report.per_source_macs >= 0, name
            for cost in report.layers:
                assert cost.macs >= 0, (name, cost.name)


class TestCompareReport:
    def test_rows_follow_builtin_order(self):
        report = analysis.compare_report(n_sources=2)
        assert tuple(r.arch for r in report.rows) == analysis.BUILTIN_ORDER

    def test_text_format(self):
        text = analysis.format_report_text(analysis.compare_report())
        assert "arch" in text
        for name in analysis.BUILTIN_ORDER:
            assert name in text
        assert "quadratic in frame count:" in text

    def test_json_format(self):
        payload = json.loads(analysis.report_to_json(
            analysis.compare_report(n_sources=3)))
        assert payload["n_sources"] == 3
        rows = {row["arch"]: row for row in payload["rows"]}
        sunac = rows["SUNAC"]
        assert sunac["total_macs"] == (sunac["const_macs"]
                                       + 3 * sunac["per_source_macs"])

    def test_rejects_bad_source_count(self):
        with pytest.raises(InvalidArgumentError):
            analysis.compare_report(n_sources=0)
