"""End-to-end checks of the command-line front end.

Every test drives ``cli.main`` directly with an argv list, so exit codes
and produced files are observed exactly as a shell user would see them.
The tiny model configuration from conftest keeps the encode and decode
paths fast enough to run the full loop repeatedly.
"""

import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sunac import cli, codec, fixtures, pipeline
from sunac.audio import read_wav
from sunac.bitstream import read_stream
from sunac.extractor import (ExtractorWeights, PromptBank, PromptType,
                             extract, parse_prompts)


@pytest.fixture(autouse=True)
def _no_seed_env(monkeypatch):
    # A stray seed override in the ambient environment would silently
    # change every default-weight invocation below.
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def work(tmp_path_factory, tiny_config):
    """One fixture mixture rendered and encoded through the CLI itself."""
    saved = os.environ.pop(cli.SEED_ENV_VAR, None)
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "tiny.json"
    cfg_path.write_text(tiny_config.to_json(), encoding="utf-8")

    fix_dir = root / "fix"
    rc = cli.main([
        "fixtures", "--types", "speech,music", "--seed", "3",
        "--duration", "0.2", "-o", str(fix_dir),
    ])
    assert rc == 0

    stream_path = root / "out.snac"
    rc = cli.main([
        "encode", str(fix_dir / "mixture.wav"),
        "--prompts", "speech,music",
        "--config", str(cfg_path), "-o", str(stream_path),
    ])
    assert rc == 0

    if saved is not None:
        os.environ[cli.SEED_ENV_VAR] = saved
    return {
        "root": root,
        "cfg": str(cfg_path),
        "fix": fix_dir,
        "stream": str(stream_path),
    }


# ---------------------------------------------------------------- fixtures


def test_fixtures_writes_manifest_and_wavs(work):
    fix = work["fix"]
    for name in ("manifest.json", "mixture.wav", "src0.wav", "src1.wav"):
        assert (fix / name).is_file()
    manifest = fixtures.load_manifest(str(fix / "manifest.json"))
    assert [s.prompt_type for s in manifest.sources] == [
        PromptType.SPEECH, PromptType.MUSIC]


def test_fixtures_mixture_is_sum_of_source_files(work):
    fix = work["fix"]
    mix = read_wav(str(fix / "mixture.wav"))
    total = (read_wav(str(fix / "src0.wav")).samples
             + read_wav(str(fix / "src1.wav")).samples)
    # Each file is quantized independently, so agreement is within a few
    # 16-bit steps, not exact.
    assert np.max(np.abs(mix.samples - total)) < 2e-4


def test_fixtures_rerender_from_manifest_is_byte_identical(work, tmp_path):
    rc = cli.main([
        "fixtures", "--manifest", str(work["fix"] / "manifest.json"),
        "-o", str(tmp_path),
    ])
    assert rc == 0
    for name in ("mixture.wav", "src0.wav", "src1.wav"):
        assert (tmp_path / name).read_bytes() == (work["fix"] / name).read_bytes()


def test_fixtures_requires_exactly_one_input_mode(tmp_path):
    assert cli.main(["fixtures", "-o", str(tmp_path)]) == 2
    assert cli.main([
        "fixtures", "--types", "speech", "--seed", "1",
        "--manifest", "m.json", "-o", str(tmp_path),
    ]) == 2


def test_fixtures_types_without_seed_fails(tmp_path):
    assert cli.main(["fixtures", "--types", "speech", "-o", str(tmp_path)]) == 2


@pytest.mark.parametrize("edit", [
    {"duration_s": "abc"},
    {"duration_s": float("nan")},
    {"seed": "x"},
    {"seed": -1},
    {"band": [100.0]},
    None,
    {"duration_s": 1e12},
    {"duration_s": 1e305},
], ids=["duration text", "duration NaN", "seed text", "negative seed",
        "one-edge band", "negative --seed", "duration 1e12", "duration 1e305"])
def test_fixtures_rejects_bad_manifest_or_seed(tmp_path, edit, capsys):
    if edit is None:
        argv = ["fixtures", "--types", "speech", "--seed", "-1"]
    else:
        payload = json.loads(fixtures.make_mixture(["speech"], seed=1).to_json())
        target = payload if "duration_s" in edit else payload["sources"][0]
        target.update(edit)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        argv = ["fixtures", "--manifest", str(path)]
    assert cli.main(argv + ["-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("sunac: ")


def test_fixtures_refuses_a_rate_no_wav_can_store(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main([
        "fixtures", "--types", "speech", "--seed", "1", "--rate",
        "5000000000", "--duration", "0.001", "-o", str(out),
    ]) == 2
    assert capsys.readouterr().err.startswith("sunac: ")
    assert not out.exists()


def test_fixtures_rejects_unknown_and_disallowed_types(tmp_path):
    assert cli.main([
        "fixtures", "--types", "speech,kazoo", "--seed", "1",
        "-o", str(tmp_path),
    ]) == 2
    assert cli.main([
        "fixtures", "--types", "mix,speech", "--seed", "1",
        "-o", str(tmp_path),
    ]) == 2


# ------------------------------------------------------------------ encode


def test_encode_stream_size_matches_header_arithmetic(work, tiny_config):
    n_samples = read_wav(str(work["fix"] / "mixture.wav")).n_samples
    frames = codec.frames_for_length(tiny_config, n_samples)
    n_sources = 2
    expected = 28 + n_sources + 2 * n_sources * tiny_config.n_codebooks * frames
    assert os.path.getsize(work["stream"]) == expected


def test_encode_prints_the_bytes_it_wrote(work, tmp_path, capsys):
    out = tmp_path / "sized.snac"
    rc = cli.main([
        "encode", str(work["fix"] / "mixture.wav"),
        "--prompts", "speech,music",
        "--config", work["cfg"], "-o", str(out),
    ])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.endswith(f", {os.path.getsize(out)} bytes")


def test_encode_matches_library_call(work, tiny_config, tiny_store):
    stream = read_stream(work["stream"])
    audio = read_wav(str(work["fix"] / "mixture.wav"))
    direct = pipeline.encode_mixture(
        audio, parse_prompts("speech,music"), tiny_config, tiny_store)
    assert stream.prompt_types == direct.prompt_types
    assert stream.original_len == direct.original_len
    np.testing.assert_array_equal(stream.codes, direct.codes)


def test_encode_rerun_is_byte_identical(work, tmp_path):
    out = tmp_path / "again.snac"
    rc = cli.main([
        "encode", str(work["fix"] / "mixture.wav"),
        "--prompts", "speech,music",
        "--config", work["cfg"], "-o", str(out),
    ])
    assert rc == 0
    with open(work["stream"], "rb") as fh:
        first = fh.read()
    assert out.read_bytes() == first


def test_encode_rejects_unknown_prompt(work, tmp_path):
    rc = cli.main([
        "encode", str(work["fix"] / "mixture.wav"),
        "--prompts", "speech,kazoo",
        "--config", work["cfg"], "-o", str(tmp_path / "x.snac"),
    ])
    assert rc == 2


def test_encode_missing_input_file(work, tmp_path):
    rc = cli.main([
        "encode", str(tmp_path / "absent.wav"), "--prompts", "speech",
        "--config", work["cfg"], "-o", str(tmp_path / "x.snac"),
    ])
    assert rc == 2


def test_seed_env_var_changes_default_weights(work, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "12345")
    out = tmp_path / "reseeded.snac"
    rc = cli.main([
        "encode", str(work["fix"] / "mixture.wav"),
        "--prompts", "speech,music",
        "--config", work["cfg"], "-o", str(out),
    ])
    assert rc == 0
    with open(work["stream"], "rb") as fh:
        baseline = fh.read()
    assert out.read_bytes() != baseline


def test_seed_env_var_must_be_integer(work, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
    rc = cli.main([
        "encode", str(work["fix"] / "mixture.wav"),
        "--prompts", "speech,music",
        "--config", work["cfg"], "-o", str(tmp_path / "x.snac"),
    ])
    assert rc == 2


def test_seed_env_var_must_fit_weight_file(work, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "-1")
    rc = cli.main([
        "encode", str(work["fix"] / "mixture.wav"),
        "--prompts", "speech,music",
        "--config", work["cfg"], "-o", str(tmp_path / "x.snac"),
    ])
    assert rc == 2
    assert "seed must be an integer in [0, 2**64)" in capsys.readouterr().err


@pytest.mark.parametrize("override, message", [
    ({"n_heads": 0}, "0 heads do not divide"),
    ({"strides": ["a"]}, "strides must be integers"),
    ({"seed": -1}, "seed must be an integer in [0, 2**64)"),
    ({"strides": [2.7, 4, 5, 8]}, "strides must be integers"),
    ({"n_codebooks": 1.5}, "n_codebooks must be an integer"),
    ({"codebook_size": 2.5}, "codebook_size must be an integer"),
    ({"enc_base_dim": 2.5}, "enc_base_dim must be an integer"),
    ({"sample_rate": "16000"}, "sample_rate must be an integer"),
], ids=["zero heads", "non-integer strides", "negative seed",
        "fractional strides", "fractional codebooks",
        "fractional codebook size", "fractional enc dim",
        "text sample rate"])
def test_encode_rejects_bad_config(work, tmp_path, tiny_config, override,
                                   message, capsys):
    cfg_path = tmp_path / "bad.json"
    payload = {**json.loads(tiny_config.to_json()), **override}
    cfg_path.write_text(json.dumps(payload), encoding="utf-8")
    rc = cli.main([
        "encode", str(work["fix"] / "mixture.wav"), "--prompts", "speech",
        "--config", str(cfg_path), "-o", str(tmp_path / "x.snac"),
    ])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_encode_accepts_integral_float_config(work, tmp_path, tiny_config):
    payload = {**json.loads(tiny_config.to_json()), "n_heads": 2.0}
    cfg_path = tmp_path / "float_heads.json"
    cfg_path.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "x.snac"
    rc = cli.main([
        "encode", str(work["fix"] / "mixture.wav"),
        "--prompts", "speech,music",
        "--config", str(cfg_path), "-o", str(out),
    ])
    assert rc == 0
    with open(work["stream"], "rb") as fh:
        assert out.read_bytes() == fh.read()


@pytest.mark.parametrize("case", ["mixture", "output", "eval refs"])
def test_directory_paths_exit_2(work, tmp_path, case, capsys):
    mixture = tmp_path if case == "mixture" else work["fix"] / "mixture.wav"
    out = tmp_path if case == "output" else tmp_path / "x.snac"
    argv = ["encode", str(mixture), "--prompts", "speech",
            "--config", work["cfg"], "-o", str(out)]
    if case == "eval refs":
        argv = ["eval", "--refs", str(tmp_path), "--est", str(work["fix"])]
    assert cli.main(argv) == 2
    assert "Is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["encode", "fixtures"])
def test_non_utf8_json_exits_2(work, tmp_path, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"seed": "\x80"}')
    if command == "encode":
        argv = ["encode", str(work["fix"] / "mixture.wav"), "--prompts",
                "speech", "--config", str(bad), "-o", str(tmp_path / "x.snac")]
    else:
        argv = ["fixtures", "--manifest", str(bad), "-o", str(tmp_path / "o")]
    assert cli.main(argv) == 2


# ------------------------------------------------------------------ decode


def test_decode_writes_wavs_and_sidecar(work, tmp_path):
    rc = cli.main([
        "decode", work["stream"], "--config", work["cfg"],
        "-o", str(tmp_path),
    ])
    assert rc == 0
    assert (tmp_path / "out.src0.wav").is_file()
    assert (tmp_path / "out.src1.wav").is_file()
    sidecar = json.loads((tmp_path / "out.sources.json").read_text())
    assert sidecar["sample_rate"] == 16000
    assert sidecar["n_samples"] == read_wav(
        str(work["fix"] / "mixture.wav")).n_samples
    assert [e["prompt_type"] for e in sidecar["sources"]] == ["speech", "music"]
    assert [e["file"] for e in sidecar["sources"]] == [
        "out.src0.wav", "out.src1.wav"]
    for entry in sidecar["sources"]:
        buf = read_wav(str(tmp_path / entry["file"]))
        assert buf.sample_rate == 16000
        assert buf.n_samples == sidecar["n_samples"]


def test_decode_rerun_is_byte_identical(work, tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    for out_dir in (dir_a, dir_b):
        rc = cli.main([
            "decode", work["stream"], "--config", work["cfg"],
            "-o", str(out_dir),
        ])
        assert rc == 0
    for name in ("out.src0.wav", "out.src1.wav"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_decode_failed_sidecar_write_keeps_old_sidecar(work, tmp_path, monkeypatch):
    argv = ["decode", work["stream"], "--config", work["cfg"], "-o", str(tmp_path)]
    assert cli.main(argv) == 0
    before = (tmp_path / "out.sources.json").read_bytes()

    def fail(*args, **kwargs):
        raise RuntimeError("serializer failed")

    monkeypatch.setattr(json.JSONEncoder, "iterencode", fail)
    with pytest.raises(RuntimeError, match="serializer failed"):
        cli.main(argv)
    assert (tmp_path / "out.sources.json").read_bytes() == before
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".part")]


def test_decode_truncated_stream_is_corrupt(work, tmp_path):
    blob = Path(work["stream"]).read_bytes()
    bad = tmp_path / "cut.snac"
    bad.write_bytes(blob[:-3])
    rc = cli.main(["decode", str(bad), "--config", work["cfg"],
                   "-o", str(tmp_path)])
    assert rc == 3


def test_decode_bad_magic_is_corrupt(work, tmp_path):
    blob = bytearray(Path(work["stream"]).read_bytes())
    blob[0] ^= 0xFF
    bad = tmp_path / "magic.snac"
    bad.write_bytes(bytes(blob))
    rc = cli.main(["decode", str(bad), "--config", work["cfg"],
                   "-o", str(tmp_path)])
    assert rc == 3


def test_decode_missing_stream_file(work, tmp_path):
    rc = cli.main(["decode", str(tmp_path / "absent.snac"),
                   "--config", work["cfg"], "-o", str(tmp_path)])
    assert rc == 2


# ----------------------------------------------------------------- extract


def test_extract_dumps_per_prompt_feature_maps(work, tmp_path, tiny_config,
                                               tiny_store):
    rc = cli.main([
        "extract", str(work["fix"] / "mixture.wav"),
        "--prompts", "speech,music",
        "--config", work["cfg"], "-o", str(tmp_path),
    ])
    assert rc == 0
    audio = read_wav(str(work["fix"] / "mixture.wav"))
    features = codec.encode(audio, tiny_config, tiny_store)
    maps = extract(features, parse_prompts("speech,music"),
                   PromptBank.from_store(tiny_store),
                   ExtractorWeights.from_store(tiny_store, tiny_config))
    for i, (expected, name) in enumerate(zip(
            maps, ("mixture.src0.speech.npy", "mixture.src1.music.npy"))):
        path = tmp_path / name
        assert path.is_file(), f"missing {name}"
        np.testing.assert_array_equal(np.load(path), expected)


# -------------------------------------------------------------------- eval


def test_eval_identity_estimates_score_perfect(work, tmp_path, capsys):
    est = tmp_path / "est"
    est.mkdir()
    shutil.copy(work["fix"] / "src0.wav", est / "a0.wav")
    shutil.copy(work["fix"] / "src1.wav", est / "a1.wav")
    rc = cli.main([
        "eval", "--refs", str(work["fix"] / "manifest.json"),
        "--est", str(est),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "mode=direct n_sources=2 permutation=0,1"
    assert "100.0" in out


def test_eval_json_recovers_same_type_swap(tmp_path, capsys):
    fix = tmp_path / "fix"
    rc = cli.main([
        "fixtures", "--types", "speech,speech", "--seed", "5",
        "--duration", "0.2", "-o", str(fix),
    ])
    assert rc == 0
    est = tmp_path / "est"
    est.mkdir()
    shutil.copy(fix / "src1.wav", est / "e0.wav")
    shutil.copy(fix / "src0.wav", est / "e1.wav")
    capsys.readouterr()  # drop the fixtures command's progress lines
    rc = cli.main([
        "eval", "--refs", str(fix / "manifest.json"),
        "--est", str(est), "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "direct"
    assert payload["permutation"] == [1, 0]
    assert payload["mean_si_sdr_db"] == 100.0
    assert payload["estimate_files"] == ["e0.wav", "e1.wav"]
    by_ref = {row["ref_index"]: row for row in payload["rows"]}
    assert by_ref[0]["estimate_index"] == 1
    assert by_ref[1]["estimate_index"] == 0


def test_eval_masked_mode_runs(work, tmp_path, capsys):
    est = tmp_path / "est"
    est.mkdir()
    shutil.copy(work["fix"] / "src0.wav", est / "a0.wav")
    shutil.copy(work["fix"] / "src1.wav", est / "a1.wav")
    rc = cli.main([
        "eval", "--refs", str(work["fix"] / "manifest.json"),
        "--est", str(est), "--mode", "masked",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("mode=masked")


def test_eval_missing_estimate_dir(work, tmp_path):
    rc = cli.main([
        "eval", "--refs", str(work["fix"] / "manifest.json"),
        "--est", str(tmp_path / "absent"),
    ])
    assert rc == 2


def test_eval_estimate_count_mismatch(work, tmp_path):
    est = tmp_path / "est"
    est.mkdir()
    shutil.copy(work["fix"] / "src0.wav", est / "only.wav")
    rc = cli.main([
        "eval", "--refs", str(work["fix"] / "manifest.json"),
        "--est", str(est),
    ])
    assert rc == 2


def test_eval_empty_estimate_dir(work, tmp_path):
    est = tmp_path / "est"
    est.mkdir()
    rc = cli.main([
        "eval", "--refs", str(work["fix"] / "manifest.json"),
        "--est", str(est),
    ])
    assert rc == 2


# ----------------------------------------------------------------- analyze


def test_analyze_single_arch_json(capsys):
    from sunac import analysis
    rc = cli.main(["analyze", "--arch", "sunac", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["arch"] == "SUNAC"
    row = analysis.count_macs(analysis.builtin_specs()["SUNAC"], 1.0, 16000)
    assert payload["params"] == row.params
    assert payload["const_macs"] == row.const_macs
    assert payload["per_source_macs"] == row.per_source_macs
    assert payload["total_macs"] == row.total_macs(1)
    assert len(payload["layers"]) == len(row.layers)


def test_analyze_arch_name_is_case_insensitive(capsys):
    for spelling in ("SDCodecT", "sdcodect", "SDCODECT"):
        rc = cli.main(["analyze", "--arch", spelling])
        assert rc == 0
        assert capsys.readouterr().out.startswith("SDCodecT:")


def test_analyze_unknown_arch(capsys):
    assert cli.main(["analyze", "--arch", "vocoder9000"]) == 2


@pytest.mark.parametrize("duration", ["inf", "nan", "1e300"])
@pytest.mark.parametrize("arch", [[], ["--arch", "sunac"]], ids=["table", "arch"])
def test_analyze_rejects_unusable_duration(capsys, duration, arch):
    assert cli.main(["analyze", "--duration", duration] + arch) == 2
    assert capsys.readouterr().err.startswith("sunac: ")


@pytest.mark.parametrize("sources", ["1" + "0" * 400, str(2**53 + 1), "0", "-1"],
                         ids=["401-digits", "2**53+1", "zero", "negative"])
@pytest.mark.parametrize("extra", [[], ["--format", "json"],
                                   ["--arch", "sunac", "--format", "json"],
                                   ["--arch", "sunac"]],
                         ids=["table", "table-json", "arch-json", "arch-text"])
def test_analyze_rejects_unusable_source_count(capsys, sources, extra):
    assert cli.main(["analyze", "--sources", sources] + extra) == 2
    assert capsys.readouterr().err.startswith("sunac: ")


@pytest.mark.parametrize("rate", ["0", "-5"])
@pytest.mark.parametrize("arch", [[], ["--arch", "sunac"]], ids=["table", "arch"])
def test_analyze_rejects_non_positive_rate(capsys, rate, arch):
    assert cli.main(["analyze", "--rate", rate] + arch) == 2
    err = capsys.readouterr().err
    assert err.startswith("sunac: ") and "sample rate" in err


def test_analyze_table_text_lists_all_architectures(capsys):
    from sunac import analysis
    rc = cli.main(["analyze", "--sources", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in analysis.BUILTIN_ORDER:
        assert name in out
    assert "quadratic in frame count:" in out


def test_analyze_table_json_round_trips(capsys):
    from sunac import analysis
    rc = cli.main(["analyze", "--sources", "2", "--format", "json"])
    assert rc == 0
    printed = capsys.readouterr().out
    report = analysis.compare_report(1.0, 2, 16000)
    assert printed == analysis.report_to_json(report)


# ----------------------------------------------------------------- weights


def _write_bad_weights(defect, store, path):
    store.save(str(path))
    blob = path.read_bytes()
    name, tensor = next(iter(store.tensors.items()))
    if defect == "magic only":
        blob = blob[:4]
    elif defect == "seed truncated":
        blob = blob[:10]
    elif defect == "duplicate tensor":
        single = path.with_suffix(".single")
        codec.WeightStore(store.seed, {name: tensor}).save(str(single))
        blob += single.read_bytes()[14:]  # its one record, header skipped
    elif defect == "non-finite tensor":
        bad = tensor.copy()
        bad.flat[0] = np.nan
        codec.WeightStore(store.seed, {**store.tensors, name: bad}).save(str(path))
        blob = path.read_bytes()
    elif defect == "rank above 64":
        # 100 unit dims hold one float, but numpy caps arrays at 64 dims.
        blob = (blob[:14] + struct.pack("<H", 1) + b"x" + struct.pack("<B", 100)
                + struct.pack("<100I", *[1] * 100) + bytes(4))
    elif defect == "shape too big":
        # Zero elements, yet the dims overflow numpy's size arithmetic.
        blob = (blob[:14] + struct.pack("<H", 1) + b"x" + struct.pack("<B", 3)
                + struct.pack("<3I", 0, 2**31, 2**31))
    path.write_bytes(blob)


@pytest.mark.parametrize("defect", ["magic only", "seed truncated",
                                    "duplicate tensor", "non-finite tensor",
                                    "rank above 64", "shape too big"])
def test_encode_rejects_corrupt_weight_file(work, tmp_path, tiny_store,
                                            defect, capsys):
    weights = tmp_path / "weights.suwt"
    _write_bad_weights(defect, tiny_store, weights)
    rc = cli.main([
        "encode", str(work["fix"] / "mixture.wav"), "--prompts", "speech",
        "--config", work["cfg"], "--weights", str(weights),
        "-o", str(tmp_path / "out.snac"),
    ])
    assert rc == 3
    assert "corrupt input" in capsys.readouterr().err


# ------------------------------------------------------------ module entry


def test_module_entry_point_runs_main():
    src_dir = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src_dir}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "sunac.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    done = run("analyze", "--arch", "dac")
    assert done.returncode == 0
    assert done.stdout.startswith("DAC:")
    assert run("analyze", "--arch", "vocoder9000").returncode == 2


# ------------------------------------------------------ one-sided processes

# Runs `sunac <argv>` and prints the process's own peak RSS in KiB: VmHWM,
# the peak of the memory it mapped since exec.  ru_maxrss reads no better:
# RUSAGE_CHILDREN gives the largest peak of every child the test process
# has waited for, and Linux carries the forking process's peak into the
# child's RUSAGE_SELF across exec (a child of a 300 MiB process read
# 327 MiB there and 13.7 MiB in VmHWM).
_PEAK_RSS_CHILD = (
    "import sys\n"
    "from sunac import cli\n"
    "assert cli.main(sys.argv[1:]) == 0\n"
    "with open('/proc/self/status') as status:\n"
    "    print(next(line.split()[1] for line in status\n"
    "               if line.startswith('VmHWM:')))\n")


def _child_peak_mib(*argv):
    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads peak RSS from /proc")
    env = {name: value for name, value in os.environ.items()
           if name != cli.SEED_ENV_VAR}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1]) / 1024


@pytest.fixture(scope="module")
def full_model_4s(tmp_path_factory):
    """A 4 s three-prompt mixture encoded with full SUNAC in a child
    process: the stream it wrote and the child's peak RSS."""
    root = tmp_path_factory.mktemp("one_sided")
    assert cli.main(["fixtures", "--types", "speech,speech,music", "--seed",
                     "3", "--duration", "4", "-o", str(root / "fix")]) == 0
    stream = root / "mixture.snac"
    peak = _child_peak_mib("encode", str(root / "fix" / "mixture.wav"),
                           "--prompts", "speech,speech,music",
                           "-o", str(stream))
    return {"root": root, "stream": str(stream), "encode_mib": peak}


def test_encode_process_never_holds_the_decoder(full_model_4s):
    # The store draws a tensor on first read, so the 144.5 MiB of decoder
    # weights are never drawn.  Drawn up front, the peak was 321.6 MiB.
    assert full_model_4s["encode_mib"] < 200


def test_decode_process_never_holds_the_encoder(full_model_4s):
    # The 115.6 MiB of encoder and extractor weights are never drawn.
    # Drawn up front, the peak was 324.3 MiB.
    peak = _child_peak_mib("decode", full_model_4s["stream"],
                           "-o", str(full_model_4s["root"] / "decoded"))
    assert peak < 230


@pytest.fixture(scope="module")
def full_weight_file(tmp_path_factory):
    """Full SUNAC's seed-0 store, the CLI's seeded default, in a file."""
    path = tmp_path_factory.mktemp("weights") / "sunac.suwt"
    codec.init_weights(codec.default_config("SUNAC"), seed=0).save(str(path))
    return str(path)


def test_encode_with_a_weight_file_never_holds_the_decoder(full_model_4s,
                                                           full_weight_file):
    # The file is scanned in blocks and only the tensors the encoder,
    # extractor and quantizer read are read.  Read whole, the peak was
    # 314.5 MiB.
    root = full_model_4s["root"]
    stream = root / "from_file.snac"
    peak = _child_peak_mib("encode", str(root / "fix" / "mixture.wav"),
                           "--prompts", "speech,speech,music",
                           "--weights", full_weight_file, "-o", str(stream))
    assert peak < 200
    assert stream.read_bytes() == Path(full_model_4s["stream"]).read_bytes()


def test_decode_with_a_weight_file_never_holds_the_encoder(full_model_4s,
                                                           full_weight_file):
    # Read whole, the peak was 314.9 MiB.
    peak = _child_peak_mib("decode", full_model_4s["stream"],
                           "--weights", full_weight_file,
                           "-o", str(full_model_4s["root"] / "from_file"))
    assert peak < 230
