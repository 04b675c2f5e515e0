"""Smoke test of the benchmark at a tiny input size.

Runs every workload, traced and untraced, on 40 ms mixtures with the full
SUNAC weights and asserts that every metric BENCHMARK.json names is
printed with its unit, and that the benchmark refuses to run without a
sunac source tree next to it.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sunac = run.import_sunac()

from layers import PER_LAYER  # noqa: E402
from workloads import CHECK_WORKLOAD, WORKLOADS  # noqa: E402

TINY_S = 0.04  # 640 samples, two code frames
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def model():
    config = sunac.default_config("SUNAC")
    return config, sunac.init_weights(config, seed=0)


def test_benchmark_json_names_what_the_code_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
            == PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_prints_every_metric(model, name, trace):
    config, store = model
    tiny = dataclasses.replace(WORKLOADS[name], duration_s=TINY_S)
    check = dataclasses.replace(CHECK_WORKLOAD, duration_s=TINY_S)
    setup = {"init_weights_s": 1.0, "rss_mb": 1.0} if trace else [1.0]
    lines, result = run.bench(tiny, check, 1, 0, trace, config, store, setup)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + trace
    assert [m["name"] for m in spec] == list(result["metrics"])
    for m in spec:
        value = result["metrics"][m["name"]]["value"]
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['name']} {value} {m['unit']}" in lines
    assert f"fail_ratio 0.0 ratio (0 of {1 + trace} ops)" in lines
    if tiny.decode and not trace:
        assert any(line.startswith("decode_s ") for line in lines)
    json.loads(json.dumps(result, allow_nan=False))


def test_setup_probe_times_a_fresh_process():
    (seconds,) = run.measure_setup(1)
    assert 0 < seconds < 120


def test_refuses_to_run_without_sunac_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip-4s-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
