"""The golden stream and decoded digests, SUNAC's and DACT's, do not
depend on numpy's AVX-512 loops: a fresh interpreter limited to the AVX2
ones gives the same bytes.

numpy picks its SIMD loops for transcendental ufuncs (float64 `np.exp` in
the attention softmax, float32 `np.sin` in snake and `np.tanh`) once, at
import, by CPU.  On an x86-64 CPU with AVX-512 (`X86_V4`), float64 `np.exp`
differs from the AVX2 loops in the last bit of a few percent of elements,
so an AVX2-only host could compute other softmax bits.  This run pins the
digests on the golden input.  `NPY_DISABLE_CPU_FEATURES` limits numpy's
dispatch in one process only, so the run is a new process, and the test
skips where the CPU has no `X86_V4` loops to turn off.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sunac
from test_thread_count import _GOLDEN_DIGESTS, GOLDEN

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy before 2.0, which has no X86_V4 entry
    __cpu_features__ = {}

AVX512 = "AVX512_SPR AVX512_ICL X86_V4"
# Fails the run unless numpy really left the AVX-512 loops off.
_CHECK_DISPATCH = """
from numpy._core._multiarray_umath import __cpu_features__
if __cpu_features__["X86_V4"]:
    raise SystemExit("numpy left X86_V4 on")
"""


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"),
                    reason="the CPU has no X86_V4 (AVX-512) features")
def test_avx2_loops_give_the_golden_digests():
    src = Path(sunac.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src),
           "NPY_DISABLE_CPU_FEATURES": AVX512}
    done = subprocess.run(
        [sys.executable, "-c", _CHECK_DISPATCH + _GOLDEN_DIGESTS],
        capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stderr
    digests = json.loads(done.stdout.splitlines()[-1])
    assert digests == GOLDEN
