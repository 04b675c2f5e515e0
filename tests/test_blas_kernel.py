"""The golden stream and decoded digests do not depend on the OpenBLAS
kernel: fresh interpreters forced onto the Haswell and Sandybridge kernels
give the same bytes as the default one.

Every float32 x float32 product is exact in float64, so kernels with and
without fused multiply-add round each product alike; only the order of a
float64 sum could still differ, and these runs pin it on the golden input.
OpenBLAS picks its kernel once, when numpy loads, and only a DYNAMIC_ARCH
build can be told which one (`OPENBLAS_CORETYPE`), so each run is a new
process, and the test skips on any other BLAS.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sunac
from test_golden import DECODED_SHA256, STREAM_SHA256
from test_thread_count import _GOLDEN_DIGESTS


def _dynamic_arch_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26, or no BLAS entry
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _dynamic_arch_openblas(),
                    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge"])
def test_openblas_kernel_gives_the_golden_digests(coretype):
    src = Path(sunac.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src),
           "OPENBLAS_CORETYPE": coretype, "OPENBLAS_VERBOSE": "2"}
    done = subprocess.run([sys.executable, "-c", _GOLDEN_DIGESTS],
                          capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stderr
    # OPENBLAS_VERBOSE=2 makes OpenBLAS name the kernel it loaded.
    assert f"Core: {coretype}" in done.stderr
    digests = json.loads(done.stdout.splitlines()[-1])
    assert digests == {"stream": STREAM_SHA256, "decoded": DECODED_SHA256}
