"""The golden stream and decoded digests do not depend on the BLAS thread
count: a fresh interpreter with one OpenBLAS thread gives the same bytes.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads, so the count
can only be set for a new process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import sunac
from test_golden import DECODED_SHA256, STREAM_SHA256

_GOLDEN_DIGESTS = """
import hashlib, json
import numpy as np
from sunac import codec, fixtures, pipeline
from sunac.bitstream import pack_stream
from sunac.extractor import parse_prompts

config = codec.default_config("SUNAC")
store = codec.init_weights(config, seed=0)
prompts = parse_prompts("speech,music")
manifest = fixtures.make_mixture(prompts, seed=0, duration_s=1.0)
mixture = fixtures.realize(manifest).mixture
stream = pipeline.encode_mixture(mixture, prompts, config, store)
sources = pipeline.decode_stream(stream, config, store)
samples = b"".join(np.ascontiguousarray(buf.samples, dtype="<f4").tobytes()
                   for buf, _ in sources)
print(json.dumps({"stream": hashlib.sha256(pack_stream(stream)).hexdigest(),
                  "decoded": hashlib.sha256(samples).hexdigest()}))
"""


def test_one_blas_thread_gives_the_golden_digests():
    src = Path(sunac.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _GOLDEN_DIGESTS],
                          capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stderr
    digests = json.loads(done.stdout.splitlines()[-1])
    assert digests == {"stream": STREAM_SHA256, "decoded": DECODED_SHA256}
