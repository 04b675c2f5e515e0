"""Time sunac's set-up in a fresh process: import, config and weight init.

Run by run.py as `python3 setup_probe.py <src dir>`; prints one JSON line.
"""

import json
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import sunac

    sunac.init_weights(sunac.default_config("SUNAC"), seed=0)
    seconds = time.perf_counter() - start
    print(json.dumps({"setup_s": seconds, "sunac_file": sunac.__file__}))
