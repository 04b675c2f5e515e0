"""numpy is sunac's only runtime dependency.

The package imports exactly the third-party modules that pyproject.toml
declares, and importing it, the CLI included, then encoding, decoding and
scoring a mixture never loads scipy, which the tests use only as an oracle.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sunac

PACKAGE = Path(sunac.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"

_RUN_WITHOUT_SCIPY = """
import json, sys
import sunac, sunac.cli
config = sunac.ModelConfig.from_json(sys.argv[1])
store = sunac.init_weights(config, seed=config.seed)
sources = sunac.realize(sunac.make_mixture(["speech", "music"], seed=3,
                                           duration_s=0.2))
decoded = sunac.separate(sources.mixture, ("speech", "music"), config, store)
report = sunac.evaluate_estimates(sources, [audio for audio, _ in decoded],
                                  mode="masked")
print(json.dumps({
    "rows": len(report.rows),
    "scipy": sorted(name for name in sys.modules
                    if name == "scipy" or name.startswith("scipy.")),
}))
"""


def test_encode_decode_and_masked_evaluation_load_no_scipy(tiny_config):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_SCIPY, tiny_config.to_json()],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"rows": 2, "scipy": []}


_SET_UP = """
import json, sys
import sunac
sunac.init_weights(sunac.default_config("SUNAC"), seed=0)
print(json.dumps(sorted(name for name in sys.modules
                        if name == "sunac" or name.startswith("sunac."))))
"""


def test_set_up_imports_only_the_modules_it_reads():
    # The package imports a module when one of its names is first read.
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", _SET_UP], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        "sunac", "sunac.audio", "sunac.codec", "sunac.errors",
        "sunac.numerics"]


def test_unknown_names_are_attribute_errors():
    assert not hasattr(sunac, "no_such_name")
    with pytest.raises(ImportError):
        exec("from sunac import no_such_name", {})


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    # A distribution name here is also its import name.
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in requirements}
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        imported |= _top_level_imports(path)
    third_party = imported - set(sys.stdlib_module_names) - {"sunac"}
    assert third_party == declared
