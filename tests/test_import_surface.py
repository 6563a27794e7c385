"""What importing the package costs beyond numpy: the modules it loads.

Every standard-library module the package or the CLI pulls in is import
time paid by every process (the benchmark's ``setup_s``, every CLI call).
Each check runs in a fresh interpreter and compares, after ``import numpy``,
the modules an import adds against an allow-list.  It is a subset check:
a module that a Python version already loads with numpy is not added.
"""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import numpy
before = set(sys.modules)
import fenchelfix
package = set(sys.modules)
import fenchelfix.cli
print([sorted(package - before), sorted(set(sys.modules) - package)])
"""

# the standard-library modules the package itself adds after numpy
PACKAGE_ALLOWED = {"__future__", "copy", "dataclasses"}
# and those the CLI adds on top of the package
CLI_ALLOWED = {"argparse", "gettext", "_json"}


@functools.lru_cache(maxsize=None)
def added_modules():
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    package, cli = ast.literal_eval(out.stdout)
    return frozenset(package), frozenset(cli)


def foreign(modules):
    return {m for m in modules if m != "fenchelfix" and not m.startswith("fenchelfix.")}


def test_the_package_adds_only_its_own_modules_and_the_allow_list():
    package, _ = added_modules()
    assert "fenchelfix.quadratic" in package
    assert "fenchelfix.cli" not in package
    assert foreign(package) <= PACKAGE_ALLOWED


def test_the_cli_adds_only_argparse_gettext_and_json():
    _, cli = added_modules()
    assert "fenchelfix.cli" in cli
    assert {m for m in foreign(cli) if m != "json" and not m.startswith("json.")} <= CLI_ALLOWED
