"""What a fresh interpreter loads: the package's public names resolve on first use, and a CLI
request imports only its own subcommand's modules."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permderiv

# The directory that holds the package this test imported, so each child imports the same copy.
ROOT = str(Path(permderiv.__file__).resolve().parents[1])

SEARCH_SIDE = {f"permderiv.{name}" for name in ("search", "costas", "convexity", "triangle", "verify")}

STAR_BINDS_EACH_HOME_OBJECT = """
from permderiv import *
import permderiv
star = globals()
for name in permderiv.__all__:
    module = sys.modules["permderiv." + permderiv._HOME[name]]
    assert star[name] is vars(module)[name], name
    assert getattr(star[name], "__module__", module.__name__) == module.__name__, name
"""


def loaded(code: str) -> set[str]:
    """The permderiv modules a fresh interpreter holds after running code."""
    script = f"import json, sys\n{code}\nprint(json.dumps([m for m in sys.modules if m.startswith('permderiv')]))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (ROOT, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_permderiv_loads_no_submodule():
    assert loaded("import permderiv") == {"permderiv"}


def test_import_perm_core_loads_perm_core_alone():
    assert loaded("import permderiv.perm_core") == {"permderiv", "permderiv.perm_core"}


def test_import_search_loads_what_its_walkers_and_properties_need():
    # its check-only builders import variation or dpair in their bodies; costas imports search
    assert loaded("import permderiv.search") == {
        f"permderiv{name}" for name in ("", ".perm_core", ".triangle", ".variation", ".convexity", ".search")}


@pytest.mark.parametrize("argv", [["derive", "5,2,7,4,1,6,3"], ["integrate", "-3,5,-3,-3,5,-3"]], ids=["derive", "integrate"])
def test_a_derive_or_integrate_request_leaves_the_search_side_unloaded(argv):
    modules = loaded(f"from permderiv import cli\nassert cli.run({argv!r}) == 0")
    assert "permderiv.cli" in modules
    assert not modules & SEARCH_SIDE


def test_star_import_binds_each_name_to_its_own_modules_object():
    assert loaded(STAR_BINDS_EACH_HOME_OBJECT) >= {"permderiv.search", "permderiv.costas", "permderiv.perm_core"}
