"""The package namespace loads each module on first use, and a CLI command
imports only the modules that it runs. The import checks run in a fresh
interpreter, since this test process has imported every module already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(code: str):
    """Run code in a new interpreter with the package on its path and
    return what it prints, read as JSON."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


LOADED = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith('ncschur'))))"


def test_importing_the_package_loads_no_submodule():
    assert fresh(f"import ncschur; {LOADED}") == ["ncschur"]


def test_convert_loads_only_the_modules_it_runs():
    loaded = fresh(
        "import ncschur.cli as cli; "
        "cli.main(['--format', 'json', 'convert', '--basis', 'm', '--index', '13/2', '--to', 'e']); "
        + LOADED
    )
    assert "ncschur.ncsym" in loaded
    for name in ("schur", "ratlin", "nsym", "lgv", "verify", "ncpoly"):
        assert f"ncschur.{name}" not in loaded


@pytest.mark.parametrize("argv, oracle", [
    (["schur", "--pi", "13/2"], False),
    (["lr", "--shape", "2.2/1"], False),
    (["verify", "specht"], False),
    (["expand", "--basis", "m", "--index", "13/2", "--vars", "2"], True),
])
def test_only_expand_with_vars_loads_the_polynomial_oracle(argv, oracle):
    loaded = fresh(f"import ncschur.cli as cli; cli.main({argv!r}); " + LOADED)
    assert ("ncschur.ncpoly" in loaded) == oracle


@pytest.mark.parametrize("argv", [
    ["convert", "--basis", "m", "--index", "13/2", "--to", "s"],
    ["verify", "ncschur-triangular"],
])
def test_the_schur_basis_change_and_the_triangular_suite_run_no_dense_elimination(argv):
    loaded = fresh(f"import ncschur.cli as cli; cli.main({argv!r}); " + LOADED)
    assert "ncschur.schur" in loaded
    assert "ncschur.ratlin" not in loaded


def test_lr_does_not_load_the_schur_module():
    loaded = fresh("import ncschur.cli as cli; cli.main(['lr', '--shape', '2.2/1']); " + LOADED)
    assert "ncschur.sym" in loaded
    assert "ncschur.schur" not in loaded


def test_every_public_name_is_the_object_of_its_defining_module():
    names = fresh(
        "import importlib, json, ncschur\n"
        "from ncschur import *\n"
        "bad = []\n"
        "for name in ncschur.__all__:\n"
        "    module = importlib.import_module('ncschur.' + ncschur._SOURCES[name])\n"
        "    obj = getattr(module, name)\n"
        "    if not (obj is getattr(ncschur, name) is globals()[name]\n"
        "            and obj.__module__ == module.__name__):\n"
        "        bad.append(name)\n"
        "print(json.dumps([len(ncschur.__all__), bad]))"
    )
    assert names == [43, []]


def test_an_unknown_attribute_raises_attribute_error():
    assert fresh(
        "import json, ncschur\n"
        "raised = []\n"
        "try:\n"
        "    ncschur.no_such_name\n"
        "except AttributeError as exc:\n"
        "    raised.append(str(exc))\n"
        "try:\n"
        "    from ncschur import no_such_name\n"
        "except ImportError:\n"
        "    raised.append('ImportError')\n"
        "print(json.dumps(raised))"
    ) == ["module 'ncschur' has no attribute 'no_such_name'", "ImportError"]


def test_cli_suite_names_match_the_verify_suites():
    from ncschur import verify
    from ncschur.cli import SUITE_NAMES

    assert SUITE_NAMES == tuple(verify.SUITES)
