"""Every README command, replayed in-process against the output recorded in
perfbench/goldens.json: same exit code, byte-identical stdout."""

import json
from pathlib import Path

import pytest

from ncschur.cli import main

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"


def load_goldens():
    with GOLDENS.open() as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "golden", load_goldens(), ids=lambda g: " ".join(g["argv"])
)
def test_readme_command_matches_golden(golden, capsys):
    try:
        code = main(list(golden["argv"]))
    except SystemExit as exc:
        code = exc.code
    assert code == golden["code"]
    assert capsys.readouterr().out == golden["stdout"]
