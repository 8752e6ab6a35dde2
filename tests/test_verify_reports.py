"""The default ``ncschur verify`` reports that perfbench/goldens.json does
not pin: those of the suites whose commands the README does not list, and
the README's ``verify prod`` and ``verify lgv``, which goldens.json leaves
out (it holds the README's ``verify ncschur-triangular``). Each suite runs
at its CLI defaults, plain and ``--format json``, replayed in-process
against the recorded stdout, byte for byte, with exit code 0."""

import pytest

from ncschur.cli import main

SPECHT_DETAIL = (
    "shapes of size <= 5; rank/standard-count 1:1/1 2:1/1 1.1:0/1 3:1/1 2.1:2/2 1.1.1:0/1 "
    "4:1/1 3.1:3/3 2.2:2/2 2.1.1:0/3 1.1.1.1:0/1 5:1/1 4.1:4/4 3.2:5/5 3.1.1:0/6 2.2.1:5/5 "
    "2.1.1.1:0/4 1.1.1.1.1:0/1"
)

# suite -> (plain stdout, --format json stdout)
GOLDENS = {
    "prod": (
        "prod: ok (|lam|+|mu| <= 7; slash/oracle pairs of total size <= 6)\n",
        '{"name": "prod", "ok": true, "detail": "|lam|+|mu| <= 7; slash/oracle pairs of total '
        'size <= 6", "counterexample": null}\n',
    ),
    "transpose": (
        "transpose: ok (degrees n <= 5)\n",
        '{"name": "transpose", "ok": true, "detail": "degrees n <= 5", '
        '"counterexample": null}\n',
    ),
    "deltaact": (
        "deltaact: ok (200 random instances, degrees <= 3, seed 0)\n",
        '{"name": "deltaact", "ok": true, "detail": "200 random instances, degrees <= 3, '
        'seed 0", "counterexample": null}\n',
    ),
    "rsrefines": (
        "rsrefines: ok (skew sizes <= 5, inner shapes of size <= 3)\n",
        '{"name": "rsrefines", "ok": true, "detail": "skew sizes <= 5, inner shapes of '
        'size <= 3", "counterexample": null}\n',
    ),
    "rslr": (
        "rslr: ok (skew sizes <= 6, inner shapes of size <= 3)\n",
        '{"name": "rslr", "ok": true, "detail": "skew sizes <= 6, inner shapes of size <= 3", '
        '"counterexample": null}\n',
    ),
    "rscoprod": (
        "rscoprod: ok (shapes of size <= 4, all bidegrees)\n",
        '{"name": "rscoprod", "ok": true, "detail": "shapes of size <= 4, all bidegrees", '
        '"counterexample": null}\n',
    ),
    "iota": (
        "iota: ok (compositions and shapes of size <= 6)\n",
        '{"name": "iota", "ok": true, "detail": "compositions and shapes of size <= 6", '
        '"counterexample": null}\n',
    ),
    "lgv": (
        "lgv: ok (skew sizes <= 4, height cap <= 3, inner shapes of size <= 2)\n",
        '{"name": "lgv", "ok": true, "detail": "skew sizes <= 4, height cap <= 3, inner shapes '
        'of size <= 2", "counterexample": null}\n',
    ),
    "specht": (
        f"specht: ok ({SPECHT_DETAIL})\n",
        f'{{"name": "specht", "ok": true, "detail": "{SPECHT_DETAIL}", '
        '"counterexample": null}\n',
    ),
}

CASES = [(["verify", suite], plain) for suite, (plain, _) in GOLDENS.items()] + [
    (["--format", "json", "verify", suite], js) for suite, (_, js) in GOLDENS.items()]


@pytest.mark.parametrize("argv, stdout", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_default_verify_report_matches_golden(argv, stdout, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout
