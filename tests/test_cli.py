import json
import time

import pytest

from ncschur.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_schur_pi_exact_rendering(capsys):
    code, out, _ = run(capsys, "schur", "--pi", "13/2")
    assert code == 0
    assert out.strip() == "1/2 h[13/2] - 1/6 h[123]"


def test_schur_transpose(capsys):
    code, out, _ = run(capsys, "schur", "--pi", "13/2", "--transpose")
    assert code == 0
    assert out.strip() == "1/2 e[13/2] - 1/6 e[123]"


def test_schur_source_shape(capsys):
    code, out, _ = run(capsys, "schur", "--shape", "2.1")
    assert code == 0
    assert out.strip() == "1/2 h[12/3] - 1/6 h[123]"


def test_schur_shape_with_delta_matches_pi(capsys):
    _, via_pi, _ = run(capsys, "schur", "--pi", "13/2")
    _, via_delta, _ = run(capsys, "schur", "--shape", "2.1", "--delta", "132")
    assert via_pi == via_delta


def test_schur_tabloid(capsys):
    code, out, _ = run(capsys, "schur", "--tabloid", "12/3")
    assert code == 0
    assert out.strip() == "h[12/3] - 1/3 h[123]"


def test_schur_without_index_is_usage_error(capsys):
    code, _, err = run(capsys, "schur")
    assert code == 2
    assert "schur" in err


def test_expand_to_monomials(capsys):
    code, out, _ = run(capsys, "expand", "--basis", "e", "--index", "123")
    assert code == 0
    assert out.strip() == "m[1/2/3]"


def test_expand_to_words(capsys):
    code, out, _ = run(capsys, "expand", "--basis", "m", "--index", "12", "--vars", "2")
    assert code == 0
    lines = sorted(out.strip().splitlines())
    assert lines == ["1\tx1x1", "1\tx2x2"]


def test_convert_round_trip(capsys):
    code, out, _ = run(capsys, "convert", "--basis", "h", "--index", "13/2", "--to", "s")
    assert code == 0
    assert out.strip() == "2 s[13/2] + 2 s[123]"


def test_multiply_slash(capsys):
    code, out, _ = run(capsys, "multiply", "--basis", "h", "--index", "12", "--index2", "1")
    assert code == 0
    assert out.strip() == "h[12/3]"


def test_omega(capsys):
    code, out, _ = run(capsys, "omega", "--basis", "p", "--index", "12/3")
    assert code == 0
    assert out.strip() == "-p[12/3]"


def test_act(capsys):
    code, out, _ = run(capsys, "act", "--basis", "h", "--index", "12/3", "--delta", "132")
    assert code == 0
    assert out.strip() == "h[13/2]"


def test_rho(capsys):
    code, out, _ = run(capsys, "rho", "--basis", "h", "--index", "13/2")
    assert code == 0
    assert out.strip() == "2 h[2.1]"


def test_rs(capsys):
    code, out, _ = run(capsys, "rs", "--shape", "2")
    assert code == 0
    assert out.strip() == "m[1/2] + 2 m[12]"


def test_lr(capsys):
    code, out, _ = run(capsys, "lr", "--shape", "2.2/1")
    assert code == 0
    assert out.strip() == "2.1\t1"


def test_kostka(capsys):
    code, out, _ = run(capsys, "kostka", "--shape", "2.1", "--content", "1.1.1")
    assert code == 0
    assert out.strip() == "2"


def test_specht_rank(capsys):
    code, out, _ = run(capsys, "specht-rank", "--shape", "2.1")
    assert code == 0
    assert out.strip() == "2"


def test_lgv_check_ledger(capsys):
    code, out, _ = run(capsys, "lgv-check", "--shape", "2.1", "--cap", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines
    for line in lines:
        sign, word, eps, fixed = line.split("\t")
        assert sign in ("+1", "-1")
        assert fixed in ("0", "1")
    fixed_count = sum(1 for line in lines if line.endswith("\t1"))
    assert fixed_count == 2


def test_json_format(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "schur", "--pi", "13/2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == "h"


def test_json_round_trip_through_expr_flag(capsys):
    _, out, _ = run(capsys, "--format", "json", "schur", "--pi", "13/2")
    code, out2, _ = run(capsys, "convert", "--expr", out.strip(), "--to", "s")
    assert code == 0
    assert out2.strip() == "s[13/2]"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "schur", "--pi", "xx/2")
    assert code == 2
    assert "position 0" in err


def test_bad_partition_exit_code(capsys):
    code, _, err = run(capsys, "kostka", "--shape", "1.2", "--content", "1")
    assert code == 2


def test_verify_suite_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "deltaact", "--max-size", "3", "--seed", "1")
    assert code == 0
    assert "ok" in out.lower() or "pass" in out.lower()


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nope"])
    assert exc.value.code == 2


def test_verify_max_size_reaches_the_suites_own_keyword(capsys):
    code, out, _ = run(capsys, "verify", "specht", "--max-size", "2")
    assert code == 0
    assert "shapes of size <= 2" in out


def test_verify_rejects_a_seed_the_suite_does_not_take(capsys):
    code, out, err = run(capsys, "verify", "iota", "--seed", "3")
    assert code == 2
    assert out == ""
    assert "--seed" in err


def test_every_suite_has_exactly_one_size_keyword(capsys):
    import inspect

    from ncschur import verify
    from ncschur.cli import SIZE_OPTIONS

    for fn in verify.SUITES.values():
        params = inspect.signature(fn).parameters
        assert sum(k in params for k in SIZE_OPTIONS) == 1
    code, out, _ = run(capsys, "verify", "deltaact", "--max-size", "2")
    assert code == 0
    assert "degrees <= 2" in out


@pytest.mark.parametrize(
    "payload, message",
    [
        ("[1]", "payload must be a JSON object"),
        ('{"basis": "h"}', "payload has no 'terms' field"),
        ('{"basis": "h", "terms": 5}', "payload field 'terms' has the wrong type"),
        ('{"terms": []}', "payload has no 'basis' field"),
        ('{"basis": "h", "terms": [7]}', "terms[0] must be a JSON object"),
        ('{"basis": "h", "terms": [{"coeff": "1"}]}', "terms[0] has no 'index' field"),
        ('{"basis": "h", "terms": [{"index": 1, "coeff": "1"}]}', "'index' has the wrong"),
        ('{"basis": "h", "terms": [{"index": "1"}]}', "terms[0] has no 'coeff' field"),
        ('{"basis": "h", "terms": [{"index": "1", "coeff": "1/0"}]}', "'coeff' is not a"),
        ('{"basis": "h", "terms": [{"index": "1", "coeff": "x"}]}', "'coeff' is not a"),
        ('{"basis": "h", "terms": [{"index": "1", "coeff": 0.1}]}', "'coeff' has the wrong"),
        ('{"basis": "h", "terms": [{"index": "1", "coeff": [2]}]}', "'coeff' has the wrong"),
    ],
)
def test_malformed_expr_payload_is_a_usage_error(capsys, payload, message):
    code, out, err = run(capsys, "convert", "--expr", payload, "--to", "m")
    assert (code, out) == (2, "")
    assert message in err


def test_verify_prod_max_size_bounds_every_section(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "prod", "--max-size", "2")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert out == "prod: ok (|lam|+|mu| <= 2; slash/oracle pairs of total size <= 2)\n"
