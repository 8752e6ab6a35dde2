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


def usage_error(capsys, *argv):
    """The exit code and stderr of a command that argparse or the command
    itself rejects."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def test_schur_without_index_is_usage_error(capsys):
    code, err = usage_error(capsys, "schur")
    assert code == 2
    assert "schur" in err


@pytest.mark.parametrize("argv, options", [
    (("--pi", "13/2", "--shape", "2.1"), ("--pi", "--shape")),
    (("--pi", "13/2", "--tabloid", "12/3"), ("--pi", "--tabloid")),
    (("--shape", "2.1", "--transpose"), ("--transpose", "--pi")),
    (("--tabloid", "12/3", "--transpose"), ("--transpose", "--pi")),
    (("--pi", "13/2", "--delta", "132"), ("--delta", "--shape")),
])
def test_schur_rejects_an_option_it_would_ignore(capsys, argv, options):
    code, err = usage_error(capsys, "schur", *argv)
    assert code == 2
    assert all(option in err for option in options)


def test_expand_to_monomials(capsys):
    code, out, _ = run(capsys, "expand", "--basis", "e", "--index", "123")
    assert code == 0
    assert out.strip() == "m[1/2/3]"


def test_expand_to_words(capsys):
    code, out, _ = run(capsys, "expand", "--basis", "m", "--index", "12", "--vars", "2")
    assert code == 0
    lines = sorted(out.strip().splitlines())
    assert lines == ["1\tx1x1", "1\tx2x2"]


def test_expand_to_words_needs_a_variable(capsys):
    for k in ("0", "-1"):
        code, out, err = run(capsys, "expand", "--basis", "m", "--index", "12", "--vars", k)
        assert code == 2
        assert out == ""
        assert "need at least one variable" in err


def test_expand_to_words_refuses_too_many_words(capsys):
    code, out, err = run(capsys, "expand", "--basis", "h", "--index", "1/2/3/4/5", "--vars", "30")
    assert code == 2
    assert out == ""
    assert err == ("oracle expansion of h[1/2/3/4/5] over 30 variables: "
                   "24300000 words exceed the limit 1000000\n")


def test_convert_round_trip(capsys):
    code, out, _ = run(capsys, "convert", "--basis", "h", "--index", "13/2", "--to", "s")
    assert code == 0
    assert out.strip() == "2 s[13/2] + 2 s[123]"


def test_convert_to_h_expands_a_schur_index_of_degree_10(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "convert", "--basis", "s", "--index", "1,10/2/3/4/5/6/7/8/9",
                       "--to", "h")
    assert code == 0
    assert out.startswith("1/2 h[1,10/2/3/4/5/6/7/8/9] - 1/4 h[1,10/2/3/4/5/6/7/8,9] ")
    assert out.count("[") == out.count(" h[")
    assert time.perf_counter() - start < 5


def test_convert_to_h_prints_the_monomial_round_trip(capsys):
    from ncschur.combinat import format_set_partition, set_partitions
    from ncschur.ncsym import NCSymExpr, from_m, to_m

    for basis in NCSymExpr.BASES:
        for n in range(5):
            for pi in set_partitions(n):
                index = format_set_partition(pi)
                code, out, _ = run(capsys, "convert", "--basis", basis, "--index", index,
                                   "--to", "h")
                assert code == 0
                assert out == f"{from_m(to_m(NCSymExpr.single(basis, pi)), 'h')}\n", (basis, index)


def test_multiply_slash(capsys):
    code, out, _ = run(capsys, "multiply", "--basis", "h", "--index", "12", "--index2", "1")
    assert code == 0
    assert out.strip() == "h[12/3]"


def test_omega(capsys):
    code, out, _ = run(capsys, "omega", "--basis", "p", "--index", "12/3")
    assert code == 0
    assert out.strip() == "-p[12/3]"


def test_omega_round_trips_an_index_past_degree_9(capsys):
    code, out, _ = run(capsys, "omega", "--basis", "h", "--index", "1,10/2/3/4/5/6/7/8/9")
    assert code == 0
    assert out.strip() == "e[1,10/2/3/4/5/6/7/8/9]"
    code, back, _ = run(capsys, "omega", "--basis", "e", "--index", out.strip()[2:-1])
    assert code == 0
    assert back.strip() == "h[1,10/2/3/4/5/6/7/8/9]"
    _, payload, _ = run(capsys, "--format", "json", "omega", "--basis", "h",
                        "--index", "1/2/3/4/5/6/7/8/9/10")
    code, again, _ = run(capsys, "omega", "--expr", payload.strip())
    assert code == 0
    assert again.strip() == "h[1/2/3/4/5/6/7/8/9/10]"


def test_act(capsys):
    code, out, _ = run(capsys, "act", "--basis", "h", "--index", "12/3", "--delta", "132")
    assert code == 0
    assert out.strip() == "h[13/2]"


def test_act_with_a_permutation_of_the_wrong_size(capsys):
    code, out, err = run(capsys, "act", "--basis", "h", "--index", "12/3", "--delta", "12")
    assert (code, out) == (2, "")
    assert err == "permutation size must match the set partition\n"


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


def test_lr_reports_a_bad_kostka_row_with_exit_1(capsys, monkeypatch):
    import ncschur.sym as sym

    good = sym._index_to_m
    monkeypatch.setattr(sym, "_index_to_m", lambda basis, lam: {
        g: 2 * k for g, k in good(basis, lam).items()} if basis == "s" else good(basis, lam))
    code, out, err = run(capsys, "lr", "--shape", "2.2/1")
    assert (code, out) == (1, "")
    assert err.strip() == "matrix not unitriangular: row 2.1, column 2.1 holds 2, not 1"


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


@pytest.mark.parametrize("suite, size", [("deltaact", "0"), ("prod", "-1")])
def test_verify_max_size_below_one_is_a_usage_error(capsys, suite, size):
    code, out, err = run(capsys, "verify", suite, "--max-size", size)
    assert (code, out) == (2, "")
    assert f"verify {suite}: --max-size must be at least 1" in err


def test_verify_rejects_a_seed_the_suite_does_not_take(capsys):
    code, out, err = run(capsys, "verify", "iota", "--seed", "3")
    assert code == 2
    assert out == ""
    assert "--seed" in err


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "specht", "--max-size", "2")
    assert code == 0
    assert json.loads(out) == {
        "name": "specht",
        "ok": True,
        "detail": "shapes of size <= 2; rank/standard-count 1:1/1 2:1/1 1.1:0/1",
        "counterexample": None,
    }


def test_verify_json_report_of_a_failing_suite(capsys, monkeypatch):
    from ncschur import schur

    orig = schur.ribbon_source
    monkeypatch.setattr(schur, "ribbon_source", lambda alpha: -orig(alpha))
    code, out, _ = run(capsys, "--format", "json", "verify", "iota", "--max-size", "2")
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out) == {
        "name": "iota",
        "ok": False,
        "detail": "compositions and shapes of size <= 2",
        "counterexample": "ribbon alpha=1",
    }
    code, out, _ = run(capsys, "verify", "iota", "--max-size", "2")
    assert code == 1
    assert out == (
        "iota: FAILED (compositions and shapes of size <= 2)\ncounterexample: ribbon alpha=1\n"
    )


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
        ('{"basis": "h", "terms": [{"index": "12", "coeff": true}]}', "'coeff' has the wrong"),
        ('{"basis": "h", "terms": [{"index": "12", "coeff": false}]}', "'coeff' has the wrong"),
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
