import contextlib
import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import coisocap.kfun as kfun
from coisocap import cli, parse_product, verify
from coisocap.cli import _JSON_BATCH, TABLE_MAX_ROWS, run
from coisocap.errors import OutOfRangeError, check_rational_size, clip, digit_limit
from coisocap.verify import VERIFY_MAX_CELLS

K_ROW_1_TO_20 = [1, 2, 3, 2, 3, 4, 5, 4, 3, 4, 5, 6, 5, 6, 7, 4, 5, 6, 7, 6]


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# kfun queries
# ---------------------------------------------------------------------------

def test_kfun_text_example(capsys):
    code, out, _ = invoke(capsys, "kfun", "K", "16")
    assert code == 0
    assert out == "K(16) = 4, witness [(4,4)]\n"


def test_kfun_infeasible_text(capsys):
    code, out, _ = invoke(capsys, "kfun", "keq", "3", "2")
    assert code == 0
    assert out == "keq(3,2) = inf\n"


def test_kfun_json(capsys):
    code, out, _ = invoke(capsys, "kfun", "keq", "4", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["query"] == "kfun keq 4 4"
    assert payload["value"] == 2
    assert payload["witness"] == [[2, 2]]
    assert payload["provenance"] == []
    code, out, _ = invoke(capsys, "kfun", "keq", "3", "2", "--format", "json")
    assert json.loads(out)["value"] == "inf"
    assert json.loads(out)["witness"] is None


def test_kfun_rational_d(capsys):
    code, out, _ = invoke(capsys, "kfun", "kk", "4", "9/2")
    assert code == 0
    assert out == "kk(4,9/2) = 2, witness [(2,2)]\n"


def test_kfun_usage_errors(capsys):
    code, _, err = invoke(capsys, "kfun", "K", "16", "3")
    assert code == 2 and "no d argument" in err
    code, _, err = invoke(capsys, "kfun", "keq", "4")
    assert code == 2 and "requires a d" in err
    code, _, err = invoke(capsys, "kfun", "keq", "4", "x")
    assert code == 2
    code, _, _ = invoke(capsys, "kfun", "woof", "4")
    assert code == 2


def test_kfun_domain_error(capsys):
    code, _, err = invoke(capsys, "kfun", "keq", "4", "-1")
    assert code == 1 and "d must be >= 0" in err


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_table_k_csv(capsys):
    code, out, _ = invoke(capsys, "table", "K", "1", "20", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "value", "witness"]
    assert [int(r[1]) for r in rows[1:]] == K_ROW_1_TO_20
    assert rows[16][2] == "[(4,4)]"


def test_table_keq_with_d(capsys):
    code, out, _ = invoke(capsys, "table", "keq", "1", "6", "--d", "4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "d", "value", "witness"]
    by_n = {int(r[0]): r[2] for r in rows[1:]}
    assert by_n[4] == "2"       # on the window
    assert by_n[1] == "inf"     # d > 2n - 1
    assert by_n[6] == "inf"     # d < n


def test_table_usage(capsys):
    code, _, err = invoke(capsys, "table", "K", "5", "3")
    assert code == 2 and "start <= stop" in err
    code, _, err = invoke(capsys, "table", "keq", "1", "5")
    assert code == 2 and "--d" in err
    code, _, err = invoke(capsys, "table", "K", "1", "5", "--d", "3")
    assert code == 2


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bound_energy_json_example(capsys):
    code, out, _ = invoke(capsys, "bound", "energy", "S(2;pi) x S(2;pi)")
    assert code == 0
    payload = json.loads(out)
    assert payload["interval"]["lower"] == {"num": 1, "den": 1, "unit": "pi"}
    assert payload["interval"]["upper"] == {"num": 1, "den": 1, "unit": "pi"}
    lower_ids = [c["id"] for c in payload["provenance"]["lower"]]
    upper_ids = [c["id"] for c in payload["provenance"]["upper"]]
    assert lower_ids == ["cor:e-A-Cross", "eq:A-min"]
    assert upper_ids == ["rem:e-M-M'", "rem:e-Z-2n-a"]


def test_bound_energy_expr_error(capsys):
    code, _, err = invoke(capsys, "bound", "energy", "S(2;pi) + S(2;pi)")
    assert code == 2 and "error" in err


def test_bound_capacity(capsys):
    code, out, _ = invoke(capsys, "bound", "capacity", "4", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["interval"]["lower"] == {"num": 1, "den": 2, "unit": "pi"}
    assert payload["interval"]["upper"] == {"num": 1, "den": 1, "unit": "pi"}
    assert payload["witness"] == [[2, 2]]
    code, _, err = invoke(capsys, "bound", "capacity", "3", "2")
    assert code == 1 and "n <= d <= 2n - 1" in err


def test_bound_squeeze(capsys):
    code, out, _ = invoke(capsys, "bound", "squeeze", "9", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload["interval"]["lower"] == {"num": 1, "den": 3, "unit": "pi"}
    assert payload["interval"]["upper"] == {"num": 1, "den": 1, "unit": "pi"}
    code, out, _ = invoke(capsys, "bound", "squeeze", "2", "4")
    payload = json.loads(out)
    assert payload["interval"]["lower"] == payload["interval"]["upper"]


def test_bound_width(capsys):
    code, out, _ = invoke(capsys, "bound", "width", "2pi")
    assert code == 0
    payload = json.loads(out)
    assert payload["interval"]["lower"] == {"num": 2, "den": 1, "unit": "pi"}
    assert payload["interval"]["upper"] == {"num": 2, "den": 1, "unit": "pi"}
    prov = [c["id"] for c in payload["provenance"]["upper"]]
    assert prov == ["rem:e-Z-2n-a"]
    code, out, _ = invoke(capsys, "bound", "width", "pi", "--closed-factor")
    prov = [c["id"] for c in json.loads(out)["provenance"]["upper"]]
    assert prov == ["rem:e-M-M'", "rem:e-Z-2n-a"]
    code, _, err = invoke(capsys, "bound", "width", "0")
    assert code == 1


# an area takes no decimal point, exponent, sign or underscore
@pytest.mark.parametrize("argv, token", [
    (("bound", "width", "3*2"), "3*2"),
    (("spectrum", "S(1;/2)"), "/2"),
    (("spectrum", "S(1;1e3)"), "1e3"),
    (("spectrum", "S(1;1_000)"), "1_000"),
    (("spectrum", "S(1;1.5pi)"), "1.5pi"),
    (("spectrum", "S(1;.5)"), ".5"),
    (("spectrum", "S(1;+3)"), "+3"),
    (("bound", "width", "1e3"), "1e3"),
], ids=["star-between-digits", "empty-numerator", "exponent", "underscore", "decimal-point",
        "leading-point", "sign", "width-exponent"])
def test_misplaced_star_or_slash_is_a_bad_area(capsys, argv, token):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: bad area {token!r}\n"


# argparse's usage lines at COLUMNS=80, which head its error messages
_USAGE = {
    "kfun": "usage: coisocap kfun [-h] [--format {text,json,csv}] {K,keq,kk} n [d]\n",
    "table": "usage: coisocap table [-h] [--d D] [--format {text,json,csv}]\n"
             "                      {K,keq,kk} start stop\n",
    "verify": "usage: coisocap verify [-h] --nmax NMAX [--dmax DMAX]\n"
              "                       [--format {text,json,csv}]\n"
              "                       {kfun-props,oracle,bounds-props,all}\n",
    "bound capacity": "usage: coisocap bound capacity [-h] [--format {text,json,csv}] n d\n",
}


def _argparse_error(command, message):
    return f"{_USAGE[command]}coisocap {command}: error: {message}\n"


# blanks separate tokens and never join them, and only ASCII digits are
# digits, in an object and in a number of argv alike
@pytest.mark.parametrize("argv, err", [
    (("spectrum", "S(1 0;pi)"), "error: unrecognized factor 'S(1 0;pi)'\n"),
    (("spectrum", "S(1;1 2pi)"), "error: bad area '1 2pi'\n"),
    (("bound", "energy", "S(2;pi) x V(1,2 3;pi)"), "error: unrecognized factor 'V(1,2 3;pi)'\n"),
    (("bound", "width", "1 2"), "error: bad area '1 2'\n"),
    (("spectrum", "C(T 2,1;pi)"), "error: unrecognized factor 'C(T 2,1;pi)'\n"),
    (("spectrum", "C(a b,1;pi)"), "error: unrecognized factor 'C(a b,1;pi)'\n"),
    (("spectrum", "C(T2,1;0;as ph)"), "error: unrecognized factor 'C(T2,1;0;as ph)'\n"),
    (("spectrum", "S(\u0661;pi)"), "error: unrecognized factor 'S(\u0661;pi)'\n"),
    (("kfun", "keq", "\u0665", "\u0661\u0660"),
     _argparse_error("kfun", "argument n: expected an integer, got '\u0665'")),
    (("kfun", "keq", "5", "1_0"), "error: d must be an integer, got '1_0'\n"),
    (("kfun", "kk", "5", "\u0661\u0660/\u0662"),
     "error: d must be a rational like 9/2, got '\u0661\u0660/\u0662'\n"),
    (("table", "keq", "1", "\u0663", "--d", "5"),
     _argparse_error("table", "argument stop: expected an integer, got '\u0663'")),
    (("verify", "oracle", "--nmax", "\u0661"),
     _argparse_error("verify", "argument --nmax: expected an integer, got '\u0661'")),
    (("bound", "capacity", "\u0664", "\u0664"),
     _argparse_error("bound capacity", "argument n: expected an integer, got '\u0664'")),
    (("bound", "squeeze", "9", "1_9/2"), "error: d must be a rational like 9/2, got '1_9/2'\n"),
], ids=["sphere-m", "sphere-area", "frame-n", "width", "label-digits", "label-words", "asph",
        "arabic-indic-digit", "keq-arabic-indic-n", "keq-underscore-d", "kk-arabic-indic-d",
        "table-arabic-indic-stop", "verify-arabic-indic-nmax", "capacity-arabic-indic-n",
        "squeeze-underscore-d"])
def test_blanks_between_digits_are_a_parse_error(capsys, monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert invoke(capsys, *argv) == (2, "", err)


def test_bound_text_format(capsys):
    code, out, _ = invoke(capsys, "bound", "capacity", "4", "7", "--format", "text")
    assert code == 0
    assert "bound capacity 4 7: [pi, pi]" in out
    assert "eq:A-coiso-d-B" in out


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_text(capsys):
    code, out, _ = invoke(capsys, "spectrum", "S(2;pi/2) x S(3;pi/3)")
    assert code == 0
    assert "product spectrum: pi/6*Z" in out
    assert "minimal action: pi/6" in out
    assert "split minimal action: pi/3" in out


def test_spectrum_json_notes(capsys):
    code, out, _ = invoke(capsys, "spectrum", "V(2,3;pi/2)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"]["product_spectrum"] == {
        "kind": "lattice",
        "gen": {"num": 1, "den": 2, "unit": "pi"},
    }
    assert any("lattice-assumption" in note for note in payload["notes"])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes(capsys):
    code, out, _ = invoke(capsys, "verify", "kfun-props", "--nmax", "5")
    assert code == 0
    assert "verify kfun-props: ok" in out
    assert "fail=0" in out


def test_verify_json(capsys):
    code, out, _ = invoke(capsys, "verify", "oracle", "--nmax", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)
    assert all(c["fail_count"] == 0 for c in payload["checks"])
    assert "wall_time_ms" in payload


def test_verify_bad_nmax_is_parse_error(capsys):
    code, _, _ = invoke(capsys, "verify", "all", "--nmax", "0")
    assert code == 2


def _broken_kk(n, d):
    """A kk that claims cost 1 everywhere, so ``verify kfun-props`` fails."""
    return kfun.WitnessedValue(
        kfun.ExtNat(1), kfun.Decomposition.from_pairs([kfun.Pair(1, n)])
    )


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_verify_reports_failures_with_exit_3(capsys, monkeypatch, fmt):
    monkeypatch.setattr(kfun, "kk", _broken_kk)
    code, out, _ = invoke(capsys, "verify", "kfun-props", "--nmax", "4", "--format", fmt)
    assert code == 3
    if fmt == "text":
        assert "FAILED" in out
        assert "first_failure=" in out
    elif fmt == "json":
        failed = [c for c in json.loads(out)["checks"] if c["fail_count"]]
        assert failed and all(c["first_failure"] for c in failed)
    else:
        rows = list(csv.DictReader(io.StringIO(out)))
        failed = [r for r in rows if r["fail_count"] != "0"]
        assert failed and all(r["first_failure"] for r in failed)


@pytest.mark.parametrize("first_failure, text, inputs", [
    ((parse_product("S(2;pi) x C(S2,1;pi/3)"), Fraction(1, 2)),
     "(S(2;pi) x C(S2,1;pi/3), 1/2)", ["S(2;pi) x C(S2,1;pi/3)", "1/2"]),
    ((5,), "(5,)", ["5"]),
], ids=["product-and-fraction", "int-1-tuple"])
def test_verify_prints_each_failing_input_by_its_str(capsys, monkeypatch, first_failure,
                                                     text, inputs):
    """Text and CSV spell a first failure as Python spells a tuple of ints,
    each input by its str, as JSON lists it: never a repr."""
    report = verify.VerifyReport((verify.CheckResult("c", "r", 1, 1, first_failure),), 0)
    monkeypatch.setattr(verify, "run_suite", lambda *args: report)
    outs = {fmt: invoke(capsys, "verify", "all", "--nmax", "1", "--format", fmt)
            for fmt in ("text", "json", "csv")}
    assert {code for code, _, _ in outs.values()} == {3}
    assert outs["text"][1].splitlines()[0] == f"check c [r] pass=1 fail=1 first_failure={text}"
    assert json.loads(outs["json"][1])["checks"][0]["first_failure"] == inputs
    assert next(csv.DictReader(io.StringIO(outs["csv"][1])))["first_failure"] == text


@pytest.mark.parametrize("argv, message", [
    (("kfun", "K", "1000000000000000"),
     f"K is tabulated only for n <= {kfun.BIG_K_NMAX} (its table size limit)"),
    # refused before the first row, not when the table reaches it
    (("table", "K", "1", "1000001"), f"table prints at most {TABLE_MAX_ROWS} rows"),
], ids=["kfun-K", "table-K"])
def test_k_above_the_table_limit_is_a_domain_error(capsys, argv, message):
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("table", "kk", "1", "100001", "--d", "3"),
    ("table", "keq", "7", "100007", "--d", "3"),
    ("table", "K", "1", "100001"),
], ids=lambda argv: argv[1])
def test_table_above_the_row_limit_is_a_domain_error(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err == f"error: table prints at most {TABLE_MAX_ROWS} rows\n"


# the one guard of a K table range, which also refuses rows above the K size limit
@pytest.mark.parametrize("start, stop", [("1", "100000"), ("900001", "1000000"),
                                         ("1000001", "1000001"), ("999999", "1000001")])
def test_table_k_rows_above_one_table_of_work_are_a_domain_error(capsys, start, stop):
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, "table", "K", start, stop)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err == (f"error: K rows {start}..{stop} cost more than one K table at the size limit"
                   " (the sum of n*isqrt(n) must be <= 1000000000)\n")


_LIMIT = sys.get_int_max_str_digits()
_TOO_LONG = "1" * _LIMIT


def _too_big(name):
    return f"{name} needs a numerator and a denominator of fewer than {_LIMIT} digits"


# areas within the limit whose product spectrum is not: 10**3999 and 33...3
# are coprime, so the generator's denominator, their lcm, has 8,000 digits
_WIDE = f"S(1;1/1{'0' * 3999}) x S(1;1/{'3' * 4000})"


@pytest.mark.parametrize("argv, code, message", [
    (("kfun", "kk", "5", "1e10000000"), 1, _too_big("d")),
    (("kfun", "kk", "5", "1e5000"), 1, _too_big("d")),
    (("table", "kk", "1", "2", "--d", "1e10000000"), 1, _too_big("d")),
    # an area has no exponent
    (("spectrum", "S(1;1e10000000)"), 2, "bad area '1e10000000'"),
    (("bound", "width", "1e10000000"), 2, "bad area '1e10000000'"),
    (("spectrum", f"S(1;{_TOO_LONG}pi/3)"), 2, _too_big("area")),
    (("spectrum", f"S(1;3pi/{_TOO_LONG})"), 2, _too_big("area")),
    (("bound", "width", f"{_TOO_LONG}/3"), 2, _too_big("area")),
    (("bound", "width", f"3/{_TOO_LONG}pi"), 2, _too_big("area")),
    *((("spectrum", _WIDE, "--format", fmt), 1, _too_big("the product spectrum's generator"))
      for fmt in ("text", "json", "csv")),
], ids=["kfun-kk", "kfun-kk-5000-digits", "table-kk", "spectrum", "bound-width",
        "spectrum-numerator", "spectrum-denominator", "bound-width-numerator",
        "bound-width-denominator", "spectrum-lcm-text", "spectrum-lcm-json", "spectrum-lcm-csv"])
def test_oversized_rational_is_refused_up_front(capsys, argv, code, message):
    t0 = time.perf_counter()
    got, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert (got, out, err) == (code, "", f"error: {message}\n")


def test_energy_of_a_product_past_the_spectrum_limit_is_answered(capsys):
    # its endpoints are input areas: the least one, here also the least sphere area
    code, out, err = invoke(capsys, "bound", "energy", _WIDE, "--format", "text")
    assert (code, err) == (0, "")
    assert out.splitlines()[0].endswith(f": [pi/{'3' * 4000}, pi/{'3' * 4000}]")


@pytest.mark.parametrize("argv", [
    ("verify", "all", "--nmax", "200"),
    ("verify", "kfun-props", "--nmax", "2", "--dmax", "100000"),
    # past the K table limit too: the budget is the one up-front refusal
    ("verify", "kfun-props", "--nmax", "1", "--dmax", "1000001"),
    # within the cells alone, but not with the keq grid's capacity window
    ("verify", "kfun-props", "--nmax", "1000", "--dmax", "0"),
], ids=["all-200", "kfun-props-dmax", "kfun-props-dmax-1000001", "kfun-props-nmax-1000"])
def test_verify_above_the_cell_budget_is_a_domain_error(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and f"more than {VERIFY_MAX_CELLS} cells" in err


_DIGITS = "7" * 5000


@pytest.mark.parametrize("expr, name", [
    (f"S({_DIGITS};1)", "m"),
    (f"V({_DIGITS},1;1)", "k"),
    (f"V(1,{_DIGITS};1)", "n"),
    (f"C(M,{_DIGITS};0;asph)", "half_dim"),
], ids=["S", "V-k", "V-n", "C"])
def test_oversized_integer_field_is_a_grammar_error(capsys, expr, name):
    code, out, err = invoke(capsys, "spectrum", expr)
    assert code == 2 and out == ""
    assert err == f"error: {name} needs fewer than {sys.get_int_max_str_digits()} digits\n"


_FEWER = f"an integer of fewer than {_LIMIT} digits"


@pytest.mark.parametrize("argv, message", [
    (("kfun", "keq", "5", _DIGITS), f"d must be {_FEWER}, got {clip(_DIGITS)!r}"),
    (("kfun", "keq", "5", "-" + _DIGITS), f"d must be {_FEWER}, got {clip('-' + _DIGITS)!r}"),
    (("table", "keq", "1", "2", "--d", "0" * _LIMIT),
     f"d must be {_FEWER}, got {clip('0' * _LIMIT)!r}"),
    (("kfun", "keq", _DIGITS, "7"), f"argument n: expected {_FEWER}, got {clip(_DIGITS)!r}"),
    (("table", "kk", "1", f" +{_TOO_LONG} ", "--d", "3"),
     f"argument stop: expected {_FEWER}, got {clip(f' +{_TOO_LONG} ')!r}"),
    (("bound", "capacity", "5", _TOO_LONG),
     f"argument d: expected {_FEWER}, got {clip(_TOO_LONG)!r}"),
    (("verify", "all", "--nmax", _TOO_LONG),
     f"argument --nmax: expected {_FEWER}, got {clip(_TOO_LONG)!r}"),
], ids=["keq-d", "keq-negative-d", "table-keq-d-zeros", "kfun-n", "table-stop", "capacity-d",
        "verify-nmax"])
def test_an_integer_of_too_many_digits_is_named_for_its_length(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith(f"error: {message}")


@pytest.mark.parametrize("argv", [
    ("kfun", "keq", "5", _DIGITS),
    ("kfun", "keq", _DIGITS + "x", "5"),
    ("kfun", "kk", "5", "x" * 5000),
    ("spectrum", f"S(1;{'x' * 5000})"),
    ("spectrum", "y" * 5000),
    ("spectrum", "(" * 5000),
    ("bound", "capacity", "5", _DIGITS[:4000]),
    ("bound", "capacity", _DIGITS[:4000], "3"),
    ("bound", "squeeze", _DIGITS[:4000], "3"),
    ("spectrum", f"V({_DIGITS[:4000]},2;pi)"),
], ids=["keq-d", "n", "kk-d", "area", "factor", "parentheses",
        "capacity-d", "capacity-n", "squeeze-n", "frame-k"])
def test_echoed_tokens_are_truncated(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code in (1, 2) and out == ""
    assert 0 < len(err.encode()) < 200
    assert "\u2026" in err


# ---------------------------------------------------------------------------
# numbers in argv
# ---------------------------------------------------------------------------

# Every numeric argument: its argv, with "{}" for the number, and the last
# stderr line of its refusal, with "{}" for the echoed token.
_NUMBER_ARGUMENTS = {
    "kfun-n": (("kfun", "keq", "{}", "7"),
               "coisocap kfun: error: argument n: expected an integer, got {}"),
    "keq-d": (("kfun", "keq", "5", "{}"), "error: d must be an integer, got {}"),
    "kk-d": (("kfun", "kk", "5", "{}"), "error: d must be a rational like 9/2, got {}"),
    "table-start": (("table", "kk", "{}", "3", "--d", "4"),
                    "coisocap table: error: argument start: expected an integer, got {}"),
    "table-stop": (("table", "kk", "1", "{}", "--d", "4"),
                   "coisocap table: error: argument stop: expected an integer, got {}"),
    "table-d": (("table", "keq", "1", "3", "--d", "{}"), "error: d must be an integer, got {}"),
    "verify-nmax": (("verify", "oracle", "--nmax", "{}"),
                    "coisocap verify: error: argument --nmax: expected an integer, got {}"),
    "verify-dmax": (("verify", "oracle", "--nmax", "2", "--dmax", "{}"),
                    "coisocap verify: error: argument --dmax: expected an integer, got {}"),
    "capacity-n": (("bound", "capacity", "{}", "4"),
                   "coisocap bound capacity: error: argument n: expected an integer, got {}"),
    "capacity-d": (("bound", "capacity", "4", "{}"),
                   "coisocap bound capacity: error: argument d: expected an integer, got {}"),
    "squeeze-n": (("bound", "squeeze", "{}", "9"),
                  "coisocap bound squeeze: error: argument n: expected an integer, got {}"),
    "squeeze-d": (("bound", "squeeze", "9", "{}"),
                  "error: d must be a rational like 9/2, got {}"),
}
# the arguments read as a rational, through Fraction()
_RATIONAL = ("kk-d", "squeeze-d")


def _fill(argument, number):
    return [number if token == "{}" else token for token in _NUMBER_ARGUMENTS[argument][0]]


@st.composite
def _off_grammar_numbers(draw):
    """An ASCII number with a non-ASCII decimal digit or a "_" put in."""
    number = draw(st.text("0123456789", min_size=1, max_size=6))
    if draw(st.booleans()):
        number += "/" + draw(st.text("123456789", min_size=1, max_size=3))
    at = draw(st.integers(0, len(number)))
    odd = draw(st.one_of(st.just("_"), st.characters(categories=["Nd"], min_codepoint=128)))
    return number[:at] + odd + number[at:]


def _assert_refused(argument, number):
    """``number`` as ``argument`` exits 2 with the argument's message."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(_fill(argument, number))
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().splitlines()[-1] == _NUMBER_ARGUMENTS[argument][1].format(
        repr(clip(number)))


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(sorted(_NUMBER_ARGUMENTS)), _off_grammar_numbers())
def test_an_argv_number_off_the_grammar_digits_is_refused(argument, number):
    _assert_refused(argument, number)


@pytest.mark.parametrize("number", ["\x1c7", "7\x1f"], ids=["lead-x1c", "trail-x1f"])
@pytest.mark.parametrize("argument", sorted(set(_NUMBER_ARGUMENTS) - set(_RATIONAL)))
def test_an_integer_amid_a_blank_int_refuses_is_refused_as_such(argument, number):
    # str.strip() drops \x1c-\x1f, which int() refuses: the token is no integer
    _assert_refused(argument, number)


@st.composite
def _ascii_spellings(draw, rational):
    """(spelling, canonical spelling) of a small number in ASCII digits: an
    optional sign and leading zeros, and for a rational also a fraction, a
    decimal point or an exponent."""
    zeros = "0" * draw(st.integers(0, 2))
    value = draw(st.integers(0, 40))
    forms = [f"{zeros}{value}"]
    if rational:
        q = draw(st.integers(1, 4))
        forms += [f"{zeros}{value}/{zeros}{q}", f"{zeros}{value // 10}.{value % 10}",
                  f"{value % 10}e{draw(st.sampled_from(['', '+', '-']))}{zeros}1"]
    spelling = draw(st.sampled_from(forms))
    spelling = draw(st.sampled_from(["", "+", "-"])) + spelling
    return spelling, str(Fraction(spelling))


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_an_ascii_argv_number_reads_as_its_canonical_spelling(data):
    argument = data.draw(st.sampled_from(sorted(_NUMBER_ARGUMENTS)))
    spelling, canonical = data.draw(_ascii_spellings(argument in _RATIONAL))
    outcomes = []
    for number in (spelling, canonical):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(_fill(argument, number))
        # a verify report ends with its wall time
        outcomes.append((code, re.sub(r"\d+ ms\)$", "ms)", out.getvalue()), err.getvalue()))
    assert outcomes[0] == outcomes[1]


# The arguments whose d ``_parse_d`` reads: their argv, with "{}" for d,
# whether d is a rational, and the stderr of a negative d's refusal, with
# "{}" for d's canonical spelling.
_D_ARGUMENTS = {
    "keq-d": (("kfun", "keq", "5", "{}"), False, "error: d must be >= 0\n"),
    "kk-d": (("kfun", "kk", "5", "{}"), True, "error: d must be >= 0\n"),
    "table-keq-d": (("table", "keq", "1", "3", "--d", "{}"), False, "error: d must be >= 0\n"),
    "table-kk-d": (("table", "kk", "1", "3", "--d", "{}"), True, "error: d must be >= 0\n"),
    # refused before the CSV header too
    "table-kk-d-csv": (("table", "kk", "1", "3", "--d", "{}", "--format", "csv"), True,
                       "error: d must be >= 0\n"),
    "squeeze-d": (("bound", "squeeze", "9", "{}"), True,
                  "error: d must be >= n, got (n, d)=(9, {})\n"),
}


@st.composite
def _negative_spellings(draw, rational):
    """A negative number that ``_parse_d`` reads, in ASCII digits with
    leading zeros: an integer, and for a rational also a fraction, a
    decimal with or without its integer part, or an exponent."""
    zeros = "0" * draw(st.integers(0, 2))
    value = draw(st.integers(1, 40))
    forms = [f"{zeros}{value}"]
    if rational:
        digit = value % 9 + 1
        forms += [f"{zeros}{value}/{zeros}{draw(st.integers(1, 4))}",
                  f"{zeros}{value // 10}.{value % 10}", f".{digit}{zeros}",
                  f"{digit}e{draw(st.sampled_from(['', '+', '-']))}{zeros}1"]
    return "-" + draw(st.sampled_from(forms))


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_a_negative_d_gets_one_exit_code_and_message_however_it_is_spelled(data):
    argv, rational, message = _D_ARGUMENTS[data.draw(st.sampled_from(sorted(_D_ARGUMENTS)))]
    spelling = data.draw(_negative_spellings(rational))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([spelling if token == "{}" else token for token in argv])
    assert (code, out.getvalue(), err.getvalue()) == (1, "", message.format(Fraction(spelling)))


# Tokens that start with "-" but not with a digit or ".digit" in ASCII: "-"
# alone is a value that is no rational, each other token an option.
@pytest.mark.parametrize("token, last_line", [
    ("-", "error: d must be a rational like 9/2, got '-'"),
    ("-.", "coisocap: error: unrecognized arguments: -."),
    ("--d", "coisocap: error: unrecognized arguments: --d"),
    ("-x", "coisocap: error: unrecognized arguments: -x"),
    ("-\u0663", "coisocap: error: unrecognized arguments: -\u0663"),
], ids=["dash", "dash-dot", "double-dash", "dash-letter", "dash-arabic-indic-digit"])
def test_a_dash_token_that_is_no_negative_number_is_a_parse_error(capsys, token, last_line):
    code, out, err = invoke(capsys, "kfun", "kk", "5", token)
    assert (code, out, err.splitlines()[-1]) == (2, "", last_line)


_PARSE_D = cli._parse_d


def _fraction_d(fn, text, command):
    """``cli._parse_d`` of a kk d as it read every spelling: through ``Fraction()``."""
    if text is None:  # "--" ends the options: no d
        return _PARSE_D(fn, text, command)
    if cli._grammar_digits(text):
        check_rational_size(text, OutOfRangeError, "d")
        with contextlib.suppress(ValueError, ZeroDivisionError):
            return Fraction(text)
    raise cli.UsageError(f"d must be a rational like 9/2, got {clip(text)!r}")


_BLANKS = st.sampled_from(["", " ", "\t", " \n", "\x0b", "\x1c"])


@st.composite
def _d_tokens(draw):
    """A d token: blanks, an optional sign (or two), leading zeros, digits
    and an optional "/", "." or "e" part; or any string of those characters."""
    number = (draw(st.sampled_from(["", "+", "-", "+-", "--"])) + "0" * draw(st.integers(0, 3))
              + draw(st.text("0123456789", max_size=3))
              + draw(st.sampled_from(["", "/", ".", "e", "e-", "E+", "/0", ". ", "/ "]))
              + draw(st.text("0123456789", max_size=2)))
    tokens = st.just(draw(_BLANKS) + number + draw(_BLANKS))
    return draw(st.one_of(tokens, st.text(" \t\x1c+-0123456789/.eE_", max_size=8)))


@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from([("kfun", "kk", "5"), ("bound", "squeeze", "3")]), _d_tokens())
@example(("kfun", "kk", "5"), "+-7")
@example(("kfun", "kk", "5"), "-0")
@example(("kfun", "kk", "5"), " +007 ")
@example(("kfun", "kk", "5"), "\x1c7")
@example(("kfun", "kk", "5"), "7/0")
@example(("kfun", "kk", "5"), "1" * digit_limit())
@example(("bound", "squeeze", "3"), "0" * digit_limit() + "7")
def test_a_d_spelled_as_an_integer_reads_as_fraction_reads_it(head, token):
    outcomes = []
    for parse_d in (cli._parse_d, _fraction_d):
        out, err = io.StringIO(), io.StringIO()
        with (mock.patch.object(cli, "_parse_d", parse_d), contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            code = run([*head, token])
        outcomes.append((code, out.getvalue(), err.getvalue()))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# a closed stdout
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_a_reader_that_stops_early_is_no_crash(fmt):
    # far more output than a pipe buffers, so the writer meets the closed end
    argv = ["table", "kk", "1", "20000", "--d", "5", "--format", fmt]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    child = subprocess.Popen([sys.executable, "-m", "coisocap.cli", *argv], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 0
    assert err == b""


class _ClosedPipe(io.StringIO):
    """A stdout whose reader is gone, on a real descriptor."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_a_closed_stdout_keeps_a_failing_verify_at_exit_3(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(kfun, "kk", _broken_kk)
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        code = run(["verify", "kfun-props", "--nmax", "4"])
    assert code == 3 and capsys.readouterr().err == ""


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_a_closed_stdout_stops_the_table_kernel(capsys, monkeypatch, tmp_path, fmt):
    calls, kk = [], kfun.kk

    def counted_kk(n, d):
        calls.append(n)
        return kk(n, d)

    monkeypatch.setattr(kfun, "kk", counted_kk)
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        code = run(["table", "kk", "1", "20000", "--d", "5", "--format", fmt])
    assert code == 0 and capsys.readouterr().err == ""
    assert len(calls) <= 1


_HIGH_WATER = (
    "import sys\n"
    "def high_water_kb():\n"
    "    with open('/proc/self/status') as fh:\n"
    "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
    "from coisocap import cli\n"
    "after_import = high_water_kb()\n"
    "code = cli.run(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "print(code, high_water_kb() - after_import, file=sys.stderr)\n"
)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_a_long_table_does_not_hold_its_rows(fmt):
    # VmHWM is the child's own peak from its exec on; ru_maxrss of a child
    # would count the RSS of the parent at fork
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    child = subprocess.run(
        [sys.executable, "-c", _HIGH_WATER, "table", "kk", "1", "100000", "--d", "5",
         "--format", fmt],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
    code, growth_kb = map(int, child.stderr.split())
    assert code == 0 and growth_kb < 20 * 1024


@pytest.mark.parametrize("rows", [1, _JSON_BATCH - 1, _JSON_BATCH, _JSON_BATCH + 1,
                                  2 * _JSON_BATCH + 1])
def test_json_written_by_row_batches_is_the_layout_of_json_dumps(capsys, rows):
    code, out, err = invoke(capsys, "table", "kk", "1", str(rows), "--d", "5", "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert len(json.loads(out)["rows"]) == rows


# ---------------------------------------------------------------------------
# the exit path: main() freezes the heap before the interpreter shuts down
# ---------------------------------------------------------------------------

_GOLDEN = {tuple(e["argv"]): e for e in json.loads(
    (Path(__file__).parent / "golden" / "cli.json").read_text(encoding="utf-8"))}


def _child(*args):
    """(exit code, stdout, stderr) of ``python *args`` with the package on
    its path, buffered stdio and argparse wrapping at 80 columns."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(Path(__file__).parents[1] / "src"), COLUMNS="80")
    child = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                           timeout=120)
    return child.returncode, child.stdout, child.stderr


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_a_cli_process_prints_what_run_prints(fmt):
    # several stdout buffers of output, all of it flushed before the exit
    argv = ["table", "kk", "1", "3000", "--d", "5", "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert _child("-m", "coisocap.cli", *argv) == (code, out.getvalue(), err.getvalue())
    assert code == 0 and len(out.getvalue()) > io.DEFAULT_BUFFER_SIZE


@pytest.mark.parametrize("argv", [("kfun", "K", "0"),
                                  ("kfun", "kk", "5", "-1/2", "--format", "csv"),
                                  ("kfun", "keq", "5", "-3")])
def test_a_cli_process_exits_with_its_golden_code(argv):
    want = _GOLDEN[argv]
    assert _child("-m", "coisocap.cli", *argv) == (want["exit"], want["stdout"], want["stderr"])


def test_a_failing_verify_process_exits_3():
    code, out, err = _child("-c", (
        "import sys\n"
        "from coisocap import cli, kfun\n"
        "kfun.kk = lambda n, d: kfun.WitnessedValue(\n"
        "    kfun.ExtNat(1), kfun.Decomposition.from_pairs([kfun.Pair(1, n)]))\n"
        "sys.argv = ['coisocap', 'verify', 'kfun-props', '--nmax', '4']\n"
        "cli.main()\n"))
    assert (code, err) == (3, "") and "FAILED" in out


def test_an_atexit_handler_runs_after_main_freezes_the_heap():
    code, out, err = _child("-c", (
        "import atexit, gc, sys\n"
        "from coisocap import cli\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "sys.argv = ['coisocap', 'kfun', 'K', '16']\n"
        "cli.main()\n"))
    assert (code, out, err) == (0, "K(16) = 4, witness [(4,4)]\n", "frozen True\n")


def test_run_leaves_the_heap_unfrozen(capsys):
    frozen = gc.get_freeze_count()
    assert invoke(capsys, "kfun", "K", "16")[0] == 0
    assert invoke(capsys, "kfun", "K", "0")[0] == 2
    assert gc.get_freeze_count() == frozen


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_query_echo_round_trips(capsys):
    # the echoed "query" field re-parses to an invocation with identical output
    for argv in (
        ["kfun", "kk", "4", "9/2"],
        ["kfun", "keq", "5", "9"],
        ["bound", "capacity", "4", "4"],
        ["bound", "squeeze", "9", "9"],
    ):
        code, out, _ = invoke(capsys, *argv, "--format", "json")
        assert code == 0
        echoed = json.loads(out)["query"].split()
        code2, out2, _ = invoke(capsys, *echoed, "--format", "json")
        assert code2 == 0 and out2 == out


def test_byte_identical_reruns(capsys):
    for argv in (
        ("kfun", "K", "16"),
        ("kfun", "keq", "6", "8", "--format", "json"),
        ("table", "kk", "1", "8", "--d", "9", "--format", "csv"),
        ("bound", "energy", "S(2;pi) x S(3;pi/2)"),
        ("spectrum", "S(2;pi/2) x C(T2,1;0;asph)", "--format", "json"),
    ):
        first = invoke(capsys, *argv)
        second = invoke(capsys, *argv)
        assert first == second
