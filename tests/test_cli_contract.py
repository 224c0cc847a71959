"""Property test of the CLI contract over argv drawn from a small grammar.

Whatever the argv, ``run`` returns an exit code in {0, 1, 2, 3} instead of
raising, and explains every refusal (exit 1 or 2) on stderr.  ``n`` stays
at most 40, where every search is fast.
"""
import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from coisocap import cli
from coisocap.cli import run
from coisocap.verify import SUITES

FORMATS = st.sampled_from([[], ["--format", "text"], ["--format", "json"], ["--format", "csv"]])
NUMS = st.integers(0, 40).map(str)
D_TOKENS = st.one_of(
    st.sampled_from(["-3", "1/0", "x", "9/2", "1e3", "0.5", "-1/2", ""]),
    st.integers(0, 81).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 160), st.integers(1, 5)),
)
AREAS = st.sampled_from(["pi", "pi/2", "3pi/2", "2", "3/2", "0", "-1", "pi/0", "x"])


@st.composite
def atoms(draw):
    kind, area = draw(st.sampled_from("SVC")), draw(AREAS)
    a, b = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    if kind == "S":
        return f"S({a};{area})"
    if kind == "V":
        return f"V({a},{b};{area})"
    return draw(st.sampled_from([f"C(T2,{a};{area})", f"C(M,{a};0;asph)"]))


PRODUCTS = st.one_of(
    st.lists(atoms(), min_size=1, max_size=3).map(" x ".join),
    st.text(alphabet="SVCxy();,pi/0123 -", max_size=20),
)


@st.composite
def argvs(draw):
    fn = draw(st.sampled_from(["K", "keq", "kk"]))
    command = draw(st.sampled_from(["kfun", "table", "spectrum", "energy", "capacity",
                                    "squeeze", "width", "verify"]))
    maybe_d = st.one_of(st.just([]), D_TOKENS.map(lambda d: [d]))
    if command == "kfun":
        argv = ["kfun", fn, draw(NUMS), *draw(maybe_d)]
    elif command == "table":
        argv = ["table", fn, draw(NUMS), draw(NUMS)]
        argv += draw(maybe_d.map(lambda d: ["--d", *d] if d else []))
    elif command == "spectrum":
        argv = ["spectrum", draw(PRODUCTS)]
    elif command == "energy":
        argv = ["bound", "energy", draw(PRODUCTS)]
    elif command in ("capacity", "squeeze"):
        argv = ["bound", command, draw(NUMS), draw(D_TOKENS)]
    elif command == "width":
        argv = ["bound", "width", draw(AREAS), *draw(st.sampled_from([[], ["--closed-factor"]]))]
    else:
        argv = ["verify", draw(st.sampled_from(SUITES)), "--nmax", str(draw(st.integers(0, 3)))]
        argv += draw(st.sampled_from([[], ["--dmax", "4"], ["--dmax", "-1"]]))
    return argv + draw(FORMATS)


@settings(max_examples=200, deadline=None, database=None)
@given(argvs())
def test_run_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3)
    if code in (1, 2):
        assert err.getvalue(), argv
    else:
        assert not err.getvalue(), argv


@pytest.mark.parametrize(
    "exc", [TypeError("bad operand"), RecursionError("too deep"), MemoryError()],
    ids=lambda exc: type(exc).__name__,
)
def test_last_resort_errors_leave_no_traceback(monkeypatch, capsys, exc):
    def handler(args):
        raise exc

    help_text, _, default, arguments = cli._COMMANDS["kfun"]
    monkeypatch.setitem(cli._COMMANDS, "kfun", (help_text, handler, default, arguments))
    code = run(["kfun", "K", "5"])
    captured = capsys.readouterr()
    assert code in (1, 2) and captured.out == ""
    assert captured.err == f"error: {str(exc) or type(exc).__name__}\n"
