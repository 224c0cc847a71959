"""Differential tests of the readers a call uses.

``build_parser(argv)`` gives arguments only to the command (and ``bound``
kind) that argv names; ``build_parser()`` gives them to every one.  For
any argv drawn from the CLI's vocabulary both parse to the same Namespace,
or stop with the same exit code, stdout and stderr.  ``_plain_args(argv)``
reads a plain argv without argparse: it returns None, or what the full
tree parses.  No handler runs.
"""
import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from coisocap import cli
from coisocap.verify import SUITES

GOLDEN = [entry["argv"] for entry in
          json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())]
POOL = json.loads((Path(__file__).parents[1] / "perfbench" / "golden" / "cli-pool.json"
                   ).read_text())["entries"]
COMMANDS = [[name] for name in cli._COMMANDS] + [["bound", kind] for kind in cli._BOUND_KINDS]
TOKENS = st.one_of(
    st.sampled_from([*cli._COMMANDS, *cli._BOUND_KINDS, *SUITES, "K", "keq", "kk"]),
    st.integers(-3, 12).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-5, 20), st.integers(0, 5)),
    st.sampled_from(["--format", "text", "json", "csv", "xml", "--format=json", "--d",
                     "--nmax", "--dmax", "--closed-factor", "-h", "--help", "--", "-",
                     "--bogus", "-x", "woof", "", "S(2;pi)", "3pi/2"]),
)


@st.composite
def edited_golden(draw):
    """A golden argv with up to three tokens inserted or deleted."""
    argv = list(draw(st.sampled_from(GOLDEN)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        if at < len(argv) and draw(st.booleans()):
            del argv[at]
        else:
            argv.insert(at, draw(TOKENS))
    return argv


@st.composite
def commands(draw):
    """A command, often with tokens before it, and tokens after it."""
    head = draw(st.one_of(st.just([]), st.lists(TOKENS, min_size=1, max_size=2)))
    command = draw(st.one_of(st.sampled_from(COMMANDS), st.just([])))
    return head + command + draw(st.lists(TOKENS, max_size=6))


def outcome(parser, argv):
    """(Namespace or None, exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    namespace, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return namespace, code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None, database=None)
@given(st.one_of(edited_golden(), commands()))
@example(["kfun", "K", "5"])
@example(["bound", "width", "2pi", "--closed-factor", "--format", "csv"])
@example(["-h", "kfun"])
@example(["--format", "json", "kfun", "K", "5"])
@example(["-1", "kfun", "K", "5"])
@example(["--", "kfun", "K", "5"])
@example(["bound", "-h", "squeeze"])
@example(["kfun", "kk", "5", "-1/2", "--format", "csv"])
def test_subtree_parses_like_the_full_tree(argv):
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        assert outcome(cli.build_parser(argv), argv) == outcome(cli.build_parser(), argv)


def assert_plain_reads_as_the_full_tree(argv, full):
    plain = cli._plain_args(argv)
    if plain is not None:
        namespace, code, _, _ = outcome(full, argv)
        assert code is None and vars(namespace) == vars(plain), argv
    return plain is not None


@settings(max_examples=400, deadline=None, database=None)
@given(st.one_of(edited_golden(), commands()))
@example(["kfun", "--format", "json", "keq", "5", "7"])
@example(["kfun", "keq", "5", "7", "--form", "json"])
@example(["kfun", "keq", "5", "7", "--format=json"])
@example(["kfun", "keq", "5", "7", "--format", "xml", "--format", "json"])
@example(["kfun", "keq", "5", "--format", "json", "7"])
@example(["table", "kk", "1", "3", "--d", "-x"])
@example(["verify", "oracle", "--dmax", "3"])
@example(["bound", "width", "2pi", "--closed-factor", "--closed-factor"])
@example(["verify", "all", "--nmax", "2", "--dmax", "-1"])
@example(["bound", "--format", "json", "capacity", "5", "7"])
@example(["kfun", "K", "0"])
def test_the_plain_reader_reads_as_the_full_tree(argv):
    assert_plain_reads_as_the_full_tree(argv, cli.build_parser())


def test_the_plain_reader_reads_the_golden_argv_and_every_pool_call_that_exits_0():
    full = cli.build_parser()
    for argv in GOLDEN:
        assert_plain_reads_as_the_full_tree(argv, full)
    for entry in POOL:
        plain = assert_plain_reads_as_the_full_tree(entry["argv"], full)
        assert plain or entry["exit"] != 0, entry["argv"]
