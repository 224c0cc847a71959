"""Command-line front end.

Subcommands: ``kfun`` (single minimizer queries), ``table`` (value tables),
``spectrum`` (spectrum algebra for a product expression), ``bound``
(interval reports with provenance), ``verify`` (bulk invariant sweeps).

Each command is declared once, as one row of a table: ``_COMMANDS``, and
``_BOUND_KINDS`` for the kinds of ``bound``.  Every handler returns one
``Output`` record: its text lines, and a JSON document and CSV rows that
hold the domain values themselves, as iterables (``table``'s are lazy,
so a call computes only what its printer reads).  ``run`` prints the
format ``--format`` selects; its printer converts each value, JSON by
``_json``, the one map to the frozen schema, and CSV by ``str`` ("" for
None), and writes each table row as it comes, keeping none.

argv has two readers, both driven by the same rows.  ``_plain_args``
reads a plain argv (a command, its options each named in full and once,
and values that argparse would take as they are) straight from the rows,
into a ``SimpleNamespace`` equal to argparse's, so such a call imports
neither ``argparse`` nor, through it, ``gettext``, ``locale``, ``re`` and
``shutil``.  Any other argv, ``--help`` and every usage error among them,
goes to argparse, which ``build_parser`` imports.

One call builds and imports only what its argv uses.  ``build_parser``
names every command and ``bound`` kind, so usage, help and "invalid
choice" errors read the same, but gives arguments only to the ones argv
names.  ``json`` and ``csv`` are imported by their printers.  Importing
this module runs only ``errors``; it registers ``kfun``, ``spectra``,
``expr``, ``bounds`` and ``verify`` in ``sys.modules`` and on the package,
but each runs on its first attribute access (``_lazy``), so a ``kfun`` or
``table`` call runs the kernel alone.  Of the ``bound`` kinds only
``capacity`` and ``squeeze`` run the kernel, and a ``spectrum`` call
runs none (``_json`` looks for a ``Decomposition`` only once the kernel
has run), nor does a call refused before it reads a minimizer.
Only a ``verify`` call builds ``verify``'s arguments, which runs its one
module, the suites and the sweep; the first sweep compiles ``oracles``.
Nor does a ``kfun``, ``table`` or refused call import ``fractions``
(nor, through it, ``decimal`` and ``numbers``): a d spelled as an integer
is read as an int, and ``_json`` finds a ``Fraction`` through
``sys.modules``.

``main``, the installed script, freezes the heap (``gc.freeze``) after
``run`` returns, so the collections of interpreter shutdown skip it;
``run`` never does.

Exit codes: 0 success, 1 domain error (violated precondition or oracle
cap), 2 parse error (argv or expression grammar; a number in argv takes
the grammar's digits, ASCII with no "_"), 3 verification failure; a
closed stdout changes none of them and writes nothing to stderr.  A d
that starts with "-" and a digit or ".digit" is a value, never an
option, so a negative d exits 1 however it is spelled.
"""
from __future__ import annotations

import _thread
import gc
import importlib.util
import os
import sys
from collections import namedtuple
from collections.abc import Iterator
from contextlib import suppress
from itertools import islice, zip_longest
from types import ModuleType, SimpleNamespace

from .errors import (CoisocapError, ExprParseError, Extended, OutOfRangeError,
                     check_rational_size, clip, digit_limit, is_fraction)

# Held while a layer registered by ``_lazy`` runs; reentrant, since running
# one layer can run another (``expr`` imports from ``spectra``).
_FIRST_RUN = _thread.RLock()


def _run_first(module: ModuleType) -> None:
    """Run a registered layer's body under ``_FIRST_RUN``, unless it has
    run or this thread is running it, and then make the module a plain
    ``ModuleType``."""
    with _FIRST_RUN:
        if type(module) is _Registered:
            spec = object.__getattribute__(module, "__spec__")
            if spec.loader_state is None:  # else this thread is running it
                spec.loader_state = "running"
                try:
                    spec.loader.exec_module(module)
                finally:
                    ModuleType.__setattr__(module, "__class__", ModuleType)


class _Registered(ModuleType):
    """A layer registered in ``sys.modules`` whose body has not run.

    The first attribute read, write or deletion runs the body
    (``_run_first``), so the body never overwrites a patch, and the module
    is a plain ``ModuleType`` from then on: no later access takes the
    lock.  Another thread's first access waits for the body to finish
    (``importlib.util.LazyLoader`` takes no lock before CPython 3.12.3); the
    running thread's own accesses read the module as it stands.  Each access
    ends in ``ModuleType``'s own, so a name the body does not define reaches
    the layer's PEP 562 ``__getattr__``."""

    def __getattribute__(self, attr):
        _run_first(self)
        return ModuleType.__getattribute__(self, attr)

    def __setattr__(self, attr, value):
        _run_first(self)
        ModuleType.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        _run_first(self)
        ModuleType.__delattr__(self, attr)


def _lazy(layer: str):
    """The module ``coisocap.<layer>``, registered now and run on first
    attribute access, unless it is registered already."""
    name = f"{__package__}.{layer}"
    module = sys.modules.get(name)
    if module is None:
        module = importlib.util.module_from_spec(importlib.util.find_spec(name))
        module.__class__ = _Registered
        sys.modules[name] = module
        setattr(sys.modules[__package__], layer, module)
    return module


kfun, spectra, expr, bounds, verify = map(_lazy, ("kfun", "spectra", "expr", "bounds", "verify"))


# Most rows one ``table`` call prints: a bound on run time.
TABLE_MAX_ROWS = 10**5


class UsageError(CoisocapError, ValueError):
    """Malformed argument values (maps to exit code 2)."""


# ---------------------------------------------------------------------------
# The result record and its printers
# ---------------------------------------------------------------------------

# One invocation's result and exit code: text lines, a JSON document and CSV
# rows of domain values, each an iterable that only its printer reads, as it writes.
Output = namedtuple("Output", ("text", "json", "csv_header", "csv_rows", "code"), defaults=(0,))


def _print_text(out: Output) -> None:
    sys.stdout.writelines(f"{line}\n" for line in out.text)


def _json(value):
    """A domain value in the frozen JSON schema: the encoder's ``default``,
    which converts what this returns in turn."""
    if is_fraction(value):  # a multiple of pi
        return {"num": value.numerator, "den": value.denominator, "unit": "pi"}
    if isinstance(value, Extended):  # ExtNat or ExtRat
        return "inf" if value.value is None else value.value
    # No value is a Decomposition before the kernel has run, so a spectrum or
    # bound energy call runs no kernel here.
    if type(kfun) is not _Registered and isinstance(value, kfun.Decomposition):
        return [[p.k, p.n] for p in value.pairs]
    # No kfun or table value gets past here, so those calls run neither layer below.
    if isinstance(value, spectra.Spectrum):
        return {"kind": "zero"} if value.is_zero else {"kind": "lattice", "gen": value.gen}
    if isinstance(value, bounds.Citation):
        return {"id": value.id, "statement": value.statement}
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# Rows per ``encode`` call: CPython 3.10-3.12 build a pure-Python encoder per call with
# ``indent``, so a call per row took 100,000 rows from 1.5 to 2.3 s; 1,024 match ``dumps``.
_JSON_BATCH = 1024


def _print_json(out: Output) -> None:
    """Print ``json.dumps(out.json, indent=2, default=_json)`` by values and row batches."""
    import json

    encode, write = json.JSONEncoder(indent=2, default=_json).encode, sys.stdout.write
    for i, (key, value) in enumerate(out.json.items()):
        write(f"{',' if i else '{'}\n  {encode(key)}: ")
        if not isinstance(value, Iterator):
            write(encode(value).replace("\n", "\n  "))
            continue
        head = "["
        while batch := list(islice(value, _JSON_BATCH)):  # "[\n  row,\n  row\n]"
            write(head + encode(batch)[1:-2].replace("\n", "\n  "))
            head = ","
        write("[]" if head == "[" else "\n  ]")
    write("\n}\n")


def _print_csv(out: Output) -> None:
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(out.csv_header)
    writer.writerows(out.csv_rows)


_PRINTERS = {"text": _print_text, "json": _print_json, "csv": _print_csv}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _grammar_digits(text: str) -> bool:
    """Whether a number from argv is spelled with the object grammar's
    digits, which ``int()`` and ``Fraction()`` do not require."""
    return text.isascii() and "_" not in text


def _argv_int(text: str) -> int:
    """An integer from argv: the grammar's digits, and, as in an
    expression's integer fields, fewer than ``digit_limit()`` of them;
    else a ValueError that says what the token must be."""
    digits = text.strip(" \t\n\v\f\r")  # what int() strips; str.strip() drops \x1c-\x1f too
    digits = digits[1:] if digits[:1] in ("+", "-") else digits
    if not (_grammar_digits(text) and digits.isdigit()):
        raise ValueError("an integer")
    if len(digits) >= digit_limit():
        raise ValueError(f"an integer of fewer than {digit_limit()} digits")
    return int(text)


def _int_at_least(lo: int):
    """The ``type`` of an argument that is an integer >= lo; it raises
    argparse's ``ArgumentTypeError``, importing argparse, for any other token."""

    def parse(text: str) -> int:
        try:
            value = _argv_int(text)
        except ValueError as exc:
            message = f"expected {exc}, got {clip(text)!r}"
        else:
            if value >= lo:
                return value
            message = f"expected an integer >= {lo}, got {clip(str(value))}"
        import argparse

        raise argparse.ArgumentTypeError(message)

    return parse


# Usage errors per subcommand: (K given a d, keq or kk given none).
_D_USAGE = {
    "kfun": ("kfun K takes no d argument", "kfun {} requires a d argument"),
    "table": ("table K takes no --d", "table {} requires --d"),
}


def _parse_d(fn: str, text: str | None, command: str):
    """The d of a query on ``fn``: None for K, an integer for keq and a
    rational for kk (and for the squeeze bound, which is kk's): an int when
    it is spelled as one, else a Fraction."""
    if fn == "K":
        if text is not None:
            raise UsageError(_D_USAGE[command][0])
        return None
    if text is None:
        raise UsageError(_D_USAGE[command][1].format(fn))
    if fn == "keq":
        try:
            return _argv_int(text)
        except ValueError as exc:
            raise UsageError(f"d must be {exc}, got {clip(text)!r}") from None
    if _grammar_digits(text):
        check_rational_size(text, OutOfRangeError, "d")  # kk's one digit-limit check: exit 1
        with suppress(ValueError):
            return _argv_int(text)  # an integer d needs no Fraction
        from fractions import Fraction

        with suppress(ValueError, ZeroDivisionError):
            return Fraction(text)
    raise UsageError(f"d must be a rational like 9/2, got {clip(text)!r}")


_FUNCTIONS = ("K", "keq", "kk")
_POSITIVE, _NONNEG = _int_at_least(1), _int_at_least(0)


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def _kfun_row(fn: str, n: int, d) -> tuple[str, list]:
    """One minimizer value: its text line and its cells, n, d, value and
    witness."""
    if fn == "K":
        label, result = f"K({n})", kfun.big_k(n)
    else:
        label, result = f"{fn}({n},{d})", getattr(kfun, fn)(n, d)
    line = f"{label} = {result.value}"
    if result.witness is not None:
        line += f", witness {result.witness}"
    return line, [n, d, result.value, result.witness]


def _handle_kfun(args) -> Output:
    d = _parse_d(args.fn, args.d, "kfun")
    line, cells = _kfun_row(args.fn, args.n, d)
    query = f"kfun {args.fn} {args.n}" + ("" if d is None else f" {d}")
    return Output(
        [line],
        {"query": query, "value": cells[2], "witness": cells[3], "provenance": [], "notes": []},
        ["n", "d", "value", "witness"],
        [cells],
    )


def _handle_table(args) -> Output:
    if args.stop < args.start:
        raise UsageError("table requires start <= stop")
    d = _parse_d(args.fn, args.d, "table")
    if args.stop - args.start >= TABLE_MAX_ROWS:
        raise OutOfRangeError(f"table prints at most {TABLE_MAX_ROWS} rows")
    if args.fn == "K":  # the one refusal of a K range, rows above the size limit too
        kfun.check_k_rows(args.start, args.stop)
    elif d < 0:  # the kernel refuses every row: refuse before the CSV header
        raise OutOfRangeError("d must be >= 0")
    query = f"table {args.fn} {args.start} {args.stop}" + ("" if d is None else f" --d {d}")
    d_entry = {} if d is None else {"d": str(d)}

    def rows():  # each row's line and JSON object, whose values are its CSV cells
        for n in range(args.start, args.stop + 1):
            line, (_, _, value, witness) = _kfun_row(args.fn, n, d)
            yield line, {"n": n, **d_entry, "value": value, "witness": witness}

    return Output(
        (line for line, _ in rows()),
        {"query": query, "rows": (row for _, row in rows()), "notes": []},
        ["n", *d_entry, "value", "witness"],
        (row.values() for _, row in rows()),
    )


def _handle_spectrum(args) -> Output:
    obj = expr.parse_product(args.expr)
    spectrum = spectra.product_spectrum(obj)
    # The generator's denominator is the lcm of the areas' denominators, so
    # areas of fewer digits than the limit can give one that str() refuses.
    limit = digit_limit()
    if not spectrum.is_zero and spectrum.gen.denominator >= 10 ** (limit - 1):
        raise OutOfRangeError(f"the product spectrum's generator needs a numerator and a"
                              f" denominator of fewer than {limit} digits")
    min_action = spectra.minimal_action(spectrum)
    split_action = spectra.split_min_action(obj)
    notes = spectra.assumption_notes(obj)
    name = expr.format_product(obj)
    return Output(
        [
            f"object: {name}",
            f"product spectrum: {spectrum}",
            f"minimal action: {min_action}",
            f"split minimal action: {split_action}",
            *(f"note: {note}" for note in notes),
        ],
        {
            "query": f"spectrum {name}",
            "value": {
                "product_spectrum": spectrum,
                "minimal_action": min_action,
                "split_min_action": split_action,
            },
            "witness": None,
            "provenance": [],
            "notes": notes,
        },
        ["object", "product_spectrum", "minimal_action", "split_min_action"],
        [[name, spectrum, min_action, split_action]],
    )


def _interval_output(query: str, interval: bounds.BoundInterval,
                     notes: tuple[str, ...] | list[str] = ()) -> Output:
    lower, upper, witness = interval.lower, interval.upper, interval.witness
    lower_ids = [c.id for c in interval.lower_prov]
    upper_ids = [c.id for c in interval.upper_prov]
    text = [
        f"{query}: [{lower}, {upper}]",
        f"  lower: {', '.join(lower_ids) or '<trivial>'}",
        f"  upper: {', '.join(upper_ids) or '<trivial>'}",
    ]
    if witness is not None:
        text.append(f"  witness: {witness}")
    text += [f"  note: {note}" for note in notes]
    return Output(
        text,
        {
            "query": query,
            "interval": {"lower": lower, "upper": upper},
            "witness": witness,
            "provenance": {"lower": interval.lower_prov, "upper": interval.upper_prov},
            "notes": notes,
        },
        ["query", "lower", "upper", "lower_provenance", "upper_provenance", "witness"],
        [[query, lower, upper, ";".join(lower_ids), ";".join(upper_ids), witness]],
    )


def _handle_energy(args) -> Output:
    obj = expr.parse_product(args.expr)
    return _interval_output(
        f"bound energy {expr.format_product(obj)}",
        bounds.energy_bounds(obj),
        notes=spectra.assumption_notes(obj),
    )


def _handle_capacity(args) -> Output:
    interval = bounds.capacity_bounds(args.n, args.d)
    return _interval_output(f"bound capacity {args.n} {args.d}", interval)


def _handle_squeeze(args) -> Output:
    d = _parse_d("kk", args.d, "bound squeeze")
    return _interval_output(f"bound squeeze {args.n} {d}", bounds.squeeze_bounds(args.n, d))


def _handle_width(args) -> Output:
    area = expr.parse_area(args.area)
    interval = bounds.width_energy_bound(area, args.closed_factor)
    query = f"bound width {spectra.format_pi(area)}"
    if args.closed_factor:
        query += " --closed-factor"
    return _interval_output(query, interval)


_CHECK_COLUMNS = ["name", "range", "pass_count", "fail_count", "first_failure"]


def _handle_verify(args) -> Output:
    report = verify.run_suite(args.suite, args.nmax, args.dmax)
    query = f"verify {args.suite} --nmax {args.nmax}"
    if args.dmax is not None:
        query += f" --dmax {args.dmax}"
    text, checks, rows = [], [], []
    for c in report.checks:
        cells = [c.name, c.range_desc, c.pass_count, c.fail_count]
        line = f"check {c.name} [{c.range_desc}] pass={c.pass_count} fail={c.fail_count}"
        inputs = failure = None
        if c.first_failure is not None:
            # each input by its str, spelled as Python spells a tuple of ints
            inputs = [str(x) for x in c.first_failure]
            failure = f"({', '.join(inputs)}{',' if len(inputs) == 1 else ''})"
            line += f" first_failure={failure}"
        text.append(line)
        checks.append(dict(zip(_CHECK_COLUMNS, cells + [inputs])))
        rows.append(cells + [failure])
    status = "ok" if report.ok else "FAILED"
    text.append(f"verify {args.suite}: {status}"
                f" ({report.fail_count} failures, {report.wall_time_ms} ms)")
    return Output(
        text,
        {"query": query, "checks": checks, "wall_time_ms": report.wall_time_ms},
        _CHECK_COLUMNS,
        rows,
        0 if report.ok else 3,
    )


# ---------------------------------------------------------------------------
# The command table
# ---------------------------------------------------------------------------

# The pattern of argparse's ``_negative_number_matcher`` for the commands whose
# d ``_parse_d`` reads: a token that names no option and starts with "-" then an
# ASCII digit or ".digit" is a value.  argparse's own admits only a negative int
# or decimal, so "-1/2" and "-1e3" would be unrecognized options (exit 2), not a
# d < 0 (exit 1).
_NEGATIVE_D = r"-\.?[0-9]"


def _arg(*flags, **options):
    """One argument, written as its ``add_argument`` call."""
    return flags, options


# {name: (help, handler, default format, arguments)} for the commands and for
# the kinds of ``bound``, whose row holds the kinds instead of arguments;
# arguments may be a function that returns them
_BOUND_KINDS = {
    "energy": ("displacement energy of a product", _handle_energy, "json", (_arg("expr"),)),
    "capacity": ("regular coisotropic capacity of the ball", _handle_capacity, "json",
                 (_arg("n", type=_POSITIVE), _arg("d", type=_NONNEG))),
    "squeeze": ("squeezing constant of the ball", _handle_squeeze, "json",
                (_arg("n", type=_POSITIVE), _arg("d"))),
    "width": ("energy of a ball via its Gromov width", _handle_width, "json",
              (_arg("area"), _arg("--closed-factor", action="store_true",
                                  help="stabilize by a closed aspherical factor"))),
}
_COMMANDS = {
    "kfun": ("single minimizer query", _handle_kfun, "text",
             (_arg("fn", choices=_FUNCTIONS), _arg("n", type=_POSITIVE), _arg("d", nargs="?"))),
    "table": ("value table over a range of n", _handle_table, "text",
              (_arg("fn", choices=_FUNCTIONS), _arg("start", type=_POSITIVE),
               _arg("stop", type=_POSITIVE), _arg("--d", help="fixed d for keq/kk tables"))),
    "spectrum": ("spectrum algebra for a product expression", _handle_spectrum, "text",
                 (_arg("expr"),)),
    "bound": ("certified bound intervals", None, None, _BOUND_KINDS),
    # built only for a parser or a reader that gives ``verify`` its arguments: ``SUITES``
    # runs ``verify``
    "verify": ("bulk invariant sweeps", _handle_verify, "text",
               lambda: (_arg("suite", choices=verify.SUITES),
                        _arg("--nmax", type=_POSITIVE, required=True),
                        _arg("--dmax", type=_NONNEG))),
}


def _arguments(default: str, arguments) -> tuple:
    """A command's arguments, from its row's default format and arguments:
    the row's, then ``--format``."""
    return (*(arguments() if callable(arguments) else arguments),
            _arg("--format", choices=tuple(_PRINTERS), default=default,
                 help=f"output format (default: {default})"))


def _add_commands(parser: argparse.ArgumentParser, dest: str, commands: dict,
                  words: list[str] | None) -> None:
    """Name each command of ``commands`` under ``parser``, and give arguments,
    a handler and ``--format`` to the one ``words[0]`` names, or to each one
    when ``words`` is None.

    ``words`` are the argv tokens that do not start with "-".  argparse
    takes the command from the first of them; where it takes another token,
    that token is no command, and the error it stops with shows only the
    names, so a command without arguments is never read."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, handler, default, arguments) in commands.items():
        command = sub.add_parser(name, help=help_text)
        if words is not None and words[:1] != [name]:
            continue
        if handler is None:
            _add_commands(command, "kind", arguments, None if words is None else words[1:])
            continue
        if handler in (_handle_kfun, _handle_table, _handle_squeeze):
            import re

            command._negative_number_matcher = re.compile(_NEGATIVE_D)
        for flags, options in _arguments(default, arguments):
            command.add_argument(*flags, **options)
        command.set_defaults(handler=handler)


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The argparse tree for ``argv``: every command and ``bound`` kind is
    named, but only the ones ``argv`` names get their arguments; with no
    argv, every one does.  ``run`` builds it only for an argv that
    ``_plain_args`` does not read."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="coisocap",
        description="Exact capacity minimizers, spectrum algebra, and certified bound intervals.",
    )
    words = None if argv is None else [t for t in argv if not t.startswith("-")]
    _add_commands(parser, "command", _COMMANDS, words)
    return parser


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser(argv).parse_args(argv)`` returns, read
    from the same rows, if argv is plain; else None.

    Plain: argv names a command, and a kind after ``bound``; each later
    token that starts with "-" is one of the command's options, named in
    full and once, and a valued option's value does not start with "-";
    the positionals are one run that fills the required ones, and every
    ``type`` and ``choices`` accepts its token.  Any other argv, help and
    every usage error included, is argparse's to read."""
    values, rows, tokens = {}, _COMMANDS, iter(argv)
    for dest in ("command", "kind"):
        name = next(tokens, None)
        if name not in rows:
            return None
        values[dest] = name
        _, handler, default, arguments = rows[name]
        if handler is not None:
            break
        rows = arguments
    positionals, options = [], {}
    for flags, spec in _arguments(default, arguments):
        if flags[0].startswith("-"):
            options[flags[0]] = spec
        else:
            positionals.append((flags[0], spec))
    # One run of positionals: argparse fills an optional positional
    # differently by version when more of them follow an option.
    words, given, closed = [], {}, False
    for token in tokens:
        if not token.startswith("-"):
            if closed:
                return None
            words.append(token)
            continue
        spec = options.get(token)
        if spec is None or token in given:
            return None
        closed = bool(words)
        if spec.get("action") == "store_true":
            given[token] = True
            continue
        given[token] = next(tokens, "-")
        if given[token].startswith("-"):
            return None
    required = sum(spec.get("nargs") != "?" for _, spec in positionals)
    if not required <= len(words) <= len(positionals):
        return None
    cells = [(flag, spec, word) for (flag, spec), word in zip_longest(positionals, words)]
    cells += [(flag.lstrip("-").replace("-", "_"), spec, given.get(flag))
              for flag, spec in options.items()]
    for dest, spec, token in cells:
        if token is None:
            if spec.get("required"):
                return None
            store_true = spec.get("action") == "store_true"
            values[dest] = spec.get("default", False if store_true else None)
        elif token is True:
            values[dest] = True
        else:
            try:
                values[dest] = spec.get("type", str)(token)
            except Exception:  # argparse reads argv again, and reports it
                return None
            if "choices" in spec and values[dest] not in spec["choices"]:
                return None
    return SimpleNamespace(**values, handler=handler)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run(argv: list[str] | None = None) -> int:
    """Execute one invocation; returns the process exit code.  A plain
    argv is read by ``_plain_args``, any other by argparse."""
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    parser = None if args else build_parser(argv)
    code = 0
    try:
        try:
            args = args or parser.parse_args(argv)  # prints --help
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        else:
            out = args.handler(args)
            code = out.code
            _PRINTERS[args.format](out)
        sys.stdout.flush()
    except BrokenPipeError:
        # The recipe in the ``signal`` docs: with stdout's descriptor on
        # devnull, the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ExprParseError, UsageError)) else 1
    except (TypeError, RecursionError, MemoryError) as exc:  # last resort: no traceback
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return code


def main() -> None:
    code = run(sys.argv[1:])
    # everything left is torn down at exit: keep it out of the final collections
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
