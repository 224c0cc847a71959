"""The package surface: ``import coisocap`` loads no layer, each name is
imported from its layer on first use, and ``__all__``, star import,
``dir`` and the layer attributes are what they were when every name was
imported eagerly."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coisocap

# The re-exports by layer, as the package exported them when it imported
# each one by name.
EXPORTS = {
    "bounds": ("BoundInterval", "Citation", "LagrangianComparison", "capacity_bounds", "citation",
               "citation_ids", "energy_bounds", "lagrangian_comparison", "squeeze_bounds",
               "width_energy_bound"),
    "errors": ("CapExceededError", "CoisocapError", "ExprParseError", "IntervalConflictError",
               "OutOfRangeError"),
    "expr": ("format_product", "parse_area", "parse_product"),
    "kfun": ("Decomposition", "ExtNat", "NAT_INF", "Pair", "WitnessedValue", "big_k",
             "big_k_table", "four_square", "keq", "keq_naive", "kk", "kk_naive",
             "sqrt_bound_witness"),
    "spectra": ("Closed", "CoisotropicAtom", "ExtRat", "ProductObject", "RAT_INF", "RatPi",
                "Spectrum", "Sphere", "Stiefel", "format_pi", "minimal_action",
                "product_spectrum", "spectrum_of_atom", "spectrum_sum", "split_min_action"),
    "verify": ("CheckResult", "VerifyReport", "run_suite"),
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def cold(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh ``python -S`` with the package on the path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-S", *flags, "-c", code], env=env, check=True,
                          capture_output=True, text=True)


def loaded_by(statement: str) -> set[str]:
    """The ``coisocap`` modules a cold run of ``statement`` loads."""
    return set(cold(f"import sys\n{statement}\n"
                    "print(' '.join(m for m in sys.modules if m.startswith('coisocap')))"
                    ).stdout.split())


def test_import_loads_no_layer():
    assert loaded_by("import coisocap") == {"coisocap"}


def test_a_name_loads_only_its_layer_and_what_that_imports():
    assert loaded_by("from coisocap import keq") == {
        "coisocap", "coisocap.errors", "coisocap.kfun"}
    assert loaded_by("from coisocap import keq_naive") == {
        "coisocap", "coisocap.errors", "coisocap.kfun", "coisocap.oracles"}


# The names ``oracles`` defines, which ``kfun`` looks up there on first use.
ORACLE_NAMES = ("ORACLE_CAP", "NaiveEntry", "_oracle_cap", "_naive_table", "_kk_naive_table",
                "keq_naive", "kk_naive", "square_cost_naive", "four_square", "sqrt_bound_witness",
                "lt_sqrt_plus", "root_bound_holds", "is_valid_exact_witness",
                "is_valid_relaxed_witness")


def test_kfun_reads_the_oracle_names_from_oracles():
    from coisocap import kfun, oracles

    for name in ORACLE_NAMES:
        assert getattr(kfun, name) is getattr(oracles, name)
        assert name in vars(kfun)  # kept, so the next lookup skips the hook
    with pytest.raises(AttributeError, match="no_such_name"):
        kfun.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from coisocap.kfun import no_such_name  # noqa: F401


def test_all_is_the_sorted_export_list():
    assert len(NAMES) == 49
    assert coisocap.__all__ == NAMES


def test_star_import_binds_exactly_all():
    bound = cold("ns = {}\nexec('from coisocap import *', ns)\n"
                 "print(' '.join(sorted(set(ns) - {'__builtins__'})))").stdout.split()
    assert bound == NAMES


@pytest.mark.parametrize("layer", sorted(EXPORTS))
def test_each_name_is_its_layers_object(layer):
    module = importlib.import_module(f"coisocap.{layer}")
    assert getattr(coisocap, layer) is module
    for name in EXPORTS[layer]:
        assert name in dir(coisocap)
        assert getattr(coisocap, name) is getattr(module, name)


def test_layers_are_attributes_after_a_bare_import():
    layers = " ".join(sorted(EXPORTS))
    assert cold("import sys, coisocap\n"
                f"print(all(getattr(coisocap, m) is sys.modules['coisocap.' + m] "
                f"for m in {layers!r}.split()))").stdout.split() == ["True"]


# The layers ``import coisocap.cli`` runs; it registers ``kfun``, ``spectra``,
# ``expr``, ``bounds`` and ``verify`` too, but each runs on first use.
CLI_IMPORT_RUNS = {"errors", "cli"}
REGISTERED = {"kfun", "spectra", "expr", "bounds", "verify"}


RAN = """
for name, module in list(sys.modules.items()):
    if name.startswith('coisocap.'):
        layer = name.removeprefix('coisocap.')
        if type(module).__name__ == '_Registered':
            print(f'({layer})')
        elif any(not key.startswith('__') for key in vars(module)):
            print(layer)
"""


def ran_by(statement: str, *flags: str) -> subprocess.CompletedProcess:
    """A cold run of ``statement`` that prints the ``coisocap`` layers it has
    run (a layer that has not run holds no name of its own), and in
    parentheses those registered that have not run."""
    return cold(f"import sys\n{statement}\n{RAN}", *flags)


def unrun(layers: set[str]) -> set[str]:
    """How ``ran_by`` prints ``layers`` registered but not run."""
    return {f"({layer})" for layer in layers}


def test_importtime_reports_every_layer_a_cold_cli_import_runs():
    # The per-layer import times of the benchmark read these lines; a layer
    # run on first use has no line, and the import runs none of them: the
    # kernel is registered, so a tracer finds it, but not run.
    result = ran_by("import coisocap.cli", "-X", "importtime")
    timed = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines() if "|" in line}
    assert set(result.stdout.split()) == CLI_IMPORT_RUNS | unrun(REGISTERED)
    assert {f"coisocap.{layer}" for layer in CLI_IMPORT_RUNS} <= timed
    assert not {f"coisocap.{layer}" for layer in REGISTERED} & timed


# (argv, the layers the call runs beyond those the import runs): only a call
# that reads a minimizer runs the kernel, and a sweep refused by the verify
# cell budget runs only ``verify``
CALLS = [
    (["kfun", "keq", "5", "7"], {"kfun"}),
    (["kfun", "kk", "5", "7/2", "--format", "json"], {"kfun"}),
    (["kfun", "K", "7", "--format", "csv"], {"kfun"}),
    (["table", "K", "1", "3"], {"kfun"}),
    (["table", "keq", "1", "3", "--d", "5", "--format", "json"], {"kfun"}),
    (["table", "kk", "1", "3", "--d", "5", "--format", "csv"], {"kfun"}),
    (["spectrum", "S(1;pi)"], {"expr", "spectra"}),
    (["spectrum", "S(1;pi)", "--format", "json"], {"expr", "spectra"}),
    (["bound", "energy", "S(2;pi)"], {"expr", "spectra", "bounds"}),
    (["bound", "capacity", "5", "7", "--format", "text"], {"spectra", "bounds", "kfun"}),
    (["bound", "width", "pi", "--format", "csv"], {"expr", "spectra", "bounds"}),
    (["verify", "kfun-props", "--nmax", "3"], {"verify", "kfun", "oracles"}),
    (["verify", "oracle", "--nmax", "3"], {"verify", "kfun", "oracles"}),
    (["verify", "bounds-props", "--nmax", "3"], {"verify", "expr", "spectra", "bounds", "kfun"}),
    (["verify", "all", "--nmax", "3"],
     {"verify", "expr", "spectra", "bounds", "kfun", "oracles"}),
    (["verify", "all", "--nmax", "200"], {"verify"}),
]
REFUSED = [["verify", "all", "--nmax", "200"]]  # exit 1, the rest 0


@pytest.mark.parametrize("argv, layers", CALLS, ids=["-".join(argv) for argv, _ in CALLS])
def test_a_cli_call_runs_only_the_layers_it_uses(argv, layers):
    code = int(argv in REFUSED)
    ran = ran_by("import contextlib, io\nfrom coisocap.cli import run\n"
                 "with contextlib.redirect_stdout(io.StringIO()),"
                 " contextlib.redirect_stderr(io.StringIO()):\n"
                 f"    assert run({argv!r}) == {code}")
    # the layers it does not use are registered still, and not run
    assert set(ran.stdout.split()) == CLI_IMPORT_RUNS | layers | unrun(REGISTERED - layers)


def test_the_tracer_wraps_every_layer_and_times_a_sweep():
    # perfbench/tracing.py wraps each layer it finds in sys.modules right after
    # ``import coisocap.cli``: a layer that import stops loading breaks traced runs.
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    summary = cold(f"import sys\nsys.path.insert(0, {str(bench)!r})\nimport tracing\n"
                   "tracer = tracing.install()\nfrom coisocap import cli\n"
                   "code = cli.run(['verify', 'oracle', '--nmax', '3'])\n"
                   "counts = tracing.summarize(tracer)['counts']\n"
                   "print(code, counts['verify.run_suite'], file=sys.stderr)\n"
                   "print(counts['kfun.keq_naive'] >= 1, counts['kfun.kk_naive'] >= 1,"
                   " file=sys.stderr)")
    assert summary.stderr.split() == ["0", "1", "True", "True"]


def test_the_tracer_wraps_the_layers_run_on_first_use():
    # ``install`` reads each layer off ``sys.modules``, which runs it; the
    # names ``bounds`` imports from ``kfun`` are wrapped too, so nest.
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    spans = cold(f"import sys\nsys.path.insert(0, {str(bench)!r})\nimport tracing\n"
                 "tracer = tracing.install()\nfrom coisocap import cli\n"
                 "assert cli.run(['bound', 'energy', 'S(2;pi) x V(1,3;pi/2)']) == 0\n"
                 "assert cli.run(['bound', 'capacity', '5', '7']) == 0\n"
                 "buf, names = tracer.buf, tracer.names\n"
                 "for i in range(0, len(buf), tracing.WIDTH):\n"
                 "    parent = buf[i + 1]\n"
                 "    print(names[buf[i]], names[buf[parent]] if parent >= 0 else '-',"
                 " file=sys.stderr)").stderr.splitlines()
    pairs = {tuple(line.split()) for line in spans}
    assert {("expr.parse_product", "cli.run"), ("bounds.energy_bounds", "cli.run"),
            ("spectra.split_min_action", "bounds.energy_bounds"),
            ("kfun.keq", "bounds.capacity_bounds")} <= pairs


@pytest.mark.parametrize("cli_first", [False, True], ids=["name-first", "cli-first"])
@pytest.mark.parametrize("layer, name", [
    ("kfun", "keq"), ("spectra", "Spectrum"), ("expr", "parse_product"), ("bounds", "Citation"),
    ("verify", "run_suite")])
def test_a_layer_run_on_first_use_is_one_module_run_once(layer, name, cli_first):
    # An audit hook sees each ``exec`` of a module body, eager or lazy.
    cli, by_name = "import coisocap.cli", f"from coisocap.{layer} import {name}"
    result = cold(
        "import sys\nruns = []\n"
        "sys.addaudithook(lambda event, args: event == 'exec'"
        f" and args[0].co_filename.endswith('{layer}.py') and runs.append(1))\n"
        + "\n".join((cli, by_name) if cli_first else (by_name, cli)) +
        f"\nimport coisocap\nmodule = sys.modules['coisocap.{layer}']\n"
        f"print(coisocap.{layer} is module, coisocap.cli.{layer} is module,"
        f" coisocap.{name} is {name} is module.{name}, len(runs), type(module).__name__)")
    # a plain module once run: no later access takes the first run's lock
    assert result.stdout.split() == ["True", "True", "True", "1", "module"]


RACE = """\
import argparse, sys, threading
sys.setswitchinterval(1e-6)
from coisocap import cli
errors = []
def call():
    try:
        {call}
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=call) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(errors)
"""


def test_threads_that_run_a_layer_first_at_once_all_see_it_whole():
    # Before CPython 3.12.3 a LazyLoader module is plain once its body starts:
    # three of these threads read ``expr`` half run, in every run; the second
    # call races on the kernel's first run.
    for call in ('cli._handle_spectrum(argparse.Namespace(expr="S(2;pi) x V(1,3;pi/2)"))',
                 'cli._kfun_row("kk", 5, 7)'):
        for _ in range(5):
            assert cold(RACE.format(call=call)).stdout.split() == ["[]"]


def test_the_kernel_run_on_first_use_finds_an_oracle_name_on_its_first_read():
    # The first read of a registered layer ends in ModuleType's own lookup,
    # which falls back to ``kfun``'s PEP 562 ``__getattr__``.
    result = cold("from coisocap import cli, kfun\n"
                  "print(type(kfun).__name__, kfun.ORACLE_CAP, type(kfun).__name__)")
    assert result.stdout.split() == ["_Registered", "12", "module"]


def test_a_patch_set_before_a_layers_first_read_outlives_its_run():
    # Setting or deleting a name on a registered layer runs it first, so the
    # body does not overwrite the patch, nor fail to find the name to delete.
    result = cold("from coisocap import cli, bounds, verify\n"
                  "print(type(bounds).__name__, type(verify).__name__)\n"
                  "bounds.capacity_bounds = lambda n, d: 'patched'\n"
                  "del verify.run_suite\n"
                  "print(bounds.capacity_bounds(5, 7), hasattr(verify, 'run_suite'))")
    assert result.stdout.split() == ["_Registered", "_Registered", "patched", "False"]


@pytest.mark.parametrize("argv, sweeps", [
    ([], False),
    (["kfun", "keq", "5", "7"], False),
    (["table", "K", "1", "3"], False),
    (["bound", "energy", "S(2;pi)"], False),
    (["spectrum", "S(1;pi)"], False),
    (["verify", "oracle", "--nmax", "3"], True),
], ids=["import", "kfun", "table", "bound", "spectrum", "verify"])
def test_only_verify_loads_the_check_declarations(argv, sweeps):
    call = f"assert run({argv!r}) == 0" if argv else "pass"
    ran = ran_by("import contextlib, io\nfrom coisocap.cli import run\n"
                 f"with contextlib.redirect_stdout(io.StringIO()):\n    {call}").stdout.split()
    assert ("verify" in ran) is sweeps
    assert ("oracles" in ran) is sweeps


RATIONAL = ["fractions", "decimal", "numbers"]  # fractions imports the other two

# (argv, the layers it runs beyond the import's, the modules of RATIONAL it
# loads): none of RATIONAL for a kfun, table or refused call whose numbers are
# all integers, and no kernel for a call refused before it reads a minimizer
FRACTION_CALLS = [
    (["kfun", "keq", "5", "7"], {"kfun"}, []),
    (["kfun", "kk", "5", "7", "--format", "json"], {"kfun"}, []),
    (["kfun", "kk", "5", " +007 ", "--format", "csv"], {"kfun"}, []),
    (["kfun", "K", "7", "--format", "json"], {"kfun"}, []),
    (["table", "kk", "1", "3", "--d", "-0", "--format", "json"], {"kfun"}, []),
    (["table", "keq", "1", "3", "--d", "5", "--format", "csv"], {"kfun"}, []),
    (["kfun", "kk", "5", "-1"], {"kfun"}, []),
    (["kfun", "kk", "5", "1" * 5000], set(), []),
    (["kfun", "K", "0"], set(), []),
    (["kfun", "keq", "5", "7/2"], set(), []),
    (["table", "K", "3", "1"], set(), []),
    (["bound", "nosuchkind"], set(), []),
    (["kfun", "kk", "5", "7/2"], {"kfun"}, RATIONAL),
]


@pytest.mark.parametrize("argv, layers, loaded", FRACTION_CALLS,
                         ids=[" ".join(argv)[:24] for argv, _, _ in FRACTION_CALLS])
def test_only_a_rational_loads_fractions_decimal_and_numbers(argv, layers, loaded):
    ran = ran_by("import contextlib, io\nfrom coisocap.cli import run\n"
                 "with contextlib.redirect_stdout(io.StringIO()),"
                 " contextlib.redirect_stderr(io.StringIO()):\n"
                 f"    run({argv!r})\n"
                 f"print(*(m for m in {RATIONAL!r} if m in sys.modules), file=sys.stderr)")
    assert set(ran.stdout.split()) == CLI_IMPORT_RUNS | layers | unrun(REGISTERED - layers)
    assert ran.stderr.split() == loaded


@pytest.mark.parametrize("call, printers", [
    ("", []),
    ("run(['kfun', 'keq', '5', '7'])", []),
    ("run(['kfun', 'keq', '5', '7', '--format', 'json'])", ["json"]),
    ("run(['kfun', 'keq', '5', '7', '--format', 'csv'])", ["csv"]),
], ids=["import", "text", "json", "csv"])
def test_cli_imports_json_and_csv_only_to_print_them(call, printers):
    loaded = cold(f"import sys\nfrom coisocap.cli import run\n{call}\n"
                  "print(*(m for m in ('json', 'csv') if m in sys.modules), file=sys.stderr)")
    assert loaded.stderr.split() == printers


ARGPARSE = ("argparse", "gettext", "locale")  # argparse's first translation loads locale
GOLDEN = {tuple(entry["argv"]): entry for entry in json.loads(
    (Path(__file__).parent / "golden" / "cli.json").read_text())}

# (argv, whether argparse reads it): a plain argv is read from the command table
READERS = [
    (["kfun", "keq", "3", "2"], False),
    (["table", "keq", "1", "6", "--d", "4", "--format", "csv"], False),
    (["spectrum", "V(2,3;pi/2)", "--format", "json"], False),
    (["bound", "width", "pi", "--closed-factor", "--format", "text"], False),
    (["verify", "oracle", "--nmax", "3", "--dmax", "4", "--format", "csv"], False),
    (["--help"], True),
    (["kfun", "K", "0"], True),
    (["kfun", "keq", "5", "7", "--form", "json"], True),
]


@pytest.mark.parametrize("argv, parsed", READERS, ids=[" ".join(argv) for argv, _ in READERS])
def test_only_help_usage_errors_and_other_forms_load_argparse(argv, parsed, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err, loaded = json.loads(cold(
        "import contextlib, io, json, sys\nfrom coisocap.cli import run\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        f"    code = run({argv!r})\n"
        f"loaded = [m for m in {ARGPARSE!r} if m in sys.modules]\n"
        "print(json.dumps([code, out.getvalue(), err.getvalue(), loaded]))").stdout)
    want = GOLDEN[tuple(argv)]
    assert (code, out, err) == (want["exit"], want["stdout"], want["stderr"])
    assert ("argparse" in loaded) is parsed
    assert loaded == [] or parsed


def test_a_plain_kfun_call_loads_no_re():
    # ``python -S`` starts with neither, as under a ``site`` that preloads neither
    loaded = cold("import sys\nbefore = {'re', 'shutil'} & set(sys.modules)\n"
                  "from coisocap.cli import run\nrun(['kfun', 'keq', '5', '7'])\n"
                  "print(before, {'re', 'shutil'} & set(sys.modules), file=sys.stderr)")
    assert loaded.stdout == "keq(5,7) = 3, witness [(1,2),(1,2),(1,1)]\n"
    assert loaded.stderr.split() == ["set()", "set()"]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        coisocap.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from coisocap import no_such_name  # noqa: F401
