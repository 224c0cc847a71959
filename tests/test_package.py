"""The package surface: ``import coisocap`` loads no layer, each name is
imported from its layer on first use, and ``__all__``, star import,
``dir`` and the layer attributes are what they were when every name was
imported eagerly."""
import importlib
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
ORACLE_NAMES = ("ORACLE_CAP", "NaiveEntry", "_oracle_cap", "_naive_table", "keq_naive",
                "kk_naive", "square_cost_naive", "four_square", "sqrt_bound_witness",
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


def test_importtime_reports_every_layer_of_a_cold_cli_import():
    # The per-layer import times of the benchmark read these lines; a layer
    # the package loaded through importlib would be missing from them.
    report = cold("import coisocap.cli", "-X", "importtime").stderr
    timed = {line.rsplit("|", 1)[1].strip() for line in report.splitlines() if "|" in line}
    assert {f"coisocap.{layer}" for layer in (*EXPORTS, "cli")} <= timed


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
    loaded = loaded_by("import contextlib, io\nfrom coisocap.cli import run\n"
                       f"with contextlib.redirect_stdout(io.StringIO()):\n    {call}")
    assert ("coisocap.checks" in loaded) is sweeps
    assert ("coisocap.oracles" in loaded) is sweeps


def test_the_suites_are_the_declared_suites():
    from coisocap import checks, verify

    assert verify.SUITES == tuple(checks.SUITE_CHECKS)


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


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        coisocap.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from coisocap import no_such_name  # noqa: F401
