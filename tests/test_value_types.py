"""The value-type contract: every frozen value type of the package builds
by position and by keyword, compares and hashes as its tuple of fields,
never equals an object of another class, refuses assignment and
deletion, and survives a pickle round trip.  A cold ``import
coisocap.cli`` runs ``errors`` and ``cli``, registers ``kfun``, ``spectra``,
``expr``, ``bounds`` and ``verify`` to run on first use, and loads none of
``dataclasses``, ``inspect`` and ``typing``."""
import copy
import itertools
import operator
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coisocap import (
    NAT_INF,
    RAT_INF,
    BoundInterval,
    CheckResult,
    Citation,
    Closed,
    Decomposition,
    ExtNat,
    ExtRat,
    LagrangianComparison,
    Pair,
    ProductObject,
    Spectrum,
    Sphere,
    Stiefel,
    VerifyReport,
    WitnessedValue,
)
from coisocap.cli import Output
from coisocap.errors import require_area

DEC = Decomposition((Pair(2, 3), Pair(1, 1)))
CITE = Citation("eq:c-L", "the Lagrangian capacity of the unit ball equals pi / n")
SPHERE = Sphere(2, Fraction(1, 2))
CHECK = CheckResult("kfun-monotone", "n<=3", 3, 0, None)

# class -> (field names in order, one value per field)
SAMPLES = {
    ExtNat: (("value",), (4,)),
    Pair: (("k", "n"), (2, 3)),
    Decomposition: (("pairs",), ((Pair(2, 3), Pair(1, 1)),)),
    WitnessedValue: (("value", "witness"), (ExtNat(3), DEC)),
    Spectrum: (("gen",), (Fraction(2, 3),)),
    ExtRat: (("value",), (Fraction(1, 3),)),
    Sphere: (("m", "area"), (2, Fraction(1, 2))),
    Stiefel: (("k", "n", "area"), (2, 3, Fraction(5))),
    Closed: (("label", "half_dim", "spectrum", "aspherical"), ("T2", 1, Spectrum.zero(), True)),
    ProductObject: (("atoms",), ((SPHERE, Stiefel(1, 2, 1)),)),
    Citation: (("id", "statement"), (CITE.id, CITE.statement)),
    BoundInterval: (("lower", "upper", "lower_prov", "upper_prov", "witness"),
                    (ExtRat.fin(Fraction(1, 3)), ExtRat.fin(1), (CITE,), (CITE,), DEC)),
    LagrangianComparison: (("lagrangian_value", "capacity_lower", "strict"),
                           (Fraction(1, 4), Fraction(1, 3), True)),
    CheckResult: (("name", "range_desc", "pass_count", "fail_count", "first_failure"),
                  ("kfun-monotone", "n<=3", 2, 1, (3, 4))),
    VerifyReport: (("checks", "wall_time_ms"), ((CHECK,), 12)),
    Output: (("text", "json", "csv_header", "csv_rows", "code"),
             (["a"], {"a": 1}, ["h"], [[1]], 3)),
}
TYPES = sorted(SAMPLES, key=lambda cls: cls.__name__)
IDS = [cls.__name__ for cls in TYPES]


def _build(cls):
    names, values = SAMPLES[cls]
    return cls(*values), cls(**dict(zip(names, values)))


def _fields(obj):
    return tuple(getattr(obj, name) for name in SAMPLES[type(obj)][0])


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_position_and_keyword_construction_agree(cls):
    by_position, by_keyword = _build(cls)
    assert _fields(by_position) == SAMPLES[cls][1]
    assert by_position == by_keyword
    assert not by_position != by_keyword


@pytest.mark.parametrize("cls", [cls for cls in TYPES if cls is not Output],
                         ids=[name for name in IDS if name != "Output"])
def test_hash_is_the_hash_of_the_field_tuple(cls):
    by_position, by_keyword = _build(cls)
    assert hash(by_position) == hash(by_keyword) == hash(_fields(by_position))
    assert len({by_position, by_keyword}) == 1


def test_output_is_unhashable():
    with pytest.raises(TypeError):
        hash(_build(Output)[0])


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls):
    obj = _build(cls)[0]
    for name, value in zip(*SAMPLES[cls]):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert _fields(obj) == SAMPLES[cls][1]


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_repr_shows_class_and_fields(cls):
    obj = _build(cls)[0]
    names = SAMPLES[cls][0]
    body = ", ".join(f"{name}={getattr(obj, name)!r}" for name in names)
    assert repr(obj) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_copies_and_pickles_are_equal(cls):
    obj = _build(cls)[0]
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls and twin == obj


def test_defaults():
    lo, hi = ExtRat.fin(0), RAT_INF
    assert _fields(BoundInterval(lo, hi)) == (lo, hi, (), (), None)
    assert Closed("M", 1, Spectrum.zero()).aspherical is False
    assert CheckResult("c", "r", 1, 0).first_failure is None
    assert Output([], {}, [], []).code == 0
    assert WitnessedValue(NAT_INF).witness is None


def test_exact_fields_are_normalised_to_fractions():
    assert type(Spectrum(2).gen) is Fraction
    assert type(ExtRat(2).value) is Fraction
    assert type(Sphere(1, 2).area) is Fraction
    assert type(Stiefel(1, 1, 2).area) is Fraction
    assert ProductObject([SPHERE]).atoms == (SPHERE,)


class _Half(Fraction):
    """A Fraction subclass, which the value path must not carry along."""


@pytest.mark.parametrize("value", [3, Fraction(3, 2), _Half(3, 2)],
                         ids=["int", "Fraction", "subclass"])
@pytest.mark.parametrize("read", [
    lambda v: require_area(v, "area"),
    lambda v: ExtRat.fin(v).value,
    lambda v: Spectrum.lattice(v).gen,
    lambda v: Sphere(1, v).area,
], ids=["require_area", "ExtRat.fin", "Spectrum.lattice", "Sphere"])
def test_the_value_path_holds_exact_fractions(read, value):
    got = read(value)
    assert type(got) is Fraction and got == value


def test_no_equality_across_types():
    assert ExtNat(1) != ExtRat.fin(1)
    assert NAT_INF != RAT_INF
    assert Citation("a", "b") != ("a", "b")
    assert Pair(1, 1) != (1, 1)
    assert Spectrum(None) != ExtRat(None)
    assert (ExtNat(1) == ExtRat.fin(1)) is False


@pytest.mark.parametrize("small, large", [
    (ExtNat(0), ExtNat(5)),
    (ExtNat(5), NAT_INF),
    (ExtRat.fin(0), ExtRat.fin(Fraction(1, 2))),
    (ExtRat.fin(Fraction(10**20)), RAT_INF),
])
def test_extended_orderings(small, large):
    assert small < large and small <= large and large > small and large >= small
    assert not (large < small or large <= small or small > large or small >= large)
    for x in (small, large):
        assert x <= x and x >= x and not x < x and not x > x
    with pytest.raises(TypeError):
        small < 1


@pytest.mark.parametrize("a, b", [(ExtNat(1), ExtRat.fin(1)), (NAT_INF, RAT_INF)])
def test_no_order_across_types(a, b):
    for x, y in ((a, b), (b, a)):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(x, y)


def test_extended_operators_follow_the_infinity_order():
    # each list in ascending order: infinity above every finite value
    nats = [ExtNat(0), ExtNat(1), NAT_INF]
    rats = [ExtRat.fin(0), ExtRat.fin(Fraction(1, 3)), ExtRat.fin(1), RAT_INF]
    for values in (nats, rats):
        for (i, x), (j, y) in itertools.product(enumerate(values), repeat=2):
            for compare in (operator.lt, operator.le, operator.gt, operator.ge):
                assert compare(x, y) is compare(i, j), (x, compare.__name__, y)
    for x, y in itertools.product(nats, rats):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            for a, b in ((x, y), (y, x)):
                with pytest.raises(TypeError):
                    compare(a, b)


def test_infinity_orderings():
    assert NAT_INF == ExtNat(None) and NAT_INF <= NAT_INF and not NAT_INF < NAT_INF
    assert RAT_INF == ExtRat(None) and RAT_INF >= RAT_INF and not RAT_INF > RAT_INF
    assert max(ExtNat(3), NAT_INF, ExtNat(7)) == NAT_INF
    assert min(RAT_INF, ExtRat.fin(2), ExtRat.fin(1)) == ExtRat.fin(1)


COLD_IMPORT = """\
import sys
before = set(sys.modules)
import coisocap.cli
for name in sorted(set(sys.modules) - before):
    # a module registered to run on first use holds no name of its own yet
    module_dict = object.__getattribute__(sys.modules[name], "__dict__")
    print(name if any(not key.startswith("__") for key in module_dict) else f"({name})")
"""


def test_cold_cli_import_runs_only_the_eager_layers_without_dataclasses_or_inspect():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    added = set(subprocess.run([sys.executable, "-S", "-c", COLD_IMPORT], env=env, check=True,
                               capture_output=True, text=True).stdout.split())
    assert not added & {"dataclasses", "inspect", "typing"}
    assert {f"coisocap.{layer}" for layer in ("errors", "cli")} <= added
    # registered, so a tracer finds them, but not run: the kernel too
    assert {f"(coisocap.{layer})"
            for layer in ("kfun", "spectra", "expr", "bounds", "verify")} <= added
    assert "coisocap.oracles" not in {name.strip("()") for name in added}
