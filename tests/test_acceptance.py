"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
``-rA``) and enforces the stated runtime limit where one applies.
"""
import csv
import io
import time
from fractions import Fraction

from coisocap import (
    ExtNat,
    ExtRat,
    big_k,
    big_k_table,
    capacity_bounds,
    energy_bounds,
    keq,
    keq_naive,
    kk,
    kk_naive,
    squeeze_bounds,
    sqrt_bound_witness,
)
from coisocap.cli import run
from coisocap.kfun import (
    is_valid_exact_witness,
    is_valid_relaxed_witness,
    lt_sqrt_plus,
    root_bound_holds,
)
from coisocap.spectra import Closed, ProductObject, Spectrum, Sphere

K_ROW_1_TO_20 = [1, 2, 3, 2, 3, 4, 5, 4, 3, 4, 5, 6, 5, 6, 7, 4, 5, 6, 7, 6]
PI = ExtRat.fin(1)


class criterion:
    """Times a criterion body, prints its PASS/FAIL line, enforces limits."""

    def __init__(self, number: int, title: str, limit_s: float | None = None):
        self.number = number
        self.title = title
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        in_time = self.limit_s is None or elapsed < self.limit_s
        status = "PASS" if exc_type is None and in_time else "FAIL"
        limit = "" if self.limit_s is None else f", limit {self.limit_s:g}s"
        print(f"ACCEPTANCE {self.number:02d} {self.title}: {status} ({elapsed:.2f}s{limit})")
        if exc_type is None:
            assert in_time, f"criterion {self.number} exceeded {self.limit_s}s ({elapsed:.2f}s)"
        return False


def test_criterion_01_k_table_reproduction(capsys):
    with criterion(1, "K-table reproduction", limit_s=1.0):
        code = run(["table", "K", "1", "20", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "value", "witness"]
        assert [int(r[1]) for r in rows[1:]] == K_ROW_1_TO_20


def test_criterion_02_collapse_identity():
    with criterion(2, "collapse identity at d = n", limit_s=30.0):
        table = big_k_table(25)
        for n in range(1, 26):
            exact = keq(n, n).value
            relaxed = kk(n, n).value
            assert exact == ExtNat(table[n]), f"keq({n},{n}) = {exact}"
            assert relaxed == ExtNat(table[n]), f"kk({n},{n}) = {relaxed}"


def test_criterion_03_oracle_equivalence():
    with criterion(3, "oracle equivalence", limit_s=60.0):
        for n in range(1, 9):
            for d in range(0, 2 * n + 1):
                assert keq(n, d).value == keq_naive(n, d).value, (n, d)
                assert kk(n, d).value == kk_naive(n, d).value, (n, d)


def test_criterion_04_relation_sweep():
    with criterion(4, "eight-relation sweep", limit_s=300.0):
        nmax = 15
        table = big_k_table(2 * nmax)

        # monotonicity in d of the relaxed minimizer
        for n in range(1, nmax + 1):
            values = [kk(n, d).value for d in range(0, 2 * n + 3)]
            assert all(a >= b for a, b in zip(values, values[1:])), n

        # the exact minimizer dominates the relaxed one
        for n in range(1, nmax + 1):
            for d in range(0, 2 * n + 3):
                assert keq(n, d).value >= kk(n, d).value, (n, d)

        # collapse at d = n
        for n in range(1, nmax + 1):
            assert keq(n, n).value == kk(n, n).value == ExtNat(table[n]), n

        # root bound on the square minimizer (exact comparison)
        for n in range(1, nmax + 1):
            assert root_bound_holds(n, table[n]), n

        # linear bound on the window
        for n in range(1, nmax + 1):
            for d in range(n, 2 * n):
                assert keq(n, d).value <= ExtNat(2 * n - d), (n, d)

        # square-root bound on its window (exact comparison)
        for n in range(9, nmax + 1):
            for d in range(n, 2 * n + 1):
                if (d - n + 9) ** 2 < 36 * n:
                    continue
                cost = kk(n, d).value
                assert cost.is_finite and lt_sqrt_plus(cost.value, 2 * n - d, 3), (n, d)
                wit = sqrt_bound_witness(n, d)
                assert is_valid_relaxed_witness(wit, n, d), (n, d)
                assert lt_sqrt_plus(wit.cost, 2 * n - d, 3), (n, d)

        # subadditivity with infinity absorbing
        for n in range(1, nmax + 1):
            for n2 in range(1, nmax + 1):
                for d in range(0, 2 * n + 1):
                    for d2 in range(0, 2 * n2 + 1):
                        assert (
                            kk(n + n2, d + d2).value <= kk(n, d).value + kk(n2, d2).value
                        ), (n, n2, d, d2)

        # divisor bound
        for n in range(1, nmax + 1):
            for k in range(1, n + 1):
                if n % k == 0 and k * k <= n:
                    assert keq(n, 2 * n - k * k).value <= ExtNat(k), (n, k)


def test_criterion_05_feasibility_windows():
    with criterion(5, "feasibility windows"):
        for n in range(1, 21):
            for d in range(0, 3 * n + 1):
                assert keq(n, d).value.is_finite == (n <= d <= 2 * n - 1), (n, d)
                assert kk(n, d).value.is_finite == (d >= n), (n, d)
                # fractional d reduces to its floor
                frac = Fraction(2 * d + 1, 2)
                assert kk(n, frac).value.is_finite == (d >= n), (n, d)


def test_criterion_06_worked_energy_examples():
    with criterion(6, "worked-example energies"):
        two_spheres = ProductObject((Sphere(2, Fraction(1)), Sphere(2, Fraction(1))))
        interval = energy_bounds(two_spheres)
        assert interval.lower == PI and interval.upper == PI

        circles_with_sphere = ProductObject((
            Sphere(1, Fraction(1)),
            Sphere(1, Fraction(1)),
            Closed("S2", 1, Spectrum.lattice(1)),
        ))
        interval = energy_bounds(circles_with_sphere)
        assert interval.lower == PI and interval.upper == PI


def test_criterion_07_capacity_normalization():
    with criterion(7, "capacity normalization"):
        for n in range(1, 31):
            interval = capacity_bounds(n, 2 * n - 1)
            assert interval.lower == PI and interval.upper == PI, n


def test_criterion_08_squeeze_spot_checks():
    with criterion(8, "squeeze spot checks"):
        nine = squeeze_bounds(9, 9)
        assert nine.lower == ExtRat.fin(Fraction(1, 3)) and nine.upper == PI
        flat = squeeze_bounds(2, 4)
        assert flat.lower == PI and flat.upper == PI


def test_criterion_09_root_bound_at_scale():
    with criterion(9, "root bound to 100000", limit_s=120.0):
        table = big_k_table(100_000)
        for n in range(1, 100_001):
            assert root_bound_holds(n, table[n]), n


def test_criterion_10_witness_audit():
    with criterion(10, "witness audit"):
        # covers every grid used above: the diagonal to 25, the relation
        # sweep up to (30, 60) reached by subadditivity, the windows to
        # (20, 60), and the square minimizer witnesses.
        for n in range(1, 31):
            square = big_k(n)
            assert is_valid_exact_witness(square.witness, n, n), n
            assert square.witness.cost == square.value.value, n
            for d in range(0, 61):
                exact = keq(n, d)
                if exact.value.is_finite:
                    assert is_valid_exact_witness(exact.witness, n, d), (n, d)
                    assert exact.witness.cost == exact.value.value, (n, d)
                relaxed = kk(n, d)
                if relaxed.value.is_finite:
                    assert is_valid_relaxed_witness(relaxed.witness, n, d), (n, d)
                    assert relaxed.witness.cost == relaxed.value.value, (n, d)
        # fractional inputs audit the floor reduction path
        for n in range(1, 11):
            for num in range(2 * n, 4 * n + 1):
                d = Fraction(num, 2)
                relaxed = kk(n, d)
                if relaxed.value.is_finite:
                    assert is_valid_relaxed_witness(relaxed.witness, n, d), (n, d)
