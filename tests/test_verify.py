import itertools
import time
from fractions import Fraction
from functools import partial
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from coisocap import (bounds, format_product, kfun, parse_product, run_suite, spectra,
                      verify)
from coisocap.errors import OutOfRangeError
from coisocap.verify import SUITES


def test_all_suites_pass_small():
    for suite in SUITES:
        report = run_suite(suite, 6)
        assert report.ok, [c for c in report.checks if c.fail_count]
        assert report.fail_count == 0


def test_report_is_sorted_and_complete():
    report = run_suite("all", 5)
    names = [c.name for c in report.checks]
    assert names == sorted(names)
    assert len(names) == len(set(names))
    # every module family contributes checks
    assert any(n.startswith("kfun-") for n in names)
    assert any(n.startswith("oracle-") for n in names)
    assert any(n.startswith("bounds-") for n in names)
    assert any(n.startswith("spectra-") for n in names)
    assert all(c.first_failure is None for c in report.checks)
    assert report.wall_time_ms >= 0


def test_reports_are_deterministic():
    first = run_suite("kfun-props", 6, 10)
    second = run_suite("kfun-props", 6, 10)
    assert first.checks == second.checks


def test_dmax_defaults_to_twice_nmax():
    report = run_suite("kfun-props", 4)
    by_name = {c.name: c for c in report.checks}
    assert "0<=d<=8" in by_name["kfun-keq-dominates-kk"].range_desc


def test_oracle_suite_clamps_to_cap():
    report = run_suite("oracle", 50, 4)
    assert report.ok
    by_name = {c.name: c for c in report.checks}
    assert "n<=12" in by_name["oracle-keq-agrees"].range_desc


def test_oracle_suite_enumerates_once():
    kfun._naive_table.cache_clear()
    report = run_suite("oracle", 12)
    assert kfun._naive_table.cache_info().misses == 1
    by_name = {c.name: c for c in report.checks}
    for name in ("oracle-keq-agrees", "oracle-kk-agrees"):
        assert (by_name[name].pass_count, by_name[name].fail_count) == (168, 0)


def test_each_value_is_computed_once(monkeypatch):
    # counts calls, not time: each K answer, squeeze interval and capacity
    # interval the sweep reads is fetched once
    calls = {}
    for module, name in ((kfun, "big_k"), (bounds, "squeeze_bounds"),
                         (bounds, "capacity_bounds")):
        def counted(*args, fn=getattr(module, name), log=calls.setdefault(name, [])):
            log.append(args)
            return fn(*args)

        monkeypatch.setattr(module, name, counted)
    assert run_suite("all", 6).ok
    assert calls["big_k"] == [(n,) for n in range(1, 7)]
    assert calls["squeeze_bounds"] == [(n, d) for n in range(2, 7) for d in range(n, 13)]
    # the window intervals of the build, which both capacity checks read,
    # then the rest of bounds-capacity-interval-sane
    assert calls["capacity_bounds"] == [(n, 2 * n - 1) for n in range(1, 7)] + [
        (n, d) for n in range(1, 7) for d in range(n, 2 * n - 1)]


def test_invalid_arguments():
    with pytest.raises(ValueError):
        run_suite("nope", 5)
    with pytest.raises(ValueError):
        run_suite("all", 0)
    with pytest.raises(ValueError):
        run_suite("all", 5, -1)


# ---------------------------------------------------------------------------
# The grid sweeps against the per-call sweeps they replaced
# ---------------------------------------------------------------------------

def _reference_sweep(name, desc, cells, predicate):
    """One predicate call per cell of the iterator ``cells``, counted in a
    Python loop, keeping the first failing cell."""
    npass = nfail = 0
    first = None
    for cell in cells:
        if predicate(*cell):
            npass += 1
        else:
            nfail += 1
            if first is None:
                first = cell
    return verify.CheckResult(name, desc, npass, nfail, first)


def _subadditive(kk):
    """The subadditivity rule on the grid ``kk``, one cell at a time."""
    def holds(n, n2, d, d2):
        a, b = kk[n][d], kk[n2][d2]
        if a is None or b is None:
            return True
        total = kk[n + n2][d + d2]
        return total is not None and total <= a + b

    return holds


def _monotone(kk):
    """kk(n, d') <= kk(n, d) on the grid ``kk``, one cell at a time."""
    def holds(n, d, d2):
        return kk[n][d] is None or (kk[n][d2] is not None and kk[n][d2] <= kk[n][d])

    return holds


def _per_call_checks(nmax, dmax):
    """The checks that read value grids, written with one public
    ``kfun.kk``/``kfun.keq``/``bounds.squeeze_bounds`` call per cell."""
    table = kfun.big_k_table(max(nmax, dmax, 1))
    ns = range(1, nmax + 1)

    def window_cells():
        for n in range(9, nmax + 1):
            for d in range(n, 2 * n + 1):
                if (d - n + 9) ** 2 >= 36 * n:
                    yield (n, d)

    def window_ok(n, d):
        cost = kfun.kk(n, d).value
        if not cost.is_finite or not kfun.lt_sqrt_plus(cost.value, 2 * n - d, 3):
            return False
        wit = kfun.sqrt_bound_witness(n, d)
        return kfun.is_valid_relaxed_witness(wit, n, d) and kfun.lt_sqrt_plus(
            wit.cost, 2 * n - d, 3
        )

    specs = [
        ("kfun-collapse-at-diagonal", f"1<=n<={nmax}", ((n,) for n in ns),
         lambda n: kfun.keq(n, n).value.value == kfun.kk(n, n).value.value == table[n]),
        ("kfun-keq-dominates-kk", f"1<=n<={nmax}, 0<=d<={dmax}",
         itertools.product(ns, range(dmax + 1)),
         lambda n, d: kfun.keq(n, d).value >= kfun.kk(n, d).value),
        ("kfun-kk-monotone-in-d", f"1<=n<={nmax}, 0<=d<=d'<={dmax}",
         ((n, d, d2) for n in ns for d in range(dmax + 1) for d2 in range(d, dmax + 1)),
         lambda n, d, d2: kfun.kk(n, d).value >= kfun.kk(n, d2).value),
        ("kfun-keq-linear-bound", f"1<=n<={nmax}, n<=d<=2n-1",
         ((n, d) for n in ns for d in range(n, 2 * n)),
         lambda n, d: kfun.keq(n, d).value <= kfun.ExtNat(2 * n - d)),
        ("kfun-kk-window-root-bound", f"9<=n<={nmax}, window d<=2n", window_cells(), window_ok),
        ("kfun-kk-subadditive", f"1<=n,n'<={nmax}, 0<=d,d'<={dmax}",
         itertools.product(ns, ns, range(dmax + 1), range(dmax + 1)),
         lambda n, n2, d, d2: kfun.kk(n + n2, d + d2).value
         <= kfun.kk(n, d).value + kfun.kk(n2, d2).value),
        ("kfun-keq-divisor-bound", f"1<=n<={nmax}, k|n, k^2<=n",
         ((n, k) for n in ns for k in range(1, n + 1) if n % k == 0 and k * k <= n),
         lambda n, k: kfun.keq(n, 2 * n - k * k).value <= kfun.ExtNat(k)),
        ("kfun-keq-feasibility-window", f"1<=n<={nmax}, 0<=d<={dmax}",
         itertools.product(ns, range(dmax + 1)),
         lambda n, d: kfun.keq(n, d).value.is_finite == (n <= d <= 2 * n - 1)),
        ("kfun-kk-feasibility-window", f"1<=n<={nmax}, 0<=d<={dmax}",
         itertools.product(ns, range(dmax + 1)),
         lambda n, d: kfun.kk(n, d).value.is_finite == (d >= n)),
        ("bounds-squeeze-monotone-lower", f"2<=n<={nmax}, n<=d<=d'<={dmax}",
         ((n, d, d2) for n in range(2, nmax + 1) for d in range(n, dmax + 1)
          for d2 in range(d, dmax + 1)),
         lambda n, d, d2: bounds.squeeze_bounds(n, d).lower
         <= bounds.squeeze_bounds(n, d2).lower),
    ]
    return {name: _reference_sweep(name, desc, cells, pred) for name, desc, cells, pred in specs}


_FAMILIES = {"kfun-props": ("kfun-",), "oracle": (), "bounds-props": ("bounds-",),
             "all": ("kfun-", "bounds-")}


def _cells(report):
    return sum(c.pass_count + c.fail_count for c in report.checks)


@pytest.mark.parametrize("nmax", [*range(1, 10), 12])
def test_grid_sweeps_match_per_call_sweeps(nmax):
    for dmax in sorted({0, nmax, 2 * nmax, 3 * nmax}):
        reference = _per_call_checks(nmax, dmax)
        for suite in SUITES:
            report = run_suite(suite, nmax, dmax)
            got = {c.name: c for c in report.checks if c.name in reference}
            want = {name: c for name, c in reference.items()
                    if name.startswith(_FAMILIES[suite])}
            assert got == want, (suite, nmax, dmax)


def _table(nmax, dmax):
    """The cost table the ``kfun-props`` build makes at (nmax, dmax)."""
    return verify.square_mass_costs(max(nmax, verify._kk_reach(nmax, dmax)))


def _kk_grid(nmax, dmax):
    return verify._kk_grid(_table(nmax, dmax), nmax, dmax)


def _keq_grid(nmax, dmax):
    return verify._keq_grid(_table(nmax, dmax), nmax, dmax)


def test_a_wrong_kk_grid_entry_is_reported(monkeypatch):
    build = verify._kk_grid

    def wrong(costs, nmax, dmax):
        grid = build(costs, nmax, dmax)
        assert grid[2][2:4] == [2, 1]  # kk(2,2) = kk(1,1) + kk(1,1), kk(2,3) = 1
        grid[2][3] = 5
        return grid

    monkeypatch.setattr(verify, "_kk_grid", wrong)
    by_name = {c.name: c for c in run_suite("kfun-props", 4).checks}
    # kk(2,2) = 2 >= kk(2,3) fails first at d = 2, d' = 3
    assert by_name["kfun-kk-monotone-in-d"].first_failure == (2, 2, 3)
    # kk(1+1, 1+2) <= kk(1,1) + kk(1,2) = 2 fails first at n = n' = d = 1, d' = 2
    assert by_name["kfun-kk-subadditive"].first_failure == (1, 1, 1, 2)

    # the subadditivity lanes, one per (n, n', d), against the per-cell rule
    # on the same wrong grid, for nmax 4 and dmax 8
    for (n, d), value, first in (
        # kk(1,2) = 0: a lane whose kk(n,d) is finite fails at d' = 2,
        # kk(1+1, 2+2) = 1 > 0 + 0
        ((1, 2), 0, (1, 1, 2, 2)),
        # kk(8,8) = 9: the lanes (4, 4, 0..3) pass whole, as kk(4, 0..3) is
        # infinite, then kk(4,4) + kk(4,4) = 4 < 9
        ((8, 8), 9, (4, 4, 4, 4)),
        # kk(5,9) infinite: kk(1,1) + kk(4,8) = 2 is finite
        ((5, 9), None, (1, 4, 1, 8)),
    ):
        grid = build(_table(4, 8), 4, 8)
        grid[n][d] = value
        monkeypatch.setattr(verify, "_kk_grid", lambda costs, nmax, dmax, grid=grid: grid)
        got = {c.name: c for c in run_suite("kfun-props", 4).checks}["kfun-kk-subadditive"]
        want = _reference_sweep(got.name, got.range_desc,
                                itertools.product(range(1, 5), range(1, 5), range(9), range(9)),
                                _subadditive(grid))
        assert got == want and got.first_failure == first, (n, d, value)


def _grid(fn, cells):
    """``fn(n, d).value`` at [n][d], as an int or None for infinity, for the
    (n, d) of ``cells``: d = 0, 1, ... of each row n = 1, 2, ... in turn.
    The reference of the value grids: one public kernel call per cell."""
    grid = [[]]
    for n, d in cells:
        if d == 0:
            grid.append([])
        grid[n].append(fn(n, d).value.value)
    return grid


def test_grids_match_the_per_call_kernel():
    # every keq cell of the capacity window for n <= 200, with the cells
    # d < n before it, and every kk cell for n <= 60, d <= 120
    assert _keq_grid(200, 0) == _grid(kfun.keq, verify._keq_cells(200, 0))
    assert _kk_grid(30, 60) == _grid(kfun.kk, verify._kk_cells(30, 60)())


def _witnesses_ok_per_cell(n, d):
    """kfun-witness-validity as one predicate per cell, auditing the K
    witness of n again at every d."""
    for found, valid, args in (
        (kfun.keq(n, d), kfun.is_valid_exact_witness, (n, d)),
        (kfun.kk(n, d), kfun.is_valid_relaxed_witness, (n, d)),
        (kfun.big_k(n), kfun.is_valid_exact_witness, (n, n)),
    ):
        if found.value.is_finite and not (
            valid(found.witness, *args) and found.witness.cost == found.value.value
        ):
            return False
    return True


@pytest.mark.parametrize("bad_n", [1, 4, 7])
def test_witness_audits_match_the_per_cell_audits(monkeypatch, bad_n):
    # an audit that refuses the K witness of one n fails that n's row, and
    # the build's one K audit per n reports what the per-cell audits do
    bad = kfun.big_k(bad_n).witness.key()
    valid = kfun.is_valid_exact_witness
    monkeypatch.setattr(kfun, "is_valid_exact_witness",
                        lambda dec, n, d: dec.key() != bad and valid(dec, n, d))
    nmax, dmax = 8, 13
    got = {c.name: c for c in run_suite("kfun-props", nmax, dmax).checks}["kfun-witness-validity"]
    want = _reference_sweep(got.name, got.range_desc,
                            itertools.product(range(1, nmax + 1), range(dmax + 1)),
                            _witnesses_ok_per_cell)
    assert got == want
    assert (got.fail_count, got.first_failure) == (dmax + 1, (bad_n, 0))


def test_witness_validity_compares_the_kernel_with_the_grids(monkeypatch):
    # an answer whose witness is valid but whose cost is not the least, or an
    # infinite answer where the grid is finite, fails the check
    keq, kk, infinite = kfun.keq, kfun.kk, kfun.keq(1, 0)

    def kk_not_least(n, d):
        # keq's answer where it is finite and costs more: a valid kk witness
        relaxed, exact = kk(n, d), keq(n, d)
        return exact if exact.value.is_finite and exact.value > relaxed.value else relaxed

    def keq_off_diagonal_infinite(n, d):
        return keq(n, d) if d == n else infinite

    for name, wrong, want in (("kk", kk_not_least, (89, (4, 5))),
                              ("keq", keq_off_diagonal_infinite, (190, (2, 3)))):
        with monkeypatch.context() as patch:
            patch.setattr(kfun, name, wrong)
            report = run_suite("kfun-props", 20)
        failed = {c.name: (c.fail_count, c.first_failure) for c in report.checks if c.fail_count}
        assert failed == {"kfun-witness-validity": want}, name


@pytest.mark.parametrize("nmax, dmax", [(1, 1149), (4, 331)])
def test_the_widest_admitted_lanes_pass_whole(nmax, dmax):
    # each (n, n') is one subadditivity lane of (dmax + 1)^2 fields, and the
    # budget admits no wider one at this nmax
    report = run_suite("kfun-props", nmax, dmax)
    assert report.ok
    subadditive = {c.name: c for c in report.checks}["kfun-kk-subadditive"]
    assert subadditive.pass_count == nmax**2 * (dmax + 1) ** 2 == {1: 1_322_500,
                                                                   4: 1_763_584}[nmax]
    with pytest.raises(OutOfRangeError, match="the verify cell budget"):
        run_suite("kfun-props", nmax, dmax + 1)


def test_square_mass_costs_are_keq_per_cell():
    # C[q][r] = keq(q + r, q + 2r), one public call per cell, at every top
    want = {(q, r): kfun.keq(q + r, q + 2 * r).value.value
            for q in range(1, 151) for r in range(151 - q)}
    for top in range(151):
        assert verify.square_mass_costs(top) == [
            [], *([want[q, r] for r in range(top - q + 1)] for q in range(1, top + 1))]


def test_the_grids_call_nothing_in_the_kernel(monkeypatch):
    # the grids check the kernel, so a fault in its search helpers or its K
    # table must not change them: with those raising, they read as before
    def refused(*args):
        raise AssertionError("verify's value grids call the kernel")

    def grids():
        costs = _table(15, 30)
        return costs, verify._kk_grid(costs, 15, 30), verify._keq_grid(costs, 15, 30)

    want = grids()
    for name in ("_square_parts", "_monoid", "_meets", "_ceil_sqrt", "_least_total",
                 "_witness_key", "_square_mass_search", "big_k_table"):
        monkeypatch.setattr(kfun, name, refused)
    assert grids() == want
    # nor does verify hold a kernel name of its own that the patches miss
    assert [name for name, value in vars(verify).items()
            if getattr(value, "__module__", None) == kfun.__name__] == []


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 12), st.integers(0, 40))
@example(1, 0)
@example(12, 0)
@example(1, 40)
@example(3, 40)
@example(12, 40)
def test_grids_match_the_per_call_grids(nmax, dmax):
    assert _kk_grid(nmax, dmax) == _grid(kfun.kk, verify._kk_cells(nmax, dmax)())
    assert _keq_grid(nmax, dmax) == _grid(kfun.keq, verify._keq_cells(nmax, dmax))


# grid entries a wrong kernel could write: infinity, zero, small values of
# either sign and values beyond 64 bits of either sign
_WRONG_VALUES = (st.none() | st.integers(-9, 9) | st.integers(2**70, 2**70 + 9)
                 | st.integers(-2**70 - 9, -2**70))


def _lane_flags(rows, name):
    """The flags of the check ``name`` among ``rows``, for its own cells."""
    (cells, flags), = ((cells, flags) for row_name, _, cells, flags in rows if row_name == name)
    return list(flags(cells)), cells


def _wrong_kk_grid(data, nmax, dmax):
    grid = _kk_grid(nmax, dmax)
    wrong = data.draw(st.lists(st.tuples(
        st.integers(1, 2 * nmax), st.integers(0, 2 * dmax), _WRONG_VALUES), max_size=6))
    for n, d, value in wrong:
        grid[n][d] = value
    return grid


def _kfun_lane_flags(grid, nmax, dmax, name):
    _, build, rows = verify._kfun_checks(nmax, dmax)
    with mock.patch.object(verify, "_kk_grid", lambda costs, nmax, dmax: grid):
        build()
    return _lane_flags(rows, name)


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_subadditivity_lanes_match_the_per_cell_rule(data):
    nmax = data.draw(st.integers(1, 5))
    dmax = data.draw(st.integers(0, 2 * nmax + 1))
    grid = _wrong_kk_grid(data, nmax, dmax)
    got, cells = _kfun_lane_flags(grid, nmax, dmax, "kfun-kk-subadditive")
    assert got == [int(_subadditive(grid)(*cell)) for cell in cells()]


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_monotone_lanes_match_the_per_cell_rule(data):
    nmax = data.draw(st.integers(1, 5))
    dmax = data.draw(st.integers(0, 2 * nmax + 1))
    grid = _wrong_kk_grid(data, nmax, dmax)
    got, cells = _kfun_lane_flags(grid, nmax, dmax, "kfun-kk-monotone-in-d")
    assert got == [int(_monotone(grid)(*cell)) for cell in cells()]


# spans hi - lo of the kk values around the largest that fields of 1, 2 and
# 10 bytes hold: 4 span + 3 is the largest field of the subadditivity lanes,
# span + 1 that of the monotonicity lanes
_BOUNDARY_SPANS = sorted({span + e for span in (31, 126, 8191, 32766, 2**77 - 1, 2**79 - 2)
                          for e in (-1, 0, 1)})


@pytest.mark.parametrize("span", _BOUNDARY_SPANS)
def test_lanes_hold_at_field_size_boundaries(span):
    # kk values lie in [1, 1 + span] once kk(1, 4) reads 1 + span; the
    # subadditivity cell (2, 2, 1, 1) then compares kk(4, 2) = 1, the least
    # value, with the sum of two infinite kk(2, 1), the largest field, and
    # (1, 2, 4, 1) kk(3, 5) = 1 with kk(1, 4) and an infinite kk(2, 1)
    grid = _kk_grid(2, 4)
    assert grid[2][1] is None and grid[3][5] == 1 == min(v for v in grid[3] if v is not None)
    grid[1][4], grid[4][2] = 1 + span, 1
    for name, rule in (("kfun-kk-subadditive", _subadditive),
                       ("kfun-kk-monotone-in-d", _monotone)):
        got, cells = _kfun_lane_flags(grid, 2, 4, name)
        assert got == [int(rule(grid)(*cell)) for cell in cells()], name


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_squeeze_lanes_match_the_per_cell_rule(data):
    nmax = data.draw(st.integers(2, 6))
    dmax = data.draw(st.integers(0, 2 * nmax + 1))
    keys = [(n, d) for n in range(2, min(nmax, dmax) + 1) for d in range(n, dmax + 1)]
    lowers = [bounds.squeeze_bounds(n, d).lower for n, d in keys]
    if keys:
        # equal, swapped, infinite and arbitrary lower endpoints
        index = st.integers(0, len(keys) - 1)
        for kind, i, j, value in data.draw(st.lists(st.tuples(
                st.sampled_from(("equal", "swap", "inf", "value")), index, index,
                st.fractions(0, 3, max_denominator=4)), max_size=6)):
            if kind == "equal":
                lowers[i] = lowers[j]
            elif kind == "swap":
                lowers[i], lowers[j] = lowers[j], lowers[i]
            else:
                lowers[i] = spectra.RAT_INF if kind == "inf" else spectra.ExtRat.fin(value)
    _assert_squeeze_lanes_hold(dict(zip(keys, lowers)), nmax, dmax)


@pytest.mark.parametrize("count", range(126, 132))
def test_squeeze_lanes_hold_at_a_field_size_boundary(count):
    # one row of count rising lower endpoints and a last one equal to the
    # first: the ranks 0..count-1 fill 1-byte fields up to count 128
    dmax = count + 2
    lowers = {(2, d): spectra.ExtRat.fin(d - 2) for d in range(2, dmax)}
    lowers[2, dmax] = lowers[2, 2]
    _assert_squeeze_lanes_hold(lowers, 2, dmax)


def _assert_squeeze_lanes_hold(lowers, nmax, dmax):
    """The squeeze monotonicity flags, on intervals with the lower endpoints
    ``lowers``, match the per-cell rule."""
    squeeze = {key: SimpleNamespace(lower=lower) for key, lower in lowers.items()}
    _, build, rows = verify._bounds_checks(nmax, dmax)
    with mock.patch.object(bounds, "squeeze_bounds", lambda n, d: squeeze[n, d]):
        build()
    got, cells = _lane_flags(rows, "bounds-squeeze-monotone-lower")
    assert got == [int(squeeze[n, d].lower <= squeeze[n, d2].lower) for n, d, d2 in cells()]


def _failing_every(k, predicate):
    """``predicate``, made to fail at every k-th call as well (k None: never)."""
    if k is None:
        return predicate
    calls = itertools.count(1)
    return lambda *cell: next(calls) % k != 0 and predicate(*cell)


@pytest.mark.parametrize("nmax, dmax", [(1, 0), (4, 8), (7, 3), (9, 27)])
def test_sweep_matches_the_per_cell_loop(nmax, dmax):
    declares = {declare for suite in SUITES for declare in verify.SUITE_CHECKS[suite]}
    lanes = []
    for declare in declares:
        _, build, rows = declare(nmax, dmax)
        build()
        for name, desc, cells, flags in rows:
            if not (isinstance(flags, partial) and flags.func is verify._cell_flags):
                lanes.append(name)
                continue
            predicate, = flags.args
            for k in (None, 1, 2, 7):
                got = verify._sweep(name, desc, cells, verify._each(_failing_every(k, predicate)))
                want = _reference_sweep(name, desc, cells(), _failing_every(k, predicate))
                assert got == want, (name, k)
    # the lanes each checked against their per-cell rule by a property above,
    # the fixed-grid checks against their per-cell predicates below
    assert sorted(lanes) == sorted(["bounds-squeeze-monotone-lower", "kfun-kk-monotone-in-d",
                                    "kfun-kk-subadditive", *_FIXED_GRID_PREDICATES])


# ---------------------------------------------------------------------------
# The fixed spectrum and scaling grids against their per-cell predicates
# ---------------------------------------------------------------------------

def _algebra(s1, s2, s3):
    if spectra.spectrum_sum(s1, s2) != spectra.spectrum_sum(s2, s1):
        return False
    left = spectra.spectrum_sum(spectra.spectrum_sum(s1, s2), s3)
    right = spectra.spectrum_sum(s1, spectra.spectrum_sum(s2, s3))
    if left != right:
        return False
    if spectra.spectrum_sum(s1, s1) != s1:
        return False
    return spectra.spectrum_sum(spectra.Spectrum.zero(), s1) == s1


def _conformal(obj, c):
    base = bounds.energy_bounds(obj)
    scaled = bounds.energy_bounds(obj.scaled(c))
    return scaled.lower == base.lower.scaled(c) and scaled.upper == base.upper.scaled(c)


def _rescale(obj, c):
    split = spectra.split_min_action(obj)
    prod = spectra.minimal_action(spectra.product_spectrum(obj))
    scaled = obj.scaled(c)
    return (spectra.split_min_action(scaled) == split.scaled(c)
            and spectra.minimal_action(spectra.product_spectrum(scaled)) == prod.scaled(c))


# The fixed-grid checks and the predicates they replaced, which make every
# call of a cell in that cell: the oracle of their flags.
_FIXED_GRID_PREDICATES = {
    "spectra-sum-algebra": _algebra,
    "bounds-energy-conformality": _conformal,
    "spectra-rescaling": _rescale,
    "spectra-sphere-m-independent": lambda m, m2, a: (
        spectra.spectrum_of_atom(spectra.Sphere(m, a))
        == spectra.spectrum_of_atom(spectra.Sphere(m2, a))),
    "spectra-product-min-vs-split": lambda obj: (
        spectra.minimal_action(spectra.product_spectrum(obj)) <= spectra.split_min_action(obj)),
}


def _fixed_grid_rows():
    """The fixed-grid check rows of a built ``bounds-props`` declaration."""
    _, build, rows = verify._bounds_checks(3, 6)
    build()
    return {row[0]: row for row in rows if row[0] in _FIXED_GRID_PREDICATES}


def _wrong_at(real, bad, wrong):
    """``real``, but ``wrong`` at the one input ``bad``."""
    return lambda *args: wrong if args == bad else real(*args)


_HALF, _THIRD = spectra.Spectrum.lattice(Fraction(1, 2)), spectra.Spectrum.lattice(Fraction(1, 3))
_REAL_SUM = spectra.spectrum_sum


# broken stand-ins: (module, name, the stand-in); None keeps the real layers
_STAND_INS = {
    "real": None,
    "sum-not-commutative": (spectra, "spectrum_sum",
                            lambda s1, s2: s2 if s1.is_zero else s1),
    "sum-not-associative": (spectra, "spectrum_sum", lambda s1, s2: (
        _REAL_SUM(s1, s2) if s1.is_zero or s2.is_zero
        else spectra.Spectrum.lattice((s1.gen + s2.gen) / 2))),
    "sum-wrong-once": (spectra, "spectrum_sum",
                       _wrong_at(_REAL_SUM, (_HALF, _THIRD), spectra.Spectrum.lattice(1))),
    "energy-wrong-scaled": (bounds, "energy_bounds", _wrong_at(
        bounds.energy_bounds, (parse_product("S(1;pi) x S(1;2pi/3)"),),
        bounds.energy_bounds(parse_product("S(2;pi)")))),
    "energy-wrong-unscaled": (bounds, "energy_bounds", _wrong_at(
        bounds.energy_bounds, (parse_product("S(2;pi)"),),
        bounds.energy_bounds(parse_product("S(2;2pi)")))),
    "split-wrong-once": (spectra, "split_min_action", _wrong_at(
        spectra.split_min_action, (parse_product("S(2;2pi) x S(3;pi)"),),
        spectra.ExtRat.fin(5))),
    "atom-wrong-once": (spectra, "spectrum_of_atom", _wrong_at(
        spectra.spectrum_of_atom, (spectra.Sphere(3, Fraction(1, 2)),),
        spectra.Spectrum.lattice(Fraction(1, 4)))),
}


@pytest.mark.parametrize("stand_in", _STAND_INS)
def test_fixed_grid_checks_match_their_per_cell_predicates(monkeypatch, stand_in):
    if _STAND_INS[stand_in]:
        monkeypatch.setattr(*_STAND_INS[stand_in])
    got = {name: verify._sweep(*row) for name, row in _fixed_grid_rows().items()}
    want = {name: _reference_sweep(name, desc, cells(), _FIXED_GRID_PREDICATES[name])
            for name, (_, desc, cells, _) in _fixed_grid_rows().items()}
    assert got == want
    # a stand-in breaks some check, the real layers none
    assert any(result.fail_count for result in got.values()) == (stand_in != "real")


def test_fixed_grids_make_each_distinct_call_once(monkeypatch):
    # counts calls, not time: the build makes each sample object's unscaled
    # values once; then the algebra check sums each ordered pair of its 8
    # lattices once, besides the two outer sums of associativity in each of
    # its 8^3 cells, the sphere check makes one spectrum per (m, a), and the
    # scaling checks one call per (object, scale)
    calls = {}
    for module, name in ((spectra, "spectrum_sum"), (spectra, "spectrum_of_atom"),
                         (spectra, "split_min_action"), (bounds, "energy_bounds")):
        def counted(*args, fn=getattr(module, name), log=calls.setdefault(name, [])):
            log.append(args)
            return fn(*args)

        monkeypatch.setattr(module, name, counted)
    _, build, rows = verify._bounds_checks(3, 6)
    build()
    assert (len(calls["energy_bounds"]), len(calls["split_min_action"])) == (10, 10)
    rows = {row[0]: row for row in rows}
    for check, name, want in (("spectra-sum-algebra", "spectrum_sum", 8 * 8 + 2 * 8**3),
                              ("spectra-sphere-m-independent", "spectrum_of_atom", 4 * 7),
                              ("spectra-rescaling", "split_min_action", 10 * 7),
                              ("bounds-energy-conformality", "energy_bounds", 10 * 7)):
        calls[name].clear()
        assert verify._sweep(*rows[check]).fail_count == 0
        assert len(calls[name]) == want, check


def test_cell_budget_is_checked_before_any_work(monkeypatch):
    assert _cells(run_suite("all", 25)) == 1_684_806 <= verify.VERIFY_MAX_CELLS
    # a suite of exactly the budget runs, one unit more is refused; the budget
    # counts the squeeze grid entries, 2<=n<=4 and n<=d<=8, besides the cells
    units = _cells(run_suite("bounds-props", 4)) + 7 + 6 + 5
    monkeypatch.setattr(verify, "VERIFY_MAX_CELLS", units)
    assert run_suite("bounds-props", 4).ok
    monkeypatch.setattr(verify, "VERIFY_MAX_CELLS", units - 1)
    with pytest.raises(OutOfRangeError, match=f"more than {units - 1} cells"):
        run_suite("bounds-props", 4)
    monkeypatch.undo()
    for suite, nmax, dmax in (("all", 200, 400), ("kfun-props", 2, 100_000),
                              ("bounds-props", 10**18, 0), ("bounds-props", 3, 10**18),
                              ("kfun-props", 10**6, 0), ("kfun-props", 1999, 0),
                              ("bounds-props", 2000, 2000)):
        t0 = time.perf_counter()
        with pytest.raises(OutOfRangeError, match="the verify cell budget"):
            run_suite(suite, nmax, dmax)
        assert time.perf_counter() - t0 < 1.0
    # the oracle suite clamps its grid, so any nmax fits
    assert run_suite("oracle", 10**18, 3).ok


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(1, 30), st.integers(0, 60))
@example(30, 60)
@example(1, 0)
def test_products_count_their_cells_in_closed_form(nmax, dmax):
    declares = {declare for suite in SUITES for declare in verify.SUITE_CHECKS[suite]}
    products = []
    for declare in declares:
        grids, _, rows = declare(nmax, dmax)
        products += [cells for cells in [*grids, *(row[2] for row in rows)]
                     if isinstance(cells, verify.Product)]
    assert any(len(cells.factors) == 4 for cells in products)  # kfun-kk-subadditive
    for cells in products:
        assert cells.size() == sum(1 for _ in cells())


def test_products_count_ranges_beyond_len():
    assert verify.Product(range(10**30), range(7, 2, -2), (0, 1)).size() == 10**30 * 3 * 2
    assert verify.Product(range(5, 5), range(10**30)).size() == 0
    t0 = time.perf_counter()
    for suite in ("all", "kfun-props", "bounds-props"):
        with pytest.raises(OutOfRangeError, match="the verify cell budget"):
            run_suite(suite, 10**30)
    assert time.perf_counter() - t0 < 1.0


def test_fixed_products_are_canonical():
    for text in verify._SAMPLE_PRODUCTS + verify._ENERGY_EXAMPLES:
        assert format_product(parse_product(text)) == text


@pytest.mark.parametrize("args, message", [
    (("all", True), "nmax must be an integer >= 1"),
    (("all", 2, False), "dmax must be an integer >= 0"),
    (("all", 2, True), "dmax must be an integer >= 0"),
])
def test_bool_sizes_are_refused(args, message):
    with pytest.raises(ValueError) as info:
        run_suite(*args)
    assert type(info.value) is ValueError and str(info.value) == message
