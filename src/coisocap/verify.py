"""Bulk verification sweeps over the library invariants: the suites, their
value grids and checks, the sweep and its report.

``run_suite`` runs one suite of ``SUITES`` and returns a ``VerifyReport``
of one ``CheckResult`` per check, sorted by name: the check's passes,
failures and first failing input.  The suites:

* ``kfun-props``: the minimizer relations (monotonicity, domination,
  collapse, the two root bounds, linear and divisor bounds,
  subadditivity), feasibility windows, witness audits, and the
  exhaustive square-decomposition cross-check.
* ``oracle``: square-mass kernel results against the naive enumeration
  oracles (clamped to the oracle cap and to d <= 2n, the range on which
  the equivalence is stated).
* ``bounds-props``: interval sanity, normalization, conformality and
  collapse rules of the bound engine, plus the spectrum algebra laws.
* ``all``: everything above.

``SUITE_CHECKS`` maps each suite to its declarations.  A declaration, a
function of (nmax, dmax), returns the suite's value grids, each a
function returning a fresh iterator over the grid's index cells; the one
step that builds them; and its checks, rows of (name, range text, cells,
flags): cells returns a fresh iterator over the check's inputs, and
flags, given cells, one pass byte per cell in that order.  The sweep
counts the flags in C; only a failing check steps through cells() again,
to its first failing input.  The checks look up the names of ``oracles``
on ``kfun``, as every caller does, and the layers as modules: under
``cli``, which runs ``expr``, ``spectra`` and ``bounds`` on first use,
``kfun-props`` and ``oracle`` run neither ``expr`` nor ``spectra``.  A
declaration runs no other layer: the oracle cap is read from ``errors``,
the sample products and lattices, whose counts the budget reads, are
``Deferred`` factors made on first use, and the constants the predicates
compare with are made by the build.  So a refused suite runs only
``verify``.

Checks whose cells share no call get their flags from one predicate call
per cell, mapped in C.  The fixed spectrum and scaling grids, which do not
grow with nmax, make each shared call once.  ``spectra-sum-algebra`` sums
each ordered pair of its lattices once, reading those sums for
commutativity once per pair and for idempotence and identity once per
lattice; associativity still makes its two outer sums in every cell.
The ``bounds-props`` build makes each sample object's scalings, energy
interval, split minimal action and product minimal action once, which
``bounds-energy-conformality``, ``spectra-rescaling`` and
``spectra-product-min-vs-split`` read, with one scaled call per (object,
scale) cell; ``spectra-sphere-m-independent`` makes one spectrum per
Sphere(m, a).  ``spectra-normal-form`` still calls ``from_generators``
once per ordering, as that is its law.

The three checks that hold nearly all the cells of a large ``all`` run,
``kfun-kk-subadditive``, ``kfun-kk-monotone-in-d`` and
``bounds-squeeze-monotone-lower``, get theirs a lane at a time from
``Lanes``: a lane is a run of cells in the order of ``cells()``, the
(dmax + 1)^2 of one (n, n') for subadditivity, which the budget bounds,
and those over d' of one (n, d) for the two monotonicity checks; its
values are packed into the fixed-width fields of one Python int, and one
subtraction compares all of them.  Each check first maps its values to
non-negative ints: kk values shifted by the grid's least or largest finite
value, infinity to the end its comparison needs, and the squeeze lower
endpoints to their rank among the distinct endpoints, sorted once in exact
``ExtRat`` order.  Both monotonicity checks read their rows with
``_rising_flags``; the subadditivity lanes of an n whose kk(n, d) are all
infinite pass whole.

The large sweeps read the grids, built once each: ``kk`` over n <= 2*nmax
and d <= 2*dmax and ``keq`` over n <= nmax and d <= max(dmax, 2n - 1),
both values only, from one table of ``square_mass_costs`` that the build
makes and passes to both (keq(n, d) = C(2n - d, d - n) on the capacity
window, and kk a running minimum of keq over n <= n' <= d' <= d), so no
table outlives a run; and the squeeze intervals over
2 <= n <= nmax, n <= d <= dmax, one ``bounds.squeeze_bounds`` call per
cell.  The cost table is a dynamic program on the kernel's reduction that
calls nothing in ``kfun``: row q is the least, over parts k <= sqrt(q), of
row q - k*k taken as a running minimum along steps of k, plus k.  So a
fault in the kernel's search or its K table changes no grid.  The grid
checks test the grids; ``kfun-witness-validity`` compares the kernel with
them, requiring in each cell that ``keq(n, d)`` and ``kk(n, d)`` answer
the grid's value, so a kernel answer that is not least fails there.
``kfun-props`` builds the K table over 0..max(nmax, dmax),
which its four-square check tests, and the K answers ``kfun.big_k(n)`` for
n <= nmax with their witness audits, once each.  The kfun predicates
compare exact integers, with None for infinity; the squeeze monotonicity
and collapse checks both read the squeeze intervals.  The diagonal,
root-bound window and witness audit checks, which have few cells or need
witnesses, call ``kk``/``keq`` per cell, where a repeated query is a cache
lookup and equal answers are one object; the witness audit compares
``keq(n, d)`` and ``kk(n, d)`` with the grids and audits their witnesses
in each cell, and reads the audit of K(n) from the build.  The
``bounds-props`` build makes the window interval
``bounds.capacity_bounds(n, 2n - 1)`` once per n, which both capacity
checks read, and ``bounds-capacity-interval-sane`` calls
``bounds.capacity_bounds`` in its other cells; the constants its
predicates compare with are made once per run.  Every check still visits
and counts each of its cells.

The budget, ``VERIFY_MAX_CELLS`` read at each call, is counted before any
grid is built, over the grids' index cells and the checks' cells; a suite
that counts more is refused with ``OutOfRangeError``.  A grid or check
whose cells are a ``Product`` of ranges or tuples, such as
``kfun-kk-subadditive``, nearly all the cells of a large run, is counted
in closed form.  The others are walked, up to what the products leave of
the budget and one more.  No generator runs long between two cells, so
the walk is bounded for any nmax and dmax.  The budget counts calls, not
their cost, so the costliest admitted runs take minutes; README
"Verification sweeps" gives them with measured times.  No suite builds
the K table past 1,149 (nmax 1, dmax 1,149).
"""
from __future__ import annotations

import itertools
import math
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import partial

from . import bounds, expr, kfun, spectra
from .errors import ORACLE_CAP, Frozen, OutOfRangeError

# Most grid entries and cells one suite sweeps, checked before any grid is
# built: ``verify all --nmax 26`` counts 1,972,789 and ``--nmax 27`` 2,287,121.
VERIFY_MAX_CELLS = 2 * 10**6


class CheckResult(Frozen):
    __slots__ = ("name", "range_desc", "pass_count", "fail_count", "first_failure")

    def __init__(self, name: str, range_desc: str, pass_count: int, fail_count: int,
                 first_failure: tuple | None = None) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "range_desc", range_desc)
        object.__setattr__(self, "pass_count", pass_count)
        object.__setattr__(self, "fail_count", fail_count)
        object.__setattr__(self, "first_failure", first_failure)


class VerifyReport(Frozen):
    __slots__ = ("checks", "wall_time_ms")

    def __init__(self, checks: tuple[CheckResult, ...], wall_time_ms: int) -> None:
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "wall_time_ms", wall_time_ms)

    @property
    def fail_count(self) -> int:
        return sum(c.fail_count for c in self.checks)

    @property
    def ok(self) -> bool:
        return self.fail_count == 0


# ---------------------------------------------------------------------------
# Cells, check rows and one check's sweep
# ---------------------------------------------------------------------------

Cells = Callable[[], Iterable[tuple]]
# A check row: name, range text, a function returning a fresh iterator over
# the cells, and a function of that one returning the cells' pass flags,
# one byte each, in the order of the cells.
Check = tuple[str, str, Cells, Callable[[Cells], bytearray]]


def _length(factor: Sequence) -> int:
    """len(factor), also for a range longer than ``len`` admits."""
    if isinstance(factor, range):
        return max(0, -((factor.start - factor.stop) // factor.step))
    return len(factor)


class Product:
    """The cells of a grid or check that is the product of ``factors``,
    ranges or tuples, in ``itertools.product`` order: a cells function
    whose ``size`` the budget reads without stepping through the cells."""

    __slots__ = ("factors",)

    def __init__(self, *factors: Sequence) -> None:
        self.factors = factors

    def __call__(self) -> Iterator[tuple]:
        return itertools.product(*self.factors)

    def size(self) -> int:
        return math.prod(map(_length, self.factors))


class Deferred:
    """A factor of a ``Product`` of ``length`` values that ``make`` returns
    on first iteration: the budget reads its length, and only a build or a
    check runs the layers that make its values."""

    __slots__ = ("length", "make", "values")

    def __init__(self, length: int, make: Callable[[], Iterable]) -> None:
        self.length, self.make, self.values = length, make, None

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator:
        if self.values is None:
            self.values = tuple(self.make())
        return iter(self.values)


def _sweep(name: str, range_desc: str, cells: Cells,
           flags: Callable[[Cells], bytearray]) -> CheckResult:
    """Counts the flags of ``cells``; a failing check reads its first failing
    cell from a fresh ``cells()``."""
    passed = flags(cells)
    npass = passed.count(1)
    first = None
    if npass < len(passed):
        first = next(itertools.islice(cells(), passed.find(0), None))
    return CheckResult(name, range_desc, npass, len(passed) - npass, first)


# A suite's declaration: its value grids, each as a function returning a
# fresh iterator over the grid's index cells; the step that builds those
# grids; and its checks.
Declared = tuple[list[Callable[[], Iterable]], Callable[[], None], list[Check]]


def _cell_flags(predicate, cells) -> bytearray:
    """One byte per cell of ``cells()``, 1 where ``predicate`` holds."""
    return bytearray(map(bool, itertools.starmap(predicate, cells())))


def _each(predicate) -> Callable[[Cells], bytearray]:
    """The flags function of a check that calls ``predicate`` on each cell."""
    return partial(_cell_flags, predicate)


class Lanes:
    """Lanes of up to ``width`` non-negative ints of at most ``top``, each
    packed into one Python int, its first value in the lowest field.

    A field has ``size`` bytes, enough to keep ``top`` below its top bit,
    the field's guard bit.  For lanes x and y of such values,
    ``y + guard - x`` borrows from no field and leaves a field's guard bit
    set exactly where x <= y.
    """

    def __init__(self, top: int, width: int) -> None:
        self.size = size = (top.bit_length() + 8) // 8
        self.bits = 8 * size
        self.ones = int.from_bytes((b"\x01" + bytes(size - 1)) * width, "little")
        self.guard = self.ones << (self.bits - 1)
        self._field = partial(int.to_bytes, length=size, byteorder="little")
        self._length = width * size

    def fields(self, values: Iterable[int]) -> bytes:
        """``values`` as fields, the first lowest."""
        return b"".join(map(self._field, values))

    def pack(self, values: Iterable[int]) -> int:
        """One lane of ``values``, the first in the lowest field."""
        return int.from_bytes(self.fields(values), "little")

    def flags(self, diff: int, count: int) -> bytes:
        """One pass byte for each of the first ``count`` fields of ``diff``,
        a difference ``y + guard - x``: 1 where the field's guard bit is set."""
        bits = (diff & self.guard) >> (self.bits - 1)
        return bits.to_bytes(self._length, "little")[:count * self.size:self.size]


def _rising_flags(rows: list[list[int]]) -> bytearray:
    """One pass byte per (row, d, d') with d <= d', in that order, 1 where
    row[d] <= row[d'], for rows of non-negative ints: a lane per (row, d)."""
    top = max((max(row) for row in rows if row), default=0)
    lanes = Lanes(top, max(map(len, rows), default=0))
    flags = bytearray()
    for values in rows:
        row = lanes.pack(values)
        for d, x in enumerate(values):
            flags += lanes.flags((row >> d * lanes.bits) + lanes.guard - x * lanes.ones,
                                 len(values) - d)
    return flags


# ---------------------------------------------------------------------------
# Value grids
# ---------------------------------------------------------------------------

Grid = list[list[int | None]]


def _kk_cells(nmax: int, dmax: int) -> Product:
    """n <= 2*nmax and d <= 2*dmax, the range of the subadditive sums."""
    return Product(range(1, 2 * nmax + 1), range(2 * dmax + 1))


def _keq_cells(nmax: int, dmax: int) -> Iterable[tuple[int, int]]:
    """n <= nmax, d <= dmax and the capacity window n <= d <= 2n - 1."""
    return ((n, d) for n in range(1, nmax + 1) for d in range(max(dmax, 2 * n - 1) + 1))


def _kk_reach(nmax: int, dmax: int) -> int:
    """The largest n of a keq(n, d) that the kk grid's values depend on: its
    rows n <= 2*nmax read keq at n <= n' <= d' <= min(2n - 2, 2*dmax)."""
    return min(4 * nmax - 2, 2 * dmax)


def square_mass_costs(top: int) -> list[list[int]]:
    """C[q][r] = keq(q + r, q + 2r), values only, for q >= 1 and q + r <= top
    (C[0] is empty): the least part sum of parts k with square sum q, where
    each part k takes any multiple of k as slack and the slacks sum to r.

    A dynamic program on the kernel's reduction that shares no code with
    it: row q is the least, over k <= sqrt(q), of row q - k*k taken as a
    running minimum along steps of k, plus k.  Row 0 (0 at r = 0, top + 1
    standing for infinity elsewhere) is kept while the rows are built.
    """
    inf = top + 1
    rows = [[0] + [inf] * top]
    for q in range(1, top + 1):
        row = [inf] * (top - q + 1)
        for k in range(1, math.isqrt(q) + 1):
            prev = rows[q - k * k]
            for start in range(k):
                least = inf
                for r in range(start, len(row), k):
                    if prev[r] < least:
                        least = prev[r]
                    if least + k < row[r]:
                        row[r] = least + k
        rows.append(row)
    rows[0] = []
    return rows


def _kk_grid(costs: list[list[int]], nmax: int, dmax: int) -> Grid:
    """kk at [n][d] for the cells of ``_kk_cells``, from the keq values of
    ``costs``, a ``square_mass_costs`` table up to ``_kk_reach`` or more.

    kk(n, d) is None for d < n, 1 for d >= 2n - 1 (the pair (1, n)), and
    min(kk(n + 1, d), kk(n, d - 1), keq(n, d)) between, as a decomposition
    has weight n and dimension d or leaves room in one of them.  The rows
    are built from the top down, from max(2*nmax, ``_kk_reach``) with the
    row above taken as None: kk is None there at every d <= ``_kk_reach``,
    all that the rows n <= 2*nmax read of it.
    """
    width = 2 * dmax + 1
    rows: Grid = []
    above: list[int | None] = [None] * width
    for n in range(max(2 * nmax, _kk_reach(nmax, dmax)), 0, -1):
        row: list[int | None] = [None] * min(n, width)
        for d in range(n, min(2 * n - 1, width)):
            least = costs[2 * n - d][d - n]  # finite on the capacity window
            left, up = row[-1], above[d]
            if left is not None and left < least:
                least = left
            if up is not None and up < least:
                least = up
            row.append(least)
        row += [1] * (width - len(row))
        if n <= 2 * nmax:
            rows.append(row)
        above = row
    return [[], *reversed(rows)]


def _keq_grid(costs: list[list[int]], nmax: int, dmax: int) -> Grid:
    """keq at [n][d] for the cells of ``_keq_cells``: C(2n - d, d - n) of
    ``costs``, a ``square_mass_costs`` table up to nmax or more, on the
    capacity window n <= d <= 2n - 1, None elsewhere."""
    return [[], *([None] * n + [costs[2 * n - d][d - n] for d in range(n, 2 * n)]
                  + [None] * (dmax - 2 * n + 1) for n in range(1, nmax + 1))]


def _le(a: int | None, b: int | None) -> bool:
    """a <= b on grid values, None standing for infinity."""
    return b is None or (a is not None and a <= b)


def _audit(found: kfun.WitnessedValue, valid, n: int, d: int) -> bool:
    """Whether a finite answer's witness passes ``valid`` at (n, d) and
    costs the answer's value; an infinite answer passes."""
    return not found.value.is_finite or (valid(found.witness, n, d)
                                         and found.witness.cost == found.value.value)


# ---------------------------------------------------------------------------
# kfun checks
# ---------------------------------------------------------------------------

def _kfun_checks(nmax: int, dmax: int) -> Declared:
    four_square_top = max(nmax, dmax)
    ns, ds = range(1, nmax + 1), range(dmax + 1)
    table = kk = keq = big_k_ok = None

    def build():
        nonlocal table, kk, keq, big_k_ok
        table = kfun.big_k_table(four_square_top)
        costs = square_mass_costs(max(nmax, _kk_reach(nmax, dmax)))
        kk, keq = _kk_grid(costs, nmax, dmax), _keq_grid(costs, nmax, dmax)
        # the audit of each K witness, read by every cell of its row; the K
        # table's grid, 0..max(nmax, dmax), counts these calls in the budget
        big_k_ok = {n: _audit(kfun.big_k(n), kfun.is_valid_exact_witness, n, n) for n in ns}

    # (range text, cells) of the ranges several checks share
    each_n = f"1<=n<={nmax}", Product(ns)
    each_nd = f"1<=n<={nmax}, 0<=d<={dmax}", Product(ns, ds)

    def window_cells():
        # n <= d <= 2n with (d - n + 9)^2 >= 36n; as d - n + 9 > 0, that is
        # d - n + 9 >= ceil(sqrt(36n)) = isqrt(36n - 1) + 1
        for n in range(9, nmax + 1):
            for d in range(max(n, n - 9 + math.isqrt(36 * n - 1) + 1), 2 * n + 1):
                yield (n, d)

    def window_ok(n, d):
        cost = kfun.kk(n, d).value
        if not cost.is_finite or not kfun.lt_sqrt_plus(cost.value, 2 * n - d, 3):
            return False
        wit = kfun.sqrt_bound_witness(n, d)
        return kfun.is_valid_relaxed_witness(wit, n, d) and kfun.lt_sqrt_plus(
            wit.cost, 2 * n - d, 3
        )

    def monotone_flags(cells):
        # kk(n, d') <= kk(n, d), so d' rises in hi + 1 - kk, infinity reading 0
        rows = [kk[n][:dmax + 1] for n in ns]
        hi = max((v for row in rows for v in row if v is not None), default=0)
        return _rising_flags([[0 if v is None else hi + 1 - v for v in row] for row in rows])

    def subadditive_flags(cells):
        # t <= a + b for t = kk(n + n', d + d'), a = kk(n, d), b = kk(n', d'),
        # unless a or b is infinite, one lane per (n, n'): d' = 0..dmax for
        # each d in turn, in the order of cells().  On finite values in [lo, hi]
        # it reads t - 2 lo + 1 <= (a - lo + 1) + (b - lo), whose right side
        # lies in [1, 2 span + 1]; so the left side, clamped to [0, 2 span + 2],
        # decides it alike, and an infinite t reads 2 span + 2, above every
        # finite sum.  An infinite a reads 2 span + 2 and an infinite b
        # 2 span + 1, so their sums, at most 4 span + 3, pass every cell.
        # The budget bounds a lane: nmax^2 (dmax + 1)^2 <= VERIFY_MAX_CELLS.
        finite = [v for row in kk for v in row if v is not None]
        lo, hi = min(finite, default=0), max(finite, default=0)
        span, width = hi - lo, dmax + 1
        top, count = 2 * span + 2, width * width
        lanes = Lanes(4 * span + 3, count)
        size = lanes.size

        def t_lane(m):
            row = lanes.fields([top if t is None else min(max(t - 2 * lo + 1, 0), top)
                                for t in kk[m]])
            return int.from_bytes(b"".join(row[d * size:(d + width) * size] for d in range(width)),
                                  "little")

        ts = {m: t_lane(m) for m in range(2, 2 * nmax + 1)}
        bs = {n2: int.from_bytes(lanes.fields([top - 1 if b is None else b - lo
                                               for b in kk[n2][:width]]) * width, "little")
              for n2 in ns}
        flags = bytearray(b"\x01") * (nmax * nmax * count)
        for n in ns:
            row = kk[n][:width]
            if all(a is None for a in row):
                continue  # every a is infinite: the lanes of n pass whole
            a_guard = lanes.guard + int.from_bytes(
                b"".join(lanes.fields([top if a is None else a - lo + 1]) * width for a in row),
                "little")
            for n2 in ns:
                at = ((n - 1) * nmax + n2 - 1) * count
                flags[at:at + count] = lanes.flags(a_guard + bs[n2] - ts[n + n2], count)
        return flags

    def witnesses_ok(n, d):
        # each answer costs the grid's least value, and its witness is valid
        eq, relaxed = kfun.keq(n, d), kfun.kk(n, d)
        return (eq.value.value == keq[n][d] and relaxed.value.value == kk[n][d]
                and _audit(eq, kfun.is_valid_exact_witness, n, d)
                and _audit(relaxed, kfun.is_valid_relaxed_witness, n, d) and big_k_ok[n])

    def four_square_ok(n):
        a, b, c, d = kfun.four_square(n)
        if a * a + b * b + c * c + d * d != n or not a >= b >= c >= d >= 0:
            return False
        return n == 0 or table[n] <= a + b + c + d

    exhaustive_top = min(nmax, 200)
    grids = [
        Product(range(four_square_top + 1)),
        _kk_cells(nmax, dmax),
        lambda: _keq_cells(nmax, dmax),
    ]
    return grids, build, [
        (
            "kfun-collapse-at-diagonal",
            *each_n,
            _each(lambda n: keq[n][n] == kfun.kk(n, n).value.value == table[n]),
        ),
        ("kfun-keq-dominates-kk", *each_nd, _each(lambda n, d: _le(kk[n][d], keq[n][d]))),
        (
            "kfun-kk-monotone-in-d",
            f"1<=n<={nmax}, 0<=d<=d'<={dmax}",
            lambda: ((n, d, d2) for n in ns for d in ds for d2 in range(d, dmax + 1)),
            monotone_flags,
        ),
        ("kfun-square-root-bound", *each_n, _each(lambda n: kfun.root_bound_holds(n, table[n]))),
        (
            "kfun-keq-linear-bound",
            f"1<=n<={nmax}, n<=d<=2n-1",
            lambda: ((n, d) for n in ns for d in range(n, 2 * n)),
            _each(lambda n, d: _le(keq[n][d], 2 * n - d)),
        ),
        (
            "kfun-kk-window-root-bound",
            f"9<=n<={nmax}, window d<=2n",
            window_cells,
            _each(window_ok),
        ),
        (
            "kfun-kk-subadditive",
            f"1<=n,n'<={nmax}, 0<=d,d'<={dmax}",
            Product(ns, ns, ds, ds),
            subadditive_flags,
        ),
        (
            "kfun-keq-divisor-bound",
            f"1<=n<={nmax}, k|n, k^2<=n",
            lambda: ((n, k) for n in ns for k in range(1, math.isqrt(n) + 1) if n % k == 0),
            _each(lambda n, k: _le(keq[n][2 * n - k * k], k)),
        ),
        (
            "kfun-keq-feasibility-window",
            *each_nd,
            _each(lambda n, d: (keq[n][d] is not None) == (n <= d <= 2 * n - 1)),
        ),
        (
            "kfun-kk-feasibility-window",
            *each_nd,
            _each(lambda n, d: (kk[n][d] is not None) == (d >= n)),
        ),
        ("kfun-witness-validity", *each_nd, _each(witnesses_ok)),
        (
            "kfun-square-cost-exhaustive",
            f"1<=n<={exhaustive_top}",
            Product(range(1, exhaustive_top + 1)),
            _each(lambda n: table[n] == kfun.square_cost_naive(n)),
        ),
        (
            "kfun-four-square-identity",
            f"0<=n<={four_square_top}",
            Product(range(four_square_top + 1)),
            _each(four_square_ok),
        ),
    ]


# ---------------------------------------------------------------------------
# oracle checks
# ---------------------------------------------------------------------------

def _oracle_checks(nmax: int, dmax: int) -> Declared:
    top = min(nmax, ORACLE_CAP)

    def cells():
        for n in range(1, top + 1):
            for d in range(min(dmax, 2 * n) + 1):
                yield (n, d)

    def agree(fast):
        # the kernel's answer against its naive oracle's, both looked up per
        # cell, so that declaring the checks runs no kernel
        def pred(n, d):
            a, b = getattr(kfun, fast)(n, d), getattr(kfun, f"{fast}_naive")(n, d)
            if a.value != b.value:
                return False
            if a.value.is_finite and a.witness.key() != b.witness.key():
                return False
            return True

        return pred

    desc = f"1<=n<={top}, 0<=d<=min({dmax},2n)"
    return [], (lambda: None), [
        ("oracle-keq-agrees", desc, cells, _each(agree("keq"))),
        ("oracle-kk-agrees", desc, cells, _each(agree("kk"))),
    ]


# ---------------------------------------------------------------------------
# bounds and spectra checks
# ---------------------------------------------------------------------------

_FRACTIONS = tuple(
    sorted({Fraction(p, q) for p in range(0, 4) for q in range(1, 4)})
)
_POSITIVE = tuple(f for f in _FRACTIONS if f > 0)


# The sample products of the conformality and spectrum checks, and the
# products whose energy interval is [pi, pi], as ``format_product`` writes them.
_SAMPLE_PRODUCTS = (
    "S(2;pi)", "S(2;pi) x S(2;pi)", "S(2;2pi) x S(3;pi)", "S(1;pi/2) x S(1;pi/3)",
    "S(1;pi) x C(T2,1;0;asph)", "S(1;pi) x C(S2,1;pi)", "S(2;pi) x C(S2w,1;pi/3)",
    "V(2,3;pi) x S(2;pi/2)", "V(1,4;3pi/2)", "C(T2,1;0;asph)",
)
_ENERGY_EXAMPLES = ("S(2;pi) x S(2;pi)", "S(1;pi) x S(1;pi) x C(S2,1;pi)", "S(2;2pi) x S(3;pi)")


def _bounds_checks(nmax: int, dmax: int) -> Declared:
    """The bound engine checks and the spectrum checks of the sample
    objects, followed by the spectrum algebra checks."""
    squeeze = windows = samples = zero = one = nat_one = None
    squeeze_ns = range(2, min(nmax, dmax) + 1)
    objects = Deferred(len(_SAMPLE_PRODUCTS), lambda: map(expr.parse_product, _SAMPLE_PRODUCTS))

    def squeeze_cells():
        return ((n, d) for n in squeeze_ns for d in range(n, dmax + 1))

    def build():
        nonlocal squeeze, windows, samples, zero, one, nat_one
        # the constants the predicates compare with, made once per run
        zero, one, nat_one = spectra.ExtRat.fin(0), spectra.ExtRat.fin(1), kfun.ExtNat(1)
        squeeze = {(n, d): bounds.squeeze_bounds(n, d) for n, d in squeeze_cells()}
        # capacity_bounds(n, 2n - 1), which both capacity checks read
        windows = {n: bounds.capacity_bounds(n, 2 * n - 1) for n in range(1, nmax + 1)}
        # per sample object, once for every check that reads them: its
        # scalings by _POSITIVE, its energy interval, its split minimal action
        # and its product minimal action
        samples = [(tuple(obj.scaled(c) for c in _POSITIVE), bounds.energy_bounds(obj),
                    spectra.split_min_action(obj),
                    spectra.minimal_action(spectra.product_spectrum(obj))) for obj in objects]

    def squeeze_monotone_flags(cells):
        # squeeze(n, d).lower <= squeeze(n, d').lower, on the endpoints' ranks
        # in exact ExtRat order, equal endpoints sharing one; each endpoint is
        # looked up by its numerator and denominator, cheaper to hash than it
        def key(lower):
            return None if lower.value is None else (lower.value.numerator,
                                                     lower.value.denominator)

        lowers = {key(interval.lower): interval.lower for interval in squeeze.values()}
        rank = {key(lower): i for i, lower in enumerate(sorted(lowers.values()))}
        return _rising_flags([[rank[key(squeeze[n, d].lower)] for d in range(n, dmax + 1)]
                              for n in squeeze_ns])

    def capacity_normalized(n):
        interval = windows[n]
        return interval.lower == interval.upper == one

    def capacity_sane(n, d):
        interval = windows[n] if d == 2 * n - 1 else bounds.capacity_bounds(n, d)
        return zero < interval.lower <= interval.upper

    def collapse_ok(n, d):
        interval = squeeze[n, d]
        collapsed = interval.lower == interval.upper == one
        want = kfun.kk(n, d).value == nat_one
        if collapsed != want:
            return False
        return collapsed if d >= 2 * n - 1 else True

    def energy_is_pi(text):
        interval = bounds.energy_bounds(expr.parse_product(text))
        return interval.lower == interval.upper == one

    def conformal_flags(cells):
        # energy_bounds(obj.scaled(c)) is energy_bounds(obj) scaled by c
        flags = bytearray()
        for scalings, base, _, _ in samples:
            for c, scaled in zip(_POSITIVE, scalings):
                interval = bounds.energy_bounds(scaled)
                flags.append(interval.lower == base.lower.scaled(c)
                             and interval.upper == base.upper.scaled(c))
        return flags

    def rescale_flags(cells):
        # both minimal actions of obj.scaled(c) are those of obj scaled by c
        flags = bytearray()
        for scalings, _, split, prod in samples:
            for c, scaled in zip(_POSITIVE, scalings):
                flags.append(spectra.split_min_action(scaled) == split.scaled(c)
                             and spectra.minimal_action(spectra.product_spectrum(scaled))
                             == prod.scaled(c))
        return flags

    def width_ok(a, flag):
        interval = bounds.width_energy_bound(a, flag)
        return interval.lower == interval.upper == spectra.ExtRat.fin(a)

    return [squeeze_cells], build, [
        (
            "bounds-capacity-normalized",
            f"1<=n<={nmax}",
            Product(range(1, nmax + 1)),
            _each(capacity_normalized),
        ),
        (
            "bounds-capacity-interval-sane",
            f"1<=n<={nmax}, n<=d<=2n-1",
            lambda: ((n, d) for n in range(1, nmax + 1) for d in range(n, 2 * n)),
            _each(capacity_sane),
        ),
        (
            "bounds-squeeze-monotone-lower",
            f"2<=n<={nmax}, n<=d<=d'<={dmax}",
            lambda: ((n, d, d2) for n, d in squeeze_cells() for d2 in range(d, dmax + 1)),
            squeeze_monotone_flags,
        ),
        (
            "bounds-squeeze-collapse",
            f"2<=n<={nmax}, n<=d<={dmax}",
            squeeze_cells,
            _each(collapse_ok),
        ),
        (
            "bounds-energy-examples",
            "3 fixed products",
            Product(_ENERGY_EXAMPLES),
            _each(energy_is_pi),
        ),
        (
            "bounds-energy-conformality",
            "sample objects x positive rational scales",
            Product(objects, _POSITIVE),
            conformal_flags,
        ),
        (
            "bounds-width-interval",
            "positive rational areas x {with,without} closed factor",
            Product(_POSITIVE, (False, True)),
            _each(width_ok),
        ),
        (
            "spectra-rescaling",
            "sample objects x positive rational scales",
            Product(objects, _POSITIVE),
            rescale_flags,
        ),
        (
            "spectra-product-min-vs-split",
            "sample objects",
            Product(objects),
            lambda cells: bytearray(prod <= split for _, _, split, prod in samples),
        ),
    ] + _spectra_checks()


def _spectra_checks() -> list[Check]:
    lattices = Deferred(len(_POSITIVE) + 1, lambda: (*map(spectra.Spectrum.lattice, _POSITIVE),
                                                     spectra.Spectrum.zero()))
    spheres = range(1, 5)

    def algebra_flags(cells):
        # the sum of each ordered pair once, read for commutativity once per
        # pair and for idempotence and identity ({0} is the last lattice)
        # once per lattice; associativity makes its two outer sums per cell
        values = tuple(lattices)
        idx = range(len(values))
        sums = [[spectra.spectrum_sum(s1, s2) for s2 in values] for s1 in values]
        commutes = [[sums[i][j] == sums[j][i] for j in idx] for i in idx]
        unit = [sums[i][i] == s == sums[-1][i] for i, s in enumerate(values)]
        flags = bytearray()
        for i, j, k in itertools.product(idx, idx, idx):
            flags.append(commutes[i][j]
                         and spectra.spectrum_sum(sums[i][j], values[k])
                         == spectra.spectrum_sum(values[i], sums[j][k])
                         and unit[i])
        return flags

    def sphere_flags(cells):
        # the spectrum of each Sphere(m, a) once; a cell (m, m', a) compares two
        atoms = {m: [spectra.spectrum_of_atom(spectra.Sphere(m, a)) for a in _POSITIVE]
                 for m in spheres}
        return bytearray(s1 == s2 for m, m2 in itertools.product(spheres, spheres)
                         for s1, s2 in zip(atoms[m], atoms[m2]))

    def normal_form(gens):
        base = spectra.Spectrum.from_generators(gens)
        for perm in itertools.permutations(gens):
            if spectra.Spectrum.from_generators(perm) != base:
                return False
        regenerated = (base.gen,) if not base.is_zero else ()
        return spectra.Spectrum.from_generators(regenerated) == base

    return [
        (
            "spectra-sum-algebra",
            "lattice/zero triples over a fraction grid",
            Product(lattices, lattices, lattices),
            algebra_flags,
        ),
        (
            "spectra-sphere-m-independent",
            "1<=m,m'<=4 x positive areas",
            Product(spheres, spheres, _POSITIVE),
            sphere_flags,
        ),
        (
            "spectra-normal-form",
            "generator triples over a fraction grid",
            lambda: ((gens,) for gens in itertools.combinations_with_replacement(_FRACTIONS, 3)),
            _each(normal_form),
        ),
    ]


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

# The declarations of each suite, in the order they are swept; its keys are
# ``SUITES``, in the order ``verify --help`` lists them.
SUITE_CHECKS = {
    "kfun-props": (_kfun_checks,),
    "oracle": (_oracle_checks,),
    "bounds-props": (_bounds_checks,),
}
SUITE_CHECKS["all"] = tuple(itertools.chain.from_iterable(SUITE_CHECKS.values()))
SUITES = tuple(SUITE_CHECKS)


def run_suite(suite: str, nmax: int, dmax: int | None = None) -> VerifyReport:
    """Run one suite over n <= nmax, d <= dmax (default 2*nmax).

    Refuses, before any work, a suite whose grid entries and check cells
    number more than ``VERIFY_MAX_CELLS``.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES}")
    if isinstance(nmax, bool) or not isinstance(nmax, int) or nmax < 1:
        raise ValueError("nmax must be an integer >= 1")
    if dmax is None:
        dmax = 2 * nmax
    if isinstance(dmax, bool) or not isinstance(dmax, int) or dmax < 0:
        raise ValueError("dmax must be an integer >= 0")
    declared = [declare(nmax, dmax) for declare in SUITE_CHECKS[suite]]
    checks = [row for _, _, rows in declared for row in rows]
    cell_sets = [cells for grids, _, _ in declared for cells in grids]
    cell_sets += [cells for _, _, cells, _ in checks]
    budget = VERIFY_MAX_CELLS  # read at each call
    left = budget - sum(cells.size() for cells in cell_sets if isinstance(cells, Product))
    walk = itertools.chain.from_iterable(cells() for cells in cell_sets
                                         if not isinstance(cells, Product))
    # step through the budget in C, not in a Python loop; a unit left over is one too many
    deque(itertools.islice(walk, max(left, 0)), maxlen=0)
    if left < 0 or any(True for _ in walk):
        raise OutOfRangeError(
            f"verify {suite} would sweep more than {budget} cells (the verify cell budget)"
        )

    start = time.monotonic()
    for _, build, _ in declared:
        build()
    results = [_sweep(*check) for check in checks]
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return VerifyReport(tuple(sorted(results, key=lambda c: c.name)), elapsed_ms)
