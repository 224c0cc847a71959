"""Bulk verification sweeps over the library invariants: the runner.

Each check walks a deterministic grid of inputs and counts passes and
failures; the first failing input is kept for diagnosis.  The suites
(``SUITES``: ``kfun-props``, ``oracle``, ``bounds-props`` and ``all``)
are declared in ``checks``, which ``run_suite`` imports, so importing
this module compiles only the runner.

Each suite declares its value grids, each by a function returning a fresh
iterator over the grid's index cells; the one step that builds them; and
its checks, as rows of (name, range text, cells, flags), where cells
returns a fresh iterator over the check's inputs and flags, given cells,
returns one pass byte per cell in the order of cells().  A check's
passes and failures are counted from its flags in C; only a failing
check steps through cells() again, to its first failing input.

The budget is counted, before any grid is built, over the grids' index
cells and the checks' cells, up to ``VERIFY_MAX_CELLS`` (2 * 10**6);
a suite that counts more is refused with ``OutOfRangeError``.  A grid
or check whose cells are a ``Product`` of ranges or tuples, such as
``kfun-kk-subadditive``, nearly all the cells of a large run, is counted
in closed form.  The others are walked, up to what the products leave of
the budget and one more.  No generator runs long between two cells, so
the walk is bounded for any nmax and dmax.  ``all --nmax 26`` is the
largest default ``all`` run.  The budget counts calls, not their cost,
so the costliest admitted runs take minutes; README "Verification
sweeps" gives them with measured times.  No suite builds the K table
past 1,149 (nmax 1, dmax 1,149).
"""
from __future__ import annotations

import itertools
import math
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence

from .errors import Frozen, OutOfRangeError

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
    ranges or tuples, in ``itertools.product`` order: a cells function,
    iterable as well, whose ``size`` the budget reads without stepping
    through the cells."""

    __slots__ = ("factors",)

    def __init__(self, *factors: Sequence) -> None:
        self.factors = factors

    def __call__(self) -> Iterator[tuple]:
        return itertools.product(*self.factors)

    __iter__ = __call__

    def size(self) -> int:
        return math.prod(map(_length, self.factors))


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


SUITES = ("kfun-props", "oracle", "bounds-props", "all")


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
    # imported here, so that only a sweep compiles the declarations
    from .checks import SUITE_CHECKS

    declared = [declare(nmax, dmax) for declare in SUITE_CHECKS[suite]]
    checks = [row for _, _, rows in declared for row in rows]
    cell_sets = [cells for grids, _, _ in declared for cells in grids]
    cell_sets += [cells for _, _, cells, _ in checks]
    left = VERIFY_MAX_CELLS - sum(cells.size() for cells in cell_sets
                                  if isinstance(cells, Product))
    walk = itertools.chain.from_iterable(cells() for cells in cell_sets
                                         if not isinstance(cells, Product))
    # step through the budget in C, not in a Python loop; a unit left over is one too many
    deque(itertools.islice(walk, max(left, 0)), maxlen=0)
    if left < 0 or any(True for _ in walk):
        raise OutOfRangeError(
            f"verify {suite} would sweep more than {VERIFY_MAX_CELLS} cells"
            " (the verify cell budget)"
        )

    start = time.monotonic()
    for _, build, _ in declared:
        build()
    results = [_sweep(*check) for check in checks]
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return VerifyReport(tuple(sorted(results, key=lambda c: c.name)), elapsed_ms)
