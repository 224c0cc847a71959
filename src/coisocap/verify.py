"""Bulk verification sweeps over the library invariants: the report types
and the entry point.

Each check walks a deterministic grid of inputs and counts passes and
failures; the first failing input is kept for diagnosis.  The suites
(``SUITES``: ``kfun-props``, ``oracle``, ``bounds-props`` and ``all``),
their declarations and the sweep that runs them are in ``checks``, which
``run_suite`` imports on its first call, so importing this module compiles
only the report types and the argument checks.  ``checks`` documents the
declarations, the cell budget (``VERIFY_MAX_CELLS``, 2 * 10**6, counted
before any grid is built) and how a check counts its passes.
"""
from __future__ import annotations

from .errors import Frozen

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
    # imported here, so that only a sweep compiles the declarations and the sweep
    from . import checks

    return checks.sweep(suite, nmax, dmax, VERIFY_MAX_CELLS)
