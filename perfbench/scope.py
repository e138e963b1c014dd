"""Instance counts read from the scope notes of checker reports.

Reports carry these counts only as free text today.  Every note the
benchmark relies on must be present exactly once; a missing or repeated
note raises ``ScopeNoteMissing`` instead of counting as 0.  When the
reports grow structured counters, this module is the one to change.
"""

from __future__ import annotations

import re


class ScopeNoteMissing(ValueError):
    pass


# check_cy_conditions: "budget 2, truncation 3, 4 oversized instances skipped"
_CY_SKIPPED = re.compile(r"(\d+) oversized instances skipped")

# verify_localization: every note that counts checked instances
_LOCALIZE_CHECKED = (
    re.compile(r"window-rigid squares over the full universe: (\d+) checked"),
    re.compile(r"initiality: (\d+) interval tuples and (\d+) round tuples"),
    re.compile(r"flavor agreement checked on all (\d+) interval rows"),
    re.compile(r"interval composable pairs swept exhaustively: (\d+)"),
    re.compile(r"round composable pairs swept exhaustively: (\d+)"),
    re.compile(r"exhaustive tier factorization instances: (\d+)"),
    re.compile(r"flavor agreement checked on (\d+) interval squares"),
    re.compile(r"factorization instances against full weak fibers: (\d+)"),
    re.compile(r"seeded full-universe composite sample: (\d+) pairs"),
)


def _numbers(report, pattern):
    hits = [m for m in map(pattern.search, report.scope) if m]
    if len(hits) != 1:
        raise ScopeNoteMissing(
            f"{report.title}: expected one scope note matching "
            f"{pattern.pattern!r}, found {len(hits)}"
        )
    return [int(g) for g in hits[0].groups()]


def cy_counts(report):
    """(checked, skipped) for a check_cy_conditions report."""
    return 0, sum(_numbers(report, _CY_SKIPPED))


def localize_counts(report):
    """(checked, skipped) for a verify_localization report."""
    return sum(sum(_numbers(report, p)) for p in _LOCALIZE_CHECKED), 0


def no_counts(report):
    """Checkers whose notes name a rank, not a number of instances."""
    return 0, 0
