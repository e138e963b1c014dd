"""Structured pass/fail reporting shared by all checkers.

A report collects findings (failures) plus a record of the scope that
was actually verified, so a clean report means "everything in scope
passed", never "nothing ran".
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Finding:
    """One failed check: where it failed and a concrete witness."""

    check: str
    location: tuple
    witness: object = None
    detail: str = ""


@dataclass
class Report:
    title: str
    findings: list = field(default_factory=list)
    scope: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.findings

    def fail(self, check, location, witness=None, detail=""):
        self.findings.append(Finding(check, tuple(location), witness, detail))

    def note_scope(self, text):
        self.scope.append(text)

    def extend(self, other):
        self.findings.extend(other.findings)
        self.scope.extend(f"{other.title}: {s}" for s in other.scope)
