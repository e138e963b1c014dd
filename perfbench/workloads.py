"""The benchmark's workloads: their inputs, operations and expected verdicts.

A workload is built from a seed.  The seed picks the corrupted twins and
the order of the operations; the program only ever receives the
generated objects.  Building twice from one seed gives equal inputs made
of fresh objects, so no pass inherits lazily filled per-object caches
from an earlier one.

Operations on twins run before those on valid objects.  A cache keyed
on carriers would then hand a twin's verdict to its valid source, whose
expected verdict is ok.  Every twin breaks a simplicial or cyclic
identity, so ``validate`` must flag it; a miss there fails the run.  The
2-Segal, algebra and Calabi-Yau checkers are expected to flag twins as
well, and ``check_2segal`` to agree with ``check_2segal_triangulations``,
but some seeded twins slip past them today.  Those misses are reported
as findings of the program and counted in ``ops_failed``; they do not
make the run incorrect, so that ``correct`` does not depend on the seed.
``check_unital`` and ``check_associativity`` have no expected verdict on
a twin.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Callable

from segalspans.finset import FinSet, fin_map_by
from segalspans.generators import (
    cech_nerve,
    cyclic_group_table,
    cyclic_nerve_of_group,
    flag_decomposition,
    min_monoid_table,
    nerve_of_monoid,
)
from segalspans.localize import LocalizeBudget

from scope import cy_counts, localize_counts, no_counts
from twins import corrupted_twin


@dataclass(frozen=True)
class Op:
    """One timed call: ``check(inputs[subject])`` returns a Report.

    ``expect`` is "ok" or "flagged" for a verdict, "pinned" for a
    findings digest committed in expected.json, and "recorded" for a
    verdict that is printed but has no expected value.  A wrong verdict
    fails the run when ``gated``, and is reported as a miss otherwise.
    ``agrees_with`` names an operation that must give the same verdict.
    """

    name: str
    subject: str
    check: Callable
    expect: str
    counts: Callable = no_counts
    gated: bool = True
    agrees_with: str = None


@dataclass(frozen=True)
class Inputs:
    objects: dict
    ops: tuple
    notes: dict  # subject -> how its twin was corrupted


def public(path):
    """``segalspans.<path>`` looked up at each call, not at import, so
    that the tracer's wrappers see the calls the benchmark makes."""
    module, name = path.rsplit(".", 1)

    def call(*args, **kwargs):
        return getattr(sys.modules["segalspans." + module], name)(*args, **kwargs)

    return call


check_cy_conditions = public("cycy.check_cy_conditions")
validate = public("sobj.validate")
verify_localization = public("localize.verify_localization")


def _ordered(ops, notes, rng):
    """Twin operations first, each group in a seeded order."""
    twin = [op for op in ops if op.subject in notes]
    valid = [op for op in ops if op.subject not in notes]
    rng.shuffle(twin)
    rng.shuffle(valid)
    return tuple(twin + valid)


# --------------------------------------------------------------------------
# cy-nerves: the finite-set kernel under the Calabi-Yau checker


CY_GROUPS = (("z2", cyclic_group_table(2)), ("z3", cyclic_group_table(3)))


def _cy_nerves(seed):
    rng = random.Random(seed)
    objects = {name: cyclic_nerve_of_group(table, 3) for name, table in CY_GROUPS}
    twin, note = corrupted_twin(objects["z3"], rng)
    objects["z3~twin"] = twin
    notes = {"z3~twin": note}
    ops = [
        Op(f"check_cy_conditions[{name}]", name, check_cy_conditions, "ok", cy_counts)
        for name, _ in CY_GROUPS
    ]
    ops.append(Op("check_cy_conditions[z3~twin]", "z3~twin", check_cy_conditions, "flagged", cy_counts, gated=False))
    ops.append(Op("validate[z3~twin]", "z3~twin", validate, "flagged"))
    return Inputs(objects, _ordered(ops, notes, rng), notes)


# --------------------------------------------------------------------------
# segal-nerves: limits, validated construction and structure-map chains


SEGAL_CHECKS = (
    ("validate", validate),
    ("check_2segal", public("segal.check_2segal")),
    ("check_2segal_triangulations", public("segal.check_2segal_triangulations")),
    ("check_algebra_conditions", public("spanalg.check_algebra_conditions")),
    ("check_unital", public("segal.check_unital")),
    ("check_associativity", public("spanalg.check_associativity")),
)


def _five_onto_two():
    src = FinSet((0, 1, 2, 3, 4))
    return fin_map_by(src, FinSet((0, 1)), lambda a: 0 if a < 3 else 1)


def _segal_nerves(seed):
    rng = random.Random(seed)
    objects = {
        "nerve(z3,5)": nerve_of_monoid(cyclic_group_table(3), 5),
        "nerve(min3,5)": nerve_of_monoid(min_monoid_table(3), 5, unit=2),
        "flags(3,4)": flag_decomposition(3, 4),
        "cech(5->2,4)": cech_nerve(_five_onto_two(), 4),
    }
    notes = {}
    for source in ("nerve(z3,5)", "flags(3,4)"):
        twin, note = corrupted_twin(objects[source], rng)
        objects[f"{source}~twin"] = twin
        notes[f"{source}~twin"] = note
    ops = [_segal_op(name, check, subject, subject in notes) for subject in objects for name, check in SEGAL_CHECKS]
    return Inputs(objects, _ordered(ops, notes, rng), notes)


# checkers with no expected verdict on a twin
TWIN_RECORDED = ("check_unital", "check_associativity")


def _segal_op(check_name, check, subject, twin):
    name = f"{check_name}[{subject}]"
    if not twin:
        return Op(name, subject, check, "ok")
    if check_name == "validate":
        return Op(name, subject, check, "flagged")
    if check_name in TWIN_RECORDED:
        return Op(name, subject, check, "recorded")
    agrees_with = f"check_2segal[{subject}]" if check_name == "check_2segal_triangulations" else None
    return Op(name, subject, check, "flagged", gated=False, agrees_with=agrees_with)


# --------------------------------------------------------------------------
# localize-sweep: the order layer and hom enumerators, no finite-set kernel


LOCALIZE_BUDGETS = ((1, 1, 1, 0), (1, 1, 1, 1), (1, 1, 2, 0))

# verify_localization raises on this budget today; it is run once after
# the timed passes, never inside them
LOCALIZE_PROBE = (1, 2, 1, 0)


def budget_key(budget):
    return ",".join(map(str, budget))


def _sweep(budget):
    return lambda _: verify_localization(LocalizeBudget(*budget), deep=True)


def _localize_sweep(seed):
    rng = random.Random(seed)
    ops = [
        Op(
            f"verify_localization[{budget_key(b)}]",
            "none",
            _sweep(b),
            "pinned",
            localize_counts,
        )
        for b in LOCALIZE_BUDGETS
    ]
    return Inputs({"none": None}, _ordered(ops, {}, rng), {})


# workload name -> seed -> Inputs; why each exists is in README.md
WORKLOADS = {
    "cy-nerves": _cy_nerves,
    "segal-nerves": _segal_nerves,
    "localize-sweep": _localize_sweep,
}
