"""Per-layer tracing by wrapping the public functions of ``segalspans``.

A traced function gets a span on every call: its start and end, nested
under the innermost open span, which is its parent.  Spans are folded
into per-name totals as they close: calls, self time (the span minus the
time its child spans cover) and an item count where one is defined.
Hot leaf functions get call and item counters only, no span.

A wrapper must reach every call path.  A function is replaced wherever
a ``segalspans`` module holds it: in its own module, in each importer's
namespace (``from .finset import pullback``), and under aliases.  Call-
time imports read the module attribute, so they see the wrapper too.
Methods, ``__call__`` and ``__post_init__`` are replaced on their class.
An enumerator that returns an iterator is timed on every ``next``, and
its item count is the number of items it yields.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _len_result(args, result):
    return len(result)


def _len_first_arg(args, result):
    return len(args[0])


def _len_result_set(args, result):
    return len(result[0])


def _len_self_assignment(args, result):
    return len(args[0].assignment)


def _len_self_elements(args, result):
    return len(args[0].elements)


@dataclass(frozen=True)
class Target:
    """A traced function and the per-layer metrics it yields.

    ``stem`` names the metrics ("finset.pullback" gives
    "finset.pullback.calls" and so on); ``attr`` is the attribute path in
    the stem's module.  ``fields`` are the metrics reported; "calls" is
    always recorded, so a target mapped to a workload can be checked for
    being reached even when its calls are not reported.
    """

    stem: str
    attr: str
    span: bool
    fields: tuple
    workload: str
    count: Callable = None  # (args, result) -> items in or out


CY, SEGAL, LOC = "cy-nerves", "segal-nerves", "localize-sweep"

TARGETS = (
    # finite-set kernel under the cyclic functor
    Target("finset.fin_map_by", "fin_map_by", True, ("calls", "elements", "self_s"), CY, _len_first_arg),
    Target("finset.big_product", "big_product", True, ("calls", "elements", "self_s"), CY, _len_result_set),
    Target("finset.pullback", "pullback", True, ("calls", "pairs", "self_s"), CY, _len_result_set),
    Target("finset.FinMap.validated", "FinMap.__post_init__", False, ("calls", "elements"), CY, _len_self_assignment),
    Target("cycy.LambdaStarFunctor.action", "LambdaStarFunctor.action", True, ("calls", "self_s"), CY),
    Target("cycy.LambdaStarFunctor.value", "LambdaStarFunctor.value", True, ("calls", "self_s"), CY),
    Target("sobj.apply_lambda_op", "apply_lambda_op", True, ("calls", "self_s"), CY),
    Target("cycy.lambda_star_compose", "lambda_star_compose", True, ("calls", "self_s"), CY),
    Target("cycy.check_nondegeneracy", "check_nondegeneracy", True, ("self_s",), CY),
    # limits, validated construction and structure-map chains
    Target("finset.limit", "limit", True, ("calls", "elements", "self_s"), SEGAL, _len_result_set),
    Target("finset.FinSet.validated", "FinSet.__post_init__", False, ("calls", "elements"), SEGAL, _len_self_elements),
    Target("labels.label_key", "label_key", False, ("calls",), SEGAL),
    Target("finset.FinMap.compose", "FinMap.compose", True, ("calls", "self_s"), SEGAL),
    Target("finset.FinMap.__call__", "FinMap.__call__", False, ("calls",), SEGAL),
    Target("sobj.apply_delta_op", "apply_delta_op", True, ("calls", "self_s"), SEGAL),
    Target("spanalg.StarFunctor.action", "StarFunctor.action", True, ("calls", "self_s"), SEGAL),
    Target("finset.compose_spans", "compose_spans", True, ("calls", "self_s"), SEGAL),
    Target("sobj.validate", "validate", True, ("self_s",), SEGAL),
    # order layer and hom enumerators
    Target("orders.LinOrd.validated", "LinOrd.__post_init__", False, ("calls",), LOC),
    Target("orders.LinMap.validated", "LinMap.__post_init__", False, ("calls",), LOC),
    Target("orders.CycOrd.validated", "CycOrd.__post_init__", False, ("calls",), LOC),
    Target("orders.CycMap.validated", "CycMap.__post_init__", False, ("calls",), LOC),
    Target("orders.CycMap.compose", "CycMap.compose", True, ("calls", "self_s"), LOC),
    Target("orders.all_cyc_maps", "all_cyc_maps", True, ("calls", "maps", "self_s"), LOC),
    Target("dualities.D_on_map", "D_on_map", True, ("calls", "self_s"), LOC),
    Target("dualities.res", "res", True, ("calls", "self_s"), LOC),
    Target("cycy.all_lambda_star_mors", "all_lambda_star_mors", True, ("calls", "mors", "self_s"), LOC),
    Target("spanalg.all_delta_star_mors", "all_delta_star_mors", True, ("calls", "mors", "self_s"), LOC, _len_result),
    Target("localize.localize_morphism", "localize_morphism", True, ("calls", "self_s"), LOC),
    Target("localize.all_omega_mors", "all_omega_mors", True, ("calls", "self_s"), LOC),
    Target("localize.is_in_E", "is_in_E", True, ("calls", "self_s"), LOC),
    Target("localize.universal_factorization", "universal_factorization", True, ("calls", "self_s"), LOC),
)

OVERHEAD_METRIC = "trace.overhead_s"


def metric_names():
    """Every per-layer metric, in report order, with its unit."""
    out = [
        (f"{t.stem}.{f}", "s" if f == "self_s" else "count")
        for t in TARGETS
        for f in t.fields
    ]
    return out + [(OVERHEAD_METRIC, "s")]


def _package_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if name == "segalspans" or name.startswith("segalspans.")
    ]


class Tracer:
    """Installs wrappers for every target; removes them on ``uninstall``."""

    def __init__(self):
        self.calls = Counter()
        self.items = Counter()
        self.self_s = defaultdict(float)
        self._open = []  # child time covered so far, one entry per open span
        self._patches = []

    # -- wrappers -----------------------------------------------------------

    def _enter(self):
        self._open.append(0.0)
        return perf_counter()

    def _exit(self, stem, start):
        """Close the innermost span: add its self time, and its whole
        duration to its parent's child time."""
        took = perf_counter() - start
        self.self_s[stem] += took - self._open.pop()
        if self._open:
            self._open[-1] += took

    def _span(self, t, fn):
        calls, items, enter, exit_ = self.calls, self.items, self._enter, self._exit
        stem, count, iterate = t.stem, t.count, self._iterate

        def traced(*args, **kwargs):
            calls[stem] += 1
            start = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(stem, start)
            if hasattr(result, "__next__"):
                return iterate(stem, result)
            if count is not None:
                items[stem] += count(args, result)
            return result

        return traced

    def _iterate(self, stem, it):
        """Re-yield ``it``, each ``next`` a span of ``stem``."""
        while True:
            start = self._enter()
            try:
                x = next(it)
            except StopIteration:
                return
            finally:
                self._exit(stem, start)
            self.items[stem] += 1
            yield x

    def _counter(self, t, fn):
        calls, items, stem, count = self.calls, self.items, t.stem, t.count
        if count is None:
            def counted(*args, **kwargs):
                calls[stem] += 1
                return fn(*args, **kwargs)
        else:
            def counted(*args, **kwargs):
                calls[stem] += 1
                result = fn(*args, **kwargs)
                items[stem] += count(args, result)
                return result
        return counted

    # -- installation -------------------------------------------------------

    def install(self):
        modules = _package_modules()
        for t in TARGETS:
            module = sys.modules["segalspans." + t.stem.split(".")[0]]
            owner_name, _, name = t.attr.rpartition(".")
            wrapper_for = self._span if t.span else self._counter
            try:
                owner = getattr(module, owner_name) if owner_name else module
                fn = vars(owner)[name]
            except (AttributeError, KeyError):
                raise LookupError(f"per-layer target {t.stem}: no {t.attr} in {module.__name__}") from None
            if owner_name:
                # a method: the class is shared by every importer
                self._patch(owner, name, wrapper_for(t, fn))
                continue
            wrapped = wrapper_for(t, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except LookupError:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ------------------------------------------------------------

    def metrics(self):
        out = {}
        for t in TARGETS:
            for f in t.fields:
                if f == "calls":
                    out[f"{t.stem}.calls"] = self.calls[t.stem]
                elif f == "self_s":
                    out[f"{t.stem}.self_s"] = self.self_s[t.stem]
                else:
                    out[f"{t.stem}.{f}"] = self.items[t.stem]
        return out

    def unreached(self, workload):
        """Targets mapped to ``workload`` that recorded no call."""
        return [t.stem for t in TARGETS if t.workload == workload and not self.calls[t.stem]]
