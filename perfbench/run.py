"""Benchmark of the segalspans checkers.

    python3 perfbench/run.py --workload cy-nerves --seed 1 --seconds 25 --trace 0

Runs one workload (see workloads.py) from the root of a source checkout,
timing calls into the public functions of ``src/segalspans``.  Each pass
builds fresh inputs from the seed and runs every operation of the
workload once; passes repeat until the next one would overrun
``--seconds``.  Before each untraced pass, set-up is timed a few times in
fresh interpreters, outside that budget.  Untraced passes and set-up are
timed with calibrate.HostClock, which scales wall time to a host of
fixed speed; the wall times are reported beside them.  Every operation's report is
checked against its expected verdict, its pinned findings digest and
instance counts (expected.json), and the findings of the first pass.
With ``--trace 1`` untraced and traced passes alternate, and the
per-layer metrics of tracer.py are reported instead of the end-to-end
ones.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it, starting
with ``report:``, carries all six end-to-end figures, including those
left out of the last line because they are 0 on some workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from calibrate import HostClock

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# set-up samples taken before each untraced pass, so that they spread
# over the run as the passes do
SETUP_PER_PASS = 5


def _use_checkout_sources():
    if not (SRC / "segalspans" / "__init__.py").is_file():
        sys.exit(f"run.py: no segalspans sources at {SRC}")
    sys.path.insert(0, str(SRC))


def findings_digest(report):
    """Hash of the sorted (check, location) pairs of a report's findings."""
    pairs = sorted((f.check, repr(f.location)) for f in report.findings)
    return hashlib.sha256(repr(pairs).encode()).hexdigest()[:16]


@dataclass
class OpResult:
    name: str
    ok: object  # True / False, or None when the call raised
    digest: str
    checked: int
    skipped: int
    problems: list  # fail the run
    misses: list  # wrong verdicts of ungated operations: reported only


def judge(op, report, error, pinned):
    """Compare one operation's outcome with what is expected of it."""
    from scope import ScopeNoteMissing

    if error is not None:
        problem = f"raised {type(error).__name__}: {error}"
        return OpResult(op.name, None, "", 0, 0, [problem], [])
    problems, misses = [], []
    verdicts = problems if op.gated else misses
    checked = skipped = 0
    try:
        checked, skipped = op.counts(report)
    except ScopeNoteMissing as e:
        problems.append(str(e))
    digest = findings_digest(report)
    if op.expect == "ok" and not report.ok:
        verdicts.append(f"expected ok, got {len(report.findings)} findings")
    if op.expect == "flagged" and report.ok:
        verdicts.append("corrupted twin passed")
    pin = pinned.get(op.name, {})
    if op.expect == "pinned" and "digest" not in pin:
        problems.append("no findings digest pinned in expected.json")
    if "digest" in pin and digest != pin["digest"]:
        problems.append(
            f"findings digest {digest} ({len(report.findings)} findings), "
            f"pinned {pin['digest']} ({pin['findings']} findings)"
        )
    if checked < pin.get("instances_checked", 0):
        problems.append(f"{checked} instances checked, pinned {pin['instances_checked']}")
    if skipped > pin.get("instances_skipped", skipped):
        problems.append(f"{skipped} instances skipped, pinned {pin['instances_skipped']}")
    return OpResult(op.name, report.ok, digest, checked, skipped, problems, misses)


def check_agreement(ops, results):
    """An operation with ``agrees_with`` must give that operation's
    verdict.  Both are ungated checks of a twin, so when they disagree
    the one that passed it has missed its verdict: the disagreement is
    noted next to that miss and adds no failed operation."""
    by_name = {r.name: r for r in results}
    for op in ops:
        if op.agrees_with is None:
            continue
        mine, other = by_name[op.name], by_name[op.agrees_with]
        if mine.ok is None or other.ok is None or mine.ok == other.ok:
            continue
        passed, flagged = (mine, other) if mine.ok else (other, mine)
        passed.misses.append(f"disagrees with {flagged.name}, which flagged it")


def run_pass(inputs, pinned, clock):
    """Run every operation once, timed by ``clock``; returns [OpResult]."""
    outcomes = []
    with clock:
        for op in inputs.ops:
            try:
                report, error = op.check(inputs.objects[op.subject]), None
            except Exception as e:  # a raising checker is a failed operation
                report, error = None, e
            outcomes.append((op, report, error))
    results = [judge(*o, pinned) for o in outcomes]
    check_agreement(inputs.ops, results)
    return results


@dataclass
class Pass:
    traced: bool
    seconds: float  # wall
    nominal: float  # nominal-host seconds; None when traced
    results: list
    tracer: object = None


def measure(workload, build, seed, seconds, trace, pinned):
    """Passes until the next would overrun ``seconds``; at least one of
    each kind (untraced, and traced when ``trace``).  Without ``trace``,
    set-up samples are taken before each pass, outside the budget.

    Returns (passes, set-up samples, the inputs of the last pass).
    """
    from tracer import Tracer

    kinds = (False, True) if trace else (False,)
    passes, setup = [], []
    cost = {}  # kind -> wall seconds of its last pass, inputs included
    budget = 0.0  # wall seconds of the passes so far, inputs included
    while True:
        traced = kinds[len(passes) % len(kinds)]
        if len(passes) >= len(kinds) and budget + cost[traced] > seconds:
            break
        if not trace:
            setup += [setup_sample(workload, seed) for _ in range(SETUP_PER_PASS)]
        t0 = perf_counter()
        inputs = build(seed)
        tracer = Tracer() if traced else None
        clock = HostClock(sample=not traced)
        with tracer or nullcontext():
            results = run_pass(inputs, pinned, clock)
        passes.append(Pass(traced, clock.wall, clock.nominal, results, tracer))
        cost[traced] = perf_counter() - t0
        budget += cost[traced]
    return passes, setup, inputs


def setup_sample(workload, seed):
    """(wall, nominal-host) seconds to import segalspans and build the
    inputs, in a fresh interpreter."""
    cmd = [
        sys.executable, str(Path(__file__)), "--setup-only",
        "--workload", workload, "--seed", str(seed),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        sys.exit(f"run.py: set-up failed:\n{done.stderr}")
    wall, nominal = map(float, done.stdout.split()[-2:])
    return wall, nominal


def _setup_once(workload, seed):
    with HostClock() as clock:
        from workloads import WORKLOADS

        WORKLOADS[workload](seed)
    return clock.wall, clock.nominal


def run_probe(budget):
    """The untimed localization probe: (failed, description)."""
    from segalspans.localize import LocalizeBudget, verify_localization
    from workloads import budget_key

    t0 = perf_counter()
    try:
        rep = verify_localization(LocalizeBudget(*budget), deep=True)
    except Exception as e:  # the probe records how the sweep fails
        outcome, failed = f"raised {type(e).__name__}: {e}", 1
    else:
        outcome, failed = f"returned {len(rep.findings)} findings", 0
    took = perf_counter() - t0
    return failed, f"verify_localization[{budget_key(budget)}]: {outcome} ({took:.1f} s, untimed)"


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def check_repeatable(passes):
    """Every pass, traced or not, must give the first pass's findings for
    each operation: the inputs are equal, so the verdicts must be."""
    first = {r.name: r.digest for r in passes[0].results}
    for p in passes[1:]:
        for r in p.results:
            if r.digest != first[r.name]:
                kind = "traced" if p.traced else "untraced"
                r.problems.append(f"{kind} pass gave digest {r.digest}, first pass {first[r.name]}")


def check_reached(passes, workload_name):
    """Every per-layer target mapped to this workload records a call."""
    traced = next(p for p in passes if p.traced)
    unreached = traced.tracer.unreached(workload_name)
    if unreached:
        sys.exit(f"run.py: per-layer targets with no call on {workload_name}: {', '.join(unreached)}")


def trace_metrics(passes):
    from tracer import OVERHEAD_METRIC, metric_names

    traced = [p for p in passes if p.traced]
    per_pass = [p.tracer.metrics() for p in traced]
    out = {}
    for name, unit in metric_names():
        if name == OVERHEAD_METRIC:
            plain = statistics.median(p.seconds for p in passes if not p.traced)
            value = statistics.median(p.seconds for p in traced) - plain
        elif unit == "count":
            value = statistics.median_low(m[name] for m in per_pass)
        else:
            value = statistics.median(m[name] for m in per_pass)
        out[name] = {"value": value, "unit": unit}
    return out


END_TO_END = (
    "pass_s", "setup_s", "peak_rss_mb", "ops_failed", "instances_skipped", "instances_checked",
    "pass_wall_s", "setup_wall_s",
)
# the metrics of the last line: those never 0 on any workload, and
# times on the nominal host rather than the drifting wall clock
GATED = ("pass_s", "setup_s", "peak_rss_mb")


def _timing(xs):
    """Median with quartiles and sample count; None without samples
    (a traced run takes no set-up samples)."""
    if not xs:
        return {"value": None, "unit": "s", "samples": 0}
    q1, q3 = _quartiles(xs)
    return {"value": statistics.median(xs), "unit": "s", "samples": len(xs), "q1": q1, "q3": q3}


def end_to_end(passes, setup, peak_rss_mb, probe):
    """The six end-to-end figures, each with its unit and sample count,
    and the wall times that ``pass_s`` and ``setup_s`` are scaled from."""
    plain = [p for p in passes if not p.traced]
    results = [r for p in passes for r in p.results]
    first = passes[0].results
    probes, probe_failed = (1, probe[0]) if probe else (0, 0)
    return {
        "pass_s": _timing([p.nominal for p in plain]),
        "setup_s": _timing([nominal for _, nominal in setup]),
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "samples": 1},
        "ops_failed": {
            "value": sum(1 for r in results if r.problems or r.misses) + probe_failed,
            "unit": "count",
            "samples": len(results) + probes,
        },
        "instances_skipped": {"value": sum(r.skipped for r in first), "unit": "count", "samples": 1},
        "instances_checked": {"value": sum(r.checked for r in first), "unit": "count", "samples": 1},
        "pass_wall_s": _timing([p.seconds for p in plain]),
        "setup_wall_s": _timing([wall for wall, _ in setup]),
    }


def describe(name, seed, inputs, passes, probe, figures):
    """Human-readable lines: twins, verdicts without expectation, misses
    (once: every pass gives the first pass's verdicts) and failures."""
    plain = sum(1 for p in passes if not p.traced)
    lines = [f"workload {name}, seed {seed}, {plain} untraced and {len(passes) - plain} traced passes"]
    lines += [f"  twin {subject}: {note}" for subject, note in inputs.notes.items()]
    expect = {op.name: op.expect for op in inputs.ops}
    first = sorted(passes[0].results, key=lambda r: r.name)
    for r in first:
        if expect[r.name] == "recorded":
            lines.append(f"  recorded {r.name}: {'ok' if r.ok else 'flagged'}, no expected verdict")
    lines += [f"  MISSED {r.name}: {x} (every pass)" for r in first for x in r.misses]
    if probe:
        lines.append(f"  probe {probe[1]}")
    lines += [f"  FAILED {r.name}: {x}" for p in passes for r in p.results for x in r.problems]
    for k in END_TO_END:
        m = figures[k]
        if m["value"] is not None:
            lines.append(f"  {k:<18} {m['value']:<12.6g} {m['unit']:<6} n={m['samples']}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _use_checkout_sources()
    if args.setup_only:
        print(*map(repr, _setup_once(args.workload, args.seed)))
        return 0
    from workloads import LOCALIZE_PROBE, WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    build = WORKLOADS[args.workload]
    pinned = json.loads((HERE / "expected.json").read_text())

    passes, setup, inputs = measure(args.workload, build, args.seed, args.seconds, args.trace, pinned)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_repeatable(passes)
    if args.trace:
        check_reached(passes, args.workload)
    probe = None
    if args.workload == "localize-sweep" and not args.trace:
        probe = run_probe(LOCALIZE_PROBE)

    figures = end_to_end(passes, setup, peak_rss_mb, probe)
    print("\n".join(describe(args.workload, args.seed, inputs, passes, probe, figures)))
    print("report: " + json.dumps({"workload": args.workload, "seed": args.seed, **figures}))

    results = [r for p in passes for r in p.results]
    failed = sum(1 for r in results if r.problems)
    if args.trace:
        metrics = trace_metrics(passes)
    else:
        metrics = {k: {"value": figures[k]["value"], "unit": figures[k]["unit"]} for k in GATED}
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
