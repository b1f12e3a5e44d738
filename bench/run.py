"""Seeded benchmark of anf-sat-lab: one workload per run, closed loop, one client.

Usage, from the repository root:

    python3 bench/run.py --workload build-n10 --seed 1 --seconds 30 --trace 0

The run sets up its workload five times, reporting the median: a set-up
imports the program from ``src/`` afresh, generates the corpus and warms
up.  Then it executes every instance of the workload's corpus once, and
more while they fit in ``--seconds``, in orders drawn from ``--seed``.
Every operation's output is checked against the stored oracle answers.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it measures untraced for half the time, then traces one pass and reports
the per-layer metrics, including the tracing overhead.  Human-readable
lines come first; the last line of stdout is one JSON object.  Details and
spans go to ``bench/out/``.  NOTES.md explains the design.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 5
CLAIMS = ("MERGE_SOUNDNESS", "INDICATOR6", "SWEEP_DECIDES")

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
)

# Layer metric -> (unit, what it reads, key): a span field ("calls",
# "self_s", "total_s") of the spans named key, or the counter named key.
PER_LAYER = {
    "anf.mul.calls": ("count", "calls", "anf.mul"),
    "anf.mul.term_pairs": ("count", "counter", "anf.mul.term_pairs"),
    "anf.mul.self_s": ("s", "self_s", "anf.mul"),
    "anf.substitute.calls": ("count", "calls", "anf.substitute"),
    "anf.substitute.self_s": ("s", "self_s", "anf.substitute"),
    "anf.restrict.calls": ("count", "calls", "anf.restrict"),
    "anf.restrict.self_s": ("s", "self_s", "anf.restrict"),
    "anf.truth_column.calls": ("count", "calls", "anf.truth_column"),
    "anf.truth_column.self_s": ("s", "self_s", "anf.truth_column"),
    "descriptor.build.self_s": ("s", "self_s", "descriptor.build"),
    "descriptor.merge.calls": ("count", "calls", "descriptor.merge"),
    "descriptor.merge.self_s": ("s", "self_s", "descriptor.merge"),
    "descriptor.merge_poly.calls": ("count", "calls", "descriptor.merge_poly"),
    "descriptor.merge_poly.self_s": ("s", "self_s", "descriptor.merge_poly"),
    "descriptor.situation_A": ("count", "counter", "descriptor.situation_A"),
    "descriptor.situation_B": ("count", "counter", "descriptor.situation_B"),
    "descriptor.situation_C": ("count", "counter", "descriptor.situation_C"),
    "descriptor.cascade_depth_sum": ("count", "counter", "descriptor.cascade_depth_sum"),
    "descriptor.max_len": ("terms", "counter", "descriptor.max_len"),
    "solutions.nodes": ("count", "counter", "solutions.nodes"),
    "solutions.list.self_s": ("s", "self_s", "solutions.list_solutions"),
    "solutions.spurious_points": ("count", "counter", "solutions.spurious_points"),
    "solutions.exact_share": ("share", "counter", "solutions.exact_share"),
    "coeffs.queries": ("count", "counter", "coeffs.queries"),
    "coeffs.memo_masks": ("count", "counter", "coeffs.memo_masks"),
    "coeffs.max_frontier": ("count", "counter", "coeffs.max_frontier"),
    "coeffs.sweep.self_s": ("s", "self_s", "coeffs.sweep"),
    "indicator.factor_sequence.self_s": ("s", "self_s", "indicator.factor_sequence"),
    "oracle.brute_solutions.self_s": ("s", "self_s", "oracle.brute_solutions"),
    "oracle.brute_column.self_s": ("s", "self_s", "oracle.brute_column"),
    "oracle.var_columns_s": ("s", "counter", "oracle.var_columns_s"),
    **{
        f"falsify.check.{claim}.{what}": (unit, how, f"falsify.check.{claim}")
        for claim in CLAIMS
        for what, unit, how in (("calls", "count", "calls"), ("self_s", "s", "self_s"))
    },
    "falsify.divergences": ("count", "counter", "falsify.divergences"),
    "falsify.minimize.calls": ("count", "calls", "falsify.minimize"),
    "falsify.minimize.candidates": ("count", "counter", "falsify.minimize.candidates"),
    "falsify.minimize.self_s": ("s", "self_s", "falsify.minimize"),
    "falsify.minimize.total_s": ("s", "total_s", "falsify.minimize"),
    "cnf.self_s": ("s", "counter", "cnf.self_s"),
    "cli.format.self_s": ("s", "self_s", "cli.main"),
    "trace.overhead_ops_per_s": ("1/s", "counter", "trace.overhead_ops_per_s"),
    "trace.overhead_share": ("share", "counter", "trace.overhead_share"),
    "trace.spans": ("count", "counter", "trace.spans"),
}


# Top-level modules a set-up imports afresh: the program, and the modules of
# the benchmark that hold references into it.
FRESH_MODULES = ("anf_sat_lab", "tracing", "workloads")


def import_program() -> float:
    """Import the program from this checkout's ``src/``; return the seconds taken.

    Modules imported before are dropped first, so every call executes the
    module code of the program again and starts with its caches empty, as a
    new process would.
    """
    package = ROOT / "src" / "anf_sat_lab" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"bench: program source not found at {package.parent}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for name in [m for m in sys.modules if m.split(".")[0] in FRESH_MODULES]:
        del sys.modules[name]
    start = time.perf_counter()
    import anf_sat_lab
    import tracing  # noqa: F401  (imports every layer the trace patches)
    import workloads  # noqa: F401

    elapsed = time.perf_counter() - start
    if Path(anf_sat_lab.__file__).resolve() != package.resolve():
        raise SystemExit(f"bench: imported anf_sat_lab from {anf_sat_lab.__file__}")
    return elapsed


def set_up(spec, expected):
    """Instance generation, answer loading and warm-up: returns the ops."""
    import workloads

    answers = expected if expected is not None else workloads.load_expected(spec.name)
    ops = workloads.prepare(spec, answers)
    workloads.warm_up(spec, ops)
    return ops


def run_ops(ops, rng, seconds, tracer=None):
    """Execute every op once, then more, in seeded order, within ``seconds``.

    The first pass over the corpus always completes.  After it, ops keep
    running in freshly shuffled orders while the next one, judged by its
    previous latency, still ends within ``seconds``.  Returns [(op, outcome)]
    in execution order and the elapsed seconds.
    """
    import tracing
    import workloads

    executed, last = [], {}
    began = time.perf_counter()
    while True:
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            elapsed = time.perf_counter() - began
            if len(last) == len(ops) and elapsed + last[op.seed] > seconds:
                return executed, elapsed
            # Each op starts with the collector's counts at zero, as in a new
            # CLI process, so when it collects does not depend on earlier ops.
            gc.collect()
            if tracer is not None:
                tracer.current_op[0] = len(executed)
            out = workloads.execute(op)
            if tracer is not None:
                tracer.current_op[0] = tracing.NO_OP
            last[op.seed] = out.latency_s
            executed.append((op, out))


def instance_latencies(executed, pick=min) -> list[float]:
    """Per instance, ``pick`` over the latencies of its executions in the run.

    Timings use the fastest (``min``).  The computation is deterministic, so
    a slower execution of the same instance measures interference from
    other work on the machine, not the program; the fastest of several
    keeps a burst of interference out of the metric.
    """
    by_seed: dict[int, list[float]] = {}
    for op, out in executed:
        by_seed.setdefault(op.seed, []).append(out.latency_s)
    return [pick(v) for v in by_seed.values()]


def pass_rate(latencies: list[float]) -> float:
    """Operations per second of one pass at the given per-instance latencies."""
    return len(latencies) / sum(latencies)


def judge(spec, executed):
    """Check every outcome; an op whose output differs between executions fails."""
    import workloads

    first_digest: dict[int, str] = {}
    failures, spurious, exact = [], 0, 0
    for index, (op, out) in enumerate(executed):
        reason, extra = workloads.check(spec, op, out)
        digest = first_digest.setdefault(op.seed, out.digest)
        if reason is None and out.digest != digest:
            reason = "output differs from an earlier execution of the same instance"
        if reason is not None:
            failures.append({"op_index": index, "seed": op.seed, "reason": reason})
        elif spec.kind == "enumerate":
            spurious += extra
            exact += op.expected["count"]
    combined = hashlib.sha256(
        "".join(f"{s}:{first_digest[s]}\n" for s in spec.seeds if s in first_digest).encode()
    ).hexdigest()
    return failures, spurious, exact, combined


def layer_metrics(spec, tracer, spurious, exact, untraced_rate, traced_rate):
    """The PER_LAYER metrics of one traced pass, and the per-span-name times."""
    times = tracer.layer_times()
    setup_times = tracer.layer_times(setup=True)
    c = dict(tracer.counters)
    c["solutions.spurious_points"] = spurious
    if spec.kind == "enumerate":
        printed = exact + spurious
        c["solutions.exact_share"] = exact / printed if printed else 1.0
    c["oracle.var_columns_s"] = sum(
        t.get("oracle.var_columns", {}).get("total_s", 0.0) for t in (times, setup_times)
    )
    c["cnf.self_s"] = sum(v["self_s"] for k, v in times.items() if k.startswith("cnf."))
    c["trace.overhead_ops_per_s"] = traced_rate - untraced_rate
    c["trace.overhead_share"] = 1.0 - traced_rate / untraced_rate
    c["trace.spans"] = len(tracer)
    metrics = {}
    for name, (unit, how, key) in PER_LAYER.items():
        value = c.get(key, 0) if how == "counter" else times.get(key, {}).get(how, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, times


def run_workload(spec, seed, seconds, trace, expected=None):
    """Set up, measure and check one workload; return the full result record.

    Each set-up imports the program afresh.  ``expected`` replaces the
    stored oracle answers.
    """
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_program()
        ops = set_up(spec, expected)
        setup_times.append(time.perf_counter() - start)
    rng = random.Random(seed)
    executed, elapsed = run_ops(ops, rng, seconds / 2 if trace else seconds)
    record = {"setup_times_s": setup_times, "measured_s": elapsed}
    if trace:
        # One traced execution per instance: compare it with a typical,
        # not the fastest, untraced execution.
        untraced_rate = pass_rate(instance_latencies(executed, statistics.median))
        import_program()
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            ops = set_up(spec, expected)
            tracer.counters.clear()  # counts cover the traced pass only
            traced, record["traced_s"] = run_ops(ops, rng, 0, tracer)
        finally:
            tracer.uninstall()
        _, spurious, exact, _ = judge(spec, traced)
        traced_rate = pass_rate(instance_latencies(traced))
        metrics, record["layer_times"] = layer_metrics(
            spec, tracer, spurious, exact, untraced_rate, traced_rate
        )
        record["unpatched"] = tracer.missing
        record["tracer"] = tracer
        executed += traced
    failures, _, _, digest = judge(spec, executed)
    if not trace:
        best = instance_latencies(executed)
        metrics = {
            "ops_per_s": pass_rate(best),
            "latency_p50_ms": statistics.median(best) * 1e3,
            "latency_p90_ms": statistics.quantiles(best, n=10, method="inclusive")[-1] * 1e3,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_share": 1.0 - len(failures) / len(executed),
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    record.update(
        workload=spec.name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        attempted=len(executed),
        failures=failures,
        digest=digest,
        metrics=metrics,
        ops=[
            {
                "op_index": i,
                "seed": op.seed,
                "latency_ms": out.latency_s * 1e3,
                "exit_code": out.exit_code,
                "digest": out.digest,
            }
            for i, (op, out) in enumerate(executed)
        ],
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.SPECS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.SPECS)}")
    spec = workloads.SPECS[args.workload]
    record = run_workload(spec, args.seed, args.seconds, bool(args.trace))
    import workloads

    reference = workloads.reference_digest(spec.name)
    record["reference_digest"] = reference
    record["digest_matches_reference"] = record["digest"] == reference

    OUT_DIR.mkdir(exist_ok=True)
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans_{spec.name}.bin")
    record["machine"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_implementation() + " " + platform.python_version(),
    }
    out_path = OUT_DIR / f"BENCH_{spec.name}_seed{args.seed}_trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(
        f"workload {spec.name}  seed {args.seed}  instances {len(spec.seeds)}"
        f"  executions {record['attempted']}  measured {record['measured_s']:.1f} s"
    )
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    note = "matches reference" if record["digest_matches_reference"] else f"CHANGED from reference {reference}"
    print(f"output digest {record['digest']} ({note})")
    for name in record.get("unpatched", ()):
        print(f"warning: trace target {name} not found; its layer metrics read 0")
    for fail in record["failures"]:
        print(f"FAILED op {fail['op_index']} (instance seed {fail['seed']}): {fail['reason']}")
    print(f"details in {out_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not record["failures"],
                "attempted": record["attempted"],
                "failed": len(record["failures"]),
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
