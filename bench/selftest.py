"""Self-test of the benchmark at a tiny size (n = 6), in well under a minute.

Usage, from the repository root:

    python3 bench/selftest.py

For every workload kind it checks that an untraced run emits exactly the
end-to-end metrics of BENCHMARK.json and a traced run exactly its per-layer
metrics, that both runs pass the oracle checks, that two runs with different
seeds produce the same output digest, and that the written spans are
consistent.  Then it corrupts one expected answer per answer-checked kind
and checks that the operation is counted as failed.
"""

from __future__ import annotations

import copy
import json
import sys

import run

TINY_N = 6
TINY_SEEDS = range(1, 9)


def main() -> int:
    run.import_program()
    import tracing
    import workloads
    from anf_sat_lab import oracle

    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in contract["per_layer"]}
    assert e2e == dict(run.END_TO_END), "end-to-end metrics differ from BENCHMARK.json"
    assert layer == {k: v[0] for k, v in run.PER_LAYER.items()}, "per-layer metrics differ"
    assert [w["name"] for w in contract["workloads"]] == list(workloads.SPECS)

    for full in workloads.SPECS.values():
        spec = workloads.Spec(f"{full.name}-tiny", full.kind, TINY_N, round(4.26 * TINY_N), tuple(TINY_SEEDS))
        answers = {}
        for seed in spec.seeds:
            f = oracle.random_formula(spec.n, spec.m, seed)
            answers[seed] = {"seed": seed, "dimacs_sha256": workloads.dimacs_digest(workloads.to_dimacs(f))}
            answers[seed].update(workloads.expected_answer(spec, f))

        plain = run.run_workload(spec, 1, 0.2, False, expected=answers)
        assert set(plain["metrics"]) == set(e2e), spec.name
        assert all(m["unit"] == e2e[k] for k, m in plain["metrics"].items())
        assert not plain["failures"], plain["failures"]
        assert plain["metrics"]["ok_share"]["value"] == 1.0

        traced = run.run_workload(spec, 2, 0.2, True, expected=answers)
        assert set(traced["metrics"]) == set(layer), spec.name
        assert not traced["failures"], traced["failures"]
        assert traced["digest"] == plain["digest"], f"{spec.name}: output not byte-deterministic"
        tracer = traced["tracer"]
        assert len(tracer) > 0 and not tracer.missing, tracer.missing
        path = run.OUT_DIR / f"spans_{spec.name}.bin"
        run.OUT_DIR.mkdir(exist_ok=True)
        tracer.write(path)
        header, cols = tracing.read_spans(path)
        assert header["count"] == len(tracer)
        assert all(e >= s for s, e in zip(cols["start_ns"], cols["end_ns"]))
        assert all(v["self_s"] >= 0 for v in traced["layer_times"].values())
        path.unlink()

        if spec.kind == "falsify":
            print(f"ok {spec.name}: metrics, checks, digest {plain['digest'][:12]}, spans")
            continue
        corrupted = copy.deepcopy(answers)
        # For decide, a count of at most 2^k makes any wrong verdict a failure.
        victim_seed = next(s for s in spec.seeds if corrupted[s]["count"] <= 2**workloads.DECIDE_K)
        victim = corrupted[victim_seed]
        if spec.kind == "decide":
            victim["count"] = 0 if victim["count"] else 1
        else:  # a solution over variable n+1 can never be printed
            victim["solutions"].append(1 << (spec.n + 1))
        bad = run.run_workload(spec, 3, 0.2, False, expected=corrupted)
        executions = sum(1 for o in bad["ops"] if o["seed"] == victim_seed)
        assert len(bad["failures"]) == executions, bad["failures"]
        assert {f["seed"] for f in bad["failures"]} == {victim_seed}
        assert bad["metrics"]["ok_share"]["value"] < 1.0
        print(f"ok {spec.name}: metrics, checks, digest {plain['digest'][:12]}, spans, corrupted answer caught")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
