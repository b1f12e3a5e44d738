"""Regenerate expected.json: oracle answers and reference output digests.

Usage, from the repository root:

    python3 bench/make_expected.py

Every corpus instance gets its solution set (or, for decide, its count)
from ``oracle.brute_solutions_slow``, the per-assignment enumerator coded
independently of the engines under test, plus the sha256 of its DIMACS so
that a changed generator is caught instead of checked against stale
answers.  The reference digest of each workload is the combined output
digest of one untraced pass, recorded so a later run can report when the
program's output bytes change.
"""

from __future__ import annotations

import json
import platform
import sys

import run


def main() -> int:
    run.import_program()
    import workloads
    from anf_sat_lab import oracle
    from anf_sat_lab.cnf import to_dimacs

    data = {
        "provenance": {
            "instances": "anf_sat_lab.oracle.random_formula(n, m, seed), m = round(4.26 * n)",
            "answers": "anf_sat_lab.oracle.brute_solutions_slow (per-assignment clause loop)",
            "solutions": "assignment masks, bit i set when variable i is true",
            "reference_digest": "combined output digest of one untraced pass (bench/run.py)",
            "python": platform.python_implementation() + " " + platform.python_version(),
        },
        "workloads": {},
    }
    for spec in workloads.SPECS.values():
        instances = []
        for seed in spec.seeds:
            f = oracle.random_formula(spec.n, spec.m, seed)
            rec = {"seed": seed, "dimacs_sha256": workloads.dimacs_digest(to_dimacs(f))}
            rec.update(workloads.expected_answer(spec, f))
            instances.append(rec)
            print(f"{spec.name} seed {seed}: {rec['count']} solutions", file=sys.stderr)
        data["workloads"][spec.name] = {"n": spec.n, "m": spec.m, "instances": instances}
    for spec in workloads.SPECS.values():
        answers = {rec["seed"]: rec for rec in data["workloads"][spec.name]["instances"]}
        record = run.run_workload(spec, 1, 0, False, expected=answers)
        if record["failures"]:
            print(f"{spec.name}: failing ops {record['failures']}", file=sys.stderr)
        data["workloads"][spec.name]["reference_digest"] = record["digest"]
    workloads.EXPECTED_PATH.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
