"""Workloads of the benchmark: fixed seeded corpora, the timed operation of
each, and the check of every operation's output against the brute-force
oracle.

Each workload runs one kind of operation over a corpus of instances
``random_formula(n, m, s)`` for the instance seeds ``s`` listed in its spec.
Why each workload exists, and why the corpora are fixed, is in NOTES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from anf_sat_lab import cli, oracle
from anf_sat_lab.cnf import Formula, to_dimacs

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Exit codes each CLI operation may document for a valid instance; every
# other code, the cap exit (30) included, fails the operation.
ACCEPTED_EXIT = {"enumerate": {0}, "decide": {10, 20}, "falsify": {0, 2}}

DECIDE_K = 2

# Instance the warm-up operation runs on; its seed is outside every corpus.
WARMUP_N, WARMUP_M, WARMUP_SEED = 8, 34, 0


@dataclass(frozen=True)
class Spec:
    """One workload: operation kind, instance shape and corpus seeds."""

    name: str
    kind: str  # 'enumerate' | 'decide' | 'falsify' | 'oracle'
    n: int
    m: int
    seeds: tuple[int, ...]


def _spec(name: str, kind: str, n: int, seeds: range) -> Spec:
    return Spec(name, kind, n, round(4.26 * n), tuple(seeds))


SPECS = {
    s.name: s
    for s in (
        _spec("build-n10", "enumerate", 10, range(1, 13)),
        _spec("decide-n11", "decide", 11, range(1, 13)),
        _spec("falsify-n7", "falsify", 7, range(1, 13)),
        _spec("oracle-n15", "oracle", 15, range(1, 13)),
    )
}


@dataclass
class Op:
    """One instance of a corpus, with what its operation needs."""

    seed: int
    formula: Formula
    dimacs: str
    argv: Optional[list[str]]  # None for the in-library oracle operation
    expected: dict


@dataclass
class Outcome:
    """What one execution of an operation produced, and how long it took."""

    latency_s: float
    exit_code: Optional[int]
    stdout: str
    error: str = ""  # exception class and message when the op raised

    @property
    def digest(self) -> str:
        return hashlib.sha256(f"{self.exit_code}\n{self.stdout}".encode()).hexdigest()


def dimacs_digest(dimacs: str) -> str:
    return hashlib.sha256(dimacs.encode()).hexdigest()


def _argv(kind: str, n: int, seed: int) -> Optional[list[str]]:
    if kind == "enumerate":
        return ["enumerate", "-"]
    if kind == "decide":
        return ["decide", "--k", str(DECIDE_K), "-"]
    if kind == "falsify":
        return ["falsify", "--count", "1", "--n", str(n), "--seed", str(seed)]
    return None


def load_expected(name: str) -> dict[int, dict]:
    """Stored oracle answers of one workload, keyed by instance seed."""
    data = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    return {rec["seed"]: rec for rec in data["workloads"][name]["instances"]}


def reference_digest(name: str) -> Optional[str]:
    data = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    return data["workloads"][name].get("reference_digest")


def expected_answer(spec: Spec, f: Formula) -> dict:
    """Ground truth for one instance from the independently coded enumerator."""
    sols = oracle.brute_solutions_slow(f)
    rec: dict = {"count": sols.sigma}
    if spec.kind in ("enumerate", "oracle"):
        rec["solutions"] = sorted(sols.masks())
    return rec


def prepare(spec: Spec, expected: dict[int, dict]) -> list[Op]:
    """Generate the corpus and pair each instance with its stored answer.

    An instance whose DIMACS differs from the one the answer was computed
    for raises, because the answer would no longer apply to it.
    """
    ops = []
    for seed in spec.seeds:
        f = oracle.random_formula(spec.n, spec.m, seed)
        dimacs = to_dimacs(f)
        rec = expected[seed]
        if rec["dimacs_sha256"] != dimacs_digest(dimacs):
            raise RuntimeError(
                f"{spec.name}: instance seed {seed} differs from the stored one"
            )
        ops.append(Op(seed, f, dimacs, _argv(spec.kind, spec.n, seed), rec))
    return ops


def run_cli(argv: list[str], stdin_text: str) -> tuple[Optional[int], str]:
    """Run the CLI in-process with the instance on stdin; capture stdout."""
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue()


def execute(op: Op) -> Outcome:
    """Run one operation; only the operation itself is inside the timing."""
    start = time.perf_counter()
    try:
        if op.argv is None:
            sols = oracle.brute_solutions(op.formula)
            latency = time.perf_counter() - start
            return Outcome(latency, 0, sols.to_dimacs_v_lines())
        code, stdout = run_cli(op.argv, op.dimacs)
    except Exception as exc:  # an engine exception fails the op, not the run
        return Outcome(time.perf_counter() - start, None, "", f"{type(exc).__name__}: {exc}")
    return Outcome(time.perf_counter() - start, code, stdout)


def warm_up(spec: Spec, ops: list[Op]) -> None:
    """Pay first-call costs before timing: one small op of the same kind.

    The oracle workload instead fills the per-n truth-column cache, which
    every brute-force call at that n would otherwise pay on first use.
    """
    if spec.kind == "oracle":
        oracle.brute_column(ops[0].formula)
        return
    f = oracle.random_formula(WARMUP_N, WARMUP_M, WARMUP_SEED)
    argv = _argv(spec.kind, WARMUP_N, WARMUP_SEED)
    execute(Op(WARMUP_SEED, f, to_dimacs(f), argv, {}))


def _printed_masks(stdout: str) -> Optional[set[int]]:
    """Fixed points printed as 'v' lines; None when UNSAT was printed."""
    if stdout.startswith("s UNSATISFIABLE"):
        return None
    masks = set()
    for line in stdout.splitlines():
        if line.startswith("v "):
            mask = 0
            for lit in line.split()[1:-1]:
                if int(lit) > 0:
                    mask |= 1 << int(lit)
            masks.add(mask)
    return masks


def check(spec: Spec, op: Op, out: Outcome) -> tuple[Optional[str], int]:
    """Judge one outcome: (failure reason or None, spurious fixed points)."""
    if out.error:
        return out.error, 0
    if spec.kind == "oracle":
        got = _printed_masks(out.stdout) or set()
        if got != set(op.expected["solutions"]):
            return f"solution set of size {len(got)} differs from the oracle's", 0
        return None, 0
    if out.exit_code not in ACCEPTED_EXIT[spec.kind]:
        return f"exit code {out.exit_code}", 0
    if spec.kind == "enumerate":
        expected = set(op.expected["solutions"])
        printed = _printed_masks(out.stdout)
        if printed is None:
            return ("UNSAT printed for a satisfiable instance", 0) if expected else (None, 0)
        missing = expected - printed
        if missing:
            return f"{len(missing)} oracle solutions missing from the v lines", 0
        return None, len(printed - expected)
    if spec.kind == "decide":
        sat = out.exit_code == 10
        if out.stdout.startswith("s SATISFIABLE") != sat:
            return "headline contradicts the exit code", 0
        count = op.expected["count"]
        if sat and count == 0:
            return "SAT verdict on a formula without solutions", 0
        if count <= 2**DECIDE_K and sat != (count > 0):
            return f"UNSAT verdict with {count} <= {2**DECIDE_K} solutions", 0
        return None, 0
    try:
        json.loads(out.stdout)
    except ValueError:
        return "falsify output is not JSON", 0
    return None, 0
