"""Span tracing from outside the program: wrap the names callers look up.

Every wrapped call records one span (name, start, end, parent span, op id)
in flat in-memory arrays; counters are taken at the same boundaries.
Nothing is patched until ``install`` is called, so an untraced run executes
the program unmodified.  Self times are computed from the spans afterwards:
a span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

from anf_sat_lab import anf, cli, coeffs, descriptor, falsify, indicator, oracle
from anf_sat_lab.solutions import SearchStats

NO_PARENT = -1  # parent of a root span
NO_OP = -1  # op id of a span recorded outside any timed operation


class Tracer:
    """Spans and counters of one traced phase, plus the patches that feed them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: Counter = Counter()
        self.current_op = [NO_OP]
        self.missing: list[str] = []  # patch targets the program no longer has
        self._stack = [NO_PARENT]
        self._undo: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def wrap(self, fn: Callable, name: str, before=None, after=None) -> Callable:
        """Return ``fn`` recording a span per call, with optional hooks.

        ``before(args, kwargs)`` returns the (args, kwargs) to call with;
        ``after(result, args, kwargs)`` runs once the span has ended.
        """
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, ops = self.name_id, self.parent, self.op_id
        starts, ends, stack, current_op = self.start, self.end, self._stack, self.current_op
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(current_op[0])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` (module global, class attribute or dict key)."""
        is_dict = isinstance(owner, dict)
        present = attr in owner if is_dict else hasattr(owner, attr)
        if not present:
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            return
        original = owner[attr] if is_dict else getattr(owner, attr)
        wrapped = self.wrap(original, name, before, after)
        if is_dict:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        """Patch every layer boundary the benchmark's operations cross."""
        c = self.counters

        def count_mul(args, kwargs):
            c["anf.mul.term_pairs"] += len(args[0]) * len(args[1])
            return args, kwargs

        def with_search_stats(args, kwargs):
            if kwargs.get("stats") is None:
                kwargs = {**kwargs, "stats": SearchStats()}
            return args, kwargs

        def after_list(result, args, kwargs):
            c["solutions.nodes"] += kwargs["stats"].nodes

        def after_build(result, args, kwargs):
            for step in result.trace.steps:
                c[f"descriptor.situation_{step.situation}"] += 1
                c["descriptor.cascade_depth_sum"] += step.recursion_depth
                c["descriptor.max_len"] = max(c["descriptor.max_len"], max(step.lens, default=0))

        def after_sweep(result, args, kwargs):
            c["coeffs.queries"] += result.queries
            c["coeffs.memo_masks"] += sum(result.frontier_sizes)
            c["coeffs.max_frontier"] = max(c["coeffs.max_frontier"], result.max_frontier)

        def after_falsify(result, args, kwargs):
            c["falsify.divergences"] += result[1].divergences

        def counting(diverges):
            def counted(candidate):
                c["falsify.minimize.candidates"] += 1
                return diverges(candidate)

            return counted

        def count_candidates(args, kwargs):
            if "diverges" in kwargs:
                return args, {**kwargs, "diverges": counting(kwargs["diverges"])}
            return (args[0], counting(args[1]), *args[2:]), kwargs

        self.patch(cli, "main", "cli.main")
        for name in ("__mul__", "restrict", "substitute", "truth_column"):
            label = "mul" if name == "__mul__" else name
            self.patch(anf.AnfPoly, name, f"anf.{label}", count_mul if label == "mul" else None)
        for module in (anf, oracle):
            self.patch(module, "var_columns", "oracle.var_columns")
        for module in (cli, falsify, indicator):
            self.patch(module, "build", "descriptor.build", after=after_build)
        self.patch(descriptor, "merge", "descriptor.merge")
        self.patch(descriptor, "merge_poly", "descriptor.merge_poly")
        self.patch(cli, "list_solutions", "solutions.list_solutions", with_search_stats, after_list)
        for module in (cli, falsify):
            self.patch(module, "decide_sat_bounded", "coeffs.decide_sat_bounded")
        self.patch(coeffs, "sweep", "coeffs.sweep", after=after_sweep)
        for module in (cli, coeffs, falsify):
            self.patch(module, "factor_sequence", "indicator.factor_sequence")
        self.patch(oracle, "brute_solutions", "oracle.brute_solutions")
        for module in (oracle, falsify):
            self.patch(module, "brute_column", "oracle.brute_column")
        self.patch(cli, "parse_dimacs", "cnf.parse_dimacs")
        for module in (cli, coeffs, falsify):
            self.patch(module, "sort_clauses", "cnf.sort_clauses")
        self.patch(coeffs, "relabel_by_frequency", "cnf.relabel_by_frequency")
        self.patch(indicator, "split_plus_minus", "cnf.split_plus_minus")
        self.patch(cli, "falsify", "falsify.falsify", after=after_falsify)
        self.patch(falsify, "minimize_formula", "falsify.minimize", count_candidates)
        checkers = getattr(falsify, "_CHECKERS", None)
        if checkers is None:
            self.missing.append("falsify._CHECKERS")
        else:
            for claim in list(checkers):
                self.patch(checkers, claim, f"falsify.check.{claim}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # --- analysis --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name_id)

    def layer_times(self, setup: bool = False) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        Covers the spans of timed operations, or with ``setup`` those
        recorded outside any operation.
        """
        count = len(self.name_id)
        child = array("q", [0]) * count
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(count):
            p = parents[i]
            if p != NO_PARENT:
                child[p] += ends[i] - starts[i]
        totals = [0] * len(self.names)
        selfs = [0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(count):
            if (self.op_id[i] == NO_OP) != setup:
                continue
            nid = self.name_id[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            totals[nid] += dur
            selfs[nid] += dur - child[i]
        return {
            name: {"calls": calls[nid], "total_s": totals[nid] / 1e9, "self_s": selfs[nid] / 1e9}
            for nid, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """One JSON header line, then the five columns as raw arrays."""
        header = {
            "format": "anf-sat-lab bench spans v1",
            "names": self.names,
            "count": len(self),
            "columns": [
                ["name_id", "i"],
                ["parent", "i"],
                ["op_id", "i"],
                ["start_ns", "q"],
                ["end_ns", "q"],
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name_id, self.parent, self.op_id, self.start, self.end):
                col.tofile(fh)


def read_spans(path: Path) -> tuple[dict, dict[str, array]]:
    """Load a spans file written by ``Tracer.write``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for name, code in header["columns"]:
            col = array(code)
            col.fromfile(fh, header["count"])
            cols[name] = col
    return header, cols

