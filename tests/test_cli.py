import hashlib
import json
import subprocess
import sys

import pytest

from anf_sat_lab.cli import main

from golden import EIGHT_CLAUSE, SIX_VAR, SIX_VAR_REMOVED_CLAUSE, TWO_CLAUSE


@pytest.fixture
def two_cnf(tmp_path):
    p = tmp_path / "two.cnf"
    p.write_text(TWO_CLAUSE)
    return str(p)


@pytest.fixture
def eight_cnf(tmp_path):
    p = tmp_path / "eight.cnf"
    p.write_text(EIGHT_CLAUSE)
    return str(p)


@pytest.fixture
def six_prime_cnf(tmp_path):
    lines = SIX_VAR.strip().splitlines()
    clauses = lines[1:]
    del clauses[SIX_VAR_REMOVED_CLAUSE - 1]
    p = tmp_path / "six_prime.cnf"
    p.write_text("p cnf 6 16\n" + "\n".join(clauses) + "\n")
    return str(p)


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParse:
    def test_json_output(self, two_cnf, capsys):
        code, out, _ = run_main(["parse", two_cnf], capsys)
        assert code == 0
        data = json.loads(out)
        assert data == {"n": 4, "clauses": [[1, 2, -3], [-2, 3, -4]]}

    def test_bad_file_is_io_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["parse", "/nonexistent/definitely.cnf"])
        assert exc.value.code == 74

    def test_parse_error_soft_fail(self, tmp_path, capsys):
        p = tmp_path / "bad.cnf"
        p.write_text("p cnf 3 1\n1 1 2 0\n")
        with pytest.raises(SystemExit) as exc:
            main(["parse", str(p)])
        assert exc.value.code == 1

    def test_usage_error_is_64(self):
        with pytest.raises(SystemExit) as exc:
            main(["parse"])  # missing input
        assert exc.value.code == 64


class TestBuildProfile:
    def test_build_descriptor_json(self, two_cnf, capsys):
        code, out, _ = run_main(["build", two_cnf], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "ok"
        assert data["descriptor"][0] == "a1"

    def test_build_unsat_exit(self, eight_cnf, capsys, tmp_path):
        trace = tmp_path / "t.csv"
        code, out, _ = run_main(["build", eight_cnf, "--trace", str(trace)], capsys)
        assert code == 1
        assert json.loads(out)["status"] == "unsat"
        lines = trace.read_text().splitlines()
        assert lines[0] == "# anf-sat-lab profile v1"
        assert lines[1].startswith("step,clause_index,t,len_h_t,log2_len_h_t")

    def test_profile_stdout(self, eight_cnf, capsys):
        code, out, _ = run_main(["profile", eight_cnf], capsys)
        assert code == 0
        assert out.startswith("# anf-sat-lab profile v1\n")


class TestEnumerate:
    def test_v_lines(self, two_cnf, capsys):
        code, out, _ = run_main(["enumerate", two_cnf], capsys)
        assert code == 0
        v_lines = [ln for ln in out.splitlines() if ln.startswith("v ")]
        assert len(v_lines) == 12
        assert v_lines[0] == "v -1 -2 -3 -4 0"
        assert "c 12 solutions" in out

    def test_json_mode(self, two_cnf, capsys):
        code, out, _ = run_main(["enumerate", two_cnf, "--emit", "json"], capsys)
        data = json.loads(out)
        assert data["count"] == 12 and not data["truncated"]

    def test_unsat_banner(self, eight_cnf, capsys):
        code, out, _ = run_main(["enumerate", eight_cnf], capsys)
        assert code == 0
        assert out == "s UNSATISFIABLE\n"


class TestIndicator:
    def test_clauses_form(self, two_cnf, capsys):
        code, out, _ = run_main(["indicator", two_cnf], capsys)
        assert code == 0
        from anf_sat_lab.anf import AnfPoly

        parsed = AnfPoly.parse(out.strip())
        # value 1 on the 12 solutions
        assert sum(
            parsed.eval_mask(sum(1 << (i + 1) for i, b in enumerate(bits) if b))
            for bits in __import__("itertools").product((0, 1), repeat=4)
        ) == 12

    def test_three_forms_agree_mod2(self, two_cnf, capsys):
        from anf_sat_lab.anf import AnfPoly

        outs = []
        for form in ("clauses", "descriptor", "factors"):
            code, out, _ = run_main(["indicator", two_cnf, "--form", form], capsys)
            assert code == 0
            outs.append(AnfPoly.parse(out.strip()))
        assert outs[0] == outs[1] == outs[2]

    def test_cap_stops_the_expansion(self, tmp_path, capsys):
        from anf_sat_lab.cnf import to_dimacs
        from anf_sat_lab.oracle import random_formula

        p = tmp_path / "wide.cnf"
        p.write_text(to_dimacs(random_formula(14, 8, 1)))
        code, out, err = run_main(["indicator", str(p), "--cap", "10"], capsys)
        assert code == 30
        assert out == ""
        assert len(err.splitlines()) == 1 and "cap 10" in err
        code, out, err = run_main(
            ["indicator", str(p), "--form", "descriptor", "--cap", "2"], capsys
        )
        assert (code, out, err) == (30, "", "build hit the length cap\n")


class TestCoeffDecide:
    def test_coeff_top(self, six_prime_cnf, capsys):
        code, out, _ = run_main(
            ["coeff", six_prime_cnf, "--delta", "top", "--mode", "int"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["coefficient"] % 2 == 1

    def test_coeff_explicit_delta(self, two_cnf, capsys):
        code, out, _ = run_main(["coeff", two_cnf, "--delta", "0,0,0,0"], capsys)
        data = json.loads(out)
        assert data["delta"] == [0, 0, 0, 0]

    def test_coeff_bad_delta(self, two_cnf, capsys):
        code, _, err = run_main(["coeff", two_cnf, "--delta", "1,1"], capsys)
        assert code == 64

    def test_decide_sat(self, six_prime_cnf, capsys):
        code, out, _ = run_main(["decide", "--k", "0", six_prime_cnf], capsys)
        assert code == 10
        assert out.splitlines()[0] == "s SATISFIABLE"
        data = json.loads(out.splitlines()[1])
        assert data["verdict"] == "SAT"

    def test_decide_unsat(self, eight_cnf, capsys):
        code, out, _ = run_main(["decide", "--k", "1", eight_cnf], capsys)
        assert code == 20
        assert out.splitlines()[0] == "s UNSATISFIABLE (under #S<=2^1 assumption)"


class TestFalsify:
    def test_quiet_run_exit_zero(self, capsys, tmp_path):
        code, out, _ = run_main(
            [
                "falsify",
                "--claims",
                "SWEEP_DECIDES",
                "--count",
                "3",
                "--n",
                "6",
                "--ratio",
                "4.2",
                "--seed",
                "9",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["divergences"] == 0

    def test_findings_exit_two(self, capsys, tmp_path):
        code, out, _ = run_main(
            [
                "falsify",
                "--claims",
                "MERGE_SOUNDNESS",
                "--count",
                "6",
                "--n",
                "8",
                "--ratio",
                "4.25",
                "--seed",
                "500",
                "--report-dir",
                str(tmp_path / "reports"),
            ],
            capsys,
        )
        data = json.loads(out)
        if data["divergences"]:
            assert code == 2
            assert (tmp_path / "reports" / "reports.jsonl").exists()
        else:
            assert code == 0

    def test_unknown_claim_usage_error(self, capsys):
        code, _, err = run_main(
            ["falsify", "--claims", "BOGUS", "--count", "1", "--n", "5"], capsys
        )
        assert code == 64


class TestDeterminism:
    def test_byte_identical_runs_and_thread_flag(self, two_cnf, eight_cnf):
        cases = [
            ["parse", two_cnf],
            ["build", eight_cnf],
            ["enumerate", two_cnf],
            ["indicator", two_cnf, "--form", "factors"],
            ["coeff", two_cnf],
            ["decide", "--k", "0", two_cnf],
            ["profile", eight_cnf],
            ["falsify", "--claims", "all", "--count", "2", "--n", "6", "--seed", "5"],
        ]
        for argv in cases:
            outs = set()
            for threads in ("1", "4"):
                proc = subprocess.run(
                    [sys.executable, "-m", "anf_sat_lab.cli", "--threads", threads]
                    + argv,
                    capture_output=True,
                )
                outs.add(proc.stdout)
            proc2 = subprocess.run(
                [sys.executable, "-m", "anf_sat_lab.cli", "--threads", "1"] + argv,
                capture_output=True,
            )
            outs.add(proc2.stdout)
            assert len(outs) == 1, f"non-deterministic output for {argv}"


class TestSpecExamples:
    def test_six_var_decide_k0_exit_20(self, tmp_path, capsys):
        p = tmp_path / "six.cnf"
        p.write_text(SIX_VAR)
        code, out, _ = run_main(["decide", "--k", "0", str(p)], capsys)
        assert code == 20

    def test_six_prime_decide_k0_exit_10_with_witness(self, six_prime_cnf, capsys):
        code, out, _ = run_main(["decide", "--k", "0", six_prime_cnf], capsys)
        assert code == 10
        data = json.loads(out.splitlines()[1])
        assert data["witness"] == [1, 2, 3, 4, 5, 6]

    def test_negative_k_usage_error(self, two_cnf, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decide", "--k", "-1", two_cnf])
        assert exc.value.code == 64
        assert "must be nonnegative" in capsys.readouterr().err

    def test_nonpositive_cap_usage_error(self, two_cnf):
        with pytest.raises(SystemExit) as exc:
            main(["build", two_cnf, "--cap", "0"])
        assert exc.value.code == 64


class TestPinnedBytes:
    """Argv, exit code and stdout of a seeded corpus, pinned by one sha256.

    The digest was taken before the merge and conversion refactors that
    must leave CLI output unchanged; any change to a byte printed by these
    runs changes it.
    """

    # (name, n, m, seed): SAT, UNSAT-prone and sparse instances at n <= 11
    CORPUS = [
        ("a", 5, 21, 1),
        ("b", 6, 26, 2),
        ("c", 7, 30, 3),
        ("d", 8, 12, 4),
        ("e", 8, 34, 5),
        ("f", 9, 38, 6),
        ("g", 10, 43, 7),
        ("h", 11, 20, 8),
        ("i", 11, 47, 9),
    ]
    DIGEST = "5283aa8836b43c9bea3f49956d1b8b9801ea2d80b4f5c2ab295c1cf80378e49d"

    @staticmethod
    def _runs(n):
        runs = [
            ["build", "{}", "--trace", "-"],
            ["build", "{}", "--cap", "4"],
            ["enumerate", "{}"],
            ["enumerate", "{}", "--emit", "json"],
            ["profile", "{}"],
            ["decide", "{}", "--k", "2"],
            ["coeff", "{}"],
            ["coeff", "{}", "--mode", "int", "--delta", ",".join("1" * (n - 1) + "0")],
        ]
        if n <= 8:
            runs += [
                ["indicator", "{}"],
                ["indicator", "{}", "--form", "descriptor"],
                ["indicator", "{}", "--form", "factors", "--mode", "int"],
            ]
        return runs

    def test_corpus_digest(self, tmp_path, capsys):
        from anf_sat_lab.cnf import to_dimacs
        from anf_sat_lab.oracle import random_formula

        digest = hashlib.sha256()
        for name, n, m, seed in self.CORPUS:
            path = tmp_path / f"{name}.cnf"
            path.write_text(to_dimacs(random_formula(n, m, seed)))
            for argv in self._runs(n):
                code, out, _ = run_main([a.format(path) for a in argv], capsys)
                shown = [a.format(name) for a in argv]
                digest.update(f"{shown} {code}\n{out}".encode())
        argv = ["falsify", "--count", "3", "--n", "6", "--seed", "11"]
        code, out, _ = run_main(argv, capsys)
        digest.update(f"{argv} {code}\n{out}".encode())
        assert digest.hexdigest() == self.DIGEST
