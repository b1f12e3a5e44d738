import argparse
import hashlib
import json
import os
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


def run_caught(argv, capsys):
    """run_main with argparse's exits caught: their code is the exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
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

    @pytest.mark.parametrize("source", ["path", "stdin"])
    def test_undecodable_input_is_parse_error(self, tmp_path, source):
        p = tmp_path / "bad.cnf"
        p.write_bytes(b"p cnf 3 1\n1 2 \xff3 0\n")
        argv = [sys.executable, "-m", "anf_sat_lab.cli", "parse"]
        with open(p, "rb") as fh:
            proc = subprocess.run(
                argv + [str(p) if source == "path" else "-"],
                stdin=fh,
                capture_output=True,
                env=dict(os.environ, PYTHONIOENCODING="utf-8"),
            )
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"parse error: ")
        assert proc.stderr.count(b"\n") == 1

    @pytest.mark.parametrize("locale", ["default", "C"])
    def test_stdin_decodes_as_strictly_as_a_path(self, tmp_path, locale):
        # Under a C or POSIX locale Python reads stdin with surrogateescape,
        # which would let this Latin-1 comment through.
        p = tmp_path / "latin1.cnf"
        p.write_bytes(b"c caf\xe9\np cnf 3 1\n1 2 3 0\n")
        env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("LC_ALL", "LC_CTYPE", "LANG", "PYTHONIOENCODING", "PYTHONUTF8")
        }
        if locale == "C":
            env["LC_ALL"] = "C"
        argv = [sys.executable, "-m", "anf_sat_lab.cli", "enumerate"]
        from_path = subprocess.run(argv + [str(p)], capture_output=True, env=env)
        with open(p, "rb") as fh:
            from_stdin = subprocess.run(argv + ["-"], stdin=fh, capture_output=True, env=env)
        assert from_path.stderr == (
            b"parse error: 'utf-8' codec can't decode byte 0xe9 in position 5: "
            b"invalid continuation byte\n"
        )
        assert (from_stdin.returncode, from_stdin.stdout) == (1, b"")
        assert from_stdin.stderr == from_path.stderr


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

    def test_zero_variables(self, tmp_path, capsys):
        p = tmp_path / "empty.cnf"
        p.write_text("p cnf 0 0\n")
        code, out, _ = run_main(["enumerate", str(p)], capsys)
        assert code == 0
        assert out == "v 0\nc 1 solutions\n"


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

    def test_unwritable_report_dir_is_io_error(self, capsys, tmp_path, monkeypatch):
        import anf_sat_lab.falsify as fz

        # a fake divergence, so that there are reports to write
        monkeypatch.setitem(fz._CHECKERS, "MERGE_SOUNDNESS", lambda f: ("x", "y"))
        (tmp_path / "file").write_text("")
        report_dir = str(tmp_path / "file" / "reports")  # parent is not a directory
        code, out, err = run_main(
            [
                "falsify",
                "--claims",
                "MERGE_SOUNDNESS",
                "--count",
                "1",
                "--n",
                "5",
                "--report-dir",
                report_dir,
            ],
            capsys,
        )
        assert code == 74 and out == ""
        assert err.startswith(f"cannot write {report_dir}: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_unknown_claim_usage_error(self, capsys):
        code, _, err = run_main(
            ["falsify", "--claims", "BOGUS", "--count", "1", "--n", "5"], capsys
        )
        assert code == 64

    def test_repeated_claim_usage_error(self, capsys):
        code, out, err = run_main(
            ["falsify", "--claims", "MERGE_SOUNDNESS,MERGE_SOUNDNESS", "--count", "3", "--n", "7"],
            capsys,
        )
        assert (code, out, err) == (64, "", "repeated claim id 'MERGE_SOUNDNESS'\n")


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
    runs changes it.  It was re-pinned when `enumerate` began dropping
    fixed points that are not solutions (and reporting how many) and
    `falsify` began reporting `skipped_by_cause`; with those two reverted
    the digest before, 5283aa88..., comes back.  It was re-pinned again
    when the cascade began adding dead prefixes to its residual, which
    made every build exact (b1b1b02e... before).
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
    DIGEST = "4c81b30f047159f7cf447db632bb0722e369822bf932a4a9fb31b541185e889c"

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


README_REPRODUCER = "p cnf 6 3\n-1 3 -5 0\n4 5 -6 0\n-1 -2 6 0\n"


@pytest.fixture
def wide_cnf(tmp_path):
    from anf_sat_lab.cnf import to_dimacs
    from anf_sat_lab.oracle import random_formula

    p = tmp_path / "wide.cnf"
    p.write_text(to_dimacs(random_formula(14, 8, 1)))
    return str(p)


def _raiser(exc):
    def raise_it(*args, **kwargs):
        raise exc

    return raise_it


class TestEngineBugExit:
    """Every command maps an engine bug to exit 70 with one stderr line."""

    @pytest.mark.parametrize(
        "argv, target, exc",
        [
            (["build"], "anf_sat_lab.cli.build", "InvariantViolation"),
            (["enumerate"], "anf_sat_lab.cli.build", "InvariantViolation"),
            (["profile"], "anf_sat_lab.cli.build", "InvariantViolation"),
            (["indicator"], "anf_sat_lab.cli.indicator_from_clauses", "InvariantViolation"),
            (["indicator", "--form", "descriptor"], "anf_sat_lab.cli.build", "InvariantViolation"),
            (["indicator", "--form", "factors"], "anf_sat_lab.indicator._one_sided_entry", "InvariantViolation"),
            (["coeff"], "anf_sat_lab.indicator._one_sided_entry", "InvariantViolation"),
            (["decide", "--k", "1"], "anf_sat_lab.indicator._one_sided_entry", "InvariantViolation"),
        ],
    )
    def test_command_exits_70(self, argv, target, exc, two_cnf, monkeypatch, capsys):
        from anf_sat_lab import errors

        monkeypatch.setattr(target, _raiser(getattr(errors, exc)("planted")))
        code, out, err = run_main([argv[0], two_cnf, *argv[1:]], capsys)
        assert (code, out, err) == (70, "", f"engine bug: {exc}: planted\n")

    def test_falsify_check_exits_70(self, monkeypatch, capsys):
        import anf_sat_lab.falsify as fz
        from anf_sat_lab.errors import InvariantViolation

        monkeypatch.setitem(
            fz._CHECKERS, "MERGE_SOUNDNESS", _raiser(InvariantViolation("planted"))
        )
        code, out, err = run_main(
            ["falsify", "--claims", "MERGE_SOUNDNESS", "--count", "2", "--n", "6"], capsys
        )
        assert (code, out, err) == (70, "", "engine bug: InvariantViolation: planted\n")

    def test_falsify_campaign_error_is_no_usage_error(self, two_cnf, monkeypatch, capsys):
        # Only falsify's own parameter checks exit 64; an error raised inside the
        # campaign leaves main as the same error does from decide.
        import anf_sat_lab.falsify as fz

        planted = ValueError("factor 3 uses variables above 3")
        monkeypatch.setitem(fz._CHECKERS, "SWEEP_DECIDES", _raiser(planted))
        monkeypatch.setattr("anf_sat_lab.cli.decide_sat_bounded", _raiser(planted))
        for argv in (
            ["falsify", "--count", "1", "--n", "7", "--claims", "SWEEP_DECIDES"],
            ["decide", "--k", "1", two_cnf],
        ):
            with pytest.raises(ValueError) as exc:
                main(argv)
            assert exc.value is planted
            assert capsys.readouterr().out == ""

    def test_falsify_campaign_os_error_is_no_io_error(self, monkeypatch, capsys, tmp_path):
        # Only writing the reports exits 74; an OSError raised inside the
        # campaign leaves main as it was raised.
        import anf_sat_lab.falsify as fz

        planted = FileNotFoundError("planted in a checker")
        monkeypatch.setitem(fz._CHECKERS, "SWEEP_DECIDES", _raiser(planted))
        argv = ["falsify", "--count", "1", "--n", "7", "--claims", "SWEEP_DECIDES"]
        with pytest.raises(FileNotFoundError) as exc:
            main([*argv, "--report-dir", str(tmp_path / "reports")])
        assert exc.value is planted
        assert capsys.readouterr() == ("", "")
        assert not (tmp_path / "reports").exists()

    def test_falsify_minimizer_exits_70(self, monkeypatch, capsys):
        import anf_sat_lab.falsify as fz
        from anf_sat_lab.errors import InvariantViolation

        def checker(f):
            if f.m < 26:  # the instance has 26 clauses, every candidate fewer
                raise InvariantViolation("planted in a candidate")
            return ("expected", "got")

        monkeypatch.setitem(fz._CHECKERS, "MERGE_SOUNDNESS", checker)
        code, out, err = run_main(
            ["falsify", "--claims", "MERGE_SOUNDNESS", "--count", "1", "--n", "6"], capsys
        )
        assert (code, out) == (70, "")
        assert err == "engine bug: InvariantViolation: planted in a candidate\n"


class TestFailureExits:
    @pytest.mark.parametrize("extra", [["--n", "2"], ["--n", "3", "--ratio", "10"]])
    def test_impossible_generation_is_usage_error(self, extra, capsys):
        code, out, err = run_main(["falsify", "--count", "1", *extra], capsys)
        assert (code, out) == (64, "")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("ratio", ["-3", "0", "nan", "inf"])
    def test_bad_ratio_usage_error(self, ratio, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["falsify", "--count", "1", "--n", "6", "--ratio", ratio])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (64, "")
        # argparse's usage block, then one error line
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == [
            f"anf-sat-lab falsify: error: argument --ratio: must be a positive number, got {ratio}"
        ]

    def test_cap_paths_keep_their_bytes(self, wide_cnf, tmp_path, capsys):
        from anf_sat_lab.cnf import to_dimacs
        from anf_sat_lab.oracle import random_formula

        dense = tmp_path / "dense.cnf"
        dense.write_text(to_dimacs(random_formula(8, 34, 5)))
        cases = [
            (["enumerate", wide_cnf, "--cap", "2"], "build hit the length cap\n"),
            (
                ["indicator", wide_cnf, "--form", "factors", "--cap", "10"],
                "indicator expansion reached 14 terms (cap 10)\n",
            ),
            (
                ["coeff", str(dense), "--frontier-cap", "1"],
                "frontier at level 3 holds 2 masks (cap 1)\n",
            ),
        ]
        for argv, err_bytes in cases:
            assert run_main(argv, capsys) == (30, "", err_bytes)
        code, out, err = run_main(
            ["decide", str(dense), "--k", "2", "--frontier-cap", "1"], capsys
        )
        assert (code, err) == (30, "")
        headline, report = out.splitlines()
        assert headline == "s UNKNOWN (resource cap)"
        assert json.loads(report)["verdict"] == "UNKNOWN"
        assert json.loads(report)["capped"] is True

    def test_capped_one_sided_build_is_a_cap(self, two_cnf, monkeypatch, capsys):
        import anf_sat_lab.indicator as ind

        monkeypatch.setattr(ind, "DEFAULT_LEN_CAP", 1)
        code, out, err = run_main(["coeff", two_cnf], capsys)
        assert (code, out) == (30, "")
        assert err == "one-sided group at t=3 hit the length cap\n"

    def test_skipped_by_cause(self, monkeypatch, capsys):
        import anf_sat_lab.falsify as fz
        from anf_sat_lab.errors import ResourceCap

        # MERGE_SOUNDNESS meets the oracle's bound at n=26 (TooLarge)
        monkeypatch.setitem(fz._CHECKERS, "SWEEP_DECIDES", _raiser(ResourceCap("planted")))
        code, out, _ = run_main(
            ["falsify", "--claims", "MERGE_SOUNDNESS,SWEEP_DECIDES", "--count", "2", "--n", "26"],
            capsys,
        )
        data = json.loads(out)
        assert code == 0
        assert data["skipped"] == 4
        assert data["skipped_by_cause"] == {"ResourceCap": 2, "TooLarge": 2}

    def test_every_claim_skips_above_the_oracle_bound(self, capsys):
        # INDICATOR6 used to build 2**n-bit tables before asking the oracle
        code, out, err = run_main(["falsify", "--count", "1", "--n", "200", "--seed", "1"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["skipped_by_cause"] == {"ResourceCap": 0, "TooLarge": 3}


class TestFlagsBeforeWork:
    def test_descriptor_form_rejects_int_mode(self, wide_cnf, eight_cnf, monkeypatch, capsys):
        from anf_sat_lab import cli

        monkeypatch.setattr(cli, "build", _raiser(AssertionError("built")))
        for argv in (
            ["indicator", wide_cnf, "--form", "descriptor", "--mode", "int", "--cap", "2"],
            ["indicator", eight_cnf, "--form", "descriptor", "--mode", "int"],
        ):
            assert run_main(argv, capsys) == (1, "", "descriptor form is GF(2) only\n")

    def test_coeff_delta_checked_before_factors(self, two_cnf, monkeypatch, capsys):
        from anf_sat_lab import cli

        monkeypatch.setattr(cli, "factor_sequence", _raiser(AssertionError("factored")))
        code, out, err = run_main(["coeff", two_cnf, "--delta", "1,1"], capsys)
        assert (code, out) == (64, "")
        assert err == "--delta needs 4 comma-separated 0/1 entries or 'top'\n"


class TestEnumerateOnlySolutions:
    def test_spurious_fixed_points_are_dropped(self, tmp_path, capsys, monkeypatch):
        from anf_sat_lab import cli
        from anf_sat_lab.cnf import parse_dimacs
        from anf_sat_lab.descriptor import identity_descriptor
        from anf_sat_lab.oracle import brute_count

        p = tmp_path / "repro.cnf"
        p.write_text(README_REPRODUCER)
        f = parse_dimacs(README_REPRODUCER)
        assert brute_count(f) == 42
        code, out, _ = run_main(["enumerate", str(p)], capsys)
        assert (code, out.splitlines()[-1]) == (0, "c 42 solutions")  # the build is exact
        # A planted fault: the identity's fixed points are all 2**6 assignments.
        monkeypatch.setattr(cli, "_descriptor_within_cap", lambda f, cap: identity_descriptor(f.n))
        code, out, _ = run_main(["enumerate", str(p)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[-2:] == ["c 42 solutions", "c 22 fixed points dropped: not solutions"]
        v_lines = [ln for ln in lines if ln.startswith("v ")]
        assert len(v_lines) == 42
        for ln in v_lines:
            lits = [int(x) for x in ln.split()[1:-1]]
            assert f.eval_mask(sum(1 << x for x in lits if x > 0))
        code, out, _ = run_main(["enumerate", str(p), "--emit", "json"], capsys)
        data = json.loads(out)
        assert (data["count"], data["dropped"], data["truncated"]) == (42, 22, False)

    def test_exact_image_prints_no_dropped_line(self, two_cnf, capsys):
        code, out, _ = run_main(["enumerate", two_cnf], capsys)
        assert (code, out.splitlines()[-1]) == (0, "c 12 solutions")
        code, out, _ = run_main(["enumerate", two_cnf, "--emit", "json"], capsys)
        assert json.loads(out)["dropped"] == 0


class TestExitCodeDocs:
    """The exit codes listed in --help and README are the EXIT_* constants."""

    @staticmethod
    def _constants():
        from anf_sat_lab import cli

        return {v for k, v in vars(cli).items() if k.startswith("EXIT_")}

    def test_help_lists_every_code(self):
        import re

        from anf_sat_lab import cli

        text = cli._build_parser().format_help()
        listed = text[text.index("Exit codes:") : text.index("I/O error") + 3]
        codes = {int(c) for c in re.findall(r"(?<!\w)(\d+)\s+[a-zA-Z]", listed)}
        assert codes == self._constants()

    def test_readme_lists_every_code(self):
        assert readme_exit_codes() == self._constants()


def readme_exit_codes():
    """The codes in README's exit-code table."""
    import pathlib
    import re

    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    table = text[text.index("| exit code |") :].split("\n\n", 1)[0]
    return {int(c) for c in re.findall(r"^\| `(\d+)` \|", table, re.M)}


def value_flags():
    """(subcommand, its parser, action) for every flag that takes a value;
    the subcommand is None for the top-level flags.  The parser is the one
    main() shares between calls, so callers only read it."""
    from anf_sat_lab import cli

    parser = cli._build_parser()
    parsers = [(None, parser)]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers += action.choices.items()
    for name, p in parsers:
        for action in p._actions:
            if action.option_strings and action.nargs != 0:
                yield name, p, action


class TestFailureContract:
    """Every flag of every subcommand, fed values it may reject: the exit code
    is in README's table, stderr has no traceback, and a run that reports an
    error writes nothing to stdout."""

    PATH_FLAGS = {"--output", "--trace", "--report-dir"}
    # Small runs for the flags a subcommand needs; a case's own flag comes last and wins.
    BASE = {"decide": ["--k", "1"], "falsify": ["--count", "1", "--n", "5"]}

    def test_bad_values(self, two_cnf, tmp_path, capsys):
        from anf_sat_lab.cli import EXIT_IO, EXIT_SOFTWARE, EXIT_USAGE

        (tmp_path / "file").write_text("")
        below_a_file = str(tmp_path / "file" / "out")
        codes = readme_exit_codes()
        runs = 0
        for name, p, action in value_flags():
            flag = action.option_strings[-1]
            if name is None:  # a top-level flag goes before the subcommand
                prefix, suffix = [], ["parse", two_cnf]
            else:
                takes_input = any(not a.option_strings for a in p._actions)
                prefix = [name, *([two_cnf] if takes_input else []), *self.BASE.get(name, [])]
                suffix = []
            for value in [below_a_file] if flag in self.PATH_FLAGS else ["0", "-1", "x"]:
                argv = [*prefix, flag, value, *suffix]
                code, out, err = run_caught(argv, capsys)
                assert code in codes, (argv, code, err)
                assert "Traceback" not in err, argv
                if code in (EXIT_USAGE, EXIT_SOFTWARE, EXIT_IO) or err:
                    assert out == "", (argv, code, err)
                runs += 1
        assert runs > 50

    def test_every_mode_flag_offers_the_ring_modes(self):
        from anf_sat_lab.anf import MODES

        modes = {name: tuple(a.choices) for name, _, a in value_flags() if a.dest == "mode"}
        assert modes == {name: MODES for name in ("indicator", "coeff", "decide")}

    def test_every_value_flag_has_help(self):
        bare = [(name, a.option_strings[-1]) for name, _, a in value_flags() if not a.help]
        assert bare == []


class TestSharedParser:
    """main() builds its parser on the first call and reuses it, so a call's
    bytes must not depend on the calls before it."""

    @staticmethod
    def _sequence(two_cnf):
        return [
            ["enumerate", two_cnf, "--emit", "json", "--max-nodes", "3", "--cap", "8"],
            ["enumerate", two_cnf],  # the same subcommand, back to its defaults
            ["decide", "--k", "2", "--mode", "int", "--frontier-cap", "5", two_cnf],  # capped
            ["decide", "--k", "-1", two_cnf],
            ["decide", "--k", "2", two_cnf],
            ["--help"],
            ["enumerate", "--help"],
            [],
            ["falsify", "--ratio", "nan"],
            ["falsify", "--count", "1", "--n", "5", "--seed", "3"],
            ["falsify", "--count", "1", "--n", "5"],
        ]

    def test_calls_match_a_fresh_parser(self, two_cnf, capsys, monkeypatch):
        from anf_sat_lab import cli, falsify

        monkeypatch.setenv("COLUMNS", "80")
        # Builds are exact, so a planted checker gives the falsify runs their findings (exit 2).
        monkeypatch.setitem(falsify._CHECKERS, "MERGE_SOUNDNESS", lambda f: ("planted", "divergence"))
        sequence = self._sequence(two_cnf)
        with monkeypatch.context() as fresh:
            fresh.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
            want = [run_caught(argv, capsys) for argv in sequence]
        assert [code for code, _, _ in want] == [0, 0, 30, 64, 10, 0, 0, 64, 64, 2, 2]
        for order in (sequence, sequence[::-1]):
            for argv in order:
                assert run_caught(argv, capsys) == want[sequence.index(argv)], argv

    def test_one_parser_per_process(self):
        from anf_sat_lab import cli

        assert cli._build_parser() is cli._build_parser()

    def test_help_wraps_to_the_columns_of_the_call(self, capsys, monkeypatch):
        helps = []
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, _ = run_caught(["enumerate", "--help"], capsys)
            assert code == 0
            helps.append(out)
        narrow, wide = helps
        assert len(narrow.splitlines()) > len(wide.splitlines())
