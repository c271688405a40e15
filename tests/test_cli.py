"""Command line interface: exit codes, report formats, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import kleintwist
from kleintwist import checks, cli, present
from kleintwist.checks import (CheckResult, RunConfig, all_check_ids, run,
                               run_one)
from kleintwist.cli import main, render_json, render_markdown
from kleintwist.cocycle import Cocycle2, klein_bicharacter, trivial_cocycle
from kleintwist.errors import NonSplitQuotient, UnknownCheck
from kleintwist.hopf import function_algebra, group_algebra
from kleintwist.perm import klein_group, symmetric_group

CHEAP = "sign-table,det-to-perm,klein-classification"

# sha256 of the `kleintwist verify --zero-durations` JSON report over every
# check; refactors must keep these bytes.
VERIFY_JSON_SHA256 = "936b0214f0712e3830bd1f5fa87c4cd14351764d10c6003e8fe89a834bcc1511"


class TestRunConfig:
    def test_unknown_check(self):
        with pytest.raises(UnknownCheck):
            RunConfig(checks=("no-such-check",))

    def test_max_n_bounds(self):
        with pytest.raises(ValueError):
            RunConfig(max_n=0)
        with pytest.raises(ValueError):
            RunConfig(max_n=9)

    def test_run_one_unknown(self):
        with pytest.raises(UnknownCheck):
            run_one("no-such-check", RunConfig())


class TestListChecks(object):
    def test_exit_and_output(self, capsys):
        assert main(["list-checks"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.strip().splitlines()]
        assert listed == all_check_ids()
        assert len(listed) == 21


class TestVerify:
    def test_subset_passes(self, capsys, tmp_path):
        json_path = tmp_path / "report.json"
        code = main(["verify", "--checks", CHEAP, "--zero-durations",
                     "--json-out", str(json_path)])
        assert code == 0
        data = json.loads(json_path.read_text())
        assert [r["check_id"] for r in data] == sorted(CHEAP.split(","))
        for r in data:
            assert set(r) == {"check_id", "status", "metrics", "labels",
                              "details", "duration_ms"}
            assert r["status"] == "pass"
            assert r["duration_ms"] == 0.0

    def test_unknown_check_usage_error(self, capsys):
        assert main(["verify", "--checks", "bogus"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_empty_selection_usage_error(self, capsys):
        assert main(["verify", "--checks", ",,"]) == 2
        assert "usage error: no check selected" in capsys.readouterr().err
        with pytest.raises(ValueError, match="no check selected"):
            RunConfig(checks=())

    @pytest.mark.parametrize("flag", ["--json-out", "--md-out"])
    def test_unwritable_report_refused_before_any_check(self, capsys, monkeypatch,
                                                        tmp_path, flag):
        ran = []
        monkeypatch.setattr(cli, "run", lambda cfg: ran.append(cfg) or [])
        for path in (tmp_path / "missing" / "report", tmp_path):
            assert main(["verify", "--checks", "sign-table", flag, str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("usage error: cannot write") and str(path) in err
        assert not ran

    def test_max_n_usage_errors(self, capsys):
        assert main(["verify", "--checks", CHEAP, "--max-n", "0"]) == 2
        assert main(["verify", "--checks", CHEAP, "--max-n", "9"]) == 2

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        def bad(cfg):
            """Stub that always fails."""
            return CheckResult("stub-fail", "fail", {}, (), "forced", 0.0)
        monkeypatch.setitem(checks.REGISTRY, "stub-fail", bad)
        assert main(["verify", "--checks", "stub-fail"]) == 1
        assert "[fail]" in capsys.readouterr().out

    def test_raising_check_reports_error(self, capsys, monkeypatch):
        def boom(cfg):
            """Stub that raises."""
            raise RuntimeError("kaput")
        monkeypatch.setitem(checks.REGISTRY, "stub-boom", boom)
        assert main(["verify", "--checks", "stub-boom"]) == 1
        out = capsys.readouterr().out
        assert "[error]" in out and "kaput" in out


class TestReports:
    def test_markdown_shape(self):
        results = run(RunConfig(checks=("sign-table",)))
        md = render_markdown(results, True, 6)
        assert md.startswith("# Twisted symmetry verification")
        assert "| sign-table | pass |" in md
        assert render_markdown(results, True, 6) == md

    def test_json_sorted_and_terminated(self):
        results = run(RunConfig(checks=("det-to-perm", "sign-table")))
        text = render_json(results, True)
        assert text.endswith("\n")
        data = json.loads(text)
        assert [r["check_id"] for r in data] == ["det-to-perm", "sign-table"]

    def test_md_out_written(self, tmp_path):
        md_path = tmp_path / "report.md"
        code = main(["verify", "--checks", "sign-table", "--zero-durations",
                     "--md-out", str(md_path)])
        assert code == 0
        assert md_path.read_text().startswith("# Twisted symmetry verification")

    def test_full_json_report_is_byte_stable(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        assert main(["verify", "--zero-durations", "--json-out", str(json_path)]) == 0
        assert hashlib.sha256(json_path.read_bytes()).hexdigest() == VERIFY_JSON_SHA256


class TestCharactersCommand:
    def test_finite_presentations(self, capsys):
        assert main(["characters", "o2minus"]) == 0
        out = capsys.readouterr().out
        assert "8" in out and "D4" in out

    def test_rectangular(self, capsys):
        assert main(["characters", "incseq:2:4"]) == 0
        out = capsys.readouterr().out
        assert "6" in out
        assert "undefined for rectangular shapes" in out

    def test_continuous_refused(self, capsys):
        assert main(["characters", "o2"]) == 1
        assert "refused" in capsys.readouterr().out

    def test_unknown_name(self, capsys):
        assert main(["characters", "so9minus"]) == 2

    def test_grid_past_the_solver_bound_is_a_usage_error(self, capsys):
        assert main(["characters", "snplus:6"]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")


# sha256 of `kleintwist dump <which>`; refactors must keep these bytes.
DUMP_SHA256 = {
    "qs4": "5dc0b0306f7a8e2f4016046eb5e2e7f28e7892f49855e141ae10a3b4d97c705b",
    "cs4": "b7db8438b311d034195e0b17e0b78eca54e202a66508a74ead72d6c046c75740",
    "s4tau": "c40abeb61f348ba175d58a9f167e460100f49719414c91635a0ed91f5abc8c02",
}


class TestDumpCommand:
    def test_qs4(self, capsys):
        assert main(["dump", "qs4"]) == 0
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize("which", sorted(DUMP_SHA256))
    def test_output_is_byte_stable(self, capsys, which):
        assert main(["dump", which]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == DUMP_SHA256[which]

    def test_unknown_target(self, capsys):
        assert main(["dump", "nonsense"]) == 2


class TestCheckOutcomes:
    def test_hopf_axioms_reports_what_it_checked(self, monkeypatch):
        monkeypatch.setattr(checks, "_qs4", lambda: group_algebra(symmetric_group(3)))
        monkeypatch.setattr(checks, "_cs4", lambda: function_algebra(symmetric_group(3)))
        result = run_one("hopf-axioms", RunConfig())
        assert result.status == "pass"
        assert result.metrics == {"dim": 6, "suites": 6}

    def test_cocycle_valid_reports_the_carrier_it_checked(self, monkeypatch):
        H = function_algebra(symmetric_group(3))
        monkeypatch.setattr(checks, "klein_bicharacter", lambda: trivial_cocycle(H))
        result = run_one("cocycle-valid", RunConfig())
        assert result.status == "pass"
        assert result.metrics["carrier_dim"] == 6
        assert result.metrics["minus_entries"] == 0

    @pytest.mark.parametrize("check,status,details", [
        ("cocycle-valid", "fail", "bicharacter fails the cocycle identities"),
        ("sign-table", "error", "PatternMismatch: "),
        ("det-to-perm", "error", "SignMismatch: "),
    ])
    def test_flipped_bicharacter_entry_is_caught(self, monkeypatch, check, status, details):
        # det-to-perm reads the bicharacter through present's default argument
        sigma = klein_bicharacter()
        rows = [list(r) for r in sigma.table]
        rows[1][2] *= -1
        flipped = Cocycle2.build(sigma.carrier, rows, rows, sigma.star_corrector)
        monkeypatch.setattr(checks, "klein_bicharacter", lambda: flipped)
        monkeypatch.setattr(present, "klein_bicharacter", lambda: flipped)
        result = run_one(check, RunConfig())
        assert result.status == status
        assert result.details.startswith(details)

    def test_diagonal_twist_wrong_outcome_fails(self, monkeypatch):
        # C(S3) stands in for the twist: commutative, but 6 characters of type S3
        stand_in = SimpleNamespace(algebra=function_algebra(symmetric_group(3)))
        monkeypatch.setattr(checks, "build_s4tau", lambda **kw: stand_in)
        result = run_one("diagonal-twist-characters", RunConfig())
        assert result.status == "fail"
        assert result.metrics == {"characters": 6, "group_order": 6}

    def test_diagonal_twist_extraction_error_fails(self, monkeypatch):
        def refuse(H):
            raise NonSplitQuotient("forced")
        monkeypatch.setattr(checks, "characters", refuse)
        stand_in = SimpleNamespace(algebra=function_algebra(symmetric_group(3)))
        monkeypatch.setattr(checks, "build_s4tau", lambda **kw: stand_in)
        result = run_one("diagonal-twist-characters", RunConfig())
        assert result.status == "fail"
        assert "forced" in result.details

    def test_diagonal_twist_fails_on_its_certificate(self, monkeypatch):
        # evaluation into Q[G] in place of C(G): the count and the type still
        # hold, but the evaluation map is no Hopf map
        monkeypatch.setattr(checks, "function_algebra", group_algebra)
        result = run_one("diagonal-twist-characters", RunConfig())
        assert result.status == "fail"
        assert result.metrics == {"characters": 24, "group_order": 24}
        assert result.labels == {"commutative": "True", "group_type": "S4"}
        assert result.details == "evaluation map to C(characters) fails at unit"

    def test_generation_counterexample_joins_the_completions(self, monkeypatch):
        # completions that only reach the Klein group leave the join at D4
        monkeypatch.setattr(kleintwist.twistcalc, "generated_completion_group",
                            lambda k, n: klein_group())
        result = run_one("generation-counterexample", RunConfig())
        assert result.status == "fail"
        assert result.metrics["full_join_order"] == 8


def test_python_dash_m_entry_point():
    src = str(Path(kleintwist.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "kleintwist", "list-checks"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == all_check_ids()
