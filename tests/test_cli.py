"""CLI surface: exit codes, formats, and the pd subcommand."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from detvol import cli, diagram, families, verify
from detvol.cli import _build_parser, main
from detvol.families import weaving_det
from detvol.verify import MAX_ORACLE_CROSSINGS
from oracles import format_pd_text

FIG8_PD = "X 0 1 4 3\nX 4 2 6 5\nX 3 5 8 0\nX 8 6 2 1\n"


def _no_diagram(*args):
    raise AssertionError("diagram built above the oracle limit")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def usage_error(capsys, *argv):
    """Exit code, stdout and stderr of an argv the parser rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestCheck:
    def test_holds(self, capsys):
        code, out, _ = run(capsys, "check", "R(1,1,1,1,1)")
        assert code == 0
        assert "det               8" in out
        assert "verdict           holds" in out

    def test_vacuous(self, capsys):
        code, out, _ = run(capsys, "check", "R(1,1,1)")
        assert code == 0
        assert "vacuous" in out

    def test_pretzel(self, capsys):
        code, out, _ = run(capsys, "check", "P(2,3,7)")
        assert code == 0
        assert "det               41" in out
        bounds = [ln.split()[1] for ln in out.splitlines() if ln.startswith("bound ")]
        assert bounds == ["adams_exact", "adams_log", "lackenby", "montesinos"]

    def test_parse_error(self, capsys):
        for spec in ["Z(1)", "R(" + " " * 100_000]:
            code, _, err = run(capsys, "check", spec)
            assert code == 1
            assert err.startswith("error: ") and err.count("\n") == 1
            assert len(err) < 300

    @pytest.mark.parametrize("spec, message", [
        # faces past 2**53 sides, where the bipyramid volume loses n
        ("P(2,3," + "9" * 400 + ")", "bipyramid needs n <= 2**53"),
        ("R(2,1" + "0" * 308 + ",3)", "bipyramid needs n <= 2**53"),
        # weaving indices past MAX_WEAVING_INDEX; W(10^12)'s det is ~240 GB
        ("W(1000001)", "weaving index must be <= 1000000"),
        ("W(1000000000000)", "weaving index must be <= 1000000"),
        # a valid entry over Python's limit on digits in int(str)
        ("R(" + "9" * 5000 + ")", "entry of 5000 digits in spec 'R(999"),
    ], ids=["P-400-digits", "R-10e308", "W-10e6+1", "W-10e12", "R-5000-digits"])
    def test_size_limits_exit_1(self, capsys, spec, message):
        code, out, err = run(capsys, "check", spec)
        assert code == 1
        assert out == ""
        assert err.startswith("error: " + message)
        assert "Traceback" not in err

    def test_over_oracle_limit_exit_1(self, capsys, monkeypatch):
        c = MAX_ORACLE_CROSSINGS + 1
        spec = f"R({c // 2},{c - c // 2})"
        monkeypatch.setattr(families, "to_diagram", _no_diagram)
        # a cap over the limit is refused before any member is checked
        code, out, err = run(capsys, "check", spec, "--oracle-cap", "100000")
        assert code == 1
        assert out == ""
        assert err == (f"error: oracle_cap must be <= {MAX_ORACLE_CROSSINGS}, "
                       "the diagram oracle's limit\n")
        # at the largest cap and the default one the member is above the cap: no oracle
        assert run(capsys, "check", spec, "--oracle-cap", str(MAX_ORACLE_CROSSINGS))[0] == 0
        assert run(capsys, "check", spec)[0] == 0

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "check", "W(4)", "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        assert row["det"] == "384"
        assert row["verdict"] == "holds"

    def test_determinant_over_str_digit_limit(self, capsys):
        # W(20000)'s determinant has over 11k digits, past the default limit
        # of 4300 for str(int) on Python >= 3.11
        code, out, err = run(capsys, "check", "W(20000)")
        want = str(Decimal(weaving_det(20000)))
        assert (code, err) == (0, "")
        assert len(want) > 4300
        [det_line] = [ln for ln in out.splitlines() if ln.startswith("det ")]
        assert det_line.split()[1] == want

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
    def test_main_keeps_str_digit_limit(self, capsys):
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            for argv in (["constants"], ["check", "W(20000)"], ["sweep", "--family", "W", "--sum-max", "6"]):
                assert run(capsys, *argv)[0] == 0
                assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(old)

    def test_flag_before_subcommand(self, capsys):
        # options follow the subcommand; the top-level parser takes none
        code, out, err = usage_error(capsys, "--format", "json", "check", "W(4)")
        assert code == 1
        assert out == ""
        assert "error:" in err


class TestConstants:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "constants")
        assert code == 0
        assert "1.01494" in out
        assert "3.66386237" in out
        assert "vol(B_2 ) = 0.000000000000" in out


class TestEnumerate:
    def test_small(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--t-max", "3")
        assert code == 0
        assert "0 violations" in out

    def test_bad_input(self, capsys):
        code, _, err = run(capsys, "enumerate", "--t-max", "2")
        assert code == 1

    def test_t_max_over_limit(self, capsys):
        # a t_max over MAX_ENUMERATION_T is an input error, refused before any search
        t = verify.MAX_ENUMERATION_T + 900
        code, out, err = run(capsys, "enumerate", "--t-min", str(t), "--t-max", str(t))
        assert code == 1
        assert out == ""
        assert err == f"error: t_max must be <= {verify.MAX_ENUMERATION_T}\n"

    def test_warns_on_large_accepted_t_max(self, capsys, monkeypatch):
        t = verify.MAX_ENUMERATION_T
        monkeypatch.setattr(verify, "enumerate_pretzels",
                            lambda t_max, **kw: verify.EnumerationReport(kw["t_min"], t_max))
        code, out, err = run(capsys, "enumerate", "--t-min", str(t), "--t-max", str(t))
        assert code == 0
        assert out.startswith(f"pretzel enumeration t={t}..{t}:")
        assert err.startswith(f"warning: t-max={t} explores a large frontier")

    def test_violation_line_pastes_into_check(self, capsys, monkeypatch):
        real_bound_report = verify.bound_report
        calls = []

        def fake_bound_report(spec, d, cf):
            calls.append(spec)
            r = real_bound_report(spec, d, cf)
            if len(calls) == 1:
                r = dataclasses.replace(r, verdict="bound_inconclusive", margin=-0.5)
            return r

        monkeypatch.setattr(verify, "bound_report", fake_bound_report)
        monkeypatch.setattr(verify, "adams_log_certificate", lambda d, faces: False)
        code, out, _ = run(capsys, "enumerate", "--t-max", "3")
        monkeypatch.undo()
        assert code == 2
        [line] = [s for s in out.splitlines() if "VIOLATION" in s]
        assert line == f"  VIOLATION {calls[0]}: margin -0.5"
        spec_text = line.split()[1].rstrip(":")
        code, out, _ = run(capsys, "check", spec_text)
        assert code == 0
        assert f"spec              {calls[0]}" in out

    def test_long_violation_list_is_counted(self, capsys, monkeypatch):
        real_bound_report = verify.bound_report
        calls = []

        def fake_bound_report(spec, d, cf):
            calls.append(spec)
            r = real_bound_report(spec, d, cf)
            return dataclasses.replace(r, verdict="bound_inconclusive", margin=-0.5)

        monkeypatch.setattr(verify, "bound_report", fake_bound_report)
        monkeypatch.setattr(verify, "adams_log_certificate", lambda d, faces: False)
        code, out, _ = run(capsys, "enumerate", "--t-max", "4")
        assert code == 2
        assert len(calls) > cli.MAX_VIOLATION_LINES
        lines = out.splitlines()
        assert f"{len(calls)} violations" in lines[0]
        listed = [s for s in lines if "VIOLATION" in s]
        assert listed == [
            f"  VIOLATION {spec}: margin -0.5"
            for spec in calls[: cli.MAX_VIOLATION_LINES]
        ]
        assert lines[-1] == f"  ... and {len(calls) - cli.MAX_VIOLATION_LINES} more"
        assert len(lines) == 1 + cli.MAX_VIOLATION_LINES + 1


class TestSweep:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "R", "--sum-max", "4",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("spec,family,")
        assert len(lines) == 2 ** 4  # header + 15 sequences

    def test_one_inconclusive_row_exits_2(self, capsys, monkeypatch):
        real_bound_report = verify.bound_report
        flipped = []

        def fake_bound_report(spec, d, cf):
            r = real_bound_report(spec, d, cf)
            if r.verdict == "holds" and not flipped:
                flipped.append(spec)
                return dataclasses.replace(r, verdict="bound_inconclusive", margin=-0.5)
            return r

        monkeypatch.setattr(verify, "bound_report", fake_bound_report)
        code, out, _ = run(capsys, "sweep", "--family", "R", "--sum-max", "4")
        assert code == 2
        assert len(flipped) == 1
        assert out.count("bound_inconclusive") == 1

    def test_table(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "W", "--sum-max", "9")
        assert code == 0
        assert "W(2)" in out

    def test_sum_max_too_large(self, capsys):
        code, out, err = run(capsys, "sweep", "--family", "R", "--sum-max", "2000")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_weaving_sum_max_too_large(self, capsys):
        code, out, err = run(capsys, "sweep", "--family", "W", "--sum-max", "270003")
        assert code == 1
        assert out == ""
        assert err.startswith("error: sum_max 270003 > 270000 for family W")
        assert "Traceback" not in err


class TestPd:
    def test_text_file(self, capsys, tmp_path):
        f = tmp_path / "fig8.pd"
        f.write_text(FIG8_PD)
        code, out, _ = run(capsys, "pd", str(f))
        assert code == 0
        assert "tau(shaded)   5" in out
        assert "tau(white)    5" in out
        assert "{2: 2, 3: 4}" in out

    def test_json_file(self, capsys, tmp_path):
        f = tmp_path / "fig8.json"
        f.write_text(json.dumps([[0, 1, 4, 3], [4, 2, 6, 5], [3, 5, 8, 0], [8, 6, 2, 1]]))
        code, out, _ = run(capsys, "pd", str(f))
        assert code == 0
        assert "twist regions 2" in out

    def test_over_oracle_limit_exit_1(self, capsys, tmp_path, monkeypatch):
        c = MAX_ORACLE_CROSSINGS + 1
        f = tmp_path / "torus.pd"
        f.write_text(format_pd_text(diagram.braid_closure_pd(2, [1] * c)))
        monkeypatch.setattr(diagram, "analyze", _no_diagram)
        code, out, err = run(capsys, "pd", str(f))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {c} crossings is over the diagram oracle's limit")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "pd", "/nonexistent/nope.pd")
        assert code == 1

    @pytest.mark.parametrize(
        "name, content",
        [
            ("bad.pd", "X 1 1 1 1\n"),
            ("flat.json", "[1, 2]"),
            ("null.json", "[[0, 1, 2, null]]"),
            ("float.json", "[[0, 0, 1, 1.7]]"),
            ("bool.json", "[[0, 0, 1, true]]"),
            ("short.json", "[[0, 0, 1]]"),
            ("deep.json", "[" * 200_000),
            ("binary.pd", bytes(range(256)) * 4),
            ("directory", Path(__file__).parent),
            ("empty.pd", b""),
            ("long-line.pd", "Y" * 200_000),
            ("long-string.json", json.dumps([["a" * 200_000, 0, 1, 1]])),
            ("open.pd", "".join(f"X {4 * i} {4 * i + 1} {4 * i + 2} {4 * i + 3}\n"
                                for i in range(20_000))),
            ("padded.pd", FIG8_PD + " " * (cli.MAX_PD_FILE_BYTES + 1 - len(FIG8_PD))),
            ("torus.pd", "X 0 1 0 1\n"),
            ("two-kinks.pd", "X 0 0 1 1\nX 2 2 3 3\n"),
            pytest.param("zero", Path("/dev/zero"), marks=pytest.mark.skipif(
                not os.path.exists("/dev/zero"), reason="no /dev/zero")),
        ],
        ids=["text", "flat", "null", "float", "bool", "short", "deep", "binary", "directory",
             "empty", "long-line", "long-string", "open-labels", "over-limit", "not-sphere",
             "disconnected", "dev-zero"],
    )
    def test_malformed(self, capsys, tmp_path, name, content):
        # content is text or bytes to write, or a path to read as it is
        if isinstance(content, Path):
            path = content
        else:
            path = tmp_path / name
            if isinstance(content, str):
                path.write_text(content)
            else:
                path.write_bytes(content)
        code, _, err = run(capsys, "pd", str(path))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err[:300]
        assert len(err.encode()) < 300
        assert "Traceback" not in err


class TestConfigValidation:
    def test_bad_precision(self, capsys):
        code, _, err = usage_error(capsys, "constants", "--precision", "20")
        assert code == 1
        assert err.startswith("usage: detvol constants")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--family", "R", "--sum-max", "21"],
        ["sweep", "--family", "W", "--sum-max", "270003"],
        ["sweep", "--family", "R", "--sum-max", "0"],
        ["sweep", "--family", "R", "--sum-max", "-4"],
        ["sweep", "--family", "R", "--sum-max", "3", "--workers", "0"],
        ["enumerate", "--t-min", "2"],
        ["enumerate", "--t-min", "7", "--t-max", "6"],
        ["check", "R(1 2)"],
        ["check", "R(3,3)", "--oracle-cap", str(MAX_ORACLE_CROSSINGS + 1)],
        ["enumerate", "--oracle-cap", str(MAX_ORACLE_CROSSINGS + 1)],
        ["sweep", "--family", "R", "--sum-max", "3",
         "--oracle-cap", str(MAX_ORACLE_CROSSINGS + 1)],
        ["check", "R(3,3)", "--oracle-cap", "-5"],
        ["enumerate", "--oracle-cap", "-5"],
        ["sweep", "--family", "R", "--sum-max", "3", "--oracle-cap", "-5"],
    ], ids=["R-sum-max-21", "W-sum-max-270003", "sum-max-0", "sum-max-negative", "workers-0",
            "t-min-2", "t-min-over-t-max", "bad-integer", "check-cap-401", "enumerate-cap-401",
            "sweep-cap-401", "check-cap-negative", "enumerate-cap-negative",
            "sweep-cap-negative"])
    def test_option_bounds_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert len(err.encode()) < 300
        assert "Traceback" not in err

    def test_non_integer_oracle_cap(self, capsys):
        code, _, err = usage_error(capsys, "check", "R(3,3)", "--oracle-cap", "x")
        assert code == 1
        assert "argument --oracle-cap: invalid int value: 'x'" in err

    def test_workers_option(self, capsys):
        # R<=7 has 127 members, enough for the sweep to use the pool
        argv = ("sweep", "--family", "R", "--sum-max", "7")
        code, out, _ = run(capsys, *argv, "--workers", "2")
        assert code == 0
        assert "R(3)" in out
        assert out == run(capsys, *argv)[1]


class TestUsage:
    # the options each subcommand declares, which are exactly those its handler reads
    OPTIONS = {
        "check": ["spec", "--format", "--precision", "--oracle-cap"],
        "constants": ["--precision"],
        "enumerate": ["--t-max", "--t-min", "--oracle-cap"],
        "sweep": ["--family", "--sum-max", "--format", "--workers", "--oracle-cap"],
        "pd": ["file"],
    }

    def test_options_per_subcommand(self):
        parser = _build_parser()
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert [a.dest for a in parser._actions] == ["help", "command"]
        declared = {
            name: [a.option_strings[0] if a.option_strings else a.dest
                   for a in p._actions if a.dest != "help"]
            for name, p in sub.choices.items()
        }
        assert declared == self.OPTIONS

    def test_option_of_another_subcommand_exits_1(self, capsys, tmp_path):
        f = tmp_path / "fig8.pd"
        f.write_text(FIG8_PD)
        for argv in (
            ["enumerate", "--format", "json"],
            ["pd", str(f), "--format", "csv"],
            ["constants", "--workers", "2"],
            ["check", "W(4)", "--workers", "2"],
        ):
            code, out, err = usage_error(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert "error: unrecognized arguments:" in err

    @pytest.mark.parametrize("argv", [
        ["check"],
        ["enumerate", "--t-max", "abc"],
        ["sweep", "--family", "X", "--sum-max", "3"],
        ["enumerate", "--rule", "general"],
    ], ids=["no-spec", "bad-int", "bad-choice", "removed-rule"])
    def test_usage_error_exits_1(self, capsys, argv):
        # 2 is the bound_inconclusive code, not argparse's usage error
        code, out, err = usage_error(capsys, *argv)
        assert code == 1
        assert out == ""
        assert any(": error: " in ln for ln in err.splitlines())
        assert "Traceback" not in err

    def test_module_usage_error_exits_1(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))  # the same detvol
        proc = subprocess.run(
            [sys.executable, "-m", "detvol.cli", "check"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert any(": error: " in ln for ln in proc.stderr.splitlines())
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["check", "W(300000)"],
        ["sweep", "--family", "R", "--sum-max", "12"],
    ], ids=["check", "sweep"])
    def test_closed_pipe_exits_141(self, argv):
        # each prints more than a pipe buffer holds, so a write meets the
        # closed reader whenever it happens
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))  # the same detvol
        proc = subprocess.Popen(
            [sys.executable, "-m", "detvol.cli", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        _, err = proc.communicate()
        assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
        assert err == b""
