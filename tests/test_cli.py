"""CLI surface: exit codes, formats, and the pd subcommand."""

import dataclasses
import json
import sys
from decimal import Decimal

import pytest

from detvol import diagram, families, verify
from detvol.cli import main
from detvol.families import weaving_det
from detvol.verify import MAX_ORACLE_CROSSINGS
from pdtext import format_pd_text


def _no_diagram(*args):
    raise AssertionError("diagram built above the oracle limit")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        code, _, err = run(capsys, "check", "Z(1)")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("spec, message", [
        # faces past 2**53 sides, where the bipyramid volume loses n
        ("P(2,3," + "9" * 400 + ")", "bipyramid needs n <= 2**53"),
        ("R(2,1" + "0" * 308 + ",3)", "bipyramid needs n <= 2**53"),
        # weaving indices past MAX_WEAVING_INDEX; W(10^12)'s det is ~240 GB
        ("W(1000001)", "weaving index must be <= 1000000"),
        ("W(1000000000000)", "weaving index must be <= 1000000"),
    ], ids=["P-400-digits", "R-10e308", "W-10e6+1", "W-10e12"])
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
        code, out, err = run(capsys, "--oracle-cap", "100000", "check", spec)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {c} crossings is over the diagram oracle's limit")
        assert run(capsys, "check", spec)[0] == 0  # under the default cap, no oracle

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
        code, out, _ = run(capsys, "--format", "json", "check", "W(4)")
        assert code == 0
        assert json.loads(out)[0]["det"] == "384"


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
        # the search recurses once per twist region; this t_max would overflow it
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
        code, out, _ = run(capsys, "enumerate", "--t-max", "3")
        monkeypatch.undo()
        assert code == 2
        [line] = [s for s in out.splitlines() if "VIOLATION" in s]
        assert line == f"  VIOLATION {calls[0]}: margin -0.5"
        spec_text = line.split()[1].rstrip(":")
        code, out, _ = run(capsys, "check", spec_text)
        assert code == 0
        assert f"spec              {calls[0]}" in out


class TestSweep:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "R", "--sum-max", "4",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("spec,family,")
        assert len(lines) == 2 ** 4  # header + 15 sequences

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
        f.write_text("X 0 1 4 3\nX 4 2 6 5\nX 3 5 8 0\nX 8 6 2 1\n")
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
        "name, text",
        [
            ("bad.pd", "X 1 1 1 1\n"),
            ("flat.json", "[1, 2]"),
            ("null.json", "[[0, 1, 2, null]]"),
            ("float.json", "[[0, 0, 1, 1.7]]"),
            ("bool.json", "[[0, 0, 1, true]]"),
            ("short.json", "[[0, 0, 1]]"),
            ("deep.json", "[" * 200_000),
        ],
        ids=["text", "flat", "null", "float", "bool", "short", "deep"],
    )
    def test_malformed(self, capsys, tmp_path, name, text):
        f = tmp_path / name
        f.write_text(text)
        code, _, err = run(capsys, "pd", str(f))
        assert code == 1
        assert "error" in err


class TestConfigValidation:
    def test_bad_precision(self, capsys):
        code, _, err = run(capsys, "--precision", "20", "constants")
        assert code == 1

    def test_bad_workers(self, capsys):
        code, _, err = run(capsys, "--workers", "0", "constants")
        assert code == 1

    def test_bad_workers_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DETVOL_WORKERS", "abc")
        code, _, err = run(capsys, "constants")
        assert code == 1
        assert err.startswith("error:") and "DETVOL_WORKERS" in err

    def test_workers_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("DETVOL_WORKERS", "2")
        code, out, _ = run(capsys, "sweep", "--family", "R", "--sum-max", "3")
        assert code == 0
        assert "R(3)" in out
