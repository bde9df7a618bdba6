"""The ppx command line: formats, exit codes, JSON round trips."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import ppx
from ppx import cli
from ppx.report import Report


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeq:
    def test_csv_golden(self, capsys):
        code, out, _ = run(capsys, "seq", "c", "8", "--format", "csv")
        assert code == 0
        assert out.strip() == "1,1,-2,9,-24,130,-720,8505"

    def test_text_golden(self, capsys):
        code, out, _ = run(capsys, "seq", "r", "8")
        assert code == 0
        assert out.strip() == "1 1 -1 3 -1 13 -1 27"

    def test_single_term(self, capsys):
        code, out, _ = run(capsys, "seq", "e", "1")
        assert code == 0
        assert out.strip() == "1"

    def test_q_sequence_text(self, capsys):
        code, out, _ = run(capsys, "seq", "rq", "4")
        assert code == 0
        assert out.strip() == "1 1 -q 1+q^2+q^3"

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "seq", "cq", "6", "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) == out.strip()

    def test_json_big_integers_are_strings(self, capsys):
        code, out, _ = run(capsys, "seq", "c", "20", "--format", "json")
        obj = json.loads(out)
        assert obj["sequence"] == "c"
        assert all(isinstance(t["value"], str) for t in obj["terms"])
        assert obj["terms"][0] == {"n": 1, "value": "1"}

    def test_cap_enforced(self, capsys):
        code, _, err = run(capsys, "seq", "e", "65")
        assert code == 2
        assert "between 1 and 64" in err

    def test_q_cap_enforced(self, capsys):
        code, _, _ = run(capsys, "seq", "rq", "65")
        assert code == 2
        code, out, _ = run(capsys, "seq", "rq", "64")
        assert code == 0
        assert len(out.split()) == 64

    def test_env_var_overrides_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PPX_MAX_N", "70")
        code, out, _ = run(capsys, "seq", "u", "66")
        assert code == 0
        assert len(out.split()) == 66
        monkeypatch.setenv("PPX_MAX_N", "4")
        code, _, _ = run(capsys, "seq", "u", "5")
        assert code == 2

    def test_bad_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("PPX_MAX_N", "many")
        code, _, _ = run(capsys, "seq", "u", "5")
        assert code == 2

    def test_unknown_name(self, capsys):
        code, _, _ = run(capsys, "seq", "zz", "5")
        assert code == 2

    def test_zero_terms(self, capsys):
        code, _, _ = run(capsys, "seq", "e", "0")
        assert code == 2


class TestVerify:
    def test_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "kolberg", "--max-n", "40")
        assert code == 0
        assert out.startswith("report: kolberg")
        assert "status: pass" in out

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "verify", "eq21", "--max-n", "6", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["report"] == "eq21"
        assert obj["status"] == "pass"
        assert json.dumps(obj, indent=2) == out.strip()

    def test_param_validation(self, capsys):
        code, _, err = run(capsys, "verify", "thm43", "--m", "1")
        assert code == 2
        assert "m >= 2" in err

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "nonsense")
        assert code == 2

    def test_failing_report_exits_one(self, capsys, monkeypatch):
        failing = Report("fabricated")
        failing.add("always-fails", {}, False, "1", "0")
        monkeypatch.setitem(cli.SUITES, "fabricated", cli.Suite((lambda n: failing,)))
        code, out, _ = run(capsys, "verify", "fabricated")
        assert code == 1
        assert "FAIL always-fails" in out
        assert "status: fail" in out

    def test_thm43_explicit_params(self, capsys):
        code, out, _ = run(capsys, "verify", "thm43", "--m", "2", "--max-n", "12")
        assert code == 0
        assert "status: pass" in out

    def test_eq26_single_pair(self, capsys):
        code, out, _ = run(capsys, "verify", "eq26", "--m", "2", "--max-n", "6")
        assert code == 0

    @pytest.mark.parametrize("argv, flags", [
        (("kolberg", "--m", "3"), "--m"),
        (("kolberg", "--p", "5"), "--p"),
        (("kolberg", "--max-n", "9", "--m", "3", "--p", "5"), "--m and --p"),
        (("thm41", "--max-n", "7"), "--max-n"),
        (("thm43", "--p", "3"), "--p"),
        (("cor44", "--m", "2"), "--m"),
        (("pascal-m", "--p", "2"), "--p"),
        (("eq26", "--max-n", "7"), "--max-n"),
        (("eq28", "--max-n", "7"), "--max-n"),
        (("eq26", "--m", "3", "--p", "2"), "--p"),
    ])
    def test_unread_option_rejected(self, capsys, argv, flags):
        # An option the suite would ignore is a usage error, not a silent
        # run of the defaults.
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert f"suite {argv[0]!r} does not take {flags}" in err


class TestPascal:
    def test_factor_golden(self, capsys):
        code, out, _ = run(capsys, "pascal", "4", "--action", "factor")
        assert code == 0
        assert out.strip() == "1, 1, -2"

    def test_print_golden(self, capsys):
        code, out, _ = run(capsys, "pascal", "4", "--action", "print")
        assert code == 0
        assert out.strip().splitlines() == ["1 0 0 0", "1 1 0 0", "1 2 1 0", "1 3 3 1"]

    def test_doubled_print(self, capsys):
        code, out, _ = run(capsys, "pascal", "6", "--variant", "m", "--m", "2",
                           "--action", "print")
        assert code == 0
        assert out.strip().splitlines()[4] == "1 0 2 0 1 0"

    def test_q_factor(self, capsys):
        code, out, _ = run(capsys, "pascal", "4", "--variant", "q", "--action", "factor")
        assert code == 0
        assert out.strip() == "1, 1, -q-q^2"

    def test_json_matrix(self, capsys):
        code, out, _ = run(capsys, "pascal", "3", "--variant", "q", "--format", "json")
        obj = json.loads(out)
        assert obj["entries"][2][1] == ["1", "1"]
        assert json.dumps(obj, indent=2) == out.strip()

    def test_m_requires_flag(self, capsys):
        code, _, err = run(capsys, "pascal", "6", "--variant", "m")
        assert code == 2
        assert "--m is required" in err

    def test_m_flag_only_for_m_variant(self, capsys):
        code, _, _ = run(capsys, "pascal", "6", "--m", "2")
        assert code == 2

    def test_factor_needs_two(self, capsys):
        code, _, _ = run(capsys, "pascal", "1", "--action", "factor")
        assert code == 2

    def test_bad_dimension(self, capsys):
        code, _, _ = run(capsys, "pascal", "0")
        assert code == 2


class TestSubprocess:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ppx", "seq", "c", "8", "--format", "csv"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1,1,-2,9,-24,130,-720,8505"

    def test_closed_pipe_exits_141(self):
        # As in `ppx verify all | head -1`.  The report (about 90 kB) outgrows
        # a 64 KiB pipe, so the write meets the closed end.
        proc = subprocess.Popen([sys.executable, "-m", "ppx", "verify", "all"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0)
        assert proc.stdout.readline() == b"report: roundtrip\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
        assert err == b""

    def test_pipe_closed_before_a_short_output_exits_141(self):
        # Buffered output that fits the buffer is written only when flushed;
        # the read end is closed before the process starts.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read, write = os.pipe()
        os.close(read)
        proc = subprocess.run([sys.executable, "-m", "ppx", "seq", "c", "8"],
                              stdout=write, stderr=subprocess.PIPE, env=env)
        os.close(write)
        assert proc.returncode == 141
        assert proc.stderr == b""

    def test_module_verify_exit_codes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ppx", "verify", "thm45", "--max-n", "8"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0

    @pytest.mark.parametrize("argv", [
        ["seq", "cq", "20", "--format", "json"],
        ["verify", "thm45", "--max-n", "8", "--format", "json"],
        ["pascal", "6", "--variant", "q", "--action", "factor", "--format", "json"],
        ["seq", "cq", "64"],  # about 2.4 MB, more than a pipe holds
    ])
    def test_process_prints_what_main_prints(self, capsys, argv):
        # The process ends in os._exit, so nothing is flushed for it at exit,
        # and buffered output shows what a missing flush loses.  This process
        # has loaded json already; only a fresh one misses an import.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run([sys.executable, "-m", "ppx", *argv], capture_output=True, env=env)
        code = cli.main(argv)
        assert proc.returncode == code == 0
        assert proc.stdout == capsys.readouterr().out.encode()

    def test_usage_error_line_reaches_stderr(self):
        proc = subprocess.run([sys.executable, "-m", "ppx", "verify", "thm41", "--max-n", "3"],
                              capture_output=True)
        assert proc.returncode == 2
        assert proc.stderr == b"error: suite 'thm41' does not take --max-n\n"


def modules_loaded_by(code: str) -> set:
    """The modules a fresh interpreter has after running code, less those it
    had before."""
    probe = ("import sys; before = set(sys.modules)\n" + code +
             "\nprint(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    return set(proc.stdout.split())


# What ppx/__init__.py exports, each name from its submodule.
EXPORTS = {
    "products": ["contract", "expand"],
    "rings": ["ConsistencyError", "InexactDivisionError", "IntPoly", "QuotientElem",
              "QuotientRing", "RatFunc", "cyclotomic"],
    "sequences": ["a_seq", "c_seq", "e_seq", "r_seq", "u_seq"],
    "series": ["TruncatedSeries"],
    "qsequences": ["c_q_seq", "cap_e_q_seq", "e_q_seq", "qbinom", "qfact", "qint", "r_q_seq",
                   "u_q_seq"],
    "pascal": ["SquareMatrix", "factor_pascal", "factor_pascal_m", "factor_q_pascal", "h_m_nk",
               "h_nk", "pascal_m", "pascal_matrix", "q_pascal"],
}


class TestLoading:
    def test_cli_import_loads_no_command_module(self):
        loaded = modules_loaded_by("import ppx.cli")
        assert "ppx.cli" in loaded
        assert not loaded & {"ppx.sequences", "ppx.qsequences", "ppx.pascal", "ppx.series",
                             "ppx.products", "json"}

    def test_classical_seq_loads_no_q_or_matrix_module(self):
        loaded = modules_loaded_by("from ppx import cli; cli.main(['seq', 'c', '8'])")
        assert "ppx.sequences" in loaded
        assert not loaded & {"ppx.qsequences", "ppx.pascal"}

    @pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items()
                                             for n in names])
    def test_exported_name_is_the_submodules(self, module, name):
        namespace = {}
        exec(f"from ppx import {name}", namespace)
        assert namespace[name] is getattr(importlib.import_module(f"ppx.{module}"), name)

    def test_all_lists_the_exports(self):
        assert sorted(ppx.__all__) == sorted(n for names in EXPORTS.values() for n in names)

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError):
            ppx.no_such_name
        with pytest.raises(ImportError):
            exec("from ppx import no_such_name", {})
