"""The ppx command line: formats, exit codes, JSON round trips."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppx
from ppx import cli
from ppx.report import Report

import argparse_reference


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


# ---------------------------------------------------------------------------
# The verify plan: for every suite and each subset of --max-n 7, --m 3 and
# --p 5 (subset i holds option j when bit j of i is set), the options the
# suite reads and its parameter sets, or the usage-error line.  Recorded from
# the two functions that _plan replaced; no suite runs here.


PLAN_OPTIONS = (("max_n", 7), ("m", 3), ("p", 5))
PLANS = {
    "roundtrip": [(("max_n",), [(14,)]),
                  (("max_n",), [(7,)]),
                  "error: suite 'roundtrip' does not take --m",
                  "error: suite 'roundtrip' does not take --m",
                  "error: suite 'roundtrip' does not take --p",
                  "error: suite 'roundtrip' does not take --p",
                  "error: suite 'roundtrip' does not take --m and --p",
                  "error: suite 'roundtrip' does not take --m and --p"],
    "kolberg": [(("max_n",), [(64,)]),
                (("max_n",), [(7,)]),
                "error: suite 'kolberg' does not take --m",
                "error: suite 'kolberg' does not take --m",
                "error: suite 'kolberg' does not take --p",
                "error: suite 'kolberg' does not take --p",
                "error: suite 'kolberg' does not take --m and --p",
                "error: suite 'kolberg' does not take --m and --p"],
    "borwein-lou": [(("max_n",), [(64,)]),
                    (("max_n",), [(7,)]),
                    "error: suite 'borwein-lou' does not take --m",
                    "error: suite 'borwein-lou' does not take --m",
                    "error: suite 'borwein-lou' does not take --p",
                    "error: suite 'borwein-lou' does not take --p",
                    "error: suite 'borwein-lou' does not take --m and --p",
                    "error: suite 'borwein-lou' does not take --m and --p"],
    "divisibility": [(("max_n",), [(64,)]),
                     (("max_n",), [(7,)]),
                     "error: suite 'divisibility' does not take --m",
                     "error: suite 'divisibility' does not take --m",
                     "error: suite 'divisibility' does not take --p",
                     "error: suite 'divisibility' does not take --p",
                     "error: suite 'divisibility' does not take --m and --p",
                     "error: suite 'divisibility' does not take --m and --p"],
    "closed-forms": [(("max_n",), [(64,)]),
                     (("max_n",), [(7,)]),
                     "error: suite 'closed-forms' does not take --m",
                     "error: suite 'closed-forms' does not take --m",
                     "error: suite 'closed-forms' does not take --p",
                     "error: suite 'closed-forms' does not take --p",
                     "error: suite 'closed-forms' does not take --m and --p",
                     "error: suite 'closed-forms' does not take --m and --p"],
    "thm41": [((), [(None,)]),
              "error: suite 'thm41' does not take --max-n",
              "error: suite 'thm41' does not take --m",
              "error: suite 'thm41' does not take --max-n and --m",
              "error: suite 'thm41' does not take --p",
              "error: suite 'thm41' does not take --max-n and --p",
              "error: suite 'thm41' does not take --m and --p",
              "error: suite 'thm41' does not take --max-n and --m and --p"],
    "thm42": [(("max_n",), [(14,)]),
              (("max_n",), [(7,)]),
              "error: suite 'thm42' does not take --m",
              "error: suite 'thm42' does not take --m",
              "error: suite 'thm42' does not take --p",
              "error: suite 'thm42' does not take --p",
              "error: suite 'thm42' does not take --m and --p",
              "error: suite 'thm42' does not take --m and --p"],
    "thm43": [(("m", "max_n"), [(12, 2), (12, 3)]),
              (("m", "max_n"), [(7, 2), (7, 3)]),
              (("m", "max_n"), [(12, 3)]),
              (("m", "max_n"), [(7, 3)]),
              "error: suite 'thm43' does not take --p",
              "error: suite 'thm43' does not take --p",
              "error: suite 'thm43' does not take --p",
              "error: suite 'thm43' does not take --p"],
    "cor44": [(("max_n", "p"), [(20, 2), (20, 3), (20, 5)]),
              (("max_n", "p"), [(7, 2), (7, 3), (7, 5)]),
              "error: suite 'cor44' does not take --m",
              "error: suite 'cor44' does not take --m",
              (("max_n", "p"), [(20, 5)]),
              (("max_n", "p"), [(7, 5)]),
              "error: suite 'cor44' does not take --m",
              "error: suite 'cor44' does not take --m"],
    "thm45": [(("max_n",), [(32,)]),
              (("max_n",), [(7,)]),
              "error: suite 'thm45' does not take --m",
              "error: suite 'thm45' does not take --m",
              "error: suite 'thm45' does not take --p",
              "error: suite 'thm45' does not take --p",
              "error: suite 'thm45' does not take --m and --p",
              "error: suite 'thm45' does not take --m and --p"],
    "eq18": [(("max_n",), [(10,)]),
             (("max_n",), [(7,)]),
             "error: suite 'eq18' does not take --m",
             "error: suite 'eq18' does not take --m",
             "error: suite 'eq18' does not take --p",
             "error: suite 'eq18' does not take --p",
             "error: suite 'eq18' does not take --m and --p",
             "error: suite 'eq18' does not take --m and --p"],
    "eq21": [(("max_n",), [(12,)]),
             (("max_n",), [(7,)]),
             "error: suite 'eq21' does not take --m",
             "error: suite 'eq21' does not take --m",
             "error: suite 'eq21' does not take --p",
             "error: suite 'eq21' does not take --p",
             "error: suite 'eq21' does not take --m and --p",
             "error: suite 'eq21' does not take --m and --p"],
    "eq26": [(("m",), [(6, 2), (8, 2), (9, 3)]),
             "error: suite 'eq26' does not take --max-n (it takes --max-n only with --m)",
             (("m", "max_n"), [(9, 3)]),
             (("m", "max_n"), [(7, 3)]),
             "error: suite 'eq26' does not take --p",
             "error: suite 'eq26' does not take --max-n and --p (it takes --max-n only with --m)",
             "error: suite 'eq26' does not take --p",
             "error: suite 'eq26' does not take --p"],
    "eq28": [(("m",), [(6, 2), (8, 2), (9, 3)]),
             "error: suite 'eq28' does not take --max-n (it takes --max-n only with --m)",
             (("m", "max_n"), [(9, 3)]),
             (("m", "max_n"), [(7, 3)]),
             "error: suite 'eq28' does not take --p",
             "error: suite 'eq28' does not take --max-n and --p (it takes --max-n only with --m)",
             "error: suite 'eq28' does not take --p",
             "error: suite 'eq28' does not take --p"],
    "pascal": [(("max_n",), [(12,)]),
               (("max_n",), [(7,)]),
               "error: suite 'pascal' does not take --m",
               "error: suite 'pascal' does not take --m",
               "error: suite 'pascal' does not take --p",
               "error: suite 'pascal' does not take --p",
               "error: suite 'pascal' does not take --m and --p",
               "error: suite 'pascal' does not take --m and --p"],
    "qpascal": [(("max_n",), [(12,)]),
                (("max_n",), [(7,)]),
                "error: suite 'qpascal' does not take --m",
                "error: suite 'qpascal' does not take --m",
                "error: suite 'qpascal' does not take --p",
                "error: suite 'qpascal' does not take --p",
                "error: suite 'qpascal' does not take --m and --p",
                "error: suite 'qpascal' does not take --m and --p"],
    "pascal-m": [(("m", "max_n"), [(12, (2, 3))]),
                 (("m", "max_n"), [(7, (2, 3))]),
                 (("m", "max_n"), [(12, (3,))]),
                 (("m", "max_n"), [(7, (3,))]),
                 "error: suite 'pascal-m' does not take --p",
                 "error: suite 'pascal-m' does not take --p",
                 "error: suite 'pascal-m' does not take --p",
                 "error: suite 'pascal-m' does not take --p"],
}


@pytest.mark.parametrize("name", PLANS)
def test_plan_table(monkeypatch, capsys, name):
    assert list(PLANS) == list(cli.SUITES)
    suite, calls = cli.SUITES[name], []

    def recorder(*params):
        calls.append(params)
        return Report(name)

    monkeypatch.setitem(cli.SUITES, name, suite._replace(checks=(recorder,) * len(suite.checks)))
    for subset, expected in enumerate(PLANS[name]):
        given = {opt: value if subset >> j & 1 else None
                 for j, (opt, value) in enumerate(PLAN_OPTIONS)}
        calls.clear()
        if isinstance(expected, str):
            argv = [f"--{opt.replace('_', '-')}={value}" for opt, value in given.items()
                    if value is not None]
            assert run(capsys, "verify", name, *argv) == (2, "", expected + "\n")
            assert calls == []
        else:
            read, sets = expected
            args = types.SimpleNamespace(**given)
            assert cli._plan(suite, args) == (set(read), sets)
            assert cli.run_suite(name, args).checks == []
            assert calls == [params for params in sets for _ in suite.checks]


# ---------------------------------------------------------------------------
# The grammar: every argv either runs and prints or is a usage error


SMALL = st.integers(-2, 12)
# Each command with its name, suite or variant: ``ppx`` and then these words.
HEADS = ([("seq", name) for name in [*cli.SEQ_FUNCS, "zz"]]
         + [("verify", suite) for suite in [*cli.SUITES, "all", "nonsense"]]
         + [("pascal", "--variant", variant) for variant in ("classic", "q", "m")])


@pytest.mark.parametrize("head", HEADS, ids=" ".join)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_grammar_runs_or_is_a_usage_error(head, data):
    # The rest of the argv: N or n from -2 up, each verify option or none,
    # --m or none for pascal, and every action and format.  A guard that a
    # command reaches and that raises a plain ValueError escapes main here,
    # as it would end the process with a traceback.
    draw = data.draw
    argv = list(head)
    if head[0] != "verify":
        argv.append(str(draw(SMALL)))
    if head[0] == "pascal":
        argv += ["--action", draw(st.sampled_from(("print", "factor")))]
    options = {"seq": (), "verify": ("--max-n", "--m", "--p"), "pascal": ("--m",)}[head[0]]
    argv += [f"{flag}={draw(SMALL)}" for flag in options if draw(st.booleans())]
    formats = ("text", "csv", "json") if head[0] == "seq" else ("text", "json")
    argv += ["--format", draw(st.sampled_from(formats))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code in (0, 1) and out


@pytest.mark.parametrize("argv, line", [
    ((), "missing command (see ppx --help)"),
    (("frob",), "command must be one of seq, verify, pascal, got 'frob'"),
    (("seq", "zz", "3"), "name must be one of e, c, a, u, r, eq, Eq, uq, rq, cq, got 'zz'"),
    (("seq", "c", "x"), "count must be an integer, got 'x'"),
    (("seq", "c", "8", "9"), "unexpected argument '9'"),
    (("verify", "all", "--m"), "--m needs a value"),
    (("pascal", "5", "--zz", "1"), "unrecognized option '--zz'"),
    (("pascal", "5", "--help=1"), "--help takes no value"),
])
def test_usage_error_line(capsys, argv, line):
    # One line per way parse_args rejects an argv.
    assert run(capsys, *argv) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["seq", "--he", "zz"],
                                  ["pascal", "--zz", "5", "--m", "-3", "-h", "--zz"]])
def test_help_prints_the_synopsis(capsys, argv):
    # Before any token at fault, or after a fault that argparse reported only
    # at the end, a help flag prints the synopsis.
    synopsis = cli.__doc__.split("\n\n")[1]
    assert synopsis.startswith("    ppx seq <name> <N>") and "    ppx verify <suite>" in synopsis
    assert run(capsys, *argv) == (0, synopsis + "\n", "")


# ---------------------------------------------------------------------------
# parse_args against the argparse parser it replaced: the same attributes, or
# a rejection by both, or help on both.

INTS = [str(i) for i in range(-3, 101)]
WORDS = [*cli.SEQ_FUNCS, *cli.SUITES, "all", *cli.PASCAL_VARIANTS, "text", "csv", "json",
         "print", "factor", "zz", "nonsense", "-", ""]
FLAG_VALUES = {"--format": ["text", "csv", "json", "zz"], "--max-n": INTS, "--m": INTS,
               "--p": INTS, "--variant": ["classic", "q", "m", "zz"],
               "--action": ["print", "factor", "zz"], "--help": [""]}
# Each flag and each prefix of it with a letter, unique within any one command,
# and flags of no command, each with the values its flag takes.
PREFIXES = {flag[:k]: values for flag, values in FLAG_VALUES.items()
            for k in range(3, len(flag) + 1)}
UNKNOWN = {flag: INTS + WORDS for flag in ("--zz", "-x", "-m", "--formats", "--max-nn", "--M")}
FLAGS = {"-h": [""], **PREFIXES, **UNKNOWN}
TOKENS = st.one_of(st.sampled_from([*cli.GRAMMAR, *WORDS, *FLAGS]), st.sampled_from(INTS),
                   st.sampled_from(sorted(FLAGS)).flatmap(
                       lambda flag: st.sampled_from(INTS + WORDS).map(f"{flag}={{}}".format)))
POSITIONALS = {"seq": [list(cli.SEQ_FUNCS), INTS], "verify": [[*cli.SUITES, "all"]],
               "pascal": [INTS]}
OWN_FLAGS = {"seq": ["--format", "--help"],
             "verify": ["--max-n", "--m", "--p", "--format", "--help"],
             "pascal": ["--variant", "--m", "--action", "--format", "--help"]}


@st.composite
def near_grammar(draw):
    """A command, its positionals and up to four options (mostly its own
    flags or their prefixes, each with a value its flag takes) or stray
    words, these at random places after the command."""
    command = draw(st.sampled_from(sorted(POSITIONALS)))
    items = [[draw(st.sampled_from(values))] for values in POSITIONALS[command]]
    own = sorted(p for p in PREFIXES if any(f.startswith(p) for f in OWN_FLAGS[command]))
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from(own) | st.sampled_from(own) | st.sampled_from(sorted(FLAGS)))
        value = draw(st.sampled_from(FLAGS[flag]))
        item = [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
        items.insert(draw(st.integers(0, len(items))),
                     item if draw(st.integers(0, 3)) else [draw(st.sampled_from(INTS + WORDS))])
    return [command, *(token for item in items for token in item)]


def reference_outcome(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(argparse_reference.build_parser().parse_args(argv))
    except SystemExit as exc:
        return {0: "help", 2: "rejected"}[exc.code]


def parse_args_outcome(argv):
    try:
        args = cli.parse_args(argv)
    except cli.UsageError:
        return "rejected"
    return "help" if args.command == "help" else vars(args)


@settings(max_examples=1000, deadline=None)
@given(argv=st.one_of(st.lists(TOKENS, max_size=7), near_grammar()))
def test_parse_args_matches_argparse(argv):
    assert parse_args_outcome(argv) == reference_outcome(argv)


class TestInternalErrors:
    """Only a UsageError is a usage error; any other exception is a bug and
    leaves main."""

    def test_value_error_in_a_check_escapes(self, monkeypatch):
        def broken(n):
            raise ValueError("boom")

        monkeypatch.setitem(cli.SUITES, "broken", cli.Suite((broken,)))
        with pytest.raises(ValueError, match="boom"):
            cli.main(["verify", "broken"])

    def test_digit_limit_exits_one_with_a_traceback(self):
        # str() of c_1800 passes CPython's 4,300-digit limit for int-to-str
        # conversion: an internal limit, not a usage error.
        proc = subprocess.run([sys.executable, "-m", "ppx", "seq", "c", "1800"], capture_output=True,
                              text=True, env={**os.environ, "PPX_MAX_N": "1800"})
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1].startswith("ValueError: Exceeds the limit")

    def test_usage_error_is_a_value_error_of_rings(self):
        assert issubclass(ppx.UsageError, ValueError)
        assert cli.UsageError is ppx.UsageError


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

    @pytest.mark.parametrize("argv, line", [
        ("pascal 0", "dimension must be >= 1"),
        ("pascal 1 --action factor", "need n >= 2"),
        ("pascal 0 --variant q", "dimension must be >= 1"),
        ("pascal 5 --variant m --m 0", "need n >= 1 and m >= 1"),
        ("pascal 1 --variant m --m 2 --action factor", "need n >= 2 and m >= 1"),
    ])
    def test_builder_reports_a_size_out_of_range(self, capsys, argv, line):
        # cmd_pascal checks only the --m grammar; the builder checks the sizes.
        assert run(capsys, *argv.split()) == (2, "", f"error: {line}\n")


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
        # The with block closes both pipes, also when an assertion fails.
        with subprocess.Popen([sys.executable, "-m", "ppx", "verify", "all"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0) as proc:
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

    def test_help_survives_stripped_docstrings(self):
        # -OO drops docstrings; what --help prints is assigned to __doc__.
        proc = subprocess.run([sys.executable, "-OO", "-m", "ppx", "--help"], capture_output=True,
                              text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == cli.__doc__.split("\n\n")[1] + "\n"

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
              "QuotientRing", "RatFunc", "UsageError", "cyclotomic"],
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

    @pytest.mark.parametrize("code, ran", [
        ("import ppx.cli", "ppx.cli"),
        ("from ppx import cli; cli.main(['seq', 'c', '8'])", "ppx.sequences"),
        ("from ppx import cli; cli.main(['verify', 'eq26', '--m', '8'])", "ppx.pascal"),
        ("from ppx import cli; cli.main(['pascal', '12', '--action', 'factor'])", "ppx.pascal"),
    ])
    def test_no_argument_parser_is_loaded(self, code, ran):
        # argparse with gettext and locale cost a few ms of every process.
        loaded = modules_loaded_by(code)
        assert ran in loaded
        assert not loaded & {"argparse", "gettext", "locale"}

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


def test_no_cli_value_claims_a_cache_clear_it_lacks():
    # A stand-in module that answered every name would claim one whose call
    # raises, and a sweep that empties every cache of ppx would fail on it.
    for value in vars(cli).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
