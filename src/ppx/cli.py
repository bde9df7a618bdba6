# Assigned, not a docstring, so that ``python -OO`` keeps what ``--help`` prints.
__doc__ = """Command line interface.

    ppx seq <name> <N> [--format text|csv|json]
    ppx verify <suite> [--max-n K] [--m M] [--p P] [--format text|json]
    ppx verify all [--format text|json]
    ppx pascal <n> [--variant classic|q|m] [--m M] [--action print|factor]
                   [--format text|json]
Sequence names: e c a u r (classical) and eq Eq uq rq cq (q-analogs).
Exit codes: 0 all checks pass; 1 a verification failed, or a bug, which
Python reports with its traceback; 2 a usage error, a rings.UsageError (an
argv outside the synopsis, or a parameter out of range); 141 the reader
closed standard output early.  ppx seq takes at most 64 terms of any
sequence; the environment variable PPX_MAX_N overrides that cap.  It bounds
seq only: the verify suites take their sizes from their options and
defaults.  ppx -h or ppx --help prints this paragraph.

``seq`` loads ``sequences`` or ``qsequences``, ``verify <suite>`` the
modules of its checks and ``pascal`` loads ``pascal``; only ``--format json``
loads ``json``.  ``run``, the process entry point, flushes after ``main`` and
ends with ``os._exit``, skipping a finalization that frees nothing the OS
would not: ``python -m ppx seq c 8`` takes 20.8 ms, and 24.4 ms with a normal
exit after ``main`` (CPython 3.11.7, 2-core x86-64 host, medians of 31 runs).
"""

import collections
import os
import sys
import types
from importlib import import_module

from .report import Report, render_reports_json
from .rings import ConsistencyError, InexactDivisionError, UsageError, serialize

SEQ_CAP = 64


def _late(module: str, name: str):
    """A function that imports ppx.<module> when called and calls its <name>."""
    return lambda *args: getattr(import_module(f"{__package__}.{module}"), name)(*args)


SEQ_FUNCS = {
    "e": _late("sequences", "e_seq"),
    "c": _late("sequences", "c_seq"),
    "a": _late("sequences", "a_seq"),
    "u": _late("sequences", "u_seq"),
    "r": _late("sequences", "r_seq"),
    "eq": _late("qsequences", "e_q_seq"),
    "Eq": _late("qsequences", "cap_e_q_seq"),
    "uq": _late("qsequences", "u_q_seq"),
    "rq": _late("qsequences", "r_q_seq"),
    "cq": _late("qsequences", "c_q_seq"),
}


def _seq_cap() -> int:
    override = os.environ.get("PPX_MAX_N")
    if override is not None:
        try:
            cap = int(override)
        except ValueError:
            raise UsageError(f"PPX_MAX_N must be an integer, got {override!r}")
        if cap < 1:
            raise UsageError("PPX_MAX_N must be >= 1")
        return cap
    return SEQ_CAP


def cmd_seq(args) -> int:
    cap = _seq_cap()
    if args.count < 1 or args.count > cap:
        raise UsageError(f"N must be between 1 and {cap} for sequence {args.name!r}")
    values = SEQ_FUNCS[args.name](args.count)
    if args.format == "json":
        import json
        obj = {
            "sequence": args.name,
            "terms": [{"n": i + 1, "value": serialize(v)} for i, v in enumerate(values)],
        }
        print(json.dumps(obj, indent=2))
    elif args.format == "csv":
        print(",".join(str(v) for v in values))
    else:
        print(" ".join(str(v) for v in values))
    return 0


# ---------------------------------------------------------------------------
# verify


# One ``ppx verify`` suite: every check runs once per parameter set and all
# their checks are merged, in order, into one report named after the suite.
# ``max_n`` is the default ``--max-n`` (None for a suite that takes no size),
# ``flag`` the option the suite sweeps (``m`` or ``p``) and ``sweep`` its
# default values; ``together`` passes the whole sweep to one call.  ``pairs``
# are the default (n, m) pairs of eq26/eq28; ``--m`` replaces them with one
# pair whose n defaults to max(3m, 6).  ``least`` is the smallest ``--max-n``
# the suite takes: below it ``run_suite`` raises a usage error before any
# check runs.  It is None for a suite that takes no size or whose checks
# relate the size to ``--m`` or ``--p``.
Suite = collections.namedtuple("Suite", "checks max_n flag sweep together pairs least",
                               defaults=(None, None, (), False, (), None))
_PAIRS = ((6, 2), (8, 2), (9, 3))


SUITES = {
    "roundtrip": Suite((_late("sequences", "check_oracle_roundtrip"),
                        _late("qsequences", "check_q_oracle")), 14, least=1),
    "kolberg": Suite((_late("sequences", "check_kolberg"),), 64, least=2),
    "borwein-lou": Suite((_late("sequences", "check_borwein_lou"),), 64, least=2),
    "divisibility": Suite((_late("sequences", "check_divisibility"),), 64, least=2),
    "closed-forms": Suite((_late("sequences", "check_closed_forms"),), 64, least=3),
    "thm41": Suite((lambda n: _late("qsequences", "check_golden_q_lists")(),)),
    "thm42": Suite((_late("qsequences", "check_integrality"),), 14, least=2),
    "thm43": Suite((_late("pascal", "check_cyclotomic_specialization"),), 12, "m", (2, 3)),
    "cor44": Suite((lambda n, p: _late("pascal", "check_carlitz")(p, n),), 20, "p", (2, 3, 5)),
    "thm45": Suite((_late("qsequences", "check_mod_q2"),), 32, least=1),
    "eq18": Suite((_late("qsequences", "check_reciprocal_identity"),), 10, least=1),
    "eq21": Suite((_late("qsequences", "check_log_coeffs"),), 12, least=1),
    "eq26": Suite((_late("pascal", "check_root_of_unity_factorization"),), pairs=_PAIRS),
    "eq28": Suite((_late("pascal", "check_truncated_exp_product"),), pairs=_PAIRS),
    "pascal": Suite((_late("pascal", "check_pascal"),), 12, least=2),
    "qpascal": Suite((_late("pascal", "check_q_pascal"),), 12, least=2),
    "pascal-m": Suite((_late("pascal", "check_pascal_m"),), 12, "m", (2, 3), together=True,
                      least=2),
}


def _plan(suite: Suite, args) -> tuple:
    """(the verify options the suite reads, its parameter sets) for args, in
    which None means the option was not given; runs nothing."""
    if suite.pairs and args.m is None:
        return {"m"}, list(suite.pairs)
    if suite.pairs:
        return {"m", "max_n"}, [(max(args.m * 3, 6) if args.max_n is None else args.max_n, args.m)]
    n = args.max_n if args.max_n is not None else suite.max_n
    read = set() if suite.max_n is None else {"max_n"}
    if suite.flag is None:
        return read, [(n,)]
    given = getattr(args, suite.flag)
    values = suite.sweep if given is None else (given,)
    return read | {suite.flag}, [(n, values)] if suite.together else [(n, v) for v in values]


def run_suite(name: str, args) -> Report:
    """Run the suite with the parameters in args (None means its default);
    an option the suite would not read, and then a size below its least, is a
    usage error raised before any check runs."""
    suite = SUITES[name]
    read, parameter_sets = _plan(suite, args)
    unread = [opt for opt in ("max_n", "m", "p") if getattr(args, opt) is not None
              and opt not in read]
    if unread:
        flags = " and ".join("--" + opt.replace("_", "-") for opt in unread)
        hint = " (it takes --max-n only with --m)" if suite.pairs and "max_n" in unread else ""
        raise UsageError(f"suite {name!r} does not take {flags}{hint}")
    if suite.least is not None and parameter_sets[0][0] < suite.least:
        raise UsageError(f"need N >= {suite.least}")
    merged = Report(name)
    for params in parameter_sets:
        for check in suite.checks:
            merged.checks.extend(check(*params).checks)
    return merged


def cmd_verify(args) -> int:
    if args.suite == "all":
        if (args.max_n, args.m, args.p) != (None, None, None):
            raise UsageError("--max-n, --m and --p apply to a single suite, not to 'all'")
        reports = [run_suite(name, args) for name in SUITES]
    else:
        reports = [run_suite(args.suite, args)]
    if args.format == "json":
        print(render_reports_json(reports))
    else:
        print("\n\n".join(rep.render_text() for rep in reports))
    return 0 if all(rep.passed for rep in reports) else 1


# ---------------------------------------------------------------------------
# pascal


# --variant: the print builder and the factorizer, each called with n, and
# with m as well for --variant m.
PASCAL_VARIANTS = {
    "classic": (_late("pascal", "pascal_matrix"), _late("pascal", "factor_pascal")),
    "q": (_late("pascal", "q_pascal"), _late("pascal", "factor_q_pascal")),
    "m": (_late("pascal", "pascal_m"), _late("pascal", "factor_pascal_m")),
}


def cmd_pascal(args) -> int:
    n, variant = args.n, args.variant
    if variant == "m" and args.m is None:
        raise UsageError("--m is required with --variant m")
    if variant != "m" and args.m is not None:
        raise UsageError("--m only applies to --variant m")

    build, factor = PASCAL_VARIANTS[variant]
    params = (n,) if args.m is None else (n, args.m)
    as_json = args.format == "json"
    if args.action == "print":
        matrix = build(*params)
        key, out = "entries", matrix.to_json_obj() if as_json else matrix.render_text()
    else:
        factors = factor(*params)
        key, out = "factors", ([serialize(c) for c in factors] if as_json
                               else ", ".join(str(c) for c in factors))
    if as_json:
        import json
        obj = {"pascal": n, "variant": variant, key: out}
        if variant == "m":
            obj["m"] = args.m
        out = json.dumps(obj, indent=2)
    print(out)
    return 0


# ---------------------------------------------------------------------------
# entry point


def cmd_help(args) -> int:
    print(__doc__.split("\n\n")[1])
    return 0


# Each command's handler, positionals as (dest, kind) and options as {flag: (kind,
# default)}.  A kind is int or the container of the allowed words, read at parse time.
FORMATS = ("text", "json")
GRAMMAR = {
    "seq": (cmd_seq, (("name", SEQ_FUNCS), ("count", int)),
            {"--format": (("text", "csv", "json"), "text")}),
    "verify": (cmd_verify, (("suite", collections.ChainMap({"all": None}, SUITES)),),
               {"--max-n": (int, None), "--m": (int, None), "--p": (int, None),
                "--format": (FORMATS, "text")}),
    "pascal": (cmd_pascal, (("n", int),),
               {"--variant": (PASCAL_VARIANTS, "classic"), "--m": (int, None),
                "--action": (("print", "factor"), "print"), "--format": (FORMATS, "text")}),
}


def _is_option(token: str) -> bool:
    return token[:1] == "-" and token != "-" and not token[1:].isdecimal()


def parse_args(argv) -> types.SimpleNamespace:
    """The command of argv, its handler as func and its values.  A bad value raises UsageError
    at once; an unknown option, or a missing or extra positional, at the end: a help flag wins."""
    values, pending, options, late = {}, [("command", GRAMMAR)], {}, None
    tokens = iter(argv)
    for token in tokens:
        if not _is_option(token):
            if not pending:
                late = late or f"unexpected argument {token!r}"
                continue
            (what, kind), value = pending.pop(0), token
        else:
            flag, eq, value = token.partition("=")
            flags = ("-h", "--help", *options)
            hits = [flag] if flag in flags else [
                f for f in flags if f.startswith(flag) and flag != "--"]
            if len(hits) != 1:
                late = late or f"unrecognized option {flag!r}"
                continue
            if hits[0] in ("-h", "--help"):
                if eq:
                    raise UsageError(f"{flag} takes no value")
                return types.SimpleNamespace(command="help", func=cmd_help)
            what, kind = hits[0], options[hits[0]][0]
            if not eq:
                value = next(tokens, None)
                if value is None or _is_option(value):
                    raise UsageError(f"{what} needs a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"{what} must be an integer, got {value!r}") from None
        elif value not in kind:
            raise UsageError(f"{what} must be one of {', '.join(kind)}, got {value!r}")
        values[what.lstrip("-").replace("-", "_")] = value
        if what == "command":
            values["func"], positionals, options = GRAMMAR[value]
            pending += positionals
            values.update((f.lstrip("-").replace("-", "_"), d) for f, (_, d) in options.items())
    if pending or late:
        raise UsageError(f"missing {pending[0][0]} (see ppx --help)" if pending else late)
    return types.SimpleNamespace(**values)


def _reader_left() -> int:
    # The reader closed the pipe early (`ppx verify all | head -1`): no later
    # flush may fail, and 141 is what a shell reports for a death by SIGPIPE.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 141


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        code = args.func(args)
        sys.stdout.flush()  # a reader that left shows here, not at exit
        return code
    except BrokenPipeError:
        return _reader_left()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, InexactDivisionError) as exc:  # inexact: a theory-exact division
        print(f"consistency violation: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The ``ppx`` process: ``main``, flush, then exit without finalization.
    An exception that escapes ``main`` leaves through the normal exit."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = _reader_left()
    os._exit(code)
