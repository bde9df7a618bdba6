"""Command line interface.

    ppx seq <name> <N> [--format text|csv|json]
    ppx verify <suite> [--max-n K] [--m M] [--p P] [--format text|json]
    ppx verify all [--format text|json]
    ppx pascal <n> [--variant classic|q|m] [--m M] [--action print|factor]
                   [--format text|json]

Sequence names: e c a u r (classical) and eq Eq uq rq cq (q-analogs).
Exit codes: 0 all checks pass, 1 a verification failed, 2 usage error,
141 the reader closed standard output early.
The environment variable PPX_MAX_N overrides the sequence length caps
(default 64 for the classical sequences, 40 for the q-sequences, chosen so
``verify all`` stays comfortably under a minute).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import pascal, qsequences, sequences
from .report import Report, render_reports_json
from .rings import ConsistencyError, InexactDivisionError, serialize

INT_SEQ_CAP = 64
Q_SEQ_CAP = 40

SEQ_FUNCS = {
    "e": (sequences.e_seq, "int"),
    "c": (sequences.c_seq, "int"),
    "a": (sequences.a_seq, "int"),
    "u": (sequences.u_seq, "int"),
    "r": (sequences.r_seq, "int"),
    "eq": (qsequences.e_q_seq, "q"),
    "Eq": (qsequences.cap_e_q_seq, "q"),
    "uq": (qsequences.u_q_seq, "q"),
    "rq": (qsequences.r_q_seq, "q"),
    "cq": (qsequences.c_q_seq, "q"),
}


class UsageError(Exception):
    pass


def _seq_cap(family: str) -> int:
    override = os.environ.get("PPX_MAX_N")
    if override is not None:
        try:
            cap = int(override)
        except ValueError:
            raise UsageError(f"PPX_MAX_N must be an integer, got {override!r}")
        if cap < 1:
            raise UsageError("PPX_MAX_N must be >= 1")
        return cap
    return INT_SEQ_CAP if family == "int" else Q_SEQ_CAP


def cmd_seq(args) -> int:
    func, family = SEQ_FUNCS[args.name]
    cap = _seq_cap(family)
    if args.count < 1 or args.count > cap:
        raise UsageError(f"N must be between 1 and {cap} for sequence {args.name!r}")
    values = func(args.count)
    if args.format == "json":
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


class Suite:
    """One ``ppx verify`` suite: every check runs once per parameter set and
    all their checks are merged, in order, into one report named after the
    suite.

    ``max_n`` is the default ``--max-n`` (None for a suite that takes no
    size), ``flag`` the option the suite sweeps (``m`` or ``p``) and
    ``sweep`` its default values; ``together`` passes the whole sweep to one
    call.  ``pairs`` are the default (n, m) pairs of eq26/eq28; ``--m``
    replaces them with one pair whose n defaults to max(3m, 6).
    """

    __slots__ = ("checks", "max_n", "flag", "sweep", "together", "pairs")

    def __init__(self, checks: tuple, max_n: int | None = None, flag: str | None = None,
                 sweep: tuple = (), together: bool = False, pairs: tuple = ()):
        self.checks = checks
        self.max_n = max_n
        self.flag = flag
        self.sweep = sweep
        self.together = together
        self.pairs = pairs


SUITES = {
    "roundtrip": Suite((sequences.check_oracle_roundtrip, qsequences.check_q_oracle), 14),
    "kolberg": Suite((sequences.check_kolberg,), 64),
    "borwein-lou": Suite((sequences.check_borwein_lou,), 64),
    "divisibility": Suite((sequences.check_divisibility,), 64),
    "closed-forms": Suite((sequences.check_closed_forms,), 64),
    "thm41": Suite((lambda n: qsequences.check_golden_q_lists(),)),
    "thm42": Suite((qsequences.check_integrality,), 14),
    "thm43": Suite((pascal.check_cyclotomic_specialization,), 12, "m", (2, 3)),
    "cor44": Suite((lambda n, p: pascal.check_carlitz(p, n),), 20, "p", (2, 3, 5)),
    "thm45": Suite((qsequences.check_mod_q2,), 32),
    "eq18": Suite((qsequences.check_reciprocal_identity,), 10),
    "eq21": Suite((qsequences.check_log_coeffs,), 12),
    "eq26": Suite((pascal.check_root_of_unity_factorization,), pairs=((6, 2), (8, 2), (9, 3))),
    "eq28": Suite((pascal.check_truncated_exp_product,), pairs=((6, 2), (8, 2), (9, 3))),
    "pascal": Suite((pascal.check_pascal,), 12),
    "qpascal": Suite((pascal.check_q_pascal,), 12),
    "pascal-m": Suite((pascal.check_pascal_m,), 12, "m", (2, 3), together=True),
}


def _read_options(suite: Suite, args) -> set:
    # The verify options that this suite's parameter sets are built from.
    if suite.pairs:
        return {"m", "max_n"} if args.m is not None else {"m"}
    read = {suite.flag} if suite.flag else set()
    return read | {"max_n"} if suite.max_n is not None else read


def _parameter_sets(suite: Suite, args) -> list:
    if suite.pairs:
        if args.m is None:
            return list(suite.pairs)
        return [(args.max_n if args.max_n is not None else max(args.m * 3, 6), args.m)]
    n = args.max_n if args.max_n is not None else suite.max_n
    if suite.flag is None:
        return [(n,)]
    given = getattr(args, suite.flag)
    values = suite.sweep if given is None else (given,)
    return [(n, values)] if suite.together else [(n, v) for v in values]


def run_suite(name: str, args) -> Report:
    """Run the suite with the parameters in args (None means its default);
    an option the suite would not read is a usage error."""
    suite = SUITES[name]
    read = _read_options(suite, args)
    unread = [opt for opt in ("max_n", "m", "p") if getattr(args, opt) is not None
              and opt not in read]
    if unread:
        flags = " and ".join("--" + opt.replace("_", "-") for opt in unread)
        hint = " (it takes --max-n only with --m)" if suite.pairs and "max_n" in unread else ""
        raise UsageError(f"suite {name!r} does not take {flags}{hint}")
    merged = Report(name)
    for params in _parameter_sets(suite, args):
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


def cmd_pascal(args) -> int:
    n, variant = args.n, args.variant
    if n < 1:
        raise UsageError("n must be >= 1")
    if variant == "m":
        if args.m is None:
            raise UsageError("--m is required with --variant m")
        if args.m < 1:
            raise UsageError("--m must be >= 1")
    elif args.m is not None:
        raise UsageError("--m only applies to --variant m")

    if args.action == "print":
        if variant == "classic":
            matrix = pascal.pascal_matrix(n)
        elif variant == "q":
            matrix = pascal.q_pascal(n)
        else:
            matrix = pascal.pascal_m(n, args.m)
        if args.format == "json":
            obj = {"pascal": n, "variant": variant, "entries": matrix.to_json_obj()}
            if variant == "m":
                obj["m"] = args.m
            print(json.dumps(obj, indent=2))
        else:
            print(matrix.render_text())
        return 0

    if n < 2:
        raise UsageError("factoring needs n >= 2")
    if variant == "classic":
        factors = pascal.factor_pascal(n)
    elif variant == "q":
        factors = pascal.factor_q_pascal(n)
    else:
        factors = pascal.factor_pascal_m(n, args.m)
    if args.format == "json":
        obj = {"pascal": n, "variant": variant,
               "factors": [serialize(c) for c in factors]}
        if variant == "m":
            obj["m"] = args.m
        print(json.dumps(obj, indent=2))
    else:
        print(", ".join(str(c) for c in factors))
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppx",
        description="Exact power product expansions of exp and exp_q, "
                    "their sequences, and Pascal matrix factorizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="print a sequence")
    p_seq.add_argument("name", choices=sorted(SEQ_FUNCS), help="sequence name")
    p_seq.add_argument("count", type=int, metavar="N", help="number of terms")
    p_seq.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_seq.set_defaults(func=cmd_seq)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--max-n", type=int, dest="max_n", default=None)
    p_verify.add_argument("--m", type=int, default=None)
    p_verify.add_argument("--p", type=int, default=None)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_pascal = sub.add_parser("pascal", help="print or factor a Pascal matrix")
    p_pascal.add_argument("n", type=int)
    p_pascal.add_argument("--variant", choices=("classic", "q", "m"), default="classic")
    p_pascal.add_argument("--m", type=int, default=None)
    p_pascal.add_argument("--action", choices=("print", "factor"), default="print")
    p_pascal.add_argument("--format", choices=("text", "json"), default="text")
    p_pascal.set_defaults(func=cmd_pascal)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed the pipe early (`ppx verify all | head -1`).  With
        # stdout pointed at devnull the interpreter's exit-time flush stays
        # quiet; 141 is the status a shell reports for a death by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, InexactDivisionError) as exc:  # inexact: a theory-exact division
        print(f"consistency violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
