"""The argparse parser that ``ppx.cli.parse_args`` replaced, kept verbatim as
the reference of the differential test in test_cli.py."""

import argparse

from ppx.cli import SEQ_FUNCS, SUITES, cmd_pascal, cmd_seq, cmd_verify


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
