"""The README's examples run and print what the README shows, so trimming
documented API or changing documented output cannot pass unnoticed."""

from pathlib import Path

import pytest

from ppx import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
ELIDED = "  ..."


def fenced_blocks() -> list:
    """(info string, body lines) of each fenced code block."""
    blocks, info, body = [], None, []
    for line in README.splitlines():
        if line.startswith("```"):
            if info is None:
                info, body = line[3:], []
            else:
                blocks.append((info, body))
                info = None
        elif info is not None:
            body.append(line)
    return blocks


def shell_examples() -> list:
    """(argv, shown output lines) of each `$ ppx ...` session; sessions are
    separated by blank lines."""
    examples = []
    for info, body in fenced_blocks():
        if info:
            continue
        for session in "\n".join(body).split("\n\n"):
            command, *shown = session.splitlines()
            if command.startswith("$ ppx "):
                examples.append((command.split()[2:], shown))
    return examples


EXAMPLES = shell_examples()


def test_examples_are_found():
    assert [" ".join(argv) for argv, _ in EXAMPLES] == [
        "seq c 8 --format csv",
        "seq rq 6",
        "pascal 4 --action factor",
        "verify kolberg --max-n 40",
    ]


@pytest.mark.parametrize("argv,shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_shell_example(capsys, argv, shown):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    if ELIDED in shown:
        # The lines before the ellipsis open the output, those after close it.
        cut = shown.index(ELIDED)
        head, tail = shown[:cut], shown[cut + 1:]
        assert out[:len(head)] == head
        assert out[len(out) - len(tail):] == tail
    else:
        assert out == shown


def test_library_example():
    (library,) = [body for info, body in fenced_blocks() if info == "python"]
    exec(compile("\n".join(library), "README.md", "exec"), {})
