"""The README's Layout table names each module of the package exactly once,
and every `rabe` command in its code blocks parses."""

import pathlib
import re
import shlex

from rabe import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_layout_names_each_module_once():
    layout = README.split("\n## Layout\n", 1)[1].split("\n#", 1)[0]  # up to the next heading
    rows = re.findall(r"^\| `([\w.]+)` \|", layout, flags=re.M)
    modules = ["rabe" if path.stem == "__init__" else f"rabe.{path.stem}"
               for path in (ROOT / "src" / "rabe").glob("*.py")]
    assert sorted(rows) == sorted(modules)


def test_every_documented_command_parses():
    """Each `rabe ...` line of a code block, continuation lines joined and
    comments dropped, is a command line the parser accepts; nothing runs."""
    blocks = re.findall(r"^```\w*\n(.*?)^```", README, flags=re.M | re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("rabe ")]
    assert len(commands) >= 14  # the walkthrough, the attack and lemma-check
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
