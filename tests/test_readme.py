"""The README's Layout table names each module of the package exactly once."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_layout_names_each_module_once():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = text.split("\n## Layout\n", 1)[1].split("\n#", 1)[0]  # up to the next heading
    rows = re.findall(r"^\| `([\w.]+)` \|", layout, flags=re.M)
    modules = ["rabe" if path.stem == "__init__" else f"rabe.{path.stem}"
               for path in (ROOT / "src" / "rabe").glob("*.py")]
    assert sorted(rows) == sorted(modules)
