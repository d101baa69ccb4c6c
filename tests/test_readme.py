import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def layout_rows():
    """The module names of README's "Package layout" table, in order."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Package layout\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `shapwa\.(\w+)` \|", section, re.MULTILINE)


def test_package_layout_has_one_row_per_module():
    modules = {p.stem for p in (ROOT / "src" / "shapwa").glob("*.py")}
    rows = layout_rows()
    assert len(rows) == len(set(rows)), rows
    assert set(rows) == modules - {"__init__", "__main__"}
