from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _src_lines():
    spec = importlib.util.spec_from_file_location(
        "src_lines", ROOT / "tools" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_parts_sum_to_each_line_count():
    tool = _src_lines()
    package = ROOT / "src" / "airytau"
    rows = tool.count_tree(package)
    assert set(rows) == {path.name for path in package.glob("*.py")}
    for name, row in rows.items():
        text = (package / name).read_text(encoding="utf-8")
        assert sum(row.values()) == text.count("\n"), name
        assert min(row.values()) >= 0 and row["code"] > 0, name
    sample = ('"""Module\n\ndocstring."""\n\n# a comment\nx = 1  # trailing\n'
              'y = """\n# inside a string\n"""\n\n\ndef f():\n'
              '    """One line."""\n    return x\n')
    assert tool.count_lines(sample) == {"code": 6, "docstring": 4,
                                        "comment": 1, "blank": 3}
