from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_parts_sum_to_each_line_count():
    tool = _tool("src_lines")
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


def test_knobs_counts_defaults_and_dataclass_fields():
    tool = _tool("knobs")
    sample = ('from dataclasses import dataclass, field\n'
              'import dataclasses\n'
              'from typing import ClassVar\n\n\n'
              'def f(a, b=1, /, c=2, *args, d, e=3, **kw):\n'
              '    g = lambda x, y=0: x + y\n'
              '    return g\n\n\n'
              '@dataclass(frozen=True)\n'
              'class Config:\n'
              '    required: int\n'
              '    size: int = 4\n'
              '    items: list = field(default_factory=list)\n'
              '    LIMIT: ClassVar[int] = 9\n\n'
              '    def scaled(self, by=2):\n'
              '        return self.size * by\n\n\n'
              '@dataclasses.dataclass\n'
              'class Bare:\n'
              '    flag: bool = False\n\n\n'
              'class Plain:\n'
              '    width: int = 3\n')
    assert tool.knobs(sample) == ["f.b", "f.c", "f.e", "<lambda>.y",
                                  "Config.size", "Config.items",
                                  "scaled.by", "Bare.flag"]
    package = ROOT / "src" / "airytau"
    rows = tool.knobs_tree(package)
    assert set(rows) == {path.name for path in package.glob("*.py")}


def test_mutant_snippets_occur_once_in_their_files():
    # the mutation run itself (python tools/mutate.py) stays out of tier-1
    for mutant in _tool("mutate").load():
        text = (ROOT / mutant["file"]).read_text(encoding="utf-8")
        assert text.count(mutant["snippet"]) == 1, mutant["id"]


# Parameters with a default and defaulted dataclass fields in src/airytau,
# as counted by tools/knobs.py.  Each is one more setting that tests and
# benchmarks must cover: raise this only together with a CHANGES.md line
# that names the new knob and the callers that need different values.
KNOB_LIMIT = 25


def test_knob_count_does_not_grow():
    rows = _tool("knobs").knobs_tree(ROOT / "src" / "airytau")
    assert sum(map(len, rows.values())) <= KNOB_LIMIT, rows


# Code lines in src/airytau, as counted by tools/src_lines.py (docstrings,
# comments and blank lines are free).  The package is meant to shrink:
# raise this only together with a CHANGES.md line that says which change
# needs the added code and why a simpler body would not do.
CODE_LIMIT = 2371


def test_code_line_count_does_not_grow():
    rows = _tool("src_lines").count_tree(ROOT / "src" / "airytau")
    assert sum(row["code"] for row in rows.values()) <= CODE_LIMIT, rows
