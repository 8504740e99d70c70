"""Run the mutant catalogue ``tools/mutants.json``: every mutant must be
killed by every target it names.

    python tools/mutate.py [ID ...]      # every mutant by default

An entry holds an ``id``, a ``file`` relative to the repository root, an
exact ``snippet`` that occurs once in that file, its ``replacement``, the
``targets`` that must fail and the ``change`` that added it (the opening
words of its CHANGES.md line).  A target is a pytest node id, which holds
``::``, or a ``verify`` check named ``suite:name``.

The run copies ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary
directory and runs every named target once on the unmutated copy, where
each must pass.  Then, one mutant at a time, it writes the replacement in,
runs that mutant's targets and restores the file.  A pytest target is
killed when pytest exits 1, and a check when ``airytau verify --suite
SUITE`` prints its FAIL line; anything else, a timeout past ``TIMEOUT``
included, leaves the mutant alive.  One subprocess runs at a time, and no
bytecode is written, so a restored file is never read from a stale cache.
Exits 1 when a mutant survives a target or a target does not pass on the
unmutated copy, 0 otherwise.  Standard library only.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tools" / "mutants.json"
# seconds one target may run; a target past it leaves its mutant alive
TIMEOUT = 600


def load() -> list[dict]:
    return json.loads(CATALOGUE.read_text(encoding="utf-8"))


def _run_target(tree: Path, target: str) -> str:
    """'pass', 'fail' or 'error: ...' for one target on ``tree``.  An
    error is a timeout, a pytest exit code other than 0 and 1 (such as an
    unknown node id) or a verify run that prints no line for the check
    (such as a crash in an earlier check)."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    if "::" in target:
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                target]
    else:
        argv = [sys.executable, "-m", "airytau.cli", "verify", "--suite",
                target.split(":")[0]]
    try:
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return f"error: timeout after {TIMEOUT} s"
    if "::" in target:
        outcome = {0: "pass", 1: "fail"}.get(done.returncode)
    else:
        lines = done.stdout.splitlines()
        outcome = "pass" if f"PASS  {target}" in lines else next(
            ("fail" for line in lines
             if line.startswith(f"FAIL  {target}  (")), None)
    return outcome or f"error: no result, exit {done.returncode}"


def run(mutants: list[dict]) -> int:
    start = time.monotonic()
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        targets = dict.fromkeys(t for m in mutants for t in m["targets"])
        for target in targets:
            outcome = _run_target(tree, target)
            if outcome != "pass":
                print(f"BASELINE  {target}: {outcome}")
                status = 1
        if status:
            return status
        for mutant in mutants:
            path = tree / mutant["file"]
            source = path.read_text(encoding="utf-8")
            if source.count(mutant["snippet"]) != 1:
                print(f"ERROR     {mutant['id']}: snippet does not occur "
                      f"exactly once in {mutant['file']}")
                status = 1
                continue
            path.write_text(source.replace(mutant["snippet"],
                                           mutant["replacement"]),
                            encoding="utf-8")
            began = time.monotonic()
            try:
                outcomes = {t: _run_target(tree, t)
                            for t in mutant["targets"]}
            finally:
                path.write_text(source, encoding="utf-8")
            alive = {t: o for t, o in outcomes.items() if o != "fail"}
            verdict = "SURVIVED" if alive else "KILLED  "
            print(f"{verdict}  {mutant['id']}  "
                  f"({time.monotonic() - began:.1f} s)"
                  + "".join(f"\n    {t}: {o}" for t, o in outcomes.items()))
            status |= bool(alive)
    print(f"# {len(mutants)} mutants, {time.monotonic() - start:.1f} s: "
          + ("a mutant survived" if status else "every mutant killed"))
    return status


def main(argv: list[str] | None = None) -> int:
    ids = sys.argv[1:] if argv is None else argv
    mutants = load()
    unknown = set(ids) - {m["id"] for m in mutants}
    if unknown:
        print(f"error: unknown mutant id {sorted(unknown)}", file=sys.stderr)
        return 2
    return run([m for m in mutants if not ids or m["id"] in ids])


if __name__ == "__main__":
    sys.exit(main())
