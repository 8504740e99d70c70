from __future__ import annotations

import json
import random

from airytau import verify
from airytau.cli import main
from airytau.errors import CrossCheckError, InsufficientCutoffError
from airytau.rational import Rat
from airytau.series import Series1
from airytau.verify import (SUITES, SEED, VerifyContext, _random_valid_keys,
                            _run, dvv_correlator, run_suites)

import pytest

from oracles import LITERATURE_CORRELATORS


def test_all_suites_small_scale():
    results = run_suites(list(SUITES), scale="small")
    failures = [r.line() for r in results if not r.passed]
    assert not failures, "\n".join(failures)
    names = {(r.suite, r.name) for r in results}
    assert ("airy", "kernel-route-agreement") in names
    assert ("npoint", "genus-zero-generating-function") in names
    assert ("kp", "differential-fay") in names


def test_unknown_suite_rejected():
    with pytest.raises(CrossCheckError):
        run_suites(["nonexistent"])


def test_context_reuses_engines():
    ctx = VerifyContext(scale="small")
    assert ctx.engine is ctx.engine
    assert ctx.engine_for(8) is ctx.engine_for(8)


def test_context_records_checks_in_call_order_under_its_suite():
    ctx = VerifyContext("full")
    ctx.suite = "first"
    ctx.check("holds")(lambda: True)
    ctx.suite = "second"

    @ctx.check("differs")
    def differs():
        return "cell (0, 2) differs"

    assert [r.line() for r in ctx.results] == [
        "PASS  first:holds", "FAIL  second:differs  (cell (0, 2) differs)"]
    assert [(r.suite, r.name, r.passed, r.detail) for r in ctx.results] == [
        ("first", "holds", True, ""),
        ("second", "differs", False, "cell (0, 2) differs")]


def test_congruence_check_fails_on_an_off_class_coordinate(monkeypatch):
    airy_frame = verify.airy_frame

    def perturbed(count, order):
        frame = airy_frame(count, order)
        frame[0] = frame[0] + Series1.monomial("z", -1)
        return frame

    monkeypatch.setattr(verify, "airy_frame", perturbed)
    lines = [r.line() for r in run_suites(["airy"])]
    assert "FAIL  airy:kernel-congruence-support  (nonzero entry off the " \
        "residue class at (0,0))" in lines


def test_kdv_string_certificate_fails_on_a_perturbed_coefficient(
        capsys, monkeypatch):
    # <tau_0 tau_3^2>, genus 2 and weight 15, the top of what the full
    # scale certifies; the 1/7 enters F as 1/14 = 1/7 / 2!
    intersection_number = verify.intersection_number

    def perturbed(engine, ms):
        value = intersection_number(engine, ms)
        return value + Rat(1, 7) if sorted(ms) == [0, 3, 3] else value

    monkeypatch.setattr(verify, "intersection_number", perturbed)
    assert main(["verify", "--suite", "npoint"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == \
        ["FAIL  npoint:kdv-string-certificate  (string equation residue "
         "1/14 at t3^2)"]


def test_oracle_selection_rule():
    assert dvv_correlator((0, 0)) == 0
    assert dvv_correlator((2, 2)) == 0


def test_oracle_matches_literature():
    for key, value in LITERATURE_CORRELATORS.items():
        assert dvv_correlator(key) == Rat(value), key


def test_oracle_string_and_dilaton_consistency():
    # string: adding a zero and lowering sums; dilaton: adding an exponent 1
    # multiplies by 2g - 2 + n
    base = (3, 1, 1)  # genus 1, n = 3
    assert dvv_correlator((0,) + base) == sum(
        dvv_correlator(tuple(sorted(base[:i] + (base[i] - 1,)
                                    + base[i + 1:])))
        for i in range(len(base)) if base[i] >= 1)
    g, n = 1, 3
    assert dvv_correlator(base + (1,)) == \
        (2 * g - 2 + n) * dvv_correlator(base)


def _refuse():
    raise InsufficientCutoffError("too small")


@pytest.mark.parametrize("fn, detail", [
    (_refuse, "InsufficientCutoffError: too small"),
    (lambda: False, "predicate returned false"),
    (lambda: "cell (1, 2) differs", "cell (1, 2) differs"),
], ids=["error", "false", "message"])
def test_run_reports_each_failure_shape(fn, detail):
    result = _run("suite", "name", fn)
    assert (result.passed, result.detail) == (False, detail)
    assert result.line() == f"FAIL  suite:name  ({detail})"


def test_verify_reports_a_failing_check_through_the_cli(capsys,
                                                        monkeypatch):
    monkeypatch.setitem(verify.KERNEL_BLOCKS, (0, 2), Rat(1, 24))
    assert main(["verify", "--suite", "airy"]) == 4
    out = capsys.readouterr().out
    assert "FAIL  airy:kernel-table-blocks  (entry (0,2) = 5/24)\n" in out
    assert out.endswith("# scale=full: FAILURES present\n")
    assert main(["verify", "--suite", "airy", "--format", "json"]) == 4
    record = json.loads(capsys.readouterr().out)
    assert record["passed"] is False
    failed = [c for c in record["checks"] if not c["passed"]]
    assert failed == [{"suite": "airy", "name": "kernel-table-blocks",
                       "passed": False, "detail": "entry (0,2) = 5/24"}]


def test_random_valid_keys_draw_from_the_whole_pool():
    pool = {(0, 2), (0, 0, 3), (0, 1, 2), (0, 0, 0, 1), (0, 0, 0, 4),
            (0, 0, 1, 3), (0, 0, 2, 2), (0, 1, 1, 2)}
    keys = _random_valid_keys(random.Random(SEED), 8, 4, 4, True)
    assert sorted(keys) == sorted(pool)
    with pytest.raises(ValueError):
        _random_valid_keys(random.Random(SEED), 9, 4, 4, True)
    # the full-scale pools: puncture, then symmetry and stability
    for size, args in ((51, (9, 6, True)), (29, (8, 4))):
        keys = _random_valid_keys(random.Random(SEED), size, *args)
        assert len(set(keys)) == size
        with pytest.raises(ValueError):
            _random_valid_keys(random.Random(SEED), size + 1, *args)
