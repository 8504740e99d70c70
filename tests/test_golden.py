"""Golden CLI outputs: stdout, stderr and exit code, byte for byte.

Each case's expected streams live in ``tests/golden/<name>.out`` and
``<name>.err``.  They were recorded with ``python -m airytau.cli <argv>``
and ``COLUMNS=80``, since argparse wraps help and usage text at the
terminal width; regenerate them the same way only when an output change
is intended.  Help and argparse errors leave through ``SystemExit``, whose
code is compared as the exit code.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from airytau.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("kernel_check_all", ["kernel", "--cutoff", "12", "--check-all"], 0),
    ("tau_schur_w9", ["tau", "--basis", "schur", "--weight", "9"], 0),
    ("tau_monomial_w11_json",
     ["tau", "--basis", "monomial", "--weight", "11", "--format", "json"], 0),
    ("verify_schur_json", ["verify", "--suite", "schur", "--format", "json"],
     0),
    ("verify_sato_json", ["verify", "--suite", "sato", "--format", "json"],
     0),
    ("npoint_exit3", ["npoint", "--orders", "3,9", "--cutoff", "8"], 3),
    ("npoint_1_5", ["npoint", "--orders", "1,5"], 0),
    ("npoint_3111_csv",
     ["npoint", "--orders", "3,1,1,1", "--format", "csv"], 0),
    ("npoint_33_json", ["npoint", "--orders", "3,3", "--format", "json"], 0),
    ("verify_kp_small_json",
     ["verify", "--suite", "kp", "--truncation", "small", "--format",
      "json"], 0),
    ("kernel_alternating_c6", ["kernel", "--cutoff", "6", "--alternating"],
     0),
    ("correlator_two_keys", ["correlator", "--indices", "0,0,0,1;1,1"], 0),
    ("kernel_check_all_c30", ["kernel", "--cutoff", "30", "--check-all"], 0),
    ("tau_schur_w11", ["tau", "--basis", "schur", "--weight", "11"], 0),
    ("kernel_alternating_check_all_c30",
     ["kernel", "--cutoff", "30", "--alternating", "--check-all"], 0),
    ("usage_no_args", [], 2),
    ("help", ["--help"], 0),
    *((f"help_{command}", [command, "--help"], 0)
      for command in ("correlator", "npoint", "kernel", "series", "tau",
                      "verify")),
    ("bogus_command", ["bogus"], 2),
    ("correlator_missing_indices", ["correlator"], 2),
    ("correlator_bogus_flag", ["correlator", "--indices", "0,0,0", "--bogus"],
     2),
    ("bogus_flag_before_command",
     ["--bogus", "correlator", "--indices", "0,0,0"], 2),
    ("series_invalid_choice", ["series", "--which", "tau"], 2),
    ("verify_all", ["verify", "--suite", "all"], 0),
    ("verify_all_json", ["verify", "--suite", "all", "--format", "json"], 0),
    ("kernel_alternating_c6_json",
     ["kernel", "--cutoff", "6", "--alternating", "--format", "json"], 0),
    ("series_a", ["series", "--which", "a"], 0),
    ("series_b", ["series", "--which", "b"], 0),
    ("series_c", ["series", "--which", "c"], 0),
    ("series_q_o10", ["series", "--which", "q", "--order", "10"], 0),
    ("series_diagonal", ["series", "--which", "diagonal"], 0),
    ("series_diagonal_order_m1",
     ["series", "--which", "diagonal", "--order", "-1"], 2),
    ("series_diagonal_order_m3",
     ["series", "--which", "diagonal", "--order", "-3"], 2),
    ("tau_weight_m1", ["tau", "--weight", "-1"], 2),
    ("tau_weight_m5", ["tau", "--weight", "-5"], 2),
    ("tau_monomial_weight_m1",
     ["tau", "--basis", "monomial", "--weight", "-1"], 2),
    *((f"correlator_invalid_key_{fmt}",
       ["correlator", "--indices", "0,0,0,1;2,2;1,1"]
       + ([] if fmt == "text" else ["--format", fmt]), 2)
      for fmt in ("text", "csv", "json")),
    ("correlator_six_point_json",
     ["correlator", "--indices", "0,0,0,0,1,2", "--format", "json"], 0),
    ("correlator_five_point_cutoff30_json",
     ["correlator", "--indices", "0,0,0,1,4", "--cutoff", "30", "--format",
      "json"], 0),
    ("correlator_below_reach",
     ["correlator", "--indices", "0,0,0,0,1,2", "--cutoff", "8"], 3),
    ("correlator_stray_command",
     ["correlator", "--indices", "0,0,0", "npoint"], 2),
]


@pytest.mark.parametrize("name,argv,code", CASES,
                         ids=[case[0] for case in CASES])
def test_cli_output_matches_golden(name, argv, code, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    assert status == code
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{name}.out").read_text()
    assert captured.err == (GOLDEN / f"{name}.err").read_text()
