from __future__ import annotations

import argparse
import json

import pytest

from airytau import cli
from airytau.airy import kernel_closed
from airytau.cli import build_parser, canonical_json, main
from airytau.errors import (CrossCheckError, InsufficientCutoffError,
                            InvalidKeyError)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_correlator_initial_value(capsys):
    code, out, _ = run(capsys, "correlator", "--indices", "0,0,0")
    assert code == 0
    assert "= 1 " in out and "genus 0" in out


def test_correlator_one_point(capsys):
    code, out, _ = run(capsys, "correlator", "--indices", "1",
                       "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert records[0]["value"] == "1/24" and records[0]["genus"] == 1


def test_correlator_multiple_keys(capsys):
    code, out, _ = run(capsys, "correlator",
                       "--indices", "0,0,0;1;4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "indices,genus,value"
    assert lines[1] == '"0,0,0",0,1'
    assert lines[2] == '"1",1,1/24'
    assert lines[3] == '"4",2,1/1152'


def test_correlator_invalid_key(capsys):
    code, out, _ = run(capsys, "correlator", "--indices", "0,0")
    assert code == 2
    assert "invalid key" in out


def test_correlator_bad_syntax(capsys):
    code, _, err = run(capsys, "correlator", "--indices", "a,b")
    assert code == 2 and "error" in err


def test_npoint_value(capsys):
    code, out, _ = run(capsys, "npoint", "--orders", "1,5",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "5/8"


def test_npoint_rotations_print_one_value(capsys):
    # the key runs rotated with its smallest order first; the record keeps
    # the orders as given
    js = [13] + [1] * 8
    for start in range(len(js)):
        orders = js[start:] + js[:start]
        code, out, _ = run(capsys, "npoint", "--orders",
                           ",".join(map(str, orders)), "--format", "json")
        assert code == 0
        assert json.loads(out) == {"cutoff": 22, "orders": orders,
                                   "value": "135135"}


def test_npoint_insufficient_cutoff(capsys):
    code, _, err = run(capsys, "npoint", "--orders", "3,15",
                       "--cutoff", "8")
    assert code == 3
    assert "cutoff" in err


def test_correlator_cutoff_below_reach(capsys):
    # regrowth to cutoff + 3 = 7 alone would certify 0; the value is 1/82944
    code, out, err = run(capsys, "correlator", "--indices", "8,0",
                         "--cutoff", "4")
    assert code == 3 and out == ""
    assert "(0 -> 425425/1024)" in err
    code, out, _ = run(capsys, "correlator", "--indices", "8,0",
                       "--cutoff", "17", "--format", "json")
    assert code == 0
    [record] = json.loads(out)
    assert record["value"] == "1/82944"
    assert record["certified_cutoff"] == 20


def test_correlator_reads_the_kernel_only_to_the_reach(capsys, monkeypatch):
    # orders 1,1,1,1,3,5: the reach is 11, the default cutoff 13
    read = []

    def recording(cutoff):
        read.append(cutoff)
        return kernel_closed(cutoff)

    monkeypatch.setattr(cli, "kernel_closed", recording)
    code, out, _ = run(capsys, "correlator", "--indices", "0,0,0,0,1,2",
                       "--format", "json")
    [record] = json.loads(out)
    assert code == 0 and read == [11]
    assert (record["cutoff"], record["certified_cutoff"]) == (13, 16)
    # below the reach: that cutoff, then the certified cutoff
    read.clear()
    code, _, _ = run(capsys, "correlator", "--indices", "0,0,0,0,1,2",
                     "--cutoff", "8")
    assert code == 3 and read == [8, 11]


def test_build_parser_builds_only_the_named_command(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    build_parser(["correlator", "--indices", "0,0,0"])
    assert built == ["airytau", "airytau correlator"]


def test_kernel_csv(capsys):
    code, out, _ = run(capsys, "kernel", "--cutoff", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,n,value"
    assert lines[1] == "0,2,5/24"
    assert "1,1,-7/24" in lines
    # entries off the residue class are absent
    assert not any(line.startswith("0,0,") for line in lines)


def test_kernel_check_all(capsys):
    code, _, err = run(capsys, "kernel", "--cutoff", "5", "--check-all")
    assert code == 0
    assert "all routes agree" in err


def test_kernel_json_roundtrip(capsys):
    code, out, _ = run(capsys, "kernel", "--cutoff", "5",
                       "--format", "json")
    assert code == 0
    assert canonical_json(json.loads(out)) == out


def test_series_dumps(capsys):
    code, out, _ = run(capsys, "series", "--which", "a", "--order", "9")
    assert code == 0
    body = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(body) == 4  # orders 0, -3, -6, -9

    code, out, _ = run(capsys, "series", "--which", "diagonal",
                       "--order", "16")
    exps = [int(line.split("\t")[0]) for line in out.splitlines()
            if not line.startswith("#")]
    assert exps == [-4, -10, -16]

    code, out, _ = run(capsys, "series", "--which", "c", "--order", "0")
    body = [line for line in out.splitlines() if not line.startswith("#")]
    assert body == ["0\t1"]


def test_tau_schur_dump(capsys):
    code, out, _ = run(capsys, "tau", "--basis", "schur", "--weight", "6",
                       "--format", "json")
    assert code == 0
    record = json.loads(out)
    values = {row["partition"]: row["value"] for row in record["entries"]}
    assert values["-"] == "1"
    assert values["3"] == "5/24"
    assert values["2,1"] == "7/24"


def test_tau_monomial_dump(capsys):
    code, out, _ = run(capsys, "tau", "--basis", "monomial", "--weight",
                       "6", "--format", "json")
    record = json.loads(out)
    values = {row["monomial"]: row["value"] for row in record["entries"]}
    assert values["1"] == "1"
    assert values["T3"] == "1/8"
    assert values["T1^3"] == "1/6"


def test_config_file(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("cutoff = 5\nformat = json  # comment\n")
    code, out, _ = run(capsys, "kernel", "--config", str(config))
    assert code == 0
    assert json.loads(out)["cutoff"] == 5


def test_config_flag_precedence(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("cutoff = 5\n")
    code, out, _ = run(capsys, "kernel", "--config", str(config),
                       "--cutoff", "4", "--format", "json")
    assert json.loads(out)["cutoff"] == 4


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("cutof = 5\n")
    code, _, err = run(capsys, "kernel", "--config", str(config))
    assert code == 2 and "unknown config key" in err


def _config_run(capsys, tmp_path, text, *argv):
    """Run with a config file holding ``text``; a value that argparse
    refuses exits through SystemExit, as a bad flag does."""
    config = tmp_path / "run.conf"
    config.write_text(text)
    try:
        return run(capsys, *argv, "--config", str(config))
    except SystemExit as exc:
        return exc.code, "", capsys.readouterr().err


def test_config_weight_must_be_an_integer(tmp_path, capsys):
    code, out, _ = _config_run(capsys, tmp_path, "weight = 3\n", "tau")
    assert code == 0 and out.startswith("# basis=schur weight_cap=3\n")
    code, out, err = _config_run(capsys, tmp_path, "weight = abc\n", "tau")
    assert code == 2 and out == ""
    assert "error: argument --weight: invalid int value: 'abc'" in err


def test_config_format_must_be_a_choice(tmp_path, capsys):
    code, out, _ = _config_run(capsys, tmp_path, "format = csv\n",
                               "kernel", "--cutoff", "4")
    assert code == 0 and out.startswith("m,n,value\n")
    code, out, err = _config_run(capsys, tmp_path, "format = xml\n",
                                 "kernel", "--cutoff", "4")
    assert code == 2 and out == ""
    assert "error: argument --format: invalid choice: 'xml'" in err


def test_config_file_must_exist(tmp_path, capsys):
    code, out, _ = _config_run(capsys, tmp_path, "", "kernel",
                               "--cutoff", "4")
    assert code == 0 and out.startswith("m,n,value\n")
    missing = tmp_path / "missing.conf"
    code, out, err = run(capsys, "kernel", "--config", str(missing))
    assert code == 2 and out == ""
    assert err == (f"error: cannot read config file {missing}: "
                   "No such file or directory\n")


@pytest.mark.parametrize("argv, head", [
    (("kernel", "--format", "json"),
     '{\n  "convention": "standard",\n  "cutoff": 12,\n'),
    (("series", "--which", "a"), "# var=z reliable=16\n"),
    (("tau",), "# basis=schur weight_cap=9\n"),
    (("tau", "--basis", "monomial"), "# basis=monomial weight_cap=9\n")])
def test_constant_defaults_without_flag_or_config(argv, head, tmp_path,
                                                  capsys):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith(head)
    # a config that names other keys leaves the default in place
    code, out, _ = _config_run(capsys, tmp_path, "out = \n", *argv)
    assert code == 0 and out.startswith(head)


@pytest.mark.parametrize("flag", ["--degree", "--vars"])
def test_removed_cap_flags_rejected(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--cutoff", "4", flag, "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["degree", "vars"])
def test_removed_cap_config_keys_rejected(key, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(f"cutoff = 4\n{key} = 3\n")
    code, out, err = run(capsys, "kernel", "--config", str(config))
    assert code == 2 and out == "" and "unknown config key" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "kernel.csv"
    code, out, _ = run(capsys, "kernel", "--cutoff", "5", "--out",
                       str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("m,n,value")


def test_out_file_unwritable(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "correlator", "--indices", "0,0,0", "--out",
                         str(target))
    assert code == 2 and out == "" and not target.parent.exists()
    assert err == (f"error: cannot write output file {target}: "
                   "No such file or directory\n")


def test_verify_small_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "airy",
                       "--truncation", "small")
    assert code == 0
    assert "PASS  airy:kernel-route-agreement" in out
    assert "FAIL" not in out


def test_verify_json_record(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "schur",
                       "--truncation", "small", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["passed"] is True
    assert canonical_json(record) == out


def test_exit_code_contract():
    assert InvalidKeyError("x").exit_code == 2
    assert InsufficientCutoffError("x").exit_code == 3
    assert CrossCheckError("x").exit_code == 4
