"""Command-line front end.

Subcommands: correlator, npoint, kernel, series, tau, verify.  Every
command prints the cutoffs and caps it used, so each reported number is
reproducible from the report alone.  Rationals are always serialized as
p/q strings.  Exit codes are stable API: 0 success, 2 invalid input,
3 insufficient cutoff, 4 internal cross-check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .airy import (airy_coords, alternate, check_all_routes, kernel_closed,
                   kernel_diagonal, kernel_to_csv, slope_series, wave_series)
from .errors import AirytauError, InvalidKeyError
from .grassmann import tau_schur_coeffs
from .multipoly import mono_str, mono_weight
from .npoint import NPointEngine, free_energy, genus_of, intersection_number
from .rational import format_rat
from .verify import SUITES, run_suites
from .wave import padded_weight_cap, tau_from_free_energy


# ``correlator`` prints each value as certified at kernel cutoff
# max(cutoff + CERTIFIED_MARGIN, reach), a figure of its stable output.  It
# holds: a value at or above the reach is the value at every larger cutoff
# (npoint).
CERTIFIED_MARGIN = 3


def canonical_json(payload) -> str:
    """Byte-stable JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InvalidKeyError(
                f"cannot write output file {out_path}: {exc.strerror}"
            ) from exc
    else:
        sys.stdout.write(text)


_CONFIG_KEYS = ("cutoff", "order", "format", "out", "weight")


def _config_flags(path: str) -> list[str]:
    """The ``key = value`` pairs of a config file as ``--key=value``
    flags."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise InvalidKeyError(
            f"cannot read config file {path}: {exc.strerror}") from exc
    values: dict[str, str] = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidKeyError(f"bad config line: {raw.rstrip()}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    for key in values:
        if key not in _CONFIG_KEYS:
            raise InvalidKeyError(f"unknown config key {key!r}")
    return [f"--{key}={value}" for key, value in values.items()]


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InvalidKeyError(f"bad index list {text!r}") from exc
    if any(v < 0 for v in values) or not values:
        raise InvalidKeyError(f"indices must be nonnegative: {text!r}")
    return values


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def cmd_correlator(args: argparse.Namespace) -> int:
    """One record per key; multiple keys may be given separated by ';'.
    The loop that decides a key's genus builds its json record, csv row
    and text line."""
    keys = [_parse_indices(part) for part in args.indices.split(";")]
    records, rows, lines = [], ["indices,genus,value"], []
    status = 0
    for ms in keys:
        genus = genus_of(ms)
        quoted = f"\"{','.join(map(str, ms))}\""
        if genus is None:
            reason = "selection rule admits no genus"
            records.append({"indices": list(ms), "genus": None,
                            "value": "0", "reason": reason})
            rows.append(f"{quoted},,0")
            lines.append(f"indices {list(ms)}: invalid key ({reason}); "
                         "value 0")
            status = 2
            continue
        js = tuple(2 * m + 1 for m in ms)
        cutoff = max(12, sum(js) + 1) if args.cutoff is None else args.cutoff
        # the kernel is read only to the reach: the value at the reach is
        # the value at every larger cutoff (npoint), and so at this one
        engine = NPointEngine(kernel_closed, min(cutoff, sum(js) - 1))
        value = format_rat(intersection_number(engine, ms))
        certified = max(cutoff + CERTIFIED_MARGIN, sum(js) - 1)
        records.append({"indices": list(ms), "genus": genus, "value": value,
                        "cutoff": cutoff, "certified_cutoff": certified})
        rows.append(f"{quoted},{genus},{value}")
        lines.append(f"correlator {list(ms)} (genus {genus}) = {value}   "
                     f"[kernel cutoff {cutoff}, certified at {certified}]")
    fmt = args.format or "text"
    if fmt == "json":
        _emit(canonical_json(records), args.out)
    else:
        _emit("\n".join(rows if fmt == "csv" else lines) + "\n", args.out)
    return status


def cmd_npoint(args: argparse.Namespace) -> int:
    js = _parse_indices(args.orders)
    if any(j < 1 for j in js):
        raise InvalidKeyError("orders must be >= 1")
    cutoff = max(12, sum(js) + 1) if args.cutoff is None else args.cutoff
    # read to the reach, as in cmd_correlator
    engine = NPointEngine(kernel_closed, min(cutoff, sum(js) - 1))
    # The cycle sum visits up to j0 first rows.  The closed kernel is
    # symmetric, so at or above the reach, where the value is exact, it is
    # the same for every rotation of the key: run the one with the smallest
    # order first.  Below the reach the key runs as given, so its
    # certification outcome and message stay those of that key.
    key = js
    if cutoff >= sum(js) - 1:
        start = js.index(min(js))
        key = js[start:] + js[:start]
    value = engine.connected(key)
    record = {"orders": list(js), "value": format_rat(value),
              "cutoff": cutoff}
    fmt = args.format or "text"
    if fmt == "json":
        _emit(canonical_json(record), args.out)
    elif fmt == "csv":
        _emit("orders,value,cutoff\n"
              f"\"{','.join(map(str, js))}\",{format_rat(value)},{cutoff}\n",
              args.out)
    else:
        _emit(f"connected coefficient at orders {list(js)} = "
              f"{format_rat(value)}   [kernel cutoff {cutoff}]\n", args.out)
    return 0


def cmd_kernel(args: argparse.Namespace) -> int:
    cutoff = args.cutoff
    if cutoff < 2:
        raise InvalidKeyError("cutoff must be >= 2")
    convention = "alternating" if args.alternating else "standard"
    kernel = (check_all_routes if args.check_all else kernel_closed)(cutoff)
    if args.alternating:
        kernel = alternate(kernel)
    fmt = args.format or "csv"
    if fmt == "json":
        rows = [{"m": m, "n": n, "value": format_rat(v)}
                for m, n, v in kernel.rows()]
        _emit(canonical_json({"cutoff": cutoff, "convention": convention,
                              "entries": rows}), args.out)
    else:
        _emit(kernel_to_csv(kernel), args.out)
    if args.check_all:
        sys.stderr.write(f"all routes agree at cutoff {cutoff} "
                         f"({convention})\n")
    return 0


_SERIES_BUILDERS = {
    "a": wave_series,
    "b": slope_series,
    "c": lambda order: wave_series(order).negate_var(),
    "q": lambda order: slope_series(order).negate_var().scale(-1),
    "diagonal": kernel_diagonal,
}


def cmd_series(args: argparse.Namespace) -> int:
    series = _SERIES_BUILDERS[args.which](args.order)
    _emit(series.dump(), args.out)
    return 0


def cmd_tau(args: argparse.Namespace) -> int:
    weight = args.weight
    if weight < 0:
        raise InvalidKeyError("weight must be >= 0")
    fmt = args.format or "text"
    basis = args.basis
    if basis == "schur":
        cutoff = weight if args.cutoff is None else args.cutoff
        coeffs = tau_schur_coeffs(airy_coords(cutoff), weight)
        rows = [{"partition": str(mu), "frobenius": mu.frobenius_str(),
                 "value": format_rat(c)}
                for mu, c in sorted(coeffs.items())]
        header = {"basis": "schur", "weight_cap": weight,
                  "coordinate_cutoff": cutoff, "entries": rows}
    else:
        cutoff = max(12, weight + 1) if args.cutoff is None else args.cutoff
        engine = NPointEngine(kernel_closed, cutoff)
        f = free_energy(engine, weight)
        tau = tau_from_free_energy(f, padded_weight_cap(weight))
        rows = [{"monomial": mono_str(mono), "value": format_rat(c)}
                for mono, c in sorted(tau.poly.terms.items(),
                                      key=lambda kv: (mono_weight(kv[0]),
                                                      kv[0]))]
        header = {"basis": "monomial", "weight_cap": weight,
                  "kernel_cutoff": cutoff, "entries": rows}
    if fmt == "json":
        _emit(canonical_json(header), args.out)
    else:
        lines = [f"# basis={basis} weight_cap={weight}"]
        for row in header["entries"]:
            key = row.get("partition", row.get("monomial"))
            lines.append(f"{key}\t{row['value']}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    scale = args.truncation or "full"
    results = run_suites(names, scale=scale)
    passed = all(r.passed for r in results)
    if (args.format or "text") == "json":
        _emit(canonical_json({"scale": scale, "passed": passed, "checks":
                              [dataclasses.asdict(r) for r in results]}),
              args.out)
    else:
        summary = "all checks passed" if passed else "FAILURES present"
        _emit("\n".join(r.line() for r in results)
              + f"\n# scale={scale}: {summary}\n", args.out)
    return 0 if passed else 4


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for one command line, with a subparser built only for
    the commands that ``argv`` names.

    ``add_parser`` hands its keywords to the ``parser_class`` of
    ``add_subparsers``; here that is ``command_parser``, which returns a
    full ``ArgumentParser`` for a named command and None, a placeholder,
    for the rest.  All six names still sit in the subparsers' choices and
    help pseudo-actions, which is all the usage line, ``--help``, "invalid
    choice" and "unrecognized arguments" read, so those print the same
    bytes.  argparse only runs the parser of the first positional, a whole
    item of ``argv``, so the one that runs is always built.
    """
    # One row per command: name, help, handler, its defaults for the shared
    # flags, and its own flags as (flag, keywords) pairs.
    commands = (
        ("correlator", "psi-class intersection number", cmd_correlator, {},
         (("--indices", dict(required=True, help="comma-separated "
                             "exponents, e.g. 0,0,0")),)),
        ("npoint", "raw connected n-point coefficient", cmd_npoint, {},
         (("--orders", dict(required=True, help="comma-separated "
                            "derivative orders, e.g. 1,5")),)),
        ("kernel", "dump the kernel coefficient table", cmd_kernel,
         {"cutoff": 12},
         (("--check-all", dict(action="store_true", help="verify all "
                               "construction routes agree first")),
          ("--alternating", dict(action="store_true", help="use the "
                                 "sign-alternated series pair")))),
        ("series", "dump one of the generating series", cmd_series,
         {"order": 16},
         (("--which", dict(required=True,
                           choices=sorted(_SERIES_BUILDERS))),)),
        ("tau", "dump tau-function coefficients", cmd_tau, {"weight": 9},
         (("--basis", dict(choices=("schur", "monomial"), default="schur")),)),
        ("verify", "run the verification suites", cmd_verify, {},
         (("--suite", dict(choices=sorted(SUITES) + ["all"], default="all")),
          ("--truncation", dict(choices=("small", "full"))))))
    shared = (
        ("--format", dict(choices=("json", "csv", "text"))),
        ("--out", dict(help="write output to a file")),
        ("--config",
         dict(help="key = value config file; flags take precedence")),
        ("--cutoff", dict(type=int, help="kernel cutoff")),
        ("--order", dict(type=int, help="series truncation order")),
        ("--weight", dict(type=int, help="total-weight cap")))
    parser = argparse.ArgumentParser(
        prog="airytau",
        description="Exact psi-class intersection numbers and n-point "
                    "functions from the Airy fermionic kernel.")

    def command_parser(named: bool, **keywords):
        return argparse.ArgumentParser(**keywords) if named else None

    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=command_parser)
    for name, text, func, defaults, flags in commands:
        p = sub.add_parser(name, help=text, named=name in argv)
        if p is not None:
            for flag, keywords in flags + shared:
                p.add_argument(flag, **keywords)
            p.set_defaults(func=func, **defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # The config pairs go right after the command, so argparse
            # checks them as it checks flags (exit 2) and an explicit flag,
            # parsed later, wins; as --key=value items they name no command.
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_flags(args.config)
                                     + argv[at:])
        return args.func(args)
    except AirytauError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
