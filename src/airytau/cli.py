"""Command-line front end.

Subcommands: correlator, npoint, kernel, series, tau, verify.  Every
command prints the cutoffs and caps it used, so each reported number is
reproducible from the report alone.  Rationals are always serialized as
p/q strings.  Exit codes are stable API: 0 success, 2 invalid input,
3 insufficient cutoff, 4 internal cross-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .airy import (ALTERNATING, STANDARD, build_kernel, check_all_routes,
                   kernel_closed, kernel_diagonal, kernel_to_csv,
                   required_order, slope_series, wave_series)
from .errors import AirytauError, InvalidKeyError
from .grassmann import AdmissibleFrame, tau_schur_coeffs
from .npoint import NPointEngine, free_energy, genus_of, intersection_number
from .rational import format_rat
from .verify import SUITES, run_suites
from .wave import padded_weight_cap, tau_from_free_energy


def canonical_json(payload) -> str:
    """Byte-stable JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidKeyError(f"bad config line: {raw.rstrip()}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


_CONFIG_KEYS = ("cutoff", "order", "format", "out", "weight")


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    config = _load_config(getattr(args, "config", None))
    for key, value in config.items():
        if key not in _CONFIG_KEYS:
            raise InvalidKeyError(f"unknown config key {key!r}")
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    return args


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InvalidKeyError(f"bad index list {text!r}") from exc
    if any(v < 0 for v in values) or not values:
        raise InvalidKeyError(f"indices must be nonnegative: {text!r}")
    return values


def _int_or(value, fallback: int) -> int:
    return fallback if value is None else int(value)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def cmd_correlator(args: argparse.Namespace) -> int:
    """One record per key; multiple keys may be given separated by ';'."""
    keys = [_parse_indices(part) for part in args.indices.split(";")]
    fmt = args.format or "text"
    records = []
    status = 0
    for ms in keys:
        genus = genus_of(ms)
        if genus is None:
            records.append({"indices": list(ms), "genus": None,
                            "value": "0",
                            "reason": "selection rule admits no genus"})
            status = 2
            continue
        js = tuple(2 * m + 1 for m in ms)
        cutoff = _int_or(args.cutoff, max(12, sum(js) + 1))
        engine = NPointEngine(kernel_closed, cutoff)
        value = intersection_number(engine, ms)
        records.append({"indices": list(ms), "genus": genus,
                        "value": format_rat(value), "cutoff": cutoff,
                        "certified_cutoff": engine.certified_cutoff(js)})
    if fmt == "json":
        _emit(canonical_json(records), args.out)
    elif fmt == "csv":
        lines = ["indices,genus,value"]
        for r in records:
            genus = "" if r["genus"] is None else r["genus"]
            lines.append(f"\"{','.join(map(str, r['indices']))}\","
                         f"{genus},{r['value']}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = []
        for r in records:
            if r["genus"] is None:
                lines.append(f"indices {r['indices']}: invalid key "
                             f"({r['reason']}); value 0")
            else:
                lines.append(
                    f"correlator {r['indices']} (genus {r['genus']}) = "
                    f"{r['value']}   [kernel cutoff {r['cutoff']}, "
                    f"certified at {r['certified_cutoff']}]")
        _emit("\n".join(lines) + "\n", args.out)
    return status


def cmd_npoint(args: argparse.Namespace) -> int:
    js = _parse_indices(args.orders)
    if any(j < 1 for j in js):
        raise InvalidKeyError("orders must be >= 1")
    cutoff = _int_or(args.cutoff, max(12, sum(js) + 1))
    engine = NPointEngine(kernel_closed, cutoff)
    value = engine.connected(js)
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
    cutoff = _int_or(args.cutoff, 12)
    if cutoff < 2:
        raise InvalidKeyError("cutoff must be >= 2")
    convention = ALTERNATING if args.alternating else STANDARD
    if args.check_all:
        kernel = check_all_routes(cutoff, convention)
        note = f"all routes agree at cutoff {cutoff} ({convention})\n"
    else:
        kernel = (build_kernel(cutoff, "series", ALTERNATING)
                  if args.alternating else kernel_closed(cutoff))
        note = ""
    fmt = args.format or "csv"
    if fmt == "json":
        rows = [{"m": m, "n": n, "value": format_rat(v)}
                for m, n, v in kernel.rows()]
        _emit(canonical_json({"cutoff": cutoff, "convention": convention,
                              "entries": rows}), args.out)
    else:
        _emit(kernel_to_csv(kernel), args.out)
    if note:
        sys.stderr.write(note)
    return 0


_SERIES_BUILDERS = {
    "a": lambda order: wave_series(order, var="z"),
    "b": lambda order: slope_series(order, var="z"),
    "c": lambda order: wave_series(order, alternating=True, var="z"),
    "q": lambda order: slope_series(order, alternating=True, var="z"),
    "diagonal": lambda order: kernel_diagonal(order),
}


def cmd_series(args: argparse.Namespace) -> int:
    which = args.which
    if which not in _SERIES_BUILDERS:
        raise InvalidKeyError(f"unknown series {which!r}")
    order = _int_or(args.order, 16)
    series = _SERIES_BUILDERS[which](order)
    _emit(series.dump(), args.out)
    return 0


def cmd_tau(args: argparse.Namespace) -> int:
    weight = _int_or(args.weight, 9)
    fmt = args.format or "text"
    basis = args.basis
    if basis == "schur":
        cutoff = _int_or(args.cutoff, weight)
        from .airy import airy_frame

        frame = AdmissibleFrame(airy_frame(cutoff + 1,
                                           required_order(cutoff)))
        coords = frame.normalize(cutoff)
        coeffs = tau_schur_coeffs(coords, weight)
        rows = [{"partition": str(mu), "frobenius": mu.frobenius_str(),
                 "value": format_rat(c)}
                for mu, c in sorted(coeffs.items())]
        header = {"basis": "schur", "weight_cap": weight,
                  "coordinate_cutoff": cutoff, "entries": rows}
    else:
        cutoff = _int_or(args.cutoff, max(12, weight + 1))
        engine = NPointEngine(kernel_closed, cutoff)
        f = free_energy(engine, weight)
        tau = tau_from_free_energy(f, padded_weight_cap(weight))
        from .multipoly import mono_str, mono_weight

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
    fmt = args.format or "text"
    if fmt == "json":
        payload = {
            "scale": scale,
            "checks": [{"suite": r.suite, "name": r.name,
                        "passed": r.passed, "detail": r.detail}
                       for r in results],
            "passed": all(r.passed for r in results),
        }
        _emit(canonical_json(payload), args.out)
    else:
        lines = [r.line() for r in results]
        summary = "all checks passed" if all(r.passed for r in results) \
            else "FAILURES present"
        _emit("\n".join(lines) + f"\n# scale={scale}: {summary}\n",
              args.out)
    return 0 if all(r.passed for r in results) else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airytau",
        description="Exact psi-class intersection numbers and n-point "
                    "functions from the Airy fermionic kernel.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default=None)
        p.add_argument("--out", default=None, help="write output to a file")
        p.add_argument("--config", default=None,
                       help="key = value config file; flags take precedence")
        p.add_argument("--cutoff", type=int, default=None,
                       help="kernel cutoff")
        p.add_argument("--order", type=int, default=None,
                       help="series truncation order")
        p.add_argument("--weight", type=int, default=None,
                       help="total-weight cap")

    p = sub.add_parser("correlator", help="psi-class intersection number")
    p.add_argument("--indices", required=True,
                   help="comma-separated exponents, e.g. 0,0,0")
    common(p)
    p.set_defaults(func=cmd_correlator)

    p = sub.add_parser("npoint", help="raw connected n-point coefficient")
    p.add_argument("--orders", required=True,
                   help="comma-separated derivative orders, e.g. 1,5")
    common(p)
    p.set_defaults(func=cmd_npoint)

    p = sub.add_parser("kernel", help="dump the kernel coefficient table")
    p.add_argument("--check-all", action="store_true",
                   help="verify all construction routes agree first")
    p.add_argument("--alternating", action="store_true",
                   help="use the sign-alternated series pair")
    common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("series", help="dump one of the generating series")
    p.add_argument("--which", required=True,
                   choices=sorted(_SERIES_BUILDERS))
    common(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("tau", help="dump tau-function coefficients")
    p.add_argument("--basis", choices=("schur", "monomial"),
                   default="schur")
    common(p)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", choices=sorted(SUITES) + ["all"],
                   default="all")
    p.add_argument("--truncation", choices=("small", "full"), default=None)
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        return args.func(args)
    except AirytauError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
