"""Command-line entry point binding all modules.

Subcommand tree mirrors the library: `ring verify`, `ssets complete`,
`orbits census`, `autocorr`, `hadamard check|search-circulant|paley|verdict`,
plus `reproduce-paper`, which runs the bundled acceptance suite and writes
one JSON report per module.

Every subcommand accepts --out after its name, and every one except
`hadamard paley` and `reproduce-paper` accepts --format; csv is refused,
before any work, except on `ssets complete` and `orbits census`.  Only
`reproduce-paper` takes --seed.  Exit codes: 0 on success, 1 when a
verification fails (non-Hadamard input, failed suite criteria, ring
violations), 2 on usage or domain errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import autocorr as ac
from . import hadamard as hd
from . import orbits as ob
from . import reproduce as rp
from . import ssets as ss
from . import weight_ring as wr
from .errors import Z2SchurError
from .sequences import make_sequence

FORMATS = ("json", "csv", "text")
# Subcommands whose output is a table; the others have no CSV form.
CSV_COMMANDS = ("ssets complete", "orbits census")


def _options(
    parser: argparse.ArgumentParser,
    *,
    fmt: bool = True,
    seed: bool = False,
) -> None:
    if seed:
        parser.add_argument("--seed", type=int, default=0)
    if fmt:
        parser.add_argument("--format", choices=FORMATS, default="json")
    parser.add_argument("--out", default=None)


def _deliver(text: str, args) -> None:
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2)


def _text(payload, indent: str = "") -> str:
    if isinstance(payload, dict):
        lines = []
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}{k}:")
                lines.append(_text(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {v}")
        return "\n".join(lines)
    if isinstance(payload, list):
        return "\n".join(
            _text(v, indent) if isinstance(v, (dict, list))
            else f"{indent}- {v}"
            for v in payload
        )
    return f"{indent}{payload}"


def _csv_rows(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _emit(payload, args) -> int:
    """Deliver a payload as JSON or text."""
    _deliver(_json(payload) if args.format == "json" else _text(payload), args)
    return 0


# ----------------------------------------------------------- subcommands

def cmd_ring_verify(args) -> int:
    rep = wr.verify_ring(args.n)
    payload = {
        "n": args.n,
        "product_ok": rep["product_ok"],
        "lambda_ok": rep["lambda_ok"],
        "counterexamples": rep["counterexamples"],
    }
    _emit(payload, args)
    return 0 if rep["product_ok"] and rep["lambda_ok"] else 1


def cmd_ssets_complete(args) -> int:
    targets = [args.a] if args.a is not None else list(range(args.n + 1))
    found = []
    for a in targets:
        found += [s.as_dict() for s in ss.find_complete_ssets(args.n, a)]
    if args.format == "csv":
        rows = [[s["a"], s["parity"], s["order"],
                 " ".join(map(str, s["members"]))] for s in found]
        _deliver(_csv_rows(["a", "parity", "order", "members"], rows), args)
        return 0
    return _emit(found, args)


def cmd_orbits_census(args) -> int:
    rep = ob.census(args.n, args.group)
    if args.format == "csv":
        rows = [[r["period"], r["count"], r["sym"], r["asym"]]
                for r in rep["rows"]]
        _deliver(_csv_rows(["period", "count", "sym", "asym"], rows), args)
        return 0
    payload = {
        "n": rep["n"],
        "group": rep["group"],
        "total": rep["total"],
        "by_period": rep["by_period"],
        "sym": rep["sym"],
        "asym": rep["asym"],
        "nonsym": rep["nonsym"],
        "delta_invariant": rep["delta_invariant"],
    }
    return _emit(payload, args)


def cmd_autocorr(args) -> int:
    x = make_sequence(args.seq)
    vec = ac.theta(x)
    payload = {
        "seq": str(x),
        "n": x.n,
        "theta": list(vec.values),
        "weight": x.weight,
        "sum_check": "(2a-n)^2",
        "sum_ok": ac.sum_identity(x)["ok"],
    }
    return _emit(payload, args)


def cmd_hadamard_check(args) -> int:
    if args.builtin:
        mat = hd.BUILTIN_H12
    else:
        mat = hd.SignMatrix.from_text(Path(args.file).read_text())
    witness = hd.orthogonality_witness(mat)
    payload = {"m": mat.m, "hadamard": witness is None}
    if witness:
        i, j, dot = witness
        payload["witness"] = {"rows": [i, j], "dot": dot}
    _emit(payload, args)
    return 0 if witness is None else 1


def cmd_hadamard_search(args) -> int:
    res = hd.search_circulant_hadamard(args.order)
    return _emit(res.as_dict(), args)


def cmd_hadamard_paley(args) -> int:
    mat = hd.border_core(hd.paley_core(args.p))
    _deliver(mat.render(), args)
    return 0


def cmd_hadamard_verdict(args) -> int:
    v = hd.partition_parity_verdict(args.n, args.r, args.a, args.kind)
    return _emit(v.as_dict(), args)


def cmd_reproduce(args) -> int:
    outcome = rp.run_all(max_n=args.max_n, seed=args.seed)
    out_dir = args.out or "z2schur-reports"
    written = rp.write_reports(outcome, out_dir)
    for line in rp.format_lines(outcome):
        print(line)
    print(f"reports written to {out_dir} ({len(written)} files)")
    return 0 if outcome["passed"] else 1


# ----------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z2schur",
        description="Weight-class Schur rings, circulant orbits, and "
                    "Hadamard matrix searches over Z_2^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="weight-class ring checks")
    ring_sub = ring.add_subparsers(dest="subcommand", required=True)
    p = ring_sub.add_parser("verify", help="compare closed forms with oracles")
    p.add_argument("--n", type=int, required=True)
    _options(p)
    p.set_defaults(fn=cmd_ring_verify, command="ring verify")

    ssets_p = sub.add_parser("ssets", help="complete S-set discovery")
    ssets_sub = ssets_p.add_subparsers(dest="subcommand", required=True)
    p = ssets_sub.add_parser("complete", help="maximal complete S-sets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, default=None)
    _options(p)
    p.set_defaults(fn=cmd_ssets_complete, command="ssets complete")

    orbits_p = sub.add_parser("orbits", help="orbit enumeration")
    orbits_sub = orbits_p.add_subparsers(dest="subcommand", required=True)
    p = orbits_sub.add_parser("census", help="orbit census under a group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", choices=ob.GROUPS, required=True)
    _options(p)
    p.set_defaults(fn=cmd_orbits_census, command="orbits census")

    p = sub.add_parser("autocorr", help="periodic autocorrelation of a literal")
    p.add_argument("--seq", required=True)
    _options(p)
    p.set_defaults(fn=cmd_autocorr, command="autocorr")

    had = sub.add_parser("hadamard", help="Hadamard verification and search")
    had_sub = had.add_subparsers(dest="subcommand", required=True)

    p = had_sub.add_parser("check", help="verify a row-text matrix file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--file")
    src.add_argument("--builtin", choices=["h12"])
    _options(p)
    p.set_defaults(fn=cmd_hadamard_check, command="hadamard check")

    p = had_sub.add_parser("search-circulant",
                           help="exhaustive circulant search at one order")
    p.add_argument("--order", type=int, required=True)
    _options(p)
    p.set_defaults(fn=cmd_hadamard_search, command="hadamard search-circulant")

    p = had_sub.add_parser("paley", help="bordered quadratic-residue matrix")
    p.add_argument("--p", type=int, required=True)
    _options(p, fmt=False)
    p.set_defaults(fn=cmd_hadamard_paley, command="hadamard paley")

    p = had_sub.add_parser("verdict",
                           help="parity verdict for a partitioned first row")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--kind", choices=hd.PARTITION_KINDS, required=True)
    _options(p)
    p.set_defaults(fn=cmd_hadamard_verdict, command="hadamard verdict")

    p = sub.add_parser("reproduce-paper",
                       help="run the acceptance suite, write module reports")
    p.add_argument("--max-n", type=int, default=16, dest="max_n")
    _options(p, fmt=False, seed=True)
    p.set_defaults(fn=cmd_reproduce, command="reproduce-paper")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "format", None) == "csv" and args.command not in CSV_COMMANDS:
        print(f"error: --format csv is not available for '{args.command}'",
              file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (Z2SchurError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
