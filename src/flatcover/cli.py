"""Command-line interface.

Subcommands: orbit, echoes, primitive, decagon, covers, sts, verify.
Exit codes: 0 success, 1 verification mismatch or failed internal invariant,
2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import InvariantError, __version__
from .acceptance import run_all
from .classify import (census_to_json, echoes_of_WD, primitive_echo_table,
                       verify_sts_orbits)
from .covers import all_double_covers, cover_label
from .monodromy import decagon_cyclic_echo_count
from .origami import Origami, OrbitCapExceeded, l_origami

#: the largest `decagon --max-n`: the orbit partition of (Z/n)^4 needs memory
#: growing like n^4, a peak RSS of about 0.26 GB at n = 40
DECAGON_MAX_N = 40


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="flatcover",
        description="Genus-3 double covers of genus-2 square-tiled surfaces: "
                    "orbits, echo tables, primitivity, and verification.")
    p.add_argument("--version", action="version", version=f"flatcover {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("json", "table"), default="table")

    sp = sub.add_parser("orbit", help="SL(2,Z)-orbit of an origami")
    sp.add_argument("--origami", required=True,
                    help='text form, e.g. "n=5 h=(1,2) v=(2,3,4,5)"')
    sp.add_argument("--cap", type=int, default=10 ** 6)
    add_format(sp)

    sp = sub.add_parser("echoes", help="orbit table of the 15 double covers")
    sp.add_argument("--discriminant", type=int, required=True)
    sp.add_argument("--e", type=int, default=None, choices=(-1, 0, 1))
    add_format(sp)

    sp = sub.add_parser("primitive", help="primitive covers for square discriminant d^2")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--e", type=int, required=True, choices=(-1, 0, 1))
    add_format(sp)

    sp = sub.add_parser("decagon", help="cyclic decagon echo counts N(n)")
    sp.add_argument("--max-n", type=int, default=15,
                    help=f"largest n, at most {DECAGON_MAX_N}")
    add_format(sp)

    sp = sub.add_parser("covers", help="the 15 double covers of a genus-2 origami")
    sp.add_argument("--origami",
                    help="text form; labels computed in a generic symplectic basis mod 2")
    sp.add_argument("--b", type=int,
                    help="with --e: use the L-shaped eigenform surface L(b,e) "
                         "and its pinned basis (labels match the echo tables)")
    sp.add_argument("--e", type=int, choices=(-1, 0, 1))
    add_format(sp)

    sp = sub.add_parser("sts", help="orbit census of lifted n-square surfaces")
    sp.add_argument("--n", type=int, required=True)
    add_format(sp)

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.add_argument("--fast", action="store_true",
                    help="restrict to n <= 7 and discriminants <= 17")
    return p


def _cmd_orbit(args) -> int:
    o = Origami.from_text(args.origami)
    report = o.sl2z_orbit(cap=args.cap)
    if args.format == "json":
        print(report.to_json())
    else:
        print(f"size     {report.size}")
        print(f"stratum  {report.stratum}")
        print(f"reduced  {report.reduced}")
    return 0


def _cmd_echoes(args) -> int:
    table = echoes_of_WD(args.discriminant, args.e)
    if args.format == "json":
        print(json.dumps(table.to_json(), sort_keys=True))
    else:
        print(table.to_markdown())
    return 0


def _cmd_primitive(args) -> int:
    table = primitive_echo_table(args.d, args.e)
    labels = sorted(l for block in table.hyp_orbits + table.odd_orbits for l in block)
    if args.format == "json":
        out = table.to_json()
        out["primitive_labels"] = labels
        print(json.dumps(out, sort_keys=True))
    else:
        print(table.to_markdown())
        print(f"| primitive labels | {', '.join(map(str, labels))} |")
    return 0


def _cmd_decagon(args) -> int:
    if not 2 <= args.max_n <= DECAGON_MAX_N:
        raise ValueError(f"--max-n must be between 2 and {DECAGON_MAX_N}")
    counts = {n: decagon_cyclic_echo_count(n) for n in range(2, args.max_n + 1)}
    if args.format == "json":
        print(json.dumps({"N": counts}, sort_keys=True))
    else:
        print("| n | " + " | ".join(str(n) for n in counts) + " |")
        print("| --- |" + " --- |" * len(counts))
        print("| N(n) | " + " | ".join(str(v) for v in counts.values()) + " |")
    return 0


def _cmd_covers(args) -> int:
    if (args.b is None) != (args.e is None):
        raise ValueError("--b and --e must be given together")
    if args.b is not None:
        if args.origami is not None:
            raise ValueError("give either --origami or --b/--e, not both")
        base = l_origami(args.b, args.e)
        o, basis = base.origami, list(base.basis)
    elif args.origami is not None:
        o = Origami.from_text(args.origami)
        st = o.stratum()
        if st.zero_orders != (2,):
            # the lifts of a base in H(1,1) lie in H(1,1,1,1): no Arf invariant
            raise ValueError(f"covers needs a base in H(2), not {st}")
        basis = o.symplectic_basis()
    else:
        raise ValueError("one of --origami or --b/--e is required")
    rows = []
    for c in all_double_covers(o, basis):
        gamma, label = cover_label(basis, c)
        lift = c.lift()
        rows.append({
            "label": label,
            "gamma": list(gamma),
            "lift": lift.to_text(),
            "stratum": str(lift.stratum()),
            "arf": lift.arf_invariant(),
        })
    rows.sort(key=lambda r: r["label"])
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True))
    else:
        print("| label | gamma | stratum | arf | lift |")
        print("| --- | --- | --- | --- | --- |")
        for r in rows:
            print(f"| {r['label']} | {tuple(r['gamma'])} | {r['stratum']} "
                  f"| {r['arf']} | {r['lift']} |")
    return 0


def _cmd_sts(args) -> int:
    census = verify_sts_orbits(args.n)
    if args.format == "json":
        print(census_to_json(census))
    else:
        print(f"n = {census['n']}: {census['orbit_count']} orbits "
              f"(expected {census['expected_orbit_count']})")
        for s in census["spins"]:
            print(f"  spin (b={s['b']}, e={s['e']}): base orbit {s['base_orbit_size']}")
            for o in s["orbits"]:
                print(f"    labels {o['labels']}: size {o['size']}, arf {o['arf']}, "
                      f"translations {o['translation_order']}")
    return 0 if census["ok"] else 1


def _cmd_verify(args) -> int:
    ok, lines = run_all(fast=args.fast)
    for line in lines:
        print(line)
    print("RESULT:", "all criteria passed" if ok else "some criteria FAILED")
    return 0 if ok else 1


_COMMANDS = {
    "orbit": _cmd_orbit,
    "echoes": _cmd_echoes,
    "primitive": _cmd_primitive,
    "decagon": _cmd_decagon,
    "covers": _cmd_covers,
    "sts": _cmd_sts,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OrbitCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
