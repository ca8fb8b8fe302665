"""Command-line interface.

Every run prints exactly one report (JSON by default).  Exit codes: 0 when
the mathematical verdict is positive (certified / true / match), 1 when it
is negative, 2 for validation, precondition and capacity problems, 70 for
internal invariant violations.  Re-running a command with identical inputs
produces a byte-identical report except for the wall-time field.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from .certify import e_wreath_target, sing_target, verify, wreath_sing_target
from .enumeration import brute_rank, generates, rank_formulas, tournament_check
from .errors import CapacityError, MonoidValidationError, PreconditionError
from .green import e_part_indices
from .monoids import FIXTURES, resolve_monoid, submonoid
from .presentations import (
    emit_E_wreath_monoid,
    emit_R,
    emit_R1,
    emit_R1p,
    emit_R2,
    emit_Rn,
    standard_map,
    table_presentation,
)
from .transformations import Transformation, epsilon
from .wreath import WreathContext, count_idempotents, idempotent_elements

OK, NEGATIVE, INVALID, INTERNAL = 0, 1, 2, 70

FAMILIES = ("R", "Rn", "R2", "R1", "R1p", "Emonoid")


def _emit_report(args, command, parameters, result, counters=None, started=None):
    report = {
        "command": command,
        "parameters": parameters,
        "result": result,
        "counters": counters or {},
        "wall_time_s": round(time.monotonic() - started, 6) if started is not None else None,
    }
    if getattr(args, "format", "json") == "table":
        text = _as_table(report)
    else:
        text = json.dumps(report, indent=1, sort_keys=True)
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    print(text)


def _as_table(report, prefix=""):
    lines = []

    def walk(obj, key):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(obj[k], f"{key}.{k}" if key else k)
        elif isinstance(obj, list):
            lines.append(f"{key}: {json.dumps(obj)}")
        else:
            lines.append(f"{key}: {obj}")

    walk(report, prefix)
    return "\n".join(lines)


def _parse_n_list(text):
    values = [int(x) for x in str(text).split(",") if x != ""]
    if not values:
        raise ValueError("no degree given")
    return values


def cmd_idempotents(args) -> int:
    started = time.monotonic()
    M = resolve_monoid(args.monoid)
    ns = _parse_n_list(args.n)
    method = "both" if args.check else args.method
    rows = []
    verdict = True
    for n in ns:
        ctx = WreathContext(M, n, args.part)
        row = {"n": n, "order": M.order, "part": args.part}
        if method in ("formula", "both"):
            row["formula"] = count_idempotents(ctx, "formula")
        if method in ("brute", "both"):
            row["brute"] = count_idempotents(ctx, "brute")
        if method == "both":
            row["match"] = row["formula"] == row["brute"]
            verdict = verdict and row["match"]
        if args.list:
            row["elements"] = [ctx.serialize(x) for x in idempotent_elements(ctx)]
        rows.append(row)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["n", "|M|", "formula", "brute"])
            for row in rows:
                w.writerow([row["n"], row["order"], row.get("formula", ""), row.get("brute", "")])
    result = {"monoid": M.name, "rows": rows, "verdict": "match" if verdict else "mismatch"}
    _emit_report(
        args,
        "idempotents",
        {"monoid": args.monoid, "n": ns, "part": args.part, "method": method},
        result,
        started=started,
    )
    return OK if verdict else NEGATIVE


def _family_presentation(family, M, n):
    if family == "R":
        return emit_R(n), None
    if M is None:
        raise PreconditionError(f"family {family} needs a monoid")
    if family == "Rn":
        return emit_Rn(M, n), M
    if family == "R2":
        return emit_R2(M, n), M
    if family == "R1":
        return emit_R1(M, n), M
    if family == "R1p":
        return emit_R1p(M, n), M
    if family == "Emonoid":
        E_mon, carrier = submonoid(M, sorted(e_part_indices(M)), name="E")
        base, base_gens = table_presentation(E_mon)
        base_images = [carrier[m] for m in base_gens]
        return emit_E_wreath_monoid(M, n, base, base_images), M
    raise ValueError(f"unknown family {family!r}")


def cmd_verify(args) -> int:
    started = time.monotonic()
    M = resolve_monoid(args.monoid) if args.monoid else None
    n = int(args.n)
    p, pm = _family_presentation(args.family, M, n)
    emap = standard_map(p, pm)
    if args.family == "R":
        target = sing_target(n, limit=args.limit_elements)
    elif args.family == "Emonoid":
        target = e_wreath_target(M, n, limit=args.limit_elements)
    else:
        target = wreath_sing_target(M, n, limit=args.limit_elements)
    v = verify(p, emap, target, node_limit=args.limit_nodes)
    result = {
        "family": args.family,
        "n": n,
        "monoid": M.name if M else None,
        "alphabet": len(p.letters),
        "relations": len(p.relations),
        "relation_families": p.family_counts(),
        "verdict": v.to_dict(),
    }
    counters = {}
    if v.tc is not None:
        counters = {
            "nodes_allocated": v.tc.nodes_allocated,
            "coincidences_processed": v.tc.coincidences_processed,
        }
    _emit_report(
        args,
        "verify",
        {"family": args.family, "monoid": args.monoid, "n": n, "limit_nodes": args.limit_nodes},
        result,
        counters,
        started,
    )
    return OK if v.ok else NEGATIVE


def cmd_rank(args) -> int:
    started = time.monotonic()
    M = resolve_monoid(args.monoid)
    n = int(args.n)
    result = {"monoid": M.name, "n": n, "mode": args.mode}
    verdict = True
    status = "ok"
    if args.mode in ("formula", "both"):
        report = rank_formulas(M, n)
        result["formula"] = report.to_dict()
        if report.exact_rank is None:
            status = "bounds"
    if args.mode in ("brute", "both"):
        ctx = WreathContext(M, n, "singular")
        target = wreath_sing_target(M, n, limit=args.limit_elements)
        found = brute_rank(target, list(target.elements), budget=args.limit_subsets)
        brute = {"rank": None, "idrank": None, "rank_witness": None}
        if found:
            k, witness = found
            brute["rank"] = k
            brute["rank_witness"] = [ctx.serialize(x) for x in witness]
        idem = brute_rank(
            target, list(target.elements), idempotents_only=True, budget=args.limit_subsets
        )
        if idem:
            brute["idrank"] = idem[0]
        result["brute"] = brute
    if args.mode == "both":
        fr = result["formula"]
        br = result["brute"]
        checks = [fr["lower"] <= br["rank"] <= fr["upper"]]
        if fr["exact_rank"] is not None:
            checks.append(fr["exact_rank"] == br["rank"])
        if fr["exact_idrank"] is not None:
            checks.append(fr["exact_idrank"] == br["idrank"])
        verdict = all(checks)
        status = "match" if verdict else "mismatch"
    result["status"] = status
    _emit_report(
        args,
        "rank",
        {"monoid": args.monoid, "n": n, "mode": args.mode},
        result,
        started=started,
    )
    return OK if verdict else NEGATIVE


def _parse_edges(text):
    edges = []
    for chunk in text.replace(";", ",").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        i, j = chunk.split(":")
        edges.append((int(i), int(j)))
    return edges


def cmd_gens(args) -> int:
    started = time.monotonic()
    n = int(args.n)
    result = {"n": n}
    if args.edges is not None:
        edges = _parse_edges(args.edges)
        gen, sc, complete = tournament_check(n, edges)
        result["criterion"] = {
            "generates": gen,
            "strongly_connected": sc,
            "complete": complete,
        }
        answer = gen
        if args.confirm:
            target = sing_target(n, limit=args.limit_elements)
            gens = [epsilon(n, i, j) for i, j in edges]
            closure_answer = generates(gens, target) if gens else False
            result["closure"] = {"generates": closure_answer}
            if closure_answer != gen:
                result["error"] = "criterion and closure disagree"
                _emit_report(args, "gens", {"n": n, "edges": args.edges}, result, started=started)
                return INTERNAL
    elif args.elements is not None:
        data = json.loads(args.elements)
        gens = [Transformation(tuple(images)) for images in data]
        target = sing_target(n, limit=args.limit_elements)
        answer = generates(gens, target) if gens else False
        result["closure"] = {"generates": answer}
    else:
        raise PreconditionError("either --edges or --elements is required")
    result["generates"] = answer
    _emit_report(
        args,
        "gens",
        {"n": n, "edges": args.edges, "elements": args.elements, "confirm": args.confirm},
        result,
        started=started,
    )
    return OK if answer else NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathbench",
        description="Workbench for singular wreath products: idempotent counts, "
        "generating sets, ranks, and machine-certified presentations.",
        epilog="Monoids are JSON files {name, elements, identity, table} or built-in "
        f"fixtures: {', '.join('@' + k for k in sorted(FIXTURES))}. "
        "Exit codes: 0 positive verdict, 1 negative verdict, 2 invalid input or "
        "capacity, 70 internal error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--out", default=None, help="also write the report to this path")

    p = sub.add_parser("idempotents", help="count idempotents of M wr T_n / M wr Sing_n")
    p.add_argument("--monoid", required=True)
    p.add_argument("-n", default="2", help="degree, or comma-separated degrees")
    p.add_argument("--part", choices=("full", "singular"), default="full")
    p.add_argument("--method", choices=("formula", "brute"), default="formula")
    p.add_argument("--check", action="store_true", help="compare formula against brute force")
    p.add_argument("--list", action="store_true", help="include the idempotent elements")
    p.add_argument("--csv", default=None, help="write n,|M|,formula,brute rows to this path")
    common(p)
    p.set_defaults(func=cmd_idempotents)

    p = sub.add_parser("verify", help="emit a presentation family and certify it")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--monoid", default=None)
    p.add_argument("-n", default="3")
    p.add_argument("--limit-nodes", type=int, default=10**6)
    p.add_argument("--limit-elements", type=int, default=10**6)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rank", help="rank/idrank of M wr Sing_n by formula and brute force")
    p.add_argument("--monoid", required=True)
    p.add_argument("-n", default="2")
    p.add_argument("--mode", choices=("formula", "brute", "both"), default="formula")
    p.add_argument("--limit-elements", type=int, default=10**6)
    p.add_argument("--limit-subsets", type=int, default=10**7)
    common(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("gens", help="generation tests for the singular part")
    p.add_argument("-n", default="3")
    p.add_argument("--edges", default=None, help='idempotent edges "i:j,k:l,..."')
    p.add_argument("--elements", default=None, help="JSON list of image lists")
    p.add_argument("--confirm", action="store_true", help="also run the closure check")
    p.add_argument("--limit-elements", type=int, default=10**6)
    common(p)
    p.set_defaults(func=cmd_gens)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PreconditionError, MonoidValidationError, CapacityError, ValueError, OSError, KeyError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True))
        return INVALID


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
