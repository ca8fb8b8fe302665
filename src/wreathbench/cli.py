"""Command-line interface.

Every run prints exactly one report (JSON by default), or one JSON error
envelope ``{"error", "message"}`` when it is refused.  Exit codes: 0 when the
mathematical verdict is positive (certified / true / match), 1 when it is
negative, 2 for usage, validation, precondition and capacity problems, 70 for
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
from .enumeration import (
    CLOSURE_LIMIT,
    SUBSET_BUDGET,
    brute_rank,
    generates,
    rank_formulas,
    tournament_check,
)
from .errors import CapacityError, PreconditionError
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
from .todd_coxeter import NODE_LIMIT
from .transformations import Transformation, epsilon
from .wreath import WreathContext, count_idempotents, idempotent_elements

OK, NEGATIVE, INVALID, INTERNAL = 0, 1, 2, 70


class UsageError(ValueError):
    """A command line that argparse refuses."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # refuse in the error envelope, not with the usage text
        raise UsageError(message)


def _emit_report(args, parameters, result, counters, started):
    report = {
        "command": args.command,
        "parameters": parameters,
        "result": result,
        "counters": counters,
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    if args.format == "table":
        text = _as_table(report)
    else:
        text = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    print(text)


def _as_table(report):
    lines = []

    def walk(obj, key):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(obj[k], f"{key}.{k}" if key else k)
        elif isinstance(obj, list):
            lines.append(f"{key}: {json.dumps(obj)}")
        else:
            lines.append(f"{key}: {obj}")

    walk(report, "")
    return "\n".join(lines)


def _int_option(option, text):
    """``text`` as an integer; a refusal names the option and quotes the text."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{option} must be an integer, got {text!r}") from None


def _refuse_negative_budgets(args):
    """A budget of 0 is kept (the run stops at once); a negative one is refused."""
    for key in ("limit_nodes", "limit_elements", "limit_subsets"):
        value = getattr(args, key, 0)
        if value < 0:
            raise ValueError(f"--{key.replace('_', '-')} must be at least 0, got {value}")


def _parse_n_list(text):
    values = [_int_option("-n", x) for x in str(text).split(",") if x != ""]
    if not values:
        raise ValueError("no degree given")
    return values


def cmd_idempotents(args):
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
    parameters = {"monoid": args.monoid, "n": ns, "part": args.part, "method": method}
    result = {"monoid": M.name, "rows": rows, "verdict": "match" if verdict else "mismatch"}
    return (OK if verdict else NEGATIVE), parameters, result, {}


def _emonoid(M, n):
    """The Emonoid presentation over the table presentation of E(M)'s submonoid."""
    E_mon, carrier = submonoid(M, sorted(e_part_indices(M)), name="E")
    base, base_gens = table_presentation(E_mon)
    return emit_E_wreath_monoid(M, n, base, [carrier[m] for m in base_gens])


# family -> (presentation of M and n, target of M, n and the element limit);
# only R takes no monoid.  Each entry looks its functions up by module name
# when called, so that a rebound module attribute (a tracer's wrapper) runs.
FAMILIES = {
    "R": (lambda M, n: emit_R(n), lambda M, n, limit: sing_target(n, limit)),
    "Rn": (lambda M, n: emit_Rn(M, n), lambda M, n, limit: wreath_sing_target(M, n, limit)),
    "R2": (lambda M, n: emit_R2(M, n), lambda M, n, limit: wreath_sing_target(M, n, limit)),
    "R1": (lambda M, n: emit_R1(M, n), lambda M, n, limit: wreath_sing_target(M, n, limit)),
    "R1p": (lambda M, n: emit_R1p(M, n), lambda M, n, limit: wreath_sing_target(M, n, limit)),
    "Emonoid": (_emonoid, lambda M, n, limit: e_wreath_target(M, n, limit)),
}


def cmd_verify(args):
    M = resolve_monoid(args.monoid) if args.monoid else None
    n = _int_option("-n", args.n)
    if M is None and args.family != "R":
        raise PreconditionError(f"family {args.family} needs a monoid")
    presentation, target = FAMILIES[args.family]
    p = presentation(M, n)
    emap = standard_map(p, M)
    v = verify(p, emap, target(M, n, args.limit_elements), node_limit=args.limit_nodes)
    verdict = v.to_dict()
    result = {
        "family": args.family,
        "n": n,
        "monoid": M.name if M else None,
        "alphabet": len(p.letters),
        "relations": len(p.relations),
        "relation_families": p.family_counts(),
        "verdict": verdict,
    }
    # Todd-Coxeter's work, which the verdict holds once Todd-Coxeter ran
    counters = {key: verdict[key] for key in ("nodes_allocated", "coincidences_processed")
                if key in verdict}
    parameters = {"family": args.family, "monoid": args.monoid, "n": n,
                  "limit_nodes": args.limit_nodes}
    return (OK if v.ok else NEGATIVE), parameters, result, counters


def cmd_rank(args):
    M = resolve_monoid(args.monoid)
    n = _int_option("-n", args.n)
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
        found = brute_rank(target, target.elements, budget=args.limit_subsets)
        idem = brute_rank(target, target.elements, idempotents_only=True, budget=args.limit_subsets)
        result["brute"] = {
            "rank": found[0] if found else None,
            "idrank": idem[0] if idem else None,
            "rank_witness": [ctx.serialize(x) for x in found[1]] if found else None,
        }
    if args.mode == "both":
        fr, br = result["formula"], result["brute"]
        checks = [fr["lower"] <= br["rank"] <= fr["upper"]]
        if fr["exact_rank"] is not None:
            checks.append(fr["exact_rank"] == br["rank"])
        if fr["exact_idrank"] is not None:
            checks.append(fr["exact_idrank"] == br["idrank"])
        verdict = all(checks)
        status = "match" if verdict else "mismatch"
    result["status"] = status
    parameters = {"monoid": args.monoid, "n": n, "mode": args.mode}
    return (OK if verdict else NEGATIVE), parameters, result, {}


def _parse_edges(text):
    edges = []
    for chunk in text.replace(";", ",").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        i, _, j = chunk.partition(":")
        try:
            edges.append((int(i), int(j)))
        except ValueError:
            raise ValueError(f"--edges must be i:j pairs, got {chunk!r}") from None
    return edges


def _parse_elements(text):
    data = json.loads(text)
    # a bool is an int to isinstance, but not an image
    if not (isinstance(data, list) and all(isinstance(images, list) for images in data)
            and all(type(v) is int for images in data for v in images)):
        raise ValueError("--elements must be a JSON list of image lists of integers")
    return data


def cmd_gens(args):
    n = _int_option("-n", args.n)
    parameters = {"n": n, "edges": args.edges, "elements": args.elements, "confirm": args.confirm}
    result = {"n": n}
    if args.edges is not None:
        edges = _parse_edges(args.edges)
        gen, sc, complete = tournament_check(n, edges)
        result["criterion"] = {"generates": gen, "strongly_connected": sc, "complete": complete}
        answer = gen
        if args.confirm:
            target = sing_target(n, limit=args.limit_elements)
            gens = [epsilon(n, i, j) for i, j in edges]
            closure_answer = generates(gens, target) if gens else False
            result["closure"] = {"generates": closure_answer}
            if closure_answer != gen:
                result["error"] = "criterion and closure disagree"
                return INTERNAL, parameters, result, {}
    elif args.elements is not None:
        gens = [Transformation(tuple(images)) for images in _parse_elements(args.elements)]
        target = sing_target(n, limit=args.limit_elements)
        answer = generates(gens, target) if gens else False
        result["closure"] = {"generates": answer}
    else:
        raise PreconditionError("either --edges or --elements is required")
    result["generates"] = answer
    return (OK if answer else NEGATIVE), parameters, result, {}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wreathbench",
        description="Workbench for singular wreath products: idempotent counts, "
        "generating sets, ranks, and machine-certified presentations.",
        epilog="Monoids are JSON files {name, elements, identity, table} or built-in "
        f"fixtures: {', '.join('@' + k for k in sorted(FIXTURES))}. "
        "Exit codes: 0 positive verdict, 1 negative verdict, 2 invalid input or "
        "capacity, 70 internal error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--out", default=None, help="also write the report to this path")
        return p

    p = command("idempotents", cmd_idempotents, "count idempotents of M wr T_n / M wr Sing_n")
    p.add_argument("--monoid", required=True)
    p.add_argument("-n", default="2", help="degree, or comma-separated degrees")
    p.add_argument("--part", choices=("full", "singular"), default="full")
    p.add_argument("--method", choices=("formula", "brute"), default="formula")
    p.add_argument("--check", action="store_true", help="compare formula against brute force")
    p.add_argument("--list", action="store_true", help="include the idempotent elements")
    p.add_argument("--csv", default=None, help="write n,|M|,formula,brute rows to this path")

    p = command("verify", cmd_verify, "emit a presentation family and certify it")
    p.add_argument("--family", choices=tuple(FAMILIES), required=True)
    p.add_argument("--monoid", default=None)
    p.add_argument("-n", default="3")
    p.add_argument("--limit-nodes", type=int, default=NODE_LIMIT)
    p.add_argument("--limit-elements", type=int, default=CLOSURE_LIMIT)

    p = command("rank", cmd_rank, "rank/idrank of M wr Sing_n by formula and brute force")
    p.add_argument("--monoid", required=True)
    p.add_argument("-n", default="2")
    p.add_argument("--mode", choices=("formula", "brute", "both"), default="formula")
    p.add_argument("--limit-elements", type=int, default=CLOSURE_LIMIT)
    p.add_argument("--limit-subsets", type=int, default=SUBSET_BUDGET)

    p = command("gens", cmd_gens, "generation tests for the singular part")
    p.add_argument("-n", default="3")
    p.add_argument("--edges", default=None, help='idempotent edges "i:j,k:l,..."')
    p.add_argument("--elements", default=None, help="JSON list of image lists")
    p.add_argument("--confirm", action="store_true", help="also run the closure check")
    p.add_argument("--limit-elements", type=int, default=CLOSURE_LIMIT)
    return parser


def main(argv=None) -> int:
    """Run one command line: one report, or one error envelope on refusal."""
    try:
        args = build_parser().parse_args(argv)
        _refuse_negative_budgets(args)
        started = time.monotonic()
        code, parameters, result, counters = args.func(args)
        _emit_report(args, parameters, result, counters, started)
        return code
    except (CapacityError, ValueError, OSError, KeyError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True))
        return INVALID


if __name__ == "__main__":
    sys.exit(main())
