"""Command-line interface.

Every run prints exactly one report (JSON by default), or one JSON error
envelope ``{"error", "message"}`` when it is refused.  Exit codes: 0 when the
mathematical verdict is positive (certified / true / match), 1 when it is
negative, 2 for usage, validation, precondition and capacity problems and
for running out of memory, 70 for internal invariant violations.  Re-running
a command with identical inputs produces a byte-identical report except for
the wall-time field.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import time
from functools import cache

from .certify import e_wreath_target, singular_part, target_size, verify, wreath_sing_target
from .enumeration import (
    CLOSURE_LIMIT,
    SUBSET_BUDGET,
    brute_rank,
    generates,
    rank_formulas,
    tournament_check,
)
from .errors import CapacityError, DegreeMismatch, InternalError, PreconditionError, format_count
from .monoids import FIXTURES, resolve_monoid
from .presentations import (
    emit_E_wreath_monoid,
    emit_R,
    emit_R1,
    emit_R1p,
    emit_R2,
    emit_Rn,
    standard_map,
)
from .todd_coxeter import NODE_LIMIT
from .transformations import compose, epsilon, transformation
from .wreath import (
    WreathContext, check_brute_size, check_formula_degrees, count_idempotents, idempotent_elements,
)

OK, NEGATIVE, INVALID, INTERNAL = 0, 1, 2, 70
# the largest -n, refused where -n is read: the closed-form sizes that the
# size checks compute exactly cost more with every degree (20 ms at 10,000)
MAX_DEGREE = 10_000


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
    print(text, flush=True)  # a closed stdout fails here, not at exit


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


_INTEGER = re.compile(r"\s*([+-]?)(\d+(?:_\d+)*)\s*")  # what int() reads in base 10


def _quote(text):
    """``text`` quoted whole up to 100 characters, else its length and its
    first 100 characters."""
    return repr(text) if len(text) <= 100 else f"{len(text)} characters starting {text[:100]!r}"


def _integer(text, name, most, least="positive"):
    """``text`` read as int() reads it in base 10 (a sign, surrounding
    whitespace, single underscores between digits), or None where int() would
    refuse it.  A number past 100 significant digits is refused by its digit
    count before ``int``, which will not convert more than 4,300: as over
    ``most``, or as not ``least``, with ``name`` as the subject."""
    match = _INTEGER.fullmatch(text)
    if not match:
        return None
    sign = match[1]
    # int() reads every Unicode decimal digit: in ASCII, the leading zeros strip
    digits = "".join(str(int(c)) for c in match[2] if c != "_").lstrip("0") or "0"
    if len(digits) > 100 and sign == "-":
        raise ValueError(f"{name} must be {least}, got a {len(digits)}-digit negative number")
    if len(digits) > 100:
        raise ValueError(f"{name} must be at most {most}, got a {len(digits)}-digit number")
    return int(sign + digits)


def _degree(text):
    """``text`` as a degree, an integer of at most MAX_DEGREE, refused before
    any size is computed; a refusal names -n and quotes at most 100
    characters of the text."""
    n = _integer(text, "-n", MAX_DEGREE)
    if n is None:
        raise ValueError("-n must be an integer, got " + _quote(text))
    if n > MAX_DEGREE:
        raise ValueError(f"-n must be at most {MAX_DEGREE}, got {format_count(n)}")
    return n


def _budget(text, option):
    """``text`` as a budget of at least 0 (at 0 the run stops at once), read as
    -n is read: a refusal names ``option`` and quotes at most 100 characters."""
    value = _integer(text, option, "a 100-digit number", "at least 0")
    if value is None:
        raise ValueError(f"{option} must be an integer, got " + _quote(text))
    if value < 0:
        raise ValueError(f"{option} must be at least 0, got {value}")
    return value


def _parse_n_list(text):
    values = [_degree(x) for x in str(text).split(",") if x != ""]
    if not values:
        raise ValueError("no degree given")
    return values


def cmd_idempotents(args):
    M = resolve_monoid(args.monoid)
    ns = _parse_n_list(args.n)
    method = "both" if args.check else args.method
    # every degree, and the whole list's work, before the first row
    if method in ("formula", "both"):
        check_formula_degrees(ns)
    contexts = [WreathContext(M, n, args.part) for n in ns]
    if method in ("brute", "both") or args.list:
        check_brute_size(sum(ctx.size() for ctx in contexts))
    rows = []
    verdict = True
    for n, ctx in zip(ns, contexts):
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


# family -> (presentation of M and n, the part of M wr T_n holding its target);
# only R takes no monoid.  Emitters are looked up when called, so a tracer's wrapper runs.
FAMILIES = {
    "R": (lambda M, n: emit_R(n), "singular"),
    "Rn": (lambda M, n: emit_Rn(M, n), "singular"),
    "R2": (lambda M, n: emit_R2(M, n), "singular"),
    "R1": (lambda M, n: emit_R1(M, n), "singular"),
    "R1p": (lambda M, n: emit_R1p(M, n), "singular"),
    "Emonoid": (lambda M, n: emit_E_wreath_monoid(M, n), "full"),
}


def cmd_verify(args):
    node_limit = _budget(args.limit_nodes, "--limit-nodes")
    limit = _budget(args.limit_elements, "--limit-elements")
    M = resolve_monoid(args.monoid) if args.monoid else None
    n = _degree(args.n)
    if M is None and args.family != "R":
        raise PreconditionError(f"family {args.family} needs a monoid")
    presentation, part = FAMILIES[args.family]
    if n < 2:  # the emitters' own refusal, ahead of the target's
        raise ValueError("n must be at least 2")
    if M is not None and args.family == "R":
        raise PreconditionError("family R takes no monoid")
    # every refusal of the target, ahead of the emitter: R emits Theta(n^4) relations
    target_size(M, n, part, limit)
    p = presentation(M, n)
    emap = standard_map(p, M)
    if part == "singular":
        size, contains = singular_part(M, n, limit)
    else:  # the Emonoid target is a closure: it has no closed form yet
        target = e_wreath_target(M, n, limit)
        size, contains = len(target), target.index.__contains__
    v = verify(p, emap, size, contains, node_limit=node_limit)
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
                  "limit_nodes": node_limit}
    return (OK if v.status == "certified" else NEGATIVE), parameters, result, counters


def cmd_rank(args):
    limit = _budget(args.limit_elements, "--limit-elements")
    budget = _budget(args.limit_subsets, "--limit-subsets")
    M = resolve_monoid(args.monoid)
    n = _degree(args.n)
    if n < 2:  # every mode's refusal, ahead of the brute target's own
        raise ValueError("n must be at least 2")
    result = {"monoid": M.name, "n": n, "mode": args.mode}
    verdict = True
    status = "ok"
    if args.mode in ("formula", "both"):
        result["formula"] = rank_formulas(M, n)
        if result["formula"]["exact_rank"] is None:
            status = "bounds"
    if args.mode in ("brute", "both"):
        ctx = WreathContext(M, n, "singular")
        target = wreath_sing_target(M, n, limit=limit)
        found = brute_rank(target, target.elements, budget=budget)
        idem = brute_rank(target, target.elements, idempotents_only=True, budget=budget)
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


def _parse_edges(text, n):
    """The i:j pairs of ``text``, each endpoint read as -n is; a refusal
    quotes at most 100 characters of the pair."""
    edges = []
    for chunk in text.replace(";", ",").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        i, _, j = chunk.partition(":")
        edge = (_integer(i, "--edges endpoints", n), _integer(j, "--edges endpoints", n))
        if None in edge:
            raise ValueError("--edges must be i:j pairs, got " + _quote(chunk))
        if len(f"{edge[0]}{edge[1]}") > 100:  # tournament_check states a refused edge whole
            raise ValueError(f"--edges endpoints must be in 1..{n}, got " + _quote(chunk))
        edges.append(edge)
    return edges


def _parse_elements(text):
    data = json.loads(text)
    # a bool is an int to isinstance, but not an image
    if not (isinstance(data, list) and all(isinstance(images, list) for images in data)
            and all(type(v) is int for images in data for v in images)):
        raise ValueError("--elements must be a JSON list of image lists of integers")
    return data


def cmd_gens(args):
    limit = _budget(args.limit_elements, "--limit-elements")
    n = _degree(args.n)
    parameters = {"n": n, "edges": args.edges, "elements": args.elements, "confirm": args.confirm}
    result = {"n": n}
    if args.edges is not None:
        edges = _parse_edges(args.edges, n)
        gen, sc, complete = tournament_check(n, edges)
        result["criterion"] = {"generates": gen, "strongly_connected": sc, "complete": complete}
        answer = gen
        if args.confirm:
            gens = [epsilon(n, i, j) for i, j in edges]
            closure_answer = generates(gens, compose, *singular_part(None, n, limit))
            result["closure"] = {"generates": closure_answer}
            if closure_answer != gen:
                result["error"] = "criterion and closure disagree"
                return INTERNAL, parameters, result, {}
    elif args.elements is not None:
        gens = []
        for images in _parse_elements(args.elements):
            if len(images) != n:
                raise DegreeMismatch(len(images), n)
            gens.append(transformation(images))
        answer = generates(gens, compose, *singular_part(None, n, limit))
        result["closure"] = {"generates": answer}
    else:
        raise PreconditionError("either --edges or --elements is required")
    result["generates"] = answer
    return (OK if answer else NEGATIVE), parameters, result, {}


@cache  # built once per process: the tree costs about a tenth of a small job
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
    p.add_argument("--limit-nodes", default=str(NODE_LIMIT))
    p.add_argument("--limit-elements", default=str(CLOSURE_LIMIT))

    p = command("rank", cmd_rank, "rank/idrank of M wr Sing_n by formula and brute force")
    p.add_argument("--monoid", required=True)
    p.add_argument("-n", default="2")
    p.add_argument("--mode", choices=("formula", "brute", "both"), default="formula")
    p.add_argument("--limit-elements", default=str(CLOSURE_LIMIT))
    p.add_argument("--limit-subsets", default=str(SUBSET_BUDGET))

    p = command("gens", cmd_gens, "generation tests for the singular part")
    p.add_argument("-n", default="3")
    given = p.add_mutually_exclusive_group()
    given.add_argument("--edges", default=None, help='idempotent edges "i:j,k:l,..."')
    given.add_argument("--elements", default=None, help="JSON list of image lists")
    p.add_argument("--confirm", action="store_true", help="also run the closure check")
    p.add_argument("--limit-elements", default=str(CLOSURE_LIMIT))
    return parser


def main(argv=None) -> int:
    """Run one command line: one report, or one error envelope on refusal."""
    try:
        try:
            args = build_parser().parse_args(argv)
            started = time.monotonic()
            code, parameters, result, counters = args.func(args)
            _emit_report(args, parameters, result, counters, started)
            return code
        except (CapacityError, ValueError, OSError, KeyError, MemoryError, InternalError) as exc:
            # Python raises a MemoryError without a message, and str() of a
            # KeyError is the repr of its text
            text = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            message = str(text) or ("out of memory" if isinstance(exc, MemoryError) else "")
            envelope = {"error": type(exc).__name__, "message": message}
            print(json.dumps(envelope, sort_keys=True), flush=True)
            return INTERNAL if isinstance(exc, InternalError) else INVALID
    except BrokenPipeError:
        # stdout's reader is gone, so nothing can be reported; stdout goes to
        # the null device, so that the flush at exit cannot fail again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return INVALID


if __name__ == "__main__":
    sys.exit(main())
