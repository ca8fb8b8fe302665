"""Regenerate ``data/census.json`` and ``data/expected.json``.

    python3 bench/record.py

The census holds one Cayley table per isomorphism class of monoids of order
at most 4 (identity at index 0, least relabelling), plus the built-in
fixtures relabelled so that their identity is index 0.  Every value written
to the expected file is computed by an independent route in ``expected.py``
and by the program; the script stops without writing anything if the two
disagree anywhere.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import expected as X

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from wreathbench.certify import e_wreath_target  # noqa: E402
from wreathbench.enumeration import brute_rank, close  # noqa: E402
from wreathbench.monoids import FIXTURES, fixture, monoid_from_dict  # noqa: E402
from wreathbench.wreath import WreathContext, count_idempotents  # noqa: E402

# the sizes the workloads in workloads.py ask for
IDEMPOTENT_CHECK_DEGREES = (2, 3, 4)
IDEMPOTENT_FORMULA_DEGREES = (10, 11, 12)
RANK_MAX_ORDER = 3


def relabel(table, perm):
    """The table with element i renamed perm[i]."""
    m = len(table)
    out = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            out[perm[i]][perm[j]] = perm[table[i][j]]
    return out


def canonical(table):
    m = len(table)
    return min(relabel(table, (0,) + p) for p in itertools.permutations(range(1, m)))


def census(max_order):
    """One least table per isomorphism class, ordered by order then table."""
    classes = []
    for m in range(1, max_order + 1):
        free = [(i, j) for i in range(1, m) for j in range(1, m)]
        found = set()
        for values in itertools.product(range(m), repeat=len(free)):
            t = [list(range(m))] + [[i] + [0] * (m - 1) for i in range(1, m)]
            for (i, j), v in zip(free, values):
                t[i][j] = v
            if all(t[t[a][b]][c] == t[a][t[b][c]] for a in range(m) for b in range(m) for c in range(m)):
                found.add(json.dumps(canonical(t)))
        classes.extend(json.loads(s) for s in sorted(found))
    return {f"c{k:02d}": t for k, t in enumerate(classes)}


def fixture_tables():
    out = {}
    for name in sorted(FIXTURES):
        M = fixture("@" + name)
        perm = list(range(M.order))
        perm[0], perm[M.identity] = perm[M.identity], perm[0]
        out["@" + name] = relabel([list(r) for r in M.table], perm)
    return out


def program_monoid(table):
    return monoid_from_dict({"elements": [str(i) for i in range(len(table))], "identity": 0, "table": table})


def agree(what, ours, theirs):
    if ours != theirs:
        sys.exit(f"disagreement on {what}: independent {ours!r}, program {theirs!r}")
    return ours


def main():
    classes = census(4)
    fixtures = fixture_tables()
    idem, emon, ranks = {}, {}, {}

    for key, t in classes.items():
        if X.is_group(t):
            continue
        M = program_monoid(t)
        row = {}
        for n in IDEMPOTENT_CHECK_DEGREES:
            ctx = WreathContext(M, n, "full")
            ours = X.idempotent_count_poly(t, n)
            agree(f"{key} n={n} formula", ours, count_idempotents(ctx, "formula"))
            row[str(n)] = agree(f"{key} n={n} brute", ours, count_idempotents(ctx, "brute"))
        idem[key] = row
    for key, t in fixtures.items():
        if X.is_group(t):
            continue
        M = fixture(key)
        idem[key] = {
            str(n): agree(
                f"{key} n={n} formula",
                X.idempotent_count_poly(t, n),
                count_idempotents(WreathContext(M, n, "full"), "formula"),
            )
            for n in IDEMPOTENT_FORMULA_DEGREES
        }

    # Emonoid targets for every (class, degree) the certify workload uses
    wanted = [(k, t, 2) for k, t in classes.items() if len(t) <= 3]
    wanted += [(k, t, 3) for k, t in classes.items() if len(t) <= 2]
    wanted += [(k, t, 2) for k, t in fixtures.items()]
    for key, t, n in wanted:
        if not X.e_condition(t):
            continue
        M = fixture(key) if key.startswith("@") else program_monoid(t)
        emon.setdefault(key, {})[str(n)] = agree(
            f"{key} n={n} Emonoid target", X.emonoid_size(t, n), len(e_wreath_target(M, n))
        )

    # ranks off the L-chain hypothesis, where no closed form exists
    for key, t in classes.items():
        if len(t) > RANK_MAX_ORDER or X.is_L_chain(t):
            continue
        ctx = WreathContext(program_monoid(t), 2, "singular")
        target = close(ctx.elements(), ctx.multiply)
        found = brute_rank(target, list(target.elements))
        idem_found = brute_rank(target, list(target.elements), idempotents_only=True)
        theirs = (found and found[0], idem_found and idem_found[0])
        rank, idrank = agree(f"{key} ranks", X.brute_ranks(t, 2), theirs)
        ranks[key] = {"2": {"rank": rank, "idrank": idrank}}

    data = HERE / "data"
    data.mkdir(exist_ok=True)
    (data / "census.json").write_text(
        json.dumps({"classes": classes, "fixtures": fixtures}, indent=1) + "\n"
    )
    (data / "expected.json").write_text(
        json.dumps({"idempotents": idem, "emonoid": emon, "rank": ranks}, indent=1, sort_keys=True) + "\n"
    )
    print(f"recorded {len(classes)} classes, {len(fixtures)} fixtures")


if __name__ == "__main__":
    main()
