"""Seeded job lists for the three workloads, and the check of each job.

A job is one CLI command line plus the verdict it must produce.  The seed
relabels the census monoids (identity kept at index 0), draws the generating
sets of the ``gens`` jobs and picks the refused command lines; the program
only sees the resulting argv and the monoid files written into the work
directory.
Expected values never come from the program: closed forms and independent
checks live in ``expected.py``, the rest in ``data/expected.json``.
"""

from __future__ import annotations

import json
import random
import string
from pathlib import Path

import expected as X

DATA = Path(__file__).resolve().parent / "data"
WORKLOADS = ("certify", "rank", "idempotents")
MONOID_FAMILIES = ("R2", "Rn", "R1", "R1p", "Emonoid")


def _load(name):
    return json.loads((DATA / name).read_text())


class _Builder:
    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        census = _load("census.json")
        self.classes = census["classes"]
        self.fixtures = census["fixtures"]
        self.expected = _load("expected.json")
        self.jobs = []
        self.files = {}

    def table(self, key):
        return self.fixtures[key] if key.startswith("@") else self.classes[key]

    def monoid_arg(self, key, reorder=True):
        """A fixture name, or a freshly relabelled copy of a census class:
        new element names and, with ``reorder``, a new element order."""
        if key.startswith("@"):
            return key
        if key not in self.files:
            t = self.classes[key]
            m = len(t)
            perm = [0] + (self.rng.sample(range(1, m), m - 1) if reorder else list(range(1, m)))
            table = [[0] * m for _ in range(m)]
            for i in range(m):
                for j in range(m):
                    table[perm[i]][perm[j]] = perm[t[i][j]]
            labels = ["1"] + self.rng.sample(string.ascii_lowercase, m - 1)
            self.files[key] = {"elements": labels, "identity": 0, "table": table}
        return key  # resolved to a path in finish()

    def add(self, argv, expect):
        self.jobs.append({"argv": argv, "expect": dict(expect)})

    def finish(self):
        """Write the monoid files under neutral names and order the jobs.

        Jobs of one shape (the command line without its monoid, edges or
        elements) are spread evenly over the pass, so that a slow moment of
        the machine hits a few jobs of each shape rather than all jobs of one.
        The order does not depend on the seed."""
        keys = list(self.files)
        self.rng.shuffle(keys)
        paths = {}
        for k, key in enumerate(keys):
            path = self.workdir / f"m{k:02d}.json"
            path.write_text(json.dumps({"name": f"M{k:02d}", **self.files[key]}))
            paths[key] = str(path)
        shapes = {}
        for job in self.jobs:
            shapes.setdefault(_shape(job["argv"]), []).append(job)
        spread = sorted(
            ((i + 0.5) / len(group), g, i)
            for g, group in enumerate(shapes.values())
            for i in range(len(group))
        )
        groups = list(shapes.values())
        self.jobs = [groups[g][i] for _, g, i in spread]
        for k, job in enumerate(self.jobs):
            job["id"] = k
            job["argv"] = [paths.get(a, a) for a in job["argv"]]
        return self.jobs


def _shape(argv):
    return tuple(a for k, a in enumerate(argv)
                 if k == 0 or argv[k - 1] not in ("--monoid", "--edges", "--elements"))


REFUSED = {"exit": 2, "error": "PreconditionError"}


def _certify(b: _Builder):
    cases = [(key, 2) for key in b.fixtures]
    cases += [(key, 2) for key, t in b.classes.items() if len(t) <= 3]
    cases += [(key, 3) for key, t in b.classes.items() if len(t) <= 2]
    for key, n in cases:
        t = b.table(key)
        holds = {
            "R2": True,
            "Rn": True,
            "R1": X.is_L_chain(t),
            "R1p": X.is_group(t),
            "Emonoid": X.e_condition(t),
        }
        for family in MONOID_FAMILIES:
            argv = ["verify", "--family", family, "--monoid", b.monoid_arg(key), "-n", str(n)]
            if not holds[family]:
                b.add(argv, REFUSED)
            elif family == "Emonoid":
                b.add(argv, {"exit": 0, "certified": b.expected["emonoid"][key][str(n)]})
            else:
                b.add(argv, {"exit": 0, "certified": X.wreath_sing_size(len(t), n)})
    for n in (3, 4, 5):
        b.add(["verify", "--family", "R", "-n", str(n)], {"exit": 0, "certified": X.sing_size(n)})
    b.add(["verify", "--family", "R1p", "--monoid", "@Z3", "-n", "3"],
          {"exit": 0, "certified": X.wreath_sing_size(3, 3)})
    # families that need a monoid, asked for without one
    for family in b.rng.sample(MONOID_FAMILIES, 2):
        b.add(["verify", "--family", family, "-n", str(b.rng.choice((2, 3)))], REFUSED)


def _random_edges(rng, n):
    """A random orientation of the complete graph, some pairs doubled and,
    now and then, one pair left out."""
    edges = []
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    skip = rng.choice(pairs) if rng.random() < 0.3 else None
    for i, j in pairs:
        if (i, j) == skip:
            continue
        edges.append((i, j) if rng.random() < 0.5 else (j, i))
        if rng.random() < 0.25:
            edges.append(edges[-1][::-1])
    rng.shuffle(edges)
    return edges


def _random_singular_maps(rng, n):
    """Rank n-1 idempotents along a random orientation, plus a few random
    singular maps."""
    maps = []
    for i, j in _random_edges(rng, n):
        images = list(range(1, n + 1))
        images[j - 1] = i
        maps.append(images)
    while len(maps) < n * (n - 1) // 2 + 2:
        images = [rng.randint(1, n) for _ in range(n)]
        if len(set(images)) < n:
            maps.append(images)
    rng.shuffle(maps)
    return maps


def _rank(b: _Builder):
    for key, t in b.classes.items():
        # the one non-chain class of order 3 takes 12 s, three quarters of a
        # pass in one job; the host's speed, measured between jobs, cannot
        # be followed through it, so that job is left out
        if len(t) > 3 or not X.is_L_chain(t):
            continue
        g = len(X.units(t))
        want = {"rank": X.chain_rank(len(t), g, 2), "idrank": X.chain_idrank(len(t), g, 2)}
        # brute_rank tries subsets in element order, so reordering the
        # elements would move the first generating subset and change the
        # work between seeds (up to 2x on one class); names still change
        b.add(["rank", "--monoid", b.monoid_arg(key, reorder=False), "-n", "2", "--mode", "both"],
              {"exit": 0, "rank": want})
    # 11 jobs finish in milliseconds and 5 rank jobs take longer, so the
    # median and p68 jobs sit inside the 16 gens jobs at n=4
    for n, edge_jobs, element_jobs in ((3, 5, 2), (4, 11, 5)):
        for _ in range(edge_jobs):
            edges = _random_edges(b.rng, n)
            answer = X.tournament_generates(n, edges)
            text = ",".join(f"{i}:{j}" for i, j in edges)
            b.add(["gens", "-n", str(n), "--edges", text, "--confirm"],
                  {"exit": 0 if answer else 1, "generates": answer})
        for _ in range(element_jobs):
            maps = _random_singular_maps(b.rng, n)
            answer = X.generates_sing(n, maps)
            b.add(["gens", "-n", str(n), "--elements", json.dumps(maps)],
                  {"exit": 0 if answer else 1, "generates": answer})


def _idempotent_counts(b: _Builder, key, degrees):
    t = b.table(key)
    if X.is_group(t):
        return {str(n): X.group_idempotent_count(len(t), n) for n in degrees}
    return {str(n): b.expected["idempotents"][key][str(n)] for n in degrees}


def _idempotents(b: _Builder):
    degrees = (2, 3, 4)
    for key in b.classes:
        b.add(["idempotents", "--monoid", b.monoid_arg(key), "-n", "2,3,4", "--check"],
              {"exit": 0, "counts": _idempotent_counts(b, key, degrees), "brute": True})
    for key in b.fixtures:
        for n in (10, 11, 12):
            b.add(["idempotents", "--monoid", key, "-n", str(n)],
                  {"exit": 0, "counts": _idempotent_counts(b, key, (n,)), "brute": False})


def build(workload: str, seed: int, workdir: Path) -> list[dict]:
    """The job list of ``workload`` for ``seed``; monoid files go to workdir."""
    b = _Builder(seed, workdir)
    {"certify": _certify, "rank": _rank, "idempotents": _idempotents}[workload](b)
    return b.finish()


# ---------------------------------------------------------------------------
# checking one job

def check(expect: dict, code: int, report) -> str | None:
    """None when the exit code and report match ``expect``, else the reason."""
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}"
    if not isinstance(report, dict):
        return "no JSON report"
    if "error" in expect:
        return None if report.get("error") == expect["error"] else f"error {report.get('error')!r}"
    result = report.get("result") or {}
    if "certified" in expect:
        v = result.get("verdict") or {}
        got = (v.get("status"), v.get("class_count"), v.get("target_size"))
        want = ("certified", expect["certified"], expect["certified"])
        return None if got == want else f"verdict {got}, expected {want}"
    if "rank" in expect:
        brute = result.get("brute") or {}
        got = {"rank": brute.get("rank"), "idrank": brute.get("idrank")}
        if result.get("status") != "match" or got != expect["rank"]:
            return f"rank {result.get('status')} {got}, expected {expect['rank']}"
        return None
    if "generates" in expect:
        got = result.get("generates")
        return None if got is expect["generates"] else f"generates {got}, expected {expect['generates']}"
    if "counts" in expect:
        rows = result.get("rows") or []
        for row in rows:
            want = expect["counts"].get(str(row.get("n")))
            if row.get("formula") != want or (expect["brute"] and row.get("brute") != want):
                return f"counts {row}, expected {want}"
        if len(rows) != len(expect["counts"]):
            return f"{len(rows)} rows, expected {len(expect['counts'])}"
        return None
    return "job has no expectation"
