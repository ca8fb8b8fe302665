"""Todd-Coxeter style congruence enumeration for finite presentations.

Nodes are tentative congruence classes of the free monoid on the alphabet,
arranged as a right Cayley table ``node x letter -> node``.  Before the
enumeration starts, both sides of every non-trivial relation are compiled
into one prefix trie, stored as a flat list of ``(parent trie node, letter)``
steps in creation order, so that words sharing a prefix share its steps;
each relation becomes the pair of trie nodes its two sides end at, and
duplicate pairs are dropped.

Each sweep visits every live node once.  The node walks the trie steps in
order, following the table (filling a missing edge with a new node as it
goes) to find the node every trie node reaches.  An edge that points at a
node merged away since it was written is resolved through the union-find
and the representative is written back into that table slot.  After the
walk, the two ends of every relation are identified; identifications are
processed to a fixpoint, merging table rows as classes collapse, and the
node's remaining edges are then defined.  The run is finished when a full
sweep over all live nodes makes no new definition and no identification,
at which point the live nodes are exactly the elements of the presented
monoid.

A semigroup presentation is enumerated as a monoid presentation whose root
node (the empty word) can never coincide with a non-empty class, and the
root is excluded from the final count.

The certified class count is a property of the presentation alone, so it is
independent of relation order and of the processing schedule; the numbers
of nodes allocated and of coincidences processed are not.
"""

from __future__ import annotations

from dataclasses import dataclass

NODE_LIMIT = 10**6


class _BoundExceeded(Exception):
    pass


@dataclass
class TCResult:
    status: str  # "certified" | "bound_exceeded"
    class_count: int | None
    nodes_allocated: int
    coincidences_processed: int


def _compile(relations):
    """The prefix trie of the relation sides, as ``(parent, letter)`` steps
    (trie node ``k + 1`` is made by step ``k``; node 0 is the empty word),
    and the distinct pairs of trie nodes where the two sides end.  Trivial
    relations (u, u) impose nothing and are dropped."""
    steps = []
    made = {}

    def insert(word):
        t = 0
        for c in word:
            nxt = made.get((t, c))
            if nxt is None:
                steps.append((t, c))
                nxt = made[(t, c)] = len(steps)
            t = nxt
        return t

    ends = {}
    for r in relations:
        if r.lhs != r.rhs:
            ends[(insert(r.lhs), insert(r.rhs))] = None
    return steps, list(ends)


def todd_coxeter(p, node_limit: int = NODE_LIMIT) -> TCResult:
    """Enumerate the classes of ``p``.  The run stops with "bound_exceeded" at
    the allocation that takes the node count (the root included) past
    ``node_limit``."""
    na = len(p.letters)
    steps, ends = _compile(p.relations)

    parent = []
    tab = []
    coinc = 0
    pending = []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def new_node():
        idx = len(parent)
        parent.append(idx)
        tab.extend([-1] * na)
        if idx >= node_limit:
            raise _BoundExceeded
        return idx

    def process_pending():
        nonlocal coinc
        while pending:
            x, y = pending.pop()
            x = find(x)
            y = find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            parent[y] = x
            coinc += 1
            bx = x * na
            by = y * na
            for c in range(na):
                vy = tab[by + c]
                if vy != -1:
                    vx = tab[bx + c]
                    if vx == -1:
                        tab[bx + c] = vy
                    elif find(vx) != find(vy):
                        pending.append((vx, vy))

    try:
        new_node()  # the root: the empty word
        changed = True
        while changed:
            changed = False
            i = 0
            while i < len(parent):
                if parent[i] != i:
                    i += 1
                    continue
                before = len(parent)
                # reached[k] is the node that trie node k leads to from i
                reached = [i]
                for t, c in steps:
                    slot = reached[t] * na + c
                    nxt = tab[slot]
                    if nxt == -1:
                        nxt = tab[slot] = new_node()
                    elif parent[nxt] != nxt:
                        nxt = tab[slot] = find(nxt)
                    reached.append(nxt)
                for a, b in ends:
                    if reached[a] != reached[b]:
                        pending.append((reached[a], reached[b]))
                if pending:
                    process_pending()
                    changed = True
                if parent[i] == i:
                    base = i * na
                    for c in range(na):
                        if tab[base + c] == -1:
                            tab[base + c] = new_node()
                if len(parent) != before:
                    changed = True
                i += 1
    except _BoundExceeded:
        return TCResult("bound_exceeded", None, len(parent), coinc)

    live = sum(1 for i in range(len(parent)) if parent[i] == i)
    count = live if p.kind == "monoid" else live - 1
    return TCResult("certified", count, len(parent), coinc)
