"""Todd-Coxeter style congruence enumeration for finite presentations.

Nodes are tentative congruence classes of the free monoid on the alphabet,
arranged as a right Cayley table ``node x letter -> node``.  The relations
are read from the presentation's prefix trie, ``Presentation.trie``: a flat
list of ``(parent trie node, letter)`` steps in creation order, in which
words sharing a prefix share their steps, and for each relation with unequal
sides the pair of trie nodes its two sides end at.  Before the enumeration
starts, duplicate pairs are dropped, and the later-made end of each pair is
partnered with the earlier end of the first pair it belongs to.

The one sweep visits every live node once, in index order.  The node walks
the trie steps in order, following the table to find the node every trie
node reaches.  An edge that points at a node merged away since it was
written is resolved through the union-find and the representative is
written back into that table slot.  A missing edge is filled as the walk
goes: into a trie node with a partner it is deduced, set to the node the
partner reached (the relation itself, applied at the walking node, so no
node is allocated and no coincidence is queued); otherwise it gets a new
node.  After the walk, the two ends of every relation are identified;
identifications are processed to a fixpoint, merging table rows as classes
collapse, and the node's remaining edges are then defined.

One sweep is enough.  A merge keeps the smaller node, so a node live at the
end was live when its turn came: its row was completed and every relation
was traced from it.  A merge only identifies nodes that are already equal,
so completed rows and traced relations survive every later merge.  The live
rows are returned as the word graph ``graph``, renumbered in index order,
root first, as one flat list of ``na`` edges per row.

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
    graph: list | None = None  # on success: na edges per live row, the root's first


def _pairs(ends):
    """The distinct pairs among a trie's relation ends, in first-seen order,
    and ``partner``: for the later-made end of each pair, the earlier end of
    the first pair it closes."""
    pairs = list(dict.fromkeys(e for e in ends if e is not None))
    partner = {}
    for a, b in pairs:
        partner.setdefault(max(a, b), min(a, b))
    return pairs, partner


def todd_coxeter(p, node_limit: int = NODE_LIMIT) -> TCResult:
    """Enumerate the classes of ``p``.  The run stops with "bound_exceeded" at
    the allocation that takes the node count (the root included) past
    ``node_limit``."""
    na = len(p.letters)
    steps, relation_ends = p.trie
    ends, partner = _pairs(relation_ends)

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
        i = 0
        while i < len(parent):
            if parent[i] != i:
                i += 1
                continue
            # reached[k] is the node that trie node k leads to from i
            reached = [i]
            for t, c in steps:
                slot = reached[t] * na + c
                nxt = tab[slot]
                # parent[-1] is never -1, so this also catches a missing edge
                if parent[nxt] != nxt:
                    if nxt != -1:
                        nxt = find(nxt)
                    else:
                        # the end of a relation side: the other side's node
                        k = partner.get(len(reached))
                        nxt = new_node() if k is None else reached[k]
                    tab[slot] = nxt
                reached.append(nxt)
            for a, b in ends:
                if reached[a] != reached[b]:
                    pending.append((reached[a], reached[b]))
            if pending:
                process_pending()
            if parent[i] == i:
                base = i * na
                for c in range(na):
                    if tab[base + c] == -1:
                        tab[base + c] = new_node()
            i += 1
    except _BoundExceeded:
        return TCResult("bound_exceeded", None, len(parent), coinc)

    rep, live = [], []  # each node's live row, renumbered in index order
    for x, q in enumerate(parent):  # q < x for a merged x: a merge keeps the smaller node
        rep.append(len(live) if q == x else rep[q])
        if q == x:
            live.append(x)
    graph = [rep[v] for x in live for v in tab[x * na:x * na + na]]
    count = len(live) if p.kind == "monoid" else len(live) - 1
    return TCResult("certified", count, len(parent), coinc, graph)
