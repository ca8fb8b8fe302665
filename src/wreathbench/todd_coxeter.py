"""Todd-Coxeter style congruence enumeration for finite presentations.

Nodes are tentative congruence classes of the free monoid on the alphabet,
arranged as a right Cayley table ``node x letter -> node``, held as one
plain list per letter: ``cols[c][x]`` is the edge ``x.c``, -1 while it is
missing.  The relations are read from the presentation's prefix trie,
``Presentation.trie``: a flat list of ``(parent trie node, letter)`` steps in
creation order, in which words sharing a prefix share their steps, and for
each relation with unequal sides the pair of trie nodes its two sides end
at.  Before the enumeration starts, each step's letter is replaced by that
letter's column, duplicate pairs are dropped, and the later-made end of each
pair is partnered with the earlier end of the first pair it belongs to.

The one sweep visits every live node once, in index order.  The node walks
the trie steps in order, following the columns to find the node every trie
node reaches.  An edge that points at a node merged away since it was
written is resolved through the union-find and the representative is
written back into that slot.  A missing edge is filled as the walk goes:
into a trie node with a partner it is deduced, set to the node the partner
reached (the relation itself, applied at the walking node, so no node is
allocated and no coincidence is queued); otherwise it gets a new node.
After the walk, the two ends of every relation are identified;
identifications are processed to a fixpoint, merging table rows as classes
collapse, and the node's remaining edges are then defined.

One sweep is enough.  A merge keeps the smaller node, so a node live at the
end was live when its turn came: its row was completed and every relation
was traced from it.  A merge only identifies nodes that are already equal,
so completed rows and traced relations survive every later merge.

Merged nodes leave dead rows behind, and most rows die: ``R`` at n=5
allocates 25,937 rows, of which never more than 4,028 are live.  So at the
top of a live node's turn, whenever the dead rows outnumber the live ones,
the table is compacted: the live nodes are renumbered in index order, every
column is rewritten through that map, and the union-find starts again from
the identity.  This leaves the schedule exactly as it was.  The renumbering
keeps the order of the live nodes, and a new node is numbered above every
existing one either way, so every comparison the run makes (which node a
merge keeps, which node the sweep visits next) comes out the same.  An edge
that pointed at a dead node now points at its representative, which is the
node the write-back would have resolved it to.  So the same nodes are
allocated, the same coincidences processed and the same node-limit stop
reached; only the numbers differ, by the order-preserving map.  Each
compaction drops more rows than it keeps, and a row is dropped once, so the
compactions rewrite fewer rows in all than the run allocates.  A last
compaction after the sweep leaves the columns over the live rows only, the
root's first: these columns are the word graph ``graph``.

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
    graph: list | None = None  # on success: graph[c][x] is the edge x.c, row 0 the root


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
    steps, relation_ends = p.trie
    ends, partner = _pairs(relation_ends)

    cols = [[] for _ in p.letters]  # cols[c][x] is the edge x.c, -1 if missing
    step_parents = [t for t, _ in steps]
    step_cols = [cols[c] for _, c in steps]
    parent = []  # one entry per row, dead rows included
    allocated = 0
    coinc = 0
    pending = []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def new_node():
        nonlocal allocated
        idx = len(parent)
        parent.append(idx)
        for col in cols:
            col.append(-1)
        allocated += 1
        if allocated > node_limit:
            raise _BoundExceeded
        return idx

    def compact():
        """Renumber the live rows in index order and return the map from old
        to new numbers.  The columns change in place: ``step_cols`` holds them."""
        rep, live = [], []
        for x, q in enumerate(parent):  # q < x for a merged x: a merge keeps the smaller node
            rep.append(len(live) if q == x else rep[q])
            if q == x:
                live.append(x)
        rep.append(-1)  # rep[-1]: a missing edge stays missing
        for col in cols:
            col[:] = [rep[col[x]] for x in live]
        parent[:] = range(len(live))
        return rep

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
            for col in cols:
                vy = col[y]
                if vy != -1:
                    vx = col[x]
                    if vx == -1:
                        col[x] = vy
                    elif find(vx) != find(vy):
                        pending.append((vx, vy))

    try:
        new_node()  # the root: the empty word
        i = 0
        while i < len(parent):
            if parent[i] != i:
                i += 1
                continue
            if len(parent) > 2 * (allocated - coinc):  # dead rows outnumber live ones
                i = compact()[i]
            # reached[k] is the node that trie node k leads to from i
            reached = [i]
            for t, col in zip(step_parents, step_cols):
                x = reached[t]
                nxt = col[x]
                # parent[-1] is never -1, so this also catches a missing edge
                if parent[nxt] != nxt:
                    if nxt != -1:
                        nxt = find(nxt)
                    else:
                        # the end of a relation side: the other side's node
                        k = partner.get(len(reached))
                        nxt = new_node() if k is None else reached[k]
                    col[x] = nxt
                reached.append(nxt)
            for a, b in ends:
                if reached[a] != reached[b]:
                    pending.append((reached[a], reached[b]))
            if pending:
                process_pending()
            if parent[i] == i:
                for col in cols:
                    if col[i] == -1:
                        col[i] = new_node()
            i += 1
    except _BoundExceeded:
        return TCResult("bound_exceeded", None, allocated, coinc)

    compact()
    count = len(parent) if p.kind == "monoid" else len(parent) - 1
    return TCResult("certified", count, allocated, coinc, cols)
