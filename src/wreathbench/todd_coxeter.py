"""Todd-Coxeter style congruence enumeration for finite presentations.

Nodes are tentative congruence classes of the free monoid on the alphabet,
arranged as a right Cayley table ``node x letter -> node``, held as one
plain list per letter: ``cols[c][x]`` is the edge ``x.c``, -1 while it is
missing.  The relations are read from the presentation's prefix trie,
``Presentation.trie``: a flat list of ``(parent trie node, letter)`` steps in
creation order, in which words sharing a prefix share their steps, and for
each relation with unequal sides the pair of trie nodes its two sides end
at.  Before the enumeration starts, each step's letter is replaced by that
letter's column, repeated pairs (in either order) are dropped, and the later
end of each pair is partnered with the earlier end of the first pair it is in.

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

The walk does the same steps at every node, so a long run walks them
through generated code.  Once the live rows ahead of the walking node repay
it, the walk is compiled and used for the rest of the sweep.  The rule reads
only numbers the run has: at most ``i + 1`` live rows lie behind node ``i``,
and compiling costs about ``_COMPILE_NS`` per trie step or pair, against
about ``_STEP_SAVING_NS`` saved per step and visit.  It is looked at every
``_CHECK_EVERY`` rows and after every compaction, so a visit pays one integer
comparison for it.  A presentation of more than ``_COMPILE_BUDGET`` steps and
pairs is never compiled.  The walk is compiled in pieces of ``_PIECE_STEPS``
steps, one function each, because the parser's memory grows with the source:
one function for the whole walk of ``R`` at n=5 peaks near 12 MB under
``compile``.  A piece takes the walking node, keeps the values of its own
steps in locals (``r<k>`` for trie node k), and checks each relation pair
whose later end it makes.  A value an earlier piece made is read again by
following its word from the walking node: the earlier piece resolved those
edges, and no merge happens during a walk, so they need no check.  The rare
branch (write-back, deduced closing edge, new node) is a call.  The source
holds only those names, fixed helper names and integers, never input text,
and is built with ``compile``, not written to a file.  Both walks make the
same nodes and queue the same pairs; the compiled one queues them by their
later end, and the merges they lead to do not depend on that order.  So the
counters and the word graph are the same either way.

A semigroup presentation is enumerated as a monoid presentation whose root
node (the empty word) can never coincide with a non-empty class, and the
root is excluded from the final count.

The certified class count is a property of the presentation alone, so it is
independent of relation order and of the processing schedule; the numbers
of nodes allocated and of coincidences processed are not.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

NODE_LIMIT = 10**6

# The compiled walk (see above): nanoseconds saved per trie step and visit,
# and spent compiling per trie step or pair, on a 2-core x86 VM, Python 3.11
_STEP_SAVING_NS = 30
_COMPILE_NS = 20_000
_PIECE_STEPS = 64
_COMPILE_BUDGET = 10_000
_CHECK_EVERY = 64  # rows between two looks at the rule


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
    """The distinct pairs among a trie's relation ends, in first-seen order, a
    pair (b, a) dropped after (a, b), and ``partner``: for the later-made end
    of each pair, the earlier end of the first pair it closes."""
    pairs = {}  # an ordered set of the trie's own tuples
    for e in ends:
        if e is not None and e[::-1] not in pairs:
            pairs[e] = None
    partner = {}
    for a, b in pairs:
        partner.setdefault(max(a, b), min(a, b))
    return list(pairs), partner


def _walk_sources(steps, pairs, partner, size):
    """The source of the compiled trie walk, one function ``piece(r0)`` per
    ``size`` steps: ``r<k>`` is the node that trie node k leads to from the
    walking node ``r0``, and ``c<c>`` is column c."""
    later = {}  # trie node -> the pairs it is the later end of
    for a, b in pairs:
        later.setdefault(max(a, b), []).append((a, b))
    for lo in range(0, len(steps), size):
        hi = min(lo + size, len(steps))
        old = set()  # trie nodes an earlier piece made, read again here
        for k in range(lo + 1, hi + 1):
            uses = [steps[k - 1][0], partner.get(k, 0)] + [e for ab in later.get(k, ()) for e in ab]
            for m in uses:
                while 0 < m <= lo and m not in old:
                    old.add(m)
                    m = steps[m - 1][0]
        lines = ["def piece(r0):"]
        for m in sorted(old):  # edges the earlier piece resolved: no check
            t, c = steps[m - 1]
            lines.append(f" r{m} = c{c}[r{t}]")
        for k in range(lo + 1, hi + 1):
            t, c = steps[k - 1]
            fix = f"deduce(c{c}, r{t}, r{k}, r{partner[k]})" if k in partner else f"fill(c{c}, r{t}, r{k})"
            lines.append(f" r{k} = c{c}[r{t}]")
            lines.append(f" if parent[r{k}] != r{k}: r{k} = {fix}")
            lines += [f" if r{a} != r{b}: push((r{a}, r{b}))" for a, b in later.get(k, ())]
        yield "\n".join(lines) + "\n"


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

    def fill(col, x, nxt):
        """The loop's rare branch for a trie node without a partner."""
        nxt = find(nxt) if nxt != -1 else new_node()
        col[x] = nxt
        return nxt

    def deduce(col, x, nxt, other):
        """The rare branch for a trie node whose partner reached ``other``."""
        nxt = find(nxt) if nxt != -1 else other
        col[x] = nxt
        return nxt

    def compiled_walk():
        names = {"parent": parent, "fill": fill, "deduce": deduce, "push": pending.append}
        names.update((f"c{c}", col) for c, col in enumerate(cols))
        pieces = []
        for source in _walk_sources(steps, ends, partner, _PIECE_STEPS):
            exec(compile(source, "<todd_coxeter walk>", "exec"), names)
            pieces.append(names["piece"])
        return pieces

    # compiling repays once this many live rows lie ahead of the walking node
    work = len(steps) + len(ends)
    if steps and work <= _COMPILE_BUDGET:
        repaid = work * _COMPILE_NS // (len(steps) * _STEP_SAVING_NS)
    else:
        repaid = sys.maxsize
    look_at = 0  # the row at which the rule is looked at next
    pieces = None

    try:
        new_node()  # the root: the empty word
        i = 0
        while i < len(parent):
            if parent[i] != i:
                i += 1
                continue
            if len(parent) > 2 * (allocated - coinc):  # dead rows outnumber live ones
                i = compact()[i]
                look_at = i
            if i >= look_at:
                # at most i + 1 of the live rows are behind the walking node
                if pieces is None and allocated - coinc - i - 1 >= repaid:
                    pieces = compiled_walk()
                look_at = i + _CHECK_EVERY if pieces is None else sys.maxsize
            if pieces:
                for piece in pieces:
                    piece(i)
            else:
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
