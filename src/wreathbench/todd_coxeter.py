"""Todd-Coxeter style congruence enumeration for finite presentations.

Nodes are tentative congruence classes of the free monoid on the alphabet,
arranged as a right Cayley table ``node x letter -> node``.  Every relation
is traced from every live node (filling missing edges as it goes) and the
two endpoints are identified; identifications are processed eagerly to a
fixpoint through a union-find over nodes, merging table rows as classes
collapse.  The run is finished when a full sweep over all live nodes makes
no new definition and no identification, at which point the live nodes are
exactly the elements of the presented monoid.

A semigroup presentation is enumerated as a monoid presentation whose root
node (the empty word) can never coincide with a non-empty class, and the
root is excluded from the final count.

The certified class count is a property of the presentation alone, so it is
independent of relation order and of the processing schedule.
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


def todd_coxeter(p, node_limit: int = NODE_LIMIT) -> TCResult:
    """Enumerate the classes of ``p``.  The run stops with "bound_exceeded" at
    the allocation that takes the node count (the root included) past
    ``node_limit``."""
    na = len(p.letters)
    # trivial relations (u, u) impose nothing; drop them up front
    rels = [(r.lhs, r.rhs) for r in p.relations if r.lhs != r.rhs]

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

    def trace_fill(start, word):
        """Follow ``word`` from ``start``, creating nodes for missing edges."""
        cur = start
        for c in word:
            nxt = tab[cur * na + c]
            if nxt == -1:
                nxt = new_node()
                tab[cur * na + c] = nxt
                cur = nxt
            else:
                cur = find(nxt)
        return cur

    try:
        new_node()  # the root: the empty word
        changed = True
        while changed:
            changed = False
            i = 0
            while i < len(parent):
                if parent[i] != i or find(i) != i:
                    i += 1
                    continue
                before = len(parent)
                for lhs, rhs in rels:
                    a = trace_fill(i, lhs)
                    b = trace_fill(i, rhs)
                    if a != b:
                        pending.append((a, b))
                        process_pending()
                        changed = True
                    if find(i) != i:
                        break
                if find(i) == i:
                    base = i * na
                    for c in range(na):
                        if tab[base + c] == -1:
                            tab[base + c] = new_node()
                            changed = True
                if len(parent) != before:
                    changed = True
                i += 1
    except _BoundExceeded:
        return TCResult("bound_exceeded", None, len(parent), coinc)

    live = sum(1 for i in range(len(parent)) if parent[i] == i)
    count = live if p.kind == "monoid" else live - 1
    return TCResult("certified", count, len(parent), coinc)
