"""Directed-graph kernel shared by the automaton and MDP algorithms.

A graph is a successor function `succ(node) -> iterable of nodes` over
hashable nodes.  Strongly connected components follow Tarjan (SIAM J.
Comput. 1972), written iteratively so deep graphs do not hit the recursion
limit; backward closure is the set-of-predecessors form used by the
qualitative MDP algorithms (Baier & Katoen, Principles of Model Checking,
section 10.6).  `numbering` gives the breadth-first state ids of every
reachable-state construction: the construction walks the order while
`number` grows it.
"""

from __future__ import annotations


def strongly_connected_components(nodes, succ) -> list[list]:
    """Iterative Tarjan; components come out in reverse topological order."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    out: list[list] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                if w in on_stack:
                    if index[w] < low[node]:
                        low[node] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                out.append(comp)
    return out


def component_of(comps) -> dict:
    """Map each node to the index of its component in `comps`."""
    return {nd: ci for ci, comp in enumerate(comps) for nd in comp}


def cycle_nodes(nodes, succ, through=None) -> list:
    """Nodes u with an edge to some v in `through(u)` (default `succ(u)`)
    that shares u's strongly connected component of `succ`: with `through`
    a subset of `succ`, the nodes on a `succ` cycle that passes such an
    edge."""
    comp_of = component_of(strongly_connected_components(nodes, succ))
    through = through or succ
    return [u for u in nodes if any(comp_of[v] == comp_of[u] for v in through(u))]


def numbering(start):
    """Breadth-first state ids from `start`, which gets id 0: returns
    (order, number), where `number(node)` gives the node's id and appends a
    new node to `order`.  A construction numbers each node's successors
    while it walks `order` (`for i, node in enumerate(order)`), so the walk
    sees every node appended before it ends."""
    order = [start]
    ids = {start: 0}

    def number(node) -> int:
        i = ids.get(node)
        if i is None:
            i = ids[node] = len(order)
            order.append(node)
        return i

    return order, number


def closure(seeds, succ) -> list:
    """Nodes reachable from `seeds` (seeds included), in breadth-first
    discovery order: the seeds first, then successors as `succ` yields
    them."""
    order = list(dict.fromkeys(seeds))
    seen = set(order)
    i = 0
    while i < len(order):
        for s in succ(order[i]):
            if s not in seen:
                seen.add(s)
                order.append(s)
        i += 1
    return order


def coreach(nodes, succ, targets) -> set:
    """Nodes with a path to `targets` along `succ` edges, every target
    included.  Only edges between members of `nodes` count; the targets
    must be members."""
    pred: dict = {nd: [] for nd in nodes}
    for nd in pred:
        for s in succ(nd):
            back = pred.get(s)
            if back is not None:
                back.append(nd)
    return set(closure(targets, pred.__getitem__))
