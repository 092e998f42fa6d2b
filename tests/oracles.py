"""Independent reference implementations the test-suite checks against.

Everything here is written from the definitions, on purpose avoiding the
package's own derivative/product machinery: truth of an LTL formula on a
lasso word by fixpoint iteration over its positions, end components by
subset enumeration, reachability values by enumerating memoryless
deterministic policies and solving each induced chain, lasso membership
of nondeterministic automata by breadth-first search, and acceptance
probabilities of probabilistic automata on lasso words from pairwise
reachability in the chain the word induces.
"""

from fractions import Fraction


# ------------------------------------------------ LTL truth on lasso words

def eval_lasso(f, w) -> bool:
    """Does the ultimately periodic word w satisfy f?  f may use any
    connective; letters of w are atom bitmasks."""
    return _truth(f, w, {})[0]


def _truth(f, w, cache):
    if f in cache:
        return cache[f]
    n = w.total
    k = f.kind
    if k == "tt":
        out = [True] * n
    elif k == "ff":
        out = [False] * n
    elif k == "atom":
        out = [bool(w.letter_at(i) >> f.atom_index & 1) for i in range(n)]
    elif k == "not":
        out = [not v for v in _truth(f.children[0], w, cache)]
    elif k == "and":
        rows = [_truth(c, w, cache) for c in f.children]
        out = [all(r[i] for r in rows) for i in range(n)]
    elif k == "or":
        rows = [_truth(c, w, cache) for c in f.children]
        out = [any(r[i] for r in rows) for i in range(n)]
    elif k == "next":
        c = _truth(f.children[0], w, cache)
        out = [c[w.next_pos(i)] for i in range(n)]
    elif k in ("finally", "until"):
        rhs = _truth(f.children[-1], w, cache)
        lhs = _truth(f.children[0], w, cache) if k == "until" else [True] * n
        out = [False] * n
        while True:
            new = [rhs[i] or (lhs[i] and out[w.next_pos(i)]) for i in range(n)]
            if new == out:
                break
            out = new
    elif k in ("globally", "release"):
        rhs = _truth(f.children[-1], w, cache)
        lhs = _truth(f.children[0], w, cache) if k == "release" else [False] * n
        out = [True] * n
        while True:
            new = [rhs[i] and (lhs[i] or out[w.next_pos(i)]) for i in range(n)]
            if new == out:
                break
            out = new
    else:
        raise ValueError(f"unknown formula kind {k!r}")
    cache[f] = out
    return out


def random_cosafety_text(rng, max_depth=5, atoms=("a", "b", "c")) -> str:
    """A random co-safety formula in text form (negations on atoms only)."""
    def lit():
        name = rng.choice(atoms)
        return name if rng.random() < 0.5 else f"!{name}"

    def go(depth):
        if depth <= 0:
            return lit()
        op = rng.choice(("lit", "and", "or", "X", "F", "U"))
        if op == "lit":
            return lit()
        if op == "X":
            return f"X({go(depth - 1)})"
        if op == "F":
            return f"F({go(depth - 1)})"
        if op == "U":
            return f"({go(depth - 1)} U {go(depth - 1)})"
        return f"({go(depth - 1)} {'&' if op == 'and' else '|'} {go(depth - 1)})"

    return go(max_depth)


# ------------------------------------------------- end components by force

def brute_mecs(m, marked=frozenset()):
    """All maximal end components of m, as (states, actions, accepting,
    closed) tuples mirroring mec_decompose's output shape."""
    n = m.n_states
    components = []
    for bits in range(1, 1 << n):
        sub = frozenset(q for q in range(n) if bits >> q & 1)
        retained = {}
        ok = True
        for q in sub:
            acts = tuple(
                i for i in range(m.n_actions(q))
                if all(s in sub for s, _ in m.dist(q, i))
            )
            if not acts:
                ok = False
                break
            retained[q] = acts
        if not ok or not _strongly_connected(m, sub, retained):
            continue
        components.append((sub, retained))
    maximal = [
        (sub, retained) for sub, retained in components
        if not any(sub < other for other, _ in components)
    ]
    out = []
    for sub, retained in maximal:
        accepting = any(
            q in sub and i in retained[q]
            and any(s == t for t, _ in m.dist(q, i))
            for (q, i, s) in marked
        )
        closed = all(
            s in sub
            for q in sub
            for i in range(m.n_actions(q))
            for s, _ in m.dist(q, i)
        )
        actions = frozenset((q, i) for q in sub for i in retained[q])
        out.append((sub, actions, accepting, closed))
    out.sort(key=lambda t: min(t[0]))
    return out


def _strongly_connected(m, sub, retained) -> bool:
    if len(sub) == 1:
        return True  # has a retained (self-loop-only) action by construction
    for root in sub:
        seen = {root}
        stack = [root]
        while stack:
            q = stack.pop()
            for i in retained[q]:
                for s, _ in m.dist(q, i):
                    if s not in seen:
                        seen.add(s)
                        stack.append(s)
        if seen != sub:
            return False
    return True


# ------------------------------------- reachability by policy enumeration

def brute_max_reach(m, goal):
    """Exact maximal reachability values by trying every memoryless
    deterministic policy; intended for tiny MDPs only."""
    n = m.n_states
    best = [Fraction(0)] * n
    for q in goal:
        best[q] = Fraction(1)
    policy = [0] * n
    while True:
        vals = _policy_reach(m, goal, policy)
        for q in range(n):
            if vals[q] > best[q]:
                best[q] = vals[q]
        # odometer over action choices
        pos = 0
        while pos < n:
            policy[pos] += 1
            if policy[pos] < m.n_actions(pos):
                break
            policy[pos] = 0
            pos += 1
        if pos == n:
            return best


def _policy_reach(m, goal, policy):
    n = m.n_states
    # states reaching goal inside the policy graph; the rest have value 0
    reach = set(goal)
    while True:
        grew = False
        for q in range(n):
            if q in reach or q in goal:
                continue
            if any(s in reach for s, _ in m.dist(q, policy[q])):
                reach.add(q)
                grew = True
        if not grew:
            break
    live = sorted(reach - set(goal))
    pos = {q: i for i, q in enumerate(live)}
    k = len(live)
    rows = []
    for q in live:
        row = [Fraction(0)] * (k + 1)
        row[pos[q]] = Fraction(1)
        for s, p in m.dist(q, policy[q]):
            if s in goal:
                row[k] += p
            elif s in pos:
                row[pos[s]] -= p
        rows.append(row)
    sol = _gauss(rows, k)
    vals = [Fraction(0)] * n
    for q in goal:
        vals[q] = Fraction(1)
    for q in live:
        vals[q] = sol[pos[q]]
    return vals


# ----------------------------- lasso membership of an omega-automaton

def brute_lasso_member(a, w) -> bool:
    """Does the Buchi or co-Buchi automaton a accept w.prefix . w.cycle^omega?
    Runs on the word are paths over (state, position) nodes.  A Buchi run
    accepts iff it can take some marked edge u -> v again and again, that is
    iff v reaches u back; a co-Buchi run accepts iff it can loop on unmarked
    edges alone, that is iff some unmarked edge u -> v has v reaching u back
    along unmarked edges.  Every search is a plain breadth-first search."""
    letters = list(w.prefix) + list(w.cycle)
    buchi = a.kind == "buchi"

    def edges(node, unmarked_only):
        q, i = node
        j = i + 1 if i + 1 < len(letters) else len(w.prefix)
        for s in a.transitions[q][letters[i]]:
            marked = (q, letters[i], s) in a.marked
            if not (unmarked_only and marked):
                yield (s, j), marked

    def reach_from(node, unmarked_only):
        seen = {node}
        todo = [node]
        while todo:
            for nxt, _ in edges(todo.pop(0), unmarked_only):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    return any(
        marked == buchi and u in reach_from(v, not buchi)
        for u in reach_from((a.initial, 0), False)
        for v, marked in edges(u, False)
    )


# ------------------------ acceptance probability of a PA on a lasso word

def brute_pa_lasso_prob(pa, w):
    """Probability that a probabilistic Buchi automaton accepts the word
    w.prefix . w.cycle^omega.  The word turns the automaton into a Markov
    chain on (state, position) nodes.  A run ends in a bottom SCC almost
    surely and then takes each of its edges infinitely often, so it is
    accepted iff that SCC holds a marked edge.  A node lies in a bottom SCC
    iff every node it reaches reaches it back; the probability of reaching
    the accepting ones solves one linear system."""
    letters = list(w.prefix) + list(w.cycle)

    def step(node):
        q, i = node
        j = i + 1 if i + 1 < len(letters) else len(w.prefix)
        return [((s, j), p) for s, p in pa.transitions[q][letters[i]]]

    def reach_from(node):
        seen = {node}
        todo = [node]
        while todo:
            for nxt, _ in step(todo.pop()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    start = (pa.initial, 0)
    nodes = sorted(reach_from(start))
    reach = {u: reach_from(u) for u in nodes}
    winning = {
        u for u in nodes
        if all(u in reach[v] for v in reach[u])
        and any((q, letters[i], s) in pa.marked
                for q, i in reach[u] for (s, _), _ in step((q, i)))
    }
    live = [u for u in nodes if u not in winning and reach[u] & winning]
    if start in winning or start not in live:
        return Fraction(int(start in winning))
    pos = {u: i for i, u in enumerate(live)}
    k = len(live)
    rows = []
    for u in live:
        row = [Fraction(0)] * (k + 1)
        row[pos[u]] = Fraction(1)
        for v, p in step(u):
            if v in winning:
                row[k] += p
            elif v in pos:
                row[pos[v]] -= p
        rows.append(row)
    return _gauss(rows, k)[pos[start]]


def _gauss(rows, k):
    for col in range(k):
        piv = next(r for r in range(col, k) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[r][k] for r in range(k)]


# ------------------------------------------ safe containment by joint runs

def brute_safe_contained(d):
    """Every pair (p, q) of states of a deterministic complete co-Buchi
    automaton such that some finite word is safe (crosses no mark) from p
    but not from q, i.e. safe(p) is not a subset of safe(q).  The runs from
    all states read one word together, a letter at a time; a node holds, per
    start state, the run's current state and whether it is still unmarked,
    and each node reachable from the empty word is visited once."""
    n = len(d.transitions)
    letters = range(len(d.transitions[0]))
    start = tuple((q, True) for q in range(n))
    seen = {start}
    todo = [start]
    out = set()
    while todo:
        node = todo.pop()
        out.update((p, q) for p in range(n) for q in range(n)
                   if node[p][1] and not node[q][1])
        for x in letters:
            nxt = []
            for s, unmarked in node:
                (t,) = d.transitions[s][x]
                nxt.append((t, unmarked and (s, x, t) not in d.marked))
            nxt = tuple(nxt)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return out
