"""Reference computations the benchmark checks the program's answers against.

Written from the definitions and importing nothing of gfmredux: formulas
are the benchmark's own tuple trees, automata are read through the plain
fields of the package's data types (`kind`, `initial`, `transitions`,
`marked`), and MDPs are the JSON documents the benchmark generates.

- `ltl_holds`: truth of an LTL formula on a lasso word, by fixpoint
  iteration over the lasso's positions.
- `automaton_accepts`: Buchi / co-Buchi acceptance of a lasso word by a
  (possibly nondeterministic) automaton, from the graph of (state,
  position) pairs.
- `reach_bracket`: interval iteration for maximal reachability on an MDP
  document, returning a lower and an upper bound that are both sound.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

# ------------------------------------------------------------------ formulas
#
# A formula is a tuple: ("tt",), ("ff",), ("atom", name), ("not", f),
# ("and", f, g), ("or", f, g), ("X", f), ("F", f), ("G", f), ("U", f, g).


def to_text(f) -> str:
    """The formula in the package's input syntax, fully parenthesised."""
    op = f[0]
    if op == "tt":
        return "tt"
    if op == "ff":
        return "ff"
    if op == "atom":
        return f[1]
    if op == "not":
        return f"!{to_text(f[1])}" if f[1][0] == "atom" else f"!({to_text(f[1])})"
    if op in ("and", "or"):
        sym = "&" if op == "and" else "|"
        return f"({to_text(f[1])} {sym} {to_text(f[2])})"
    if op in ("X", "F", "G"):
        return f"{op}({to_text(f[1])})"
    if op == "U":
        return f"({to_text(f[1])} U {to_text(f[2])})"
    raise ValueError(f"unknown operator {op!r}")


def lasso_positions(prefix, cycle):
    """The letters of prefix.cycle^omega and each position's successor."""
    letters = list(prefix) + list(cycle)
    n = len(letters)
    nxt = [i + 1 for i in range(n)]
    nxt[-1] = len(prefix)
    return letters, nxt


def ltl_holds(f, prefix, cycle, bit_of) -> bool:
    """Does prefix.cycle^omega satisfy f at position 0?

    Letters are bitmasks; `bit_of[name]` is the bit of atom `name`.  F and U
    are least fixpoints, G the greatest, each iterated over the positions
    of the lasso until stable.
    """
    letters, nxt = lasso_positions(prefix, cycle)
    return _truth(f, letters, nxt, bit_of, {})[0]


def _truth(f, letters, nxt, bit_of, memo):
    if f in memo:
        return memo[f]
    n = len(letters)
    op = f[0]
    if op == "tt":
        out = [True] * n
    elif op == "ff":
        out = [False] * n
    elif op == "atom":
        bit = bit_of[f[1]]
        out = [bool(x >> bit & 1) for x in letters]
    elif op == "not":
        out = [not v for v in _truth(f[1], letters, nxt, bit_of, memo)]
    elif op in ("and", "or"):
        lhs = _truth(f[1], letters, nxt, bit_of, memo)
        rhs = _truth(f[2], letters, nxt, bit_of, memo)
        if op == "and":
            out = [x and y for x, y in zip(lhs, rhs)]
        else:
            out = [x or y for x, y in zip(lhs, rhs)]
    elif op == "X":
        sub = _truth(f[1], letters, nxt, bit_of, memo)
        out = [sub[nxt[i]] for i in range(n)]
    elif op in ("F", "U"):
        goal = _truth(f[-1], letters, nxt, bit_of, memo)
        hold = _truth(f[1], letters, nxt, bit_of, memo) if op == "U" else [True] * n
        out = [False] * n
        changed = True
        while changed:
            changed = False
            for i in range(n):
                if not out[i] and (goal[i] or (hold[i] and out[nxt[i]])):
                    out[i] = changed = True
    elif op == "G":
        sub = _truth(f[1], letters, nxt, bit_of, memo)
        out = [True] * n
        changed = True
        while changed:
            changed = False
            for i in range(n):
                if out[i] and not (sub[i] and out[nxt[i]]):
                    out[i] = False
                    changed = True
    else:
        raise ValueError(f"unknown operator {op!r}")
    memo[f] = out
    return out


# ------------------------------------------------------------------ automata

def automaton_accepts(aut, prefix, cycle) -> bool:
    """Does `aut` accept prefix.cycle^omega?

    Runs are paths in the graph of (state, position)
    nodes reachable from (initial, 0).  Buchi: some reachable marked edge
    lies on a cycle.  Co-Buchi: some reachable unmarked edge lies on a cycle
    of unmarked edges.
    """
    kind = aut.kind
    if kind not in ("buchi", "cobuchi"):
        raise ValueError(f"not an omega-automaton kind: {kind!r}")
    letters, nxt = lasso_positions(prefix, cycle)
    edges = {}
    start = (aut.initial, 0)
    todo = [start]
    while todo:
        node = todo.pop()
        if node in edges:
            continue
        q, i = node
        out = []
        for s in aut.transitions[q][letters[i]]:
            out.append(((s, nxt[i]), (q, letters[i], s) in aut.marked))
            todo.append((s, nxt[i]))
        edges[node] = out
    for u, out in edges.items():
        for v, hot in out:
            if kind == "buchi" and hot and _reaches(edges, v, u, False):
                return True
            if kind == "cobuchi" and not hot and _reaches(edges, v, u, True):
                return True
    return False


def _reaches(edges, src, dst, unmarked_only) -> bool:
    seen = {src}
    todo = [src]
    while todo:
        node = todo.pop()
        if node == dst:
            return True
        for v, hot in edges[node]:
            if (not unmarked_only or not hot) and v not in seen:
                seen.add(v)
                todo.append(v)
    return False


def pa_doc_as_automaton(doc):
    """The transition graph of a PA JSON document (as `pa_to_json` writes
    it), with the fields `automaton_accepts` reads; probabilities must be
    positive."""
    transitions = []
    marked = set()
    for q, rows in enumerate(doc["states"]):
        row = []
        for letter, moves in enumerate(rows):
            succs = []
            for s, p, hot in moves:
                if Fraction(p) <= 0:
                    raise ValueError(f"non-positive probability {p!r}")
                succs.append(s)
                if hot:
                    marked.add((q, letter, s))
            row.append(tuple(sorted(succs)))
        transitions.append(tuple(row))
    return SimpleNamespace(kind="buchi", initial=doc["initial"],
                           transitions=tuple(transitions), marked=frozenset(marked))


# ---------------------------------------------------------------------- MDPs

def reach_bracket(doc, target, eps=1e-12, max_sweeps=1_000_000):
    """Sound lower and upper bounds on the maximal probability of reaching
    state set `target` from the initial state of the MDP document `doc`.

    Interval iteration: the lower bound starts at the indicator of the
    target, the upper bound at 1 on every state that can reach the target
    and 0 elsewhere; both take Bellman max-updates until they are within
    `eps` everywhere.  The upper bound converges only when no end component
    avoids the target among the states that can reach it, which holds when
    every action of those states leaves the component with positive
    probability.  A self-loop of probability p < 1 on an action is removed
    by rescaling the rest of its distribution by 1/(1-p), which leaves the
    reachability fixpoint unchanged and makes slow-mixing chains converge in
    one sweep.  Raises RuntimeError if `max_sweeps` is exhausted.
    """
    n = len(doc["states"])
    target = set(target)
    actions = []
    preds = [set() for _ in range(n)]
    for q, entry in enumerate(doc["states"]):
        acts = []
        for act in entry["actions"]:
            loop = Fraction(0)
            rest = []
            for s, p in act["to"]:
                p = Fraction(p)
                if s == q:
                    loop += p
                else:
                    rest.append((s, p))
                preds[s].add(q)
            # an action that never leaves q has an empty rest: value 0
            acts.append([(s, float(p / (1 - loop))) for s, p in rest])
        actions.append(acts)
    can_reach = set(target)
    todo = list(target)
    while todo:
        s = todo.pop()
        for q in preds[s]:
            if q not in can_reach:
                can_reach.add(q)
                todo.append(q)
    lo = [1.0 if q in target else 0.0 for q in range(n)]
    hi = [1.0 if q in can_reach else 0.0 for q in range(n)]
    inner = [q for q in range(n) if q in can_reach and q not in target]
    for _ in range(max_sweeps):
        gap = 0.0
        for q in inner:
            best_lo = best_hi = 0.0
            for dist in actions[q]:
                v_lo = v_hi = 0.0
                for s, p in dist:
                    v_lo += p * lo[s]
                    v_hi += p * hi[s]
                best_lo = max(best_lo, v_lo)
                best_hi = max(best_hi, v_hi)
            lo[q] = best_lo
            hi[q] = min(hi[q], best_hi)
            gap = max(gap, hi[q] - lo[q])
        if gap <= eps:
            q0 = doc["initial"]
            return lo[q0], hi[q0]
    raise RuntimeError(f"interval iteration did not converge in {max_sweeps} sweeps")
