"""Labelled MDPs, automaton products, end components, and reachability.

States carry a letter (an atom mask) that the play emits on leaving; a
trace is the label sequence along a path.  Products pair the MDP with an
automaton whose branch (and, for indexed alphabets, letter rank) is picked
by the product action, so the strategy resolves the automaton choices.
All quantitative work can run exactly over fractions or in floats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .automata import (
    Alphabet,
    AtomSet,
    Automaton,
    ProbAutomaton,
    complete,
)
from .exact import solve_linear
from .graph import component_of, coreach, strongly_connected_components

_VI_TOL = 1e-10
_VI_CAP = 1_000_000
_ARGMAX_TOL = 1e-9


class MdpError(ValueError):
    pass


@dataclass(frozen=True)
class Mdp:
    """Finite MDP with named actions and per-state letter labels.

    transitions[q][i] is the distribution of the i-th action of q, a tuple
    of (successor, probability) pairs sorted by successor.
    """

    alphabet: Alphabet
    initial: int
    action_names: tuple[tuple[str, ...], ...]
    transitions: tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]
    labels: tuple[int, ...]
    meta: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.transitions)
        if n == 0:
            raise MdpError("an MDP needs at least one state")
        if self.alphabet.index_arity != 1:
            raise MdpError("MDP labels use a plain (unindexed) alphabet")
        if not 0 <= self.initial < n:
            raise MdpError(f"initial state {self.initial} out of range")
        if len(self.action_names) != n or len(self.labels) != n:
            raise MdpError("action_names/labels must cover every state")
        for q in range(n):
            names = self.action_names[q]
            if not names:
                raise MdpError(f"state {q} has no actions")
            if len(set(names)) != len(names):
                raise MdpError(f"state {q} repeats an action name")
            if len(self.transitions[q]) != len(names):
                raise MdpError(f"state {q}: names and distributions disagree")
            if not 0 <= self.labels[q] < self.alphabet.size:
                raise MdpError(f"state {q} label out of range")
            for dist in self.transitions[q]:
                if not dist:
                    raise MdpError(f"state {q} has an empty distribution")
                total = Fraction(0)
                last = -1
                for s, p in dist:
                    if not 0 <= s < n:
                        raise MdpError(f"state {q}: successor {s} out of range")
                    if s <= last:
                        raise MdpError(
                            f"state {q}: successors must be sorted and unique"
                        )
                    last = s
                    if not isinstance(p, Fraction) or p <= 0:
                        raise MdpError(f"state {q}: probabilities must be "
                                       "positive fractions")
                    total += p
                if total != 1:
                    raise MdpError(f"state {q}: distribution sums to {total}")

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def states(self):
        return range(self.n_states)

    def n_actions(self, q: int) -> int:
        return len(self.transitions[q])

    def dist(self, q: int, action: int) -> tuple[tuple[int, Fraction], ...]:
        return self.transitions[q][action]


# ------------------------------------------------------------------- JSON

def _frac(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise MdpError(f"bad probability {text!r}: {exc}") from None


def mdp_from_json(data: dict) -> Mdp:
    try:
        atoms = AtomSet(tuple(data["atoms"]))
        initial = int(data["initial"])
        raw_states = list(data["states"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MdpError(f"malformed MDP document: {exc}") from None
    alphabet = Alphabet(atoms)
    names, trans, labels = [], [], []
    for q, entry in enumerate(raw_states):
        try:
            mask = 0
            for nm in entry.get("label", []):
                mask |= 1 << atoms.index(nm)
            row_names, row_dists = [], []
            for act in entry["actions"]:
                row_names.append(str(act["name"]))
                pairs = sorted((int(s), _frac(p)) for s, p in act["to"])
                row_dists.append(tuple(pairs))
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise MdpError(
                f"malformed MDP state {q}: {type(exc).__name__}: {exc}"
            ) from None
        labels.append(mask)
        names.append(tuple(row_names))
        trans.append(tuple(row_dists))
    return Mdp(
        alphabet=alphabet,
        initial=initial,
        action_names=tuple(names),
        transitions=tuple(trans),
        labels=tuple(labels),
    )


def mdp_to_json(m: Mdp) -> dict:
    atoms = m.alphabet.atoms
    states = []
    for q in m.states():
        label = [name for i, name in enumerate(atoms) if m.labels[q] >> i & 1]
        actions = []
        for i, name in enumerate(m.action_names[q]):
            actions.append(
                {"name": name, "to": [[s, str(p)] for s, p in m.dist(q, i)]}
            )
        states.append({"label": label, "actions": actions})
    return {"atoms": list(atoms), "initial": m.initial, "states": states}


# ------------------------------------------------------------ constructions

def index_mdp(m: Mdp, arity: int) -> Mdp:
    """Split every action into `arity` copies named name#1..name#arity.

    The copies share the action's distribution; in automaton products the
    copy number picks the letter rank of an indexed alphabet.
    """
    if arity < 1:
        raise MdpError("index arity must be at least 1")
    names = tuple(
        tuple(f"{nm}#{i}" for nm in row for i in range(1, arity + 1))
        for row in m.action_names
    )
    trans = tuple(
        tuple(dist for dist in row for _ in range(arity))
        for row in m.transitions
    )
    return Mdp(
        alphabet=m.alphabet,
        initial=m.initial,
        action_names=names,
        transitions=trans,
        labels=m.labels,
    )


@dataclass(frozen=True)
class ProductMdp:
    """MDP x automaton product over reachable pairs.

    `pairs[p]` is the (mdp state, automaton state) behind product state p;
    `marked` holds (state, action index, successor) triples whose automaton
    edge is marked.
    """

    mdp: Mdp
    pairs: tuple[tuple[int, int], ...]
    marked: frozenset[tuple[int, int, int]]


def _check_same_atoms(m: Mdp, atoms: AtomSet, who: str):
    if m.alphabet.atoms != atoms:
        raise MdpError(f"{who}: MDP and automaton use different atoms")


def _product(m: Mdp, initial: int, moves) -> ProductMdp:
    """Product over the pairs reachable from (m.initial, initial), numbered
    in breadth-first discovery order.

    `moves(s, q)` yields one (action name, distribution, marked successors)
    triple per product action of pair (s, q); a distribution lists
    (successor pair, probability) items, each pair once.
    """
    number: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []

    def pid(pair):
        if pair not in number:
            number[pair] = len(order)
            order.append(pair)
        return number[pair]

    pid((m.initial, initial))
    names, trans, labels = [], [], []
    marked = set()
    p = 0
    while p < len(order):
        s, q = order[p]
        row_names, row_dists = [], []
        for name, dist, hot in moves(s, q):
            idx = len(row_names)
            row_names.append(name)
            row_dists.append(tuple(sorted((pid(pair), pr) for pair, pr in dist)))
            if hot:
                marked.update((p, idx, number[pair]) for pair in hot)
        names.append(tuple(row_names))
        trans.append(tuple(row_dists))
        labels.append(m.labels[s])
        p += 1
    prod = Mdp(
        alphabet=m.alphabet,
        initial=0,
        action_names=tuple(names),
        transitions=tuple(trans),
        labels=tuple(labels),
    )
    return ProductMdp(mdp=prod, pairs=tuple(order), marked=frozenset(marked))


def product_nba(m: Mdp, a: Automaton) -> ProductMdp:
    """Product with a (possibly nondeterministic) Buchi automaton.

    A product action name#c resolves one automaton choice c: ranks of an
    indexed alphabet first, then branches of nondeterministic edges, both
    ascending.  The automaton is completed first so every pair keeps at
    least one action.
    """
    if a.kind != "buchi":
        raise MdpError(f"product_nba needs a Buchi automaton, got {a.kind}")
    _check_same_atoms(m, a.alphabet.atoms, "product_nba")
    a = complete(a)
    arity = a.alphabet.index_arity

    def moves(s, q):
        choices = []  # (aut successor, aut edge marked) per choice
        for i in range(1, arity + 1):
            letter = a.alphabet.letter(m.labels[s], i)
            for t in a.succ(q, letter):
                choices.append((t, (q, letter, t) in a.marked))
        for ai, nm in enumerate(m.action_names[s]):
            for c, (t, hot) in enumerate(choices, start=1):
                dist = [((s2, t), pr) for s2, pr in m.dist(s, ai)]
                yield f"{nm}#{c}", dist, [pair for pair, _ in dist] if hot else ()

    return _product(m, a.initial, moves)


def product_pa(m: Mdp, pa: ProbAutomaton) -> ProductMdp:
    """Product with a probabilistic automaton: the action picks the letter
    rank, the joint move multiplies MDP and automaton probabilities."""
    _check_same_atoms(m, pa.alphabet.atoms, "product_pa")
    arity = pa.alphabet.index_arity

    def moves(s, q):
        for ai, nm in enumerate(m.action_names[s]):
            for i in range(1, arity + 1):
                letter = pa.alphabet.letter(m.labels[s], i)
                joint: dict[tuple[int, int], Fraction] = {}
                hot = set()
                for s2, pr_m in m.dist(s, ai):
                    for t, pr_a in pa.dist(q, letter):
                        joint[(s2, t)] = joint.get((s2, t), Fraction(0)) + pr_m * pr_a
                        if (q, letter, t) in pa.marked:
                            hot.add((s2, t))
                yield f"{nm}#{i}", joint.items(), hot

    return _product(m, pa.initial, moves)


# ------------------------------------------------------------ end components

@dataclass(frozen=True)
class Mec:
    """Maximal end component: states plus the (state, action index) pairs
    that stay inside.  `accepting` if some retained transition is marked;
    `closed` if no action of any member state can leave at all."""

    states: frozenset[int]
    actions: frozenset[tuple[int, int]]
    accepting: bool
    closed: bool


def mec_decompose(
    m: Mdp, marked: frozenset[tuple[int, int, int]] = frozenset()
) -> tuple[Mec, ...]:
    avail = {q: set(range(m.n_actions(q))) for q in m.states()}
    alive = set(m.states())

    def succ(q):
        out = set()
        for ai in avail[q]:
            out.update(s for s, _ in m.dist(q, ai))
        return sorted(out)

    while True:
        comp_of = component_of(strongly_connected_components(sorted(alive), succ))
        changed = False
        for q in sorted(alive):
            for ai in sorted(avail[q]):
                if any(
                    s not in alive or comp_of[s] != comp_of[q]
                    for s, _ in m.dist(q, ai)
                ):
                    avail[q].discard(ai)
                    changed = True
            if not avail[q] and q in alive:
                alive.discard(q)
                changed = True
        if not changed:
            break

    comps = strongly_connected_components(sorted(alive), succ)
    mecs = []
    for comp in comps:
        states = frozenset(comp)
        actions = frozenset(
            (q, ai) for q in comp for ai in avail[q]
        )
        accepting = any(
            (q, ai, s) in marked
            for q, ai in actions
            for s, _ in m.dist(q, ai)
        )
        closed = all(
            s in states
            for q in comp
            for ai in range(m.n_actions(q))
            for s, _ in m.dist(q, ai)
        )
        mecs.append(Mec(states, actions, accepting, closed))
    mecs.sort(key=lambda mec: min(mec.states))
    return tuple(mecs)


# -------------------------------------------------------------- reachability

@dataclass(frozen=True)
class ValueVector:
    values: tuple
    exact: bool

    def __getitem__(self, q: int):
        return self.values[q]

    def __len__(self):
        return len(self.values)


def _can_reach(m: Mdp, goal: frozenset[int]) -> set[int]:
    return coreach(
        m.states(),
        lambda q: [s for dist in m.transitions[q] for s, _ in dist],
        goal,
    )


def _prob1(m: Mdp, goal: frozenset[int]) -> frozenset[int]:
    """States winning reachability almost surely (goal is absorbing)."""
    universe = set(m.states())

    def staying_succ(q):
        # successors along actions that cannot leave the universe
        return [
            s for dist in m.transitions[q]
            if all(t in universe for t, _ in dist) for s, _ in dist
        ]

    while True:
        inside = coreach(universe, staying_succ, goal)
        if inside == universe:
            return frozenset(universe)
        universe = inside


def _policy_values(
    m: Mdp, interior: list[int], ones: frozenset[int], policy: dict[int, int]
) -> dict[int, Fraction]:
    """Least fixpoint value of a fixed policy: states that cannot reach a
    value-one state under it get 0, the rest solve a linear system."""
    reach = coreach(
        [*interior, *ones],
        lambda q: [s for s, _ in m.dist(q, policy[q])] if q in policy else (),
        ones,
    )
    live = [q for q in interior if q in reach]
    values = {q: Fraction(0) for q in interior}
    if live:
        pos = {q: i for i, q in enumerate(live)}
        a = [[Fraction(0)] * len(live) for _ in live]
        b = [Fraction(0)] * len(live)
        for q in live:
            i = pos[q]
            a[i][i] = Fraction(1)
            for s, p in m.dist(q, policy[q]):
                if s in ones:
                    b[i] += p
                elif s in pos:
                    a[i][pos[s]] -= p
        sol = solve_linear(a, b)
        for q in live:
            values[q] = sol[pos[q]]
    return values


def max_reach(m: Mdp, goal: frozenset[int], exact: bool = True) -> ValueVector:
    """Optimal probability of reaching `goal` (absorbing) from every state.

    Exact mode runs policy iteration over fractions after the qualitative
    0/1 analysis; float mode runs value iteration to 1e-10.
    """
    goal = frozenset(goal)
    for q in goal:
        if not 0 <= q < m.n_states:
            raise MdpError(f"goal state {q} out of range")
    reachers = _can_reach(m, goal)
    sure = _prob1(m, goal)
    interior = [q for q in m.states() if q in reachers and q not in sure]

    if exact:
        values = {q: Fraction(1) for q in sure}
        values.update({q: Fraction(0) for q in m.states() if q not in reachers})
        if interior:
            policy = {q: 0 for q in interior}
            current = _policy_values(m, interior, sure, policy)
            for _ in range(100_000):
                switched = False
                for q in interior:
                    best_val = current[q]
                    best_ai = policy[q]
                    for ai in range(m.n_actions(q)):
                        val = Fraction(0)
                        for s, p in m.dist(q, ai):
                            if s in sure:
                                val += p
                            elif s in current:
                                val += p * current[s]
                        if val > best_val:
                            best_val = val
                            best_ai = ai
                    if best_ai != policy[q] and best_val > current[q]:
                        policy[q] = best_ai
                        switched = True
                if not switched:
                    break
                current = _policy_values(m, interior, sure, policy)
            else:  # pragma: no cover
                raise MdpError("policy iteration failed to converge")
            values.update(current)
        return ValueVector(tuple(values[q] for q in m.states()), exact=True)

    vals = [1.0 if q in sure else 0.0 for q in m.states()]
    for _ in range(_VI_CAP):
        delta = 0.0
        for q in interior:
            best = 0.0
            for ai in range(m.n_actions(q)):
                acc = 0.0
                for s, p in m.dist(q, ai):
                    acc += float(p) * vals[s]
                if acc > best:
                    best = acc
            delta = max(delta, abs(best - vals[q]))
            vals[q] = best
        if delta < _VI_TOL:
            break
    return ValueVector(tuple(vals), exact=False)


# ----------------------------------------------------------------- strategy

@dataclass(frozen=True)
class Strategy:
    """Memoryless strategy: one distribution over action indices per state."""

    dists: tuple[tuple[tuple[int, Fraction], ...], ...]

    def action_dist(self, q: int) -> tuple[tuple[int, Fraction], ...]:
        return self.dists[q]


def strategy_to_json(m: Mdp, strategy: Strategy, pairs=None) -> dict:
    states = []
    for q in m.states():
        entry = {
            "choose": [
                [m.action_names[q][ai], str(p)]
                for ai, p in strategy.action_dist(q)
            ]
        }
        if pairs is not None:
            entry["mdp_state"], entry["automaton_state"] = pairs[q]
        states.append(entry)
    return {"type": "memoryless", "states": states}


def _argmax_actions(m: Mdp, vv: ValueVector, q: int) -> list[int]:
    best = None
    scores = []
    for ai in range(m.n_actions(q)):
        if vv.exact:
            val = sum((p * vv[s] for s, p in m.dist(q, ai)), Fraction(0))
        else:
            val = sum(float(p) * vv[s] for s, p in m.dist(q, ai))
        scores.append(val)
        if best is None or val > best:
            best = val
    if vv.exact:
        return [ai for ai, val in enumerate(scores) if val == best]
    return [ai for ai, val in enumerate(scores) if val >= best - _ARGMAX_TOL]


def extract_reach_strategy(
    m: Mdp, goal: frozenset[int], vv: ValueVector
) -> tuple[int, ...]:
    """One action per state: among value-optimal actions, the lowest-order
    one whose support moves strictly closer to the goal (closer = smaller
    rank in a backward induction from the goal through optimal actions).
    Zero-value and goal states take their first action."""
    choice = {q: 0 for q in m.states()}
    ranked = {q: 0 for q in goal}
    candidates = {
        q: _argmax_actions(m, vv, q)
        for q in m.states()
        if q not in goal and (vv[q] > 0 if vv.exact else vv[q] > _ARGMAX_TOL)
    }
    pending = set(candidates)
    while pending:
        progressed = False
        for q in sorted(pending):
            for ai in candidates[q]:
                if any(s in ranked for s, _ in m.dist(q, ai)):
                    rank = 1 + min(
                        ranked[s] for s, _ in m.dist(q, ai) if s in ranked
                    )
                    ranked[q] = rank
                    choice[q] = ai
                    pending.discard(q)
                    progressed = True
                    break
            if progressed:
                break
        if not progressed:
            break  # positive-value states not attracted: float-mode fuzz
    return tuple(choice[q] for q in m.states())


# ---------------------------------------------------------------- synthesis

@dataclass(frozen=True)
class SynthesisResult:
    value: object
    values: ValueVector
    strategy: Strategy
    goal: frozenset[int]
    mecs: tuple[Mec, ...]


def synthesize(prod: ProductMdp, exact: bool = True) -> SynthesisResult:
    """Optimal probability of taking marked product edges infinitely often:
    reach an accepting maximal end component, then sweep it uniformly."""
    m = prod.mdp
    mecs = mec_decompose(m, prod.marked)
    goal = frozenset(
        q for mec in mecs if mec.accepting for q in mec.states
    )
    vv = max_reach(m, goal, exact=exact)
    picks = extract_reach_strategy(m, goal, vv)
    dists = [((picks[q], Fraction(1)),) for q in m.states()]
    for mec in mecs:
        if not mec.accepting:
            continue
        per_state: dict[int, list[int]] = {}
        for q, ai in sorted(mec.actions):
            per_state.setdefault(q, []).append(ai)
        for q, ais in per_state.items():
            share = Fraction(1, len(ais))
            dists[q] = tuple((ai, share) for ai in sorted(ais))
    strategy = Strategy(dists=tuple(dists))
    return SynthesisResult(
        value=vv[m.initial],
        values=vv,
        strategy=strategy,
        goal=goal,
        mecs=mecs,
    )


def induce_mc(prod: ProductMdp, strategy: Strategy) -> Fraction:
    """Exact value of a strategy: probability that the induced chain ends
    in a bottom SCC containing a marked edge played with positive weight."""
    m = prod.mdp
    edges: list[dict[int, Fraction]] = []
    hot = set()
    for q in m.states():
        row: dict[int, Fraction] = {}
        for ai, w in strategy.action_dist(q):
            if w <= 0:
                continue
            for s, p in m.dist(q, ai):
                row[s] = row.get(s, Fraction(0)) + w * p
                if (q, ai, s) in prod.marked:
                    hot.add((q, s))
        if sum(row.values()) != 1:
            raise MdpError(f"strategy at state {q} is not a distribution")
        edges.append(row)

    comps = strongly_connected_components(
        list(m.states()), lambda q: sorted(edges[q])
    )
    comp_of = component_of(comps)
    bottom = [
        ci for ci, comp in enumerate(comps)
        if all(comp_of[s] == ci for q in comp for s in edges[q])
    ]
    winning = set()
    for ci in bottom:
        comp = set(comps[ci])
        if any(q in comp and s in comp for q, s in hot):
            winning.update(comp)
    losing = set()
    for ci in bottom:
        comp = set(comps[ci])
        if not comp & winning:
            losing.update(comp)

    transient = [q for q in m.states() if q not in winning and q not in losing]
    value = {q: Fraction(1) for q in winning}
    value.update({q: Fraction(0) for q in losing})
    if transient:
        pos = {q: i for i, q in enumerate(transient)}
        a = [[Fraction(0)] * len(transient) for _ in transient]
        b = [Fraction(0)] * len(transient)
        for q in transient:
            i = pos[q]
            a[i][i] += Fraction(1)
            for s, p in edges[q].items():
                if s in pos:
                    a[i][pos[s]] -= p
                elif s in winning:
                    b[i] += p
        sol = solve_linear(a, b)
        for q in transient:
            value[q] = sol[pos[q]]
    return value[m.initial]


# ------------------------------------------------------- quotient shortcut

@dataclass(frozen=True)
class QuotientResult:
    value: object
    n_classes: int
    goal: frozenset[int]


def quotient_optimize(
    m: Mdp, pa: ProbAutomaton, dba: Automaton, exact: bool = True
) -> QuotientResult:
    """Reachability with the goal widened by automaton language classes.

    Both automata must come from the same reduction run (checked through
    their shared meta token): then any product state whose automaton
    component is language-equivalent to one inside an accepting end
    component is itself surely winning, so the goal grows from end
    component states to their class closure before the reachability solve.
    """
    meta_pa = pa.meta or {}
    meta_dba = dba.meta or {}
    run_pa = meta_pa.get("redux_id") if isinstance(meta_pa, dict) else None
    run_dba = meta_dba.get("redux_id") if isinstance(meta_dba, dict) else None
    if run_pa is None or run_pa != run_dba:
        raise MdpError(
            "quotient_optimize needs a probabilistic automaton and DBA "
            "from the same reduction run"
        )
    classes = meta_pa.get("lang_class")
    if classes is None:
        raise MdpError("probabilistic automaton lacks language classes")

    prod = product_pa(m, pa)
    mecs = mec_decompose(prod.mdp, prod.marked)
    winning_pairs = set()
    for mec in mecs:
        if not mec.accepting:
            continue
        for p in mec.states:
            s, q = prod.pairs[p]
            winning_pairs.add((s, classes[q]))
    goal = frozenset(
        p
        for p, (s, q) in enumerate(prod.pairs)
        if (s, classes[q]) in winning_pairs
    )
    vv = max_reach(prod.mdp, goal, exact=exact)
    return QuotientResult(
        value=vv[prod.mdp.initial],
        n_classes=len(set(classes)),
        goal=goal,
    )


# ------------------------------------------------------------ random models

def gen_random_mdp(
    rng: random.Random,
    max_states: int = 6,
    max_actions: int = 3,
    atoms: tuple[str, ...] = ("a", "b"),
    denominator: int = 8,
) -> Mdp:
    """Small random MDP with dyadic probabilities k/denominator."""
    atom_set = AtomSet(tuple(atoms))
    n = rng.randint(2, max_states)
    names, trans, labels = [], [], []
    for _ in range(n):
        labels.append(rng.randrange(1 << len(atom_set)))
        k = rng.randint(1, max_actions)
        row_names, row_dists = [], []
        for ai in range(k):
            support = rng.sample(range(n), rng.randint(1, min(3, n)))
            support.sort()
            if len(support) == 1:
                weights = [denominator]
            else:
                cuts = sorted(rng.sample(range(1, denominator), len(support) - 1))
                weights = [b - a for a, b in zip([0] + cuts, cuts + [denominator])]
            row_names.append(f"a{ai}")
            row_dists.append(
                tuple(
                    (s, Fraction(w, denominator))
                    for s, w in zip(support, weights)
                )
            )
        names.append(tuple(row_names))
        trans.append(tuple(row_dists))
    return Mdp(
        alphabet=Alphabet(atom_set),
        initial=0,
        action_names=tuple(names),
        transitions=tuple(trans),
        labels=tuple(labels),
    )
