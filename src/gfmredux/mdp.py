"""Labelled MDPs, automaton products, end components, and reachability.

States carry a letter (an atom mask) that the play emits on leaving; a
trace is the label sequence along a path.  Products pair the MDP with an
automaton whose branch (and, for indexed alphabets, letter rank) is picked
by the product action, so the strategy resolves the automaton choices.
All quantitative work can run exactly over fractions or in floats.

An MDP built by a caller or read from JSON is checked by `Mdp.__post_init__`.
Products (`product_nba`, `product_pa`) of checked inputs are built without
that check: their successors are sorted and unique by construction, and each
distribution is the product of a checked MDP distribution with a checked
automaton distribution, so it sums to 1; checking them again would repeat
that work on every solve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .automata import (
    Alphabet,
    AtomSet,
    Automaton,
    ProbAutomaton,
    _distribution_error,
    _probability,
    _state_id,
    _unchecked,
    complete,
)
from .exact import chain_accept, chain_reach
from .graph import numbering, strongly_connected_components

_VI_TOL = 1e-10
_VI_CAP = 1_000_000
# the float pass that seeds exact policy iteration only has to rank actions,
# and policy iteration corrects any it ranks wrongly, so it may stop early
_SEED_TOL = 1e-6
_SEED_CAP = 1_000
_ARGMAX_TOL = 1e-9
_ROUND_SLACK = 4e-16  # a few ulps of 1 (see _optimistic_iteration)


class MdpError(ValueError):
    pass


@dataclass(frozen=True)
class Mdp:
    """Finite MDP with named actions and per-state letter labels.

    transitions[q][i] is the distribution of the i-th action of q, a tuple
    of (successor, probability) pairs sorted by successor.

    Construction checks every field and that every distribution holds
    positive Fractions summing to exactly 1 (summed over integers).  The
    products of this module skip the check, since they are built from
    checked MDPs and automata (see the module docstring).
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
                error = _distribution_error(dist, n)
                if error is not None:
                    raise MdpError(f"state {q}: {error}")

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def states(self):
        return range(self.n_states)

    def n_actions(self, q: int) -> int:
        return len(self.transitions[q])

    def dist(self, q: int, action: int) -> tuple[tuple[int, Fraction], ...]:
        return self.transitions[q][action]

    @cached_property
    def _graph(self) -> tuple[list, list]:
        """Integer structure read from `transitions` once per MDP, for the
        qualitative passes: succ[q][ai] lists the successors of action ai of
        q, and pred[s] the (q, ai) pairs that can move to s, ordered by q,
        then ai."""
        succ = [[[s for s, _ in dist] for dist in row] for row in self.transitions]
        pred = [[] for _ in succ]
        for q, row in enumerate(succ):
            for ai, targets in enumerate(row):
                for s in targets:
                    pred[s].append((q, ai))
        return succ, pred


# ------------------------------------------------------------------- JSON

def mdp_from_json(data: dict) -> Mdp:
    try:
        if not isinstance(data["atoms"], list):
            raise TypeError(f"atoms {data['atoms']!r} are not a list")
        atoms = AtomSet(tuple(data["atoms"]))
        initial = _state_id(data["initial"])
        raw_states = list(data["states"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MdpError(f"malformed MDP document: {exc}") from None
    alphabet = Alphabet(atoms)
    names, trans, labels = [], [], []
    parsed: dict[str, Fraction] = {}  # each probability text is parsed once
    for q, entry in enumerate(raw_states):
        try:
            label = entry.get("label", [])
            if not isinstance(label, list):
                raise TypeError(f"label {label!r} is not a list of atom names")
            mask = 0
            for nm in label:
                mask |= 1 << atoms.index(nm)
            row_names, row_dists = [], []
            for act in entry["actions"]:
                row_names.append(str(act["name"]))
                pairs = []
                for s, p in act["to"]:
                    s = _state_id(s)
                    key = str(p)
                    pr = parsed.get(key)
                    if pr is None:
                        pr = parsed[key] = _probability(p)
                    pairs.append((s, pr))
                pairs.sort()
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

@dataclass(frozen=True)
class ProductMdp:
    """MDP x automaton product over reachable pairs.

    `pairs[p]` is the (mdp state, automaton state) behind product state p;
    `marked` holds (state, action index, successor) triples whose automaton
    edge is marked.  `base` is the MDP it was built from: the actions of p
    over MDP state s come in one block of equal length per action of s.
    """

    mdp: Mdp
    pairs: tuple[tuple[int, int], ...]
    marked: frozenset[tuple[int, int, int]]
    base: Mdp


def _check_same_atoms(m: Mdp, atoms: AtomSet, who: str):
    if m.alphabet.atoms != atoms:
        raise MdpError(f"{who}: MDP and automaton use different atoms")


def _product(m: Mdp, initial: int, rows) -> ProductMdp:
    """Product over the pairs reachable from (m.initial, initial).

    `rows(label, q)` gives the automaton's moves from q on the letters of an
    MDP state labelled `label`: one row of (successor, probability, marked)
    triples per product choice c.  Action "name#c" of pair (s, q) moves to
    each (MDP successor, row successor) pair, in that order, with the product
    of their probabilities (the MDP's own object where the row's is 1), and
    marks the pairs its row marks.  Rows are read once per (label, automaton
    state), and each other product of two probability objects is built once.
    The walk over `graph.numbering`'s order numbers the pairs breadth-first,
    each pair's successors in the order its distributions list them.
    """
    order, number = numbering((m.initial, initial))
    rows_at: dict[tuple[int, int], list] = {}
    joint_pr: dict[tuple[int, int], Fraction] = {}  # per pair of probability ids
    names, trans, labels = [], [], []
    marked = set()
    for p, (s, q) in enumerate(order):
        key = (m.labels[s], q)
        choices = rows_at.get(key)
        if choices is None:
            choices = rows_at[key] = rows(*key)
        row_names, row_dists = [], []
        for ai, nm in enumerate(m.action_names[s]):
            for c, row in enumerate(choices, start=1):
                idx = len(row_names)
                row_names.append(f"{nm}#{c}")
                dist = []
                for s2, pr_m in m.dist(s, ai):
                    for t, pr_a, hot in row:
                        pr = pr_m if pr_a == 1 else joint_pr.get((id(pr_m), id(pr_a)))
                        if pr is None:
                            pr = joint_pr[id(pr_m), id(pr_a)] = pr_m * pr_a
                        succ = number((s2, t))
                        dist.append((succ, pr))
                        if hot:
                            marked.add((p, idx, succ))
                dist.sort()
                row_dists.append(tuple(dist))
        names.append(tuple(row_names))
        trans.append(tuple(row_dists))
        labels.append(m.labels[s])
    prod = _unchecked(
        Mdp,
        alphabet=m.alphabet,
        initial=0,
        action_names=tuple(names),
        transitions=tuple(trans),
        labels=tuple(labels),
    )
    return ProductMdp(mdp=prod, pairs=tuple(order), marked=frozenset(marked), base=m)


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
    letter, arity = a.alphabet.letter, a.alphabet.index_arity

    def rows(label, q):
        return [[(t, 1, (q, x, t) in a.marked)]
                for x in (letter(label, i) for i in range(1, arity + 1))
                for t in a.succ(q, x)]

    return _product(m, a.initial, rows)


def product_pa(m: Mdp, pa: ProbAutomaton) -> ProductMdp:
    """Product with a probabilistic automaton: the action picks the letter
    rank, the joint move multiplies MDP and automaton probabilities."""
    _check_same_atoms(m, pa.alphabet.atoms, "product_pa")
    letter, arity = pa.alphabet.letter, pa.alphabet.index_arity

    def rows(label, q):
        # a probability of 1 is given as the int, which `_product` tests cheaply
        return [[(t, 1 if pr == 1 else pr, (q, x, t) in pa.marked)
                 for t, pr in pa.dist(q, x)]
                for x in (letter(label, i) for i in range(1, arity + 1))]

    return _product(m, pa.initial, rows)


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


def _end_components(avail, actions) -> list[tuple[list, dict]]:
    """Maximal end components of the sub-MDP whose states are the keys of
    `avail` and whose actions at q are the indices avail[q].

    `actions[q]` lists, for each action of q, the successors it can move
    to; an action stays only while all of them lie in the strongly
    connected component of q among the states left (de Alfaro's refinement,
    Baier & Katoen section 10.6.3).  The refinement runs one component at a
    time: a component whose actions all stay is final, and only one that
    lost an action is searched again, without the states left with none.
    Returns one (states, {state: staying action indices}) pair per
    component, ordered by least state.
    """
    avail = dict(avail)
    found = []
    work = [list(avail)]
    while work:
        part = work.pop()
        inside = set(part)

        def succ(q):
            return [s for ai in avail[q] for s in actions[q][ai] if s in inside]

        for comp in strongly_connected_components(part, succ):
            members = set(comp)
            lost = False
            for q in comp:
                keep = [ai for ai in avail[q] if all(s in members for s in actions[q][ai])]
                if len(keep) < len(avail[q]):
                    avail[q] = keep
                    lost = True
            if not lost:
                found.append((comp, {q: list(avail[q]) for q in comp}))
            elif rest := [q for q in comp if avail[q]]:
                work.append(rest)
    found.sort(key=lambda c: min(c[0]))
    return found


def _mecs(m: Mdp, marked, avail) -> tuple[Mec, ...]:
    """The MECs of m's sub-MDP `avail` (see `_end_components`), as records."""
    succ = m._graph[0]
    mecs = []
    for comp, staying in _end_components(avail, succ):
        states = frozenset(comp)
        actions = frozenset((q, ai) for q in comp for ai in staying[q])
        accepting = any((q, ai, s) in marked for q, ai in actions for s in succ[q][ai])
        closed = all(s in states for q in comp for targets in succ[q] for s in targets)
        mecs.append(Mec(states, actions, accepting, closed))
    return tuple(mecs)


def mec_decompose(
    m: Mdp, marked: frozenset[tuple[int, int, int]] = frozenset()
) -> tuple[Mec, ...]:
    return _mecs(m, marked, {q: range(m.n_actions(q)) for q in m.states()})


# -------------------------------------------------------------- reachability

@dataclass(frozen=True)
class ValueVector:
    """Values per state, and the policy that attains them.  In float mode
    every value lies within `gap` of the exact one; in exact mode `gap` is 0.
    `sweeps` counts the float sweeps (in exact mode, those of the seed).

    `policy` maps each positive-value state outside the goal to an action:
    on value-1 states the almost-sure attractor (the action keeps the value
    1 and moves strictly closer to the goal), elsewhere the policy that
    policy iteration proved optimal (exact mode) or that was read off the
    final float values (float mode)."""

    values: tuple
    exact: bool
    policy: dict[int, int]
    gap: float = 0.0
    sweeps: int = 0

    def __getitem__(self, q: int):
        return self.values[q]

    def __len__(self):
        return len(self.values)


def _float_model(m: Mdp, interior: list[int], sure: frozenset[int]):
    """The interior's actions, converted to floats once.

    Row i lists the actions of interior[i] as (action index, probability
    into `sure`, [(interior position, probability)]) triples.  Each
    probability object becomes a float once, looked up by its id (hashing a
    Fraction costs more than converting it).  Exact arithmetic is kept only
    where the float could differ: an action with more than one successor in
    `sure` sums those probabilities exactly, and a self-loop of probability
    p is removed by dividing the rest by 1 - p before the conversion.  That
    keeps the least fixpoint of the maximum, since an action repeated until
    it leaves q is worth (rest) / (1 - p).  Actions left with no successor,
    such as a pure self-loop, are dropped: they are worth 0.
    """
    pos = {q: i for i, q in enumerate(interior)}
    floats: dict[int, float] = {}
    rows = []
    for i, q in enumerate(interior):
        acts = []
        for ai, dist in enumerate(m.transitions[q]):
            loop, const, into, inner = 0, 0.0, [], []
            for s, p in dist:
                f = floats.get(id(p))
                if f is None:
                    f = floats[id(p)] = float(p)
                j = pos.get(s)
                if j is None:
                    if s in sure:
                        into.append(p)
                        const += f
                elif j == i:
                    loop = p
                else:
                    inner.append((j, f))
            if not into and not inner:
                continue
            if loop or len(into) > 1:
                scale = 1 / (1 - loop) if loop else 1
                const = float(sum(into) * scale)
                inner = [(pos[s], float(p * scale))
                         for s, p in dist if s != q and s in pos]
            acts.append((ai, const, inner))
        rows.append(acts)
    return rows


def _sweep(rows, x) -> float:
    """One Gauss-Seidel sweep of the maximum over the float model: each
    x[i] becomes its best action's value, read from x as already updated.
    Returns the largest rise of an entry (a fall counts as none)."""
    rise = 0.0
    for i, acts in enumerate(rows):
        best = 0.0
        for _, c, inner in acts:
            v = c
            for j, p in inner:
                v += p * x[j]
            if v > best:
                best = v
        if best - x[i] > rise:
            rise = best - x[i]
        x[i] = best
    return rise


def _optimistic_iteration(rows, tol: float, cap: int):
    """Maximal reachability over the float model by optimistic value
    iteration (Hartmanns & Kaminski, CAV 2020).

    The lower bound sweeps from 0 until no sweep raises it by more than a
    target, first `tol`.  One sweep B then checks the guess u = min(1, lower
    + tol/2): if B(u) <= u, Park induction puts the value below u, so below
    B(u) too (B is monotone; Gauss-Seidel sweeps share the fixpoints of
    plain ones).  Otherwise the target shrinks tenfold and the lower bound
    sweeps on.  The upper bound is checked, never iterated, so no end
    component among the interior states holds it up; on one, B(u) = u
    exactly, so the check allows a rise of _ROUND_SLACK, B(u)'s rounding:
    the bounds are sound up to float rounding.  Returns the midpoints, the
    largest distance between the bounds (which bounds the midpoints' error)
    and the sweeps; if `cap` sweeps do not suffice, the lower bound and its
    largest distance from 1.
    """
    if not rows:
        return [], 0.0, 0
    lo, target, sweeps = [0.0] * len(rows), tol, 0
    while sweeps < cap:
        sweeps += 1
        if _sweep(rows, lo) > target or sweeps == cap:
            continue
        hi = [min(1.0, v + tol / 2) for v in lo]
        sweeps += 1
        if _sweep(rows, hi) <= _ROUND_SLACK:
            gap = max(h - v for h, v in zip(hi, lo))
            return [(v + h) / 2 for v, h in zip(lo, hi)], gap, sweeps
        target /= 10
    return lo, max(1.0 - v for v in lo), sweeps


def _attract(pred, targets, allowed) -> dict[int, int]:
    """Backward breadth-first search from `targets` over allowed actions.

    `pred` is an MDP's predecessor lists (`Mdp._graph`), read in their
    order (by state, then action), and `allowed` maps states to the action
    indices they may use.  A state is reached through the allowed action
    whose successor the search reached first (the lowest index among ties),
    and maps to that action, so each reached state's action moves strictly
    closer to `targets` with positive probability.  Linear in the
    transitions into the states reached.
    """
    choice: dict[int, int] = {}
    queue = sorted(targets)
    for s in queue:
        for q, ai in pred[s]:
            if q not in choice and ai in allowed.get(q, ()):
                choice[q] = ai
                queue.append(q)
    return choice


def _prob1(m: Mdp, goal: frozenset[int]) -> tuple[frozenset[int], dict[int, int]]:
    """The states that can reach `goal` (absorbing), and the almost-sure
    attractor: each state outside the goal that reaches it almost surely,
    mapped to an action that stays among those states and moves strictly
    closer to the goal.

    The first backward search (`_attract`), over every action, finds the
    states that can reach the goal.  Then the states that a search missed
    are removed: every action into them is dropped through the predecessor
    lists, and a state left with no action is removed in turn (de Alfaro,
    PhD thesis, 1997).  The search runs again over the actions left, until
    it finds every state left; its choices are the attractor.
    """
    pred = m._graph[1]
    allowed = {
        q: set(range(len(row))) for q, row in enumerate(m.transitions) if q not in goal
    }
    choice = _attract(pred, goal, allowed)
    reachers = goal.union(choice)
    while gone := [q for q in allowed if q not in choice]:
        for q in gone:
            del allowed[q]
        for s in gone:  # grows while it is read
            for q, ai in pred[s]:
                acts = allowed.get(q)
                if acts and ai in acts:
                    acts.discard(ai)
                    if not acts:
                        del allowed[q]
                        gone.append(q)
        choice = _attract(pred, goal, allowed)
    return reachers, choice


def _seed_policy(m, interior, sure, rows, mid) -> dict[int, int]:
    """A policy read off float values `mid` of the interior: per interior
    state, the actions within _ARGMAX_TOL of the best, attracted toward
    `sure`; a state the search misses takes its best action."""
    candidates = {}
    for q, acts in zip(interior, rows):
        scores = [(c + sum(p * mid[j] for j, p in inner), ai) for ai, c, inner in acts]
        best = max(scores)[0]
        candidates[q] = [ai for v, ai in scores if v >= best - _ARGMAX_TOL]
    choice = _attract(m._graph[1], sure, candidates)
    return {q: choice.get(q, candidates[q][0]) for q in interior}


def max_reach(m: Mdp, goal: frozenset[int], exact: bool = True) -> ValueVector:
    """Optimal probability of reaching `goal` (absorbing) from every state,
    with the policy that attains it (see `ValueVector`).

    After the qualitative 0/1 analysis both modes run optimistic value
    iteration (`_optimistic_iteration`) on the remaining states and read a
    policy off the midpoints of its bounds.  Float mode returns the
    midpoints once an upper bound within _VI_TOL of the lower one is
    checked, and raises MdpError if that takes more than _VI_CAP sweeps.
    Exact mode stops at the looser _SEED_TOL, or after _SEED_CAP sweeps,
    and starts a policy iteration over fractions from that policy: each
    policy is evaluated exactly by `exact.chain_reach`, and an exact
    improvement sweep that switches nothing proves it optimal.
    """
    goal = frozenset(goal)
    for q in goal:
        if not 0 <= q < m.n_states:
            raise MdpError(f"goal state {q} out of range")
    reachers, policy = _prob1(m, goal)
    sure = goal.union(policy)
    # in descending order: a product numbers its states breadth-first, so
    # Gauss-Seidel sweeps then mostly read successors already updated
    interior = [q for q in reversed(m.states()) if q in reachers and q not in sure]
    rows = _float_model(m, interior, sure)
    tol, cap = (_SEED_TOL, _SEED_CAP) if exact else (_VI_TOL, _VI_CAP)
    mid, gap, sweeps = _optimistic_iteration(rows, tol, cap)
    if not exact and gap > _VI_TOL:
        raise MdpError(
            f"float value iteration did not converge: gap {gap:.3g} "
            f"after {sweeps} sweeps"
        )
    policy.update(_seed_policy(m, interior, sure, rows, mid))
    if exact and interior:
        for _ in range(100_000):
            current = chain_reach(lambda q: m.dist(q, policy[q]), interior, sure)
            # An action beats q's value only if its float-model value does
            # (removing a self-loop keeps that comparison, and dropped
            # actions cannot), and rounding errs by far less than
            # _ARGMAX_TOL: only actions within it of q's value are compared
            # exactly.
            approx = [float(current[q]) for q in interior]
            switched = False
            for q, acts, here in zip(interior, rows, approx):
                best_val, best_ai = current[q], policy[q]
                for ai, c, inner in acts:
                    if ai == policy[q]:
                        continue
                    if c + sum(p * approx[j] for j, p in inner) < here - _ARGMAX_TOL:
                        continue
                    val = sum(p * current[s] for s, p in m.dist(q, ai) if s in current)
                    if val > best_val:
                        best_val, best_ai = val, ai
                if best_ai != policy[q]:
                    policy[q] = best_ai
                    switched = True
            if not switched:
                break
        else:  # pragma: no cover
            raise MdpError("policy iteration failed to converge")
        mid = [current[q] for q in interior]
    one, zero = (Fraction(1), Fraction(0)) if exact else (1.0, 0.0)
    values = [one if q in sure else zero for q in m.states()]
    for q, v in zip(interior, mid):
        values[q] = v
    return ValueVector(tuple(values), exact, policy, 0.0 if exact else gap, sweeps)


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


def extract_reach_strategy(
    m: Mdp, goal: frozenset[int], vv: ValueVector
) -> tuple[int, ...]:
    """One action per state: the policy that proved `vv`, the result of
    `max_reach(m, goal)`.  Its actions on value-1 states move strictly
    closer to the goal; goal and zero-value states take their first
    action."""
    return tuple(vv.policy.get(q, 0) for q in m.states())


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
    reach an accepting maximal end component, then sweep it uniformly.

    The MECs are `mec_decompose(prod.mdp, prod.marked)`, searched only over
    the pairs whose MDP state lies in a MEC of `prod.base`, by the actions
    whose MDP action stays in it: an end component of the product projects
    onto one of the MDP (its MDP states and actions are closed and strongly
    connected)."""
    m, base = prod.mdp, prod.base
    kept: dict[int, list[int]] = {}
    for mec in mec_decompose(base):
        for s, ai in mec.actions:
            kept.setdefault(s, []).append(ai)
    avail = {}
    for p, (s, _) in enumerate(prod.pairs):
        if s in kept:
            w = m.n_actions(p) // base.n_actions(s)
            avail[p] = [k for ai in kept[s] for k in range(ai * w, ai * w + w)]
    mecs = _mecs(m, prod.marked, avail)
    goal = frozenset(q for mec in mecs if mec.accepting for q in mec.states)
    vv = max_reach(m, goal, exact=exact)
    picks = extract_reach_strategy(m, goal, vv)
    one = Fraction(1)
    dists = [((picks[q], one),) for q in m.states()]
    for mec in mecs:
        if not mec.accepting:
            continue
        per_state: dict[int, list[int]] = {}
        for q, ai in sorted(mec.actions):
            per_state.setdefault(q, []).append(ai)
        for q, ais in per_state.items():
            share = Fraction(1, len(ais))
            dists[q] = tuple((ai, share) for ai in ais)
    strategy = Strategy(dists=tuple(dists))
    return SynthesisResult(value=vv[m.initial], values=vv, strategy=strategy,
                           goal=goal, mecs=mecs)


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

    value = chain_accept(
        m.states(), lambda q: edges[q].items(), lambda q, s: (q, s) in hot
    )
    return value[m.initial]


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
