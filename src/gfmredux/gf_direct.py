"""GF(co-safety) goals to small good-for-MDP Buchi automata.

The co-safety body is compiled to an NFA over residual formulas (one state
per propositional-equivalence class of derivatives, with top-level
disjunctions split nondeterministically).  Wrapping the NFA with reset
transitions yields the GFM Buchi automaton; determinising the same NFA with
a reset-subset rule yields a deterministic Buchi oracle for GF(body).
Each step builds its `transitions` rows directly: both wraps compute one
cell per letter class of the NFA (`Automaton._tables`) for all its letters.
"""

from __future__ import annotations

from .automata import Alphabet, Automaton
from .graph import coreach, numbering
from .ltl import (
    AtomSet,
    LtlError,
    LtlFormula,
    PropBdd,
    af_step,
    atom_set,
    fold,
    is_cosafety_nnf,
    now_atoms,
    to_nnf,
)


def gf_body(f: LtlFormula) -> LtlFormula:
    """The co-safety body of a GF(...) formula; raises LtlError otherwise."""
    g = to_nnf(f)
    if g.kind != "globally" or g.children[0].kind != "finally":
        raise LtlError("GF body must be co-safety: formula is not of the form GF(...)")
    body = g.children[0].children[0]
    if not is_cosafety_nnf(body):
        raise LtlError("GF body must be co-safety")
    return body


def cosafety_to_nfa(f: LtlFormula, atoms: AtomSet | None = None) -> Automaton:
    """Finite-word NFA with L(N).Sigma^omega = [f] for co-safety f.

    States are propositional-equivalence classes of folded derivatives, one
    per node of a BDD built for this call; a residual's top-level disjuncts
    become separate successors, which is what keeps derivative chains of
    independent disjuncts from multiplying out.  A derivative reads only the
    atoms not under X, so each state takes one derivative per valuation of
    those atoms, and every letter with that valuation shares its successors.
    `atoms`, when given, must be f's own AtomSet (f may have no atoms).
    """
    g = to_nnf(f)
    if not is_cosafety_nnf(fold(g)):  # folding can drop a G, as in tt | G a
        raise LtlError("cosafety_to_nfa needs a co-safety formula")
    return _nfa(g, atoms)


def _nfa(body: LtlFormula, atoms: AtomSet | None) -> Automaton:
    """cosafety_to_nfa of `body`, a formula in NNF whose fold is co-safety."""
    g = fold(body)
    if atoms is None:
        atoms = atom_set(g) or AtomSet(())
    elif (own := atom_set(body)) is not None and own != atoms:
        raise LtlError(f"formula atoms {own.names} differ from the alphabet's "
                       f"atoms {atoms.names}")
    alphabet = Alphabet(atoms, 1)

    bdd = PropBdd()
    order, number = numbering(bdd.node(g))
    reps = {order[0]: g}  # the first formula met for each BDD node
    rows = []
    for node in order:
        rep = reps[node]
        mask = now_atoms(rep)
        row: list[tuple[int, ...]] = []  # successor ids by letter
        for letter in alphabet.letters():
            if letter & mask != letter:  # its projection came first
                row.append(row[letter & mask])
                continue
            residual = af_step(rep, letter)
            targets = set()
            for part in residual.children if residual.kind == "or" else (residual,):
                n = bdd.node(part)
                reps.setdefault(n, part)
                targets.add(number(n))
            row.append(tuple(sorted(targets)))
        rows.append(tuple(row))
    finals = frozenset({number(bdd.TRUE)} if bdd.TRUE in reps else ())
    return Automaton(alphabet, "finite", 0, tuple(rows), final_states=finals)


def _useful_states(nfa: Automaton) -> set[int]:
    """States that can reach a final state."""
    return coreach(
        nfa.states(),
        lambda q: [s for cell in nfa.transitions[q] for s in cell],
        nfa.final_states,
    )


def _universal_buchi(alphabet: Alphabet) -> Automaton:
    return Automaton(alphabet, "buchi", 0, (((0,),) * alphabet.size,),
                     frozenset((0, letter, 0) for letter in alphabet.letters()))


def nfa_to_gfm_gf(nfa: Automaton) -> Automaton:
    """Good-for-MDP Buchi automaton for GF(L(nfa).Sigma^omega).

    Final targets are replaced by a reset to the initial state and the reset
    transition is marked; dead NFA states are dropped first.  If the NFA
    accepts the empty word the goal is trivially true and the universal
    one-state automaton comes back.
    """
    if nfa.kind != "finite":
        raise LtlError("nfa_to_gfm_gf needs a finite-word automaton")
    if nfa.initial in nfa.final_states:
        return _universal_buchi(nfa.alphabet)
    useful = _useful_states(nfa)

    t, finals = nfa._tables, nfa.final_states
    order, number = numbering(nfa.initial)
    rows, marked = [], set()
    for i, q in enumerate(order):
        cells = []
        for c, base in enumerate(t.succ[q]):
            targets = {number(s) for s in base if s in useful and s not in finals}
            cells.append(tuple(sorted(targets | {0})))
            if not finals.isdisjoint(base):
                marked.update((i, x, 0) for x in t.members[c])
        rows.append(tuple(map(cells.__getitem__, t.letter_class)))
    return Automaton(nfa.alphabet, "buchi", 0, tuple(rows), frozenset(marked))


def reset_subset_dba(nfa: Automaton) -> Automaton:
    """Deterministic Buchi automaton for GF(L(nfa).Sigma^omega).

    Subset construction that restarts a fresh copy of the NFA every step and
    resets to {initial} with a mark whenever some tracked run completes.
    Distinguishes completion from mere aliveness: only subsets reachable
    between consecutive completions are tracked.
    """
    if nfa.kind != "finite":
        raise LtlError("reset_subset_dba needs a finite-word automaton")
    if nfa.initial in nfa.final_states:
        return _universal_buchi(nfa.alphabet)
    useful = _useful_states(nfa)

    t, finals = nfa._tables, nfa.final_states
    start = frozenset({nfa.initial})
    order, number = numbering(start)
    rows, marked = [], set()
    for i, subset in enumerate(order):
        cells = []
        for c, members in enumerate(t.members):
            targets = {s for q in subset for s in t.succ[q][c] if s in useful}
            if targets.isdisjoint(finals):
                cells.append((number(frozenset(targets | {nfa.initial})),))
            else:  # some tracked run completes: reset with a mark
                cells.append((number(start),))
                marked.update((i, x, 0) for x in members)
        rows.append(tuple(map(cells.__getitem__, t.letter_class)))
    return Automaton(nfa.alphabet, "buchi", 0, tuple(rows), frozenset(marked))


def gf_to_gfm(f: LtlFormula, atoms: AtomSet | None = None) -> Automaton:
    """Full pipeline: GF(co-safety) formula to its GFM Buchi automaton."""
    return nfa_to_gfm_gf(_nfa(gf_body(f), atoms))


def gf_to_dba(f: LtlFormula, atoms: AtomSet | None = None) -> Automaton:
    """Deterministic-oracle pipeline for the same GF(co-safety) goal."""
    return reset_subset_dba(_nfa(gf_body(f), atoms))
