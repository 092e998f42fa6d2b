"""GF(co-safety) goals to small good-for-MDP Buchi automata.

The co-safety body is compiled to an NFA over residual formulas (one state
per propositional-equivalence class of derivatives, with top-level
disjunctions split nondeterministically).  Wrapping the NFA with reset
transitions yields the GFM Buchi automaton; determinising the same NFA with
a reset-subset rule yields a deterministic Buchi oracle for GF(body).
"""

from __future__ import annotations

from .automata import Alphabet, Automaton, build_automaton
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
    g = fold(to_nnf(f))
    if not is_cosafety_nnf(g):
        raise LtlError("cosafety_to_nfa needs a co-safety formula")
    if atoms is None:
        atoms = atom_set(g) or AtomSet(())
    elif (own := atom_set(f)) is not None and own != atoms:
        raise LtlError(f"formula atoms {own.names} differ from the alphabet's "
                       f"atoms {atoms.names}")
    alphabet = Alphabet(atoms, 1)

    bdd = PropBdd()
    order, number = numbering(bdd.node(g))
    reps = {order[0]: g}  # the first formula met for each BDD node
    edges = []
    for q, node in enumerate(order):
        rep = reps[node]
        mask = now_atoms(rep)
        row: list[list[int]] = []  # successor ids by letter
        for letter in alphabet.letters():
            if letter & mask != letter:  # its projection came first
                targets = row[letter & mask]
            else:
                residual = af_step(rep, letter)
                targets = []
                for part in residual.children if residual.kind == "or" else (residual,):
                    n = bdd.node(part)
                    reps.setdefault(n, part)
                    targets.append(number(n))
            row.append(targets)
            edges.extend((q, letter, t) for t in targets)
    finals = [number(bdd.TRUE)] if bdd.TRUE in reps else []
    return build_automaton(alphabet, len(order), 0, "finite", edges,
                           finals=finals)


def _useful_states(nfa: Automaton) -> set[int]:
    """States that can reach a final state."""
    return coreach(
        nfa.states(),
        lambda q: [s for cell in nfa.transitions[q] for s in cell],
        nfa.final_states,
    )


def _universal_buchi(alphabet: Alphabet) -> Automaton:
    edges = [(0, letter, 0, True) for letter in alphabet.letters()]
    return build_automaton(alphabet, 1, 0, "buchi", edges)


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

    order, number = numbering(nfa.initial)
    edges = []
    for i, q in enumerate(order):
        for letter in nfa.alphabet.letters():
            base = nfa.succ(q, letter)
            fires = any(s in nfa.final_states for s in base)
            targets = {s for s in base if s in useful and s not in nfa.final_states}
            for s in sorted(targets):
                edges.append((i, letter, number(s)))
            edges.append((i, letter, 0, fires))
    return build_automaton(nfa.alphabet, len(order), 0, "buchi", edges)


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

    start = frozenset({nfa.initial})
    order, number = numbering(start)
    edges = []
    for i, subset in enumerate(order):
        for letter in nfa.alphabet.letters():
            targets = set()
            for q in subset:
                targets.update(
                    s for s in nfa.succ(q, letter) if s in useful
                )
            if targets & nfa.final_states:
                succ = start
                fires = True
            else:
                succ = frozenset(targets | {nfa.initial})
                fires = False
            edges.append((i, letter, number(succ), fires))
    return build_automaton(nfa.alphabet, len(order), 0, "buchi", edges)


def gf_to_gfm(f: LtlFormula, atoms: AtomSet | None = None) -> Automaton:
    """Full pipeline: GF(co-safety) formula to its GFM Buchi automaton."""
    return nfa_to_gfm_gf(cosafety_to_nfa(gf_body(f), atoms))


def gf_to_dba(f: LtlFormula, atoms: AtomSet | None = None) -> Automaton:
    """Deterministic-oracle pipeline for the same GF(co-safety) goal."""
    return reset_subset_dba(cosafety_to_nfa(gf_body(f), atoms))
