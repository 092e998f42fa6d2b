"""State reduction pipeline for good-for-MDP Buchi automata.

Four steps: complete the automaton and determinise it over an indexed
alphabet (each letter splits into (letter, rank) with the rank choosing a
successor), flip the acceptance to co-Buchi, reduce the deterministic
co-Buchi automaton, and read the result back as a 0/1 probabilistic
automaton with uniform transition weights.  The minimised automaton and
the probabilistic automaton carry the language class of each state in their
meta (`lang_class`, which the PA JSON keeps), so one input always gives the
same PA document.  Whether the input really is good for MDPs is the
caller's claim; the pipeline preserves the automaton language either way,
but the probabilistic reading is only meaningful for good-for-MDP inputs.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .automata import (
    Alphabet,
    Automaton,
    AutomatonError,
    ProbAutomaton,
    _probability,
    _state_id,
    _unchecked,
    complete,
)
from .gfg_min import minimize


def gfm_to_dba(a: Automaton) -> Automaton:
    """Deterministic Buchi automaton over the rank-indexed alphabet.

    With k the maximal out-degree, letter (mask, i), i <= k moves to the
    i-th successor (in sorted order) of the source on (mask); surplus ranks
    go to an unmarked rejecting sink.  Edge marks are inherited.
    """
    if a.kind != "buchi":
        raise AutomatonError(f"gfm_to_dba needs a Buchi automaton, got {a.kind}")
    a = complete(a)
    k = max(map(len, itertools.chain.from_iterable(a.transitions)))
    # lifted letter (x, j) of base letter x and rank j is x * k + j - 1
    sink = (a.n_states,)
    rows = []
    need_sink = False
    for cells in a.transitions:
        row = []
        for succs in cells:
            row.extend((s,) for s in succs)
            if len(succs) < k:
                row.extend([sink] * (k - len(succs)))
                need_sink = True
        rows.append(tuple(row))
    marked = frozenset(
        (q, x * k + a.transitions[q][x].index(s), s) for q, x, s in a.marked
    )
    alphabet = Alphabet(a.alphabet.atoms, a.alphabet.index_arity * k)
    if need_sink:
        rows.append((sink,) * alphabet.size)
    return Automaton(alphabet, "buchi", a.initial, tuple(rows), marked)


def dba_to_dca(d: Automaton) -> Automaton:
    """Same structure, co-Buchi reading: the co-Buchi language is the
    complement of the Buchi one for deterministic complete automata."""
    if d.kind != "buchi":
        raise AutomatonError("dba_to_dca needs a Buchi automaton")
    if d._tables.det is None:
        raise AutomatonError("dba_to_dca needs a deterministic complete automaton")
    return _unchecked(Automaton, d, kind="cobuchi")


def nca_to_pa(a: Automaton) -> ProbAutomaton:
    """Uniform-weight probabilistic automaton over the same transitions;
    marks carry over and keep their infinitely-often reading.

    `a` must be complete.  It was checked when built, and its k successors
    of a cell get weight 1/k each, so the PA is built without a second
    check.  Each letter class gets one distribution, shared by its letters."""
    t = a._tables
    if not all(map(all, t.succ)):
        raise AutomatonError("nca_to_pa needs a complete automaton")
    weight: dict[int, Fraction] = {}  # one Fraction(1, k) per out-degree k
    rows = []
    for cells in t.succ:
        row = []
        for succs in cells:
            k = len(succs)
            if k not in weight:
                weight[k] = Fraction(1, k)
            row.append(tuple((s, weight[k]) for s in succs))
        rows.append(tuple(map(row.__getitem__, t.letter_class)))
    return _unchecked(
        ProbAutomaton,
        alphabet=a.alphabet,
        initial=a.initial,
        transitions=tuple(rows),
        marked=a.marked,
        meta=a.meta,
    )


@dataclass(frozen=True)
class StageInfo:
    name: str
    states: int
    marks: int
    seconds: float


@dataclass(frozen=True)
class ReduxReport:
    stages: tuple[StageInfo, ...]
    minimized: Automaton
    gfm_asserted_by_caller: bool = True

    def to_json(self) -> dict:
        return {
            "gfm_asserted_by_caller": self.gfm_asserted_by_caller,
            "stages": [
                {
                    "name": s.name,
                    "states": s.states,
                    "marks": s.marks,
                    "seconds": s.seconds,
                }
                for s in self.stages
            ],
        }


class ReduxResult(NamedTuple):
    pa: ProbAutomaton
    dba: Automaton
    report: ReduxReport


def redux(a: Automaton) -> ReduxResult:
    """Run the four-step pipeline on a Buchi automaton the caller asserts
    to be good for MDPs.  Returns the 0/1 probabilistic automaton, the
    intermediate indexed deterministic Buchi automaton, and a stage report.
    """
    stages = []

    def record(name, aut, t0):
        stages.append(
            StageInfo(name, aut.n_states, len(aut.marked), time.perf_counter() - t0)
        )

    t0 = time.perf_counter()
    dba = gfm_to_dba(a)
    record("indexed_dba", dba, t0)

    t0 = time.perf_counter()
    dca = dba_to_dca(dba)
    record("dca", dca, t0)

    t0 = time.perf_counter()
    small = minimize(dca)
    record("minimized", small, t0)

    t0 = time.perf_counter()
    pa = nca_to_pa(small)
    record("pa", pa, t0)

    report = ReduxReport(stages=tuple(stages), minimized=small)
    return ReduxResult(pa=pa, dba=dba, report=report)


def pa_to_json(pa: ProbAutomaton) -> dict:
    """JSON document for a probabilistic automaton: per state, per letter id,
    a list of [successor, probability, marked] moves."""
    marked = pa.marked
    # str of each probability object, keyed by id: nca_to_pa shares one
    # Fraction per out-degree, and pa keeps every key's object alive
    text: dict[int, str] = {}
    states = []
    for q, cells in enumerate(pa.transitions):
        rows = []
        for letter, dist in enumerate(cells):
            row = []
            for s, p in dist:
                t = text.get(id(p))
                if t is None:
                    t = text[id(p)] = str(p)
                row.append([s, t, (q, letter, s) in marked])
            rows.append(row)
        states.append(rows)
    doc = {
        "atoms": list(pa.alphabet.atoms),
        "index_arity": pa.alphabet.index_arity,
        "initial": pa.initial,
        "states": states,
    }
    if isinstance(pa.meta, dict) and "lang_class" in pa.meta:
        doc["lang_class"] = list(pa.meta["lang_class"])
    return doc


def pa_from_json(data: dict) -> ProbAutomaton:
    """Read a `pa_to_json` document back; a malformed one raises
    AutomatonError."""
    from .ltl import AtomSet

    try:
        if not isinstance(data["atoms"], list):
            raise TypeError(f"atoms {data['atoms']!r} are not a list")
        arity = data.get("index_arity", 1)
        if not isinstance(arity, int) or isinstance(arity, bool):
            raise TypeError(f"index_arity {arity!r} is not an integer")
        alphabet = Alphabet(AtomSet(tuple(data["atoms"])), arity)
        initial = _state_id(data["initial"])
        states = list(data["states"])
        meta = {}
        if "lang_class" in data:
            lang = data["lang_class"]
            if not isinstance(lang, list) or len(lang) != len(states) \
                    or any(type(c) is not int for c in lang):
                raise TypeError(f"lang_class {lang!r} is not one integer per state")
            meta["lang_class"] = tuple(lang)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise AutomatonError(f"malformed PA document: {exc}") from None
    transitions = []
    marked = set()
    for q, rows in enumerate(states):
        if not isinstance(rows, list):
            raise AutomatonError(f"malformed PA state {q}: rows {rows!r} are not a list")
        if len(rows) != alphabet.size:
            raise AutomatonError(
                f"state {q} has {len(rows)} letter rows, expected {alphabet.size}"
            )
        per_letter = []
        for letter, moves in enumerate(rows):
            try:
                if not isinstance(moves, list):
                    raise TypeError(f"moves {moves!r} are not a list")
                dist = []
                for move in moves:
                    if not isinstance(move, list) or len(move) != 3:
                        raise TypeError(f"move {move!r} is not [successor, p, marked]")
                    s, p, hot = move
                    s = _state_id(s)
                    if not isinstance(hot, bool):
                        raise TypeError(f"mark {hot!r} is not a boolean")
                    dist.append((s, _probability(p)))
                    if hot:
                        marked.add((q, letter, s))
            except (TypeError, ValueError) as exc:
                raise AutomatonError(
                    f"malformed PA state {q}, letter {letter}: {exc}"
                ) from None
            per_letter.append(tuple(sorted(dist)))
        transitions.append(tuple(per_letter))
    return ProbAutomaton(
        alphabet=alphabet,
        initial=initial,
        transitions=tuple(transitions),
        marked=frozenset(marked),
        meta=meta or None,
    )
