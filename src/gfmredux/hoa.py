"""HOA v1 import/export for transition-based Buchi / co-Buchi automata.

Supported subset: explicit transition labels (boolean formulas over AP
indices), single start state, acceptance `1 Inf(0)` or `1 Fin(0)` with marks
written as `{0}` on transitions.  Labels are read by the LTL parser; AP
indices must be below the AP count, at most `ltl.MAX_ATOMS`.  Indexed
alphabets (arity k > 1) are encoded in ceil(log2 k) extra APs `_idx0`,
`_idx1`, ... plus the custom header `x-index-arity:` so they round-trip
exactly; other tools may ignore that header and read the automaton over the
extended AP set.

Both ways a label is a valuation set: an int with bit v set when the label
holds under AP valuation v, and a letter is the valuation of its atom mask
with its index - 1 in the APs above (`_valuations`).  The writer ORs the
letters of each (successor, mark) group and covers that set by cubes; the
reader ORs the labels of each (state, successor), marked and unmarked apart.
"""

from __future__ import annotations

import operator
import re
from functools import reduce

from .automata import Alphabet, Automaton, AutomatonError
from .ltl import AtomSet, LtlError, LtlParseError, parse


class HoaError(ValueError):
    pass


# the most (state, letter) cells a read automaton may have, whatever States:
# claims.  The automaton holds an entry per cell: reading a file at the limit
# (16 states, 16 APs, one [t] edge each) peaks near 36 MB in 64-bit CPython
# 3.11, or 161 MB when every edge is marked; perfbench needs 2,304.
MAX_CELLS = 1 << 20


# --------------------------------------------------------- label formulas

_LABEL_TEXT = re.compile(r"[0-9tf!&|()\s]*")
_LABEL_WORD = re.compile(r"[0-9]+|[tf]")


def _label_formula(text: str, aps: AtomSet):
    """Read a label with the LTL parser: AP index k is the atom named "k" of
    `aps`, and t and f are the constants tt and ff."""
    if not _LABEL_TEXT.fullmatch(text):
        raise HoaError(f"bad label syntax: {text!r}")
    ltl_text = _LABEL_WORD.sub(
        lambda m: f" {m[0] * 2} " if m[0] in "tf" else f'"{int(m[0])}"', text
    )
    try:
        return parse(ltl_text, aps)
    except LtlParseError:
        raise HoaError(f"bad label syntax: {text!r}") from None
    except LtlError:
        raise HoaError(
            f"AP index out of range in label {text!r} (AP count {len(aps)})"
        ) from None


def _models(f, ap_sets, full: int) -> int:
    """The AP valuations that satisfy a label formula, as a bitset: bit v is
    set when the formula holds under valuation v.  `ap_sets[k]` is the
    bitset of the valuations that set AP k and `full` that of them all."""
    k = f.kind
    if k == "atom":
        return ap_sets[f.atom_index]
    if k == "not":
        return _models(f.children[0], ap_sets, full) ^ full
    if k in ("and", "or"):
        op = operator.and_ if k == "and" else operator.or_
        return reduce(op, (_models(c, ap_sets, full) for c in f.children))
    return full if k == "tt" else 0


def _cover(vs: int, n: int) -> list[tuple[str, ...]]:
    """Cubes over APs 0..n-1, each a tuple of literals, whose union is exactly
    the valuation set `vs`.  Split on the top AP: the valuations both halves
    share are covered once without it, the rest of each half with it."""
    if vs == (1 << (1 << n)) - 1:
        return [()]
    if not vs:
        return []
    n -= 1
    lo, hi = vs & ((1 << (1 << n)) - 1), vs >> (1 << n)
    both = lo & hi
    return (_cover(both, n)
            + [cube + (f"!{n}",) for cube in _cover(lo ^ both, n)]
            + [cube + (str(n),) for cube in _cover(hi ^ both, n)])


def _valuations(alphabet: Alphabet) -> list[int]:
    """The AP valuation of each letter: its atom mask, then its index - 1 in
    the APs above the atoms."""
    arity, n_atoms = alphabet.index_arity, len(alphabet.atoms)
    return [x // arity | x % arity << n_atoms for x in alphabet.letters()]


# ----------------------------------------------------------------- export

def _idx_bits(arity: int) -> int:
    return (arity - 1).bit_length() if arity > 1 else 0


def _quote(text: str) -> str:
    """A HOA string: text in double quotes, with \\ and " escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_hoa(a: Automaton, name: str | None = None) -> str:
    if a.kind == "finite":
        raise HoaError("finite-word automata have no HOA form")
    arity = a.alphabet.index_arity
    n_atoms = len(a.alphabet.atoms)
    nb = _idx_bits(arity)
    nbits = n_atoms + nb
    ap_names = list(a.alphabet.atoms.names) + [f"_idx{i}" for i in range(nb)]

    lines = ["HOA: v1", "tool: \"gfmredux\""]
    if name:
        lines.append(f"name: {_quote(name)}")
    lines.append(f"States: {a.n_states}")
    lines.append(f"Start: {a.initial}")
    lines.append(f"AP: {len(ap_names)} " + " ".join(map(_quote, ap_names)))
    if arity > 1:
        lines.append(f"x-index-arity: {arity}")
    if a.kind == "buchi":
        lines.append("acc-name: Buchi")
        lines.append("Acceptance: 1 Inf(0)")
    else:
        lines.append("acc-name: co-Buchi")
        lines.append("Acceptance: 1 Fin(0)")
    lines.append("properties: trans-labels explicit-labels trans-acc")
    lines.append("--BODY--")
    t = a._tables
    vals = _valuations(a.alphabet)
    class_vs = [sum(1 << vals[x] for x in xs) for xs in t.members]
    # the label of each valuation set met, covered once: many (successor,
    # mark) groups of one automaton read the same letters
    labels: dict[int, str] = {}
    for q in a.states():
        lines.append(f"State: {q}")
        groups: dict[tuple[int, bool], int] = {}
        for c, (succs, safe) in enumerate(zip(t.succ[q], t.safe[q])):
            for s in succs:
                key = (s, s not in safe)
                groups[key] = groups.get(key, 0) | class_vs[c]
        for (dst, marked), vs in sorted(groups.items()):
            label = labels.get(vs)
            if label is None:
                label = labels[vs] = " | ".join(
                    "&".join(cube) or "t" for cube in _cover(vs, nbits))
            lines.append(f"[{label}] {dst}" + (" {0}" if marked else ""))
    lines.append("--END--")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- import

_QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"')
_ESCAPED = re.compile(r"\\(.)")


def _header_int(key: str, val: str) -> int:
    try:
        return int(val)
    except ValueError:
        raise HoaError(f"{key}: needs an integer, got {val!r}") from None


def from_hoa(text: str) -> Automaton:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("HOA:"):
        raise HoaError("missing HOA: v1 header")
    if lines[0].split(":", 1)[1].strip() != "v1":
        raise HoaError(f"unsupported HOA version: {lines[0]}")

    n_states = None
    start = None
    ap_names: list[str] | None = None
    acceptance = None
    acc_name = None
    arity = 1
    body_at = None
    for i, ln in enumerate(lines[1:], start=1):
        if ln == "--BODY--":
            body_at = i
            break
        if ":" not in ln:
            raise HoaError(f"bad header line: {ln!r}")
        key, val = ln.split(":", 1)
        key = key.strip()
        val = val.strip()
        if key == "States":
            n_states = _header_int(key, val)
        elif key == "Start":
            if start is not None or not val.isdigit():
                raise HoaError("exactly one Start: <state> header is supported")
            start = int(val)
        elif key == "AP":
            parts = val.split(None, 1)
            count = _header_int(key, parts[0] if parts else "")
            names = [_ESCAPED.sub(r"\1", n)
                     for n in _QUOTED.findall(parts[1] if len(parts) > 1 else "")]
            if len(names) != count:
                raise HoaError(f"AP count {count} does not match {len(names)} names")
            ap_names = names
        elif key == "Acceptance":
            acceptance = "".join(val.split())
        elif key == "acc-name":
            acc_name = val
        elif key == "x-index-arity":
            arity = _header_int(key, val)
            if arity < 1:
                raise HoaError(f"bad x-index-arity: {val}")
        elif key in ("tool", "name", "properties"):
            pass
        elif key[:1].isupper():
            raise HoaError(f"unsupported header: {key}")
        # other lowercase headers are ignorable by the HOA convention
    if body_at is None:
        raise HoaError("missing --BODY--")
    if n_states is None:
        raise HoaError("missing States: header")
    if start is None:
        raise HoaError("missing Start: header")
    if ap_names is None:
        raise HoaError("missing AP: header")
    if acceptance == "1Inf(0)":
        kind = "buchi"
    elif acceptance == "1Fin(0)":
        kind = "cobuchi"
    else:
        raise HoaError(f"unsupported acceptance: {acceptance!r} "
                       "(need 1 Inf(0) or 1 Fin(0))")
    if acc_name not in (None, "Buchi", "co-Buchi"):
        raise HoaError(f"unsupported acc-name: {acc_name!r}")
    if acc_name == "Buchi" and kind != "buchi":
        raise HoaError("acc-name Buchi contradicts Acceptance")
    if acc_name == "co-Buchi" and kind != "cobuchi":
        raise HoaError("acc-name co-Buchi contradicts Acceptance")

    nb = _idx_bits(arity)
    if nb > len(ap_names):
        raise HoaError("x-index-arity larger than the AP set allows")
    n_atoms = len(ap_names) - nb
    nbits = len(ap_names)
    try:
        atoms = AtomSet(tuple(ap_names[:n_atoms]))
        aps = AtomSet(tuple(map(str, range(nbits))))  # label atom k: AP index k
    except LtlError as exc:
        raise HoaError(f"bad AP set: {exc}") from None
    alphabet = Alphabet(atoms, arity)
    if n_states < 0:
        raise HoaError(f"States: {n_states} is negative")
    if n_states * alphabet.size > MAX_CELLS:
        raise HoaError(f"States: {n_states} times {alphabet.size} letters is over "
                       f"the limit of {MAX_CELLS} (state, letter) cells")
    # bit v of ap_sets[k] is bit k of valuation v: 2^k zeros then 2^k ones,
    # repeated; full // (2^(2^(k+1)) - 1) sets the first bit of each repeat
    full = (1 << (1 << nbits)) - 1
    ap_sets = [full // ((1 << (2 << k)) - 1) * (((1 << (1 << k)) - 1) << (1 << k))
               for k in range(nbits)]
    first_bad = arity << n_atoms  # the valuations from here on exceed the arity

    # edges[q] maps each successor to the valuations read to it unmarked and
    # those read to it marked
    edges = [{} for _ in range(n_states)]
    state = None
    # the valuation set of each distinct label text, parsed and evaluated once
    label_models: dict[str, int] = {}
    for ln in lines[body_at + 1 :]:
        if ln == "--END--":
            break
        if ln.startswith("State:"):
            rest = ln[len("State:") :].strip()
            if rest.startswith("["):
                raise HoaError("state labels are not supported")
            m = re.match(r"(\d+)", rest)
            if not m:
                raise HoaError(f"bad state line: {ln!r}")
            state = int(m.group(1))
            tail = rest[m.end() :].strip()
            if tail.startswith('"'):
                tail = _QUOTED.sub("", tail, count=1).strip()
            if tail.startswith("{"):
                raise HoaError(
                    "state-based acceptance is not supported; re-export the "
                    "automaton with transition-based acceptance"
                )
            if tail:
                raise HoaError(f"bad state line: {ln!r}")
            if not 0 <= state < n_states:
                raise HoaError(f"state {state} out of range")
        elif ln.startswith("["):
            if state is None:
                raise HoaError("transition before any State: line")
            close = ln.find("]")
            if close < 0:
                raise HoaError(f"bad transition line: {ln!r}")
            label_text = ln[1:close]
            models = label_models.get(label_text)
            if models is None:
                label = _label_formula(label_text, aps)
            rest = ln[close + 1 :].split()
            if not rest or not rest[0].isdigit():
                raise HoaError(f"bad transition line: {ln!r}")
            dst = int(rest[0])
            if not 0 <= dst < n_states:
                raise HoaError(f"transition target {dst} out of range")
            marked = False
            if len(rest) > 1:
                acc = " ".join(rest[1:])
                if acc.replace(" ", "") != "{0}":
                    raise HoaError(f"unsupported acceptance sets: {acc!r}")
                marked = True
            if models is None:
                models = _models(label, ap_sets, full)
                bad = models >> first_bad
                if bad:  # name the lowest offending index
                    v = first_bad + (bad & -bad).bit_length() - 1
                    raise HoaError(
                        f"transition label uses index {(v >> n_atoms) + 1} "
                        f"beyond x-index-arity {arity}"
                    )
                label_models[label_text] = models
            edges[state].setdefault(dst, [0, 0])[marked] |= models
        else:
            raise HoaError(f"unexpected body line: {ln!r}")

    # A (state, letter, successor) listed twice is one transition whose mark
    # resolves angelically: Buchi runs prefer marked, co-Buchi runs unmarked
    vals = _valuations(alphabet)
    width = f"0{first_bad}b"
    trans, hot_reads = [], []
    for q, succ in enumerate(edges):
        dsts = sorted(succ)
        reads = []  # per successor, "1" at position v when valuation v reads it
        for dst in dsts:
            plain, hot = succ[dst]
            if kind == "cobuchi":
                hot &= ~plain
            reads.append(format(plain | hot, width)[::-1])
            if hot:
                hot_reads.append((q, dst, format(hot, width)[::-1]))
        # each letter's cell, one tuple per distinct column of `reads`
        codes = list(zip(*reads)) if dsts else [()] * first_bad
        cell = {code: tuple(d for d, c in zip(dsts, code) if c == "1") for code in set(codes)}
        trans.append(tuple(cell[codes[v]] for v in vals))
    marked = frozenset((q, x, dst) for q, dst, hot_at in hot_reads
                       for x, v in enumerate(vals) if hot_at[v] == "1")
    try:
        return Automaton(alphabet, kind, start, tuple(trans), marked)
    except AutomatonError as exc:
        raise HoaError(str(exc)) from exc
