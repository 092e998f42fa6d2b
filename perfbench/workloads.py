"""The benchmark's workloads: inputs, operations and output checks.

Each workload is a fixed list of operations. An operation does what one
CLI call does, calling the package through attribute lookups on the
package module `G` so that tracing wrappers, when installed, see every
call. Its `check` compares the output with `reference`, never with a
stored copy of earlier output, and raises `CheckFailed` on a mismatch.

What an input is made of (formulas, automata, MDP structures) comes from
the paper's pattern families and fixed pool seeds, so every run does the
same work and reports the same sizes. The run seed shuffles the operations,
permutes the atoms of the alphabets built here, renames the MDP actions and
draws the lassos the checks sample.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import reference as R

# The pool seeds fix what each input is; see README.md for why they are
# not the run seed.
TRANSLATE_POOL_SEED = 0
SOLVE_POOL_SEED = 0

# (depth, count) of the random co-safety bodies drawn
TRANSLATE_DRAW = ((4, 200), (5, 34))
RANDOM_ATOMS = ("a", "b", "c")

# Drawn bodies left out of `translate`: each took more than 35 ms (up to
# 1.2 s) on the reference machine, and an operation that long cannot be
# timed steadily there; see README.md.
TRANSLATE_LEFT_OUT = frozenset(
    f"d4-{i}" for i in (4, 12, 22, 52, 62, 111, 130, 135, 144, 176, 177, 179,
                        182, 186, 188, 192, 198)
) | {"d5-3", "d5-21", "d5-23"}

LASSOS_PER_CHECK = 8
LASSO_MAX_LEN = 4

# criterion-2 table of the paper: NCS offsets -> GFM automaton size
NCS_SIZES = {
    (1, 2): 4, (1, 2, 1): 5, (1, 2, 2): 6, (1, 2, 3): 7,
    (1, 2, 3, 1): 8, (1, 2, 3, 2): 9, (1, 2, 3, 3): 10, (1, 2, 3, 4): 11,
}


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One operation: `run()` is timed, `check(out)` is not; `size(out)`
    adds to `out_states`; `digest(out)` is a text that differs whenever the
    answer does, so an answer already checked need not be checked again.
    `known_fault` names the program fault behind an
    operation that fails every time; its failure is counted, not fatal."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    size: Callable[[Any], int]
    digest: Callable[[Any], str]
    known_fault: str | None = None
    group: Any = None
    value: Callable[[Any], Any] = lambda out: None


# ------------------------------------------------------------------ formulas

def _atom(name):
    return ("atom", name)


def _xpow(f, n):
    for _ in range(n):
        f = ("X", f)
    return f


def _conj(parts):
    out = parts[0]
    for p in parts[1:]:
        out = ("and", out, p)
    return out


def _disj(parts):
    out = parts[0]
    for p in parts[1:]:
        out = ("or", out, p)
    return out


def gf(body):
    return ("G", ("F", body))


def tdr(n):
    return gf(("and", _atom("a"), _xpow(_atom("b"), n)))


def lib(n):
    parts = []
    for i in range(1, n + 1):
        a = _atom(f"a{i}")
        parts.append(("and", a, ("X", ("not", a))))
        parts.append(("and", ("not", a), ("X", a)))
    return gf(_disj(parts))


def ncs(offsets):
    names = "abcdefgh"
    parts = [_atom("a")]
    total = 0
    for i, k in enumerate(offsets):
        total += k
        parts.append(_xpow(_atom(names[i + 1]), total))
    return gf(_conj(parts))


def random_body(rng, depth):
    """A co-safety body over RANDOM_ATOMS of the criterion-8 grammar:
    literals, &, |, X, F, U, each chosen uniformly while depth remains."""
    if depth > 0:
        op = rng.choice(("lit", "and", "or", "X", "F", "U"))
    else:
        op = "lit"
    if op == "lit":
        a = _atom(rng.choice(RANDOM_ATOMS))
        return a if rng.random() < 0.5 else ("not", a)
    if op in ("X", "F"):
        return (op, random_body(rng, depth - 1))
    lhs = random_body(rng, depth - 1)
    rhs = random_body(rng, depth - 1)
    return (op, lhs, rhs)


def atom_names(f, acc=None):
    acc = set() if acc is None else acc
    if f[0] == "atom":
        acc.add(f[1])
    for sub in f[1:]:
        if isinstance(sub, tuple):
            atom_names(sub, acc)
    return acc


def random_lasso(rng, size):
    prefix = tuple(rng.randrange(size) for _ in range(rng.randint(0, LASSO_MAX_LEN)))
    cycle = tuple(rng.randrange(size) for _ in range(rng.randint(1, LASSO_MAX_LEN)))
    return prefix, cycle


# ----------------------------------------------------------------- translate

def translate_inputs():
    """(name, formula, size bound) triples: the random draw, then ladders."""
    items = []
    for depth, count in TRANSLATE_DRAW:
        rng = random.Random(f"{TRANSLATE_POOL_SEED}:{depth}")
        drawn = [(f"d{depth}-{i}", gf(random_body(rng, depth)), None)
                 for i in range(count)]
        items += [item for item in drawn if item[0] not in TRANSLATE_LEFT_OUT]
    items += [(f"tdr{n}", tdr(n), n + 1) for n in range(3, 11)]
    items += [(f"lib{n}", lib(n), 2 * n + 1) for n in range(2, 6)]
    items += [(f"ncs{o}", ncs(o), NCS_SIZES[o]) for o in NCS_SIZES]
    return items


def build_translate(G, rng):
    ops = []
    check_rng = random.Random(rng.random())
    for name, f, bound in translate_inputs():
        atoms = sorted(atom_names(f))
        rng.shuffle(atoms)
        ap = G.atoms_named(*atoms)
        text = R.to_text(f)

        def run(text=text, ap=ap):
            a = G.gf_to_gfm(G.parse(text, ap), ap)
            return a, G.to_hoa(a)

        def check(out, f=f, bound=bound):
            a, hoa = out
            require(hoa.startswith("HOA: v1\n") and f"\nStates: {a.n_states}\n" in hoa,
                    "HOA text does not describe the automaton")
            if bound is not None:
                require(a.n_states <= bound, f"{a.n_states} states, paper has {bound}")
            bit_of = {name: i for i, name in enumerate(a.alphabet.atoms.names)}
            for _ in range(LASSOS_PER_CHECK):
                w = random_lasso(check_rng, a.alphabet.size)
                want = R.ltl_holds(f, *w, bit_of)
                require(R.automaton_accepts(a, *w) == want, f"lasso {w}: formula says {want}")

        ops.append(Op(name, run, check, lambda out: out[0].n_states,
                      lambda out: repr(out[0]) + out[1]))
    return ops


# -------------------------------------------------------------------- reduce

def reduce_inputs():
    """(name, construction, formula) triples: each formula is turned into a
    reset-subset DBA ("dba") or a GFM automaton ("gfm") during set-up."""
    ncs_rows = list(NCS_SIZES) + [(1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1),
                                  (1, 3), (2, 1, 1), (1, 1, 2)]
    items = [("tdr3-dba", "dba", tdr(3))]
    items += [(f"ncs{o}-dba", "dba", ncs(o)) for o in ((1, 1), (1, 2), (2, 1))]
    items += [(f"lib{n}-dba", "dba", lib(n)) for n in range(2, 4)]
    items += [(f"tdr{n}-gfm", "gfm", tdr(n)) for n in range(3, 15)]
    items += [(f"ncs{o}-gfm", "gfm", ncs(o)) for o in ncs_rows]
    items += [(f"lib{n}-gfm", "gfm", lib(n)) for n in range(2, 5)]
    return items


DUP_FIXTURES = (("dup_tdr4.hoa", tdr(4)), ("dup_ncs.hoa", ncs((1, 2))),
                ("dup_lib2.hoa", lib(2)))


def build_reduce(G, rng, fixture_text):
    texts = []
    for name, how, f in reduce_inputs():
        atoms = sorted(atom_names(f))
        rng.shuffle(atoms)
        ap = G.atoms_named(*atoms)
        parsed = G.parse(R.to_text(f), ap)
        aut = G.gf_to_dba(parsed, ap) if how == "dba" else G.gf_to_gfm(parsed, ap)
        texts.append((name, G.to_hoa(aut), None))
    for fname, base in DUP_FIXTURES:
        texts.append((fname, fixture_text(fname), base))

    check_rng = random.Random(rng.random())
    baselines = {}

    def baseline_size(f):
        key = R.to_text(f)
        if key not in baselines:
            res = G.redux(G.gf_to_gfm(G.parse(key)))
            baselines[key] = res.report.minimized.n_states
        return baselines[key]

    ops = []
    for name, text, base in texts:
        def run(text=text):
            a = G.from_hoa(text)
            res = G.redux(a)
            return a, res, json.dumps(G.pa_to_json(res.pa))

        def check(out, base=base):
            a, res, doc = out
            dba = res.dba
            mini = res.report.minimized
            require(mini.n_states <= dba.n_states,
                    f"minimised {mini.n_states} > indexed DBA {dba.n_states}")
            if base is not None:
                want = baseline_size(base)
                require(mini.n_states == want,
                        f"duplicate kept: {mini.n_states} states, baseline {want}")
            pa = R.pa_doc_as_automaton(json.loads(doc))
            require(a.alphabet.index_arity == 1, "input over an indexed alphabet")
            arity = dba.alphabet.index_arity
            for _ in range(LASSOS_PER_CHECK):
                w = random_lasso(check_rng, dba.alphabet.size)
                d = R.automaton_accepts(dba, *w)
                require(R.automaton_accepts(mini, *w) == (not d),
                        f"lasso {w}: minimised DCA disagrees with the indexed DBA")
                require(R.automaton_accepts(pa, *w) == d,
                        f"lasso {w}: PA JSON disagrees with the indexed DBA")
                if d:
                    base_w = tuple(tuple(x // arity for x in part) for part in w)
                    require(R.automaton_accepts(a, *base_w),
                            f"lasso {w}: indexed DBA accepts, input rejects")

        ops.append(Op(name, run, check, lambda out: out[1].report.minimized.n_states,
                      lambda out: repr((out[1].dba, out[1].report.minimized)) + out[2]))
    return ops


# --------------------------------------------------------------------- solve

WIN, TRAP = 0, 1
WEIGHT_DEN = 16
# the slow-mixing chain leaves its state with probability 2 * SLOW_LEAK
SLOW_LEAK = "1/100000000000"


def win_trap_mdp(rng, n_interior):
    """MDP document over atoms a, b: state 0 is a win sink labelled {a, b},
    state 1 a trap sink labelled {}, states 2.. are interior with random
    labels and 1-3 actions. Every interior action moves to one or two
    interior states and leaks to the win sink, the trap sink or both with
    positive probability (weights k/WEIGHT_DEN), so every play ends in a
    sink."""
    interior = list(range(2, n_interior + 2))
    states = [
        {"label": ["a", "b"], "actions": [{"name": "stay", "to": [[WIN, "1"]]}]},
        {"label": [], "actions": [{"name": "stay", "to": [[TRAP, "1"]]}]},
    ]
    for _ in interior:
        label = [x for x in ("a", "b") if rng.random() < 0.5]
        actions = []
        for ai in range(rng.randint(1, 3)):
            to = rng.sample(interior, rng.randint(1, 2))
            to += rng.choice(([WIN], [TRAP], [WIN, TRAP]))
            cuts = sorted(rng.sample(range(1, WEIGHT_DEN), len(to) - 1))
            weights = [b - a for a, b in zip([0] + cuts, cuts + [WEIGHT_DEN])]
            actions.append({"name": f"m{ai}",
                            "to": [[s, f"{w}/{WEIGHT_DEN}"] for s, w in zip(to, weights)]})
        states.append({"label": label, "actions": actions})
    return {"atoms": ["a", "b"], "initial": 2, "states": states}


def slow_chain_mdp():
    """One interior state that stays put with probability 1 - 2*SLOW_LEAK
    and otherwise moves to the win or the trap sink: the value is exactly
    1/2."""
    leak = SLOW_LEAK
    stay = 1 - 2 * Fraction(leak)
    return {"atoms": ["a", "b"], "initial": 2, "states": [
        {"label": ["a", "b"], "actions": [{"name": "stay", "to": [[WIN, "1"]]}]},
        {"label": [], "actions": [{"name": "stay", "to": [[TRAP, "1"]]}]},
        {"label": [], "actions": [{"name": "wait", "to": [
            [WIN, leak], [TRAP, leak], [2, str(stay)]]}]},
    ]}


SLOW_CHAIN_FAULT = ("float max_reach stops once a sweep changes no value by "
                    "1e-10, which is unsound: it returns 1e-11 for 1/2")

# interior states of the win/trap MDPs: two of each size
EXACT_SIZES = tuple(4 + i // 2 for i in range(14))
FLOAT_SIZES = tuple(10 + i // 2 for i in range(39))
ROUTES = ("gf-direct", "redux-pa", "dba-oracle")


def solve_inputs():
    """(MDP name, MDP document, goal formula, route, exact) tuples: MDPs
    solved exactly through every route ("x-"), and larger ones solved in
    float mode on the gf-direct route ("f-"), with the slow-mixing chain."""
    items = []
    for exact, prefix, sizes, routes in ((True, "x", EXACT_SIZES, ROUTES),
                                         (False, "f", FLOAT_SIZES, ROUTES[:1])):
        rng = random.Random(SOLVE_POOL_SEED * 2 + (0 if exact else 1))
        for i, n in enumerate(sizes):
            doc = win_trap_mdp(rng, n)
            goal = tdr(1 + i % 3)
            items += [(f"{prefix}-n{n}.{i % 2}", doc, goal, route, exact)
                      for route in routes]
    items.append(("f-slow-chain", slow_chain_mdp(), tdr(1), "gf-direct", False))
    return items


def rename_actions(doc, rng):
    """The same MDP with a random suffix on every action name. Renumbering
    the states would vary the inputs more, but the cost of exact Gaussian
    elimination depends on the order of the unknowns (fill-in), so seeds
    would no longer do the same work."""
    tag = f"{rng.randrange(1 << 16):x}"
    return {"atoms": doc["atoms"], "initial": doc["initial"], "states": [
        {"label": entry["label"],
         "actions": [{"name": f"{act['name']}_{tag}", "to": act["to"]}
                     for act in entry["actions"]]}
        for entry in doc["states"]]}


def build_solve(G, rng):
    ops = []
    brackets = {}
    docs = {}
    for mdp_name, doc, goal, route, exact in solve_inputs():
        if mdp_name not in docs:
            docs[mdp_name] = rename_actions(doc, rng)
        doc = docs[mdp_name]
        text = R.to_text(goal)

        def run(doc=doc, text=text, route=route, exact=exact):
            m = G.mdp_from_json(doc)
            f = G.parse(text, m.alphabet.atoms)
            if route == "gf-direct":
                prod = G.product_nba(m, G.gf_to_gfm(f, m.alphabet.atoms))
            elif route == "redux-pa":
                prod = G.product_pa(m, G.redux(G.gf_to_gfm(f, m.alphabet.atoms)).pa)
            else:
                prod = G.product_nba(m, G.gf_to_dba(f, m.alphabet.atoms))
            return prod, G.synthesize(prod, exact=exact)

        def check(out, doc=doc, key=mdp_name, exact=exact):
            prod, res = out
            if key not in brackets:
                brackets[key] = R.reach_bracket(doc, {WIN})
            lo, hi = brackets[key]
            if exact:
                require(isinstance(res.value, Fraction), "exact mode gave no fraction")
                require(lo - 1e-9 <= res.value <= hi + 1e-9,
                        f"value {res.value} outside [{lo}, {hi}]")
                require(G.induce_mc(prod, res.strategy) == res.value,
                        "the strategy does not achieve the value")
            else:
                require(lo - 1e-6 <= res.value <= hi + 1e-6,
                        f"value {res.value} outside [{lo}, {hi}] by more than 1e-6")

        ops.append(Op(f"{mdp_name}-{route}", run, check,
                      lambda out: out[0].mdp.n_states,
                      lambda out: repr((out[0].mdp.n_states, out[1].value, out[1].strategy)),
                      known_fault=SLOW_CHAIN_FAULT if mdp_name == "f-slow-chain" else None,
                      group=mdp_name if exact else None,
                      value=lambda out: out[1].value))
    return ops


def check_routes_agree(values):
    """All routes of one MDP return the same exact value; `values` holds
    (group, value) pairs of the operations that did not fail."""
    by_group = {}
    for group, value in values:
        if group is not None:
            by_group.setdefault(group, set()).add(value)
    for group, values in by_group.items():
        require(len(values) == 1, f"{group}: routes disagree: {sorted(values)}")
