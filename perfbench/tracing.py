"""Spans around the package's public functions, installed from outside.

`Tracer.enable` replaces each traced function in every `gfmredux` module
namespace that binds it (so `gfg_min`'s own name for `dcw_counterexample`
is caught too) with a wrapper that records a span: name, start, end,
parent span and operation id. Spans stay in memory in flat arrays until
`write` saves them; `summary` turns them into per-layer metrics.
"""

from __future__ import annotations

import sys
import time
from array import array

# "module.function" names, the module being where the function is defined:
# the functions whose metrics BENCHMARK.json lists, and redux.redux, whose
# result holds the stage sizes
TRACED = (
    "ltl.parse", "ltl.prop_equiv", "ltl.af_step",
    "gf_direct.cosafety_to_nfa", "gf_direct.nfa_to_gfm_gf", "gf_direct.reset_subset_dba",
    "hoa.to_hoa", "hoa.from_hoa",
    "redux.redux", "redux.gfm_to_dba", "redux.nca_to_pa", "redux.pa_to_json",
    "gfg_min.minimize", "gfg_min.normalize_safety",
    "automata.dcw_counterexample", "automata.lang_partition", "automata.complete",
    "mdp.mdp_from_json", "mdp.product_nba", "mdp.product_pa",
    "mdp.mec_decompose", "mdp.max_reach", "mdp.extract_reach_strategy",
    "exact.solve_linear",
)

OP_SPAN = "op"


def _count_nfa(args, result):
    return {"gf_direct.nfa_states": result.n_states}


def _count_redux(args, result):
    sizes = {s.name: s.states for s in result.report.stages}
    return {"redux.indexed_dba_states": sizes["indexed_dba"],
            "redux.minimized_states": sizes["minimized"]}


def _count_minimize(args, result):
    return {"gfg_min.minimize.states_removed": args[0].n_states - result.n_states}


def _count_product(args, result):
    return {"mdp.product_states": result.mdp.n_states}


def _count_solve(args, result):
    return {"exact.solve_linear.unknowns": len(args[1])}


# counters read from a traced call's arguments and result
COUNTERS = {
    "gf_direct.cosafety_to_nfa": _count_nfa,
    "redux.redux": _count_redux,
    "gfg_min.minimize": _count_minimize,
    "mdp.product_nba": _count_product,
    "mdp.product_pa": _count_product,
    "exact.solve_linear": _count_solve,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self.name_id = {OP_SPAN: 0}
        self.span_name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.stack = [-1]
        self.current_op = -1
        self.patches: list[tuple[object, str, object, object]] = []

    def _open(self, nid):
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1])
        self.op_id.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def op(self, op_id, fn):
        """Run fn() traced, as operation `op_id` under a root span."""
        self.current_op = op_id
        self.enable()
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)
            self.disable()

    def _wrap(self, name, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                for key, n in counter(args, result).items():
                    tracer.counts[key] = tracer.counts.get(key, 0) + n
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def prepare(self, package):
        """Build a wrapper for each traced function and find every module
        attribute bound to it; `enable`/`disable` swap them in and out."""
        prefix = package.__name__
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == prefix or k.startswith(prefix + "."))]
        for qual in TRACED:
            mod_name, fn_name = qual.split(".")
            original = getattr(sys.modules[f"{prefix}.{mod_name}"], fn_name)
            wrapper = self._wrap(qual, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.patches.append((mod, attr, original, wrapper))

    def enable(self):
        for mod, attr, _, wrapper in self.patches:
            setattr(mod, attr, wrapper)

    def disable(self):
        for mod, attr, original, _ in self.patches:
            setattr(mod, attr, original)

    def summary(self, rounds):
        """Per-layer metrics per round: calls, self seconds and counters."""
        n = len(self.start)
        child = [0.0] * n
        in_min = [False] * n
        minimize = self.name_id.get("gfg_min.minimize")
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                in_min[i] = in_min[p] or self.span_name[p] == minimize
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        equiv_checks = 0
        dcw = self.name_id.get("automata.dcw_counterexample")
        for i in range(n):
            nid = self.span_name[i]
            calls[nid] += 1
            self_s[nid] += self.end[i] - self.start[i] - child[i]
            if nid == dcw and in_min[i]:
                equiv_checks += 1
        out = {}
        for nid, name in enumerate(self.names):
            if nid:
                out[f"{name}.calls"] = calls[nid] / rounds
                out[f"{name}.self_s"] = self_s[nid] / rounds
        for key, value in self.counts.items():
            out[key] = value / rounds
        out["gfg_min.minimize.equiv_checks"] = equiv_checks / rounds
        removed = self.counts.get("gfg_min.minimize.states_removed", 0)
        out["gfg_min.minimize.states_removed_per_check"] = (
            removed / equiv_checks if equiv_checks else 0.0)
        return out

    def write(self, path, op_names):
        """Save the spans as tab-separated lines:
        op_id, op_name, span_id, parent_id, name, start_s, end_s."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op_id\top\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                op = self.op_id[i]
                name = op_names[op % len(op_names)] if op >= 0 else ""
                fh.write(f"{op}\t{name}\t{i}\t"
                         f"{self.parent[i]}\t{self.names[self.span_name[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
