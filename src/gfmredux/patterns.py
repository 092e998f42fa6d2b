"""Scalable benchmark formula families."""

from __future__ import annotations

import string
from typing import Sequence

from .ltl import (
    LtlError,
    LtlFormula,
    always,
    atom,
    atoms_named,
    ev,
    land,
    lnot,
    lor,
    nxt,
    until,
)

FAMILIES = ("TDR", "LIB", "BRP", "EHP", "NU", "LFR", "NCS")


def _xpow(f: LtlFormula, n: int) -> LtlFormula:
    for _ in range(n):
        f = nxt(f)
    return f


def _tdr(n: int) -> LtlFormula:
    ap = atoms_named("a", "b")
    return always(ev(land(atom(ap, "a"), _xpow(atom(ap, "b"), n))))


def _lib(n: int) -> LtlFormula:
    ap = atoms_named(*(f"a{i}" for i in range(1, n + 1)))
    parts = []
    for i in range(1, n + 1):
        a = atom(ap, f"a{i}")
        parts.append(land(a, nxt(lnot(a))))
        parts.append(land(lnot(a), nxt(a)))
    return always(ev(lor(*parts)))


def _brp(n: int) -> LtlFormula:
    ap = atoms_named("msg_sent", "ack_send", "ack_rev")
    ack = atom(ap, "ack_rev")
    phi = ack
    for _ in range(n):
        phi = lor(ack, nxt(phi))
    body = ev(land(atom(ap, "ack_send"), phi))
    return always(lor(lnot(atom(ap, "msg_sent")), body))


def _ehp() -> LtlFormula:
    ap = atoms_named("a", "b", "c", "d", "e", "f", "g")
    a, b, c, d, e, f, g = (atom(ap, x) for x in "abcdefg")
    return until(a, land(b, nxt(land(c, ev(land(d, nxt(ev(
        land(e, nxt(ev(land(f, nxt(ev(g))))))))))))))


def _nu(n: int) -> LtlFormula:
    ap = atoms_named(*(f"p{i}" for i in range(1, n + 2)))
    p = [atom(ap, f"p{i}") for i in range(1, n + 2)]
    phi = until(p[n - 1], p[n])
    for k in range(n - 2, -1, -1):
        phi = until(p[k], land(p[k + 1], phi))
    return always(lor(lnot(p[0]), phi))


def _lfr(n: int) -> LtlFormula:
    ap = atoms_named(*(f"b{i}" for i in range(1, n + 1)),
                     *(f"a{i}" for i in range(1, n + 1)))
    reach = atom(ap, f"b{n}")
    for i in range(n - 1, 0, -1):
        reach = land(atom(ap, f"b{i}"), ev(reach))
    burst = atom(ap, f"a{n}")
    for i in range(n - 1, 0, -1):
        burst = land(atom(ap, f"a{i}"), nxt(burst))
    return land(ev(reach), always(ev(burst)))


def _ncs(offsets: Sequence[int]) -> LtlFormula:
    names = string.ascii_lowercase[: len(offsets) + 1]
    ap = atoms_named(*names)
    parts = [atom(ap, names[0])]
    total = 0
    for i, k in enumerate(offsets):
        total += k
        parts.append(_xpow(atom(ap, names[i + 1]), total))
    return always(ev(land(*parts)))


def gen_pattern(family: str, params: Sequence[int] = ()) -> LtlFormula:
    """Instantiate a benchmark family.

    TDR/LIB/BRP/NU/LFR take one size parameter, EHP takes none, NCS takes a
    list of X-offsets.  All parameters must be >= 1.
    """
    fam = family.upper()
    if fam not in FAMILIES:
        raise LtlError(f"unknown family {family!r}; choose from {FAMILIES}")
    params = tuple(int(p) for p in params)
    if any(p < 1 for p in params):
        raise LtlError(f"pattern parameters must be >= 1, got {params}")
    if fam == "EHP":
        if params:
            raise LtlError("EHP takes no parameters")
        return _ehp()
    if fam == "NCS":
        if not params:
            raise LtlError("NCS needs at least one offset")
        return _ncs(params)
    if len(params) != 1:
        raise LtlError(f"{fam} takes exactly one parameter, got {params}")
    n = params[0]
    return {"TDR": _tdr, "LIB": _lib, "BRP": _brp, "NU": _nu, "LFR": _lfr}[fam](n)
