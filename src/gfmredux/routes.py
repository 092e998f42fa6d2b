"""The routes from a GF(co-safety) goal to an MDP product: each builds one
automaton for the goal; all give the same optimal value."""

from typing import Callable, NamedTuple

from .gf_direct import gf_to_dba, gf_to_gfm
from .mdp import product_nba, product_pa
from .redux import redux


class Route(NamedTuple):
    column: str  # its `gfmredux bench` column
    build: Callable  # (formula, atoms or None) -> automaton
    product: Callable  # (mdp, automaton) -> ProductMdp


# in `bench` column order
ROUTES = {
    "gf-direct": Route("gfm", gf_to_gfm, product_nba),
    "dba-oracle": Route("reset_dba", gf_to_dba, product_nba),
    "redux-pa": Route("redux_min", lambda f, atoms: redux(gf_to_gfm(f, atoms)).pa,
                      product_pa),
}
