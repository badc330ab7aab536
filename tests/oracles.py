"""Reference builders shared by the test modules."""

from itertools import product

from cubegraph.debruijn import DeBruijnGraph, check_order


def build_graph(alphabet, order) -> DeBruijnGraph:
    """The full De Bruijn graph B(alphabet, order) as an explicit edge set:
    all k^(n-1) nodes and all k^n edges.  The program needs no full graph;
    the tests compare its graph-free paths with this one."""
    check_order(alphabet, order)
    return DeBruijnGraph(alphabet, order, frozenset(map("".join, product(alphabet.symbols, repeat=order))))
