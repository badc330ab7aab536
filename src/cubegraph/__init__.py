"""Mod-9 residue analysis, De Bruijn graphs, and bounded search for
x^3 + y^3 + z^3 = k."""

__version__ = "0.1.0"
