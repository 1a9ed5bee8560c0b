"""Exact-arithmetic workbench for mod-p representations of GL_2(Q_p) and
their restriction to the upper-triangular subgroup.

Subpackages: exactfield (finite fields and linear solves), padicmat (exact
2x2 matrices and coset normal forms), fqweights (GL_2(F_p) weights and
characters), compactind (compact induction with its Hecke operator),
principalseries (finite-level principal series), borellab (experiment
drivers), clireport (CLI and reports).
"""

from .exactfield import Field, FieldElem
from .padicmat import (
    Mat2,
    PadicRational,
    TreeVertex,
    bruhat_side,
    in_subgroup,
    iwasawa,
    tree_distance,
    unit_lift,
    vertex_normalize,
)
from .fqweights import TorusCharacter, Weight, induce_from_iwahori, is_irreducible
from .compactind import CindElement, HeckeIdeal, act, hecke_T, i1_fixed_ball, phi_element, quotient_membership
from .principalseries import DetSplitting, PSFunction, eigen_relation, make_phi1, make_phi2, ps_act

__all__ = [
    "Field", "FieldElem",
    "Mat2", "PadicRational", "TreeVertex", "bruhat_side", "in_subgroup",
    "iwasawa", "tree_distance", "unit_lift", "vertex_normalize",
    "TorusCharacter", "Weight", "induce_from_iwahori", "is_irreducible",
    "CindElement", "HeckeIdeal", "act", "hecke_T", "i1_fixed_ball",
    "phi_element", "quotient_membership",
    "DetSplitting", "PSFunction", "eigen_relation", "make_phi1", "make_phi2", "ps_act",
]

__version__ = "0.1.0"
