"""Exact structure constants for Gelfand-Graev Hecke algebras of adjoint
Chevalley groups of types A2 and B2 over small finite fields."""

from .gf import Field, make_field, field_from_dict
from .cyclo import CycloNum, phi, gauss_sum, quad_char_sum, kloosterman
from .rootsys import RootSystem, WeylElem, WeylGroup, root_system, weyl_group
from .chevalley import Group, GroupElem, chevalley_group

__all__ = [
    "Field",
    "make_field",
    "field_from_dict",
    "CycloNum",
    "phi",
    "gauss_sum",
    "quad_char_sum",
    "kloosterman",
    "RootSystem",
    "WeylElem",
    "WeylGroup",
    "root_system",
    "weyl_group",
    "Group",
    "GroupElem",
    "chevalley_group",
]
