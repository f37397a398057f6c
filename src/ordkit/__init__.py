"""Constructive ordinal computation below epsilon-0.

CNF arithmetic, interval sets with order types, explicit codings
(pairing, finite sets, two-sided-injection bijections), abstract
carriers with presented surjection families, the omega-product
reduction engine, and diagonalization refuters.
"""

from .core import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    classify,
    compare,
    fmt,
    left_subtract,
    multiply,
    omega_power,
    parse,
    parse_template,
    power_nat,
)
from .intervals import OrdinalSet, indecomposable_split

__all__ = [
    "Ordinal",
    "ZERO",
    "ONE",
    "OMEGA",
    "parse",
    "parse_template",
    "fmt",
    "compare",
    "add",
    "multiply",
    "omega_power",
    "power_nat",
    "left_subtract",
    "classify",
    "OrdinalSet",
    "indecomposable_split",
]
