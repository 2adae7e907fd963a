"""Exact computations with separated monic representations over bound quivers.

The package builds up in layers: exact F_p linear algebra (``exactla``),
path combinatorics of bound quivers (``quiver``), the homological engine
with monomial bound quiver algebras as its first presentation (``bqa``),
tensor algebras as its second, read as layered representations
(``layered``), named verification suites (``harness``), and a
text-format CLI (``cli``).
"""

from .exactla import FpMatrix, Subspace
from .quiver import Arrow, MonomialIdeal, Path, Quiver, make_path
from .bqa import Algebra, Certificate, Hom, Module
from .layered import ClassPredicate, LayeredModule, TensorContext, Triple

__version__ = "0.1.0"

__all__ = [
    "FpMatrix",
    "Subspace",
    "Arrow",
    "MonomialIdeal",
    "Path",
    "Quiver",
    "make_path",
    "Algebra",
    "Certificate",
    "Hom",
    "Module",
    "ClassPredicate",
    "LayeredModule",
    "TensorContext",
    "Triple",
    "__version__",
]
