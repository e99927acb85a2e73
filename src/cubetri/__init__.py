"""Exact construction and verification of hypercube Leonard triples.

Builds the hypercube and its antipodal quotient over Q(i), realizes the
anticommutator-spin-algebra and sl2 structures on their standard modules,
decomposes them into irreducible Terwilliger modules, and certifies the
resulting totally bipartite / almost bipartite Leonard triples.
"""

from .acsa import ModuleActionTriple, ModuleType, build_canonical, check_relations, classify
from .exactnum import GaussianRational, integer_power_of_i
from .hypercube import CubeContext, cube
from .leonard import LeonardTripleCertificate, certify_triple
from .linalg import ExactMatrix, exp_nilpotent, kernel_basis, matmul, restrict
from .quotient import QuotientContext, quotient
from .sl2rep import Sl2Action, build_irreducible_sl2
from .suites import SUITES, run_suite
from .tmodules import SubmoduleBasis, decompose, quotient_modules, split_and_type

__all__ = [
    "GaussianRational",
    "integer_power_of_i",
    "ExactMatrix",
    "matmul",
    "kernel_basis",
    "exp_nilpotent",
    "restrict",
    "ModuleType",
    "ModuleActionTriple",
    "build_canonical",
    "check_relations",
    "classify",
    "Sl2Action",
    "build_irreducible_sl2",
    "CubeContext",
    "cube",
    "QuotientContext",
    "quotient",
    "SubmoduleBasis",
    "decompose",
    "split_and_type",
    "quotient_modules",
    "LeonardTripleCertificate",
    "certify_triple",
    "SUITES",
    "run_suite",
]

__version__ = "0.1.0"
