"""The antipodal quotient of an odd-diameter hypercube.

Classes are antipode pairs, represented by the numerically smaller vertex;
since the antipode flips the top bit, the representatives are exactly the
integers below 2^(D-1) and double as class indices.  The dual adjacency is
built by conjugating the parent matrix through the projection and checked
against its diagonal closed form.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .acsa import ModuleActionTriple, check_relations
from .exactnum import gr
from .hypercube import CubeContext, second_dual_adjacency, weighted_adjacency
from .linalg import ExactMatrix


@dataclass(frozen=True)
class QuotientContext:
    """Antipodal quotient of Q_D for odd D = 2*calD + 1 >= 3."""

    parent: CubeContext

    def __post_init__(self):
        if self.parent.D % 2 == 0 or self.parent.D < 3:
            raise ValueError("antipodal quotient needs odd D >= 3")

    @property
    def D(self) -> int:
        return self.parent.D

    @property
    def cal_d(self) -> int:
        return self.D // 2

    @property
    def nclasses(self) -> int:
        return self.parent.nvertices >> 1

    def class_of(self, y: int) -> int:
        yp = self.parent.antipode(y)
        return y if y < yp else yp

    def classes(self):
        return range(self.nclasses)

    def distance(self, u: int, v: int) -> int:
        d = self.parent.distance(u, v)
        return min(d, self.D - d)

    def class_weight(self, u: int) -> int:
        return self.distance(self.class_of(self.parent.base_vertex), u)


def quotient(D: int) -> QuotientContext:
    return QuotientContext(CubeContext(D))


def psi_matrix(q: QuotientContext) -> ExactMatrix:
    """The projection sending a vertex to its antipode class."""
    one = gr(1)
    entries = {(q.class_of(y), y): one for y in q.parent.vertices()}
    return ExactMatrix(q.nclasses, q.parent.nvertices, entries)


def section_matrix(q: QuotientContext) -> ExactMatrix:
    """Right inverse of psi with image the symmetric half: class -> (y + y')/2."""
    half = gr(Fraction(1, 2))
    entries = {}
    for u in q.classes():
        entries[(u, u)] = half
        entries[(q.parent.antipode(u), u)] = half
    return ExactMatrix(q.parent.nvertices, q.nclasses, entries)


def push_through(q: QuotientContext, m: ExactMatrix) -> ExactMatrix:
    """phi . m . phi^(-1) for a parent matrix preserving the symmetric half."""
    return psi_matrix(q) @ m @ section_matrix(q)


@lru_cache(maxsize=None)
def quotient_adjacency(q: QuotientContext) -> ExactMatrix:
    """Brute-force adjacency: classes joined when some lifts are neighbors."""
    one = gr(1)
    entries = {}
    for u in q.classes():
        for v in q.classes():
            if u != v and q.distance(u, v) == 1:
                entries[(u, v)] = one
    return ExactMatrix(q.nclasses, q.nclasses, entries)


@lru_cache(maxsize=None)
def quotient_dual_adjacency(q: QuotientContext) -> ExactMatrix:
    """Conjugate of the parent's second dual adjacency, cross-checked against
    the closed form (-1)^i (D-2i) at quotient distance i."""
    conjugated = push_through(q, second_dual_adjacency(q.parent))
    closed = ExactMatrix.diagonal(
        [
            (-1) ** q.class_weight(u) * (q.D - 2 * q.class_weight(u))
            for u in q.classes()
        ]
    )
    if conjugated != closed:
        raise AssertionError(
            f"quotient dual adjacency of Q_{q.D}: conjugation and closed form disagree"
        )
    return conjugated


@lru_cache(maxsize=None)
def quotient_acsa_structure(q: QuotientContext) -> ModuleActionTriple:
    """x, y act as the quotient adjacency and dual adjacency; z = (xy+yx)/2.

    The relations are verified, and z is checked to be the image of the
    parent weighted adjacency matrix under the quotient map."""
    x = quotient_adjacency(q)
    y = quotient_dual_adjacency(q)
    z = (x @ y + y @ x) * Fraction(1, 2)
    triple = ModuleActionTriple(x, y, z)
    ok, detail = check_relations(triple)
    if not ok:
        raise AssertionError(f"quotient structure on Q~_{q.D} fails relations: {detail}")
    if z != push_through(q, weighted_adjacency(q.parent)):
        raise AssertionError(
            f"quotient weighted adjacency of Q~_{q.D} is not the image of the parent's"
        )
    return triple


def quotient_weighted_adjacency(q: QuotientContext) -> ExactMatrix:
    return quotient_acsa_structure(q).z_mat

