"""The antipodal quotient of an odd-diameter hypercube.

Classes are antipode pairs, represented by the numerically smaller vertex;
since the antipode flips the top bit, the representatives are exactly the
integers below 2^(D-1) and double as class indices.  Every matrix is
built in closed form.  Each of A~, B~ and C~ is proved to be the image of
its parent matrix under the projection psi, and `quotient_acsa_structure`
proves the relations among A~, B~, C~.
"""
from __future__ import annotations

from functools import lru_cache

from .acsa import ModuleActionTriple, check_relations
from .hypercube import CubeContext, adjacency, second_dual_adjacency, weighted_adjacency
from .linalg import ExactMatrix, unit_entries
from .record import Record, _set


class QuotientContext(Record):
    """Antipodal quotient of Q_D for odd D = 2*calD + 1 >= 3."""

    __slots__ = ("parent",)

    def __init__(self, parent: CubeContext):
        if parent.D % 2 == 0 or parent.D < 3:
            raise ValueError("antipodal quotient needs odd D >= 3")
        _set(self, "parent", parent)

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
    """The projection sending a vertex to its antipode class: row u holds
    the class's two vertices u and its antipode."""
    unit = unit_entries(q.parent.nvertices)
    rows = {u: [unit[u], unit[q.parent.antipode(u)]] for u in q.classes()}
    return ExactMatrix._make(q.nclasses, q.parent.nvertices, 1, rows)


@lru_cache(maxsize=None)
def quotient_adjacency(q: QuotientContext) -> ExactMatrix:
    """Class u joined to the classes of the neighbors u ^ 2^b of its lift u;
    the other lift's neighbors are their antipodes, in the same classes.
    For D >= 3 the D classes of a row are distinct, as 2^b ^ 2^c is not
    the all-ones string.  Proved to be the image of the parent's
    adjacency: psi A == A~ psi."""
    unit = unit_entries(q.nclasses)
    rows = {u: [unit[q.class_of(u ^ (1 << b))] for b in range(q.D)] for u in q.classes()}
    a = ExactMatrix._make(q.nclasses, q.nclasses, 1, rows)
    _check_image(q, adjacency(q.parent), a, "adjacency")
    return a


@lru_cache(maxsize=None)
def quotient_dual_adjacency(q: QuotientContext) -> ExactMatrix:
    """The closed form (-1)^i (D-2i) at quotient distance i, proved to be
    the image of the parent's second dual adjacency: psi A*_{D-1} == B~ psi.
    psi is onto, so that identity fixes B~."""
    b = ExactMatrix.diagonal(
        [(-1) ** q.class_weight(u) * (q.D - 2 * q.class_weight(u)) for u in q.classes()]
    )
    _check_image(q, second_dual_adjacency(q.parent), b, "dual adjacency")
    return b


@lru_cache(maxsize=None)
def quotient_weighted_adjacency(q: QuotientContext) -> ExactMatrix:
    """C~ in closed form: row u is row u of the parent's C folded by
    `class_of`, (-1)^wt(u & z) at the class of each neighbour z = u ^ 2^b,
    proved to be the image of the parent's weighted adjacency:
    psi C == C~ psi.  `quotient_acsa_structure` proves C~ = (A~B~ + B~A~)/2."""
    n = q.nclasses
    signed = (unit_entries(n), unit_entries(n, -1))
    masks = [1 << b for b in range(q.D)]
    c = ExactMatrix._make(n, n, 1, {
        u: [signed[(u & ~m).bit_count() & 1][q.class_of(u ^ m)] for m in masks] for u in q.classes()
    })
    _check_image(q, weighted_adjacency(q.parent), c, "weighted adjacency")
    return c


def _check_image(q: QuotientContext, parent_m: ExactMatrix, m: ExactMatrix, what: str) -> None:
    psi = psi_matrix(q)
    if psi @ parent_m != m @ psi:
        raise AssertionError(f"quotient {what} of Q~_{q.D} is not the image of the parent's")


@lru_cache(maxsize=None)
def quotient_acsa_structure(q: QuotientContext) -> ModuleActionTriple:
    """x, y and z act as the quotient adjacency, dual adjacency and weighted
    adjacency.  The relations are verified, xy+yx = 2z among them."""
    triple = ModuleActionTriple(
        quotient_adjacency(q), quotient_dual_adjacency(q), quotient_weighted_adjacency(q)
    )
    ok, detail = check_relations(triple)
    if not ok:
        raise AssertionError(f"quotient structure on Q~_{q.D} fails relations: {detail}")
    return triple
