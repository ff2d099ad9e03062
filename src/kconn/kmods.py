"""Graded modules for the connective K-homology of B Z/p.

The classifying-space module over Z[v] (deg v = 2p-2) is held as a truncated
presentation; degree pieces are realised exactly as cokernels of integer
relation matrices and compared against the cyclic closed form.  The truncated
projective-space K-ring check lives here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .abelian import (
    FgAbelianGroup,
    GroupPresentation,
    _order_from_quotient,
    cokernel_group,
    element_order,
)

# a relation is a homogeneous sum of terms (coefficient, v-exponent, generator)
Term = tuple[int, int, int]
Relation = tuple[Term, ...]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


@dataclass(frozen=True)
class GradedModulePresentation:
    """Generators and homogeneous relations over Z[v], truncated at a degree.

    ``gen_degrees[i]`` is the internal degree of generator i; every relation
    is a tuple of (coefficient, v-exponent, generator index) terms landing in
    a single degree.  Only the window up to ``truncation_degree`` is
    materialised; degree realisations guard against relations escaping it.
    """

    p: int
    ring_degree: int
    gen_degrees: tuple[int, ...]
    relations: tuple[Relation, ...]
    truncation_degree: int

    def __post_init__(self):
        if self.ring_degree < 1:
            raise ValueError("ring degree must be positive")
        for deg in self.gen_degrees:
            if deg > self.truncation_degree:
                raise ValueError("generator outside the truncation window")
        for rel in self.relations:
            if not rel:
                raise ValueError("empty relation")
            degs = set()
            for coeff, exp, gi in rel:
                if exp < 0:
                    raise ValueError("negative v-exponent")
                if not 0 <= gi < len(self.gen_degrees):
                    raise ValueError("relation names a missing generator")
                degs.add(exp * self.ring_degree + self.gen_degrees[gi])
            if len(degs) != 1:
                raise ValueError("inhomogeneous relation")
        # the dataclass hash, taken once: lru caches look a module up per degree
        fields = (self.p, self.ring_degree, self.gen_degrees, self.relations, self.truncation_degree)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    def relation_degree(self, rel: Relation) -> int:
        coeff, exp, gi = rel[0]
        return exp * self.ring_degree + self.gen_degrees[gi]


@lru_cache(maxsize=None)
def lu_bzp_presentation(p: int, max_degree: int) -> GradedModulePresentation:
    """The reduced classifying-space module of Z/p over Z[v], deg v = 2p-2:
    one generator in every odd degree, p-torsion relations on the bottom
    p-1 generators, and v * g_n = p * g_{n + 2p-2} thereafter."""
    check_prime(p)
    if max_degree < 1:
        raise ValueError("degree bound must be at least 1")
    d = 2 * p - 2
    degrees = tuple(range(1, max_degree + 1, 2))
    index = {deg: i for i, deg in enumerate(degrees)}
    rels: list[Relation] = []
    for deg in degrees:
        if deg <= 2 * p - 3:
            rels.append(((p, 0, index[deg]),))
        if deg + d <= max_degree:
            rels.append(((1, 1, index[deg]), (-p, 0, index[deg + d])))
    return GradedModulePresentation(p, d, degrees, tuple(rels), max_degree)


@lru_cache(maxsize=None)
def summand_presentation(p: int, i: int, max_degree: int) -> GradedModulePresentation:
    """The cyclic-tower direct summand of the classifying-space module whose
    generators sit in degrees 2k(p-1) + 2i - 1."""
    check_prime(p)
    if not 1 <= i <= p - 1:
        raise ValueError("summand index out of range")
    d = 2 * p - 2
    degrees = []
    deg = 2 * i - 1
    while deg <= max_degree:
        degrees.append(deg)
        deg += d
    if not degrees:
        raise ValueError("window below the bottom generator")
    rels: list[Relation] = [((p, 0, 0),)]
    for j in range(len(degrees) - 1):
        rels.append(((1, 1, j), (-p, 0, j + 1)))
    return GradedModulePresentation(p, d, tuple(degrees), tuple(rels), max_degree)


@dataclass(frozen=True)
class DegreeSlice:
    """Degree-n piece of a presentation as a presented abelian group, with the
    monomial basis v^k * g recorded as (k, generator) labels."""

    degree: int
    basis: tuple[tuple[int, int], ...]
    presentation: GroupPresentation


@lru_cache(maxsize=None)
def realize_slice(module: GradedModulePresentation, n: int) -> DegreeSlice:
    if n > module.truncation_degree - module.ring_degree:
        raise ValueError(
            f"degree {n} outside the safe window of the truncated presentation"
        )
    d = module.ring_degree
    basis: list[tuple[int, int]] = []
    for gi, gdeg in enumerate(module.gen_degrees):
        rem = n - gdeg
        if rem >= 0 and rem % d == 0:
            basis.append((rem // d, gi))
    pos = {bk: idx for idx, bk in enumerate(basis)}
    rows: list[dict[int, int]] = []  # sparse: column -> coefficient
    for rel in module.relations:
        rem = n - module.relation_degree(rel)
        if rem < 0 or rem % d:
            continue
        k0 = rem // d
        row: dict[int, int] = {}
        for coeff, exp, gi in rel:
            col = pos[(k0 + exp, gi)]
            row[col] = row.get(col, 0) + coeff
        rows.append(row)
    return DegreeSlice(n, tuple(basis), GroupPresentation(len(basis), rows))


def realize_degree(module: GradedModulePresentation, n: int) -> FgAbelianGroup:
    """The degree-n piece, realised exactly as a cokernel."""
    if n < 0:
        return FgAbelianGroup.trivial()
    return realize_slice(module, n).presentation.group()


def lu_closed_form(p: int, n: int) -> FgAbelianGroup:
    """Closed form of the classifying-space module in degree n: the group is
    Z/p^(k+1) when n = 2k(p-1) + 2i - 1 with 1 <= i <= p-1, trivial else."""
    check_prime(p)
    if n < 1 or n % 2 == 0:
        return FgAbelianGroup.trivial()
    h = (n + 1) // 2  # h = k(p-1) + i with i in [1, p-1]
    i = (h - 1) % (p - 1) + 1
    k = (h - i) // (p - 1)
    return FgAbelianGroup.cyclic(p ** (k + 1))


def bu_bzp_group(p: int, n: int) -> FgAbelianGroup:
    """Reduced bu of B Z/p in degree n, reassembled from the p-1 shifted
    copies of the summand theory."""
    check_prime(p)
    parts = [lu_closed_form(p, n - 2 * a) for a in range(p - 1)]
    return FgAbelianGroup.trivial().direct_sum(*parts)


@dataclass(frozen=True)
class TruncatedKuRing:
    """Reduced K-ring of a truncated even projective space: Z[t]/(t^2 + 2t,
    t^(r+1)) spanned additively by t, t^2, ..., t^r."""

    truncation: int

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError("truncation must be at least 1")

    def presentation(self) -> GroupPresentation:
        """Z^r on t, t^2, ..., t^r (column a is t^(a+1)) modulo the ring's
        relations."""
        r = self.truncation
        rows = [{a: 2, a + 1: 1} for a in range(r - 1)]  # t^(a+2) = -2 t^(a+1)
        rows.append({r - 1: 2})  # t^(r+1) = 0 forces 2 t^r = 0
        return GroupPresentation(r, rows)

    def multiply(self, left, right) -> dict[int, int]:
        """Product of two sparse vectors on t, ..., t^r (column a is t^(a+1))."""
        out: dict[int, int] = {}
        for a, ca in left.items():
            for b, cb in right.items():
                if a + b + 1 < self.truncation:
                    out[a + b + 1] = out.get(a + b + 1, 0) + ca * cb
        return {k: c for k, c in out.items() if c}

    def reduced_group(self) -> FgAbelianGroup:
        return self.presentation().group()

    def element_order(self, vec) -> int | None:
        return element_order(self.presentation(), vec)


@dataclass(frozen=True)
class KuSmashCheck:
    """Outcome of the truncated-projective-space product check."""

    r: int
    v: int
    left_group: FgAbelianGroup
    smash_group: FgAbelianGroup
    generator_order: int | None
    generates: bool

    @property
    def passed(self) -> bool:
        expected_left = FgAbelianGroup.cyclic(2**self.r)
        expected_smash = FgAbelianGroup.cyclic(2 ** min(self.r, self.v))
        return (
            self.left_group == expected_left
            and self.smash_group == expected_smash
            and self.generates
        )


def ku_smash_check(r: int, v: int) -> KuSmashCheck:
    """Check that the reduced truncated K-rings have orders 2^r and 2^v, that
    their product group has order 2^min(r, v), and that the external class
    t (x) t generates it.

    The product is presented on t^(a+1) (x) t^(b+1), column a * v + b, by
    sparse rows: each ring's relations times each basis element of the other.
    It is eliminated twice, as it stands (G) and with t (x) t added as a
    relation (G / <t (x) t>), and the order of t (x) t is read off the pair
    as in :func:`element_order`.
    """
    if r < 1 or v < 1:
        raise ValueError("truncations must be at least 1")
    left_pres = TruncatedKuRing(r).presentation()
    right_pres = TruncatedKuRing(v).presentation()
    rows = [{a * v + b: c for a, c in rel.items()}
            for rel in left_pres.relations for b in range(v)]
    rows += [{a * v + b: c for b, c in rel.items()}
             for rel in right_pres.relations for a in range(r)]
    smash = cokernel_group(r * v, rows)
    order = _order_from_quotient(smash, cokernel_group(r * v, rows + [{0: 1}]))
    generates = (
        smash.free_rank == 0
        and len(smash.invariant_factors) <= 1
        and order == smash.order()
    )
    return KuSmashCheck(r, v, left_pres.group(), smash, order, generates)

