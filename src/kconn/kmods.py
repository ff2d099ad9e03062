"""Graded modules for the connective K-homology of B Z/p.

The classifying-space module over Z[v] (deg v = 2p-2) has a presentation
F' with one generator in every odd degree, which :class:`LuModule` lists
through any degree by index arithmetic, with no truncation.  Its degree
pieces are built once, as slices of an algebraic Morse reduction
(Skoldberg, Trans. AMS 358, 2006): a relation
whose strictly highest v-exponent term is +-1 on a generator g is matched
with g, at most one relation per generator.  The matched cells v^k r,
v^(k+a) g span an acyclic, v-stable subcomplex M, so G' = F'/M is a complex
of Z[v]-modules quasi-isomorphic to F', free over Z on the critical cells,
with boundary d' = NF o d.  Its H0 in degree n, a cokernel, is the degree-n
piece of the module, compared against the cyclic closed form; the Kunneth
complex reads the same slices.  The truncated projective-space K-ring check
lives here as well: each ring is presented on what one peel of its
relations keeps (``abelian._peeled``), the generator t alone, and the
check tensors those one-column presentations, so that the content peel
takes the whole product lattice and its quotient by t (x) t.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from ._record import Record
from .abelian import FgAbelianGroup, _order_from_quotient, _peeled, cokernel_group

Row = tuple[tuple[int, int], ...]  # sparse (column, value) pairs


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=64)
def check_prime(p: int) -> None:
    # trial division stays fast below 2^32 (under 10 ms at its largest prime);
    # a refusal raises, so the cache holds primes only
    if p >= 2**32:
        raise ValueError(f"p must be below 2**32, got {p}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


class LuModule(Record):
    """The classifying-space module of Z/p over Z[v], deg v = 2p-2, in every
    degree: generator g_k in degree 2k+1, the relation ("p", k), p g_k, on
    the bottom p-1 generators, and ("v", k), v g_k - p g_(k+p-1), on each.
    Summand i, 1 <= i <= p-1, is the cyclic tower on the residue class of
    generators in degrees 2k(p-1) + 2i - 1 and the relations on them;
    summand 0 is all of lu.  Build it through :func:`lu_module`, which
    interns it; the hash is taken once, since lru caches look a module up
    per degree."""

    p: int
    summand: int = 0

    def __post_init__(self):
        check_prime(self.p)
        if not 0 <= self.summand <= self.p - 1:
            raise ValueError("summand index out of range")
        # derived values, not fields
        object.__setattr__(self, "ring_degree", 2 * self.p - 2)
        object.__setattr__(self, "_hash", hash((self.p, self.summand)))

    def __hash__(self) -> int:
        return self._hash

    def through(self, e: int) -> tuple[dict, dict, dict]:
        """(gens, relations, matching) of degree at most e, by index
        arithmetic: {k: degree of g_k}, {name: (terms, degree)} in the order
        p g_k, v g_k for each k in turn, a term being (coefficient,
        v-exponent, generator), and the Morse matching
        {k: (("v", k), 1, 1)}, each v-relation with its unit top term."""
        p, d, i = self.p, self.ring_degree, self.summand
        gens, rels, match = {}, {}, {}
        for k in range(max(i - 1, 0), (e + 1) // 2, p - 1 if i else 1):
            gens[k] = deg = 2 * k + 1
            if k < p - 1:
                rels["p", k] = ((p, 0, k),), deg
            if deg + d <= e:
                rels["v", k] = ((1, 1, k), (-p, 0, k + p - 1)), deg + d
                match[k] = ("v", k), 1, 1
        return gens, rels, match


@lru_cache(maxsize=None)
def lu_module(p: int, summand: int = 0) -> LuModule:
    """The interned :class:`LuModule` of (p, summand)."""
    return LuModule(p, summand)


class DegreeSlice(NamedTuple):
    """Degree e of G'.  ``cells`` are the critical 0-cells (k, g), standing
    for v^k g; ``nf`` writes every 0-cell of degree e over them; ``cells1``
    indexes the critical 1-cells (k, r), standing for v^k r, whose reduced
    boundaries are ``boundary``; ``rank`` is the rank of that boundary, and
    ``h0`` its cokernel, the degree-e piece of the module."""

    cells: tuple[tuple[int, int], ...]
    nf: MappingProxyType[tuple[int, int], Row]
    cells1: MappingProxyType[tuple[int, int], int]
    boundary: tuple[Row, ...]
    rank: int
    h0: FgAbelianGroup


@lru_cache(maxsize=None)
def realize_slice(module: LuModule, e: int) -> DegreeSlice:
    """Degree e of the Morse reduction G' of ``module``, shared by
    :func:`realize_degree` and every tensor and Tor degree whose blocks
    include it.  The module is read through ``ring_degree`` and
    ``through(e)`` alone.  0-cells are reduced by increasing v-exponent:
    the other terms of a matched cell's relation have smaller exponents in
    the same degree, so they are in normal form."""
    gens, relations, match = module.through(e)
    d = module.ring_degree
    cells, nf = [], {}
    for j, g in sorted(((e - deg) // d, g) for g, deg in gens.items() if (e - deg) % d == 0):
        if g not in match or j < match[g][1]:
            nf[j, g] = ((len(cells), 1),)
            cells.append((j, g))
            continue
        r, a, unit = match[g]
        row: dict[int, int] = {}
        for c, b, h in relations[r][0]:
            for col, x in nf[j - a + b, h] if b < a else ():
                row[col] = row.get(col, 0) - unit * c * x
        nf[j, g] = tuple((col, x) for col, x in row.items() if x)
    matched = {r for r, _, _ in match.values()}
    cells1, boundary = {}, []
    for r, (rel, deg) in relations.items():
        j, rem = divmod(e - deg, d)
        if r not in matched and not rem:
            row = {}
            for c, b, h in rel:
                for col, x in nf[j + b, h]:
                    row[col] = row.get(col, 0) + c * x
            cells1[j, r] = len(boundary)
            boundary.append(tuple((col, x) for col, x in row.items() if x))
    h0 = cokernel_group(len(cells), [dict(b) for b in boundary])
    return DegreeSlice(tuple(cells), MappingProxyType(nf), MappingProxyType(cells1),
                       tuple(boundary), len(cells) - h0.free_rank, h0)


def realize_degree(module: LuModule, n: int) -> FgAbelianGroup:
    """The degree-n piece, realised exactly as the cokernel of the reduced
    boundary (the reduction keeps H0), which its slice already holds."""
    if n < 0:
        return FgAbelianGroup.trivial()
    return realize_slice(module, n).h0


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


def _ku_degrees(p: int, n: int) -> range:
    """Degrees n - 2a, 0 <= a <= p-2, that the p-local splitting
    ku = (+) S^(2a) lu reads in degree n, down to 0; p is checked once."""
    check_prime(p)
    return range(n, n - 2 * min(p - 1, max(n // 2 + 1, 0)), -2)


def bu_bzp_group(p: int, n: int) -> FgAbelianGroup:
    """Reduced bu of B Z/p in degree n: the sum of the summand theory over
    the shifted copies that reach degree n."""
    parts = [lu_closed_form(p, m) for m in _ku_degrees(p, n)]
    return FgAbelianGroup.trivial().direct_sum(*parts)


def _ku_ring_relations(r: int) -> list[dict[int, int]]:
    """Relation rows of the reduced K-ring of a truncated even projective
    space, Z[t]/(t^2 + 2t, t^(r+1)), on t, t^2, ..., t^r (column a is
    t^(a+1)): t^(a+2) = -2 t^(a+1), and t^(r+1) = 0 forces 2 t^r = 0."""
    return [{a: 2, a + 1: 1} for a in range(r - 1)] + [{r - 1: 2}]


@lru_cache(maxsize=16)
def _ku_ring(r: int) -> tuple[FgAbelianGroup, int, tuple[Row, ...]]:
    """The reduced truncated K-ring's group and its presentation on what one
    peel that keeps t leaves, t as column 0 (:func:`abelian._peeled`),
    built once per truncation: :func:`ku_smash_check` reads them for every
    v.  Each relation 2 t^(a+1) + t^(a+2) holds a unit at t^(a+2), so the
    peel takes out every generator but t, which keeps the one relation
    +-2^r t."""
    ncols, rows = _peeled(r, _ku_ring_relations(r), 0)
    return cokernel_group(ncols, [dict(row) for row in rows]), ncols, rows


class KuSmashCheck(Record):
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

    Each ring is presented on what one peel that keeps t leaves of it
    (:func:`_ku_ring`), and the product is presented on the products of the
    two kept bases, column i * n + j for the left ring's column i and the
    right ring's column j of n: each ring's rows times each basis element of
    the other.  Tensoring is right exact, so this presents the product of
    the two rings, and t (x) t is column 0; each ring keeps one column, so
    the lattice is 1 x 1, and G and G / <t (x) t> are two cokernels of it,
    the second with the relation t (x) t added, which the content peel
    takes whole.  The order of t (x) t is |G| / |G / <t (x) t>|, by
    :func:`abelian._order_from_quotient`.
    """
    if r < 1 or v < 1:
        raise ValueError("truncations must be at least 1")
    left, m, left_rows = _ku_ring(r)
    _, n, right_rows = _ku_ring(v)
    rows = [{i * n + j: c for i, c in row} for row in left_rows for j in range(n)]
    rows += [{i * n + j: c for j, c in row} for row in right_rows for i in range(m)]
    smash = cokernel_group(m * n, rows)
    quotient = cokernel_group(m * n, [*rows, {0: 1}])
    order = _order_from_quotient(smash, quotient)
    generates = (
        smash.free_rank == 0
        and len(smash.invariant_factors) <= 1
        and order == smash.order()
    )
    return KuSmashCheck(r, v, left, smash, order, generates)
