"""Degree-wise tensor and Tor over the graded coefficient ring.

Both are homology of one complex per degree, Tot = F (x) G'.  F presents the
first factor m, free over Z[v]; G' is the Morse reduction of the second
factor N, read slice by slice from :func:`kmods.realize_slice`.  H0 of Tot
is m (x) N.  H1 is Tor_1(m, N) when the relations of both factors are
independent over Z[v], as for the classifying-space module, the direct sum
of its cyclic-tower summands: for N this is checked, for m the caller
guarantees it.  H1 is read off the Morse reduction of Tot by the matching
of m that kmods applies to slices: a relation r of m with top term
unit v^a g pairs each cell r (x) y with g (x) v^a y, so d2' has rows only
for the unmatched relations, p - 1 of them for lu.  No kernel is computed
(as in Dumas, Saunders & Villard, J. Symbolic Comput. 32, 2001): Tot0 is
free, so ker d1 is a direct summand of the critical part of Tot1, and H1
has the torsion of coker d2' and its free rank less the matched pairs and
rank d1.
The short exact sequence then assembles the K-homology of the smash square,
which is cross-checked against the direct-sum decomposition.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import Record
from .abelian import FgAbelianGroup, _canonical, cokernel_group
from .kmods import (
    DegreeSlice,
    GradedModulePresentation,
    _ku_degrees,
    _lu_window,
    _matching,
    bu_bzp_group,
    check_prime,
    realize_slice,
    summand_presentation,
)


def _offsets(blocks: dict[int, DegreeSlice], field: str, start: int = 0):
    """Where the ``field`` block of each generator or relation starts, from
    ``start`` on, and where the last one ends."""
    out = {}
    for i, slc in blocks.items():
        out[i], start = start, start + len(getattr(slc, field))
    return out, start


class _Tot:
    """Degree n of Tot = F (x) G' for the presentation F of ``m`` and the
    reduction G' of ``n_mod``.  A generator or relation of ``m`` in degree
    e <= n contributes blocks from the slice of G' in degree n - e.  Tot1's
    basis is F1 (x) G'0, then F0 (x) G'1.  Both factors must live over one
    graded ring, and degree n must lie within the truncation of both."""

    def __init__(self, m: GradedModulePresentation, n_mod: GradedModulePresentation, n: int):
        if m.p != n_mod.p or m.ring_degree != n_mod.ring_degree:
            raise ValueError("presentations live over different graded rings")
        if n > min(m.truncation_degree, n_mod.truncation_degree):
            raise ValueError(f"degree {n} outside the safe window of the factors")
        self.m, self.slices = m, {e: realize_slice(n_mod, n - e)
                                  for e in {*m.gen_degrees, *m.relation_degrees} if e <= n}
        self.gens = {g: self.slices[e] for g, e in enumerate(m.gen_degrees) if e <= n}
        self.rels = {r: self.slices[e] for r, e in enumerate(m.relation_degrees) if e <= n}
        self.gen0, self.n0 = _offsets(self.gens, "cells")
        self.rel0, n_rel0 = _offsets(self.rels, "cells")
        self.gen1, self.n1 = _offsets(self.gens, "cells1", n_rel0)

    def d1_rank_bound(self) -> int:
        """The rank of the block-diagonal rows g (x) y of d1: a lower bound
        on rank d1, and rank d1 itself when it reaches dim Tot0."""
        return sum(slc.rank for slc in self.gens.values())

    def d1(self) -> list[dict[int, int]]:
        """d1(r (x) x) = sum of c g (x) NF(v^k x) over the terms (c, k, g) of
        r, and d1(g (x) y) = g (x) d'y."""
        rows = []
        for r, slc in self.rels.items():
            for j, h in slc.cells:
                row: dict[int, int] = {}
                for c, k, g in self.m.relations[r]:
                    for col, x in self.gens[g].nf[j + k, h]:
                        row[self.gen0[g] + col] = row.get(self.gen0[g] + col, 0) + c * x
                rows.append(row)
        return rows + [{self.gen0[g] + col: x for col, x in b}
                       for g, slc in self.gens.items() for b in slc.boundary]

    def reduced_d2(self) -> tuple[list[dict[int, int]], int]:
        """(rows, pairs): d2' of the Morse reduction of Tot by the matching of
        ``m``, and how many cell pairs it takes out.  A relation r' whose top
        term is unit v^a g pairs each cell r' (x) y with g (x) v^a y, critical
        in G'1 since G' is v-stable, so rows come only from the unmatched
        relations.  d2(r (x) y) is the sum of c g (x) v^k y over the terms
        (c, k, g) of r, less r (x) d'y.  A matched cell g (x) v^a y that a
        row reaches stands for unit (r' (x) d'y - sum of c h (x) v^b y over
        the other terms (c, b, h) of r'), whose cells have lower
        v-exponents, so one walk over the pending cells, highest exponent
        first and coalesced, ends on critical cells."""
        match, relations = _matching(self.m), self.m.relations
        rels, rel0, gens, gen1 = self.rels, self.rel0, self.gens, self.gen1
        matched = {r for r, _, _ in match.values()}
        pairs, rows = 0, []
        for r, slc in rels.items():
            if r in matched:
                pairs += len(slc.cells1)
                continue
            for (j, t), i in slc.cells1.items():
                row = {rel0[r] + col: -x for col, x in slc.boundary[i]}
                pending: dict[tuple[int, int], int] = {}  # (v-exponent, g): coefficient
                for c, k, g in relations[r]:
                    pending[j + k, g] = pending.get((j + k, g), 0) + c
                while pending:
                    e, g = key = max(pending)
                    x = pending.pop(key)
                    if not x:
                        continue
                    if g not in match or e < match[g][1]:
                        row[gen1[g] + gens[g].cells1[e, t]] = x
                        continue
                    r2, a, unit = match[g]
                    x *= unit
                    off, slc2 = rel0[r2], rels[r2]
                    for col, y in slc2.boundary[slc2.cells1[e - a, t]]:
                        row[off + col] = row.get(off + col, 0) + x * y
                    for c, b, h in relations[r2]:
                        if b < a:
                            pending[e - a + b, h] = pending.get((e - a + b, h), 0) - x * c
                rows.append(row)
        return rows, pairs


@lru_cache(maxsize=None)
def tensor_degree(
    m: GradedModulePresentation, n_mod: GradedModulePresentation, n: int
) -> FgAbelianGroup:
    """Degree-n piece of the tensor product over Z[v]: H0 of Tot, the
    cokernel of d1."""
    tot = _Tot(m, n_mod, n)
    return cokernel_group(tot.n0, tot.d1())


@lru_cache(maxsize=None)
def tor1_degree(
    m: GradedModulePresentation, n_mod: GradedModulePresentation, n: int
) -> FgAbelianGroup:
    """Degree-n piece of the first derived functor over Z[v]: H1 of Tot, read
    off coker d2' on the Morse reduction of Tot, the cell pairs it takes
    out, and rank d1.  The matched Tot1 cells are columns that no row of
    d2' meets, so they count in the free rank of the cokernel and are
    subtracted again.  It is Tor_1 only when the relations of ``m`` are
    independent over Z[v]; the caller guarantees it.  Raises
    ``ValueError`` when those of ``n_mod`` are not, as a slice shows."""
    tot = _Tot(m, n_mod, n)
    if any(s.rank < len(s.cells1) for s in tot.slices.values()):
        raise ValueError("relations of the second factor are dependent over Z[v]")
    rows, pairs = tot.reduced_d2()
    h1 = cokernel_group(tot.n1, rows)
    # the block-diagonal bound is rank d1 when it reaches dim Tot0
    exact = tot.d1_rank_bound() == tot.n0
    rank_d1 = tot.n0 if exact else tot.n0 - tensor_degree(m, n_mod, n).free_rank
    return _canonical(h1.free_rank - pairs - rank_d1, h1.invariant_factors)


def tor_closed_form(p: int, i: int, internal_degree: int) -> FgAbelianGroup:
    """Closed form of the summand Tor piece: cyclic of order p^(t+1) where
    the internal degree 2m satisfies 2m - 2i + 1 = 2t(p-1) + 2j - 1."""
    check_prime(p)
    if not 1 <= i <= p - 1:
        raise ValueError("summand index out of range")
    if internal_degree % 2 or internal_degree < 2 * i - 1:
        return FgAbelianGroup.trivial()
    m = internal_degree // 2
    t = (m - i) // (p - 1)
    return FgAbelianGroup.cyclic(p ** (t + 1))


def _check_tor_args(p: int, method: str) -> None:
    """Reject a p that is not prime and an unknown Tor method, in every
    degree, before any degree has a chance to answer 0."""
    check_prime(p)
    if method not in ("resolution", "closed_form"):
        raise ValueError(f"unknown Tor method {method!r}")


def tor_summand_group(p: int, i: int, internal_degree: int) -> FgAbelianGroup:
    """Tor piece for one summand at one internal degree, via the resolution;
    :func:`tor_closed_form` is its certified closed form.  Below the bottom
    generator the complex is empty, so its H1 is 0, as the closed form says."""
    if internal_degree < 2 * i - 1:
        return tor_closed_form(p, i, internal_degree)
    lu = _lu_window(p, internal_degree)
    return tor1_degree(summand_presentation(p, i, lu.truncation_degree), lu, internal_degree)


def wedge_count(p: int, n: int) -> int:
    """Number of mod-p wedge classes in degree n of the decomposition:
    triples (a, i, j) with 0 <= a <= p-2, i, j >= 1 and 2a + 2i + 2j - 2 = n,
    m // 2 of them for each shift 2a that reaches degree n, m = n - 2a."""
    return sum(m // 2 for m in _ku_degrees(p, n)) if n % 2 == 0 else 0


def tensor_part(p: int, n: int) -> FgAbelianGroup:
    """Tensor half of the smash answer in total degree n, reassembled over
    the shifted summand copies; nonzero only in even degrees.  Each shift is
    read from its own window, as in :func:`tor_part`, so a sweep computes
    each degree once."""
    parts = [tensor_degree(lu, lu, deg)
             for deg in _ku_degrees(p, n) for lu in [_lu_window(p, deg)]]
    return FgAbelianGroup.trivial().direct_sum(*parts)


def tor_part(p: int, n: int, method: str = "resolution") -> FgAbelianGroup:
    """Torsion half of the smash answer in total degree n: the Tor term of the
    classifying-space module with itself at internal degree n - 1 - 2a over
    the shifted summand copies; nonzero only in odd degrees.  The closed form
    reads each internal degree as the sum of its summand pieces."""
    _check_tor_args(p, method)
    parts = []
    for internal in _ku_degrees(p, n - 1):
        if method == "resolution":
            lu = _lu_window(p, internal)
            parts.append(tor1_degree(lu, lu, internal))
        else:  # summand i is 0 below its bottom generator, 2i - 1
            parts.extend(tor_closed_form(p, i, internal)
                         for i in range(1, min(p, (internal + 1) // 2 + 1)))
    return FgAbelianGroup.trivial().direct_sum(*parts)


def kunneth_smash_group(p: int, n: int, method: str = "resolution") -> FgAbelianGroup:
    """Reduced bu of the smash square of B Z/p in degree n, assembled from the
    short exact sequence: the tensor term carries the even degrees and the
    shifted Tor term the odd ones, so no extension problem arises."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    _check_tor_args(p, method)
    if n % 2 == 0:
        return tensor_part(p, n)
    return tor_part(p, n, method)


class KunnethRecord(Record):
    degree: int
    tensor: FgAbelianGroup
    tor: FgAbelianGroup
    assembled: FgAbelianGroup
    crosscheck: FgAbelianGroup
    ok: bool


class KunnethReport(Record):
    p: int
    n_max: int
    records: tuple[KunnethRecord, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.records)


def decomposition_crosscheck(p: int, n: int) -> FgAbelianGroup:
    """Right-hand side of the decomposition: shifted classifying-space copies
    plus the elementary wedge part."""
    parts = [bu_bzp_group(p, m) for m in _ku_degrees(p, n - 2)]
    parts.append(
        FgAbelianGroup.from_cyclic_orders(0, [p] * wedge_count(p, n))
    )
    return FgAbelianGroup.trivial().direct_sum(*parts)


def verify_bu_decomposition(p: int, n_max: int) -> KunnethReport:
    """Degree-wise comparison of the assembled smash groups against the
    direct-sum decomposition; failures are recorded verdicts, not errors."""
    check_prime(p)
    records = []
    for n in range(n_max + 1):
        tens = tensor_part(p, n) if n % 2 == 0 else FgAbelianGroup.trivial()
        tor = tor_part(p, n) if n % 2 else FgAbelianGroup.trivial()
        assembled = tens.direct_sum(tor)
        cross = decomposition_crosscheck(p, n)
        records.append(KunnethRecord(n, tens, tor, assembled, cross, assembled == cross))
    return KunnethReport(p, n_max, tuple(records))
