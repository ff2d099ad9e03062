"""Exact linear algebra over Z.

Presented abelian groups, kernels and cokernels, and the invariant-factor
canonical form that every other module reports its answers in.  All
arithmetic uses Python's arbitrary-precision integers; nothing is ever
rounded.

Two elimination cores do all the work.  :func:`_invariant_factors` computes
invariants: every cokernel, and through it every group order and element
order, goes through this one sparse elimination, which keeps no coordinate
changes.  :func:`cokernel_group` hands it relations given either as an
:class:`IntegerMatrix` or as sparse rows (mappings column -> value), so a
builder whose relations are almost all zero never materialises them densely.
:func:`_echelon` computes lattice bases: an integer row echelon behind
kernels, quotients, the well-definedness check of :class:`AbelianGroupMap`
and the coordinate changes of :func:`simplify_presentation`.  Each echelon
basis gets one leading-column map (:func:`_leads`), which every vector solved
against that basis then shares.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, prod


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b) and g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


class IntegerMatrix:
    """Immutable dense matrix of arbitrary-precision integers."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols: int | None = None):
        data = tuple(tuple(map(int, row)) for row in entries)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("rows have unequal lengths")
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with rows")
        else:
            width = 0 if cols is None else cols
        if width < 0:
            raise ValueError("negative column count")
        self.entries = data
        self.rows = len(data)
        self.cols = width

    def __eq__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return self.cols == other.cols and self.entries == other.entries

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __repr__(self):
        return f"IntegerMatrix({[list(r) for r in self.entries]!r})"

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]


@dataclass(frozen=True)
class FgAbelianGroup:
    """Canonical form of a finitely generated abelian group.

    ``free_rank`` copies of Z plus cyclic parts Z/d_1 + ... + Z/d_k where the
    invariant factors satisfy 1 < d_1 | d_2 | ... | d_k.  The pair is a
    complete isomorphism invariant, so equality of instances is isomorphism.
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        factors = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        for d in factors:
            if d <= 1:
                raise ValueError("invariant factors must exceed 1")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")

    @classmethod
    def trivial(cls) -> "FgAbelianGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FgAbelianGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n: int) -> "FgAbelianGroup":
        if n == 0:
            return cls(1, ())
        n = abs(n)
        return cls(0, ()) if n == 1 else cls(0, (n,))

    @classmethod
    def from_cyclic_orders(cls, free_rank: int, orders) -> "FgAbelianGroup":
        """Canonicalise an arbitrary list of cyclic orders (0 meaning Z)."""
        by_prime: dict[int, list[int]] = {}
        rank = free_rank
        for d in orders:
            d = abs(int(d))
            if d == 0:
                rank += 1
                continue
            if d == 1:
                continue
            for p, e in _factorize(d).items():
                by_prime.setdefault(p, []).append(e)
        if not by_prime:
            return cls(rank, ())
        for exps in by_prime.values():
            exps.sort(reverse=True)
        width = max(len(v) for v in by_prime.values())
        factors = []
        for slot in range(width):
            d = prod(p ** exps[slot] for p, exps in by_prime.items() if slot < len(exps))
            factors.append(d)
        factors.reverse()
        return cls(rank, tuple(factors))

    def direct_sum(self, *others: "FgAbelianGroup") -> "FgAbelianGroup":
        rank = self.free_rank + sum(g.free_rank for g in others)
        orders = list(self.invariant_factors)
        for g in others:
            orders.extend(g.invariant_factors)
        return FgAbelianGroup.from_cyclic_orders(rank, orders)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        return prod(self.invariant_factors) if self.invariant_factors else 1

    def elementary_rank(self, p: int) -> int | None:
        """Dimension over Z/p when the group is an elementary abelian p-group."""
        if self.free_rank:
            return None
        if any(d != p for d in self.invariant_factors):
            return None
        return len(self.invariant_factors)

    def to_json_dict(self) -> dict:
        return {"rank": self.free_rank, "invariants": list(self.invariant_factors)}

    def __str__(self) -> str:
        return render_group(self)


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# --- rendering and parsing -------------------------------------------------

def render_group(g: FgAbelianGroup) -> str:
    """Human rendering, largest factors first, e.g. ``Z^2 + Z/8 + (Z/2)^3``
    written with the direct-sum sign: ``Z/8 ⊕ Z/2``."""
    if g.is_trivial():
        return "0"
    parts = []
    if g.free_rank == 1:
        parts.append("Z")
    elif g.free_rank > 1:
        parts.append(f"Z^{g.free_rank}")
    run_val, run_len = None, 0
    for d in reversed(g.invariant_factors):
        if d == run_val:
            run_len += 1
            continue
        if run_val is not None:
            parts.append(_render_run(run_val, run_len))
        run_val, run_len = d, 1
    if run_val is not None:
        parts.append(_render_run(run_val, run_len))
    return " ⊕ ".join(parts)


def _render_run(d: int, count: int) -> str:
    return f"Z/{d}" if count == 1 else f"(Z/{d})^{count}"


_TOKEN = re.compile(
    r"^(?:Z(?:\^(?P<rank>\d+))?|Z/(?P<mod>\d+)|\(Z/(?P<bmod>\d+)\)\^(?P<bexp>\d+))$"
)


def parse_group(text: str) -> FgAbelianGroup:
    """Parse the rendering produced by :func:`render_group`."""
    text = text.strip()
    if text == "0":
        return FgAbelianGroup.trivial()
    rank = 0
    orders: list[int] = []
    for token in re.split(r"\s*⊕\s*", text):
        m = _TOKEN.match(token.strip())
        if not m:
            raise ValueError(f"cannot parse group term {token!r}")
        if m.group("mod"):
            orders.append(int(m.group("mod")))
        elif m.group("bmod"):
            orders.extend([int(m.group("bmod"))] * int(m.group("bexp")))
        else:
            rank += int(m.group("rank") or 1)
    return FgAbelianGroup.from_cyclic_orders(rank, orders)


# --- invariant factors of a row lattice (sparse, no transforms) ------------

def _chain_normalize(values: list[int]) -> list[int]:
    vals = [abs(x) for x in values if x]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if vals[j] % vals[i]:
                    g = gcd(vals[i], vals[j])
                    vals[i], vals[j] = g, vals[i] // g * vals[j]
                    changed = True
    vals.sort()
    return vals


def _invariant_factors(entries, ncols: int) -> tuple[int, list[int]]:
    """(rank, invariant factors > 1) of the lattice spanned by the rows.

    ``entries`` yields one iterable of (column, value) pairs per row, with
    columns in ``[0, ncols)``; zero values and empty rows are ignored.
    Elimination stays sparse throughout.  Unit pivots come off a worklist of
    rows that may hold a +-1: clearing a unit's column takes row operations
    only, after which its row is cleared by column operations that touch no
    other row, so the row just drops out.  What remains holds no unit.  Its
    pivots are taken at an entry of least absolute value (rows are bucketed
    by their least |value|); the pivot's column is cleared by row
    operations, then its row is reduced by column operations, and any
    nonzero remainder is a smaller pivot that takes over.  An isolated pivot
    is one diagonal entry, and the diagonal is brought into
    divisibility-chain form at the end.
    """
    rows: dict[int, dict[int, int]] = {}
    col_index: dict[int, set[int]] = {}
    for rid, pairs in enumerate(entries):
        row = {}
        for c, v in pairs:
            if not 0 <= c < ncols:
                raise ValueError(f"relation column {c} outside 0..{ncols - 1}")
            if v:
                row[c] = int(v)
        if row:
            rows[rid] = row
            for c in row:
                col_index.setdefault(c, set()).add(rid)

    def subtract(other: int, q: int, prow: dict[int, int]):
        # rows[other] -= q * prow, keeping the column index in step
        orow = rows[other]
        for c, v in prow.items():
            x = orow.get(c, 0) - q * v
            if x:
                if c not in orow:
                    col_index[c].add(other)
                orow[c] = x
            else:
                del orow[c]
                col_index[c].discard(other)

    def drop(rid: int):
        for c in rows.pop(rid):
            col_index[c].discard(rid)

    unit_rank = 0
    work = list(rows)
    while work:
        rid = work.pop()
        prow = rows.get(rid)
        if prow is None:
            continue
        units = [c for c, v in prow.items() if v == 1 or v == -1]
        if not units:
            continue
        # the unit whose column meets the fewest rows makes the least fill
        c = min(units, key=lambda k: (len(col_index[k]), k))
        sign = prow[c]
        for other in [o for o in col_index[c] if o != rid]:
            subtract(other, rows[other][c] * sign, prow)
            if rows[other]:
                work.append(other)
            else:
                del rows[other]
        drop(rid)
        unit_rank += 1

    def least(rid: int) -> int:
        return min(map(abs, rows[rid].values()))

    # rows by their least |value|; a changed row is filed again, and its
    # older entry is skipped as stale when it comes up
    buckets: dict[int, list[int]] = {}
    for rid in rows:
        buckets.setdefault(least(rid), []).append(rid)
    diag: list[int] = []
    while buckets:
        size = min(buckets)
        rid = buckets[size].pop()
        if not buckets[size]:
            del buckets[size]
        if rid not in rows or least(rid) != size:
            continue
        row = rows[rid]
        c = min(row, key=lambda k: (abs(row[k]), k))
        touched = set()
        while True:
            prow = rows[rid]
            piv = prow[c]
            smaller = []
            for other in [o for o in col_index[c] if o != rid]:
                q = rows[other][c] // piv
                if q:
                    subtract(other, q, prow)
                    touched.add(other)
                if c in rows[other]:
                    smaller.append((abs(rows[other][c]), other))
            if smaller:
                rid = min(smaller)[1]
                continue
            # column c is clear, so column operations now touch only this row
            for k in [k for k in prow if k != c]:
                x = prow[k] % piv
                if x:
                    prow[k] = x
                else:
                    del prow[k]
                    col_index[k].discard(rid)
            if len(prow) == 1:
                break
            c = min((k for k in prow if k != c), key=lambda k: (abs(prow[k]), k))
        diag.append(abs(piv))
        drop(rid)
        touched.discard(rid)
        for other in touched:
            if rows.get(other):
                buckets.setdefault(least(other), []).append(other)
            else:
                rows.pop(other, None)
    factors = _chain_normalize(diag)
    rank = unit_rank + len(factors)
    return rank, [d for d in factors if d > 1]


def cokernel_group(generators: int, relations) -> FgAbelianGroup:
    """Canonical form of Z^generators modulo the lattice of ``relations``.

    ``relations`` is either an :class:`IntegerMatrix` whose width must equal
    ``generators`` (its rows are read entry by entry), or an iterable of
    sparse rows, each a mapping column -> value with columns in
    ``[0, generators)``; zero values and empty rows are ignored.  Both forms
    run the same sparse elimination, :func:`_invariant_factors`.
    """
    if isinstance(relations, IntegerMatrix):
        if relations.cols != generators:
            raise ValueError("relation matrix width must equal the generator count")
        rows = map(enumerate, relations.entries)
    else:
        rows = (row.items() for row in relations)
    rank, factors = _invariant_factors(rows, generators)
    return FgAbelianGroup(generators - rank, tuple(factors))


# --- lattice utilities ------------------------------------------------------

def _echelon(rows, ncols: int) -> list[list[int]]:
    """Integer row echelon of the lattice spanned by ``rows``; the output rows
    have strictly increasing leading columns and span the same lattice."""
    pivots: dict[int, list[int]] = {}
    for row in rows:
        r = list(row)
        while True:
            j = next((k for k, x in enumerate(r) if x), None)
            if j is None:
                break
            if j not in pivots:
                if r[j] < 0:
                    r = [-x for x in r]
                pivots[j] = r
                break
            p = pivots[j]
            aa, bb = p[j], r[j]
            if bb % aa == 0:
                q = bb // aa
                for k in range(j, ncols):
                    r[k] -= q * p[k]
            else:
                x, y, g = _xgcd(aa, bb)
                ka, kb = aa // g, bb // g
                for k in range(j, ncols):
                    pk, rk = p[k], r[k]
                    p[k] = x * pk + y * rk
                    r[k] = ka * rk - kb * pk
    return [pivots[j] for j in sorted(pivots)]


def _leading(row) -> int | None:
    return next((k for k, x in enumerate(row) if x), None)


def _leads(echelon_rows) -> dict[int, int]:
    """Leading column -> row index, built once per echelon basis."""
    return {_leading(row): idx for idx, row in enumerate(echelon_rows)}


def lattice_member(echelon_rows: list[list[int]], vec) -> bool:
    """Membership of ``vec`` in the lattice given by echelon rows."""
    return _solve_against_echelon(echelon_rows, _leads(echelon_rows), vec) is not None


def _solve_against_echelon(echelon_rows, leads: dict[int, int], vec) -> list[int] | None:
    r = list(vec)
    coeffs = [0] * len(echelon_rows)
    j = 0
    while True:
        # entries before the last pivot are already zero
        j = next((k for k in range(j, len(r)) if r[k]), None)
        if j is None:
            return coeffs
        idx = leads.get(j)
        if idx is None:
            return None
        p = echelon_rows[idx]
        if r[j] % p[j]:
            return None
        q = r[j] // p[j]
        for k in range(j, len(r)):
            r[k] -= q * p[k]
        coeffs[idx] += q


def left_nullspace(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of the left-nullspace lattice {z : z * M == 0} where M has the
    given rows.  Computed by echelonising the augmented rows [M | I]."""
    m = len(rows)
    aug = []
    for i, row in enumerate(rows):
        tail = [0] * m
        tail[i] = 1
        aug.append(list(row) + tail)
    ech = _echelon(aug, ncols + m)
    out = []
    for row in ech:
        j = _leading(row)
        if j is not None and j >= ncols:
            out.append(row[ncols:])
    return out


def quotient_group(sup_rows: list[list[int]], sub_rows, ambient: int) -> FgAbelianGroup:
    """Canonical form of (lattice spanned by sup_rows) / (lattice spanned by
    sub_rows); the sublattice must be contained in the big one."""
    basis = _echelon(sup_rows, ambient)
    if not basis:
        if any(any(row) for row in sub_rows):
            raise ValueError("sublattice is not contained in the ambient lattice")
        return FgAbelianGroup.trivial()
    leads = _leads(basis)
    coeff_rows = []
    for row in sub_rows:
        coeffs = _solve_against_echelon(basis, leads, row)
        if coeffs is None:
            raise ValueError("sublattice is not contained in the ambient lattice")
        coeff_rows.append(coeffs)
    return cokernel_group(len(basis), IntegerMatrix(coeff_rows, cols=len(basis)))


# --- presented groups and maps between them ---------------------------------

@dataclass(frozen=True)
class GroupPresentation:
    """Z^n_gens modulo the rows of ``relations``."""

    n_gens: int
    relations: IntegerMatrix

    def __post_init__(self):
        if self.relations.cols != self.n_gens:
            raise ValueError("relation width must equal generator count")

    def group(self) -> FgAbelianGroup:
        return cokernel_group(self.n_gens, self.relations)


@dataclass(frozen=True)
class SimplifiedPresentation:
    """A reduced presentation together with the coordinate changes.

    ``to_min`` maps old coordinates to reduced ones (row vector times matrix)
    and ``from_min`` lifts a reduced generator back to old coordinates, so
    ``from_min * to_min`` is the identity.  The reduced presentation has no
    more generators than the old one, but it need not be minimal.
    """

    presentation: GroupPresentation
    to_min: IntegerMatrix
    from_min: IntegerMatrix


def simplify_presentation(pres: GroupPresentation) -> SimplifiedPresentation:
    """Drop every generator that a relation expresses through later ones.

    An echelon row of the relations led by 1 at column j writes generator j
    in terms of generators past j, so j is dropped and written that way in
    ``to_min``, back-substituting from the last column down.  The kept
    generators are the other columns, ``from_min`` is their inclusion, and
    the other echelon rows, mapped through ``to_min``, are the relations.
    The result is reduced, not always minimal: Z^2 / <(2, 3)> keeps both
    generators.
    """
    n = pres.n_gens
    ech = _echelon(pres.relations.entries, n)
    unit_rows = {}
    other_rows = []
    for row in ech:
        j = _leading(row)
        if row[j] == 1:
            unit_rows[j] = row
        else:
            other_rows.append(row)
    keep = [j for j in range(n) if j not in unit_rows]
    m = len(keep)
    to_min = {j: [int(t == pos) for t in range(m)] for pos, j in enumerate(keep)}
    for j in sorted(unit_rows, reverse=True):
        # e_j = -(sum over k > j of row[k] * e_k) in the group
        image = [0] * m
        for k, c in enumerate(unit_rows[j][j + 1:], start=j + 1):
            if c:
                for t, x in enumerate(to_min[k]):
                    image[t] -= c * x
        to_min[j] = image
    to_min_mat = IntegerMatrix([to_min[j] for j in range(n)], cols=m)
    from_min = IntegerMatrix([[int(j == i) for j in range(n)] for i in keep], cols=n)
    rel_rows = [_apply_row(row, to_min_mat) for row in other_rows]
    mini = GroupPresentation(m, IntegerMatrix(rel_rows, cols=m))
    return SimplifiedPresentation(mini, to_min_mat, from_min)


@dataclass(frozen=True)
class AbelianGroupMap:
    """Homomorphism between presented groups, given on generators.

    Row i of ``images`` is the image of source generator i written in target
    generators.  Construction verifies that every source relation lands in
    the relation lattice of the target, i.e. that the map is well defined.
    """

    source: GroupPresentation
    target: GroupPresentation
    images: IntegerMatrix

    def __post_init__(self):
        if self.images.rows != self.source.n_gens or self.images.cols != self.target.n_gens:
            raise ValueError("image matrix shape must be n_source x n_target")
        ech = _echelon([list(r) for r in self.target.relations.entries], self.target.n_gens)
        leads = _leads(ech)
        for rel in self.source.relations.entries:
            vec = _apply_row(rel, self.images)
            if _solve_against_echelon(ech, leads, vec) is None:
                raise ValueError("images do not respect the source relations")


def _apply_row(row, mat: IntegerMatrix) -> list[int]:
    out = [0] * mat.cols
    for i, c in enumerate(row):
        if c:
            mrow = mat.entries[i]
            for j in range(mat.cols):
                out[j] += c * mrow[j]
    return out


def kernel_generators(f: AbelianGroupMap) -> list[list[int]]:
    """Lifts (in source generators) of a generating set of ker(f)."""
    ns, nt = f.source.n_gens, f.target.n_gens
    stacked = [list(r) for r in f.images.entries]
    stacked += [list(r) for r in f.target.relations.entries]
    null = left_nullspace(stacked, nt)
    gens = [row[:ns] for row in null]
    return _echelon(gens, ns)


def kernel_of_map(f: AbelianGroupMap) -> FgAbelianGroup:
    """Canonical form of the kernel, computed by pulling the target relation
    lattice back through the lift to free covers."""
    gens = kernel_generators(f)
    sub = [list(r) for r in f.source.relations.entries]
    return quotient_group(gens, sub, f.source.n_gens)


def element_order(pres: GroupPresentation, vec) -> int | None:
    """Order of the class of ``vec`` in the presented group (None = infinite).

    With G the presented group and x the class, the order is read off two
    cokernels: x has infinite order exactly when G / <x> has smaller free
    rank than G, and otherwise x is torsion, so tors(G / <x>) = tors(G) / <x>
    and the order of x is the ratio of the two torsion orders.
    """
    n = pres.n_gens
    if len(vec) != n:
        raise ValueError("vector length must equal generator count")
    rows = [dict(enumerate(row)) for row in pres.relations.entries]
    group = cokernel_group(n, rows)
    return _order_from_quotient(group, cokernel_group(n, rows + [dict(enumerate(vec))]))


def _order_from_quotient(group: FgAbelianGroup, quotient: FgAbelianGroup) -> int | None:
    """Order of x in G, given G and G / <x> (None = infinite)."""
    if quotient.free_rank < group.free_rank:
        return None
    return prod(group.invariant_factors) // prod(quotient.invariant_factors)
