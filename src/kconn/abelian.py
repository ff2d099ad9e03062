"""Exact linear algebra over Z.

Presented abelian groups, kernels and cokernels, and the invariant-factor
canonical form that every other module reports its answers in.  All
arithmetic uses Python's arbitrary-precision integers; nothing is ever
rounded.

There is one row format: a sparse row, a mapping column -> value whose zero
values are ignored.  Relations, images of generators, coordinate changes and
vectors are all rows of this kind (presentations keep read-only copies, and
:func:`kernel_of_map` takes a map as its source, target and image rows), and
two elimination cores work on them.  :func:`_invariant_factors` computes
invariants: every cokernel, and through it every group order, element order
and the homology of the Kunneth complexes, goes through this one
elimination, which keeps no coordinate changes.  :func:`_echelon` computes
lattice bases as {leading column: row}, against which
:func:`_solve_against_echelon` writes a vector.  It serves two library
functions that no other module calls: :func:`kernel_of_map`, one echelon
per kernel, whose solve also checks that the map is well defined, and
:func:`simplify_presentation`, one echelon for its coordinate changes.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from math import gcd, prod
from operator import index


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
    """Canonical form of Z^generators modulo the lattice of ``relations``,
    sparse rows with columns in ``[0, generators)``; zero values and empty
    rows are ignored."""
    rank, factors = _invariant_factors((row.items() for row in relations), generators)
    return FgAbelianGroup(generators - rank, tuple(factors))


# --- sparse rows and lattice bases -------------------------------------------

def _axpy(row: dict[int, int], q: int, other: dict[int, int]) -> None:
    """row += q * other, in place; entries that cancel are dropped."""
    for c, v in other.items():
        x = row.get(c, 0) + q * v
        if x:
            row[c] = x
        else:
            row.pop(c, None)


def _combine(a: int, row: dict[int, int], b: int, other: dict[int, int]) -> dict[int, int]:
    """a * row + b * other as a new sparse row."""
    out = {c: a * v for c, v in row.items()} if a else {}
    _axpy(out, b, other)
    return out


def _row_times(row: dict[int, int], rows) -> dict[int, int]:
    """The sparse row ``row`` times the matrix whose i-th row is ``rows[i]``."""
    out: dict[int, int] = {}
    for i, c in row.items():
        _axpy(out, c, rows[i])
    return out


def _echelon(rows) -> dict[int, dict[int, int]]:
    """Integer row echelon of the lattice spanned by the sparse ``rows``, as
    {leading column: row} in increasing column order.

    Each leading value is positive and the rows span the same lattice.  An
    incoming row is reduced at its leading column against the pivot row
    there: subtracted off when the pivot divides it, and otherwise both rows
    are replaced by their extended-gcd combination, whose pivot is the gcd
    (the Hermite step of Kannan and Bachem).  The input rows are not touched.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {c: v for c, v in row.items() if v}
        while r:
            j = min(r)
            p = pivots.get(j)
            if p is None:
                pivots[j] = r if r[j] > 0 else {c: -v for c, v in r.items()}
                break
            aa, bb = p[j], r[j]
            if bb % aa == 0:
                _axpy(r, -(bb // aa), p)
            else:
                x, y, g = _xgcd(aa, bb)
                pivots[j], r = _combine(x, p, y, r), _combine(aa // g, r, -(bb // g), p)
    return dict(sorted(pivots.items()))


def _solve_against_echelon(basis: dict[int, dict[int, int]], vec) -> dict[int, int] | None:
    """Coefficients {leading column: q} with ``vec`` the sum of q times the
    basis row led there, or None when ``vec`` is outside the lattice."""
    r = {c: v for c, v in vec.items() if v}
    coeffs = {}
    while r:
        j = min(r)
        p = basis.get(j)
        if p is None or r[j] % p[j]:
            return None
        q = coeffs[j] = r[j] // p[j]
        _axpy(r, -q, p)
    return coeffs


# --- presented groups and the kernel of a map ------------------------------

class _Row(dict):
    """A row of a presentation: a dict that refuses changes, so rows shared
    through caches stay as built, and hashes by its entries."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("rows of presentations are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return _Row, (dict(self),)


def _frozen_rows(rows, ncols: int) -> tuple[_Row, ...]:
    """Read-only copies of the sparse ``rows``, zero values dropped, after
    checking for integer values and columns in ``[0, ncols)``."""
    if ncols < 0:
        raise ValueError("negative generator count")
    out = []
    for row in rows:
        if not isinstance(row, Mapping):
            raise TypeError(f"a row maps columns to values, not a {type(row).__name__}")
        if row and not (0 <= min(row) and max(row) < ncols):
            raise ValueError(f"row {dict(row)} has a column outside 0..{ncols - 1}")
        out.append(_Row({index(c): index(v) for c, v in row.items() if v}))
    return tuple(out)


def IntegerMatrix(entries, cols: int | None = None) -> tuple[dict[int, int], ...]:  # noqa: N802
    """Sparse rows of a dense matrix with rows of one length, ``cols`` if given:
    ``GroupPresentation(2, IntegerMatrix([[2, 0], [0, 4]]))`` is Z/2 ⊕ Z/4."""
    rows = [dict(enumerate(row)) for row in entries]
    width = len(rows[0]) if rows else cols or 0
    if any(len(row) != width for row in rows) or cols not in (None, width):
        raise ValueError("rows of unequal lengths, or not cols long")
    return _frozen_rows(rows, width)


@dataclass(frozen=True)
class GroupPresentation:
    """Z^n_gens modulo the sparse rows of ``relations``, held as read-only copies."""

    n_gens: int
    relations: tuple[dict[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "relations", _frozen_rows(self.relations, self.n_gens))

    def group(self) -> FgAbelianGroup:
        return cokernel_group(self.n_gens, self.relations)


@dataclass(frozen=True)
class SimplifiedPresentation:
    """A reduced presentation together with the coordinate changes.

    ``to_min`` maps old coordinates to reduced ones (row i is the image of
    old generator i) and ``from_min`` lifts a reduced generator back to old
    coordinates, so ``from_min`` times ``to_min`` is the identity.  The
    reduced presentation has no more generators than the old one, but it
    need not be minimal.
    """

    presentation: GroupPresentation
    to_min: tuple[dict[int, int], ...]
    from_min: tuple[dict[int, int], ...]

    def __post_init__(self):
        to_min = _frozen_rows(self.to_min, self.presentation.n_gens)
        object.__setattr__(self, "to_min", to_min)
        object.__setattr__(self, "from_min", _frozen_rows(self.from_min, len(to_min)))


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
    ech = _echelon(pres.relations)
    unit_rows = {j: row for j, row in ech.items() if row[j] == 1}
    keep = [j for j in range(n) if j not in unit_rows]
    to_min = {j: {pos: 1} for pos, j in enumerate(keep)}
    for j in sorted(unit_rows, reverse=True):
        # e_j = -(sum over k > j of row[k] * e_k) in the group
        image: dict[int, int] = {}
        for k, c in unit_rows[j].items():
            if k != j:
                _axpy(image, -c, to_min[k])
        to_min[j] = image
    to_min_rows = tuple(to_min[j] for j in range(n))
    rel_rows = [_row_times(row, to_min_rows) for j, row in ech.items() if j not in unit_rows]
    mini = GroupPresentation(len(keep), rel_rows)
    return SimplifiedPresentation(mini, to_min_rows, tuple({j: 1} for j in keep))


def kernel_of_map(source: GroupPresentation, target: GroupPresentation, images) -> FgAbelianGroup:
    """Canonical form of the kernel of the map from ``source`` to ``target``
    that sends source generator i to the sparse row ``images[i]`` of target
    generators.

    One echelon of the rows [images | identity] and [target relations | 0]:
    its rows led past the target columns have a zero image part, and their
    identity parts are a basis of the preimage P of the target relation
    lattice.  The kernel is P modulo the source relations.  Writing each
    source relation in that basis is also the one check that the map is
    well defined, since a relation r lies in P exactly when its image does
    in the target relation lattice.
    """
    nt = target.n_gens
    images = _frozen_rows(images, nt)
    if len(images) != source.n_gens:
        raise ValueError("need one image row per source generator")
    ech = _echelon([{**img, nt + i: 1} for i, img in enumerate(images)] + list(target.relations))
    basis = {j - nt: {c - nt: v for c, v in row.items()} for j, row in ech.items() if j >= nt}
    slot = {j: k for k, j in enumerate(basis)}
    rows = []
    for rel in source.relations:
        coeffs = _solve_against_echelon(basis, rel)
        if coeffs is None:
            raise ValueError("images do not respect the source relations")
        rows.append({slot[j]: q for j, q in coeffs.items()})
    return cokernel_group(len(basis), rows)


def element_order(pres: GroupPresentation, vec) -> int | None:
    """Order of the class of the sparse vector ``vec`` in the presented group
    (None = infinite).

    With G the presented group and x the class, the order is read off two
    cokernels: x has infinite order exactly when G / <x> has smaller free
    rank than G, and otherwise x is torsion, so tors(G / <x>) = tors(G) / <x>
    and the order of x is the ratio of the two torsion orders.
    """
    quotient = cokernel_group(pres.n_gens, (*pres.relations, vec))
    return _order_from_quotient(pres.group(), quotient)


def _order_from_quotient(group: FgAbelianGroup, quotient: FgAbelianGroup) -> int | None:
    """Order of x in G, given G and G / <x> (None = infinite)."""
    if quotient.free_rank < group.free_rank:
        return None
    return prod(group.invariant_factors) // prod(quotient.invariant_factors)
