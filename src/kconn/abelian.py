"""Exact linear algebra over Z.

Presented abelian groups, kernels and cokernels, and the invariant-factor
canonical form that every other module reports its answers in.  All
arithmetic uses Python's arbitrary-precision integers; nothing is ever
rounded, and a rank, order, column or entry that is not an integer raises
``TypeError``.  One routine, :func:`_chain`, builds every canonical form by
gcd and lcm alone, so no order is ever factored, and :func:`_canonical`
makes a group of it and a rank: cokernels, cyclic groups, direct sums,
parsed renderings and the public constructor all reach these two.

There is one row format: a sparse row, a mapping column -> value whose zero
values are ignored.  Relations, images of generators, coordinate changes and
vectors are all rows of this kind (presentations keep read-only copies, and
:func:`kernel_of_map` takes a map as its source, target and image rows).
Every cokernel, and through it every group order, element order and the
homology of the Kunneth complexes, goes through one elimination that keeps
no coordinate changes, in two loops.  :func:`_peel`, the tuned one, pivots
on the content of the lattice, the gcd g of all its entries: it takes out
the rows that hold a +-g, shortest row first, each adding one factor Z/g,
and repeats while the content of what is left grows, starting from the
units (g = 1).  Every lattice that kconn builds goes entirely this way:
the lattices of the Kunneth complex, whose tensor entries are +-p, the
slices, and the truncated K-rings of ``kmods.ku_smash_check``, which
:func:`_peeled` presents again on the generators the peel keeps, so that
their tensor product is a 1 x 1 lattice.  :func:`_diagonal`, a short
Euclid loop, takes whatever a peel leaves, the lattices of library callers
only: each step pivots on an entry of least absolute value, and every
nonzero remainder is smaller than the pivot, so the least entry falls until
the pivot stands alone.  A second core, :func:`_echelon`, computes lattice
bases as {leading column: row}, against which
:func:`_solve_against_echelon` writes a vector; it serves only
:func:`kernel_of_map` and :func:`simplify_presentation`, library functions
that no other module calls.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from heapq import heappop, heappush
from itertools import chain
from math import gcd, prod
from operator import index

from ._record import Record


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


class FgAbelianGroup(Record):
    """Canonical form of a finitely generated abelian group.

    ``free_rank`` copies of Z plus cyclic parts Z/d_1 + ... + Z/d_k where the
    invariant factors satisfy 1 < d_1 | d_2 | ... | d_k.  The pair is a
    complete isomorphism invariant, so equality of instances is isomorphism.
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        rank, factors = index(self.free_rank), map(index, self.invariant_factors)
        self.__dict__.update(_canonical(rank, factors).__dict__)

    @classmethod
    def trivial(cls) -> "FgAbelianGroup":
        return _TRIVIAL

    @classmethod
    def free(cls, rank: int) -> "FgAbelianGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n: int) -> "FgAbelianGroup":
        return cls.from_cyclic_orders(0, [n])

    @classmethod
    def from_cyclic_orders(cls, free_rank: int, orders) -> "FgAbelianGroup":
        """Canonicalise an arbitrary list of cyclic orders (0 meaning Z)."""
        orders = [abs(index(d)) for d in orders]
        return _canonical(index(free_rank) + orders.count(0), _chain(d for d in orders if d))

    def direct_sum(self, *others: "FgAbelianGroup") -> "FgAbelianGroup":
        groups = (self, *others)
        orders = chain.from_iterable(g.invariant_factors for g in groups)
        return _canonical(sum(g.free_rank for g in groups), _chain(orders))

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


def _canonical(rank: int, chain) -> FgAbelianGroup:
    """Z^rank + Z/d_1 + ... + Z/d_k from ints, made without the record
    constructor and checked as every group is: rank >= 0, 1 < d_1 | ... | d_k."""
    chain = tuple(chain)
    if rank < 0:
        raise ValueError("negative free rank")
    if chain and min(chain) <= 1:
        raise ValueError("invariant factors must exceed 1")
    for a, b in zip(chain, chain[1:]):
        if b % a:
            raise ValueError("invariant factors must form a divisibility chain")
    group = object.__new__(FgAbelianGroup)
    group.__dict__.update(free_rank=rank, invariant_factors=chain)
    return group


_TRIVIAL = _canonical(0, ())


def _chain(orders) -> list[int]:
    """The invariant factors 1 < d_1 | ... | d_k of the sum of the Z/d over
    the positive ``orders``.  Each order, smallest first, enters the chain
    at the top by Z/a + Z/x = Z/lcm(a, x) + Z/gcd(a, x): the factor takes
    the lcm, and the gcd carries down until it is a multiple of the next
    factor, where it is inserted.  Orders of a p-group enter in order, so
    each one is appended."""
    chain: list[int] = []
    for x in sorted(orders):
        i = len(chain)
        while x > 1 and i and x % chain[i - 1]:
            a = chain[i - 1]
            g = gcd(a, x)
            chain[i - 1], x = a // g * x, g
            i -= 1
        if x > 1:
            chain.insert(i, x)
    return chain


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
        modulus = m.group("mod") or m.group("bmod")
        if modulus is None:
            rank += int(m.group("rank") or 1)
        elif int(modulus) == 0:
            raise ValueError(f"zero modulus in group term {token!r}")
        else:
            orders.extend([int(modulus)] * int(m.group("bexp") or 1))
    return FgAbelianGroup.from_cyclic_orders(rank, orders)


# --- invariant factors of a row lattice (sparse, no transforms) ------------

def _sparse_rows(entries, ncols: int):
    """({row id: row}, {column: ids of the rows that meet it}) for the
    nonzero rows of ``entries``, one iterable of (column, value) pairs per
    row, with columns in ``[0, ncols)``; zero values are dropped."""
    rows: dict[int, dict[int, int]] = {}
    col_index: dict[int, set[int]] = {}
    for rid, pairs in enumerate(entries):
        row = {}
        for c, v in pairs:
            c = index(c)
            if not 0 <= c < ncols:
                raise ValueError(f"relation column {c} outside 0..{ncols - 1}")
            if v:
                row[c] = index(v)
        if row:
            rows[rid] = row
            for c in row:
                col_index.setdefault(c, set()).add(rid)
    return rows, col_index


def _subtract(rows, col_index, other: int, q: int, prow: dict[int, int]) -> None:
    """rows[other] -= q * prow, keeping the column index in step."""
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


def _peel_at(rows, col_index, pivot: int, keep: int) -> int:
    """Eliminate, in place, every row that holds a +-``pivot`` outside
    column ``keep``, where ``pivot`` divides every entry, and return how
    many went.

    Clearing the pivot's column takes exact row operations, after which its
    row is cleared by column operations that change only the pivot's own
    generator, so the row just drops out, one Z/pivot summand, and the
    quotient keeps every other column as it was.  Pivot rows come off a
    heap, shortest first, since a row's length is the fill that each row
    operation can bring; ties go to the pivot whose column meets the fewest
    rows, then to the lowest column.  A row is filed again whenever it
    changes, and an entry that no longer matches its row is skipped when it
    comes up.  What remains holds no +-``pivot`` outside ``keep``.  One
    loop files every row and then, pivot by pivot, each row it changed.
    """
    neg = -pivot
    heap, peeled = [], 0
    prow, todo = None, list(rows)  # at first, file every row as it stands
    while True:
        for other in todo:
            orow = rows[other]
            if prow:
                # rows[other] -= q * prow, dropping it if it is now zero
                q = orow[c] // p
                for k, v in prow.items():
                    if k not in orow:
                        orow[k] = -q * v
                        col_index[k].add(other)
                    elif x := orow[k] - q * v:
                        orow[k] = x
                    else:
                        del orow[k]
                        col_index[k].discard(other)
                if not orow:
                    del rows[other]
                    continue
            best = None
            for k, v in orow.items():
                if (v == pivot or v == neg) and k != keep:
                    hit = (len(col_index[k]), k)
                    if best is None or hit < best:
                        best = hit
            if best:
                heappush(heap, (len(orow), *best, other))
        if prow:
            for k in rows.pop(rid):
                col_index[k].discard(rid)
            peeled += 1
        while heap:
            size, _, c, rid = heappop(heap)
            prow = rows.get(rid)
            if prow and len(prow) == size and prow.get(c) in (pivot, neg):
                break
        else:
            return peeled
        p = prow[c]
        todo = [o for o in col_index[c] if o != rid]


def _peel(rows, col_index, keep: int = -1) -> tuple[int, list[int]]:
    """Eliminate, in place, the rows whose pivot divides the whole lattice,
    and return how many went, the rank they add, and the invariant factors
    above 1 that they give.

    While rows remain, the content g of the lattice, the gcd of all its
    entries, is taken in one pass.  An entry equal to +-g outside ``keep``
    divides its row and column, so it is peeled as a unit is (g = 1 is the
    unit peel), and each row that goes adds one factor g.  This repeats
    while the content grows and some entry equals it, the first step of a
    local Smith form; what is left is for :func:`_diagonal`.
    """
    rank, factors, g = 0, [], 0
    while rows:
        content = gcd(*chain.from_iterable(map(dict.values, rows.values())))
        if content == g:
            break
        g = content
        k = _peel_at(rows, col_index, g, keep)
        if not k:
            break
        rank += k
        if g > 1:
            factors += [g] * k
    return rank, factors


def _diagonal(rows, col_index) -> list[int]:
    """The diagonal of the lattice of ``rows``, eliminated in place by
    Euclid's algorithm.  An entry of least absolute value is the pivot.  Its
    column is reduced by row operations with floor quotients; once the
    column holds the pivot alone, column operations touch only the pivot's
    row, which is reduced mod the pivot.  A nonzero remainder, in either,
    is smaller than the pivot, so the least entry falls until the pivot is
    isolated, one diagonal entry; the rank is the length of the diagonal."""
    diag: list[int] = []
    while rows:
        _, rid, c = min((abs(v), r, k) for r, row in rows.items() for k, v in row.items())
        prow = rows[rid]
        piv = prow[c]
        for other in [o for o in col_index[c] if o != rid]:
            _subtract(rows, col_index, other, rows[other][c] // piv, prow)
            if not rows[other]:
                del rows[other]
        if len(col_index[c]) > 1:
            continue  # a remainder left in the column is a smaller pivot
        for k in [k for k in prow if k != c]:
            if x := prow[k] % piv:
                prow[k] = x
            else:
                del prow[k]
                col_index[k].discard(rid)
        if len(prow) == 1:
            diag.append(abs(piv))
            del rows[rid]
            col_index[c].discard(rid)
    return diag


def cokernel_group(generators: int, relations) -> FgAbelianGroup:
    """Canonical form of Z^generators modulo the lattice of ``relations``,
    sparse rows with columns in ``[0, generators)``; zero values and empty
    rows are ignored.  Elimination stays sparse throughout: :func:`_peel`
    takes out the pivots that divide the whole lattice, units first, and
    :func:`_diagonal` the rest."""
    rows, col_index = _sparse_rows((row.items() for row in relations), generators)
    rank, factors = _peel(rows, col_index)
    diag = _diagonal(rows, col_index)
    return _canonical(index(generators) - rank - len(diag), _chain(factors + diag))


def _peeled(generators: int, relations,
            keep: int) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """(ncols, rows): the cokernel of ``relations`` presented again on the
    generators that one peel keeping column ``keep`` leaves, rows as tuples
    of (column, value) pairs.

    The peel never pivots on ``keep``, and its column operations change
    only each pivot's own generator, so each summand it takes out splits
    off, and the generators it keeps, ``keep`` among them, present the rest
    of the group by the residual rows.  ``keep`` becomes column 0, the other columns that still hold entries follow it
    in increasing order, and the kept generators left with no entry stay as
    empty columns after those; each Z/g the peel took out is one more
    column, with the relation g.  So a lattice that the peel reduces to a
    few columns is handed on, to a tensor product say, at that size.
    """
    if not 0 <= keep < generators:
        raise ValueError(f"column {keep} outside 0..{generators - 1}")
    rows, col_index = _sparse_rows((row.items() for row in relations), generators)
    rank, factors = _peel(rows, col_index, keep=keep)
    kept = index(generators) - rank
    seen = sorted(c for c, ids in col_index.items() if ids and c != keep)
    new = {c: j for j, c in enumerate([keep, *seen])}
    out = [tuple((new[c], v) for c, v in row.items()) for row in rows.values()]
    out += [((j, g),) for j, g in enumerate(factors, kept)]
    return kept + len(factors), tuple(out)


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
    """A row of a presentation: a dict that refuses changes, since
    presentations are frozen, hashable values, and hashes by its entries."""

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


class GroupPresentation(Record):
    """Z^n_gens modulo the sparse rows of ``relations``, held as read-only copies."""

    n_gens: int
    relations: tuple[dict[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "relations", _frozen_rows(self.relations, self.n_gens))

    def group(self) -> FgAbelianGroup:
        return cokernel_group(self.n_gens, self.relations)


class SimplifiedPresentation(Record):
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
