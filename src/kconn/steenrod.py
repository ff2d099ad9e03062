"""Mod-2 cohomology of projective space and its smash square as modules over
the subalgebras generated by the first two squaring operations.

Everything is linear algebra over F2, and no monomial is ever built: the
basis of a degree d, x^d on projective space and x^a y^(d - a) for 0 < a < d
on the smash square, is known by its indices alone, and each action row is a
bitmask built from the exponents by index arithmetic.  Hom spaces into the
trivial module are annihilators of the positive-degree action image, so
their dimensions, and the exactness of the Hom sequence, are image ranks.

Rank, echelon form and nullspace share one reduction loop: each row is XORed
with the pivot row owning its lowest set bit until that bit has no owner,
and is then kept as the owner of it.  A row meets only the pivots its own
lowest bits meet, so a degree costs about what its sparse rows hold.  The
nullspace serves library callers and tests only.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import Record, as_dict


# --- F2 matrices as lists of bitmask rows ------------------------------------

def _f2_basis(rows: list[int], pivots: dict[int, int] | None = None) -> dict[int, int]:
    """Pivot dict of the rows' span, continuing a copy of ``pivots`` when
    given: each kept row is keyed by its lowest set bit (as a one-bit mask),
    so the keys are distinct and a row is reduced only against the pivots
    its own lowest bits meet."""
    pivots = {} if pivots is None else dict(pivots)
    owner = pivots.get
    for row in rows:
        while row:
            low = row & -row
            pivot = owner(low)
            if not pivot:
                pivots[low] = row
                break
            row ^= pivot
    return pivots


def f2_rank(rows: list[int]) -> int:
    """Dimension of the span of the rows."""
    return len(_f2_basis(rows))


def f2_echelon(rows: list[int]) -> list[int]:
    """A basis of the rows' span whose rows have distinct lowest set bits, in
    ascending order."""
    pivots = _f2_basis(rows)
    return [pivots[low] for low in sorted(pivots)]


def f2_nullspace(rows: list[int], width: int) -> list[int]:
    """Vectors v (bitmasks of the given width) with row . v even for all rows:
    one per free column (a column that is no echelon row's lowest bit), in
    ascending order.  The vector of free column j sets j and no other free
    column."""
    return _nullspace(_f2_basis(rows), width)


def _nullspace(pivots: dict[int, int], width: int) -> list[int]:
    """:func:`f2_nullspace` of the span whose pivot dict is ``pivots``,
    which it reduces in place; the reduced echelon form of a span is
    unique, so the vectors do not depend on how the pivots were found."""
    mask = sum(pivots)
    out = {j: 1 << j for j in range(width) if not mask >> j & 1}
    # from the highest pivot down, clear each row's higher pivot bits; then
    # the row sets its pivot bit in the vector of each free column it meets
    for low in sorted(pivots, reverse=True):
        row = pivots[low]
        higher = (row & mask) ^ low
        while higher:
            bit = higher & -higher
            higher ^= bit
            row ^= pivots[bit]
        pivots[low] = row
        free = row & ~mask
        while free:
            bit = free & -free
            free ^= bit
            out[bit.bit_length() - 1] |= low
    return list(out.values())


def f2_compose(first: list[int], then: list[int]) -> list[int]:
    """Matrix of (then o first) acting on row vectors: row r of the result is
    the image of basis vector r."""
    out = []
    for row in first:
        acc = 0
        while row:
            low = row & -row
            row ^= low
            acc ^= then[low.bit_length() - 1]
        out.append(acc)
    return out


# --- the two modules -----------------------------------------------------------

class SteenrodModule(Record):
    """The reduced mod-2 cohomology of projective space ("rp") or of the
    smash square ("smash"): its action matrices between adjacent degrees,
    built by index arithmetic on the monomial basis of each degree."""

    space: str

    def __post_init__(self):
        if self.space not in ("rp", "smash"):
            raise ValueError("space must be 'rp' or 'smash'")

    def sq_matrix(self, k: int, degree: int) -> list[int]:
        """Rows indexed by the degree basis, bits by the degree+k basis, built
        by index arithmetic: C(a, i) is odd iff ``a & i == i``, and a smash row
        of (a, b) sets bit a + i - 1, the index of (a + i, b + j), for each
        i + j = k with C(a, i) and C(b, j) odd.  A projective row is one bit."""
        if k not in (1, 2):
            raise ValueError("only the first two squaring operations are supported")
        if self.space == "rp":
            return [int(degree & k == k)] if degree >= 1 else []
        # the smash basis of a degree is (a, degree - a) for 0 < a < degree
        if k == 1:
            return [(b & 1) << (a - 1) | (a & 1) << a
                    for a in range(1, degree) for b in [degree - a]]
        return [
            (b >> 1 & 1) << (a - 1) | (a & b & 1) << a | (a >> 1 & 1) << (a + 1)
            for a in range(1, degree) for b in [degree - a]
        ]

    def q1_matrix(self, degree: int) -> list[int]:
        """Action of the degree-3 exterior generator, the commutator of the
        two squaring operations, from this degree.  It is the derivation
        with x -> x^4, so x^a -> a x^(a+3): a smash row of (a, b) sets bit
        a + 2 if a is odd and bit a - 1 if b is odd."""
        if self.space == "rp":
            return [degree & 1] if degree >= 1 else []
        return [(a & 1) << (a + 2) | (b & 1) << (a - 1)
                for a in range(1, degree) for b in [degree - a]]


@lru_cache(maxsize=4)
def _sq1_pivots(space: str, degree: int) -> dict[int, int]:
    """Pivot dict of the Sq^1 rows into the degree piece, which both
    algebras' images contain: reduced once per degree, and read, never
    changed, by :func:`_image_pivots` for each algebra."""
    return _f2_basis(SteenrodModule(space).sq_matrix(1, degree - 1))


def _image_pivots(alg: str, space: str, degree: int) -> dict[int, int]:
    """Pivot dict of the positive-degree action into the degree piece: the
    Sq^1 pivots, continued by the Sq^2 rows ("B") or the Q_1 rows ("E")."""
    if alg not in ("B", "E"):
        raise ValueError("algebra must be 'B' or 'E'")
    module = SteenrodModule(space)
    rows = module.sq_matrix(2, degree - 2) if alg == "B" else module.q1_matrix(degree - 3)
    return _f2_basis(rows, _sq1_pivots(space, degree))


def _width(space: str, degree: int) -> int:
    """The size of the degree basis: one monomial on rp, degree - 1 on smash."""
    return max(degree - 1, 0) if space == "smash" else int(degree >= 1)


def hom_dim(alg: str, space: str, degree: int) -> int:
    """Dimension of the module homomorphisms from the degree piece into the
    trivial one-dimensional module: functionals vanishing on the image of the
    positive-degree action."""
    return _width(space, degree) - len(_image_pivots(alg, space, degree))


def hom_basis(alg: str, space: str, degree: int) -> list[int]:
    """Bitmask basis (over the degree monomial basis) of the functionals."""
    return _nullspace(_image_pivots(alg, space, degree), _width(space, degree))


class HomSequenceRecord(Record):
    degree: int
    dim_b: int
    dim_e: int
    dim_b_lower: int
    exact: bool
    closed_forms_ok: bool


class HomSequenceReport(Record):
    i_max: int
    records: tuple[HomSequenceRecord, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.exact and r.closed_forms_ok for r in self.records)

    def to_json_dict(self) -> dict:
        return {**as_dict(self), "all_ok": self.all_ok}


def expected_dims(degree: int) -> tuple[int, int] | None:
    """Closed forms for the smash Hom dimensions in even degree 2i, i >= 2:
    the restricted-algebra dimension and the exterior-algebra dimension."""
    if degree % 2 or degree < 4:
        return None
    half = degree // 2
    dim_b = (half - 1) // 2 if half % 2 else 1 + half // 2
    return dim_b, half


def verify_hom_sequence(i_max: int) -> HomSequenceReport:
    """For every even degree d, verify exactness of 0 -> Hom_B(d) ->
    Hom_E(d) -> Hom_B(d - 2) -> 0, inclusion then precomposition with Sq^2,
    by ranks of the images Im_B(d) = Sq^1 + Sq^2 and Im_E(d) = Sq^1 + Q_1
    that the Hom spaces annihilate; even degrees at least 4 are also checked
    against the closed dimension forms.

    Precomposition lands in Hom_B(d - 2) iff Sq^2 of Im_B(d - 2) adds no
    pivot to Im_E(d).  Its kernel annihilates Im_E(d) + Sq^2, which contains
    Im_B(d), so its rank is at least dim_e - dim_b, with equality iff
    Im_E(d) lies in Im_B(d): iff the inclusion is defined, and then the
    kernel is Hom_B(d).  So a sequence that lands is exact iff
    dim_e - dim_b is dim_b_lower.  This holds for any action matrices.
    """
    module = SteenrodModule("smash")
    records = []
    # the degree-0 image, empty, built as every other degree's is
    lower, dim_b_lower = _image_pivots("B", "smash", 0), 0
    for degree in range(2, i_max + 1, 2):
        # the Sq2 rows, built once for Im_B(d) and for Sq2 of Im_B(d - 2)
        sq2_rows = module.sq_matrix(2, degree - 2)
        image_b = _f2_basis(sq2_rows, _sq1_pivots("smash", degree))
        image_e = _image_pivots("E", "smash", degree)
        lower_images = f2_compose(list(lower.values()), sq2_rows)
        lands = len(_f2_basis(lower_images, image_e)) == len(image_e)
        dim_b, dim_e = degree - 1 - len(image_b), degree - 1 - len(image_e)
        exact = lands and dim_e - dim_b == dim_b_lower
        forms_ok = expected_dims(degree) in (None, (dim_b, dim_e))
        records.append(HomSequenceRecord(degree, dim_b, dim_e, dim_b_lower, exact, forms_ok))
        lower, dim_b_lower = image_b, dim_b
    return HomSequenceReport(i_max, tuple(records))


def x_count(n: int) -> int:
    """Number of pairs (i, j) of positive integers with 2i - 1 + 4j - 1 = 2n,
    found by direct enumeration."""
    if n < 0:
        raise ValueError("n must be non-negative")
    count = 0
    for j in range(1, n // 2 + 1):
        i = n + 1 - 2 * j
        if i >= 1:
            count += 1
    return count
