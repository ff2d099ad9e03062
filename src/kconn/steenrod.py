"""Mod-2 cohomology of projective space and its smash square as modules over
the subalgebras generated by the first two squaring operations.

Everything is linear algebra over F2 on monomial bases; rows of action
matrices are stored as bitmasks.  Hom spaces into the trivial module are
annihilators of the positive-degree action image, so their dimensions are
corank computations.

Action rows are built by index arithmetic on the exponents, straight from
the degree.  Rank, echelon form and nullspace share one reduction loop: each
row is XORed with the pivot row owning its lowest set bit until that bit has
no owner, and is then kept as the owner of it.  A row meets only the pivots
its own lowest bits meet, so a degree costs about what its sparse rows hold.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import Record, as_dict

Monomial = tuple[int, ...]  # (a,) for one factor, (a, b) for the smash


def choose_mod2(n: int, k: int) -> int:
    """Binomial coefficient parity by the carry-free criterion."""
    if k < 0 or n < 0 or k > n:
        return 0
    return 1 if (n - k) & k == 0 else 0


def sq_action(k: int, mono: Monomial) -> frozenset[Monomial]:
    """Squaring operation on a monomial, expanded by the product rule with
    binomial parities; the result is a formal F2 sum of monomials."""
    if k not in (1, 2):
        raise ValueError("only the first two squaring operations are supported")
    if len(mono) == 1:
        (a,) = mono
        if a < 1:
            raise ValueError("exponent must be positive")
        return frozenset({(a + k,)}) if choose_mod2(a, k) else frozenset()
    if len(mono) == 2:
        a, b = mono
        if a < 1 or b < 1:
            raise ValueError("smash monomials need both exponents positive")
        out: set[Monomial] = set()
        for i in range(k + 1):
            j = k - i
            if choose_mod2(a, i) and choose_mod2(b, j):
                out.symmetric_difference_update({(a + i, b + j)})
        return frozenset(out)
    raise ValueError("monomials have one or two exponents")


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
    """Monomial basis of the reduced mod-2 cohomology of projective space
    ("rp") or of the smash square ("smash"), with action matrices between
    adjacent degrees."""

    space: str

    def __post_init__(self):
        if self.space not in ("rp", "smash"):
            raise ValueError("space must be 'rp' or 'smash'")

    def basis(self, degree: int) -> tuple[Monomial, ...]:
        if degree < 0:
            return ()
        if self.space == "rp":
            return ((degree,),) if degree >= 1 else ()
        return tuple((a, degree - a) for a in range(1, degree))

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
    """For every even degree, build the inclusion into the exterior-algebra
    functionals and the squaring-composition map down two degrees, and verify
    exactness of the three-term sequence by matrix ranks; even degrees at
    least 4 are also checked against the closed dimension forms.

    All subspaces are handled in the coordinates of the monomial dual basis.
    """
    module = SteenrodModule("smash")
    records = []
    bl_basis = hom_basis("B", "smash", 0)
    for degree in range(2, i_max + 1, 2):
        b_basis = hom_basis("B", "smash", degree)
        e_basis = hom_basis("E", "smash", degree)
        # the inclusion is well defined iff every restricted functional is an
        # exterior one, and injectivity is the independence of the basis (a
        # nullspace basis is independent: its rank is its length)
        included = f2_rank(e_basis + b_basis) == len(e_basis)
        injective = f2_rank(b_basis) == len(b_basis)
        # precomposition with the degree-2 squaring operation, in the ambient
        # dual coordinates of the lower degree: the image of a functional is
        # the sum of the columns of that operation's matrix it selects
        # smash basis sizes: degree - 3 two degrees down, degree - 1 here
        lower_width = max(degree - 3, 0)
        sq2_columns = _transpose_bits(module.sq_matrix(2, degree - 2), degree - 1)
        lam_images = f2_compose(e_basis, sq2_columns)
        lands = f2_rank(bl_basis + lam_images) == len(bl_basis)
        onto = f2_rank(lam_images) == len(bl_basis)
        # kernel of the composition map, back in ambient coordinates
        kernel_coords = f2_nullspace(_transpose_bits(lam_images, lower_width), len(e_basis))
        kernel_vecs = f2_compose(kernel_coords, e_basis)
        middle = f2_rank(kernel_vecs) == f2_rank(b_basis + kernel_vecs) == len(b_basis)
        exact = included and injective and lands and onto and middle
        forms = expected_dims(degree)
        forms_ok = forms is None or (len(b_basis), len(e_basis)) == forms
        records.append(
            HomSequenceRecord(
                degree, len(b_basis), len(e_basis), len(bl_basis), exact, forms_ok
            )
        )
        bl_basis = b_basis
    return HomSequenceReport(i_max, tuple(records))


def _transpose_bits(rows: list[int], width: int) -> list[int]:
    """Columns of the rows as bitmasks over the row indices."""
    out = [0] * width
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            row ^= low
            out[low.bit_length() - 1] |= bit
    return out


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
