"""Mod-2 cohomology of projective space and its smash square as modules over
the subalgebras generated by the first two squaring operations.

Everything is linear algebra over F2 on monomial bases; rows of action
matrices are stored as bitmasks.  Hom spaces into the trivial module are
annihilators of the positive-degree action image, so their dimensions are
corank computations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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

def _f2_basis(rows: list[int]) -> list[int]:
    """Reduce each row against the rows kept so far and keep it if nonzero;
    the kept rows have distinct lowest set bits."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            low = b & -b
            if row & low:
                row ^= b
        if row:
            basis.append(row)
    return basis


def f2_rank(rows: list[int]) -> int:
    return len(_f2_basis(rows))


def f2_echelon(rows: list[int]) -> list[int]:
    return sorted(_f2_basis(rows), key=lambda r: r & -r)


def f2_in_span(echelon: list[int], vec: int) -> bool:
    for b in echelon:
        if vec & (b & -b):
            vec ^= b
    return vec == 0


def f2_nullspace(rows: list[int], width: int) -> list[int]:
    """Vectors v (bitmasks of the given width) with row . v even for all rows."""
    ech = f2_echelon(rows)
    pivots = {(_lowbit_index(b)): b for b in ech}
    free_cols = [j for j in range(width) if j not in pivots]
    out = []
    for j in free_cols:
        v = 1 << j
        # back-substitute pivot coordinates
        for pj in sorted(pivots, reverse=True):
            row = pivots[pj]
            if bin(row & v).count("1") % 2:
                v ^= 1 << pj
        out.append(v)
    return out


def _lowbit_index(x: int) -> int:
    return (x & -x).bit_length() - 1


def f2_compose(first: list[int], then: list[int]) -> list[int]:
    """Matrix of (then o first) acting on row vectors: row r of the result is
    the image of basis vector r."""
    out = []
    for row in first:
        acc = 0
        rem = row
        while rem:
            low = rem & -rem
            acc ^= then[low.bit_length() - 1]
            rem ^= low
        out.append(acc)
    return out


# --- the two modules -----------------------------------------------------------

@dataclass(frozen=True)
class SteenrodModule:
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
        """Rows indexed by the degree basis, bits by the degree+k basis."""
        source = self.basis(degree)
        target = {m: i for i, m in enumerate(self.basis(degree + k))}
        rows = []
        for mono in source:
            acc = 0
            for img in sq_action(k, mono):
                acc ^= 1 << target[img]
            rows.append(acc)
        return rows

    def q1_matrix(self, degree: int) -> list[int]:
        """Action of the degree-3 exterior generator (the commutator of the
        two squaring operations) from this degree."""
        first = f2_compose(self.sq_matrix(2, degree), self.sq_matrix(1, degree + 2))
        second = f2_compose(self.sq_matrix(1, degree), self.sq_matrix(2, degree + 1))
        return [a ^ b for a, b in zip(first, second)]


def _checked_module(alg: str, space: str) -> SteenrodModule:
    if alg not in ("B", "E"):
        raise ValueError("algebra must be 'B' or 'E'")
    return SteenrodModule(space)


def _image_rows(module: SteenrodModule, alg: str, degree: int) -> list[int]:
    if alg == "B":
        rows = module.sq_matrix(1, degree - 1) + module.sq_matrix(2, degree - 2)
    else:
        rows = module.sq_matrix(1, degree - 1) + module.q1_matrix(degree - 3)
    return [r for r in rows if r]


def hom_dim(alg: str, space: str, degree: int) -> int:
    """Dimension of the module homomorphisms from the degree piece into the
    trivial one-dimensional module: functionals vanishing on the image of the
    positive-degree action."""
    module = _checked_module(alg, space)
    k = len(module.basis(degree))
    if k == 0:
        return 0
    return k - f2_rank(_image_rows(module, alg, degree))


def hom_basis(alg: str, space: str, degree: int) -> list[int]:
    """Bitmask basis (over the degree monomial basis) of the functionals."""
    module = _checked_module(alg, space)
    k = len(module.basis(degree))
    if k == 0:
        return []
    return f2_nullspace(_image_rows(module, alg, degree), k)


@dataclass(frozen=True)
class HomSequenceRecord:
    degree: int
    dim_b: int
    dim_e: int
    dim_b_lower: int
    exact: bool
    closed_forms_ok: bool


@dataclass(frozen=True)
class HomSequenceReport:
    i_max: int
    records: tuple[HomSequenceRecord, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.exact and r.closed_forms_ok for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "i_max": self.i_max,
            "all_ok": self.all_ok,
            "records": [r.__dict__ for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


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
    for degree in range(2, i_max + 1, 2):
        b_basis = hom_basis("B", "smash", degree)
        e_basis = hom_basis("E", "smash", degree)
        bl_basis = hom_basis("B", "smash", degree - 2)
        e_ech = f2_echelon(list(e_basis))
        bl_ech = f2_echelon(list(bl_basis))
        # the inclusion is well defined iff every restricted functional is an
        # exterior one, and injectivity is the independence of the basis
        included = all(f2_in_span(e_ech, vec) for vec in b_basis)
        injective = f2_rank(list(b_basis)) == len(b_basis)
        # precomposition with the degree-2 squaring operation, in the ambient
        # dual coordinates of the lower degree
        sq2 = module.sq_matrix(2, degree - 2)

        def lam(vec: int) -> int:
            img = 0
            for s, row in enumerate(sq2):
                if bin(row & vec).count("1") % 2:
                    img |= 1 << s
            return img

        lam_images = [lam(vec) for vec in e_basis]
        lands = all(f2_in_span(bl_ech, img) for img in lam_images)
        onto = f2_rank(list(lam_images)) == len(bl_basis)
        # kernel of the composition map, back in ambient coordinates
        kernel_coords = f2_nullspace(
            _transpose_bits(lam_images, len(module.basis(degree - 2))),
            len(e_basis),
        )
        kernel_vecs = f2_compose(kernel_coords, e_basis)
        phi_image = f2_echelon(list(b_basis))
        kernel_ech = f2_echelon(kernel_vecs)
        middle = len(phi_image) == len(kernel_ech) and all(
            f2_in_span(phi_image, kv) for kv in kernel_ech
        )
        exact = included and injective and lands and onto and middle
        forms = expected_dims(degree)
        forms_ok = True
        if forms is not None:
            forms_ok = (len(b_basis), len(e_basis)) == forms
        records.append(
            HomSequenceRecord(
                degree, len(b_basis), len(e_basis), len(bl_basis), exact, forms_ok
            )
        )
    return HomSequenceReport(i_max, tuple(records))


def _transpose_bits(rows: list[int], width: int) -> list[int]:
    out = []
    for j in range(width):
        acc = 0
        for i, row in enumerate(rows):
            if row >> j & 1:
                acc |= 1 << i
        out.append(acc)
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
