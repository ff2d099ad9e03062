import hashlib
import json
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kconn import steenrod
from kconn.abelian import cokernel_group
from kconn.steenrod import (
    HomSequenceRecord,
    HomSequenceReport,
    SteenrodModule,
    expected_dims,
    f2_compose,
    f2_echelon,
    f2_nullspace,
    f2_rank,
    hom_basis,
    hom_dim,
    verify_hom_sequence,
    x_count,
)

from .test_kunneth import serial_and_threaded


# --- independent oracle: the multiplicative total square ------------------------
# Polynomials over F2 are sets of exponent tuples; the total square of a
# variable is x + x^2 and it extends multiplicatively.  Extracting the graded
# piece gives each squaring operation with no binomial arithmetic at all.

def poly_mul(p, q):
    out = set()
    for m1 in p:
        for m2 in q:
            m = tuple(a + b for a, b in zip(m1, m2))
            out.symmetric_difference_update({m})
    return out


def poly_pow(p, e, nvars):
    out = {(0,) * nvars}
    for _ in range(e):
        out = poly_mul(out, p)
    return out


def total_square(mono):
    nvars = len(mono)
    out = {(0,) * nvars}
    for pos, exp in enumerate(mono):
        var = tuple(1 if t == pos else 0 for t in range(nvars))
        var2 = tuple(2 if t == pos else 0 for t in range(nvars))
        out = poly_mul(out, poly_pow({var, var2}, exp, nvars))
    return out


def sq_oracle(k, mono):
    target = sum(mono) + k
    return frozenset(m for m in total_square(mono) if sum(m) == target)


def product_rule(k, mono):
    # Sq^k x^a = C(a, k) x^(a + k), extended to x^a y^b by the Cartan formula
    splits = [(k,)] if len(mono) == 1 else [(i, k - i) for i in range(k + 1)]
    return {tuple(a + i for a, i in zip(mono, split))
            for split in splits if all(comb(a, i) % 2 for a, i in zip(mono, split))}


def basis(space, degree):
    # the monomials of a degree, in the order of the action matrices' rows and bits
    if space == "rp":
        return [(degree,)] if degree >= 1 else []
    return [(a, degree - a) for a in range(1, degree)]


def action_row(action, space, k, mono):
    # the image of a monomial under an action, as a bitmask over the basis k
    # degrees up: the row of the monomial in the action matrix
    target = basis(space, sum(mono) + k)
    return sum(1 << target.index(m) for m in action(k, mono))


def test_sq_action_examples():
    # Sq1(xy) = x^2 y + x y^2, Sq2(x^2 y^2) = x^4 y^2 + x^2 y^4, Sq2(x^3) = x^5
    assert sq_oracle(1, (1, 1)) == frozenset({(2, 1), (1, 2)})
    assert sq_oracle(2, (2, 2)) == frozenset({(4, 2), (2, 4)})
    assert sq_oracle(2, (3,)) == frozenset({(5,)})
    # as rows: x y^2, x^2 y are bits 0, 1 of degree 3; x^2 y^2 is row 1 of
    # degree 4, and x^2 y^4, x^4 y^2 are bits 1, 3 of degree 6
    smash = SteenrodModule("smash")
    assert smash.sq_matrix(1, 2) == [0b11]
    assert smash.sq_matrix(2, 4)[1] == 0b1010
    assert SteenrodModule("rp").sq_matrix(2, 3) == [1]


def test_sq_action_against_total_square_oracle():
    # the action matrices against the multiplicative total square, with no
    # binomial arithmetic: x^a for a up to 12, and every x^a y^b with a and b
    # up to 8
    rp, smash = SteenrodModule("rp"), SteenrodModule("smash")
    for k in (1, 2):
        for a in range(1, 13):
            assert rp.sq_matrix(k, a) == [action_row(sq_oracle, "rp", k, (a,))], (k, a)
        for a in range(1, 9):
            for b in range(1, 9):
                row = action_row(sq_oracle, "smash", k, (a, b))
                assert smash.sq_matrix(k, a + b)[a - 1] == row, (k, a, b)


@pytest.mark.parametrize("space", ["rp", "smash"])
@pytest.mark.parametrize("k", [1, 2])
def test_sq_matrix_matches_the_product_rule(space, k):
    # the action matrices, rebuilt monomial by monomial from binomial
    # coefficients, with no bit tricks
    mod = SteenrodModule(space)
    for degree in range(0, 81):
        rows = [action_row(product_rule, space, k, mono) for mono in basis(space, degree)]
        assert mod.sq_matrix(k, degree) == rows, (space, k, degree)


@pytest.mark.parametrize("space", ["rp", "smash"])
def test_q1_matrix_is_the_commutator(space):
    # the exterior generator's matrix, built by index arithmetic, against
    # its definition Sq1 Sq2 + Sq2 Sq1
    mod = SteenrodModule(space)
    for degree in range(0, 81):
        first = f2_compose(mod.sq_matrix(2, degree), mod.sq_matrix(1, degree + 2))
        second = f2_compose(mod.sq_matrix(1, degree), mod.sq_matrix(2, degree + 1))
        assert mod.q1_matrix(degree) == [a ^ b for a, b in zip(first, second)], (space, degree)


@pytest.mark.parametrize("space", ["rp", "smash"])
def test_sq_matrix_rejects_other_operations(space):
    mod = SteenrodModule(space)
    for degree in range(1, 20):
        if basis(space, degree):
            with pytest.raises(ValueError):
                mod.sq_matrix(3, degree)


# --- operation relations as matrices ---------------------------------------------

@pytest.mark.parametrize("space", ["rp", "smash"])
def test_sq1_sq1_is_zero(space):
    mod = SteenrodModule(space)
    for degree in range(0, 40):
        comp = f2_compose(mod.sq_matrix(1, degree), mod.sq_matrix(1, degree + 1))
        assert all(row == 0 for row in comp), (space, degree)


@pytest.mark.parametrize("space", ["rp", "smash"])
def test_adem_relation_sq2_sq2(space):
    # Sq2 Sq2 = Sq1 Sq2 Sq1 as matrices in every degree
    mod = SteenrodModule(space)
    for degree in range(0, 32):
        left = f2_compose(mod.sq_matrix(2, degree), mod.sq_matrix(2, degree + 2))
        right = f2_compose(
            mod.sq_matrix(1, degree),
            f2_compose(mod.sq_matrix(2, degree + 1), mod.sq_matrix(1, degree + 3)),
        )
        assert left == right, (space, degree)


@pytest.mark.parametrize("space", ["rp", "smash"])
def test_exterior_structure(space):
    mod = SteenrodModule(space)
    for degree in range(0, 30):
        q_then_q = f2_compose(mod.q1_matrix(degree), mod.q1_matrix(degree + 3))
        assert all(row == 0 for row in q_then_q), ("Q1 Q1", space, degree)
        sq1_q1 = f2_compose(mod.sq_matrix(1, degree), mod.q1_matrix(degree + 1))
        q1_sq1 = f2_compose(mod.q1_matrix(degree), mod.sq_matrix(1, degree + 3))
        assert sq1_q1 == q1_sq1, ("commute", space, degree)


# --- Hom dimensions ------------------------------------------------------------------

def test_hom_dim_examples():
    assert hom_dim("B", "smash", 4) == 2
    assert hom_dim("B", "smash", 6) == 1
    assert hom_dim("E", "smash", 8) == 4
    assert hom_dim("B", "smash", 3) == 1


@pytest.mark.parametrize("fn", [hom_dim, hom_basis])
@pytest.mark.parametrize("space", ["rp", "smash"])
@pytest.mark.parametrize("degree", [-1, 0, 1, 5])
def test_hom_functions_check_arguments_in_every_degree(fn, space, degree):
    # checked before the empty-basis early return, so a bad argument fails
    # alike in a degree with no monomials
    with pytest.raises(ValueError, match="algebra must be"):
        fn("X", space, degree)
    with pytest.raises(ValueError, match="space must be"):
        fn("B", space + "-bogus", degree)


def test_hom_dim_closed_forms():
    # every even degree from 4 to 600, past the benchmark's hom-dim sweep
    for i in range(2, 301):
        expected_b = (i - 1) // 2 if i % 2 else 1 + i // 2
        dims = (hom_dim("B", "smash", 2 * i), hom_dim("E", "smash", 2 * i))
        assert dims == (expected_b, i) == expected_dims(2 * i), i


def test_hom_dim_golden_to_600():
    # recorded before the F2 loops were inlined; pins both algebras on both
    # spaces in every degree, odd ones included
    dims = [
        hom_dim(alg, space, degree)
        for alg in "BE"
        for space in ("rp", "smash")
        for degree in range(601)
    ]
    digest = hashlib.sha256(repr(dims).encode()).hexdigest()
    assert digest == "4410dfaa5863726bca74cde146a8076f261df6ce361b24dbb0dddc9236a77701"


def test_hom_dim_additivity():
    # the exterior dimension splits as the restricted one plus the one two
    # degrees down -- except in degree 4, where the squaring image of the
    # single degree-2 monomial is killed by every exterior functional and the
    # boundary term survives (dims 2, 2, 1)
    for degree in range(2, 62, 2):
        total = hom_dim("B", "smash", degree) + hom_dim("B", "smash", degree - 2)
        if degree == 4:
            assert (hom_dim("E", "smash", 4), total) == (2, 3)
        else:
            assert hom_dim("E", "smash", degree) == total, degree

    # why degree 4 is the exception, which is criterion 5's single red
    # degree: the hand proof, from the action and the functional bases alone
    # (functionals are bitmasks over the dual of the monomial basis)
    mod = SteenrodModule("smash")
    assert basis("smash", 4) == [(1, 3), (2, 2), (3, 1)]
    # xy is hit by nothing, so every degree-2 functional survives
    assert hom_basis("B", "smash", 2) == [0b1]
    # every action into degree 4 lands on x^2 y^2, and Q1 has no source
    assert sq_oracle(1, (1, 2)) == frozenset({(2, 2)})
    assert sq_oracle(1, (2, 1)) == frozenset({(2, 2)})
    assert sq_oracle(2, (1, 1)) == frozenset({(2, 2)})
    assert mod.q1_matrix(1) == []
    # so the inclusion is an isomorphism onto the annihilator of x^2 y^2
    functionals = hom_basis("B", "smash", 4)
    assert functionals == hom_basis("E", "smash", 4)
    assert sorted(functionals) == [0b001, 0b100]
    # precomposition with Sq2 from degree 2 sends both functionals to 0:
    # exact at the left and in the middle, with a one-dimensional cokernel
    # at the right end
    sq2 = mod.sq_matrix(2, 2)
    for f in functionals:
        assert all(bin(row & f).count("1") % 2 == 0 for row in sq2), f


def test_hom_dim_brute_force_degree_3():
    # basis {x y^2, x^2 y}, image from Sq1(xy); one functional survives
    assert len(basis("smash", 3)) == 2
    assert f2_rank(SteenrodModule("smash").sq_matrix(1, 2)) == 1
    assert hom_dim("B", "smash", 3) == 1


# (width, rows): up to 7 rows of bitmasks narrower than width
f2_rows = st.integers(1, 7).flatmap(
    lambda width: st.tuples(
        st.just(width), st.lists(st.integers(0, 2**width - 1), max_size=7)
    )
)


@settings(max_examples=200, deadline=None)
@given(f2_rows)
def test_f2_rank_matches_integer_cokernel(shape):
    # the cokernel of a 0/1 matrix over Z, tensored with F2, has dimension
    # ncols - rank mod 2: its free rank plus its even invariant factors
    ncols, rows = shape
    group = cokernel_group(ncols, [{j: 1 for j in range(ncols) if row >> j & 1} for row in rows])
    even = sum(1 for d in group.invariant_factors if d % 2 == 0)
    assert f2_rank(rows) == ncols - (group.free_rank + even)
    echelon = f2_echelon(rows)
    assert len(echelon) == f2_rank(rows)
    lows = [row & -row for row in echelon]
    assert lows == sorted(set(lows))


def subset_span(rows):
    # every XOR of a subset of the rows, by brute force
    span = {0}
    for row in rows:
        span |= {v ^ row for v in span}
    return span


@settings(max_examples=200, deadline=None)
@given(f2_rows)
def test_f2_nullspace_contract(shape):
    # one vector per free column: it sets that column, no other non-pivot
    # column, and has even overlap with every row
    width, rows = shape
    null = f2_nullspace(rows, width)
    pivots = 0
    for row in f2_echelon(rows):
        pivots |= row & -row
    assert len(null) == width - f2_rank(rows)
    free_bits = [v & ~pivots for v in null]
    assert all(bits.bit_count() == 1 for bits in free_bits)
    assert sorted(free_bits) == [1 << j for j in range(width) if not pivots >> j & 1]
    for v in null:
        assert v < 1 << width
        assert all((row & v).bit_count() % 2 == 0 for row in rows), (v, rows)


@settings(max_examples=200, deadline=None)
@given(f2_rows)
def test_f2_echelon_spans_input_and_decides_membership(shape):
    width, rows = shape
    echelon = f2_echelon(rows)
    span = subset_span(rows)
    assert subset_span(echelon) == span
    for vec in range(2**width):
        assert (f2_rank(echelon + [vec]) == len(echelon)) == (vec in span), (vec, rows)


# --- the F2 loops against the generator-based ones they replaced -------------------
# Test-local copies of the reduction as it was: one _reduce call per row, and a
# _set_bits generator for every set bit walked.

def old_set_bits(x):
    while x:
        low = x & -x
        yield low
        x ^= low


def old_reduce(pivots, row):
    while row and (pivot := pivots.get(row & -row)):
        row ^= pivot
    return row


def old_f2_basis(rows):
    pivots = {}
    for row in rows:
        if row := old_reduce(pivots, row):
            pivots[row & -row] = row
    return pivots


def old_f2_nullspace(rows, width):
    pivots = old_f2_basis(rows)
    mask = sum(pivots)
    out = {j: 1 << j for j in range(width) if not mask >> j & 1}
    for low in sorted(pivots, reverse=True):
        row = pivots[low]
        for bit in old_set_bits((row & mask) ^ low):
            row ^= pivots[bit]
        pivots[low] = row
        for bit in old_set_bits(row & ~mask):
            out[bit.bit_length() - 1] |= low
    return list(out.values())


def old_f2_compose(first, then):
    out = []
    for row in first:
        acc = 0
        for low in old_set_bits(row):
            acc ^= then[low.bit_length() - 1]
        out.append(acc)
    return out


def sparse_row(width):
    # 1 to 3 set bits below the width, as the action matrices have
    bits = st.sets(st.integers(0, width - 1), min_size=1, max_size=3)
    return bits.map(lambda js: sum(1 << j for j in js))


# (width, rows): wide, sparse matrices, up to 200 columns and 200 rows
wide_rows = st.integers(1, 200).flatmap(
    lambda width: st.tuples(st.just(width), st.lists(sparse_row(width), max_size=200))
)
# (first, then): a wide sparse matrix, and a row for each of its columns (only
# the bits of ``first`` are walked, so ``then`` need not be sparse)
composable = wide_rows.flatmap(
    lambda shape: st.tuples(
        st.just(shape[1]),
        st.lists(st.integers(0, 2**200 - 1), min_size=shape[0], max_size=shape[0]),
    )
)


@settings(max_examples=200, deadline=None)
@given(wide_rows)
def test_f2_reduction_matches_the_generator_version(shape):
    width, rows = shape
    old = old_f2_basis(rows)
    # the same pivots, kept in the same order
    assert list(steenrod._f2_basis(rows).items()) == list(old.items())
    assert f2_rank(rows) == len(old)
    assert f2_echelon(rows) == [old[low] for low in sorted(old)]
    assert f2_nullspace(rows, width) == old_f2_nullspace(rows, width)


@settings(max_examples=200, deadline=None)
@given(composable)
def test_f2_compose_matches_the_generator_version(pair):
    first, then = pair
    assert f2_compose(first, then) == old_f2_compose(first, then)


def test_action_matrices_match_the_basis_tuples():
    # the index-range builders against the comprehensions over basis()
    # tuples that they replaced, and the arithmetic widths against the bases
    mod = SteenrodModule("smash")
    for d in range(-2, 401):
        monos = basis("smash", d)
        assert mod.sq_matrix(1, d) == [(b & 1) << (a - 1) | (a & 1) << a for a, b in monos], d
        assert mod.sq_matrix(2, d) == [
            (b >> 1 & 1) << (a - 1) | (a & b & 1) << a | (a >> 1 & 1) << (a + 1)
            for a, b in monos
        ], d
        assert mod.q1_matrix(d) == [(a & 1) << (a + 2) | (b & 1) << (a - 1) for a, b in monos], d
        for space in ("rp", "smash"):
            assert steenrod._width(space, d) == len(basis(space, d)), (space, d)


def test_hom_basis_golden_to_160():
    # recorded before any change to the F2 core; pins the functional bases of
    # both algebras on both spaces in every degree, odd ones included
    bases = [
        hom_basis(alg, space, degree)
        for alg in "BE"
        for space in ("rp", "smash")
        for degree in range(161)
    ]
    digest = hashlib.sha256(repr(bases).encode()).hexdigest()
    assert digest == "65493305eb19ef45eb939690e58859772ccd8e806e16b454c73d44dd9b50968a"


# --- exactness of the dual sequence ---------------------------------------------------

def test_hom_sequence_dims_at_8():
    report = verify_hom_sequence(8)
    rec = next(r for r in report.records if r.degree == 8)
    assert (rec.dim_b, rec.dim_e, rec.dim_b_lower) == (3, 4, 1)
    assert rec.dim_e == rec.dim_b + rec.dim_b_lower
    assert rec.exact


def test_hom_sequence_at_2():
    report = verify_hom_sequence(2)
    rec = report.records[0]
    assert (rec.dim_b, rec.dim_e, rec.dim_b_lower) == (1, 1, 0)
    assert rec.exact


def test_hom_sequence_vacuous():
    assert verify_hom_sequence(0).all_ok


def test_hom_sequence_full_range():
    # exact in every even degree except the boundary failure in degree 4,
    # where 2 -> 2 -> 1 admits no exact sequence
    report = verify_hom_sequence(60)
    for rec in report.records:
        assert rec.closed_forms_ok, rec
        assert rec.exact == (rec.degree != 4), rec


def test_hom_sequence_golden_to_200():
    # recorded before any change to the F2 core; pins every record byte for byte
    text = json.dumps(verify_hom_sequence(200).to_json_dict(), sort_keys=True, indent=2)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == "97c13e820876cb2de5b5ade85f25a72a95c600e06569f9c537664e13c4ad7bd4"


def test_hom_sequence_golden_to_600():
    # recorded while exactness was still decided on bases of functionals
    text = json.dumps(verify_hom_sequence(600).to_json_dict(), sort_keys=True, indent=2)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == "bc29d313f5f28ca7916789c662e176a1a4e0ec79f931c1099d16430bfb1bde19"


# --- the image check against bases of functionals ---------------------------------------
# The sequence as it was checked before: nullspace bases of the functionals,
# the inclusion as a rank, precomposition as the functionals times the
# transposed Sq2, and the kernel of that map as a nullspace.  Test-local, as
# the library decides exactness by ranks of the action images alone.

def transpose_bits(rows, width):
    # the columns of the rows, as bitmasks over the row indices
    out = [0] * width
    for i, row in enumerate(rows):
        for low in old_set_bits(row):
            out[low.bit_length() - 1] |= 1 << i
    return out


def direct_hom_sequence(i_max):
    module = SteenrodModule("smash")
    records = []
    bl_basis = hom_basis("B", "smash", 0)
    for degree in range(2, i_max + 1, 2):
        sq2_rows = module.sq_matrix(2, degree - 2)
        sq1 = steenrod._sq1_pivots("smash", degree)
        b_basis = steenrod._nullspace(steenrod._f2_basis(sq2_rows, sq1), degree - 1)
        e_basis = hom_basis("E", "smash", degree)
        # every restricted functional is an exterior one, and the basis is
        # independent
        included = f2_rank(e_basis + b_basis) == len(e_basis)
        injective = f2_rank(b_basis) == len(b_basis)
        # precomposition with Sq2: the image of a functional is the sum of
        # the Sq2 columns it selects, over the degree - 3 monomials below
        lam_images = f2_compose(e_basis, transpose_bits(sq2_rows, degree - 1))
        lands = f2_rank(bl_basis + lam_images) == len(bl_basis)
        onto = f2_rank(lam_images) == len(bl_basis)
        # the kernel of precomposition, back in the monomial dual coordinates
        kernel_coords = f2_nullspace(transpose_bits(lam_images, max(degree - 3, 0)), len(e_basis))
        kernel_vecs = f2_compose(kernel_coords, e_basis)
        middle = f2_rank(kernel_vecs) == f2_rank(b_basis + kernel_vecs) == len(b_basis)
        exact = included and injective and lands and onto and middle
        forms = expected_dims(degree)
        forms_ok = forms is None or (len(b_basis), len(e_basis)) == forms
        records.append(HomSequenceRecord(
            degree, len(b_basis), len(e_basis), len(bl_basis), exact, forms_ok))
        bl_basis = b_basis
    return HomSequenceReport(i_max, tuple(records))


def flipped(rows, seed, op, degree, width):
    # about one row in twenty gets one bit flipped below the width; each
    # flip is drawn from (seed, op, degree, row) alone, so a matrix is the
    # same however often and in whatever order the checks build it
    out = []
    for index, row in enumerate(rows):
        rng = random.Random(f"{seed} {op} {degree} {index}")
        if rng.random() < 0.05:
            row ^= 1 << rng.randrange(width)
        out.append(row)
    return out


def test_the_image_check_matches_the_functional_bases_on_perturbed_actions(monkeypatch):
    # the argument of verify_hom_sequence holds for any action matrices, so
    # the image check and the one on bases of functionals must give equal
    # reports on Sq1, Sq2 and Q1 rows with bits flipped, and every case
    # changes exactness somewhere
    sq_matrix, q1_matrix = SteenrodModule.sq_matrix, SteenrodModule.q1_matrix
    unperturbed = [r.exact for r in verify_hom_sequence(40).records]
    for seed in range(10):
        for ops in [("sq1",), ("sq2",), ("q1",), ("sq1", "sq2", "q1")]:
            def perturbed_sq(self, k, degree, seed=seed, ops=ops):
                rows = sq_matrix(self, k, degree)
                if f"sq{k}" not in ops:
                    return rows
                return flipped(rows, seed, f"sq{k}", degree, steenrod._width(self.space, degree + k))

            def perturbed_q1(self, degree, seed=seed, ops=ops):
                rows = q1_matrix(self, degree)
                if "q1" not in ops:
                    return rows
                return flipped(rows, seed, "q1", degree, steenrod._width(self.space, degree + 3))

            with monkeypatch.context() as patch:
                patch.setattr(SteenrodModule, "sq_matrix", perturbed_sq)
                patch.setattr(SteenrodModule, "q1_matrix", perturbed_q1)
                # the cached Sq1 pivots would carry one case's flips into the
                # next case, and into later tests
                steenrod._sq1_pivots.cache_clear()
                try:
                    direct, images = direct_hom_sequence(40), verify_hom_sequence(40)
                finally:
                    steenrod._sq1_pivots.cache_clear()
            assert images == direct, (seed, ops)
            assert [r.exact for r in images.records] != unperturbed, (seed, ops)


def test_hom_sequence_builds_each_sq2_matrix_once(monkeypatch):
    # one Sq2 build per even degree serves both the restricted functionals
    # and the precomposition; the degree-0 lower basis adds one more
    sq_matrix = SteenrodModule.sq_matrix
    degrees = []

    def counting(self, k, degree):
        if k == 2:
            degrees.append(degree)
        return sq_matrix(self, k, degree)

    monkeypatch.setattr(SteenrodModule, "sq_matrix", counting)
    verify_hom_sequence(200)
    assert degrees == [-2, *range(0, 199, 2)]


def test_expected_dims_table():
    assert expected_dims(8) == (3, 4)
    assert expected_dims(6) == (1, 3)
    assert expected_dims(2) is None


# --- wedge pair count -------------------------------------------------------------------

def test_x_count_examples():
    assert x_count(2) == 1
    assert x_count(3) == 1
    assert x_count(1) == 0
    assert x_count(10) == 5
    assert x_count(0) == 0


def test_x_count_closed_form_and_enumeration():
    for n in range(0, 101):
        brute = sum(
            1
            for i in range(1, 2 * n + 2)
            for j in range(1, 2 * n + 2)
            if (2 * i - 1) + (4 * j - 1) == 2 * n
        )
        assert x_count(n) == brute
        assert x_count(n) == (n // 2 if n % 2 == 0 else (n - 1) // 2)


def test_hom_dim_threads_match_serial():
    queries = [(alg, "smash", d) for alg in ("B", "E") for d in range(61)]
    serial, threaded = serial_and_threaded(hom_dim, queries, steenrod)
    assert threaded == serial
