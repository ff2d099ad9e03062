import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from heapq import heappop, heappush
from math import gcd, lcm, prod
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kconn import abelian
from kconn.abelian import (
    FgAbelianGroup,
    GroupPresentation,
    IntegerMatrix,
    _echelon,
    _solve_against_echelon,
    cokernel_group,
    element_order,
    kernel_of_map,
    parse_group,
    render_group,
    simplify_presentation,
)
from kconn.kmods import ku_smash_check, lu_module
from kconn.kunneth import tor1_degree

Z = FgAbelianGroup.free
C = FgAbelianGroup.cyclic
trivial = FgAbelianGroup.trivial

SRC = Path(__file__).resolve().parents[1] / "src"


# --- independent oracles -----------------------------------------------------

def sparse(rows):
    """Dense rows as the library's sparse rows."""
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def det_bareiss(mat):
    """Fraction-free determinant, independent of the Smith machinery."""
    a = [list(r) for r in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def enumerate_quotient_order(rows, n, cap=5000):
    """Count Z^n modulo the row lattice by reducing vectors to canonical
    residues against a row-reduced basis (test-local, no Smith form)."""
    basis = []
    for row in rows:
        r = list(row)
        while True:
            j = next((k for k, x in enumerate(r) if x), None)
            if j is None:
                break
            hit = next((b for b in basis if next(k for k, x in enumerate(b) if x) == j), None)
            if hit is None:
                basis.append([-x for x in r] if r[j] < 0 else r)
                break
            a, b = hit[j], r[j]
            if b % a == 0:
                q = b // a
                for k in range(n):
                    r[k] -= q * hit[k]
            else:
                # gcd step
                while r[j]:
                    q = hit[j] // r[j]
                    for k in range(n):
                        hit[k] -= q * r[k]
                    hit[:], r[:] = r[:], hit[:]
        basis.sort(key=lambda b: next(k for k, x in enumerate(b) if x))
    leads = {next(k for k, x in enumerate(b) if x): b for b in basis}
    if len(leads) < n:
        return None  # infinite quotient
    # canonical residues: reduce each coordinate modulo its pivot, back to front
    def canon(vec):
        v = list(vec)
        for j in sorted(leads):
            b = leads[j]
            q = v[j] // b[j]
            for k in range(n):
                v[k] -= q * b[k]
        return tuple(v)

    seen = set()
    frontier = [canon([0] * n)]
    seen.add(frontier[0])
    while frontier:
        cur = frontier.pop()
        for j in range(n):
            for step in (1, -1):
                nxt = list(cur)
                nxt[j] += step
                cv = canon(nxt)
                if cv not in seen:
                    if len(seen) >= cap:
                        raise AssertionError("quotient larger than enumeration cap")
                    seen.add(cv)
                    frontier.append(cv)
    return len(seen)


def reference_group(n, rows):
    """Z^n modulo the row lattice, by determinantal divisors: d_k is the gcd
    of the k x k minors, and the k-th invariant factor is d_k / d_(k-1).
    Slow and obvious, and shares no code with the library."""
    m = len(rows)
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        d = 0
        for rs in itertools.combinations(range(m), k):
            for cs in itertools.combinations(range(n), k):
                d = gcd(d, det_bareiss([[rows[i][j] for j in cs] for i in rs]))
                if d == divisors[-1]:
                    break  # d_(k-1) divides d_k, so it cannot fall further
            if d == divisors[-1]:
                break
        if d == 0:
            break  # every k x k minor vanishes, and so does every larger one
        divisors.append(d)
    orders = [b // a for a, b in zip(divisors, divisors[1:])]
    rank = len(orders)
    return factored_group(n - rank, orders)


def factored_group(free_rank, orders):
    """The canonical form of Z^free_rank plus the Z/d over ``orders`` (0 is a
    copy of Z), built prime by prime: factor each order by trial division,
    and make the k-th largest invariant factor the product of every prime's
    k-th largest power.  Shares no code with the library's gcd/lcm chain."""
    powers: dict[int, list[int]] = {}
    for d in map(abs, orders):
        if d == 0:
            free_rank += 1
        p = 2
        while p * p <= d:
            e = 0
            while d % p == 0:
                d, e = d // p, e + 1
            if e:
                powers.setdefault(p, []).append(p**e)
            p += 1
        if d > 1:
            powers.setdefault(d, []).append(d)
    for column in powers.values():
        column.sort(reverse=True)
    width = max(map(len, powers.values()), default=0)
    factors = [prod(c[k] for c in powers.values() if k < len(c)) for k in range(width)]
    return FgAbelianGroup(free_rank, tuple(reversed(factors)))


# --- cokernels ---------------------------------------------------------------

@pytest.mark.parametrize("rows,n,expected", [
    pytest.param([[2, 0], [0, 3]], 2, C(6), id="diag_2_3"),
    pytest.param([[0, 0], [0, 0]], 2, Z(2), id="zero_matrix"),
    pytest.param([[4]], 1, C(4), id="single_entry"),
])
def test_cokernel_hand_cases(rows, n, expected):
    assert cokernel_group(n, sparse(rows)) == expected
    assert reference_group(n, rows) == expected


def test_cokernel_already_diagonal():
    assert cokernel_group(2, [{0: 2}, {1: 4}]) == FgAbelianGroup(0, (2, 4))


def test_cokernel_no_relations():
    assert cokernel_group(1, []) == Z(1)


def test_cokernel_mixed_free_torsion():
    assert cokernel_group(2, [{0: 2, 1: -2}]) == FgAbelianGroup(1, (2,))


def test_cokernel_units_dropped():
    assert cokernel_group(3, [{0: 1}, {1: 6}, {2: 15}]) == FgAbelianGroup(0, (3, 30))


def test_cokernel_order_matches_determinant_and_enumeration():
    rng = random.Random(23)
    trials = 0
    while trials < 60:
        n = rng.randrange(1, 4)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        det = abs(det_bareiss(rows))
        if det == 0 or det > 1000:
            continue
        trials += 1
        g = cokernel_group(n, sparse(rows))
        assert g.order() == det
        assert enumerate_quotient_order(rows, n) == det


def test_cokernel_rectangular_vs_enumeration():
    rng = random.Random(5)
    trials = 0
    while trials < 30:
        n = rng.randrange(1, 4)
        m = rng.randrange(n, n + 3)
        rows = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        g = cokernel_group(n, sparse(rows))
        if g.order() is None or g.order() > 800:
            continue
        trials += 1
        assert enumerate_quotient_order(rows, n) == g.order()


def test_cokernel_sparse_rows_match_matrix():
    rows = [[0, 4, 0], [6, 0, 0], [0, 0, 0], [2, 2, 0]]
    assert cokernel_group(3, sparse(rows)) == reference_group(3, rows)
    assert cokernel_group(3, sparse(rows)) == FgAbelianGroup(1, (2, 2))


def test_cokernel_sparse_ignores_zero_entries_and_empty_rows():
    rows = [{0: 2, 1: 0}, {}, {1: 0}]
    assert cokernel_group(2, rows) == FgAbelianGroup(1, (2,))
    assert cokernel_group(2, []) == Z(2)
    assert rows == [{0: 2, 1: 0}, {}, {1: 0}]  # the caller's rows are not touched


@pytest.mark.parametrize("row", [{-1: 1}, {2: 3}, {0: 1, 5: 2}, {7: 0}])
def test_cokernel_sparse_column_out_of_range(row):
    with pytest.raises(ValueError):
        cokernel_group(2, [{0: 2}, row])


def test_cokernel_matrix_width_checked():
    # a relation or an image reaching past the generator count is rejected,
    # and so are a negative generator count and a missing image
    with pytest.raises(ValueError):
        cokernel_group(1, [{0: 1, 1: 2}])
    with pytest.raises(ValueError):
        GroupPresentation(1, [{1: 2}])
    with pytest.raises(ValueError):
        GroupPresentation(-1, [])
    with pytest.raises(ValueError):
        kernel_of_map(pres(1, []), pres(1, []), [{1: 1}])
    with pytest.raises(ValueError):
        kernel_of_map(pres(2, []), pres(1, []), [{0: 1}])


def test_presentations_hold_read_only_copies():
    # editing the caller's rows after construction changes nothing, and the
    # rows of a presentation or a simplification refuse edits
    rows = [{0: 2, 1: 0}, {1: 4}]
    g = GroupPresentation(2, rows)
    rows[0][0] = 1
    rows.append({1: 1})
    assert g.relations == ({0: 2}, {1: 4})
    assert g.group() == FgAbelianGroup(0, (2, 4))
    simp = simplify_presentation(GroupPresentation(3, [{0: 1, 2: 3}, {1: 6}]))
    held = (*g.relations, *simp.to_min, *simp.from_min, *simp.presentation.relations)
    for row in held:
        for edit in (lambda r: r.__setitem__(0, 5), lambda r: r.__delitem__(0),
                     lambda r: r.update({0: 5}), lambda r: r.pop(0, None),
                     lambda r: r.setdefault(0, 5), lambda r: r.clear(),
                     lambda r: r.popitem(), lambda r: r.__ior__({0: 5})):
            with pytest.raises(TypeError):
                edit(row)
    # equal presentations hash alike, and copies compare equal
    g2 = GroupPresentation(2, [{0: 2}, {1: 4, 0: 0}])
    assert hash(g2) == hash(g)
    assert copy.deepcopy(simp) == simp and pickle.loads(pickle.dumps(g)) == g
    # kernel_of_map reads a map's image rows and leaves them as they were
    images = [{0: 1, 1: 0}, {1: 1}]
    assert kernel_of_map(g, g, images) == trivial()
    assert images == [{0: 1, 1: 0}, {1: 1}]


@pytest.mark.parametrize("row", [[2, 0], {0: 2.5}, {"0": 2}, {0: "2"}])
def test_presentation_rows_must_map_integer_columns_to_integers(row):
    with pytest.raises(TypeError):
        GroupPresentation(2, [row])
    with pytest.raises(TypeError):
        kernel_of_map(pres(1, []), pres(2, []), [row])


def test_integer_matrix_gives_sparse_rows():
    # dense input reaches presentations and image rows through IntegerMatrix
    assert IntegerMatrix([[2, 0, 0], [0, 0, -4]]) == ({0: 2}, {2: -4})
    assert IntegerMatrix([], 2) == ()
    assert IntegerMatrix([[0, 0]], 2) == ({},)
    g = GroupPresentation(2, IntegerMatrix([[2, 0], [0, 4]]))
    assert g.group() == FgAbelianGroup(0, (2, 4))
    assert kernel_of_map(g, g, IntegerMatrix([[2, 0], [0, 2]], 2)) == FgAbelianGroup(0, (2, 2))
    for entries, cols in (([[1], [1, 2]], None), ([[1, 2]], 3), ([], -1)):
        with pytest.raises(ValueError):
            IntegerMatrix(entries, cols)


# entries lean to zero and to non-units, so the non-unit stage gets work
_ENTRY = st.one_of(st.just(0), st.just(0), st.integers(-12, 12))


@st.composite
def _relations(draw):
    n = draw(st.integers(0, 6))
    m = draw(st.integers(0, 7))
    scale = draw(st.sampled_from((1, 1, 2, 6)))  # scaled matrices hold no unit
    rows = [[scale * draw(_ENTRY) for _ in range(n)] for _ in range(m)]
    return n, rows


@settings(max_examples=300, deadline=None)
@given(_relations(), st.randoms(use_true_random=False))
def test_cokernel_differential(relations, rng):
    n, rows = relations
    got = cokernel_group(n, sparse(rows))
    assert got == reference_group(n, rows)
    row_perm = list(range(len(rows)))
    col_perm = list(range(n))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    permuted = [[rows[i][col_perm[j]] for j in range(n)] for i in row_perm]
    assert cokernel_group(n, sparse(permuted)) == got


def test_a_unit_in_the_kept_column_survives_the_peel():
    rows, col_index = abelian._sparse_rows([[(0, 1)], [(0, 2), (1, 1)]], 2)
    assert abelian._peel(rows, col_index, keep=0) == (1, [])
    assert list(rows.values()) == [{0: 1}]
    rows, col_index = abelian._sparse_rows([[(0, 1)]], 1)
    assert abelian._peel(rows, col_index) == (1, []) and rows == {}


def test_the_peel_pivots_on_the_content_while_it_grows():
    # content 2: the -2 at column 1 goes, and then 4 is the content of what
    # is left; the 4 at column 2 goes, and the one in the kept column stays
    rows, col_index = abelian._sparse_rows(
        [[(1, -2), (2, 4)], [(2, 4), (3, 8)], [(0, 4), (3, 8)]], 4)
    assert abelian._peel(rows, col_index, keep=0) == (2, [2, 4])
    assert rows == {2: {0: 4, 3: 8}}
    # the kept column's 2 holds the content at 2, so the peel stops there
    rows, col_index = abelian._sparse_rows([[(0, 2), (1, -2)], [(0, 2), (1, 4), (2, 8)]], 3)
    assert abelian._peel(rows, col_index, keep=0) == (1, [2])
    assert rows == {1: {0: 6, 2: 8}}
    # no entry equals the content 2 of {6, 10}: nothing goes
    rows, col_index = abelian._sparse_rows([[(0, 6), (1, 10)]], 2)
    assert abelian._peel(rows, col_index) == (0, []) and rows == {0: {0: 6, 1: 10}}
    # a unit first, then the content 3 of the rest
    rows, col_index = abelian._sparse_rows([[(0, 1), (1, 3)], [(1, 3), (2, 3)]], 3)
    assert abelian._peel(rows, col_index) == (2, [3]) and rows == {}


def reference_peel_at(rows, col_index, pivot, keep):
    """The peel at one pivot as first written, with a filing closure and the
    shared row subtraction: :func:`abelian._peel_at` must follow it pivot
    for pivot."""
    heap = []

    def file(rid, row):
        hits = [(len(col_index[c]), c) for c, v in row.items()
                if (v == pivot or v == -pivot) and c != keep]
        if hits:
            heappush(heap, (len(row), *min(hits), rid))

    for rid, row in rows.items():
        file(rid, row)
    peeled = 0
    while heap:
        size, _, c, rid = heappop(heap)
        prow = rows.get(rid)
        if prow is None or len(prow) != size or prow.get(c) not in (pivot, -pivot):
            continue
        sign = 1 if prow[c] == pivot else -1
        for other in [o for o in col_index[c] if o != rid]:
            abelian._subtract(rows, col_index, other, rows[other][c] // pivot * sign, prow)
            if rows[other]:
                file(other, rows[other])
            else:
                del rows[other]
        for k in rows.pop(rid):
            col_index[k].discard(rid)
        peeled += 1
    return peeled


@st.composite
def _peel_lattices(draw):
    """Sparse rows on n columns whose entries are multiples of a pivot g, g
    = 1 (units) or a content above 1, and a kept column or none (-1); the
    rows are long enough that pivots tie on length and differ in how many
    rows their column meets."""
    n = draw(st.integers(1, 8))
    g = draw(st.sampled_from((1, 1, 2, 3, 4)))
    keep = draw(st.integers(-1, n - 1))
    entry = st.sampled_from((0, 0, 0, 1, -1, 1, 2, -3))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        row = {j: g * draw(entry) for j in range(n)}
        rows.append({j: v for j, v in row.items() if v})
    return n, rows, g, keep


@settings(max_examples=400, deadline=None)
@given(_peel_lattices())
@example((3, [{0: 1, 1: 1}, {1: 1, 2: 1}, {1: 2, 2: 1}], 1, -1))
@example((3, [{0: 2, 1: 2}, {0: 2, 2: -2}, {0: 4}], 2, 0))
def test_the_one_loop_peel_matches_the_reference(case):
    n, rows, g, keep = case
    got = abelian._sparse_rows((row.items() for row in rows), n)
    expected = abelian._sparse_rows((row.items() for row in rows), n)
    assert abelian._peel_at(*got, g, keep) == reference_peel_at(*expected, g, keep)
    assert got == expected
    # the same rows in the same order, so the later stages see one lattice
    assert [list(row.items()) for row in got[0].values()] == (
        [list(row.items()) for row in expected[0].values()])


def bucketed_diagonal(rows, col_index):
    """The general elimination as it was before the short Euclid loop: rows
    bucketed by their least |value|, a changed row filed again and its
    older entry skipped as stale, and a smaller remainder in the pivot's
    column taking over at once.  :func:`abelian._diagonal` must give the
    same diagonal up to the canonical form."""

    def least(rid):
        return min(map(abs, rows[rid].values()))

    buckets = {}
    for rid in rows:
        buckets.setdefault(least(rid), []).append(rid)
    diag = []
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
                    abelian._subtract(rows, col_index, other, q, prow)
                    touched.add(other)
                if c in rows[other]:
                    smaller.append((abs(rows[other][c]), other))
            if smaller:
                rid = min(smaller)[1]
                continue
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
        for k in rows.pop(rid):
            col_index[k].discard(rid)
        touched.discard(rid)
        for other in touched:
            if rows.get(other):
                buckets.setdefault(least(other), []).append(other)
            else:
                rows.pop(other, None)
    return diag


@st.composite
def _whole_lattices(draw):
    """Sparse rows on n <= 6 columns whose entries are multiples of 6, 10
    and 15, none a unit, so that the content peel leaves them whole, as
    only a library caller's lattice reaches the general elimination."""
    n = draw(st.integers(1, 6))
    entry = st.builds(lambda g, x: g * x, st.sampled_from((6, 10, 15)),
                      st.sampled_from((1, -1, 2, -3, 7)))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        row = {j: draw(st.one_of(st.just(0), entry)) for j in range(n)}
        rows.append({j: v for j, v in row.items() if v})
    return n, rows


@settings(max_examples=300, deadline=None)
@given(_whole_lattices())
@example((2, [{0: -6, 1: 10}, {1: 15}]))  # a negative pivot
@example((2, [{0: 6, 1: 10}]))
@example((2, [{0: 6, 1: 10}, {0: 10, 1: 15}]))  # the remainder 4 moves the pivot to row 1
def test_the_euclid_loop_matches_the_bucketed_elimination(case):
    n, rows = case
    peeled = abelian._sparse_rows((row.items() for row in rows), n)
    assume(abelian._peel(*peeled) == (0, []))
    got = abelian._sparse_rows((row.items() for row in rows), n)
    expected = abelian._sparse_rows((row.items() for row in rows), n)
    diag = abelian._diagonal(*got)
    reference = bucketed_diagonal(*expected)
    assert (len(diag), abelian._chain(diag)) == (len(reference), abelian._chain(reference))
    assert got[0] == {} and not any(got[1].values())


def cokernel_pair(generators, relations, column):
    """(G, G / <e_column>) for G the cokernel of ``relations``, from one peel
    that keeps ``column``: the summands it takes out belong to both, and
    adding e_column as a relation just drops that column from what is left,
    which the general elimination then takes with and without it.
    Test-local: the library makes the two cokernels separately, each by its
    own peel."""
    rows, col_index = abelian._sparse_rows((row.items() for row in relations), generators)
    rank, factors = abelian._peel(rows, col_index, keep=column)
    residual = abelian._sparse_rows(([(c, v) for c, v in row.items() if c != column]
                                     for row in rows.values()), generators)
    diag = abelian._diagonal(rows, col_index)
    group = FgAbelianGroup.from_cyclic_orders(generators - rank - len(diag), factors + diag)
    diag = abelian._diagonal(*residual)
    return group, FgAbelianGroup.from_cyclic_orders(generators - rank - 1 - len(diag),
                                                    factors + diag)


def reference_order(n, rows, c):
    """The order of e_c in Z^n modulo the row lattice (None = infinite): the
    least k with k e_c in the lattice, that is, with the quotient unchanged
    by the relation k e_c, since a finitely generated abelian group is not
    isomorphic to a proper quotient of itself.  A torsion element's order
    divides the largest invariant factor."""
    group = reference_group(n, rows)
    top = max(group.invariant_factors, default=1)
    for k in range(1, top + 1):
        if top % k == 0 and reference_group(n, rows + [[k * (j == c) for j in range(n)]]) == group:
            return k
    return None


@st.composite
def _content_lattices(draw):
    """Dense rows on n >= 1 columns and a kept column c, of three kinds:
    entries p^k u with u prime to p, whose content is a power of p above 1
    and whose valuations differ; entries g x for a g that mixes primes; and
    entries +-g with some at c, so that the peel meets content pivots it
    must leave wherever the kept column sits."""
    n = draw(st.integers(1, 5))
    c = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(("valuations", "mixed", "kept")))
    if kind == "valuations":
        p = draw(st.sampled_from((2, 3, 5)))
        low = draw(st.integers(1, 2))
        entry = st.builds(lambda k, u: p**k * u, st.integers(low, low + 2),
                          st.sampled_from((1, -1, p + 1, -p - 1)))
    elif kind == "mixed":
        entry = st.builds(lambda g, x: g * x, st.sampled_from((1, 6, 10, 15)),
                          st.sampled_from((1, -1, 2, 3, -5, 7)))
    else:
        g = draw(st.sampled_from((2, 3, 4)))
        entry = st.sampled_from((g, -g, 2 * g, 3 * g))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = [draw(st.one_of(st.just(0), st.just(0), entry)) for _ in range(n)]
        if kind == "kept" and draw(st.booleans()):
            row[c] = draw(entry)
        rows.append(row)
    return n, rows, c


@settings(max_examples=200, deadline=None)
@given(_content_lattices())
@example((2, [[2, 4], [4, 2]], 0))
@example((3, [[4, 2, 0], [0, 4, 8]], 1))
@example((2, [[6, 10]], 0))
def test_content_pivots_against_the_dense_reference(case):
    n, rows, c = case
    group, quotient = cokernel_pair(n, sparse(rows), c)
    assert cokernel_group(n, sparse(rows)) == group == reference_group(n, rows)
    assert quotient == reference_group(n, rows + [[int(j == c) for j in range(n)]])
    assert abelian._order_from_quotient(group, quotient) == reference_order(n, rows, c)


@pytest.mark.parametrize("column", [-1, 3])
def test_peeled_column_out_of_range(column):
    with pytest.raises(ValueError):
        abelian._peeled(3, [{0: 2}], column)


def tensor_rows(m, a_rows, n, b_rows):
    """Relation rows of coker A (x) coker B on the m * n products of the two
    bases, column i * n + j, from rows given as (column, value) pairs: each
    relation of one side times each basis element of the other."""
    rows = [{i * n + j: c for i, c in row} for row in a_rows for j in range(n)]
    rows += [{i * n + j: c for j, c in row} for row in b_rows for i in range(m)]
    return rows


@st.composite
def _kept_lattices(draw):
    """Sparse rows on n <= 6 columns and a kept column anywhere: some
    columns hold no entry (free generators the peel keeps untouched), the
    entries are a content g <= 6 times small multipliers, and some rows put
    a unit in, so the peel takes out units and Z/g summands and leaves a
    residue for the general elimination."""
    n = draw(st.integers(1, 6))
    keep = draw(st.integers(0, n - 1))
    g = draw(st.integers(1, 6))
    free = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    entry = st.sampled_from((0, 0, 1, -1, 1, 2, -3))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = {j: g * draw(entry) for j in range(n) if j not in free}
        if row and draw(st.booleans()):
            row[draw(st.sampled_from(sorted(row)))] = draw(st.sampled_from((1, -1)))
        rows.append({j: v for j, v in row.items() if v})
    return n, rows, keep


@settings(max_examples=300, deadline=None)
@given(_kept_lattices(), _kept_lattices())
@example((3, [{0: 2}], 1), (1, [], 0))  # two empty kept columns, one Z/2
@example((2, [{0: 2, 1: 4}, {1: 6}], 1), (2, [{1: 3}], 0))
def test_peeled_presents_the_group_its_quotient_and_its_tensors(a, b):
    n, rows, keep = a
    ncols, peeled = abelian._peeled(n, rows, keep)
    assert all(type(row) is tuple and all(type(pair) is tuple for pair in row)
               for row in peeled)
    group, quotient = cokernel_pair(n, rows, keep)
    assert group == cokernel_group(n, rows)
    assert group == reference_group(n, [[row.get(j, 0) for j in range(n)] for row in rows])
    # the kept column is column 0, so the quotient by it is the same group
    assert cokernel_pair(ncols, map(dict, peeled), 0) == (group, quotient)
    # tensoring two peeled presentations presents the tensor of the original
    # lattices, with the product of the kept columns at column 0
    m, b_rows, b_keep = b
    mcols, b_peeled = abelian._peeled(m, b_rows, b_keep)
    full = tensor_rows(n, [row.items() for row in rows], m, [row.items() for row in b_rows])
    assert cokernel_pair(ncols * mcols, tensor_rows(ncols, peeled, mcols, b_peeled), 0) == (
        cokernel_pair(n * m, full, keep * m + b_keep))


def test_peeled_keeps_empty_columns_and_adds_one_column_per_factor():
    # column 1 goes as a Z/2, and the 2 in the kept column holds the content
    # of the rest at 2; the kept column 2 becomes column 0, column 0, which
    # shares the residual row with it, becomes column 1, column 3 never held
    # an entry and stays as column 2, and the Z/2 is column 3
    assert abelian._peeled(4, [{1: 2, 0: 4}, {0: 6, 2: 2}], 2) == (
        4, (((1, 6), (0, 2)), ((3, 2),)))


# --- canonical forms ---------------------------------------------------------

def test_isomorphic_reordering():
    a = FgAbelianGroup.from_cyclic_orders(0, [2, 4])
    b = FgAbelianGroup.from_cyclic_orders(0, [4, 2])
    assert a == b


def test_non_isomorphic_same_order():
    assert C(8) != FgAbelianGroup.from_cyclic_orders(0, [2, 4])


def test_canonical_form_from_unordered_factors():
    assert FgAbelianGroup.from_cyclic_orders(0, [9, 3]) == FgAbelianGroup(0, (3, 9))


# cyclic orders as from_cyclic_orders takes them: 0 is a copy of Z, 1 is trivial
_CYCLIC_ORDERS = st.lists(st.integers(0, 200), max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3), _CYCLIC_ORDERS, st.data())
def test_from_cyclic_orders_ignores_input_order(free_rank, orders, data):
    shuffled = data.draw(st.permutations(orders))
    assert FgAbelianGroup.from_cyclic_orders(free_rank, shuffled) == (
        FgAbelianGroup.from_cyclic_orders(free_rank, orders)
    )


# orders of both signs, 0, +-1 and several primes at once
_SIGNED_ORDERS = st.lists(st.integers(-360, 360), max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3), _SIGNED_ORDERS)
@example(0, [2] * 4096)
@example(0, [6, 10, 15] * 4)
@example(1, [0, 1, -1, -4, 4, 9, -27, 5])
def test_canonical_form_matches_the_prime_by_prime_construction(free_rank, orders):
    expected = factored_group(free_rank, orders)
    assert FgAbelianGroup.from_cyclic_orders(free_rank, orders) == expected
    n = free_rank + len(orders)
    assert cokernel_group(n, [{i: d} for i, d in enumerate(orders)]) == expected


@pytest.mark.parametrize("make", [
    pytest.param(lambda: FgAbelianGroup(0, (2.5,)), id="float_factor"),
    pytest.param(lambda: FgAbelianGroup(0, ("4",)), id="str_factor"),
    pytest.param(lambda: FgAbelianGroup(1.5, ()), id="float_rank"),
    pytest.param(lambda: FgAbelianGroup.from_cyclic_orders(0, [4.9]), id="float_order"),
    pytest.param(lambda: FgAbelianGroup.from_cyclic_orders(1.0, [4]), id="float_free_rank"),
    pytest.param(lambda: FgAbelianGroup.cyclic(2.0), id="float_cyclic"),
    pytest.param(lambda: cokernel_group(1, [{0: 2.5}]), id="float_relation"),
    pytest.param(lambda: cokernel_group(2, [{0.5: 2}]), id="float_column"),
    pytest.param(lambda: cokernel_group(2.0, [{0: 2}]), id="float_generators"),
    pytest.param(lambda: abelian._peeled(2.0, [{0: 2}], 0), id="float_peeled_generators"),
])
def test_non_integer_inputs_raise_type_error(make):
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize("call", [
    pytest.param('parse_group("Z/2305843009213693951")', id="parse_group"),
    pytest.param("cokernel_group(1, [{0: 2**61 - 1}]).direct_sum(FgAbelianGroup.trivial())",
                 id="cokernel_direct_sum"),
])
def test_a_large_prime_order_is_never_factored(call):
    # 2^61 - 1 is prime: trial division would take minutes to find that out
    probe = ("from kconn.abelian import FgAbelianGroup, cokernel_group, parse_group\n"
             f"assert {call} == FgAbelianGroup(0, (2**61 - 1,))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=10)


def test_invalid_chain_rejected():
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (4, 6))


@pytest.mark.parametrize("orders", [[0], [0, 0]])
def test_negative_rank_does_not_cancel_against_zero_orders(orders):
    # a zero order is one more copy of Z, but the given rank is checked first,
    # as FgAbelianGroup(-1) checks it
    with pytest.raises(ValueError, match="negative free rank"):
        FgAbelianGroup.from_cyclic_orders(-1, orders)


def test_isomorphism_is_equivalence_and_permutation_invariant():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(1, 4)
        rows = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(rng.randrange(0, 4))]
        g = cokernel_group(n, sparse(rows))
        # permute generator columns: presents an isomorphic group
        perm = list(range(n))
        rng.shuffle(perm)
        prows = [[row[perm[j]] for j in range(n)] for row in rows]
        h = cokernel_group(n, sparse(prows))
        assert g == h and h == g


def test_direct_sum_canonicalises():
    a = FgAbelianGroup(0, (2, 4))
    b = FgAbelianGroup(0, (3,))
    assert a.direct_sum(b) == FgAbelianGroup(0, (2, 12))


def _tor1_at_6():
    lu = lu_module(2)
    return tor1_degree(lu, lu, 6)


# every internal way to a group, with the (rank, factors) it must give
_INTERNAL_PATHS = {
    "from_cyclic_orders": (lambda: FgAbelianGroup.from_cyclic_orders(1, [12, 0, -8, 1]),
                           (2, (4, 24))),
    "direct_sum": (lambda: C(4).direct_sum(Z(2), C(6)), (2, (2, 12))),
    "cokernel_group": (lambda: cokernel_group(3, [{0: 2, 1: 4}, {1: 6}]), (1, (2, 6))),
    "diagonal": (lambda: cokernel_group(3, [{0: 6, 1: 10}, {1: 15}]), (1, (90,))),
    "ku_smash_check": (lambda: ku_smash_check(3, 5).smash_group, (0, (8,))),
    "trivial": (trivial, (0, ())),
    "tor1_degree": (_tor1_at_6, (0, (8,))),
}


@pytest.mark.parametrize("path", _INTERNAL_PATHS)
def test_every_internal_path_gives_the_public_constructors_group(path):
    make, fields = _INTERNAL_PATHS[path]
    group, public = make(), FgAbelianGroup(*fields)
    assert type(group) is FgAbelianGroup
    assert group == public and hash(group) == hash(public) and repr(group) == repr(public)
    assert list(vars(group).items()) == list(vars(public).items())
    assert pickle.dumps(group) == pickle.dumps(public)
    copied = pickle.loads(pickle.dumps(group))
    assert copied == group and vars(copied) == vars(group)


def test_the_trivial_group_is_one_shared_immutable_value():
    assert trivial() is trivial()
    with pytest.raises(AttributeError):
        trivial().free_rank = 1
    assert trivial() == FgAbelianGroup(0, ()) and trivial().is_trivial()


@pytest.mark.parametrize("rank,chain", [(0, (4, 2)), (-1, ()), (0, (1, 2)), (0, (2, 0))])
def test_the_canonical_constructor_checks_the_chain(rank, chain):
    with pytest.raises(ValueError):
        abelian._canonical(rank, chain)
    with pytest.raises(ValueError):
        FgAbelianGroup(rank, chain)


# --- kernels of maps ---------------------------------------------------------

def pres(n, rows):
    return GroupPresentation(n, sparse(rows))


def cone_kernel(source, target, images):
    """ker f as H_1 of the mapping cone of f, a second engine for kernels.

    E is the echelon basis of the target relations and h writes each source
    relation's image in E, so d2 = (rel, -h) and d1 = [images; E] compose to
    zero.  E is independent, so H_1 = ker d1 / im d2 is ker f.  ker d1 is a
    direct summand (Z^nt holds its quotient), so H_1 has the torsion of
    coker d2 and the free rank of coker d2 less rank d1: two cokernels, no
    kernel echelon.
    """
    ns, nt = source.n_gens, target.n_gens
    basis = _echelon(target.relations)
    slot = {j: k for k, j in enumerate(basis)}
    d2 = []
    for rel in source.relations:
        image = {}
        for i, c in rel.items():
            for col, x in images[i].items():
                image[col] = image.get(col, 0) + c * x
        h = _solve_against_echelon(basis, image)
        assert h is not None, "images do not respect the source relations"
        d2.append({**rel, **{ns + slot[j]: -q for j, q in h.items()}})
    rank_d1 = nt - cokernel_group(nt, [*images, *basis.values()]).free_rank
    h1 = cokernel_group(ns + len(basis), d2)
    return FgAbelianGroup(h1.free_rank - rank_d1, h1.invariant_factors)


def unreduced_slice(module, n):
    """Degree n of a graded module, unreduced, read through
    ``module.through(n)``: the monomial basis v^k g as (k, generator)
    labels, and the presented group whose rows are the relations v^k r
    landing in degree n.  Test-local, as the library builds only the
    Morse-reduced slice."""
    d = module.ring_degree
    gens, relations, _ = module.through(n)
    basis = [((n - gdeg) // d, gi) for gi, gdeg in gens.items() if (n - gdeg) % d == 0]
    pos = {bk: idx for idx, bk in enumerate(basis)}
    rows = []
    for rel, deg in relations.values():
        rem = n - deg
        if rem % d:
            continue
        row: dict[int, int] = {}
        for coeff, exp, gi in rel:
            col = pos[(rem // d + exp, gi)]
            row[col] = row.get(col, 0) + coeff
        rows.append(row)
    return tuple(basis), GroupPresentation(len(basis), rows)


def v_multiplication_map(module, n):
    """Multiplication by v from the degree-n slice of ``module`` to the slice
    in degree n + deg(v), as (source, target, images) for kernel_of_map."""
    src_basis, src = unreduced_slice(module, n)
    tgt_basis, tgt = unreduced_slice(module, n + module.ring_degree)
    tgt_pos = {bk: idx for idx, bk in enumerate(tgt_basis)}
    images = [{tgt_pos[(k + 1, gi)]: 1} for k, gi in src_basis]
    return src, tgt, images


def lattice_member(basis, vec):
    """Membership of the sparse ``vec`` in the lattice of an echelon basis."""
    return _solve_against_echelon(basis, vec) is not None


def test_kernel_multiplication_by_2_on_z8():
    z8 = pres(1, [[8]])
    assert kernel_of_map(z8, z8, [{0: 2}]) == C(2)


def test_kernel_injection_z2_into_z4():
    assert kernel_of_map(pres(1, [[2]]), pres(1, [[4]]), [{0: 2}]) == trivial()


def test_kernel_projection_z_onto_z():
    # Z^2 -> Z, (a, b) -> a + b has kernel Z
    assert kernel_of_map(pres(2, []), pres(1, []), [{0: 1}, {0: 1}]) == Z(1)


def test_malformed_map_rejected():
    # Z/2 -> Z/3 cannot send the generator to a generator
    with pytest.raises(ValueError, match="respect"):
        kernel_of_map(pres(1, [[2]]), pres(1, [[3]]), [{0: 1}])


def test_kernel_of_map_runs_one_echelon(monkeypatch):
    # one echelon per call, the well-definedness check included, and an
    # ill-defined map is refused by that same echelon
    z8 = pres(1, [[8]])
    maps = [
        (z8, z8, [{0: 2}]),
        (pres(2, []), pres(1, []), [{0: 1}, {0: 1}]),
        (pres(2, [[2, 0], [0, 3]]), pres(2, [[4, 0], [0, 9]]), [{0: 2}, {1: 3}]),
        v_multiplication_map(lu_module(3), 9),
    ]
    calls = []

    def counting(rows):
        calls.append(rows)
        return _echelon(rows)

    monkeypatch.setattr(abelian, "_echelon", counting)
    for f in maps:
        calls.clear()
        kernel_of_map(*f)
        assert len(calls) == 1
    calls.clear()
    with pytest.raises(ValueError, match="respect"):
        kernel_of_map(pres(1, [[2]]), pres(1, [[3]]), [{0: 1}])
    assert len(calls) == 1


def test_kernel_of_a_map_through_the_target_relations_is_the_source():
    # images that are combinations of target relations make the zero map,
    # whose kernel is the whole source
    rng = random.Random(17)
    for _ in range(40):
        ns, nt = rng.randrange(1, 4), rng.randrange(1, 4)
        src_rel = [[rng.randrange(-4, 5) for _ in range(ns)] for _ in range(rng.randrange(0, 3))]
        tgt_rel = [[rng.randrange(-4, 5) for _ in range(nt)] for _ in range(rng.randrange(1, 4))]
        source = pres(ns, src_rel)
        target = pres(nt, tgt_rel)
        images = []
        for _ in range(ns):
            coeffs = [rng.randrange(-2, 3) for _ in range(len(tgt_rel))]
            vec = [sum(c * tgt_rel[k][j] for k, c in enumerate(coeffs)) for j in range(nt)]
            images.append(vec)
        kernel = kernel_of_map(source, target, sparse(images))
        assert kernel == source.group() == cone_kernel(source, target, sparse(images))


@settings(max_examples=300, deadline=None)
@given(_relations())
def test_echelon_contract(relations):
    n, rows = relations
    given_rows = sparse(rows)
    ech = _echelon(given_rows)
    assert given_rows == sparse(rows)  # the input rows are not touched
    leads = list(ech)
    assert leads == sorted(set(leads))
    for j, row in ech.items():
        assert min(row) == j and row[j] > 0 and all(row.values())
    # every input row is an integer combination of the echelon rows
    for row in rows:
        coeffs = _solve_against_echelon(ech, dict(enumerate(row)))
        assert coeffs is not None
        rebuilt = [sum(q * ech[j].get(c, 0) for j, q in coeffs.items()) for c in range(n)]
        assert rebuilt == row
    # and the echelon rows span no more than the input rows
    got = cokernel_group(n, list(ech.values()))
    assert got == cokernel_group(n, given_rows)
    if len(rows) * n <= 6:
        assert got == reference_group(n, rows)


# finite groups: diagonal relations of orders 1..12 plus one extra row
@st.composite
def _finite_presentation(draw):
    n = draw(st.integers(1, 3))
    orders = [draw(st.integers(1, 12)) for _ in range(n)]
    extra = [draw(st.integers(-12, 12)) for _ in range(n)]
    rows = [[d if j == i else 0 for j in range(n)] for i, d in enumerate(orders)]
    return orders, extra, rows + [extra]


def _multiples(orders, vec):
    """The residues mod the orders of every multiple of ``vec``."""
    out, cur = set(), tuple(0 for _ in orders)
    while cur not in out:
        out.add(cur)
        cur = tuple((c + x) % d for c, x, d in zip(cur, vec, orders))
    return out


@settings(max_examples=200, deadline=None)
@given(_finite_presentation(), _finite_presentation(), st.data())
def test_kernel_order_brute_force(src, tgt, data):
    s_orders, s_extra, s_rows = src
    t_orders, t_extra, t_rows = tgt
    ns, nt = len(s_orders), len(t_orders)
    images = [[data.draw(st.integers(-12, 12)) for _ in range(nt)] for _ in range(ns)]
    # a multiple of every target order kills the target, so scaling an
    # image by it keeps many maps well defined
    scales = [data.draw(st.sampled_from((1, lcm(*t_orders)))) for _ in range(ns)]
    images = [[c * x for x in row] for c, row in zip(scales, images)]
    target_lattice = _multiples(t_orders, t_extra)  # mod the diagonal

    def hits_target_lattice(vec):
        img = [sum(vec[i] * images[i][j] for i in range(ns)) for j in range(nt)]
        return tuple(x % d for x, d in zip(img, t_orders)) in target_lattice

    f = (pres(ns, s_rows), pres(nt, t_rows), sparse(images))
    well_defined = all(hits_target_lattice(row) for row in s_rows)
    if not well_defined:
        with pytest.raises(ValueError, match="respect"):
            kernel_of_map(*f)
    assume(well_defined)
    # count in Z^ns / diag(orders), then divide out the image of the extra row
    box = itertools.product(*(range(d) for d in s_orders))
    preimage = sum(1 for x in box if hits_target_lattice(x))
    kernel = kernel_of_map(*f)
    assert kernel.order() * len(_multiples(s_orders, s_extra)) == preimage
    assert kernel == cone_kernel(*f)


@settings(max_examples=200, deadline=None)
@given(_finite_presentation(), _finite_presentation(), st.data())
def test_kernel_and_image_orders_multiply_to_source_order(src, tgt, data):
    # |ker f| * |im f| == |source| with |im f| = |target| / |coker f|, and
    # coker f = Z^nt / (target relations + images) shares no code with the
    # kernel's echelon
    s_rows, t_orders, t_rows = src[2], tgt[0], tgt[2]
    ns, nt = len(src[0]), len(t_orders)
    images = [[data.draw(st.integers(-12, 12)) for _ in range(nt)] for _ in range(ns)]
    scales = [data.draw(st.sampled_from((1, lcm(*t_orders)))) for _ in range(ns)]
    images = [[c * x for x in row] for c, row in zip(scales, images)]
    try:
        kernel = kernel_of_map(pres(ns, s_rows), pres(nt, t_rows), sparse(images))
    except ValueError:
        assume(False)
    source = cokernel_group(ns, sparse(s_rows)).order()
    target = cokernel_group(nt, sparse(t_rows)).order()
    coker = cokernel_group(nt, sparse(t_rows) + sparse(images)).order()
    assert kernel.order() * target == source * coker


def test_lattice_member_false_cases():
    ech = _echelon([{0: 2, 2: 1}, {1: 3}])
    assert lattice_member(ech, {})
    assert lattice_member(ech, {0: 2, 1: 3, 2: 1})
    assert not lattice_member(ech, {0: 1})  # leading entry not divisible
    assert not lattice_member(ech, {0: 2, 1: 1, 2: 1})  # fails past the first pivot
    assert not lattice_member(ech, {2: 1})  # no pivot in the last column
    assert not lattice_member({}, {1: 1})


def quotient(sup, sub, n):
    """(lattice of sup) / (lattice of sub), as the kernel of the identity
    from Z^n / sub to Z^n / sup."""
    identity = [{i: 1} for i in range(n)]
    return kernel_of_map(pres(n, sub), pres(n, sup), identity)


@pytest.mark.parametrize("sup,sub", [
    ([[2]], [[3]]),
    ([[1, 0], [0, 2]], [[2, 0], [0, 3]]),  # first row contained, second not
    ([[0, 0]], [[0, 1]]),  # empty basis
    ([[1, 1]], [[1, 0]]),  # leading column right, remainder outside
])
def test_quotient_group_not_contained(sup, sub):
    n = len(sup[0])
    with pytest.raises(ValueError, match="respect"):
        quotient(sup, sub, n)


def test_quotient_group_z2_inside_z():
    # lattice 2Z inside Z: quotient of Z by 2Z
    assert quotient([[1]], [[2]], 1) == C(2)


def test_quotient_group_rejects_non_sublattice():
    with pytest.raises(ValueError):
        quotient([[2]], [[3]], 1)


# --- element orders and simplification ----------------------------------------

def test_element_order_cyclic():
    z12 = pres(1, [[12]])
    assert element_order(z12, {0: 1}) == 12
    assert element_order(z12, {0: 4}) == 3
    assert element_order(z12, {}) == 1


def test_element_order_infinite():
    assert element_order(pres(2, [[0, 5]]), {0: 1}) is None
    assert element_order(pres(2, [[0, 5]]), {1: 1}) == 5


@st.composite
def _element_case(draw):
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    return n, draw(st.lists(row, max_size=4)), draw(row)


@settings(max_examples=200, deadline=None)
@given(_element_case())
def test_element_order_brute_force(case):
    n, rows, vec = case
    ech = _echelon(sparse(rows))
    # a torsion class has an order dividing the torsion order; a class with
    # no multiple in the lattice up to there has infinite order
    torsion = prod(reference_group(n, rows).invariant_factors)
    multiples = ({i: k * x for i, x in enumerate(vec)} for k in range(1, torsion + 1))
    expected = next((k for k, m in enumerate(multiples, 1) if lattice_member(ech, m)), None)
    assert element_order(pres(n, rows), dict(enumerate(vec))) == expected


@settings(max_examples=200, deadline=None)
@given(_relations())
def test_simplify_preserves_group_and_roundtrip(relations):
    n, rows = relations
    p = pres(n, rows)
    simp = simplify_presentation(p)
    mini = simp.presentation
    m = mini.n_gens
    assert mini.group() == p.group()
    # from_min then to_min is the identity on reduced coordinates
    to_min, from_min = simp.to_min, simp.from_min
    assert len(to_min) == n and len(from_min) == m
    comp = [[sum(c * to_min[k].get(j, 0) for k, c in from_min[i].items()) for j in range(m)]
            for i in range(m)]
    assert comp == [[int(i == j) for j in range(m)] for i in range(m)]
    # both coordinate changes are well-defined maps, and to_min is injective
    assert kernel_of_map(p, mini, simp.to_min) == trivial()
    kernel_of_map(mini, p, simp.from_min)


def test_simplify_is_reduced_not_minimal():
    assert simplify_presentation(pres(2, [[1, 3]])).presentation.n_gens == 1
    kept = simplify_presentation(pres(2, [[2, 3]])).presentation
    assert kept.n_gens == 2 and kept.group() == Z(1)


# --- rendering ----------------------------------------------------------------

@pytest.mark.parametrize(
    "group,text",
    [
        (trivial(), "0"),
        (Z(1), "Z"),
        (Z(3), "Z^3"),
        (C(8), "Z/8"),
        (FgAbelianGroup(0, (2, 2, 2)), "(Z/2)^3"),
        (FgAbelianGroup(1, (2, 8)), "Z ⊕ Z/8 ⊕ Z/2"),
    ],
)
def test_render(group, text):
    assert render_group(group) == text


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on int-to-str conversion in this Python")
def test_text_past_the_digit_limit_raises_and_json_does_not():
    # README: a group with an invariant factor of more decimal digits than
    # sys.get_int_max_str_digits() allows has no text form, as the integer
    # itself has none, but its JSON form holds the integers; the limit is on
    # each factor, not on the order
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        big = FgAbelianGroup(1, (2, 2**3000))  # 2^3000 has 904 digits
        for text in (str, repr, render_group):
            with pytest.raises(ValueError):
                text(big)
        assert big.to_json_dict() == {"rank": 1, "invariants": [2, 2**3000]}
        square = FgAbelianGroup(0, (2**2000, 2**2000))  # 603 digits each
        assert square.order() == 2**4000  # 1,205 digits, past the limit
        assert render_group(square) == str(square) == f"(Z/{2**2000})^2"
    finally:
        sys.set_int_max_str_digits(old)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3), _CYCLIC_ORDERS)
@example(0, [])
@example(2, [])
@example(0, [9])
def test_parse_roundtrip(free_rank, orders):
    g = FgAbelianGroup.from_cyclic_orders(free_rank, orders)
    assert parse_group(render_group(g)) == g


@pytest.mark.parametrize("text", ["Z/0", "(Z/0)^2", "Z ⊕ Z/0", "Z/00 ⊕ Z/2"])
def test_parse_refuses_a_zero_modulus(text):
    # render_group never writes one, and Z/0 would otherwise read as Z
    with pytest.raises(ValueError, match="zero modulus"):
        parse_group(text)
