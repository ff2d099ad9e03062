import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kconn.abelian import (
    FgAbelianGroup,
    GroupPresentation,
    _order_from_quotient,
    cokernel_group,
    element_order,
    kernel_of_map,
)
from kconn.kmods import (
    GradedModulePresentation,
    KuSmashCheck,
    _ku_ring_relations,
    _lu_window,
    bu_bzp_group,
    ku_smash_check,
    lu_bzp_presentation,
    lu_closed_form,
    realize_degree,
    realize_slice,
    summand_presentation,
)
from kconn.kunneth import tensor_degree

from .test_abelian import (
    SRC,
    cokernel_pair,
    enumerate_quotient_order,
    lattice_member,
    reference_group,
    v_multiplication_map,
)

C = FgAbelianGroup.cyclic
trivial = FgAbelianGroup.trivial


def ahss_order(p, n):
    """Independent order count for reduced bu of B Z/p: one factor of p for
    every odd-degree cell supporting an even coefficient degree."""
    count = sum(1 for j in range(1, n + 1, 2) if (n - j) % 2 == 0)
    return p**count


# --- presentation construction -------------------------------------------------

def test_presentation_p2():
    m = lu_bzp_presentation(2, 5)
    assert m.gen_degrees == (1, 3, 5)
    assert m.ring_degree == 2
    # relations: 2 g_1, v g_1 - 2 g_3, v g_3 - 2 g_5
    assert ((2, 0, 0),) in m.relations
    assert ((1, 1, 0), (-2, 0, 1)) in m.relations
    assert ((1, 1, 1), (-2, 0, 2)) in m.relations
    assert len(m.relations) == 3


def test_presentation_p3_low_window():
    m = lu_bzp_presentation(3, 3)
    assert m.gen_degrees == (1, 3)
    # only the two p-torsion relations fit below the bound (deg v = 4)
    assert m.relations == (((3, 0, 0),), ((3, 0, 1),))


def test_presentation_rejects_bad_input():
    with pytest.raises(ValueError):
        lu_bzp_presentation(2, 0)
    with pytest.raises(ValueError):
        lu_bzp_presentation(4, 9)


# --- degree realisation ----------------------------------------------------------

def test_realize_examples():
    m2 = lu_bzp_presentation(2, 9)
    assert realize_degree(m2, 5) == C(8)
    assert realize_degree(m2, 4) == trivial()
    m3 = lu_bzp_presentation(3, 9)
    assert realize_degree(m3, 3) == C(3)


def test_realize_out_of_window():
    # exact through the top degree of the truncation, refused above it
    m = lu_bzp_presentation(2, 9)
    assert realize_degree(m, 9) == lu_closed_form(2, 9)
    with pytest.raises(ValueError, match="outside the safe window"):
        realize_degree(m, 10)


def test_lu_window_covers_its_degree():
    # one presentation per 64-degree bucket, complete through the degree it
    # serves; a negative degree is served by the lowest bucket
    for n in range(-3, 200):
        top = _lu_window(2, n).truncation_degree
        assert top % 64 == 0 and 0 < top - max(n, 0) <= 64, n
    assert _lu_window(3, 63) is _lu_window(3, 0) is lu_bzp_presentation(3, 64)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_realize_matches_closed_form(p):
    bound = 30
    m = lu_bzp_presentation(p, bound)
    for n in range(bound + 1):
        assert realize_degree(m, n) == lu_closed_form(p, n), (p, n)


def test_criterion_1_eliminates_each_degree_once(monkeypatch):
    # realize_degree reads the H0 its slice already holds, so criterion 1
    # takes one cokernel per degree: 3 primes times degrees 0..60
    from kconn import kmods, verify

    calls = []
    real = kmods.cokernel_group
    monkeypatch.setattr(kmods, "cokernel_group", lambda *args: calls.append(args) or real(*args))
    realize_slice.cache_clear()
    try:
        assert verify.criterion_1().passed
    finally:
        realize_slice.cache_clear()
    assert len(calls) == 3 * 61


def test_v_multiplication_injective_on_odd_degrees():
    for p in [2, 3]:
        m = lu_bzp_presentation(p, 40)
        for n in range(1, 25, 2):
            f = v_multiplication_map(m, n)
            if realize_degree(m, n).is_trivial():
                continue
            assert kernel_of_map(*f) == trivial(), (p, n)


# --- closed forms ------------------------------------------------------------------

def test_lu_closed_form_values():
    assert lu_closed_form(2, 5) == C(8)
    assert lu_closed_form(3, 9) == C(27)
    assert lu_closed_form(5, 4) == trivial()
    assert lu_closed_form(3, 1) == C(3)


def test_a_huge_p_is_refused_before_trial_division():
    # 2^61 - 1 is prime: trial division would take minutes to find that out
    probe = ("from kconn.kmods import lu_closed_form\n"
             "try:\n"
             "    lu_closed_form(2**61 - 1, 3)\n"
             "except ValueError as err:\n"
             "    assert 'below 2**32' in str(err), err\n"
             "else:\n"
             "    raise AssertionError('accepted')\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=10)


def test_prime_bound_edges():
    # the largest prime below 2^32 is accepted; a composite below it is
    # still not prime, and 2^32 is past the bound
    assert lu_closed_form(4294967291, 3) == C(4294967291)
    with pytest.raises(ValueError, match="p must be prime"):
        lu_closed_form(4294967295, 3)
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        lu_closed_form(2**32, 3)


def test_lu_closed_form_even_trivial():
    for p in [2, 3, 5]:
        for n in range(0, 41, 2):
            assert lu_closed_form(p, n) == trivial()


def test_bu_values():
    assert bu_bzp_group(2, 7) == C(16)
    assert bu_bzp_group(3, 5) == C(3).direct_sum(C(9))
    assert bu_bzp_group(2, 0) == trivial()
    assert bu_bzp_group(5, 0) == trivial()


def test_bu_even_trivial():
    for p in [2, 3, 5]:
        for m in range(0, 30, 2):
            assert bu_bzp_group(p, m) == trivial()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_bu_order_against_cell_count(p):
    for m in range(30):
        n = 2 * m + 1
        assert bu_bzp_group(p, n).order() == ahss_order(p, n), (p, n)


# --- the cyclic-tower summands ----------------------------------------------------------

def explicit_summand(p, i, max_degree):
    """The summand on degrees 2k(p-1) + 2i - 1, written out directly: p g_0
    and v g_j - p g_(j+1).  Test-local, and builds no module from lu."""
    d = 2 * p - 2
    degrees = tuple(range(2 * i - 1, max_degree + 1, d))
    rels = [((p, 0, 0),)] + [((1, 1, j), (-p, 0, j + 1)) for j in range(len(degrees) - 1)]
    return GradedModulePresentation(p, d, degrees, tuple(rels), max_degree)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_summand_is_a_residue_class_of_lu(p):
    for i in range(1, p):
        for window in range(2 * i - 1, 130):
            summand = summand_presentation(p, i, window)
            assert summand == explicit_summand(p, i, window), (p, i, window)
            assert hash(summand) == hash(explicit_summand(p, i, window))


def test_summand_rejects_bad_input():
    with pytest.raises(ValueError, match="p must be prime"):
        summand_presentation(4, 1, 9)
    for i in (0, 3):
        with pytest.raises(ValueError, match="summand index out of range"):
            summand_presentation(3, i, 9)
    for window in (0, 2):
        with pytest.raises(ValueError, match="window below the bottom generator"):
            summand_presentation(3, 2, window)


def test_relation_degrees_are_stored():
    m = lu_bzp_presentation(3, 13)
    assert m.relation_degrees == tuple(
        k * m.ring_degree + m.gen_degrees[g] for (_, k, g), *_ in m.relations)
    assert "relation_degrees" not in m._fields


# --- truncated KU ring -----------------------------------------------------------------

def ku_ring_multiply(r, left, right):
    """Product of two sparse vectors on t, ..., t^r (column a is t^(a+1)) in
    Z[t] / t^(r+1)."""
    out: dict[int, int] = {}
    for a, ca in left.items():
        for b, cb in right.items():
            if a + b + 1 < r:
                out[a + b + 1] = out.get(a + b + 1, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def test_truncated_ring_reduced_group():
    assert cokernel_group(2, _ku_ring_relations(2)) == C(4)
    assert cokernel_group(1, _ku_ring_relations(1)) == C(2)
    assert cokernel_group(5, _ku_ring_relations(5)) == C(32)


def test_truncated_ring_relations_hold():
    # t * t = t^2 equals -2t modulo the relation lattice, and t^r * t = 0
    from kconn.abelian import _echelon

    for r in [1, 2, 3, 5]:
        t = {0: 1}
        diff = dict(ku_ring_multiply(r, t, t))  # t^2 - (-2t)
        diff[0] = diff.get(0, 0) + 2
        assert lattice_member(_echelon(_ku_ring_relations(r)), diff)
        assert ku_ring_multiply(r, {r - 1: 1}, t) == {}


def test_truncated_ring_order_of_t():
    for r in range(1, 8):
        assert element_order(GroupPresentation(r, _ku_ring_relations(r)), {0: 1}) == 2**r


def test_ku_smash_check_examples():
    chk = ku_smash_check(2, 3)
    assert chk.smash_group == C(4)
    assert chk.generates and chk.passed
    chk = ku_smash_check(1, 1)
    assert chk.smash_group == C(2)
    assert chk.generator_order == 2
    assert chk.passed


def test_ku_smash_check_r2_reduced_group():
    assert ku_smash_check(2, 2).left_group == C(4)


GOLDEN_SMASH_CHECK = json.loads(
    (Path(__file__).parent / "fixtures" / "ku_smash_check_sha256.json").read_text("utf-8")
)


def test_ku_smash_check_golden():
    # every field of every check up to 24 x 24, recorded before the sparse
    # two-elimination rewrite
    top = GOLDEN_SMASH_CHECK["max"]
    text = "".join(
        repr(ku_smash_check(r, v)) + "\n" for r in range(1, top + 1) for v in range(1, top + 1)
    )
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SMASH_CHECK["sha256"]


def test_criterion_10_eliminates_each_left_ring_once(monkeypatch):
    # each ring depends on its truncation alone, so criterion 10's 100
    # checks peel it once for each of its 10 truncations
    from kconn import kmods, verify

    calls = []
    real = kmods._peeled
    monkeypatch.setattr(kmods, "_peeled", lambda *args: calls.append(args) or real(*args))
    kmods._ku_ring.cache_clear()
    try:
        assert verify.criterion_10().passed
    finally:
        kmods._ku_ring.cache_clear()
    assert sorted(ncols for ncols, _, _ in calls) == list(range(1, 11))


def full_lattice_smash_check(r, v):
    """``ku_smash_check`` as it was before each ring was peeled first: the
    product on all r * v generators t^(a+1) (x) t^(b+1), column a * v + b,
    G and G / <t (x) t> from one peel of it (the test-local
    :func:`cokernel_pair`), and the left ring's own elimination."""
    rows = [{a * v + b: c for a, c in rel.items()}
            for rel in _ku_ring_relations(r) for b in range(v)]
    rows += [{a * v + b: c for b, c in rel.items()}
             for rel in _ku_ring_relations(v) for a in range(r)]
    smash, quotient = cokernel_pair(r * v, rows, 0)
    order = _order_from_quotient(smash, quotient)
    generates = (
        smash.free_rank == 0
        and len(smash.invariant_factors) <= 1
        and order == smash.order()
    )
    return KuSmashCheck(r, v, cokernel_group(r, _ku_ring_relations(r)), smash, order, generates)


def test_ku_smash_check_matches_the_full_lattice():
    # past the golden's 24 x 24: the peeled rings' 1 x 1 product gives every
    # field that the r * v lattice gives
    for r in range(1, 41):
        for v in range(1, 41):
            assert ku_smash_check(r, v) == full_lattice_smash_check(r, v), (r, v)


def dense_smash_presentation(r, v):
    """The r * v generators t^(a+1) (x) t^(b+1), column a * v + b, modulo each
    ring's relations tensored with every basis element of the other, as
    dense rows."""
    n = r * v
    rows = []
    for rel in _ku_ring_relations(r):
        for b in range(v):
            row = [0] * n
            for a, c in rel.items():
                row[a * v + b] = c
            rows.append(row)
    for rel in _ku_ring_relations(v):
        for a in range(r):
            row = [0] * n
            for b, c in rel.items():
                row[a * v + b] = c
            rows.append(row)
    return n, rows


@pytest.mark.parametrize("r", range(1, 7))
@pytest.mark.parametrize("v", range(1, 7))
def test_ku_smash_check_against_dense_reference(r, v):
    n, rows = dense_smash_presentation(r, v)
    t_t = [1] + [0] * (n - 1)
    chk = ku_smash_check(r, v)
    # |G| / |G / <t (x) t>| is the order of t (x) t, by residue enumeration
    order = enumerate_quotient_order(rows, n)
    rest = enumerate_quotient_order(rows + [t_t], n)
    assert chk.generator_order == order // rest
    assert rest == 1 and chk.smash_group == C(order)  # t (x) t generates G
    if n <= 6:  # determinantal divisors visit C(2n, n) maximal minors
        group = reference_group(n, rows)
        assert chk.smash_group == group
        assert chk.generator_order == group.order() // reference_group(n, rows + [t_t]).order()


def test_ku_smash_check_rejects_bad_truncations():
    with pytest.raises(ValueError):
        ku_smash_check(0, 3)


def test_presentation_rejects_inhomogeneous_relation():
    from kconn.kmods import GradedModulePresentation

    with pytest.raises(ValueError):
        GradedModulePresentation(
            p=2,
            ring_degree=2,
            gen_degrees=(1, 3),
            relations=(((1, 0, 0), (1, 0, 1)),),  # degree 1 + degree 3 terms
            truncation_degree=5,
        )


class _CountingInt(int):
    """An int that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        _CountingInt.hashes += 1
        return int.__hash__(self)


def _tower(coeff):
    return GradedModulePresentation(2, 2, (1, 3), (((coeff, 0, 0),), ((1, 1, 0), (-2, 0, 1))), 20)


def test_module_hash_is_the_dataclass_hash_taken_once():
    a, b = _tower(2), _tower(2)
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash((2, 2, (1, 3), a.relations, 20))
    assert a != _tower(4)
    # a cache lookup hashes the key, and the key's relations are not hashed
    # again: the module hashed them once, when it was built
    counted = _tower(_CountingInt(2))
    assert _CountingInt.hashes == 1
    for n in range(1, 9):
        realize_slice(counted, n)
        realize_slice(counted, n)
        tensor_degree(counted, counted, n)
    assert _CountingInt.hashes == 1
    assert hash(counted) == hash(a)
