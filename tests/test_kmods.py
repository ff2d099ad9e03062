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
from kconn._record import Record
from kconn.kmods import (
    KuSmashCheck,
    LuModule,
    _ku_ring_relations,
    bu_bzp_group,
    ku_smash_check,
    lu_closed_form,
    lu_module,
    realize_degree,
    realize_slice,
)
from kconn.kunneth import tensor_degree, tor_closed_form, tor_summand_group

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


# --- the test-side reference for custom modules ------------------------------------

class GradedModulePresentation(Record):
    """Generators and homogeneous relations over Z[v], truncated at a degree:
    the finite presentations the tests build, read by the library as it
    reads :class:`kconn.kmods.LuModule`, through ``p``, ``ring_degree`` and
    ``through(e)``.

    ``gen_degrees[i]`` is the internal degree of generator i; every relation
    is a tuple of (coefficient, v-exponent, generator index) terms landing in
    a single degree.  Generators and relations are named by position.  The
    presentation is complete through ``truncation_degree``, so each degree
    up to it is exact, and ``through`` refuses any degree above it.
    """

    p: int
    ring_degree: int
    gen_degrees: tuple
    relations: tuple
    truncation_degree: int

    def __post_init__(self):
        if self.ring_degree < 1:
            raise ValueError("ring degree must be positive")
        for deg in self.gen_degrees:
            if deg > self.truncation_degree:
                raise ValueError("generator outside the truncation window")
        degrees = []
        for rel in self.relations:
            if not rel:
                raise ValueError("empty relation")
            degs = set()
            for coeff, exp, gi in rel:
                if exp < 0:
                    raise ValueError("negative v-exponent")
                if not 0 <= gi < len(self.gen_degrees):
                    raise ValueError("relation names a missing generator")
                degs.add(exp * self.ring_degree + self.gen_degrees[gi])
            if len(degs) != 1:
                raise ValueError("inhomogeneous relation")
            degrees.append(degs.pop())
        # derived values, not fields: the degree of each relation, the
        # first-come matching, and the hash of the field tuple, taken once
        # since lru caches look a module up per degree
        object.__setattr__(self, "relation_degrees", tuple(degrees))
        object.__setattr__(self, "matching", first_come_matching(self.relations))
        fields = (self.p, self.ring_degree, self.gen_degrees, self.relations,
                  self.truncation_degree)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self):
        return self._hash

    def through(self, e):
        if e > self.truncation_degree:
            raise ValueError(f"degree {e} outside the safe window of the truncated presentation")
        gens = {g: deg for g, deg in enumerate(self.gen_degrees) if deg <= e}
        rels = {r: (rel, deg) for r, (rel, deg)
                in enumerate(zip(self.relations, self.relation_degrees)) if deg <= e}
        return gens, rels, {g: m for g, m in self.matching.items() if m[0] in rels}


def first_come_matching(relations):
    """{generator g: (relation, a, unit)} for each relation, in order, whose
    one term of highest v-exponent a is unit * v^a g, +-1, at most one per
    generator: the scan the library ran over every presentation before lu
    listed its matching by index arithmetic."""
    match = {}
    for r, rel in enumerate(relations):
        top = max(k for _, k, _ in rel)
        tops = [(c, g) for c, k, g in rel if k == top]
        if len(tops) == 1 and tops[0][0] in (1, -1) and tops[0][1] not in match:
            match[tops[0][1]] = (r, top, tops[0][0])
    return match


def explicit_lu(p, max_degree):
    """lu written out through ``max_degree``: one generator in every odd
    degree, p g on the bottom p - 1 generators, and v g_k - p g_(k+p-1)
    where it fits, each generator's relations in turn."""
    d = 2 * p - 2
    degrees = tuple(range(1, max_degree + 1, 2))
    rels = []
    for k, deg in enumerate(degrees):
        if deg <= 2 * p - 3:
            rels.append(((p, 0, k),))
        if deg + d <= max_degree:
            rels.append(((1, 1, k), (-p, 0, k + p - 1)))
    return GradedModulePresentation(p, d, degrees, tuple(rels), max_degree)


def explicit_summand(p, i, max_degree):
    """The summand on degrees 2k(p-1) + 2i - 1, written out directly: p g_0
    and v g_j - p g_(j+1).  Test-local, and builds no module from lu."""
    d = 2 * p - 2
    degrees = tuple(range(2 * i - 1, max_degree + 1, d))
    rels = [((p, 0, 0),)] + [((1, 1, j), (-p, 0, j + 1)) for j in range(len(degrees) - 1)]
    return GradedModulePresentation(p, d, degrees, tuple(rels[:len(degrees)]), max_degree)


def named_by_position(through):
    """``through(e)`` of a module with generators and relations renamed by
    their position, so that two descriptions compare up to names."""
    gens, rels, match = through
    gen, rel = {g: j for j, g in enumerate(gens)}, {r: j for j, r in enumerate(rels)}
    return (tuple(gens.values()),
            tuple((tuple((c, k, gen[g]) for c, k, g in terms), deg) for terms, deg in rels.values()),
            {gen[g]: (rel[r], a, unit) for g, (r, a, unit) in match.items()})


# --- the module lu -----------------------------------------------------------------

def test_presentation_p2():
    gens, rels, match = lu_module(2).through(5)
    assert gens == {0: 1, 1: 3, 2: 5}
    assert lu_module(2).ring_degree == 2
    # relations: 2 g_0, v g_0 - 2 g_1, v g_1 - 2 g_2, named by kind and generator
    assert rels == {("p", 0): (((2, 0, 0),), 1),
                    ("v", 0): (((1, 1, 0), (-2, 0, 1)), 3),
                    ("v", 1): (((1, 1, 1), (-2, 0, 2)), 5)}
    assert list(rels) == [("p", 0), ("v", 0), ("v", 1)]
    assert match == {0: (("v", 0), 1, 1), 1: (("v", 1), 1, 1)}


def test_presentation_p3_low_window():
    gens, rels, match = lu_module(3).through(3)
    assert gens == {0: 1, 1: 3}
    # only the two p-torsion relations lie in degree <= 3 (deg v = 4)
    assert rels == {("p", 0): (((3, 0, 0),), 1), ("p", 1): (((3, 0, 1),), 3)}
    assert match == {}


def test_presentation_rejects_bad_input():
    # lu_module(p, i) takes i in 0..p-1 (0 is all of lu) and a prime p
    for p, i in ((3, -1), (3, 3), (2, 2), (5, 5), (5, -2)):
        with pytest.raises(ValueError, match="summand index out of range"):
            lu_module(p, i)
    for p in (0, 1, 4, 9):
        with pytest.raises(ValueError, match="p must be prime"):
            lu_module(p)
    with pytest.raises(ValueError, match="p must be prime"):
        lu_module(4, 1)


def test_lu_module_is_interned():
    assert lu_module(3) is lu_module(3) and lu_module(3, 2) is lu_module(3, 2)
    assert lu_module(3) == LuModule(3) == LuModule(3, 0) != lu_module(3, 1)
    assert lu_module(3).summand == 0 and lu_module(3).ring_degree == 4


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_summand_is_a_residue_class_of_lu(p):
    # a second description of lu and of each summand, written out through
    # every degree T < 130: the same generators, relations and matching,
    # up to names, and the matching is the first-come scan
    for i in range(p):
        module = lu_module(p, i)
        for top in range(-2, 130):
            written = explicit_summand(p, i, top) if i else explicit_lu(p, top)
            assert named_by_position(module.through(top)) == named_by_position(
                written.through(top)), (p, i, top)


def test_relation_degrees_are_stored():
    # each relation's degree is that of every one of its terms
    gens, rels, _ = lu_module(3).through(13)
    for terms, deg in rels.values():
        assert {k * 4 + gens[g] for _, k, g in terms} == {deg}
    m = explicit_lu(3, 13)
    assert m.relation_degrees == tuple(deg for _, deg in rels.values())


# --- degree realisation ----------------------------------------------------------

def test_realize_examples():
    m2 = lu_module(2)
    assert realize_degree(m2, 5) == C(8)
    assert realize_degree(m2, 4) == trivial()
    m3 = lu_module(3)
    assert realize_degree(m3, 3) == C(3)


def test_realize_out_of_window():
    # a test-side presentation is exact through the top degree of its
    # truncation, and its through refuses any degree above it
    m = explicit_lu(2, 9)
    assert realize_degree(m, 9) == lu_closed_form(2, 9)
    with pytest.raises(ValueError, match="outside the safe window"):
        realize_degree(m, 10)


@pytest.mark.parametrize("p", [2, 3, 251])
def test_realize_past_every_old_window(p):
    # lu has no truncation: degree 1001 is one slice, of lu_module(p)
    assert realize_degree(lu_module(p), 1001) == lu_closed_form(p, 1001)


def test_tor_summand_past_every_old_window():
    assert tor_summand_group(2, 1, 1000) == tor_closed_form(2, 1, 1000)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_realize_matches_closed_form(p):
    bound = 30
    m = lu_module(p)
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
        m = lu_module(p)
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

def test_summand_rejects_bad_input():
    # summand 0 of lu_module is all of lu, not a summand: tor_summand_group
    # refuses it, and p, below the bottom generator 2i - 1 and above it
    for p, i in ((2, 0), (2, 2), (3, 0), (3, 3), (5, 0), (5, 5)):
        for n in (2 * i - 3, 2 * i - 2, 2 * i, 2 * i + 7, 40):
            with pytest.raises(ValueError, match="summand index out of range"):
                tor_summand_group(p, i, n)
    with pytest.raises(ValueError, match="p must be prime"):
        tor_summand_group(4, 1, 9)


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
    # lu_module's hash is that of (p, summand), stored when it is built, so a
    # cache lookup hashes no field again
    lu = LuModule(_CountingInt(3))
    assert hash(lu) == hash(LuModule(3)) == hash((3, 0))
    before = _CountingInt.hashes
    for n in range(1, 9):
        realize_slice(lu, n)
        tensor_degree(lu, lu, n)
    assert _CountingInt.hashes == before
    _CountingInt.hashes = 0
    # and a test-side presentation hashes its relations once, when built
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
