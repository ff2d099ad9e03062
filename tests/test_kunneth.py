import copy
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kconn import kmods, kunneth
from kconn.abelian import (
    FgAbelianGroup,
    GroupPresentation,
    cokernel_group,
    kernel_of_map,
    simplify_presentation,
)
from kconn.kmods import (
    GradedModulePresentation,
    ku_smash_check,
    lu_bzp_presentation,
    lu_closed_form,
    realize_degree,
    realize_slice,
    summand_presentation,
)
from kconn.kunneth import (
    decomposition_crosscheck,
    kunneth_smash_group,
    tensor_degree,
    tor1_degree,
    tor_closed_form,
    tor_summand_group,
    tensor_part,
    tor_part,
    verify_bu_decomposition,
    wedge_count,
)

from .test_abelian import cone_kernel, v_multiplication_map

C = FgAbelianGroup.cyclic
trivial = FgAbelianGroup.trivial


def elem(p, k):
    return FgAbelianGroup.from_cyclic_orders(0, [p] * k)


# --- tensor ------------------------------------------------------------------

def test_tensor_examples():
    lu2 = lu_bzp_presentation(2, 20)
    assert tensor_degree(lu2, lu2, 6) == elem(2, 3)
    lu3 = lu_bzp_presentation(3, 20)
    assert tensor_degree(lu3, lu3, 4) == elem(3, 2)


def test_tensor_odd_degrees_trivial():
    lu2 = lu_bzp_presentation(2, 30)
    lu3 = lu_bzp_presentation(3, 30)
    for n in range(1, 25, 2):
        assert tensor_degree(lu2, lu2, n) == trivial()
        assert tensor_degree(lu3, lu3, n) == trivial()


def test_tensor_dimension_count():
    # even degree 2m carries an elementary group of dimension m (one class
    # for each splitting of 2m into two odd generator degrees)
    for p in [2, 3]:
        lu = lu_bzp_presentation(p, 40)
        for m in range(1, 16):
            expected = elem(p, m)
            assert tensor_degree(lu, lu, 2 * m) == expected, (p, m)


def test_tensor_counts_a_generator_in_degree_n():
    # Z[v] on one generator: its tensor square is Z[v] again, so every
    # degree with a generator pair summing to it is Z, the bottom one too
    free0 = GradedModulePresentation(2, 2, (0,), (), 20)
    free2 = GradedModulePresentation(2, 2, (2,), (), 20)
    assert tensor_degree(free0, free0, 0) == FgAbelianGroup.free(1)
    assert tensor_degree(free2, free0, 2) == FgAbelianGroup.free(1)
    assert tensor_degree(free0, free2, 2) == FgAbelianGroup.free(1)


def reference_tensor(m, n_mod, n):
    """Degree-n piece of the tensor product from the standard presentation:
    generators v^k g_a (x) g_b, and each factor's relations times each
    generator of the other factor."""
    d = m.ring_degree
    pos: dict[tuple[int, int, int], int] = {}  # (v-exponent, gen of m, gen of n)
    for ga, da in enumerate(m.gen_degrees):
        if da > n:
            continue
        for gb, db in enumerate(n_mod.gen_degrees):
            rem = n - da - db
            if rem >= 0 and rem % d == 0:
                pos[(rem // d, ga, gb)] = len(pos)
    rows = []
    for rel_mod, other, left in ((m, n_mod, True), (n_mod, m, False)):
        for rel in rel_mod.relations:
            for g, dg in enumerate(other.gen_degrees):
                rem = n - rel_mod.relation_degree(rel) - dg
                if rem < 0 or rem % d:
                    continue
                row: dict[int, int] = {}
                for coeff, exp, h in rel:
                    key = (rem // d + exp, h, g) if left else (rem // d + exp, g, h)
                    row[pos[key]] = row.get(pos[key], 0) + coeff
                rows.append(row)
    return cokernel_group(len(pos), rows)


WINDOW = 16  # truncation of the random presentations


@st.composite
def small_presentations(draw, d):
    gens = tuple(draw(st.lists(st.integers(0, 8), min_size=1, max_size=4)))
    rels = []
    for _ in range(draw(st.integers(0, 4))):
        deg = draw(st.integers(min(gens), WINDOW - d))
        reach = [g for g, e in enumerate(gens) if e <= deg and (deg - e) % d == 0]
        if not reach:
            continue
        picked = draw(st.lists(st.sampled_from(reach), min_size=1, max_size=3, unique=True))
        coeffs = draw(st.lists(st.integers(-6, 6).filter(bool),
                               min_size=len(picked), max_size=len(picked)))
        rels.append(tuple((c, (deg - gens[g]) // d, g) for c, g in zip(coeffs, picked)))
    return GradedModulePresentation(2, d, gens, tuple(rels), WINDOW)


@st.composite
def presentation_pairs(draw):
    d = draw(st.sampled_from([1, 2, 4]))
    return draw(small_presentations(d)), draw(small_presentations(d))


@settings(max_examples=150, deadline=None)
@given(presentation_pairs())
def test_tensor_matches_standard_presentation(pair):
    m, n_mod = pair
    for n in range(WINDOW - m.ring_degree + 1):
        assert tensor_degree(m, n_mod, n) == reference_tensor(m, n_mod, n), n


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("left,right", [("lu", "lu"), ("lu", "summand"),
                                        ("summand", "lu"), ("summand", "summand")])
def test_tensor_matches_standard_presentation_on_grid(p, left, right):
    window = 90
    top = window + 2 * p - 2
    modules = {"lu": lu_bzp_presentation(p, top),
               "summand": summand_presentation(p, p - 1, top)}
    m, n_mod = modules[left], modules[right]
    for n in range(window + 1):
        assert tensor_degree(m, n_mod, n) == reference_tensor(m, n_mod, n), n


def test_tensor_ring_mismatch_rejected():
    lu2 = lu_bzp_presentation(2, 20)
    lu3 = lu_bzp_presentation(3, 20)
    with pytest.raises(ValueError):
        tensor_degree(lu2, lu3, 4)


# --- the resolution ------------------------------------------------------------

@pytest.mark.parametrize("p,i", [(2, 1), (3, 1), (3, 2), (5, 3),
                                 (2, "lu"), (3, "lu"), (5, "lu"), (7, "lu")])
def test_resolution_exact_and_resolves_summand(p, i):
    # tor1_degree takes the kernel of F1 (x) N -> F0 (x) N for the relations
    # of its first factor; that kernel is Tor_1 only if the relations are
    # independent over Z[v], i.e. F1 -> F0 is injective in every degree.
    # tor_part relies on it for lu, the direct sum of the summands.
    d = 2 * p - 2
    window = 60
    if i == "lu":
        module = lu_bzp_presentation(p, window + d)
        assert module.gen_degrees == tuple(range(1, window + d + 1, 2))
    else:
        module = summand_presentation(p, i, window + d)
        assert module.gen_degrees == tuple(
            2 * j * (p - 1) + 2 * i - 1 for j in range(len(module.gen_degrees)))
        assert [module.relation_degree(rel) for rel in module.relations] == list(module.gen_degrees)
    for n in range(window + 1):
        slc = realize_slice(module, n)
        rows = slc.presentation.relations
        rank = slc.presentation.n_gens - cokernel_group(slc.presentation.n_gens, rows).free_rank
        assert rank == len(rows), (p, i, n)
        # and its cokernel is the module: Z/p^(k+1) in degree 2k(p-1) + 2i - 1
        in_summand = i == "lu" or n >= 2 * i - 1 and (n - 2 * i + 1) % d == 0
        expected = lu_closed_form(p, n) if in_summand else trivial()
        assert realize_degree(module, n) == expected, (p, i, n)


# --- Tor ------------------------------------------------------------------------

def test_tor_examples():
    lu2 = lu_bzp_presentation(2, 20)
    assert tor1_degree(summand_presentation(2, 1, 20), lu2, 4) == C(4)
    lu3 = lu_bzp_presentation(3, 30)
    assert tor1_degree(summand_presentation(3, 2, 30), lu3, 8) == C(9)


def test_tor_odd_internal_degree_trivial():
    lu2 = lu_bzp_presentation(2, 20)
    for n in range(1, 12, 2):
        assert tor1_degree(summand_presentation(2, 1, 20), lu2, n) == trivial()


def test_tor_closed_form_values():
    assert tor_closed_form(2, 1, 4) == C(4)
    assert tor_closed_form(3, 2, 8) == C(9)
    assert tor_closed_form(2, 1, 0) == trivial()


def test_tor_engine_matches_closed_form():
    for p in [2, 3, 5]:
        for i in range(1, p):
            for internal in range(0, 61):
                assert tor_summand_group(p, i, internal) == tor_closed_form(
                    p, i, internal
                ), (p, i, internal)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_tor_of_lu_is_the_sum_over_summands(p):
    # tor_part takes one kernel of lu (x) lu per internal degree; lu is the
    # direct sum of its summands, so that kernel splits into the summand
    # kernels, each of which has its closed form
    lu = kunneth._lu_window(p, 121)
    for k in range(0, 122, 2):
        by_summand = [tor1_degree(summand_presentation(p, i, lu.truncation_degree), lu, k)
                      for i in range(1, p)]
        closed = [tor_closed_form(p, i, k) for i in range(1, p)]
        assert tor1_degree(lu, lu, k) == trivial().direct_sum(*by_summand), (p, k)
        assert by_summand == closed, (p, k)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tor_maps_agree_with_the_mapping_cone(p):
    # every internal degree k <= 121: the even k are the Tor maps of the
    # sweep over odd n <= 121, and the odd k, whose Tor is 0, come along;
    # the kernel equals H_1 of the mapping cone, read off two cokernels
    for k in range(122):
        lu = kunneth._lu_window(p, k)
        source, target, images = kunneth._tensor_map(lu, lu, k)
        source, target = GroupPresentation(*source), GroupPresentation(*target)
        assert kernel_of_map(source, target, images) == cone_kernel(source, target, images), (p, k)


def test_tor_rejects_foreign_ring_degree():
    # the resolution lives over Z[v] with deg v == 2p - 2
    module = GradedModulePresentation(2, 4, (1, 5), (((2, 0, 0),),), 20)
    with pytest.raises(ValueError, match="different graded rings"):
        tor1_degree(summand_presentation(2, 1, 20), module, 9)


def _clear_caches(*modules):
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def test_tor_simplifies_each_slice_once(monkeypatch):
    seen = []

    def record(pres):
        seen.append(pres)
        return simplify_presentation(pres)

    monkeypatch.setattr(kunneth, "simplify_presentation", record)
    _clear_caches(kunneth)
    try:
        for n in range(1, 42, 2):
            tor_part(2, n)
    finally:
        _clear_caches(kunneth)
    assert seen
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tor_slices_are_minimal(p):
    # simplify_presentation is reduced, not minimal in general; on the slices
    # the Tor path uses it must keep one generator per cyclic summand, or the
    # block matrices of tor1_degree grow
    module = kunneth._lu_window(p, 121)
    for deg in range(122):
        _, simp = kunneth._simplified_slice(module, deg)
        g = simp.presentation.group()
        assert simp.presentation.n_gens == g.free_rank + len(g.invariant_factors), deg


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cached_rows_are_never_mutated(p):
    # realize_slice and _simplified_slice hand out lru-cached rows; no
    # computation that reads them, the tensor and Tor paths included, may
    # change them, and a caller cannot
    module = kunneth._lu_window(p, 121)
    top = module.truncation_degree - module.ring_degree
    slices = [realize_slice(module, d).presentation.relations for d in range(top + 1)]
    simps = [kunneth._simplified_slice(module, d)[1] for d in range(top + 1)]
    changes = [(s.to_min, s.from_min, s.presentation.relations) for s in simps]
    saved = copy.deepcopy((slices, changes))
    for n in range(1, 122, 2):
        tor_part(p, n)
        tensor_part(p, n - 1)
        tensor_degree(module, module, n - 1)
        tor1_degree(module, module, n - 1)
        for i in range(1, p):
            tor1_degree(summand_presentation(p, i, module.truncation_degree), module, n - 1)
    ku_smash_check(6, 6)
    kernel_of_map(*v_multiplication_map(module, 2 * p - 1))
    assert (slices, changes) == saved
    row = next(row for rows in slices for row in rows)
    with pytest.raises(TypeError):
        row[0] = 7


def serial_and_threaded(call, queries, *modules):
    """``call(*q)`` for every query, run serially and then on a 4-thread
    pool, each time from cold caches in ``modules``."""
    _clear_caches(*modules)
    serial = [call(*q) for q in queries]
    _clear_caches(*modules)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the caches too
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda q: call(*q), queries, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    return serial, threaded


def test_tor_threads_match_serial():
    queries = [(p, n) for p in (2, 3) for n in range(1, 42, 2)]
    serial, threaded = serial_and_threaded(tor_part, queries, kunneth, kmods)
    assert threaded == serial


def test_tensor_threads_match_serial():
    queries = [(p, n) for p in (2, 3) for n in range(0, 41, 2)]
    serial, threaded = serial_and_threaded(tensor_part, queries, kunneth, kmods)
    assert threaded == serial


def test_tor_truncation_stability():
    # enlarging the window never changes the answer below the old safe bound
    small = lu_bzp_presentation(2, 40)
    large = lu_bzp_presentation(2, 96)
    small_summand = summand_presentation(2, 1, 40)
    large_summand = summand_presentation(2, 1, 96)
    for internal in range(0, 20, 2):
        assert (tor1_degree(small_summand, small, internal)
                == tor1_degree(large_summand, large, internal))
        assert tor1_degree(small, small, internal) == tor1_degree(large, large, internal)


# --- smash assembly ----------------------------------------------------------------

def test_kunneth_examples():
    assert kunneth_smash_group(2, 2) == C(2)
    assert kunneth_smash_group(2, 7) == C(8)
    assert kunneth_smash_group(3, 4) == elem(3, 3)
    assert kunneth_smash_group(2, 1) == trivial()
    assert kunneth_smash_group(2, 0) == trivial()


def test_kunneth_odd_against_shifted_classifying_space():
    # second oracle for degree 7 at p=2: the decomposition identifies it with
    # the double-suspended classifying-space group in degree 5
    from kconn.kmods import bu_bzp_group

    assert kunneth_smash_group(2, 7) == bu_bzp_group(2, 5) == C(8)


def test_order_equation_and_parity():
    for p in [2, 3]:
        for n in range(0, 22):
            tens = tensor_part(p, n)
            tor = tor_part(p, n)
            if n % 2 == 0:
                assert tor == trivial()
            else:
                assert tens == trivial()
            total = kunneth_smash_group(p, n)
            assert total.order() == tens.order() * tor.order(), (p, n)


def test_wedge_count():
    assert wedge_count(2, 2) == 1
    assert wedge_count(2, 7) == 0
    assert wedge_count(3, 4) == 3
    # p = 2: one class for each split of n + 2 into two positive even parts
    for n in range(0, 30, 2):
        assert wedge_count(2, n) == max(0, n // 2)


@pytest.mark.parametrize("p", [5, 7])
def test_verify_decomposition_large_primes(p):
    report = verify_bu_decomposition(p, 96)
    assert report.all_ok
    assert len(report.records) == 97


def test_verify_decomposition_small():
    report = verify_bu_decomposition(2, 20)
    assert report.all_ok
    report = verify_bu_decomposition(3, 14)
    assert report.all_ok
    vac = verify_bu_decomposition(2, 0)
    assert vac.all_ok and len(vac.records) == 1


def test_report_serialisation():
    report = verify_bu_decomposition(2, 6)
    data = report.to_json_dict()
    assert data["all_ok"] is True
    assert len(data["records"]) == 7
    text = report.to_text()
    assert "verdict" in text

def test_decomposition_crosscheck_values():
    assert decomposition_crosscheck(2, 2) == C(2)
    assert decomposition_crosscheck(2, 7) == C(8)
    assert decomposition_crosscheck(3, 4) == elem(3, 3)


def test_tor_insufficient_window_rejected():
    tiny = lu_bzp_presentation(2, 6)
    with pytest.raises(ValueError):
        tor1_degree(summand_presentation(2, 1, 6), tiny, 10)


def test_kunneth_negative_degree_rejected():
    with pytest.raises(ValueError):
        kunneth_smash_group(2, -1)


@pytest.mark.parametrize("call,args,message", [
    (kunneth_smash_group, (1, 3), "prime"),
    (kunneth_smash_group, (0, 5, "closed_form"), "prime"),
    (kunneth_smash_group, (1, 2), "prime"),
    (kmods.bu_bzp_group, (1, 3), "prime"),
    (tor_part, (1, 3), "prime"),
    (decomposition_crosscheck, (1, 4), "prime"),
    (verify_bu_decomposition, (1, 0), "prime"),
    (tor_summand_group, (4, 1, -1), "prime"),
    (tor_summand_group, (4, 1, -1, "closed_form"), "prime"),
    (tor_summand_group, (2, 5, -1), "summand index"),
    (tor_summand_group, (2, 5, -1, "closed_form"), "summand index"),
], ids=lambda v: getattr(v, "__name__", None))
def test_bad_prime_or_summand_rejected_in_every_degree(call, args, message):
    # p and i are checked before any degree can answer 0
    with pytest.raises(ValueError, match=message):
        call(*args)


@pytest.mark.parametrize("call,args", [
    (kunneth_smash_group, (2, 4, "bogus")),
    (kunneth_smash_group, (2, 5, "bogus")),
    (tor_part, (2, 0, "bogus")),
    (verify_bu_decomposition, (2, 0, "bogus")),
    (tor_summand_group, (2, 1, -1, "bogus")),
], ids=lambda v: getattr(v, "__name__", None))
def test_unknown_tor_method_rejected_in_every_degree(call, args):
    with pytest.raises(ValueError, match="unknown Tor method"):
        call(*args)


def test_tor_summand_below_the_bottom_generator_is_trivial():
    for method in ("resolution", "closed_form"):
        assert tor_summand_group(3, 2, -1, method) == trivial()
        assert tor_summand_group(3, 2, 2, method) == trivial()
