import copy
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kconn import abelian, kmods, kunneth
from kconn.abelian import (
    FgAbelianGroup,
    GroupPresentation,
    cokernel_group,
    kernel_of_map,
    simplify_presentation,
)
from kconn.exactseq import bott_audit
from kconn.kmods import (
    bu_bzp_group,
    ku_smash_check,
    lu_closed_form,
    lu_module,
    realize_degree,
    realize_slice,
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
from kconn.verify import run_acceptance

from .test_abelian import SRC, cone_kernel, unreduced_slice, v_multiplication_map
from .test_kmods import GradedModulePresentation, explicit_lu, explicit_summand

C = FgAbelianGroup.cyclic
trivial = FgAbelianGroup.trivial


def elem(p, k):
    return FgAbelianGroup.from_cyclic_orders(0, [p] * k)


# --- tensor ------------------------------------------------------------------

def test_tensor_examples():
    lu2 = lu_module(2)
    assert tensor_degree(lu2, lu2, 6) == elem(2, 3)
    lu3 = lu_module(3)
    assert tensor_degree(lu3, lu3, 4) == elem(3, 2)


def test_tensor_odd_degrees_trivial():
    lu2 = lu_module(2)
    lu3 = lu_module(3)
    for n in range(1, 25, 2):
        assert tensor_degree(lu2, lu2, n) == trivial()
        assert tensor_degree(lu3, lu3, n) == trivial()


def test_tensor_dimension_count():
    # even degree 2m carries an elementary group of dimension m (one class
    # for each splitting of 2m into two odd generator degrees)
    for p in [2, 3]:
        lu = lu_module(p)
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
    generator of the other factor, both factors read through degree n."""
    d = m.ring_degree
    (m_gens, m_rels, _), (n_gens, n_rels, _) = m.through(n), n_mod.through(n)
    pos: dict[tuple, int] = {}  # (v-exponent, gen of m, gen of n)
    for ga, da in m_gens.items():
        for gb, db in n_gens.items():
            rem = n - da - db
            if rem >= 0 and rem % d == 0:
                pos[(rem // d, ga, gb)] = len(pos)
    rows = []
    for rels, other, left in ((m_rels, n_gens, True), (n_rels, m_gens, False)):
        for rel, rel_deg in rels.values():
            for g, dg in other.items():
                rem = n - rel_deg - dg
                if rem < 0 or rem % d:
                    continue
                row: dict[int, int] = {}
                for coeff, exp, h in rel:
                    key = (rem // d + exp, h, g) if left else (rem // d + exp, g, h)
                    row[pos[key]] = row.get(pos[key], 0) + coeff
                rows.append(row)
    return cokernel_group(len(pos), rows)


@lru_cache(maxsize=None)
def _reference_slice(module, deg):
    basis, presentation = unreduced_slice(module, deg)
    return basis, simplify_presentation(presentation)


def reference_tensor_map(m, n_mod, n):
    """Degree n of F1 (x) N -> F0 (x) N, built from the simplified unreduced
    slices of N, as (source, target, images) for kernel_of_map: the engine
    the tensor and Tor terms were computed by before the Morse-reduced
    complex.

    A generator or relation of ``m`` in degree e <= n contributes one block,
    the simplified slice of N in degree n - e.  A relation term (c, k, g)
    sends the old coordinate v^j g_i of its block to c v^(j+k) g_i, read
    through ``to_min`` of the block of g."""
    gens, relations, _ = m.through(n)
    rel_degrees = {r: e for r, (_, e) in relations.items()}
    slices = {e: _reference_slice(n_mod, n - e) for e in {*gens.values(), *rel_degrees.values()}}

    def blocks(degrees):
        out, total = {}, 0
        for idx, e in degrees.items():
            out[idx] = (total, *slices[e])
            total += slices[e][1].presentation.n_gens
        rows = [{off + c: x for c, x in rel.items()}
                for off, _, simp in out.values() for rel in simp.presentation.relations]
        return out, GroupPresentation(total, rows)

    rel_blocks, source = blocks(rel_degrees)
    gen_blocks, target = blocks(gens)
    images = []
    for r, (_, basis, simp) in rel_blocks.items():
        for old in simp.from_min:
            row: dict[int, int] = {}
            for q, x in old.items():
                j, gi = basis[q]
                for c, k, g in relations[r][0]:
                    off, g_basis, g_simp = gen_blocks[g]
                    for col, y in g_simp.to_min[g_basis.index((j + k, gi))].items():
                        row[off + col] = row.get(off + col, 0) + c * x * y
            images.append({col: x for col, x in row.items() if x})
    return source, target, images


def reference_tor(m, n_mod, n):
    """Tor_1 as the kernel of F1 (x) N -> F0 (x) N, by the kernel echelon."""
    return kernel_of_map(*reference_tensor_map(m, n_mod, n))


def full_cells1(tot):
    """The unreduced basis of Tot1 past F1 (x) G'0: every cell g (x) v^j t of
    F0 (x) G'1, the matched ones included, as {(g, j, t): column}, block by
    block in the order of the generators of ``m``."""
    start = sum(len(slc.cells) for slc in tot.rels.values())
    cells = [(g, j, t) for g, slc in tot.gens.items() for j, t in slc.cells1]
    return {cell: start + i for i, cell in enumerate(cells)}


def full_d1(tot):
    """d1 of the unreduced complex Tot, one row for each cell of its Tot1:
    d1(r (x) x) = sum of c g (x) NF(v^k x) over the terms (c, k, g) of r,
    then d1(g (x) y) = g (x) d'y for every cell of :func:`full_cells1`.  The
    reference for the rows that the engine keeps."""
    rows = []
    for r, slc in tot.rels.items():
        for j, h in slc.cells:
            row: dict[int, int] = {}
            for c, k, g in tot.relations[r][0]:
                for col, x in tot.gens[g].nf[j + k, h]:
                    row[tot.gen0[g] + col] = row.get(tot.gen0[g] + col, 0) + c * x
            rows.append(row)
    for g, j, t in full_cells1(tot):
        slc = tot.gens[g]
        rows.append({tot.gen0[g] + col: x for col, x in slc.boundary[slc.cells1[j, t]]})
    return rows


def full_d2(tot):
    """d2 of the unreduced complex Tot: d2(r (x) y) = sum of c g (x) v^k y
    over the terms (c, k, g) of r, less r (x) d'y, for every relation r of
    ``m``, on the basis of :func:`full_d1`; v^k y is critical, since G' is
    v-stable.  The reference for the reduced rows that the Tor path
    eliminates."""
    full, rows = full_cells1(tot), []
    for r, slc in tot.rels.items():
        for (j, t), i in slc.cells1.items():
            row = {tot.rel0[r] + col: -x for col, x in slc.boundary[i]}
            for c, k, g in tot.relations[r][0]:
                col = full[g, j + k, t]
                row[col] = row.get(col, 0) + c
            rows.append(row)
    return rows


def assert_composes_to_zero(tot, where):
    """d1 o d2 == 0 for the unreduced complex Tot, and d1' o d2' == 0 for
    its Morse reduction, which the engine builds: each row of d2 or d2', a
    combination of Tot1's basis, sent through the rows of d1 or d1'.  d1'
    has the cokernel H0 of d1, and is d1 on the critical cells; the Tot1
    cells taken out are as many as the Tot2 cells of the matched
    relations.  Returns the number of reduced rows."""
    d1, full = tot.d1(), full_d1(tot)
    assert cokernel_group(tot.n0, d1) == cokernel_group(tot.n0, full), where
    assert len(d1) == tot.n1, where
    cells = full_cells1(tot)
    rel_rows = tot.n1 - len(tot.col1)
    assert d1 == full[:rel_rows] + [full[cells[cell]] for cell in tot.col1], where
    matched = {r for r, _, _ in tot.match.values()}
    pairs = sum(len(slc.cells1) for r, slc in tot.rels.items() if r in matched)
    assert len(cells) - len(tot.col1) == pairs, where
    reduced = tot.reduced_d2()
    for rows, basis in ((full_d2(tot), full), (reduced, d1)):
        for row in rows:
            image: dict[int, int] = {}
            for i, c in row.items():
                for col, x in basis[i].items():
                    image[col] = image.get(col, 0) + c * x
            assert not any(image.values()), (where, row)
    return len(reduced)


WINDOW = 16  # truncation of the random presentations


@st.composite
def small_presentations(draw, d):
    gens = tuple(draw(st.lists(st.integers(0, 8), min_size=1, max_size=4)))
    rels = []
    for _ in range(draw(st.integers(0, 4))):
        deg = draw(st.integers(min(gens), WINDOW))
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
    for n in range(WINDOW + 1):
        assert tensor_degree(m, n_mod, n) == reference_tensor(m, n_mod, n), n
        # G' is a complex whether or not the relations are independent
        assert_composes_to_zero(kunneth._Tot(m, n_mod, n), n)


@st.composite
def tower_sums(draw, d):
    """Direct sums of towers over Z[v]: a bottom relation c g_0 (or none, so
    that the tower has a free part), then u v^a g_(j-1) - c_j g_j for
    j >= 1, with u a unit or not.  Each tower's relations are triangular
    with nonzero diagonal, so independent."""
    gens: list[int] = []
    rels = []
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(0, 6))
        gens.append(deg)
        if draw(st.integers(0, 3)):
            rels.append(((draw(st.integers(-8, 8).filter(bool)), 0, len(gens) - 1),))
        for _ in range(draw(st.integers(0, 3))):
            a = draw(st.integers(0, 2))
            if deg + a * d > WINDOW:
                break
            deg += a * d
            gens.append(deg)
            top = draw(st.sampled_from([1, -1, 1, -1, 2, -3]))
            rels.append(((top, a, len(gens) - 2),
                         (-draw(st.integers(-9, 9).filter(bool)), 0, len(gens) - 1)))
    return GradedModulePresentation(2, d, tuple(gens), tuple(rels), WINDOW)


@st.composite
def tower_pairs(draw):
    d = draw(st.sampled_from([1, 2, 4]))
    return draw(tower_sums(d)), draw(tower_sums(d))


@settings(max_examples=180, deadline=None)
@given(tower_pairs())
def test_tor_and_tensor_match_the_reference_engines_on_towers(pair):
    m, n_mod = pair
    for n in range(WINDOW + 1):
        assert tor1_degree(m, n_mod, n) == reference_tor(m, n_mod, n), n
        assert tensor_degree(m, n_mod, n) == reference_tensor(m, n_mod, n), n
        # tops 2 and -3 leave some relations of m unmatched, so reduced rows
        # reach matched cells through chains of both kinds
        assert_composes_to_zero(kunneth._Tot(m, n_mod, n), n)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 4]).flatmap(tower_sums))
def test_realize_degree_matches_the_unreduced_slice_on_towers(module):
    # the Morse reduction keeps H_0: in every degree of the window the
    # reduced slice presents the same group as the unreduced one
    for n in range(WINDOW + 1):
        _, slc = unreduced_slice(module, n)
        assert realize_degree(module, n) == cokernel_group(slc.n_gens, slc.relations), n


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("left,right", [("lu", "lu"), ("lu", "summand"),
                                        ("summand", "lu"), ("summand", "summand")])
def test_tensor_matches_standard_presentation_on_grid(p, left, right):
    window = 90
    modules = {"lu": lu_module(p), "summand": lu_module(p, p - 1)}
    m, n_mod = modules[left], modules[right]
    for n in range(window + 1):
        assert tensor_degree(m, n_mod, n) == reference_tensor(m, n_mod, n), n


def test_tensor_ring_mismatch_rejected():
    with pytest.raises(ValueError, match="different graded rings"):
        tensor_degree(lu_module(2), lu_module(3), 4)
    with pytest.raises(ValueError, match="different graded rings"):
        tensor_degree(lu_module(3), explicit_lu(2, 20), 4)


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
        module = lu_module(p)
        assert tuple(module.through(window)[0].values()) == tuple(range(1, window + 1, 2))
    else:
        module = lu_module(p, i)
        gens, rels, _ = module.through(window)
        assert tuple(gens.values()) == tuple(
            2 * j * (p - 1) + 2 * i - 1 for j in range(len(gens)))
        # p g at the bottom, then v g_j - p g_(j+1): one relation per generator
        assert tuple(e for _, e in rels.values()) == tuple(gens.values())
    for n in range(window + 1):
        _, slc = unreduced_slice(module, n)
        rank = slc.n_gens - cokernel_group(slc.n_gens, slc.relations).free_rank
        assert rank == len(slc.relations), (p, i, n)
        # and its cokernel is the module: Z/p^(k+1) in degree 2k(p-1) + 2i - 1
        in_summand = i == "lu" or n >= 2 * i - 1 and (n - 2 * i + 1) % d == 0
        expected = lu_closed_form(p, n) if in_summand else trivial()
        assert realize_degree(module, n) == expected, (p, i, n)


# --- Tor ------------------------------------------------------------------------

def test_tor_examples():
    assert tor1_degree(lu_module(2, 1), lu_module(2), 4) == C(4)
    assert tor1_degree(lu_module(3, 2), lu_module(3), 8) == C(9)


def test_tor_odd_internal_degree_trivial():
    for n in range(1, 12, 2):
        assert tor1_degree(lu_module(2, 1), lu_module(2), n) == trivial()


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
    lu = lu_module(p)
    for k in range(0, 122, 2):
        by_summand = [tor1_degree(lu_module(p, i), lu, k) for i in range(1, p)]
        closed = [tor_closed_form(p, i, k) for i in range(1, p)]
        assert tor1_degree(lu, lu, k) == trivial().direct_sum(*by_summand), (p, k)
        assert by_summand == closed, (p, k)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_tor_complexes_compose_to_zero(p):
    # every internal degree k <= 121, lu (x) lu and each summand (x) lu,
    # unreduced and reduced; only the bottom p - 1 relations of lu and the
    # bottom one of each summand stay unmatched, so few reduced rows are
    # checked in all
    seen, lu = 0, lu_module(p)
    for k in range(122):
        seen += assert_composes_to_zero(kunneth._Tot(lu, lu, k), (p, k))
        for i in range(1, p):
            seen += assert_composes_to_zero(kunneth._Tot(lu_module(p, i), lu, k), (p, i, k))
    assert seen == {2: 120, 3: 238, 5: 468, 7: 690}[p]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_tor_maps_agree_with_the_mapping_cone(p):
    # every internal degree k <= 121: the even k are the Tor maps of the
    # sweep over odd n <= 121, and the odd k, whose Tor is 0, come along;
    # H_1 of the reduced complex equals the kernel of F1 (x) N -> F0 (x) N,
    # taken by the kernel echelon and as H_1 of its mapping cone
    lu = lu_module(p)
    for k in range(122):
        source, target, images = reference_tensor_map(lu, lu, k)
        kernel = kernel_of_map(source, target, images)
        assert kernel == cone_kernel(source, target, images), (p, k)
        assert tor1_degree(lu, lu, k) == kernel, (p, k)


def test_tor_rejects_foreign_ring_degree():
    # the resolution lives over Z[v] with deg v == 2p - 2
    module = GradedModulePresentation(2, 4, (1, 5), (((2, 0, 0),),), 20)
    with pytest.raises(ValueError, match="different graded rings"):
        tor1_degree(lu_module(2, 1), module, 9)
    with pytest.raises(ValueError, match="different graded rings"):
        tor1_degree(explicit_summand(3, 1, 20), lu_module(2), 9)


def _clear_caches(*modules):
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _count_diagonal_rows(monkeypatch):
    """{"calls", "rows"}: the calls into the general elimination from now
    on, with cold caches, and the rows they hand it."""
    seen = {"calls": 0, "rows": 0}
    diagonal = abelian._diagonal

    def counting(rows, col_index):
        seen["calls"] += 1
        seen["rows"] += len(rows)
        return diagonal(rows, col_index)

    monkeypatch.setattr(abelian, "_diagonal", counting)
    _clear_caches(kunneth, kmods)
    return seen


def test_no_tensor_lattice_reaches_the_general_diagonal(monkeypatch):
    # the content peel takes every row of every lattice that the sweeps of
    # the benchmark's even grid, (p, top) = (2, 80), (3, 72), (5, 96),
    # eliminate, tensor terms and the slices they read, so the general
    # elimination receives none (5,783 rows before content pivots)
    seen = _count_diagonal_rows(monkeypatch)
    for p, top in ((2, 80), (3, 72), (5, 96)):
        for n in range(0, top + 1, 2):
            tensor_part(p, n)
    assert seen["calls"] > 0 and seen["rows"] == 0


def test_no_lattice_of_the_battery_the_audit_or_tor_reaches_the_general_diagonal(monkeypatch):
    # the acceptance battery, the smash audit and the resolution Tor grid of
    # the benchmark's odd workload, p in {2, 3, 5} and odd n <= 121: the
    # content peel takes every row they eliminate, criterion 10's K-ring
    # products and their quotients by t (x) t among them (200 rows while
    # one peel that kept t served both)
    seen = _count_diagonal_rows(monkeypatch)
    run_acceptance()
    bott_audit("smash", 48)
    for p in (2, 3, 5):
        for n in range(1, 122, 2):
            kunneth_smash_group(p, n, "resolution")
    assert seen["calls"] > 0 and seen["rows"] == 0


def test_a_tensor_sweep_computes_each_degree_once():
    # every shift n - 2a is read from the one lu_module(7), so the sweep
    # computes each even degree 0..160 once
    _clear_caches(kunneth, kmods)
    for n in range(0, 161, 2):
        tensor_part(7, n)
    assert tensor_degree.cache_info().misses == 81


def test_tor_reduces_each_slice_once():
    # every reduced slice a sweep needs is built once, shared across the
    # degrees whose blocks include it, and kept for the next sweep
    _clear_caches(kunneth, kmods)
    try:
        for n in range(1, 42, 2):
            tor_part(2, n)
        first = realize_slice.cache_info()
        for n in range(1, 42, 2):
            kunneth.tor1_degree.__wrapped__(lu_module(2), lu_module(2), n - 1)
        second = realize_slice.cache_info()
    finally:
        _clear_caches(kunneth, kmods)
    assert first.misses == first.currsize > 0
    assert first.hits > first.misses
    assert second.misses == first.misses and second.hits > first.hits


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tor_slices_are_minimal(p):
    # the Morse reduction need not be minimal; on the slices the Tor path
    # uses it must keep one critical 0-cell per cyclic summand, or the
    # blocks of the complex grow, and its H_0 is the degree of lu, the
    # cokernel of the unreduced slice
    module = lu_module(p)
    for deg in range(122):
        slc = realize_slice(module, deg)
        g = cokernel_group(len(slc.cells), [dict(b) for b in slc.boundary])
        assert g == unreduced_slice(module, deg)[1].group() == lu_closed_form(p, deg), deg
        assert len(slc.cells) == g.free_rank + len(g.invariant_factors), deg
        assert slc.rank == len(slc.cells1), deg


def _reduced_data(slc):
    return slc.cells, dict(slc.nf), dict(slc.cells1), slc.boundary, slc.rank


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cached_rows_are_never_mutated(p):
    # realize_slice reads the interned module and hands out lru-cached rows;
    # no computation that reads them, the tensor and Tor paths included, may
    # change them (the unreduced slices, rebuilt from the module afterwards,
    # show the module unchanged), and a caller cannot; the cached peeled
    # K-ring that ku_smash_check reads is made of tuples, so nothing can
    module, top = lu_module(p), 128

    def unreduced():
        return [unreduced_slice(module, d)[1].relations for d in range(top + 1)]

    slices = unreduced()
    reduced = [realize_slice(module, d) for d in range(top + 1)]
    ring = kmods._ku_ring(6)
    saved = copy.deepcopy((slices, [_reduced_data(s) for s in reduced], ring))
    for n in range(1, 122, 2):
        tor_part(p, n)
        tensor_part(p, n - 1)
        tensor_degree(module, module, n - 1)
        tor1_degree(module, module, n - 1)
        for i in range(1, p):
            tor1_degree(lu_module(p, i), module, n - 1)
    ku_smash_check(6, 6)
    kernel_of_map(*v_multiplication_map(module, 2 * p - 1))
    assert (unreduced(), [_reduced_data(s) for s in reduced], kmods._ku_ring(6)) == saved
    _, _, ring_rows = ring
    assert type(ring) is type(ring_rows) is tuple
    assert all(type(row) is tuple and all(type(pair) is tuple for pair in row)
               for row in ring_rows)
    row = next(row for rows in slices for row in rows)
    with pytest.raises(TypeError):
        row[0] = 7
    slc = reduced[2 * p - 1]
    with pytest.raises(TypeError):
        slc.nf[0, 0] = ()
    with pytest.raises(TypeError):
        slc.cells1[0, 0] = 1


def test_matching_collision_keeps_one_relation_per_generator():
    # v g0 - 2 g1 and v g0 - 4 g1 both have the unit top term v g0; the
    # first is matched with g0, and the second stays a critical 1-cell
    n_mod = GradedModulePresentation(2, 2, (0, 2), (((1, 1, 0), (-2, 0, 1)),
                                                    ((1, 1, 0), (-4, 0, 1))), 20)
    assert n_mod.through(20)[2] == {0: (0, 1, 1)}
    assert realize_slice(n_mod, 4).cells1 == {(1, 1): 0}
    for m in (lu_module(2), n_mod):
        for n in range(19):
            assert tor1_degree(m, n_mod, n) == reference_tor(m, n_mod, n), n
            assert tensor_degree(m, n_mod, n) == reference_tensor(m, n_mod, n), n


def test_tor_rank_of_d1_from_the_bound_or_the_tensor_term():
    # lu (x) lu: the blocks g (x) y reach dim Tot0 in every degree
    lu = lu_module(2)
    for n in range(39):
        tot = kunneth._Tot(lu, lu, n)
        assert tot.d1_rank_bound() == tot.n0, n
    # N free on one generator has no 1-cells, so the bound is 0 and rank d1
    # comes from the tensor term; Tor_1 with a free module is 0
    free = GradedModulePresentation(2, 2, (0,), (), 40)
    fallback = 0
    for n in range(39):
        tot = kunneth._Tot(lu, free, n)
        fallback += tot.d1_rank_bound() < tot.n0
        assert tor1_degree(lu, free, n) == trivial() == reference_tor(lu, free, n), n
        assert tensor_degree(lu, free, n) == realize_degree(lu, n), n
    assert fallback == 19  # every odd degree


def test_tor_rejects_dependent_relations_of_the_second_factor():
    # 2 g and 4 g are dependent over Z[v]; H_1 would see the syzygy, so
    # tor1_degree refuses, while the tensor term needs no independence
    lu = lu_module(2)
    dependent = GradedModulePresentation(2, 2, (1,), (((2, 0, 0),), ((4, 0, 0),)), 20)
    with pytest.raises(ValueError, match="dependent"):
        tor1_degree(lu, dependent, 4)
    assert tensor_degree(lu, dependent, 4) == reference_tensor(lu, dependent, 4) == C(2)


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
    # a written-out presentation truncated at 40 answers as lu does, with no
    # truncation, through degree 40
    small, large = explicit_lu(2, 40), lu_module(2)
    small_summand, large_summand = explicit_summand(2, 1, 40), lu_module(2, 1)
    for internal in range(0, 41, 2):
        assert (tor1_degree(small_summand, small, internal)
                == tor1_degree(large_summand, large, internal))
        assert tor1_degree(small, small, internal) == tor1_degree(large, large, internal)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_every_degree_through_the_truncation_is_exact(p):
    # relations are homogeneous, and a slice in degree n reads only the
    # generators and relations of degree <= n, so a written-out truncation
    # answers every degree through its top as lu_module does
    large = lu_module(p)
    for top in (9, 20, 33, 64, 65):
        small = explicit_lu(p, top)
        for n in range(top + 1):
            assert realize_degree(small, n) == realize_degree(large, n), (top, n)
            assert tensor_degree(small, small, n) == tensor_degree(large, large, n), (top, n)
            assert tor1_degree(small, small, n) == tor1_degree(large, large, n), (top, n)
            for i in range(1, p):
                assert (tor1_degree(explicit_summand(p, i, top), small, n)
                        == tor1_degree(lu_module(p, i), large, n)), (top, i, n)


def test_a_negative_degree_is_trivial():
    # lu lists nothing below degree 1, so the complex is empty
    assert tensor_part(2, -100) == trivial()
    assert tor_part(2, -100) == trivial()
    assert tor_summand_group(2, 1, -100) == trivial()
    assert tor_summand_group(2, 1, -1) == trivial()


@pytest.mark.parametrize("p", [37, 251])
def test_tor_summand_below_a_high_bottom_generator_is_trivial(p):
    # the top summand's bottom generator lies in degree 2p - 3; below it
    # the complex is empty
    i = p - 1
    for internal in (0, 10, 63, 2 * i - 2, 2 * i):
        assert tor_summand_group(p, i, internal) == tor_closed_form(p, i, internal), internal
    assert tor_summand_group(p, i, 2 * i) == C(p)


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


# --- the shift rule ku = (+) S^(2a) lu ---------------------------------------

# Test-local references: each shift sum over all p - 1 copies,
# 0 <= a <= p-2, whatever the degree.

def uncapped_bu_bzp_group(p, n):
    kmods.check_prime(p)
    return trivial().direct_sum(*[lu_closed_form(p, n - 2 * a) for a in range(p - 1)])


def uncapped_tensor_part(p, n):
    lu = lu_module(p)
    return trivial().direct_sum(*[tensor_degree(lu, lu, n - 2 * a)
                                  for a in range(p - 1) if n - 2 * a >= 0])


def uncapped_tor_part(p, n, method):
    parts = []
    for a in range(p - 1):
        internal = n - 1 - 2 * a
        if internal < 0:
            continue
        if method == "resolution":
            parts.append(tor1_degree(lu_module(p), lu_module(p), internal))
        else:
            parts.extend(tor_closed_form(p, i, internal) for i in range(1, p))
    return trivial().direct_sum(*parts)


def uncapped_wedge_count(p, n):
    count = 0
    for a in range(p - 1):
        rest = n + 2 - 2 * a  # need 2i + 2j = rest
        if rest % 2 == 0 and rest // 2 >= 2:  # i + j = rest // 2, i, j >= 1
            count += rest // 2 - 1
    return count


def uncapped_decomposition_crosscheck(p, n):
    parts = [uncapped_bu_bzp_group(p, n - 2 * i) for i in range(1, p)]
    return trivial().direct_sum(*parts, elem(p, uncapped_wedge_count(p, n)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([q for q in range(2, 60) if kmods.is_prime(q)]),
       st.integers(-3, 120))
@example(2, -1)
@example(2, 0)
@example(2, 1)
def test_shift_sums_match_the_uncapped_loops(p, n):
    # the copies that do not reach degree n contribute 0, so reading only
    # those that do changes no answer
    assert bu_bzp_group(p, n) == uncapped_bu_bzp_group(p, n)
    assert tensor_part(p, n) == uncapped_tensor_part(p, n)
    for method in ("resolution", "closed_form"):
        assert tor_part(p, n, method) == uncapped_tor_part(p, n, method)
    assert decomposition_crosscheck(p, n) == uncapped_decomposition_crosscheck(p, n)
    assert wedge_count(p, n) == uncapped_wedge_count(p, n)


LARGEST_PRIME = 4294967291  # the largest prime below 2**32


@pytest.mark.parametrize("call,expected", [
    pytest.param("kmods.bu_bzp_group(P, 3)", "elem(2)", id="bu_bzp_group"),
    pytest.param("kunneth.tensor_part(P, 4)", "elem(3)", id="tensor_part"),
    pytest.param("kunneth.tor_part(P, 5)", "elem(3)", id="tor_part-resolution"),
    pytest.param("kunneth.tor_part(P, 5, 'closed_form')", "elem(3)", id="tor_part-closed_form"),
    pytest.param("kunneth.kunneth_smash_group(P, 4)", "elem(3)", id="kunneth_smash_group"),
    pytest.param("kunneth.decomposition_crosscheck(P, 5)", "elem(3)",
                 id="decomposition_crosscheck"),
    pytest.param("kunneth.wedge_count(P, 4)", "3", id="wedge_count"),
    pytest.param("kunneth.verify_bu_decomposition(P, 4).all_ok", "True",
                 id="verify_bu_decomposition"),
    pytest.param("kunneth.tor_summand_group(P, 2, 4)", "elem(1)", id="tor_summand_group"),
    pytest.param("kunneth.tor_summand_group(P, P - 1, 4)", "elem(0)",
                 id="tor_summand_group-below_bottom"),
])
def test_shift_sums_answer_at_the_largest_prime(call, expected):
    # the work follows n, not p: a loop over all p - 1 copies would run for hours
    probe = ("from kconn import kmods, kunneth\n"
             "from kconn.abelian import FgAbelianGroup\n"
             f"P = {LARGEST_PRIME}\n"
             "elem = lambda k: FgAbelianGroup.from_cyclic_orders(0, [P] * k)\n"
             f"got = {call}\n"
             f"assert got == {expected}, got\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=10)


def test_each_prime_is_trial_divided_once(monkeypatch):
    # check_prime keeps the primes it has accepted; a refusal raises, so a
    # composite is tried, and refused, on every call
    calls = []
    is_prime = kmods.is_prime
    monkeypatch.setattr(kmods, "is_prime", lambda q: calls.append(q) or is_prime(q))
    kmods.check_prime.cache_clear()
    assert verify_bu_decomposition(61, 20).all_ok
    assert calls == [61]
    for call in (bu_bzp_group, tensor_part, tor_part, decomposition_crosscheck, wedge_count):
        for _ in range(2):
            with pytest.raises(ValueError, match="p must be prime"):
                call(15, 4)
    assert calls == [61] + [15] * 10

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



def test_decomposition_crosscheck_values():
    assert decomposition_crosscheck(2, 2) == C(2)
    assert decomposition_crosscheck(2, 7) == C(8)
    assert decomposition_crosscheck(3, 4) == elem(3, 3)


def test_tor_insufficient_window_rejected():
    # a test-side presentation refuses a degree past its truncation, as
    # either factor
    tiny = explicit_lu(2, 6)
    with pytest.raises(ValueError, match="outside the safe window"):
        tor1_degree(explicit_summand(2, 1, 6), tiny, 10)
    with pytest.raises(ValueError, match="outside the safe window"):
        tor1_degree(lu_module(2), tiny, 10)


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
    (tor_closed_form, (4, 1, -1), "prime"),
    (tor_summand_group, (2, 5, -1), "summand index"),
    (tor_closed_form, (2, 5, -1), "summand index"),
], ids=lambda v: getattr(v, "__name__", None))
def test_bad_prime_or_summand_rejected_in_every_degree(call, args, message):
    # p and i are checked before any degree can answer 0
    with pytest.raises(ValueError, match=message):
        call(*args)


@pytest.mark.parametrize("call,args", [
    (kunneth_smash_group, (2, 4, "bogus")),
    (kunneth_smash_group, (2, 5, "bogus")),
    (tor_part, (2, 0, "bogus")),
], ids=lambda v: getattr(v, "__name__", None))
def test_unknown_tor_method_rejected_in_every_degree(call, args):
    with pytest.raises(ValueError, match="unknown Tor method"):
        call(*args)


def test_tor_summand_below_the_bottom_generator_is_trivial():
    for tor in (tor_summand_group, tor_closed_form):
        assert tor(3, 2, -1) == trivial()
        assert tor(3, 2, 2) == trivial()
