"""Counted work as tier-1 contracts.

The work kconn does on a fixed grid is deterministic, so it is asserted
exactly: a change that brings back work these counts no longer show fails
here, whatever a timing says.  Counts come through test-side wrappers, from
cold caches.  A change that moves a count updates it and says why in
CHANGES.md.
"""

import pytest

from kconn import abelian, kmods, kunneth, steenrod, verify

from .test_kunneth import _clear_caches


def count_work(monkeypatch, work):
    """Counts for ``work()``, run from cold caches: the lattices kunneth
    hands to cokernel_group and their rows, the peel pivots and heap pops
    of every lattice it eliminates, the rows that the peels leave to the
    general elimination, and the tensor degrees, Tor degrees and slices it
    builds."""
    seen = {"lattices": 0, "rows": 0, "pivots": 0, "pops": 0, "diagonal_rows": 0}
    cokernel, peel_at, heappop = kunneth.cokernel_group, abelian._peel_at, abelian.heappop
    diagonal = abelian._diagonal

    def counting_cokernel(generators, relations):
        relations = list(relations)
        seen["lattices"] += 1
        seen["rows"] += len(relations)
        return cokernel(generators, relations)

    def counting_peel(*args):
        peeled = peel_at(*args)
        seen["pivots"] += peeled
        return peeled

    def counting_pop(heap):
        seen["pops"] += 1
        return heappop(heap)

    def counting_diagonal(rows, col_index):
        seen["diagonal_rows"] += len(rows)
        return diagonal(rows, col_index)

    monkeypatch.setattr(kunneth, "cokernel_group", counting_cokernel)
    monkeypatch.setattr(abelian, "_peel_at", counting_peel)
    monkeypatch.setattr(abelian, "heappop", counting_pop)
    monkeypatch.setattr(abelian, "_diagonal", counting_diagonal)
    _clear_caches(kunneth, kmods)
    try:
        work()
        seen["tensor_degrees"] = kunneth.tensor_degree.cache_info().misses
        seen["tor_degrees"] = kunneth.tor1_degree.cache_info().misses
        seen["slices"] = kmods.realize_slice.cache_info().misses
    finally:
        _clear_caches(kunneth, kmods)
    return seen


def tor_sweep(p, top):
    for n in range(1, top + 1, 2):
        kunneth.kunneth_smash_group(p, n, "resolution")


@pytest.mark.parametrize("p,rows,pivots", [(2, 60, 120), (3, 119, 179), (5, 234, 294)],
                         ids=["2", "3", "5"])
def test_the_tor_sweep_hands_the_peel_only_unmatched_rows(monkeypatch, p, rows, pivots):
    # the benchmark's odd grid: n <= 121 reads the 61 even internal degrees
    # 0..120, and each is one lattice, the d2' of its Tor term; the d1 bound
    # is exact on lu (x) lu, so no tensor term is eliminated.  Only cells of
    # the p - 1 bottom relations give rows: the unreduced d2 has 1,830 rows
    # at each p, 1,921 pivots with the slices'.  The peel pivots on every
    # row, and the 60 slices of lu in degrees 1..120 give one pivot each;
    # every heap pop is a pivot, and no row is left to the general elimination
    seen = count_work(monkeypatch, lambda: tor_sweep(p, 121))
    assert seen == {"tensor_degrees": 0, "tor_degrees": 61, "slices": 60, "lattices": 61,
                    "rows": rows, "pivots": pivots, "pops": pivots, "diagonal_rows": 0}


@pytest.mark.parametrize("p,top,degrees,rows,pivots,pops", [
    (2, 80, 41, 860, 860, 1680), (3, 72, 37, 737, 702, 1368), (5, 96, 49, 1362, 1224, 2400)],
    ids=["2-80", "3-72", "5-96"])
def test_the_tensor_sweep_builds_each_degree_and_slice_once(monkeypatch, p, top, degrees,
                                                             rows, pivots, pops):
    # the benchmark's even grid: tensor_part(p, n) for even n <= top reads
    # the even degrees 0..top once each, one lattice per degree, and the
    # slices of lu in the odd degrees below top that they meet, once each.
    # Each lattice is d1' on the critical cells of Tot1, no row for a
    # matched cell (1,640/1,332/2,352 rows on the unreduced Tot1, with the
    # same pivots and pops); at p = 2 every row of them is a pivot, and the
    # peels leave no row to the general elimination
    def sweep():
        for n in range(0, top + 1, 2):
            kunneth.tensor_part(p, n)

    seen = count_work(monkeypatch, sweep)
    assert seen == {
        "tensor_degrees": degrees, "tor_degrees": 0, "slices": degrees - 1,
        "lattices": degrees, "rows": rows, "pivots": pivots, "pops": pops,
        "diagonal_rows": 0}
    if p == 2:
        assert seen["rows"] == seen["pivots"]


@pytest.mark.parametrize("top", [240, 480])
def test_the_p2_sweep_builds_one_slice_per_odd_degree(monkeypatch, top):
    # kunneth_smash_group(2, n) for every n <= top reads lu_module(2) in the
    # odd degrees below top, one slice each: linear in top
    def sweep():
        for n in range(top + 1):
            kunneth.kunneth_smash_group(2, n)

    assert count_work(monkeypatch, sweep)["slices"] == top // 2


def test_criterion_10_peels_its_rings_and_products(monkeypatch):
    # the 10 K-rings with their quotients by t, and the 100 1 x 1 products
    # with their quotients by t (x) t: every pivot and heap pop of criterion
    # 10, (255, 301) while one peel that kept t presented each ring on t
    # alone; the peels take every row, so none reaches the general
    # elimination
    seen = count_work(monkeypatch, verify.criterion_10)
    assert (seen["pivots"], seen["pops"], seen["diagonal_rows"]) == (310, 401, 0)


def count_f2(monkeypatch, work):
    """Counts for ``work()``, run from a cold _sq1_pivots: the F2 reductions
    and the rows they take, the pivots each adds to the pivots it
    continues, and the nullspaces built, with the Sq^1 pivot misses."""
    seen = {"calls": 0, "rows": 0, "pivots": 0, "nullspaces": 0}
    f2_basis, nullspace = steenrod._f2_basis, steenrod._nullspace

    def counting(rows, pivots=None):
        rows = list(rows)
        out = f2_basis(rows, pivots)
        seen["calls"] += 1
        seen["rows"] += len(rows)
        seen["pivots"] += len(out) - len(pivots or ())
        return out

    def counting_nullspace(pivots, width):
        seen["nullspaces"] += 1
        return nullspace(pivots, width)

    monkeypatch.setattr(steenrod, "_f2_basis", counting)
    monkeypatch.setattr(steenrod, "_nullspace", counting_nullspace)
    steenrod._sq1_pivots.cache_clear()
    try:
        work()
        seen["sq1_misses"] = steenrod._sq1_pivots.cache_info().misses
    finally:
        steenrod._sq1_pivots.cache_clear()
    return seen


def test_the_functionals_reduce_sq1_once_per_degree(monkeypatch):
    # the hom-dim half of the benchmark's functionals workload: hom_dim B
    # and E for even degrees 2..300 on the smash square, from a cold
    # _sq1_pivots, make one reduction of the Sq^1 rows per degree and one
    # of the Sq^2 or Q_1 rows per algebra continuing it, 450 calls in all
    # (600 if Sq^1 were reduced once per algebra); pivots count the rows
    # each call adds to the pivots it continues
    def sweep():
        for degree in range(2, 301, 2):
            steenrod.hom_dim("B", "smash", degree)
            steenrod.hom_dim("E", "smash", degree)

    assert count_f2(monkeypatch, sweep) == {
        "calls": 450, "rows": 66603, "pivots": 16799, "nullspaces": 0, "sq1_misses": 150}


def test_the_hom_sequence_reduces_only_the_action_images(monkeypatch):
    # the other half: verify_hom_sequence(200) reduces, for each of its 100
    # even degrees, the Sq^1 rows, the Sq^2 and the Q_1 rows continuing
    # them, and Sq^2 of the image two degrees down against the Q_1 image,
    # plus the Sq^1 and Sq^2 rows of the empty degree-0 image: 402 calls,
    # and no basis of functionals (1,002 calls over 69,609 rows adding
    # 27,650 pivots, and 301 nullspaces, when exactness was decided on
    # bases of functionals)
    seen = count_f2(monkeypatch, lambda: steenrod.verify_hom_sequence(200))
    assert seen == {"calls": 402, "rows": 36704, "pivots": 7449, "nullspaces": 0,
                    "sq1_misses": 101}
