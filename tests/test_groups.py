import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_closure,
    brute_is_associative,
    latin_square,
    permutation_table,
    sequential_right_table,
)

from fgt.catalog import build_cyclic, build_dihedral, build_group, parse_spec, standard_catalog
from fgt.config import Budget
from fgt.errors import (
    ActionInconsistentError,
    BudgetExceededError,
    InvalidElementError,
    NotAutomorphismError,
    NotNormalError,
)
from fgt.fields import perm_compose, perm_from_cycles
import fgt.catalog
import fgt.groups
from fgt.groups import (
    Group,
    automorphism_from_generator_images,
    close_under_product,
    direct_product,
    generate_permutation_group,
    order_fingerprint,
    quotient_group,
    semidirect_product,
)

BUDGET = Budget()


def build(text):
    return build_group(parse_spec(text), BUDGET)


def test_table_validation_catches_broken_tables():
    mul = np.array([[0, 1], [1, 1]])  # second row not a permutation
    with pytest.raises(InvalidElementError):
        Group(mul, "broken", [1])
    mul = np.array([[1, 0], [0, 1]])  # identity not at index 0
    with pytest.raises(InvalidElementError):
        Group(mul, "broken", [1])


def test_table_entry_out_of_range_is_rejected():
    mul = np.array(build("Cyclic(4)").mul, dtype=np.int64)
    mul[2, 3] = 4
    with pytest.raises(InvalidElementError, match="out of range"):
        Group(mul, "broken", [1])


_SMALL_TABLES = [build(text).mul for text in
                 ("Cyclic(1)", "Cyclic(2)", "Cyclic(3)", "Cyclic(4)", "ElementaryAbelian(2,2)", "Cyclic(5)")]


@st.composite
def _tables_with_identity(draw):
    """A table with 0 as two-sided identity: a relabelled small group with a few cells overwritten, or random cells."""
    if draw(st.booleans()):
        base = draw(st.sampled_from(_SMALL_TABLES)).astype(np.int64)
        n = base.shape[0]
        relabel = np.array([0] + draw(st.permutations(range(1, n))), dtype=np.int64)
        mul = np.empty_like(base)
        mul[np.ix_(relabel, relabel)] = relabel[base]
        if n > 1:
            cells = st.tuples(st.integers(1, n - 1), st.integers(1, n - 1), st.integers(0, n - 1))
            for r, c, v in draw(st.lists(cells, max_size=2)):
                mul[r, c] = v
        return mul
    n = draw(st.integers(1, 5))
    mul = np.zeros((n, n), dtype=np.int64)
    mul[0] = mul[:, 0] = np.arange(n)
    for r in range(1, n):
        mul[r, 1:] = draw(st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1))
    return mul


@settings(max_examples=300, deadline=None)
@given(_tables_with_identity())
def test_validation_accepts_exactly_the_associative_latin_squares(mul):
    try:
        Group(mul, "table", [])
        accepted = True
    except InvalidElementError:
        accepted = False
    assert accepted == (latin_square(mul) and brute_is_associative(mul))


def _intercalate_swap(mul: np.ndarray, k: int) -> np.ndarray:
    """The table with its k-th intercalate (a 2x2 Latin subsquare) off row and column 0 swapped."""
    n = mul.shape[0]
    found = 0
    for r1 in range(1, n):
        for r2 in range(r1 + 1, n):
            for c1 in range(1, n):
                for c2 in range(c1 + 1, n):
                    a, b = mul[r1, c1], mul[r1, c2]
                    if mul[r2, c2] == a and mul[r2, c1] == b:
                        if found == k:
                            loop = np.array(mul, dtype=np.int64)
                            loop[r1, c1] = loop[r2, c2] = b
                            loop[r1, c2] = loop[r2, c1] = a
                            return loop
                        found += 1
    raise LookupError(f"fewer than {k + 1} intercalates")


# every loop of order 4 is a group, so the order-4 swaps must be accepted
LOOP_CASES = [("Cyclic(4)", 0)] + [
    (spec, k)
    for spec in ("ElementaryAbelian(2,2)", "Dihedral(3)", "Cyclic(6)", "Dihedral(4)", "Dicyclic(2)",
                 "ElementaryAbelian(2,3)", "Sym(4)")
    for k in (0, 2)
]


@pytest.mark.parametrize(
    "spec, swap",
    [(s.to_string(), None) for s in standard_catalog()] + LOOP_CASES,
    ids=lambda v: "group" if v is None else str(v),
)
def test_validation_rejects_exactly_the_non_associative_tables(spec, swap):
    mul = build(spec).mul
    if swap is not None:
        mul = _intercalate_swap(mul, swap)
    if brute_is_associative(mul):
        assert Group(mul, spec, []).order == mul.shape[0]
    else:
        with pytest.raises(InvalidElementError, match="associativity"):
            Group(mul, spec, [])


def test_validation_rejects_a_non_associative_loop_above_the_old_sampling_order():
    # C2^11 as xor, with the intercalate rows {1, 2} x columns {4, 7} swapped:
    # a loop of order 2048 whose failing triples are too rare for random sampling to find
    n = 2**11
    i = np.arange(n)
    mul = i[:, None] ^ i[None, :]
    mul[1, 4], mul[1, 7], mul[2, 4], mul[2, 7] = 6, 5, 5, 6
    assert not brute_is_associative(mul)
    with pytest.raises(InvalidElementError, match="associativity"):
        Group(mul, "loop", [2**d for d in range(11)])


def test_light_test_finds_a_failure_in_a_later_row_block(monkeypatch):
    # C2^6 as xor with the intercalate rows {50, 51} x columns {4, 5} swapped: generator 1
    # passes, and generator 2 fails only at rows 48..51, in the 13th of sixteen 4-row blocks
    # (each block tests all six generators)
    n = 64
    i = np.arange(n)
    mul = i[:, None] ^ i[None, :]
    mul[50, 4], mul[50, 5], mul[51, 4], mul[51, 5] = 55, 54, 54, 55
    assert np.array_equal(mul[mul[:, 1]], mul[:, mul[1]])
    assert np.flatnonzero((mul[mul[:, 2]] != mul[:, mul[2]]).any(axis=1)).tolist() == [48, 49, 50, 51]
    monkeypatch.setattr(fgt.groups, "_BLOCK_BYTES", 24 * n * 2)  # 4 rows x 6 generators of the uint16 table
    with pytest.raises(InvalidElementError, match="^associativity fails at generator 2$"):
        Group(mul, "loop", [1, 2, 4, 8, 16, 32])


def test_supplied_generators_must_generate():
    with pytest.raises(InvalidElementError, match="do not generate"):
        Group(build("Cyclic(6)").mul, "C6", [2])
    assert Group(build("Cyclic(6)").mul, "C6", [2, 3]).generators == (2, 3)


def test_closure_generate_s4_from_transposition_and_cycle():
    gens = [perm_from_cycles(4, (0, 1)), perm_from_cycles(4, (0, 1, 2, 3))]
    g = generate_permutation_group(gens, "S4", BUDGET)
    assert g.order == 24
    assert g.generators == (1, 2)


def test_closure_generate_identity_only():
    g = generate_permutation_group([perm_from_cycles(3)], "triv", BUDGET)
    assert g.order == 1


def test_closure_generate_respects_order_cap():
    gens = [perm_from_cycles(5, (0, 1)), perm_from_cycles(5, (0, 1, 2, 3, 4))]
    with pytest.raises(BudgetExceededError):
        generate_permutation_group(gens, "S5", Budget(order_cap=60))


@st.composite
def _permutation_generators(draw):
    """(degree, generators): one to three permutations of degree at most 7, as tuples of images."""
    degree = draw(st.integers(1, 7))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return degree, [tuple(g) for g in gens]


def _compose_tuples(x, g):
    return tuple(x[i] for i in g)


@settings(max_examples=40, deadline=None)
@given(_permutation_generators())
def test_level_closure_matches_the_sequential_walk(case):
    """The right table, a BFS level at a time, equals the walk one element at a time; so does the Cayley table."""
    degree, gens = case
    elems, want = sequential_right_table(tuple(range(degree)), gens, _compose_tuples, 5040)
    right = fgt.groups._right_table(np.arange(degree), [np.asarray(g) for g in gens], perm_compose, 5040)
    assert right.dtype == want.dtype and np.array_equal(right, want)
    if len(elems) <= 720:
        assert np.array_equal(fgt.groups._table_from_bfs(right), permutation_table(elems))


@settings(max_examples=60, deadline=None)
@given(_permutation_generators(), st.integers(0, 150))
def test_level_closure_stops_where_the_sequential_walk_does(case, cap):
    """Under a tight order cap both walks raise the same message with the same ``partial``, or neither raises."""
    degree, gens = case
    try:
        sequential_right_table(tuple(range(degree)), gens, _compose_tuples, cap)
        want = None
    except BudgetExceededError as e:
        want = (str(e), e.partial)
    try:
        fgt.groups._right_table(np.arange(degree), [np.asarray(g) for g in gens], perm_compose, cap)
        got = None
    except BudgetExceededError as e:
        got = (str(e), e.partial)
    assert got == want


def test_table_fill_blocks_and_tiles_give_the_same_table(monkeypatch):
    """Blocks of one row and tiles of 4 x 4 give the table that one block and one tile give."""
    gens = [perm_from_cycles(5, (0, 1)), perm_from_cycles(5, (0, 1, 2, 3, 4))]
    whole = generate_permutation_group(gens, "S5", BUDGET).mul
    monkeypatch.setattr(fgt.groups, "_BLOCK_BYTES", 32)
    assert np.array_equal(generate_permutation_group(gens, "S5", BUDGET).mul, whole)


def test_bfs_numbering_is_deterministic():
    gens = [perm_from_cycles(4, (0, 1)), perm_from_cycles(4, (0, 1, 2, 3))]
    a = generate_permutation_group(gens, "S4", BUDGET)
    b = generate_permutation_group(gens, "S4", BUDGET)
    assert a.mul.tobytes() == b.mul.tobytes()


def test_direct_product_orders_and_element_of_order_six():
    g = direct_product(build("Cyclic(2)"), build("Cyclic(3)"), BUDGET)
    assert g.order == 6
    assert 6 in g.element_orders()
    assert build("Direct(Cyclic(7),Alt(5))").order == 420
    assert build("Direct(Cyclic(5),Sym(3))").order == 30


def test_semidirect_with_trivial_action_equals_direct_product():
    a = build("Cyclic(5)")
    b = build("Sym(3)")
    ident = np.arange(a.order, dtype=np.int64)
    action = {gen: ident for gen in b.generators}
    semi = semidirect_product(a, b, action, BUDGET)
    direct = direct_product(a, b, BUDGET)
    assert np.array_equal(semi.mul, direct.mul)


def _pairs_table(na, nb, rule):
    """Table over pairs (x, y) numbered x * nb + y, each entry ``rule(x1, y1, x2, y2)`` as a pair."""
    n = na * nb
    table = np.empty((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(n):
            x, y = rule(u // nb, u % nb, v // nb, v % nb)
            table[u, v] = x * nb + y
    return table


def _acting_table(na, b, action):
    """act(y) as a list for every y of b, composed in pure Python along words in b's generators."""
    act = {0: list(range(na))}
    frontier = [0]
    while frontier:
        nxt = []
        for y in frontier:
            for s in b.generators:
                z = int(b.mul[y, s])
                if z not in act:
                    act[z] = [act[y][int(v)] for v in action[s]]  # act(y s) = act(y) o act(s)
                    nxt.append(z)
        frontier = nxt
    return [act[y] for y in range(b.order)]


@pytest.mark.parametrize("spec", ["D4SemiS3", "C5xC3SemiD4", "HeisenbergLike(3,1)", "IrreducibleFrobenius(2,2,3)"])
def test_semidirect_table_follows_the_pair_rule(spec, monkeypatch):
    """(x1, y1)(x2, y2) = (x1 act(y1)(x2), y1 y2), entry by entry from the factor tables."""
    calls = []

    def recording(a, b, action, *args, **kwargs):
        calls.append((a, b, action))
        return semidirect_product(a, b, action, *args, **kwargs)

    monkeypatch.setattr(fgt.catalog, "semidirect_product", recording)
    g = fgt.catalog._build_uncached(parse_spec(spec), BUDGET)
    a, b, action = calls[-1]
    am, bm, act = a.mul.tolist(), b.mul.tolist(), _acting_table(a.order, b, action)
    want = _pairs_table(a.order, b.order, lambda x1, y1, x2, y2: (am[x1][act[y1][x2]], bm[y1][y2]))
    assert np.array_equal(g.mul, want)


def test_semidirect_with_a_nonabelian_action_follows_the_pair_rule():
    """S3 permuting the three coordinates of C2^3: an action whose image is not abelian, so that
    act(y s) = act(y) o act(s) differs from act(s) o act(y)."""
    a, b = build("ElementaryAbelian(2,3)"), build("Sym(3)")  # C2^3 indices are bit vectors under xor

    def moving_bits(sigma):  # bit i of v moves to bit sigma(i)
        return np.array([sum((v >> i & 1) << sigma[i] for i in range(3)) for v in range(8)])

    action = {s: moving_bits(sigma) for s, sigma in zip(b.generators, [(1, 0, 2), (1, 2, 0)])}
    am, bm, act = a.mul.tolist(), b.mul.tolist(), _acting_table(a.order, b, action)
    assert len({tuple(row) for row in act}) == 6
    want = _pairs_table(a.order, b.order, lambda x1, y1, x2, y2: (am[x1][act[y1][x2]], bm[y1][y2]))
    assert np.array_equal(semidirect_product(a, b, action, BUDGET).mul, want)


@pytest.mark.parametrize("spec", ["Direct(Cyclic(2),Sym(3),Cyclic(3))", "Direct(Cyclic(1),Dihedral(4))",
                                  "Direct(Sym(3),Cyclic(1))"])
def test_direct_product_table_follows_the_pair_rule(spec):
    """(x1, y1)(x2, y2) = (x1 x2, y1 y2), entry by entry from the factor tables, the factors nested from the left."""
    factors = [build_group(f, BUDGET) for f in parse_spec(spec).params]
    want = factors[0].mul
    for f in factors[1:]:
        left, right = want.tolist(), f.mul.tolist()
        want = _pairs_table(len(left), f.order, lambda x1, y1, x2, y2: (left[x1][x2], right[y1][y2]))
    assert np.array_equal(build(spec).mul, want)


def test_trivial_action_is_neither_extended_nor_checked(monkeypatch):
    """A direct product builds its table without walking b's BFS tree or checking the identity maps."""
    def forbidden(*args):
        raise AssertionError("called for the trivial action")

    a, b = build("Sym(3)"), build("Dihedral(4)")
    monkeypatch.setattr(fgt.groups, "_bfs_levels", forbidden)
    monkeypatch.setattr(fgt.groups, "_automorphism", forbidden)
    g = direct_product(a, b, BUDGET)
    am, bm = a.mul.tolist(), b.mul.tolist()
    assert np.array_equal(g.mul, _pairs_table(a.order, b.order, lambda x1, y1, x2, y2: (am[x1][x2], bm[y1][y2])))


def test_semidirect_rejects_non_automorphism():
    a = build("Cyclic(4)")
    b = build("Cyclic(2)")
    bad = np.array([0, 0, 1, 2], dtype=np.int64)
    with pytest.raises(NotAutomorphismError):
        semidirect_product(a, b, {1: bad}, BUDGET)


def test_semidirect_rejects_action_that_is_not_a_homomorphism():
    a = build("Cyclic(5)")
    b = build("Cyclic(2)")
    doubling = np.array([0, 2, 4, 1, 3], dtype=np.int64)  # x -> 2x has order 4, not dividing 2
    with pytest.raises(ActionInconsistentError):
        semidirect_product(a, b, {1: doubling}, BUDGET)


def test_d4_semi_s3_satisfies_its_presentation():
    g = build("D4SemiS3")
    assert g.order == 48
    a, b, d, c = g.generators  # acting factor contributes (transposition, 3-cycle)
    m = g.mul

    def mul(*xs):
        acc = 0
        for x in xs:
            acc = int(m[acc, x])
        return acc

    assert g.element_orders()[[a, b, c, d]].tolist() == [4, 2, 3, 2]
    assert mul(b, a, b) == int(g.inv[a])  # bab = a^-1
    assert mul(d, a, d) == int(g.inv[a])  # dad = a^-1
    assert mul(a, c) == mul(c, a) and mul(b, c) == mul(c, b)
    assert mul(d, b, d) == mul(a, b)  # dbd = ab
    assert mul(d, c, d) == int(g.inv[c])  # dcd = c^-1


def test_c5xc3_semi_d4_satisfies_its_presentation():
    g = build("C5xC3SemiD4")
    assert g.order == 120
    a, b, c, d = g.generators
    m = g.mul

    def mul(*xs):
        acc = 0
        for x in xs:
            acc = int(m[acc, x])
        return acc

    assert g.element_orders()[[a, b, c, d]].tolist() == [5, 3, 4, 2]
    assert mul(a, b) == mul(b, a) and mul(a, c) == mul(c, a) and mul(a, d) == mul(d, a)
    assert mul(c, b, int(g.inv[c])) == int(g.inv[b])
    assert mul(d, b, d) == int(g.inv[b])
    assert mul(d, c, d) == int(g.inv[c])


def test_quotient_by_whole_group_and_by_trivial():
    g = build("Sym(3)")
    q, coset = quotient_group(g, np.arange(6))
    assert q.order == 1 and not coset.any()
    q, coset = quotient_group(g, np.array([0]))
    assert np.array_equal(q.mul, g.mul)
    assert np.array_equal(coset, np.arange(6))


def test_quotient_d4_by_center_is_klein_four():
    d4 = build("Dihedral(4)")
    center = [0, 2]  # rotation squared
    q, coset = quotient_group(d4, np.array(center))
    prof = order_fingerprint(q)
    assert prof.order == 4 and prof.abelian
    assert prof.order_counts == ((1, 1), (2, 3))
    assert np.count_nonzero(coset == 0) * q.order == d4.order


def test_quotient_requires_normality():
    s3 = build("Sym(3)")
    with pytest.raises(NotNormalError):
        quotient_group(s3, np.array([0, 1]))  # a transposition's subgroup


def test_quotient_requires_normality_under_every_generator():
    d4 = build("Dihedral(4)")
    rotation, reflection = d4.generators
    h = close_under_product(d4.mul, [reflection])  # {1, b}: the reflection normalizes it, the rotation does not
    assert np.isin(d4.conjugates(reflection, h), h).all()
    assert not np.isin(d4.conjugates(rotation, h), h).all()
    with pytest.raises(NotNormalError):
        quotient_group(d4, h)


@pytest.mark.parametrize("spec", ["Sym(4)", "GU2_3"])
def test_conjugates_match_the_scalar_definition(spec):
    """y x y^-1 = mul[mul[y, x], inv[y]] for a scalar pair, a row, a column block and the whole square."""
    g = build(spec)
    m, inv, n = g.mul, g.inv, g.order
    want = np.array([[m[m[y, x], inv[y]] for x in range(n)] for y in range(n)])
    assert all(int(g.conjugates(y, x)) == want[y, x] for y in range(n) for x in range(n))
    ys = np.arange(n)
    assert all(np.array_equal(g.conjugates(y, ys), want[y]) for y in range(n))
    rng = np.random.default_rng(0)
    rows, cols = rng.choice(n, size=7, replace=False), rng.choice(n, size=5, replace=False)
    assert np.array_equal(g.conjugates(rows[:, None], cols), want[np.ix_(rows, cols)])
    assert np.array_equal(g.conjugates(ys[:, None], ys), want)


NUMPY_MA_SCRIPT = """
import sys
from fgt.catalog import build_group, parse_spec
from fgt.groups import close_under_product, commutators, order_fingerprint, quotient_group
g = build_group(parse_spec("Sym(4)"))
a4 = close_under_product(g.mul, commutators(g, range(24), range(24)))
v4 = close_under_product(g.mul, commutators(g, a4, a4))
q, _ = quotient_group(g, v4)
print(q.order, order_fingerprint(g, v4).order, "numpy.ma" in sys.modules)
"""


def test_quotient_and_fingerprint_leave_numpy_ma_unimported():
    """No value-only ``np.unique``, which imports ``numpy.ma``, on the quotient path: a fresh process shows it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NUMPY_MA_SCRIPT], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["6", "4", "False"]


def test_quotient_projection_is_verified_hom():
    g = build("Dihedral(6)")
    center = close_under_product(g.mul, np.array([0, 3]), cutoff_to_full=False)
    q, coset = quotient_group(g, center)
    assert np.array_equal(coset[g.mul], q.mul[coset[:, None], coset])  # a homomorphism
    assert np.array_equal(np.unique(coset), np.arange(q.order))  # onto G/N
    assert np.array_equal(np.flatnonzero(coset == 0), center)  # with kernel N


def test_element_order_examples():
    d6 = build("Dihedral(6)")
    orders = d6.element_orders()
    assert orders[0] == 1
    assert orders[d6.generators[0]] == 6
    for reflection in range(6, 12):
        assert orders[reflection] == 2


def test_order_fingerprint_known_profiles():
    assert order_fingerprint(build("Direct(Cyclic(2),Cyclic(4))")).order_counts == ((1, 1), (2, 3), (4, 4))
    q8 = order_fingerprint(build("Dicyclic(2)"))
    assert q8.order_counts == ((1, 1), (2, 1), (4, 6)) and not q8.abelian and q8.center_order == 2
    d4 = order_fingerprint(build("Dihedral(4)"))
    assert d4.order_counts == ((1, 1), (2, 5), (4, 2)) and not d4.abelian


def test_order_fingerprint_of_subgroup_members():
    s4 = build("Sym(4)")
    orders = s4.element_orders()
    v4 = [0] + [int(x) for x in np.flatnonzero(orders == 2) if _is_double_transposition(s4, int(x))]
    prof = order_fingerprint(s4, np.array(v4[:4]))
    assert prof.order == 4 and prof.abelian


def _is_double_transposition(s4, x):
    # in S4 the double transpositions are the order-2 elements with 3 conjugates
    return len(set(s4.conjugates(np.arange(24), x).tolist())) == 3


def test_automorphism_extension_validates():
    d4 = build_dihedral(4, BUDGET)
    a, b = d4.generators
    phi = automorphism_from_generator_images(d4, {a: int(d4.inv[a]), b: int(d4.mul[a, b])})
    assert sorted(phi.tolist()) == list(range(8))
    with pytest.raises(NotAutomorphismError):
        automorphism_from_generator_images(d4, {a: b, b: a})  # order mismatch


def test_close_under_product_finds_whole_group_via_cutoff():
    s3 = build("Sym(3)")
    members = close_under_product(s3.mul, np.array([1, 2]))  # two transpositions
    assert members.size == 6


def test_close_under_product_matches_brute_closure():
    rng = np.random.default_rng(2024)
    for spec in ("Sym(4)", "GU2_3", "PSL2(8)", "Direct(Cyclic(2),Sym(5))"):
        g = build(spec)
        seeds = [[], [0], [0, 0]]
        for k in range(200):
            seed = rng.integers(0, g.order, size=int(rng.integers(1, 5))).tolist()
            if k % 3 == 0:
                seed.append(0)
            if k % 4 == 0:
                seed += seed[:2]
            seeds.append(seed)
        # subgroup-sized seeds, as the lattice joins pass them
        for k in range(20):
            base = brute_closure(g.mul, rng.integers(0, g.order, size=1), cutoff_to_full=False)
            seeds.append(np.concatenate([base, rng.integers(0, g.order, size=1)]).tolist())
        for cutoff in (True, False):
            for seed in seeds:
                got = close_under_product(g.mul, np.array(seed, dtype=np.intp), cutoff_to_full=cutoff)
                want = brute_closure(g.mul, seed, cutoff_to_full=cutoff)
                assert got.dtype == want.dtype and np.array_equal(got, want), (spec, seed, cutoff)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(0, 11), st.integers(0, 11))
def test_cyclic_group_is_commutative_and_orders_divide(n, i, j):
    g = build_cyclic(n, BUDGET)
    i, j = i % n, j % n
    assert g.mul[i, j] == g.mul[j, i]
    assert n % g.element_orders()[i] == 0


@settings(max_examples=20, deadline=None)
@given(st.permutations(list(range(4))), st.permutations(list(range(4))))
def test_generated_permutation_groups_validate(p1, p2):
    g = generate_permutation_group([tuple(p1), tuple(p2)], "gen", BUDGET)
    assert g.order <= 24
    assert 24 % g.order == 0
