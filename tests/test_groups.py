"""Group tables, characters, dual groups, difference sets, subgroups."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehtp.errors import NonAbelianError
from ehtp.groups import (
    Character,
    SpectrumSet,
    character_table,
    difference_set,
    dual_group,
    from_cayley,
    make_cyclic_product,
    spectrum,
    subgroup_and_restriction,
)
from ehtp.representations import character_rep, diagonalize
from ehtp.suites import SHAPE_POOL_12, SHAPE_POOL_24, s3_cayley

SHAPES = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3)


# independent oracle: coordinates of element i in the mixed-radix system
def _coords(i, shape):
    out = []
    for n in reversed(shape):
        out.append(i % n)
        i //= n
    return tuple(reversed(out))


def _index(coords, shape):
    i = 0
    for c, n in zip(coords, shape):
        i = i * n + (c % n)
    return i


class TestCyclicProduct:
    def test_single_factor_of_one_is_trivial(self):
        g = make_cyclic_product([1])
        assert g.order == 1
        assert g.mul(0, 0) == 0
        assert g.inv(0) == 0

    def test_z7_table_is_addition_mod_7(self):
        g = make_cyclic_product([7])
        for a in range(7):
            for b in range(7):
                assert g.mul(a, b) == (a + b) % 7
            assert g.inv(a) == (-a) % 7

    def test_z2_z3_product_has_an_order_six_element(self):
        g = make_cyclic_product([2, 3])
        assert g.order == 6
        s = g.element_index([1, 1])
        powers = {0}
        x = s
        order = 1
        while x != g.identity:
            x = g.mul(x, s)
            order += 1
        assert order == 6  # Z2 x Z3 is cyclic of order 6

    def test_order_cap_rejected(self):
        # and the shapes that give no order: no factor, a factor below 1
        for shape, message in [([70000], "exceeds the bound"), ([], "at least one factor"),
                               ([4, 0], "must be >= 1")]:
            with pytest.raises(ValueError, match=message):
                make_cyclic_product(shape)

    def test_coordinates_round_trip(self):
        g = make_cyclic_product([2, 3, 4])
        for i in range(g.order):
            assert g.coords(i) == _coords(i, (2, 3, 4))
            assert g.element_index(g.coords(i)) == i

    @pytest.mark.parametrize("shape", [(4, 4, 4, 4, 4), (16, 16, 4)])
    def test_table_is_the_coordinate_formula_within_three_tables(self, shape):
        # the table is built one factor at a time in place, with no array of
        # the coordinate sums of all r factors at once
        tracemalloc.start()
        try:
            g = make_cyclic_product(shape)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        coords = np.array([_coords(i, shape) for i in range(g.order)])
        strides = np.array([int(np.prod(shape[j + 1:])) for j in range(len(shape))])
        sums = (coords[:, None, :] + coords[None, :, :]) % np.array(shape)
        assert np.array_equal(g.cayley, sums @ strides)
        assert peak <= 3 * g.cayley.nbytes, f"peak {peak / 1e6:.1f} MB"
        assert held <= 1.1 * g.cayley.nbytes, f"held {held / 1e6:.1f} MB"

    @given(SHAPES)
    def test_group_axioms(self, shape):
        g = make_cyclic_product(shape)
        rng = np.random.default_rng(0)
        n = g.order
        idx = rng.integers(n, size=(20, 3))
        for a, b, c in idx:
            assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
            assert g.mul(a, g.identity) == a
            assert g.mul(g.inv(a), a) == g.identity

    @given(SHAPES)
    def test_multiplication_is_coordinatewise_addition(self, shape):
        g = make_cyclic_product(shape)
        rng = np.random.default_rng(1)
        for a, b in rng.integers(g.order, size=(20, 2)):
            ca, cb = _coords(a, shape), _coords(b, shape)
            expect = _index([x + y for x, y in zip(ca, cb)], shape)
            assert g.mul(a, b) == expect


class TestCayley:
    def test_round_trip_from_cyclic_table(self):
        g = make_cyclic_product([5])
        h = from_cayley(g.cayley)
        assert h.order == 5
        assert h.abelian_shape is None  # raw tables carry no coordinates
        for a in range(5):
            for b in range(5):
                assert h.mul(a, b) == g.mul(a, b)

    def test_s3_is_a_nonabelian_group(self):
        g = from_cayley(s3_cayley())
        assert g.order == 6
        assert not np.array_equal(g.cayley, g.cayley.T)
        with pytest.raises(NonAbelianError):
            g.coords(1)

    def test_nonassociative_table_rejected(self):
        # a Latin square with identity 0 and two-sided inverses (every
        # element is its own), but (1*2)*4 = 1 and 1*(2*4) = 4
        table = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
        with pytest.raises(ValueError, match="not associative"):
            from_cayley(table)

    def test_non_latin_square_rejected(self):
        with pytest.raises(ValueError):
            from_cayley([[0, 0], [1, 1]])

    @pytest.mark.parametrize("table, message", [
        ([[0, 2, 1], [2, 1, 0], [1, 0, 2]], "cayley table has no identity element"),
        ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]],
         "element 2 has no two-sided inverse"),
        ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
         "cayley table is not associative"),
        ([[0, 1, 2], [1, 2, 0]], "cayley table must be square"),
        ([], "cayley table must be square"),
        (np.zeros((0, 0), dtype=int), "empty cayley table"),
        ([[0, 1], [1, 2]], r"cayley entries must index elements 0\.\.order-1"),
    ])
    def test_each_axiom_is_rejected_with_its_message(self, table, message):
        # each of the first three tables is a Latin square that fails this
        # axiom first; the others are not tables of n elements
        with pytest.raises(ValueError, match=f"^{message}$"):
            from_cayley(table)

    def test_identity_and_inverses_of_a_relabelled_table(self):
        # Z_6 with its elements renamed by p, so the identity is p[0] = 4
        p = np.array([4, 2, 5, 0, 3, 1])
        g = make_cyclic_product([6])
        table = np.empty((6, 6), dtype=np.int64)
        table[p[:, None], p] = p[g.cayley]
        h = from_cayley(table)
        assert h.identity == 4
        assert [h.mul(a, h.inverse[a]) for a in range(6)] == [4] * 6


def _exhaustive_verdict(table):
    """The message ``from_cayley`` must raise for a square table with entries
    in range, or None for a group: every axiom checked on every element, and
    associativity on every triple, a row at a time."""
    t = np.asarray(table)
    n, ar = len(t), np.arange(len(t))
    if not all(np.array_equal(np.sort(t[i]), ar) and np.array_equal(np.sort(t[:, i]), ar) for i in ar):
        return "cayley table is not a Latin square"
    units = [e for e in ar if np.array_equal(t[e], ar) and np.array_equal(t[:, e], ar)]
    if not units:
        return "cayley table has no identity element"
    e = units[0]
    for a in ar:
        if not any(t[a, b] == e and t[b, a] == e for b in ar):
            return f"element {a} has no two-sided inverse"
    for a in range(n):
        # (a*b)*c vs a*(b*c) for all b, c at once
        if not np.array_equal(t[t[a], :], t[a][t]):
            return "cayley table is not associative"
    return None


def _permutation_group_table(gens):
    """The Cayley table of the group of permutations generated by ``gens``,
    with ``(p q)(i) = p(q(i))``."""
    elems = [tuple(range(len(gens[0])))]
    for p in elems:
        for g in gens:
            q = tuple(g[i] for i in p)
            if q not in elems:
                elems.append(q)
    index = {p: k for k, p in enumerate(elems)}
    return np.array([[index[tuple(p[i] for i in q)] for q in elems] for p in elems])


# the groups of order at most 12 used by the oracle tests, as permutation groups
SMALL_GROUPS = {
    "S3": [(1, 0, 2), (1, 2, 0)],
    "D4": [(1, 2, 3, 0), (0, 3, 2, 1)],
    "D5": [(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)],
    "D6": [(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)],
    "Q8": [(1, 2, 3, 0, 7, 4, 5, 6), (4, 5, 6, 7, 2, 3, 0, 1)],
    "A4": [(1, 2, 0, 3), (1, 0, 3, 2)],
    "Z12": [tuple(range(1, 12)) + (0,)],
    "Z2xZ6": [(1, 0, 2, 3, 4, 5, 6, 7), (0, 1, 3, 4, 5, 6, 7, 2)],
    "Z2^3": [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)],
}


def _intercalates(t):
    """The 2 x 2 Latin subsquares ``(i, j, k, l)``: ``t[i, k] = t[j, l]`` and
    ``t[i, l] = t[j, k]``."""
    n = len(t)
    return [(i, j, k, l) for i in range(n) for j in range(i + 1, n) for k in range(n) for l in range(k + 1, n)
            if t[i, k] == t[j, l] and t[i, l] == t[j, k]]


def _word_lengths(g, gens):
    """The least k with x = g_k(...(g_1 e)), for every element x, by a
    breadth-first search with all the generators from the start; -1 where
    no word reaches."""
    dist = np.full(g.order, -1)
    dist[g.identity], frontier = 0, [g.identity]
    while frontier:
        nxt = [int(g.cayley[a, x]) for x in frontier for a in gens if dist[g.cayley[a, x]] < 0]
        nxt = list(dict.fromkeys(nxt))
        dist[nxt] = dist[frontier[0]] + 1
        frontier = nxt
    return dist


class TestGeneratingSet:
    @pytest.mark.parametrize("shape", [[1], [6], [2, 2, 2], [4, 60], [512], [2] * 9])
    def test_words_up_to_the_bound_reach_every_element(self, shape):
        g = make_cyclic_product(shape)
        gens, length = g.generating_set
        dist = _word_lengths(g, gens)
        assert dist.min() >= 0 and dist.max() <= length
        assert g.generating_set is g.generating_set     # computed once

    def test_cyclic_groups_need_one_generator(self):
        assert make_cyclic_product([512]).generating_set == ((1,), 511)
        assert make_cyclic_product([2] * 9).generating_set == (tuple(2 ** k for k in range(9)), 9)

    @pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
    def test_the_bound_covers_nonabelian_tables(self, name):
        g = from_cayley(_permutation_group_table(SMALL_GROUPS[name]))
        gens, length = g.generating_set
        dist = _word_lengths(g, gens)
        assert dist.min() >= 0 and dist.max() <= length


class TestLightsTest:
    # Light's test on the generators against the exhaustive triple check
    @pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
    def test_group_tables_and_intercalate_swaps_agree_with_the_triples(self, name):
        table = _permutation_group_table(SMALL_GROUPS[name])
        assert len(table) <= 12 and _exhaustive_verdict(table) is None
        rng = np.random.default_rng(len(table))
        relabel = rng.permutation(len(table))
        base = np.empty_like(table)
        base[relabel[:, None], relabel] = relabel[table]
        quads = _intercalates(base)
        verdicts = []
        for swaps in [[]] + [[quads[k]] for k in rng.choice(len(quads), min(40, len(quads)), replace=False)] \
                + [[quads[k] for k in rng.choice(len(quads), 2, replace=False)] for _ in range(10)]:
            t = base.copy()
            for i, j, k, l in swaps:
                if t[i, k] == t[j, l] and t[i, l] == t[j, k]:     # still an intercalate
                    t[i, k], t[i, l], t[j, k], t[j, l] = t[i, l], t[i, k], t[j, l], t[j, k]
            expected = _exhaustive_verdict(t)
            verdicts.append(expected)
            if expected is None:
                assert np.array_equal(from_cayley(t).cayley, t)
            else:
                with pytest.raises(ValueError, match=f"^{expected}$"):
                    from_cayley(t)
        assert "cayley table is not associative" in verdicts

    def test_an_associative_failure_above_order_64_is_caught(self):
        # Z_70 with the intercalate at rows 10, 45 and columns 6, 41 swapped
        # (16 <-> 51): sampling 2,000 triples accepted it
        t = make_cyclic_product([70]).cayley.copy()
        t[[10, 10, 45, 45], [6, 41, 6, 41]] = [51, 16, 16, 51]
        assert _exhaustive_verdict(t) == "cayley table is not associative"
        with pytest.raises(ValueError, match="^cayley table is not associative$"):
            from_cayley(t)

    def test_cayley_groups_keep_the_input_table(self):
        g = make_cyclic_product([4, 3])
        h = from_cayley(g.cayley)
        assert np.array_equal(h.cayley, g.cayley) and h.cayley.dtype == np.int64


class TestCharacters:
    def test_trivial_character_is_constant_one(self):
        g = make_cyclic_product([4])
        chi = Character((4,), (0,))
        assert np.allclose(chi.values(g), 1.0)

    def test_sign_character_on_z2(self):
        g = make_cyclic_product([2])
        chi = Character((2,), (1,))
        assert np.allclose(chi.values(g), [1.0, -1.0])

    def test_z4_character_table_is_orthogonal(self):
        g = make_cyclic_product([4])
        table = np.array([c.values(g) for c in dual_group(g)])
        assert np.allclose(table @ table.conj().T, 4 * np.eye(4))

    def test_klein_group_characters_are_real(self):
        g = make_cyclic_product([2, 2])
        for c in dual_group(g):
            assert np.allclose(c.values(g).imag, 0.0)

    def test_mul_inv_quotient_act_on_exponents(self):
        chi = Character((6,), (2,))
        tau = Character((6,), (5,))
        assert chi.mul(tau).exponents == (1,)
        assert chi.inv().exponents == (4,)
        assert chi.quotient(tau).exponents == (3,)

    @given(SHAPES)
    def test_orthogonality_relations(self, shape):
        g = make_cyclic_product(shape)
        duals = list(dual_group(g))
        table = np.array([c.values(g) for c in duals])
        gram = table @ table.conj().T
        assert np.allclose(gram, g.order * np.eye(len(duals)), atol=1e-10)

    @given(SHAPES)
    def test_characters_are_homomorphisms(self, shape):
        g = make_cyclic_product(shape)
        rng = np.random.default_rng(2)
        duals = list(dual_group(g))
        chi = duals[rng.integers(len(duals))]
        vals = chi.values(g)
        for a, b in rng.integers(g.order, size=(20, 2)):
            assert abs(vals[g.mul(a, b)] - vals[a] * vals[b]) < 1e-12


    @given(SHAPES)
    def test_table_matches_exact_evaluation(self, shape):
        g = make_cyclic_product(shape)
        duals = list(dual_group(g))
        table = character_table(g, duals)
        exact = np.array([[c.evaluate(g, s) for s in range(g.order)] for c in duals])
        assert table.shape == (len(duals), g.order)
        assert np.abs(table - exact).max() < 1e-12

    def test_rows_do_not_depend_on_the_other_rows(self):
        # bit-for-bit: a row of a large table equals the one-row table
        g = make_cyclic_product([12, 30])
        duals = list(dual_group(g))
        table = character_table(g, duals)
        for i in (0, 7, 101, 359):
            assert np.array_equal(table[i], character_table(g, [duals[i]])[0])
            assert np.array_equal(table[i], duals[i].values(g))
        assert character_table(g, []).shape == (0, g.order)

    def test_shape_mismatch_is_rejected(self):
        # characters, spectra and groups whose shapes disagree
        z4, z6 = make_cyclic_product([4]), make_cyclic_product([6])
        sub = subgroup_and_restriction(z6, [2])
        rejected = [
            (lambda: character_table(z4, [Character((2, 2), (1, 0))]), NonAbelianError, "does not match"),
            (lambda: Character((5,), (1, 2)), ValueError, "exponent tuple length"),
            (lambda: Character((5, 5), (1,)), ValueError, "exponent tuple length"),
            (lambda: SpectrumSet(from_cayley(s3_cayley()), ()), NonAbelianError, "cyclic-product group"),
            (lambda: SpectrumSet(z4, (Character((6,), (1,)),)), ValueError, "does not match the group"),
            (lambda: sub.restrict(Character((4,), (1,))), ValueError, "ambient group"),
            (lambda: sub.restrict_spectrum(spectrum(z4, [Character((4,), (1,))])), ValueError, "ambient group"),
        ]
        for call, error, message in rejected:
            with pytest.raises(error, match=message):
                call()


class TestSpectrumSets:
    def test_spectrum_deduplicates_preserving_order(self):
        chi = Character((5,), (2,))
        tau = Character((5,), (1,))
        e = spectrum(make_cyclic_product([5]), [chi, tau, chi])
        assert [c.exponents for c in e] == [(2,), (1,)]
        with pytest.raises(ValueError, match="duplicate characters"):
            SpectrumSet(make_cyclic_product([5]), (chi, tau, chi))

    def test_dual_group_is_lexicographic_and_complete(self):
        g = make_cyclic_product([2, 2])
        assert [c.exponents for c in dual_group(g)] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_difference_set_of_singleton_is_trivial(self):
        g = make_cyclic_product([6])
        e = spectrum(g, [Character((6,), (4,))])
        assert difference_set(e).exponent_set() == {(0,)}

    def test_difference_set_of_full_dual_is_full(self):
        g = make_cyclic_product([5])
        assert len(difference_set(dual_group(g))) == 5

    def test_difference_set_on_two_characters_of_z7(self):
        g = make_cyclic_product([7])
        e = spectrum(g, [Character((7,), (1,)), Character((7,), (3,))])
        assert difference_set(e).exponent_set() == {(0,), (2,), (5,)}

    @staticmethod
    def _quotient_oracle(e):
        """The difference set from ``Character.quotient`` over all k^2 pairs."""
        return spectrum(e.group, (s.quotient(t) for s in e for t in e), sort=True)

    def _spectra(self):
        rng = np.random.default_rng(7)
        for shape in SHAPE_POOL_12:
            g = make_cyclic_product(shape)
            duals = list(dual_group(g))
            yield dual_group(g)
            yield spectrum(g, [])
            for size in (1, 2, 3, 5):
                picks = rng.choice(len(duals), size=min(size, len(duals)), replace=False)
                yield spectrum(g, [duals[i] for i in picks])
        g = make_cyclic_product([4, 60])
        duals = list(dual_group(g))
        for size in (7, 40):
            yield spectrum(g, [duals[i] for i in rng.choice(len(duals), size=size, replace=False)])
        # repeated characters, as a representation lists them
        z12 = make_cyclic_product([12])
        chars = [Character((12,), (k,)) for k in (0, 3, 3, 7, 7, 7, 11)]
        yield spectrum(z12, chars)
        yield diagonalize(character_rep(z12, chars)).spectrum

    def test_difference_set_matches_the_quotient_oracle(self):
        checked = 0
        for e in self._spectra():
            fast, slow = difference_set(e), self._quotient_oracle(e)
            assert fast.group is e.group
            assert [c.exponents for c in fast] == [c.exponents for c in slow], e
            assert all(c.shape == e.group.abelian_shape for c in fast)
            checked += 1
        assert checked == 6 * len(SHAPE_POOL_12) + 4

    def test_containment_uses_exponents(self):
        g = make_cyclic_product([3])
        e = spectrum(g, [Character((3,), (1,))])
        assert Character((3,), (1,)) in e
        assert Character((3,), (2,)) not in e


class TestSubgroups:
    def test_identity_generators_give_trivial_subgroup(self):
        g = make_cyclic_product([8])
        sub = subgroup_and_restriction(g, [g.identity])
        assert sub.subgroup.order == 1

    def test_full_generators_give_the_whole_group(self):
        g = make_cyclic_product([2, 3])
        sub = subgroup_and_restriction(g, [g.element_index([1, 0]), g.element_index([0, 1])])
        assert sub.subgroup.order == 6
        # the embedding hits every element exactly once
        assert sorted(sub.embedding) == list(range(6))

    def test_even_elements_of_z6_form_z3(self):
        g = make_cyclic_product([6])
        sub = subgroup_and_restriction(g, [2])
        assert sub.subgroup.order == 3
        assert sub.subgroup.abelian_shape == (3,)
        assert sorted(sub.embedding) == [0, 2, 4]
        # restriction collapses exponents mod 3
        for k in range(6):
            chi = Character((6,), (k,))
            assert sub.restrict(chi).exponents == (k % 3,)

    def test_restriction_is_a_homomorphism(self):
        g = make_cyclic_product([4, 6])
        sub = subgroup_and_restriction(g, [g.element_index([2, 3]), g.element_index([0, 2])])
        rng = np.random.default_rng(3)
        duals = list(dual_group(g))
        for _ in range(20):
            chi, tau = (duals[i] for i in rng.integers(len(duals), size=2))
            lhs = sub.restrict(chi.mul(tau))
            rhs = sub.restrict(chi).mul(sub.restrict(tau))
            assert lhs.exponents == rhs.exponents

    def test_restriction_agrees_with_evaluation(self):
        # restricted character evaluated on H equals the original on the
        # embedded elements
        g = make_cyclic_product([2, 2, 3])
        sub = subgroup_and_restriction(g, [g.element_index([1, 0, 2])])
        h = sub.subgroup
        for chi in dual_group(g):
            r = sub.restrict(chi)
            for j in range(h.order):
                expect = chi.evaluate(g, int(sub.embedding[j]))
                assert abs(r.evaluate(h, j) - expect) < 1e-12

    def test_restrict_spectrum_deduplicates(self):
        g = make_cyclic_product([6])
        sub = subgroup_and_restriction(g, [2])
        e = spectrum(g, [Character((6,), (1,)), Character((6,), (4,))])
        restricted = sub.restrict_spectrum(e)
        assert restricted.exponent_set() == {(1,)}


# independent oracle: the subgroup as a breadth-first closure of the
# identity under multiplication by the generators, on the Cayley table
def _closure(g, generators):
    seen, frontier = {g.identity}, [g.identity]
    while frontier:
        frontier = [b for b in {g.mul(a, s) for a in frontier for s in generators} if b not in seen]
        seen.update(frontier)
    return seen


def _check_subgroup(g, generators, rng):
    """The properties of a generated subgroup that no coordinate choice
    changes: its element set, the embedding as an injective homomorphism,
    an invariant-factor shape, and restriction as evaluation."""
    sub = subgroup_and_restriction(g, generators)
    h, emb = sub.subgroup, sub.embedding
    assert set(emb.tolist()) == _closure(g, generators) and len(emb) == h.order
    if h.order <= 256:
        a, b = np.meshgrid(np.arange(h.order), np.arange(h.order))
    else:
        a, b = rng.integers(h.order, size=(2, 4096))
    assert np.array_equal(g.cayley[emb[a], emb[b]], emb[h.cayley[a, b]])
    shape = h.abelian_shape
    assert shape == (1,) or (min(shape) > 1 and all(n % m == 0 for m, n in zip(shape, shape[1:])))
    elements = range(h.order) if h.order <= 64 else rng.integers(h.order, size=64).tolist()
    for exps in rng.integers(0, g.abelian_shape, size=(3, len(g.abelian_shape))).tolist():
        chi = Character(g.abelian_shape, exps)
        r = sub.restrict(chi)
        for j in elements:
            assert abs(r.evaluate(h, j) - chi.evaluate(g, int(emb[j]))) < 1e-9


class TestSubgroupProperties:
    @pytest.mark.parametrize("shape", SHAPE_POOL_24, ids=str)
    def test_each_single_generator_and_seeded_pairs(self, shape):
        g = make_cyclic_product(shape)
        rng = np.random.default_rng(sum(shape))
        for s in range(g.order):
            _check_subgroup(g, [s], rng)
        for _ in range(20):
            _check_subgroup(g, rng.integers(g.order, size=2).tolist(), rng)

    @pytest.mark.parametrize("shape", [(12, 30), (4, 60), (8, 8)], ids=str)
    def test_seeded_generator_sets_on_larger_groups(self, shape):
        g = make_cyclic_product(shape)
        rng = np.random.default_rng(g.order)
        for _ in range(20):
            _check_subgroup(g, rng.integers(g.order, size=int(rng.integers(1, 4))).tolist(), rng)
