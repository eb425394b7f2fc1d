"""Valuated matroids: exchange axiom, circuits, membership, quotients, minors."""

import random
from math import comb

import pytest

from tropquiver import (
    TropValue,
    TropVector,
    ValuatedMatroid,
    add_loop,
    circuits,
    cocircuits,
    delete,
    is_valuated_matroid,
    quotient_check,
    tls_equal,
    tls_membership,
    uniform_matroid,
)
from tropquiver.errors import CapacityError, NotAMatroidError, ShapeError, UsageError
from tropquiver.matroid import (
    PAST_CAP,
    WALK_CAP,
    _mask,
    _members,
    _subset_vectors,
    _three_term_failure,
    check_walk,
    restrict_table,
    subset_count,
)

from helpers import rand_realization


def vec(*entries):
    return TropVector([TropValue(None) if e is None else TropValue(e) for e in entries])


class TestWalkCounts:
    def test_subset_count_is_exact_unless_surely_past_the_cap(self):
        for n in range(40):
            for k in range(-1, n + 2):
                if min(k, n - k) <= WALK_CAP.bit_length():
                    assert subset_count(n, k) == (comb(n, k) if k >= 0 else 0)
                else:
                    assert subset_count(n, k) is PAST_CAP and comb(n, k) > WALK_CAP

    def test_a_count_past_the_cap_stays_past_it(self):
        past = subset_count(10 ** 5, 5 * 10 ** 4)
        assert past is PAST_CAP
        assert 0 * past == past * 0 == 0
        assert past * 3 is 3 * past is past * past is past
        assert sum([1, past, 2]) is past and past + 1 is past
        assert past > WALK_CAP and 1 < past and not past < WALK_CAP and past != WALK_CAP + 1
        with pytest.raises(CapacityError) as exc:
            check_walk("walk", 2 * past)
        assert str(exc.value) == "walk walks more than 20000 subsets; the cap is 20000"
        with pytest.raises(CapacityError) as exc:
            check_walk("walk", subset_count(30, 14) * 2, "pairs")
        assert str(exc.value) == "walk walks 290845350 pairs; the cap is 20000"

    def test_no_walk_over_an_unbounded_ground_set(self):
        n = 10 ** 9
        for members in [(1, 5, 10 ** 4), tuple(range(1, 200)), (3, 64), (63,)]:
            assert _members(_mask(members)) == members  # masks wider and narrower than a word
        for r in (0, 1):
            assert not _three_term_failure(ValuatedMatroid(n, r, {tuple(range(1, r + 1)): 0}))
        assert _subset_vectors(n, -1, {0: 0}, members=False, grouped=True) == []
        assert is_valuated_matroid(ValuatedMatroid(n, 1, {(1,): 0})) == (True, None)


class TestConstruction:
    def test_values_are_kept_exactly(self):
        m = ValuatedMatroid(3, 2, {(1, 2): 4, (1, 3): 3, (2, 3): 1})
        assert m.value((1, 2)) == TropValue(4)
        assert m.value((1, 3)) == TropValue(3)

    def test_infinite_values_are_sparse(self):
        m = ValuatedMatroid(3, 2, {(1, 2): 0, (1, 3): None})
        assert m.bases() == [(1, 2)]
        assert m.value((1, 3)).is_inf

    def test_empty_support_rejected(self):
        with pytest.raises(NotAMatroidError):
            ValuatedMatroid(3, 2, {(1, 2): None})

    def test_bad_subsets_rejected(self):
        with pytest.raises(UsageError):
            ValuatedMatroid(3, 2, {(1,): 0})
        with pytest.raises(UsageError):
            ValuatedMatroid(3, 2, {(2, 4): 0})


class TestExchangeAxiom:
    def test_uniform_is_valuated(self):
        assert is_valuated_matroid(uniform_matroid(4, 2)) == (True, None)

    def test_disconnected_pair_violates(self):
        bad = ValuatedMatroid(4, 2, {(1, 2): 0, (3, 4): 0})
        ok, witness = is_valuated_matroid(bad)
        assert not ok
        assert witness == ((1, 2), (3, 4), 1)

    def test_bad_valuation_on_uniform_support(self):
        # three-term minimum attained once: 0+0 < min(1+0, 0+1)
        bad = ValuatedMatroid(
            4, 2, {(1, 2): 0, (3, 4): 0, (1, 3): 1, (2, 4): 0, (1, 4): 0, (2, 3): 1}
        )
        assert not is_valuated_matroid(bad)[0]

    def test_realizations_always_pass(self):
        rng = random.Random(5)
        for _ in range(25):
            _, m = rand_realization(rng, rng.randint(1, 3), rng.randint(3, 5))
            assert is_valuated_matroid(m) == (True, None)


class TestCircuitsCocircuits:
    def test_uniform_line(self):
        m = uniform_matroid(3, 2)
        assert circuits(m) == [vec(0, 0, 0)]
        assert cocircuits(m) == [vec(0, 0, None), vec(0, None, 0), vec(None, 0, 0)]

    def test_cocircuits_keep_raw_values(self):
        m = ValuatedMatroid(3, 2, {(1, 2): 4, (1, 3): 3, (2, 3): 1})
        assert set(cocircuits(m)) == {vec(None, 4, 3), vec(4, None, 1), vec(3, 1, None)}

    def test_rank_zero_has_no_cocircuits(self):
        m = ValuatedMatroid(2, 0, {(): 0})
        assert cocircuits(m) == []

    def test_loops_are_infinite_in_every_cocircuit(self):
        m = add_loop(uniform_matroid(2, 1))
        for c in cocircuits(m):
            assert c[2].is_inf


class TestTlsMembership:
    def test_cocircuits_are_members(self):
        rng = random.Random(6)
        for _ in range(20):
            _, m = rand_realization(rng, 2, 4)
            for c in cocircuits(m):
                assert tls_membership(m, c)[0]

    def test_rejection_names_a_circuit(self):
        m = uniform_matroid(3, 2)
        ok, circ = tls_membership(m, vec(0, 1, 2))
        assert not ok and circ == vec(0, 0, 0)

    def test_all_infinite_point_is_member(self):
        assert tls_membership(uniform_matroid(3, 2), vec(None, None, None))[0]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tls_membership(uniform_matroid(3, 2), vec(0, 0))


class TestQuotient:
    def test_uniform_chain(self):
        assert quotient_check(uniform_matroid(4, 1), uniform_matroid(4, 2))[0]

    def test_rank_order_enforced(self):
        with pytest.raises(UsageError):
            quotient_check(uniform_matroid(3, 2), uniform_matroid(3, 1))

    def test_non_quotient_detected(self):
        mu = ValuatedMatroid(3, 1, {(1,): 0})
        nu = ValuatedMatroid(3, 2, {(2, 3): 0})
        ok, witness = quotient_check(mu, nu)
        assert not ok and witness is not None

    def test_realizable_flags_are_quotients(self):
        rng = random.Random(7)
        for _ in range(15):
            u2, m2 = rand_realization(rng, 2, 4)
            coeffs = [rng.randint(-3, 3) for _ in range(2)]
            row = [
                sum((u2.entry(i, j) * coeffs[i] for i in range(2)), u2.entry(0, j) * 0)
                for j in range(4)
            ]
            if all(e.is_zero for e in row):
                continue
            from tropquiver import FieldMatrix, pluecker_valuations

            m1 = pluecker_valuations(FieldMatrix([row]))
            assert quotient_check(m1, m2) == (True, None)


class TestMinors:
    def test_delete_free_element(self):
        m = uniform_matroid(4, 2)
        d = delete(m, 4)
        assert (d.n, d.r) == (3, 2)
        assert tls_equal(d, uniform_matroid(3, 2))

    def test_delete_coloop_drops_rank(self):
        # element 3 is in every basis
        m = ValuatedMatroid(3, 2, {(1, 3): 0, (2, 3): 1})
        d = delete(m, 3)
        assert (d.n, d.r) == (2, 1)
        assert d.value((1,)) == TropValue(0)
        assert d.value((2,)) == TropValue(1)

    def test_restrict_table_keeps_labels(self):
        m = uniform_matroid(4, 2)
        rank, table = restrict_table(m, {2, 4})
        assert rank == 2
        assert set(table) == {(2, 4)}

    def test_add_loop(self):
        m = add_loop(uniform_matroid(3, 2))
        assert (m.n, m.r) == (4, 2)
        assert m.value((1, 4)).is_inf


class TestTlsEqual:
    def test_projective_shift_invariance(self):
        a = ValuatedMatroid(3, 2, {(1, 2): 4, (1, 3): 3, (2, 3): 1})
        b = ValuatedMatroid(3, 2, {(1, 2): 3, (1, 3): 2, (2, 3): 0})
        assert tls_equal(a, b)
        assert a != b

    def test_different_supports_differ(self):
        a = uniform_matroid(3, 2)
        b = ValuatedMatroid(3, 2, {(1, 2): 0, (1, 3): 0})
        assert not tls_equal(a, b)
