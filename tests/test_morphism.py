"""Ground-set maps, affine induced matroids, weakly monomial matrices."""

import random
import time

import pytest

from tropquiver import (
    FieldMatrix,
    GroundSetMap,
    PuiseuxElement,
    TropValue,
    TropVector,
    affine_induced,
    affine_induced_unpointed,
    associated_map,
    associated_matrix,
    cocircuits,
    compose_maps,
    decompose_weakly_monomial,
    image_equals_induced,
    is_affine_morphism,
    is_weakly_monomial,
    tls_equal,
    trop_matvec,
    uniform_matroid,
)
from tropquiver.errors import CapacityError, UsageError
from tropquiver.morphism import matrix_product

from helpers import rand_realization, rand_weakly_monomial

one = PuiseuxElement.const(1)
zero = PuiseuxElement()


def vec(*entries):
    return TropVector([TropValue(None) if e is None else TropValue(e) for e in entries])


# the running example: permutation (2 3) composed with a diagonal shift,
# acting on the trivially valued rank-2 matroid on [3]
MU = uniform_matroid(3, 2)
F = GroundSetMap(3, {1: (1, 3), 2: (3, 1), 3: (2, 0)})


class TestGroundSetMap:
    def test_origin_forces_infinite_shift(self):
        with pytest.raises(UsageError):
            GroundSetMap(2, {1: (0, 3), 2: (2, 0)})

    def test_infinite_shift_normalizes_to_origin(self):
        f = GroundSetMap(2, {1: (2, None), 2: (2, 0)})
        assert f.f1[1] == 0 and f.f2[1].is_inf

    @pytest.mark.parametrize("target", [3, 99, -1])
    def test_infinite_shift_target_is_checked(self, target):
        # the target is read before an infinite shift sends i to the origin
        with pytest.raises(UsageError, match="outside"):
            GroundSetMap(2, {1: (target, None), 2: (2, 0)})

    def test_total_assignment_required(self):
        with pytest.raises(UsageError):
            GroundSetMap(3, {1: (1, 0)})

    def test_identity(self):
        f = GroundSetMap.identity(3)
        assert all(f.f1[i] == i and f.f2[i] == TropValue(0) for i in (1, 2, 3))


class TestAffineInduced:
    def test_running_example_values(self):
        ind = affine_induced_unpointed(MU, F)
        assert ind.value((1, 2)) == TropValue(4)
        assert ind.value((1, 3)) == TropValue(3)
        assert ind.value((2, 3)) == TropValue(1)

    def test_running_example_cocircuits(self):
        ind = affine_induced_unpointed(MU, F)
        assert set(cocircuits(ind)) == {
            vec(None, 4, 3),
            vec(4, None, 1),
            vec(3, 1, None),
        }

    def test_pointed_version_has_origin_loop(self):
        ind = affine_induced(MU, F)
        assert ind.n == 4
        assert all(4 not in b for b in ind.bases())

    def test_identity_induces_the_same_space(self):
        rng = random.Random(9)
        for _ in range(10):
            _, mu = rand_realization(rng, 2, 4)
            ind = affine_induced_unpointed(mu, GroundSetMap.identity(4))
            assert tls_equal(ind, mu)

    def test_projection_deletes(self):
        f = GroundSetMap(3, {1: (1, 0), 2: (2, 0), 3: (0, None)})
        ind = affine_induced_unpointed(uniform_matroid(3, 1), f)
        assert ind.bases() == [(1,), (2,)]


class TestAssociatedMapMatrix:
    def test_roundtrip_valuation(self):
        _, a_trop = associated_matrix(F)
        assert a_trop.entry(0, 0) == TropValue(3)
        assert a_trop.entry(1, 2) == TropValue(1)
        assert a_trop.entry(2, 1) == TropValue(0)
        assert a_trop.entry(0, 1).is_inf

    def test_map_of_matrix(self):
        a, _ = associated_matrix(F)
        assert associated_map(a) == F

    def test_weakly_monomial_detection(self):
        assert is_weakly_monomial(FieldMatrix([[one, zero], [zero, one]]))
        assert not is_weakly_monomial(FieldMatrix([[one, one], [zero, one]]))

    def test_non_monomial_rejected(self):
        with pytest.raises(UsageError):
            associated_map(FieldMatrix([[one, one], [zero, one]]))


class TestDecomposition:
    def test_running_example(self):
        a, _ = associated_matrix(F)
        b, d = decompose_weakly_monomial(a)
        assert matrix_product(d, b) == a
        # b is the permutation support, d the diagonal scale
        assert b.entry(0, 0) == one and b.entry(1, 2) == one and b.entry(2, 1) == one
        assert d.entry(0, 0) == PuiseuxElement.t_power(3)

    def test_random_decompositions_multiply_back(self):
        rng = random.Random(13)
        for _ in range(30):
            a, _ = rand_weakly_monomial(rng, rng.randint(2, 5))
            b, d = decompose_weakly_monomial(a)
            assert matrix_product(d, b) == a
            assert is_weakly_monomial(b)


class TestComposition:
    def test_running_example_factors(self):
        g = GroundSetMap(3, {1: (1, 0), 2: (3, 0), 3: (2, 0)})  # permutation
        h = GroundSetMap(3, {1: (1, 3), 2: (2, 1), 3: (3, 0)})  # diagonal shift
        # the diagonal acts first; matrixwise A = D * B
        assert compose_maps(h, g) == F

    def test_composition_matches_matrix_product(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(2, 4)
            a, fa = rand_weakly_monomial(rng, n)
            b, fb = rand_weakly_monomial(rng, n)
            # row i of A*B first follows the nonzero entry of A's row i,
            # then that of B: the map of A acts first
            assert associated_map(matrix_product(a, b)) == compose_maps(fa, fb)


class TestImageEqualsInduced:
    def test_running_example_image_column(self):
        _, a_trop = associated_matrix(F)
        images = {trop_matvec(a_trop, c) for c in cocircuits(MU)}
        assert images == {vec(None, 1, 0), vec(3, 1, None), vec(3, None, 0)}

    def test_running_example_equality(self):
        assert image_equals_induced(F, MU) == (True, None)

    def test_random_weakly_monomial(self):
        rng = random.Random(19)
        for _ in range(30):
            n = rng.randint(2, 5)
            _, f = rand_weakly_monomial(rng, n)
            _, mu = rand_realization(rng, rng.randint(1, min(3, n)), n)
            assert image_equals_induced(f, mu)[0]

    def test_pairs_past_the_cap(self):
        # 792 cocircuits of the induced matroid times 792 generators: each
        # list is under the cap, the pairs are not
        start = time.monotonic()
        with pytest.raises(CapacityError, match="the cap is 20000"):
            image_equals_induced(GroundSetMap.identity(12), uniform_matroid(12, 6))
        assert time.monotonic() - start < 1.0


class TestAffineMorphism:
    def test_identity_is_a_morphism(self):
        rng = random.Random(23)
        for _ in range(10):
            _, mu = rand_realization(rng, 2, 4)
            ok, _ = is_affine_morphism(GroundSetMap.identity(4), mu, mu)
            assert ok

    def test_rank_order_failure_is_certified(self):
        mu = uniform_matroid(3, 1)
        nu = uniform_matroid(3, 2)
        ok, cert = is_affine_morphism(GroundSetMap.identity(3), mu, nu)
        assert not ok and cert[0] == "rank-order"
