"""The integer containment walk against the TropVector path it replaced.

``containment_check``, ``circuits``, ``cocircuits``, ``tls_membership``
and ``image_equals_induced`` below are the original versions, kept
verbatim together with the helpers they called (``_subset_vectors``,
``_dedupe_projective`` and ``_violated_circuit``): wrapped tropical values,
projective dedupe by ``projective_normalize``, and one ``trop_matvec``
image per cocircuit.  The library must return the identical results: the
same vectors in the same order, the same verdicts, and on a rejection the
same certificate.
"""

import random
from fractions import Fraction
from itertools import combinations

from tropquiver import (
    INF,
    GroundSetMap,
    TropVector,
    ValuatedMatroid,
    circuits as lib_circuits,
    cocircuits as lib_cocircuits,
    containment_check as lib_containment_check,
    image_equals_induced as lib_image_equals_induced,
    tls_membership as lib_tls_membership,
)
from tropquiver.errors import ShapeError
from tropquiver.matroid import check_walk, subset_count
from tropquiver.morphism import affine_induced_unpointed, associated_matrix
from tropquiver.trop import (
    min_attained_twice,
    projective_normalize,
    trop_matvec,
    trop_span_membership,
)

from helpers import rand_trop_value, rand_weakly_monomial
from test_exchange_reference import rand_table
from test_membership_properties import random_loop_instance
from test_qdr_reference import rand_matroid, random_arrow_instance


def _dedupe_projective(vectors):
    """Drop all-infinite vectors and projective duplicates, keeping the
    raw (unnormalized) representatives in a deterministic order."""
    seen = set()
    out = []
    for v in vectors:
        if v.is_all_inf:
            continue
        key = projective_normalize(v)
        if key not in seen:
            seen.add(key)
            out.append(v)
    out.sort(key=lambda v: tuple((e.is_inf, e.value or 0) for e in v))
    return out


def _subset_vectors(m: ValuatedMatroid, size, what, coordinate):
    """One vector per size-subset S of [n], coordinate(S, i) at each i,
    projectively deduplicated."""
    check_walk(what, subset_count(m.n, size))
    ground = range(1, m.n + 1)
    return _dedupe_projective(
        [TropVector(tuple(coordinate(s, i) for i in ground)) for s in combinations(ground, size)]
    )


def circuits(m: ValuatedMatroid):
    """Valuated circuits, projectively deduplicated."""
    return _subset_vectors(m, m.r + 1, "circuit enumeration", lambda big, i: (
        m.value(tuple(e for e in big if e != i)) if i in big else INF))


def cocircuits(m: ValuatedMatroid):
    """Valuated cocircuits, projectively deduplicated."""
    if m.r == 0:
        return []
    return _subset_vectors(m, m.r - 1, "cocircuit enumeration", lambda small, i: (
        INF if i in small else m.value(small + (i,))))


def tls_membership(m: ValuatedMatroid, x: TropVector):
    """Does x lie in the tropical linear space of m?

    Checks the min-attained-twice condition against every circuit;
    returns (bool, violating_circuit_or_None).
    """
    if len(x) != m.n:
        raise ShapeError("point has length %d, ground set has size %d" % (len(x), m.n))
    circ = _violated_circuit(circuits(m), x)
    return circ is None, circ


def _violated_circuit(circs, x):
    """The first of the precomputed circuits whose min-attained-twice
    condition the point x breaks, or None."""
    for c in circs:
        if not min_attained_twice([ci + xi for ci, xi in zip(c, x)]):
            return c
    return None


def containment_check(a, mu: ValuatedMatroid, nu: ValuatedMatroid):
    """Is val(A) (.) trop(mu) contained in trop(nu)?

    The image is tropically generated by the images of mu's cocircuits, so
    it suffices to test each image against nu's circuits.  Returns
    (bool, (cocircuit, violating_circuit) or None).
    """
    if mu.n != nu.n:
        raise ShapeError("matroids live on different ground sets")
    if a.n_rows != nu.n or a.n_cols != mu.n:
        raise ShapeError("matrix shape does not match the ground sets")
    check_walk("containment check",
               subset_count(mu.n, mu.r - 1) * subset_count(nu.n, nu.r + 1),
               "(cocircuit, circuit) pairs")
    circs = circuits(nu)
    for c_star in cocircuits(mu):
        circ = _violated_circuit(circs, trop_matvec(a, c_star))
        if circ is not None:
            return False, (c_star, circ)
    return True, None


def image_equals_induced(f: GroundSetMap, mu: ValuatedMatroid):
    """Verify trop(f^{-1}(mu)) = val(A_f) (.) trop(mu) by generators:
    every cocircuit of the induced matroid must lie in the tropical span
    of the matrix images of mu's cocircuits, and every such image must
    satisfy the circuit conditions of the induced matroid."""
    _, a_trop = associated_matrix(f)
    ind = affine_induced_unpointed(mu, f)
    images = [trop_matvec(a_trop, c) for c in cocircuits(mu)]
    usable = [y for y in images if not y.is_all_inf]
    for c in cocircuits(ind):
        if not usable:
            return False, ("no-generators", c)
        ok, _, coord = trop_span_membership(usable, c, projective=True)
        if not ok:
            return False, ("span", c, coord)
    circs = circuits(ind)
    for y in images:
        circ = _violated_circuit(circs, y)
        if circ is not None:
            return False, ("circuit", y, circ)
    return True, None


def test_containment_matches_reference():
    rng = random.Random(20231217)
    instances = [random_arrow_instance(rng, k) for k in range(700)]
    instances += [random_loop_instance(rng, k) for k in range(600)]
    rejected = 0
    for rep, mus in instances:
        arrow = rep.arrows[0]
        args = rep.trop_matrix(0), mus[arrow.src], mus[arrow.dst]
        expected = containment_check(*args)
        assert lib_containment_check(*args) == expected, (rep.arrows, mus)
        rejected += not expected[0]
    assert rejected >= 200, rejected


def test_circuits_and_cocircuits_match_reference():
    rng = random.Random(20231218)
    for k in range(400):
        n = rng.randint(1, 5)
        m = rand_matroid(rng, rng.randint(1, n), n)
        assert lib_circuits(m) == circuits(m), m
        assert lib_cocircuits(m) == cocircuits(m), m
    rank0 = ValuatedMatroid(3, 0, {(): Fraction(-1, 3)})
    assert lib_circuits(rank0) == circuits(rank0)
    assert lib_cocircuits(rank0) == cocircuits(rank0) == []


def test_tls_membership_matches_reference():
    rng = random.Random(20231219)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        m = rand_matroid(rng, rng.randint(1, n), n)
        points = [TropVector([rand_trop_value(rng) for _ in range(n)]) for _ in range(4)]
        points.append(TropVector([INF] * n))
        for x in points + cocircuits(m):
            expected = tls_membership(m, x)
            assert lib_tls_membership(m, x) == expected, (m, x)
            verdicts.add(expected[0])
    assert verdicts == {True, False}


def test_image_equals_induced_matches_reference():
    # random tables, many of them not valuated matroids, so that images
    # escape the induced matroid's circuits
    rng = random.Random(20231220)
    kinds = set()
    for _ in range(600):
        n = rng.randint(2, 5)
        _, f = rand_weakly_monomial(rng, n)
        mu = rand_table(rng, n, rng.randint(1, n))
        expected = image_equals_induced(f, mu)
        assert lib_image_equals_induced(f, mu) == expected, (f, mu)
        kinds.add(expected[1] and expected[1][0])
    assert kinds == {None, "circuit"}, kinds
