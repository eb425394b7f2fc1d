"""An independent checker for the certificates of the membership routes
and of tls_membership.

Each certificate is checked against its definition, from raw values:
``ValuatedMatroid.value`` gives a Fraction or None (infinity) per subset,
and the arrow's tropical matrix gives one per entry.  The checker builds
its own cocircuits, circuits and matrix images and calls none of the
library's kernels.  Relation certificates are checked on arrows between
two distinct vertices, where no two terms of a relation merge.
"""

import random
from collections import Counter
from itertools import combinations

from tropquiver import TropVector, qdr_cross_check, tls_membership

from helpers import rand_trop_value
from test_membership_properties import random_loop_instance
from test_qdr_reference import perturbed_chain_instance, rand_matroid, random_arrow_instance


def val(m, subset):
    return m.value(subset).value


def unique_minimum(terms):
    """Is the minimum of the finite terms finite and attained once?"""
    finite = [x for x in terms if x is not None]
    return bool(finite) and finite.count(min(finite)) == 1


def add(*xs):
    return None if None in xs else sum(xs)


def violates_exchange(m, i_set, j_set, i):
    """Does (I, J, i) break m(I) + m(J) >= min over j in J - I of
    m(I - i + j) + m(J - j + i)?"""
    lhs = add(val(m, i_set), val(m, j_set))
    if lhs is None or i not in i_set or i in j_set:
        return False
    for j in set(j_set) - set(i_set):
        other = add(val(m, set(i_set) - {i} | {j}), val(m, set(j_set) - {j} | {i}))
        if other is not None and other <= lhs:
            return False
    return True


def relation_has_unique_minimum(a, mu, nu, i_set, j_set):
    """The terms val(A_ij) + mu(I+j) + nu(J-i) for j not in I and i in J."""
    n = len(a.rows)
    return unique_minimum([
        add(a.entry(i - 1, j - 1).value, val(mu, i_set + (j,)),
            val(nu, [e for e in j_set if e != i]))
        for j in range(1, n + 1) if j not in i_set for i in j_set
    ])


def projectively_equal(x, y):
    """Same infinite coordinates, and one common difference on the finite
    ones (of which there is at least one)."""
    if [e is None for e in x] != [e is None for e in y]:
        return False
    return len({p - q for p, q in zip(x, y) if p is not None}) == 1


def cocircuit_vectors(m):
    ground = range(1, m.n + 1)
    return [[None if j in s else val(m, s + (j,)) for j in ground]
            for s in combinations(ground, m.r - 1)]


def circuit_vectors(m):
    ground = range(1, m.n + 1)
    return [[val(m, [e for e in s if e != i]) if i in s else None for i in ground]
            for s in combinations(ground, m.r + 1)]


def containment_escapes(a, mu, nu, c_star, circ):
    """c* is a cocircuit of mu and C a circuit of nu, projectively, and
    C_i + (val(A) (.) c*)_i has a unique finite minimum."""
    c_star, circ = [e.value for e in c_star], [e.value for e in circ]
    if not any(projectively_equal(c_star, c) for c in cocircuit_vectors(mu)):
        return False
    if not any(projectively_equal(circ, c) for c in circuit_vectors(nu)):
        return False
    image = []
    for row in a.rows:
        finite = [p for p in (add(e.value, x) for e, x in zip(row, c_star)) if p is not None]
        image.append(min(finite) if finite else None)
    return unique_minimum([add(c, y) for c, y in zip(circ, image)])


def certificate_holds(rep, mus, cert):
    kind = cert[0]
    if kind == "matroid":
        _, v, (i_set, j_set, i) = cert
        return violates_exchange(mus[v], i_set, j_set, i)
    arrow = rep.arrows[cert[1]]
    a, mu, nu = rep.trop_matrix(cert[1]), mus[arrow.src], mus[arrow.dst]
    if kind == "relation":
        _, _, i_set, j_set = cert
        return relation_has_unique_minimum(a, mu, nu, i_set, j_set)
    assert kind == "containment"
    return containment_escapes(a, mu, nu, *cert[2])


def test_every_certificate_checks_out():
    rng = random.Random(20231216)
    # one arrow u -> w, or (one time in four) an identity chain with a
    # perturbed value, which breaks the exchange axiom or the arrow stage
    instances = [perturbed_chain_instance(rng) if k % 4 == 3 else random_arrow_instance(rng, k)
                 for k in range(600)]
    instances += [random_loop_instance(rng, k) for k in range(600)]
    kinds = Counter()
    for rep, mus in instances:
        for ok, cert in qdr_cross_check(rep, mus):
            if ok:
                assert cert is None
                continue
            if cert[0] == "relation" and rep.arrows[cert[1]].src == rep.arrows[cert[1]].dst:
                continue  # a loop's terms merge by monomial first
            kinds[cert[0]] += 1
            assert certificate_holds(rep, mus, cert), (rep.arrows, mus, cert)
    assert set(kinds) == {"matroid", "relation", "containment"}, kinds


def test_every_tls_membership_certificate_checks_out():
    rng = random.Random(20231221)
    rejected = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        m = rand_matroid(rng, rng.randint(1, n), n)
        x = TropVector([rand_trop_value(rng) for _ in range(n)])
        ok, circ = tls_membership(m, x)
        if ok:
            assert circ is None
            continue
        rejected += 1
        circ, point = [e.value for e in circ], [e.value for e in x]
        assert any(projectively_equal(circ, c) for c in circuit_vectors(m)), (m, x, circ)
        assert unique_minimum([add(c, p) for c, p in zip(circ, point)]), (m, x, circ)
    assert rejected >= 50, rejected
