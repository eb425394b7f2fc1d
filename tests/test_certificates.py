"""An independent checker for the certificates of the membership routes,
of quotient_check and flag_mode_check, and of tls_membership.

Each certificate is checked against its definition, from raw values:
``ValuatedMatroid.value`` gives a Fraction or None (infinity) per subset,
and the arrow's tropical matrix gives one per entry.  The checker builds
its own cocircuits, circuits and matrix images and calls none of the
library's kernels.  Relation certificates are checked on arrows between
two distinct vertices, where no two terms of a relation merge.  Exchange
triples, of one matroid or of a pair, are also checked to be the
lexicographically least violation, found by walking every triple.
"""

import random
from collections import Counter
from itertools import combinations

from tropquiver import (
    FieldMatrix,
    TropVector,
    flag_mode_check,
    pluecker_valuations,
    qdr_cross_check,
    quotient_check,
    tls_membership,
)
from tropquiver.errors import NotARealizationError

from helpers import rand_realization, rand_trop_value
from test_exchange_reference import _perturbed
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


def violates_exchange(mu, nu, i_set, j_set, i):
    """Does (I, J, i) break mu(I) + nu(J) >= min over j in J - I of
    mu(I - i + j) + nu(J - j + i)?  With mu = nu this is the exchange axiom
    of one matroid; with rank(mu) <= rank(nu), the quotient condition."""
    lhs = add(val(mu, i_set), val(nu, j_set))
    if lhs is None or i not in i_set or i in j_set:
        return False
    for j in set(j_set) - set(i_set):
        other = add(val(mu, set(i_set) - {i} | {j}), val(nu, set(j_set) - {j} | {i}))
        if other is not None and other <= lhs:
            return False
    return True


def least_violation(mu, nu):
    """The lexicographically least violating (I, J, i), or None, from every
    r-subset I, s-subset J and i in I."""
    ground = range(1, mu.n + 1)
    return next((t for t in ((i_set, j_set, i) for i_set in combinations(ground, mu.r)
                             for j_set in combinations(ground, nu.r) for i in i_set)
                 if violates_exchange(mu, nu, *t)), None)


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
        _, v, triple = cert
        return triple == least_violation(mus[v], mus[v])
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


def flags(rng):
    """Flags of two or three valuated matroids of nested row spans, as
    they are and with one member perturbed (then often not a flag)."""
    out = []
    for k in range(150):
        n = rng.randint(3, 6)
        ranks = sorted(rng.sample(range(1, n), 3 if k % 3 == 0 and n > 3 else 2))
        u, top = rand_realization(rng, ranks[-1], n)
        lows = [FieldMatrix(u.rows[:r]) for r in ranks[:-1]]
        try:
            mus = [pluecker_valuations(m) for m in lows] + [top]
        except NotARealizationError:  # a leading block of u without full row rank
            continue
        out.append(mus)
        bad = list(mus)
        j = rng.randrange(len(bad))
        bad[j] = _perturbed(rng, bad[j])
        out.append(bad)
    return out


def test_every_quotient_and_flag_certificate_checks_out():
    rng = random.Random(20261023)
    verdicts = Counter()
    for mus in flags(rng):
        steps = [least_violation(mu, nu) for mu, nu in zip(mus, mus[1:])]
        for (mu, nu), least in zip(zip(mus, mus[1:]), steps):
            ok, cert = quotient_check(mu, nu)
            assert (ok, cert) == (least is None, least), (mu, nu)
            verdicts["quotient", ok] += 1
        ok, cert = flag_mode_check(mus)
        first = next((k for k, least in enumerate(steps) if least is not None), None)
        assert ok == (first is None), mus
        if not ok:
            k, triple = cert
            assert k == first and violates_exchange(mus[k], mus[k + 1], *triple), (mus, cert)
            assert triple == steps[k]
        verdicts["flag", ok, len(mus)] += 1
    assert min(verdicts.values()) >= 10 and len(verdicts) == 6, verdicts
