"""An independent checker for the certificates of the membership routes,
of quotient_check, flag_mode_check and is_affine_morphism (morphism-check),
and of tls_membership.

Each certificate is checked against its definition, from raw values:
``ValuatedMatroid.value`` gives a Fraction or None (infinity) per subset,
and the arrow's tropical matrix gives one per entry.  The checker builds
its own cocircuits, circuits, matrix images and affine induced matroids
and calls none of the library's kernels.  Relation certificates are checked on arrows between
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
    ValuatedMatroid,
    flag_mode_check,
    is_affine_morphism,
    pluecker_valuations,
    qdr_cross_check,
    quotient_check,
    tls_membership,
)
from tropquiver.errors import NotARealizationError

from helpers import rand_realization, rand_trop_value, rand_weakly_monomial
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


def induced(f, nu):
    """The affine induced matroid of nu under f, from raw values: nu
    restricted to the image of f1, by deleting the other elements one at a
    time in increasing order (an element every basis contains is a coloop
    and leaves each basis), then each subset B of [n] of the restricted
    rank on which f1 is injective and avoids o, valued at f1(B) plus the
    shifts over B.  Returns (rank, {subset: Fraction})."""
    image = {f.f1[i] for i in range(1, f.n + 1)} - {0}
    table = {b: val(nu, b) for b in combinations(range(1, nu.n + 1), nu.r)}
    table = {b: v for b, v in table.items() if v is not None}
    for e in range(1, nu.n + 1):
        if e not in image:
            avoiding = {b: v for b, v in table.items() if e not in b}
            table = avoiding or {tuple(x for x in b if x != e): v for b, v in table.items()}
    rank = len(next(iter(table)))
    values = {}
    for b in combinations(range(1, f.n + 1), rank):
        targets = [f.f1[i] for i in b]
        if 0 not in targets and len(set(targets)) == rank and tuple(sorted(targets)) in table:
            values[b] = table[tuple(sorted(targets))] + sum(f.f2[i].value for i in b)
    return rank, values


def test_every_morphism_certificate_checks_out():
    """is_affine_morphism(f, mu, nu) asks whether the induced matroid of nu
    is a quotient of mu: the certificate is ("rank-order", rank of the
    induced matroid, rank(mu)) or the least violating exchange triple of
    the pair (induced, mu).  mu is the induced matroid itself, one of its
    perturbations, nu, or a random realizable matroid."""
    rng = random.Random(20261024)
    verdicts = Counter()
    for k in range(600):
        n = rng.randint(2, 5)
        _, nu = rand_realization(rng, rng.randint(1, n), n)
        _, f = rand_weakly_monomial(rng, n)
        rank, values = induced(f, nu)
        if not values:
            continue  # no finite basis: the induced table is no matroid
        own = ValuatedMatroid(n, rank, values)
        mu = [own, _perturbed(rng, own), nu,
              rand_realization(rng, rng.randint(1, n), n)[1]][k % 4]
        ok, cert = is_affine_morphism(f, mu, nu)
        if rank > mu.r:
            assert (ok, cert) == (False, ("rank-order", rank, mu.r)), (f, mu, nu)
            verdicts["rank-order"] += 1
            continue
        least = least_violation(own, mu)
        assert (ok, cert) == (least is None, least), (f, mu, nu)
        if not ok:
            assert violates_exchange(own, mu, *cert), (f, mu, nu, cert)
        verdicts["accepted" if ok else "triple"] += 1
    assert min(verdicts.values()) >= 20 and len(verdicts) == 3, verdicts
