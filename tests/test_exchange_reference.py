"""The exchange check against the walks it replaced.

``reference_violation`` walks every pair of r-subsets (finite or not) with
wrapped tropical values, exactly as the original ``is_valuated_matroid`` and
``quotient_check`` did.  ``_exchange_violation`` below is the previous
kernel, kept verbatim: it walks pairs of finite bases only and decided
every table, where the library now lets the relation walk decide whenever
the relation pairs are fewer than the pairs of bases.  The library must
return the same verdict and the same witness on every table.
"""

import random
from fractions import Fraction
from itertools import combinations

from tropquiver import (
    FieldMatrix,
    ValuatedMatroid,
    is_valuated_matroid,
    pluecker_valuations,
    quotient_check,
    uniform_matroid,
)
from tropquiver.matroid import _int_tables, _mask, check_walk, subset_count
from tropquiver.puiseux import rank_via_minors

from helpers import rand_realization


def _swap(subset, out, into):
    return tuple(sorted([e for e in subset if e != out] + [into]))


def reference_violation(mu, nu):
    """(True, None) or (False, least violating (I, J, i)), by brute force."""
    for i_set in mu.subsets():
        mi = mu.value(i_set)
        for j_set in nu.subsets():
            lhs = mi + nu.value(j_set)
            if lhs.is_inf:
                continue
            only_i = [e for e in i_set if e not in j_set]
            only_j = [e for e in j_set if e not in i_set]
            for i in only_i:
                ok = False
                for j in only_j:
                    rhs = mu.value(_swap(i_set, i, j)) + nu.value(_swap(j_set, j, i))
                    if lhs >= rhs:
                        ok = True
                        break
                if not ok:
                    return False, (i_set, j_set, i)
    return True, None


def rand_table(rng, n, r):
    """A random rank-r table on [n]: partial support, signed, non-integer,
    given in shuffled order."""
    subsets = list(combinations(range(1, n + 1), r))
    rng.shuffle(subsets)
    density = rng.choice([0.3, 0.6, 0.9, 1.0])
    table = {
        b: Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6]))
        for b in subsets
        if rng.random() < density
    }
    if not table:
        table[rng.choice(subsets)] = Fraction(rng.randint(-6, 6), rng.choice([1, 5]))
    return ValuatedMatroid(n, r, table)


def test_kernel_matches_reference_on_random_tables():
    rng = random.Random(20231130)
    verdicts = []
    for k in range(300):
        if k % 10 < 2:
            n = rng.randint(1, 6)
            r = 0 if k % 10 == 0 else n
        else:
            n = rng.randint(3, 6)
            r = rng.randint(1, n - 1)
        m = rand_table(rng, n, r)
        expected = reference_violation(m, m)
        assert is_valuated_matroid(m) == expected, m
        assert quotient_check(m, m) == expected, m
        verdicts.append(expected[0])
    assert 30 <= verdicts.count(False) <= 270


def test_quotient_matches_reference_on_random_pairs():
    rng = random.Random(20231201)
    verdicts = []
    for _ in range(200):
        n = rng.randint(2, 6)
        r = rng.randint(0, n - 1)
        s = rng.randint(r + 1, n)
        mu, nu = rand_table(rng, n, r), rand_table(rng, n, s)
        expected = reference_violation(mu, nu)
        assert quotient_check(mu, nu) == expected, (mu, nu)
        verdicts.append(expected[0])
    assert 20 <= verdicts.count(False) <= 180


def test_kernel_matches_reference_on_fixed_witnesses():
    bad = ValuatedMatroid(4, 2, {(1, 2): 0, (3, 4): 0})
    assert is_valuated_matroid(bad) == reference_violation(bad, bad)
    assert is_valuated_matroid(bad) == (False, ((1, 2), (3, 4), 1))
    mu = ValuatedMatroid(3, 1, {(1,): 0})
    nu = ValuatedMatroid(3, 2, {(2, 3): 0})
    expected = (False, ((1,), (2, 3), 1))
    assert quotient_check(mu, nu) == reference_violation(mu, nu) == expected
    for m in (uniform_matroid(4, 2), ValuatedMatroid(3, 0, {(): Fraction(-1, 3)})):
        assert is_valuated_matroid(m) == reference_violation(m, m) == (True, None)


def _exchange_violation(mu: ValuatedMatroid, nu: ValuatedMatroid):
    """The lexicographically least (I, J, i) with i in I - J and
    mu(I) + nu(J) < mu(I - i + j) + nu(J - j + i) for every j in J - I, or
    None.  Walks only pairs of finite bases (an infinite left-hand side
    never violates), in sorted order, which is the order of combinations;
    the pairs are counted against WALK_CAP first.
    """
    check_walk("exchange check", len(mu.bases()) * len(nu.bases()), "pairs of bases")
    _, (mu_at, nu_at) = _int_tables((mu, nu))
    left, right = ([(b, _mask(b), at[_mask(b)]) for b in sorted(m.bases())]
                   for m, at in ((mu, mu_at), (nu, nu_at)))
    for i_set, i_mask, x in left:
        for j_set, j_mask, y in right:
            lhs = x + y
            only_j = [1 << j for j in j_set if not i_mask >> j & 1]
            for i in i_set:
                bit_i = 1 << i
                if j_mask & bit_i:
                    continue
                for bit_j in only_j:
                    a = mu_at.get(i_mask ^ bit_i | bit_j)
                    if a is not None:
                        b = nu_at.get(j_mask ^ bit_j | bit_i)
                        if b is not None and a + b <= lhs:
                            break
                else:
                    return i_set, j_set, i
    return None


def _perturbed(rng, m):
    """m with one finite value moved by -2..2 and, at random, one basis
    dropped: mostly no longer a valuated matroid."""
    table = {b: v.value for b, v in m.table().items()}
    b = rng.choice(sorted(table))
    table[b] += rng.choice([-2, -1, 1, 2])
    if len(table) > 1 and rng.random() < 0.5:
        del table[rng.choice(sorted(table))]
    return ValuatedMatroid(m.n, m.r, table)


def _sparse(rng, n, r):
    """A handful of random r-subsets of [n] with random values."""
    subsets = set()
    while len(subsets) < rng.randint(1, 8):
        subsets.add(tuple(sorted(rng.sample(range(1, n + 1), r))))
    return ValuatedMatroid(n, r, {b: rng.randint(-3, 3) for b in subsets})


def _flag(rng, n, r, s):
    """(mu, nu) of the first r rows and all s rows of a random full-rank
    s x n matrix: a quotient, since the row spans are nested."""
    u, nu = rand_realization(rng, s, n)
    low = FieldMatrix(u.rows[:r])
    if rank_via_minors(low) != r:
        return None
    return pluecker_valuations(low), nu


def _pairs(rng):
    """(mu, nu) with rank(mu) <= rank(nu): mu is nu for the exchange axiom."""
    out = []
    for _ in range(40):  # rank 0 and rank n, paired with anything
        n = rng.randint(1, 6)
        r = rng.randint(0, n)
        top = rand_table(rng, n, n)
        bottom = rand_table(rng, n, 0)
        m = rand_table(rng, n, r)
        out += [(top, top), (bottom, bottom), (bottom, m), (m, top)]
    for _ in range(120):  # non-matroid supports
        n = rng.randint(2, 7)
        r = rng.randint(1, n - 1)
        m = rand_table(rng, n, r)
        out.append((m, m))
        out.append((rand_table(rng, n, rng.randint(0, r)), m))
    for _ in range(60):  # dense: valuated matroids, perturbed and nested
        n = rng.randint(4, 7)
        r = rng.randint(1, n - 2)
        s = rng.randint(r + 1, n - 1)
        pair = _flag(rng, n, r, s)
        if pair is None:
            continue
        mu, nu = pair
        out += [(mu, mu), (nu, nu), (mu, nu)]
        out += [(_perturbed(rng, mu), nu), (mu, _perturbed(rng, nu))]
        out.append((_perturbed(rng, nu),) * 2)
    for _ in range(60):  # sparse on a large ground set
        n = rng.randint(9, 12)
        r = rng.randint(2, n - 2)
        m = _sparse(rng, n, r)
        out.append((m, m))
        out.append((_sparse(rng, n, rng.randint(1, r)), m))
    return out


def test_library_matches_the_base_walk_on_both_branches():
    rng = random.Random(20261019)
    # (which walk decides, verdict) -> count
    seen = {}
    for mu, nu in _pairs(rng):
        witness = _exchange_violation(mu, nu)
        expected = (witness is None, witness)
        assert quotient_check(mu, nu) == expected, (mu, nu)
        if mu is nu:
            assert is_valuated_matroid(mu) == expected, mu
        relations = subset_count(mu.n, mu.r - 1) * subset_count(nu.n, nu.r + 1)
        branch = "relations" if relations < len(mu.bases()) * len(nu.bases()) else "bases"
        seen[branch, expected[0]] = seen.get((branch, expected[0]), 0) + 1
    for key in [(b, v) for b in ("relations", "bases") for v in (True, False)]:
        assert seen.get(key, 0) >= 20, seen
