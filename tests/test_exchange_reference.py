"""The exchange kernel against the plain four-level loop it replaced.

``reference_violation`` walks every pair of r-subsets (finite or not) with
wrapped tropical values, exactly as the original ``is_valuated_matroid`` and
``quotient_check`` did.  The library's kernel must return the same verdict
and the same witness on every table.
"""

import random
from fractions import Fraction
from itertools import combinations

from tropquiver import (
    ValuatedMatroid,
    is_valuated_matroid,
    quotient_check,
    uniform_matroid,
)


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
