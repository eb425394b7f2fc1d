"""Pivot-column containment and initial-form valuations against the
versions they replaced.

``_contained`` and ``_valuations`` below are the former kernels, kept
verbatim: containment expanded every (s+1)-minor of each stacked image, and
the valuations expanded every maximal minor exactly.  The library must
return the same verdict or valuated matroid, or raise the same exception
class with the same message, on every input.  ``leading_terms_cancel`` is
an independent brute-force check, over permutations, of which minors the
initial forms cannot decide.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

from tropquiver import FieldMatrix, PuiseuxElement, ValuatedMatroid
from tropquiver import puiseux
from tropquiver.errors import CapacityError, NotARealizationError, TropquiverError, UsageError
from tropquiver.puiseux import ZERO, _check_cap, _check_rank, _expand, _image, _minors

from test_minor_reference import combine


def outcome(f, *args):
    """("ok", result) or ("raise", exception class, message)."""
    try:
        return "ok", f(*args)
    except TropquiverError as exc:
        return "raise", type(exc), str(exc)


def _valuations(rows, n_cols, exp_scale, memo=None):
    """pluecker_valuations of rows scaled with exponent scale N: a minor's
    valuation is its least exponent over N.  Its maximal minors come from
    memo, or are expanded there (_minors)."""
    if len(rows) > n_cols:
        raise NotARealizationError("more rows than columns")
    _check_cap(len(rows), n_cols)
    values = {tuple(c + 1 for c in cols): Fraction(min(minor), exp_scale)
              for cols, minor in _minors(rows, n_cols, memo) if minor}
    if not values:
        raise NotARealizationError("matrix is not of full row rank")
    return ValuatedMatroid(n_cols, len(rows), values)


def _contained(a_rows, u_rows, u_memo, v_rows, v_memo):
    """classical_containment on a _scaled_system: A's rows, U and V with
    their minor memos (one memo if U is V).  Each image row goes on top of V's
    rows and the (s+1)-minors are expanded along it with V's memo, whose
    keys of at most s = len(v_rows) columns name V's bottom rows either way,
    so V's minors are expanded once per memo and each (s+1)-minor costs s+1
    products.  The checks run in this order: the cap of U, U's rank, the
    cap of V, V's rank, the cap of the stacked (s+1) x n shape."""
    n_v = len(v_rows[0])
    _check_rank(u_rows, u_memo, "U and V must have full row rank")
    _check_rank(v_rows, v_memo, "U and V must have full row rank")
    _check_cap(len(v_rows) + 1, n_v)
    for row in u_rows:
        stacked = (_image(a_rows, row),) + v_rows
        if any(_expand(stacked, v_memo, cols) for cols in combinations(range(n_v), len(stacked))):
            return False
    return True


def leading_terms_cancel(m, cols):
    """Some term of m's maximal minor on cols is nonzero, and the signed
    products of leading terms that reach the least exponent sum to zero:
    brute force over the permutations of cols."""
    lead = [[None if x.is_zero else x.terms()[0] for x in row] for row in m.rows]
    at = {}
    for perm in permutations(cols):
        entries = [lead[i][j] for i, j in enumerate(perm)]
        if None in entries:
            continue
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        exponent, coeff = sum(e for e, _ in entries), Fraction(sign)
        for _, c in entries:
            coeff *= c
        at[exponent] = at.get(exponent, 0) + coeff
    return bool(at) and at[min(at)] == 0


def cancelling_entry(rng, zero_prob=0.3):
    """Zero, or one or two terms with coefficients +-1 or +-2 and exponents
    in {0, 1/2, 1, 3/2, 2}."""
    if rng.random() < zero_prob:
        return ZERO
    return PuiseuxElement({Fraction(rng.randint(0, 4), 2): rng.choice([-2, -1, 1, 2])
                           for _ in range(rng.randint(1, 2))})


def cancelling_matrix(rng, r, n):
    """An r x n matrix whose later rows often repeat an earlier row's
    leading terms: the earlier row times +-1 or +-2, plus t^(1/2) or t
    times a random row, as (1, 1 + t) repeats (1, 1)."""
    rows = []
    for _ in range(r):
        row = [cancelling_entry(rng) for _ in range(n)]
        if rows and rng.random() < 0.6:
            base = rng.choice(rows)
            lift = PuiseuxElement.monomial(1, rng.choice([Fraction(1, 2), Fraction(1)]))
            row = [rng.choice([-2, -1, 1, 2]) * x + lift * y for x, y in zip(base, row)]
        rows.append(row)
    return FieldMatrix(rows)


def counting_expand(monkeypatch, calls):
    """Patch the library's _expand to record (len(rows), cols) per call."""
    def counted(rows, memo, cols):
        calls.append((len(rows), cols))
        return _expand(rows, memo, cols)

    monkeypatch.setattr(puiseux, "_expand", counted)


def test_valuations_match_reference_and_fall_back_where_leading_terms_cancel(monkeypatch):
    """Random matrices up to the 6 x 8 cap, some past it, some wider than
    tall, many rank-deficient, each with a memo that already holds a random
    share of its exact maximal minors, as the witness check's does.  A
    maximal minor is expanded exactly just when it is not in the memo and
    its leading terms cancel."""
    rng = random.Random(20241101)
    kinds, fallbacks = [], 0
    for k in range(400):
        r = rng.randint(1, 6) if k % 40 else 7
        n = rng.randint(max(r - 1, 1), 8 if k % 5 == 0 else 6)
        m = cancelling_matrix(rng, r, n)
        memo = {(): {0: 1}}
        if r <= n and r <= 6:
            for cols in combinations(range(n), r):
                if rng.random() < 0.3:
                    memo[cols] = _expand(m._at, memo, cols)
        prefilled = {cols for cols in memo if len(cols) == r}
        expected = outcome(_valuations, m._at, n, m._scale, {(): {0: 1}})
        calls = []
        counting_expand(monkeypatch, calls)
        got = outcome(puiseux._valuations, m._at, n, m._scale, memo)
        monkeypatch.setattr(puiseux, "_expand", _expand)
        assert got == expected, m
        if r <= min(n, 6):
            exact = {cols for rows, cols in calls if rows == len(cols) == r}
            assert exact == {cols for cols in combinations(range(n), r)
                             if cols not in prefilled and leading_terms_cancel(m, cols)}, m
            fallbacks += len(exact)
        kinds.append(expected[:2] if expected[0] == "raise" else "ok")
    assert kinds.count("ok") >= 200 and fallbacks >= 100
    assert kinds.count(("raise", NotARealizationError)) >= 50
    assert kinds.count(("raise", CapacityError)) >= 5


def test_cancelling_rows_fall_back_to_the_exact_minor(monkeypatch):
    """Rows (1, 1 + t) over (1, 1): the leading terms of the only minor
    cancel, and its exact expansion gives -t, valuation 1."""
    t = PuiseuxElement.t_power(1)
    m = FieldMatrix([[1, 1 + t], [1, 1]])
    calls = []
    counting_expand(monkeypatch, calls)
    assert puiseux.pluecker_valuations(m) == ValuatedMatroid(2, 2, {(1, 2): 1})
    assert (2, (0, 1)) in calls


def test_containment_matches_reference_with_pivots_off_the_front():
    """Random A, U and V with cancelling entries: images planted inside V
    (accepting), random V (mostly rejecting), U or V rank-deficient, V at
    the 6 x 8 cap (the stacked shape is past it), U equal to V with one
    memo, and V whose first column is zero or whose second column is twice
    its first, with A shaped alike, so that V's pivot columns are not its
    first s."""
    rng = random.Random(20241102)
    verdicts, off_front = [], 0
    for k in range(300):
        n_u, n_v = rng.randint(1, 5), rng.randint(2, 6) if k % 30 else 8
        d, s = rng.randint(1, min(3, n_u)), rng.randint(1, n_v - 1) if k % 30 else 6
        a = [list(row) for row in cancelling_matrix(rng, n_v, n_u).rows]
        u = cancelling_matrix(rng, d, n_u)
        v = [list(row) for row in cancelling_matrix(rng, s, n_v).rows]
        shape = k % 3
        if shape == 1:  # V's first column zero, and every image's
            a[0] = [ZERO] * n_u
        elif shape == 2:  # second column twice the first
            a[1] = [2 * x for x in a[0]]
        if k % 2:
            images = [FieldMatrix(a).matvec(row) for row in u.rows]
            v[:min(d, s)] = [combine(rng, images) for _ in range(min(d, s))]
        for row in v:
            if shape == 1:
                row[0] = ZERO
            elif shape == 2:
                row[1] = 2 * row[0]
        if k % 7 == 3:
            v[-1] = v[0]
        a, v = FieldMatrix(a), FieldMatrix(v)
        _, (a_rows, u_rows, v_rows) = puiseux._scaled_system([a, u, v])
        if k % 11 == 5 and n_u == n_v:
            expected = outcome(_contained, a_rows, v_rows, {(): {0: 1}}, v_rows, {(): {0: 1}})
            one = {(): {0: 1}}
            got = outcome(puiseux._contained, a_rows, v_rows, one, v_rows, one)
        else:
            expected = outcome(_contained, a_rows, u_rows, {(): {0: 1}}, v_rows, {(): {0: 1}})
            got = outcome(puiseux._contained, a_rows, u_rows, {(): {0: 1}}, v_rows, {(): {0: 1}})
        assert got == expected, (a, u, v)
        verdicts.append(expected[1])
        pivot = outcome(_check_rank, v_rows, {(): {0: 1}}, "")
        if got[0] == "ok" and pivot[1] != tuple(range(s)):
            off_front += 1
    assert verdicts.count(True) >= 60 and verdicts.count(False) >= 60
    assert verdicts.count(UsageError) >= 50 and verdicts.count(CapacityError) >= 5
    assert off_front >= 60
