"""Seeded instance generators and fixture encoders owned by the benchmark.

Everything here is driven by one ``random.Random``, so a seed fixes every
input.  The generators build library objects (``FieldMatrix``, Plücker
valuations) and, next to them, plain tables ``{subset: Fraction}`` that the
benchmark's own checks read without going through the library.  The test
suite's helpers are deliberately not imported: editing a test must not
shift a workload.

Every construction below carries its expected verdict by a mathematical
argument, never by asking the library first:

* row spans nested by integer row combinations give a flag of valuated
  matroids, so every chain instance is accepted by all three routes;
* lowering one basis value by ``DROP`` (far beyond the spread of the
  valuations of these small minors) breaks the exchange axiom for a chosen
  partner basis, see :func:`lowered`;
* a witness whose target matrix has a zero column where ``A·U`` does not
  cannot contain ``A·U`` (certificate ``subrepresentation``);
* a witness whose source matrix has a zero column that ``U`` lacks has a
  loop the claimed matroid lacks (certificate ``valuation-mismatch``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from tropquiver.puiseux import FieldMatrix, PuiseuxElement, pluecker_valuations, rank_via_minors

DROP = Fraction(1000)
ZERO = PuiseuxElement()


def rand_element(rng):
    """A nonzero Puiseux polynomial with one or two terms, exponents 0..2."""
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, 2)):
            c = rng.randint(-3, 3)
            if c:
                terms[Fraction(rng.randint(0, 2))] = Fraction(c)
    return PuiseuxElement(terms)


def rand_binomial(rng):
    """c1 * t^e1 + c2 * t^e2 with distinct exponents in 0..2: entries of one
    size keep the cost of each determinant alike across seeds."""
    e1, e2 = rng.sample(range(3), 2)
    return PuiseuxElement({e1: rng.choice([-3, -2, -1, 1, 2, 3]), e2: rng.choice([-3, -2, -1, 1, 2, 3])})


def rand_monomial(rng):
    """c * t^e with c in +-{1, 2, 3} and e in 0..4: minors of such matrices
    take many distinct valuations."""
    return PuiseuxElement.monomial(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(0, 4))


def rand_matrix(rng, rows, cols, entry=rand_element):
    return FieldMatrix([[entry(rng) for _ in range(cols)] for _ in range(rows)])


def full_rank_matrix(rng, rows, cols, entry):
    """A dense random matrix of full row rank (resampled until it is)."""
    while True:
        m = rand_matrix(rng, rows, cols, entry)
        if rank_via_minors(m) == rows:
            return m


def combine_rows(rng, m, k):
    """k random integer combinations of the rows of m."""
    rows = []
    for _ in range(k):
        coeffs = [rng.randint(-3, 3) for _ in range(m.n_rows)]
        rows.append([
            sum((m.entry(i, j) * coeffs[i] for i in range(m.n_rows)), ZERO)
            for j in range(m.n_cols)
        ])
    return FieldMatrix(rows)


def nested_realizations(rng, n, ranks):
    """Full-rank matrices U_1, ..., U_k with rowspan(U_a) inside
    rowspan(U_{a+1}) and U_a of rank ranks[a].  The top matrix has
    monomial entries, so the valuated matroids have spread-out values and
    the exchange loops do similar work on every seed."""
    mats = [full_rank_matrix(rng, ranks[-1], n, rand_monomial)]
    for r in reversed(ranks[:-1]):
        while True:
            low = combine_rows(rng, mats[0], r)
            if rank_via_minors(low) == r:
                break
        mats.insert(0, low)
    return mats


def nested_matroids(rng, n, ranks):
    return [pluecker_valuations(m) for m in nested_realizations(rng, n, ranks)]


def table(m):
    """Finite basis values of a ValuatedMatroid as {subset: Fraction}."""
    return {b: v.value for b, v in m.table().items()}


def lowered(values, above=None):
    """Copy of ``values`` with one basis B lowered by DROP.

    B is chosen so that the lowered table breaks its own exchange axiom:
    some basis J of ``values`` has |J \\ B| >= 2, so no exchange from
    (B, J) leads back to B.  Given ``above``, the table of a higher-rank
    matroid, B must also miss some basis K of it; every exchange from
    (B, K) then leaves B, and the lowered table fails as a quotient of
    ``above`` too.  In each case the left-hand side drops by DROP while no
    right-hand side moves.  Raises ValueError when no basis qualifies.
    """
    for b in sorted(values):
        if not any(len(set(j) - set(b)) >= 2 for j in values):
            continue
        if above is not None and all(set(b) <= set(k) for k in above):
            continue
        out = dict(values)
        out[b] -= DROP
        return out
    raise ValueError("no basis admits a certain exchange violation")


def monomial_map(rng, n, zero_rows):
    """A random weakly monomial n x n matrix with monomial entries c*t^e.

    Without ``zero_rows`` the support is a permutation, so the map is a
    bijection with finite shifts.  Returns (matrix, targets, shifts) with
    targets[i-1] = f1(i) (0 for the origin) and shifts[i-1] = f2(i).
    """
    perm = list(range(n))
    rng.shuffle(perm)
    rows, targets, shifts = [], [], []
    for i in range(n):
        row = [ZERO] * n
        if zero_rows and rng.random() < 0.2:
            targets.append(0)
            shifts.append(None)
        else:
            j = rng.randrange(n) if zero_rows else perm[i]
            e = Fraction(rng.randint(0, 3))
            row[j] = PuiseuxElement.monomial(rng.choice([-2, -1, 1, 2, 3]), e)
            targets.append(j + 1)
            shifts.append(e)
        rows.append(row)
    return FieldMatrix(rows), targets, shifts


def induced_by_bijection(values, r, n, targets, shifts):
    """Unpointed affine induced table of a bijective map with finite
    shifts: B is valued nu(f1(B)) plus the shifts over B."""
    out = {}
    for b in combinations(range(1, n + 1), r):
        image = tuple(sorted(targets[i - 1] for i in b))
        if image in values:
            out[b] = values[image] + sum(shifts[i - 1] for i in b)
    return out


def witness_instance(rng, n, r, s):
    """Random arrow A (n x n), U full rank r x n, and V = A·U stacked with
    s - r random rows, resampled until V has full row rank.  (U, V) is a
    genuine subrepresentation."""
    while True:
        a = rand_matrix(rng, n, n)
        u = full_rank_matrix(rng, r, n, rand_binomial)
        image = [a.matvec(row) for row in u.rows]
        v = FieldMatrix(image + list(rand_matrix(rng, s - r, n, rand_binomial).rows))
        if rank_via_minors(v) == s:
            return a, u, v


def zero_column(m, j):
    return FieldMatrix([[ZERO if k == j else e for k, e in enumerate(row)] for row in m.rows])


def broken_target(rng, a, u, v):
    """V with one column zeroed where A·U has a nonzero entry; the result
    still has full row rank but cannot contain A·U."""
    image = [a.matvec(row) for row in u.rows]
    cols = [j for j in range(v.n_cols) if any(not row[j].is_zero for row in image)]
    rng.shuffle(cols)
    for j in cols:
        bad = zero_column(v, j)
        if rank_via_minors(bad) == v.n_rows:
            return bad
    return None


def looped_source(rng, a, u, s):
    """A genuine subrepresentation (U2, V2) where U2 is U with one column
    zeroed (a loop that U lacks, since U is dense), or None."""
    cols = list(range(u.n_cols))
    rng.shuffle(cols)
    for j in cols:
        u2 = zero_column(u, j)
        if rank_via_minors(u2) != u.n_rows:
            continue
        image = [a.matvec(row) for row in u2.rows]
        v2 = FieldMatrix(image + list(rand_matrix(rng, s - u.n_rows, u.n_cols, rand_binomial).rows))
        if rank_via_minors(v2) == s:
            return u2, v2
    return None


# --- JSON encoders, following the formats documented in the README ---------

def enc_value(v):
    return "inf" if v is None else str(v)


def enc_matroid(n, r, values):
    return {"n": n, "r": r,
            "values": [[list(b), enc_value(v)] for b, v in sorted(values.items())]}


def enc_element(p):
    return [{"c": str(c), "e": str(e)} for e, c in p.terms()]


def enc_field(m):
    return [[enc_element(e) for e in row] for row in m.rows]


def enc_quiver(n, vertices, arrows, dim):
    """arrows: (src, dst, FieldMatrix) triples."""
    return {
        "n": n,
        "vertices": list(vertices),
        "arrows": [{"src": s, "dst": d, "matrix_field": enc_field(m)} for s, d, m in arrows],
        "dim": dict(dim),
    }


def enc_map(targets, shifts):
    return {"n": len(targets), "f": [
        {"i": i, "to": "o" if t == 0 else t, "shift": enc_value(s)}
        for i, (t, s) in enumerate(zip(targets, shifts), start=1)
    ]}


def enc_trop_identity(n):
    return [["0" if i == j else "inf" for j in range(n)] for i in range(n)]
