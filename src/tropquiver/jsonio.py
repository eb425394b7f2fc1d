"""JSON encodings for every object the CLI reads or writes.

Each input format F is decoded by F_from_json; the CLI names its inputs
by these formats.  Rationals are strings "p/q" (or "p") or integers, and
nothing else; infinity is the string "inf".  A rational string is read as
int(p) over int(q), and matroid values and Puiseux coefficients go to
their objects as Fractions (None for "inf"), without a TropValue or a
coercion in between.
Vectors are arrays, matrices arrays of row arrays.  Puiseux elements are
term lists [{"c": "p/q", "e": "a/b"}, ...]; zero is the empty list.
dump writes a verdict as json.dump(obj, stream, indent=2, sort_keys=True)
does, byte for byte, in a few large writes instead of one per token.
Relations are encoded from quiver's int terms, without a Puiseux or
tropical object: relations_to_json turns each distinct coefficient into
text once, and dump assembles each relation from those texts and from the
texts of its I and J, of each monomial factor and of each classical
coefficient, each rendered once per indent.
"""

from __future__ import annotations

import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string
from math import isinf

from .errors import CapacityError, UsageError
from .matroid import ValuatedMatroid, _fractions
from .morphism import GroundSetMap
from .puiseux import FieldMatrix, PuiseuxElement, _element
from .quiver import QuiverRepresentation, RepArrow
from .trop import INF, TropMatrix, TropValue, TropVector


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _int(x, what):
    if isinstance(x, bool) or not isinstance(x, int):
        raise UsageError("%s must be an integer, got %r" % (what, x))
    return x


def _rational(x, what) -> Fraction:
    """A non-bool integer or a "p" / "p/q" string as a Fraction.  The
    pattern keeps out every other string Fraction would parse, such as
    "1e10000000", whose expansion alone takes seconds."""
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        p, _, q = x.partition("/")
        try:
            return Fraction(int(p), int(q)) if q else Fraction(int(p))
        except (ValueError, ZeroDivisionError) as exc:  # digit limit, q = 0
            raise UsageError("bad rational %r for %s: %s" % (x, what, exc))
    if isinstance(x, bool) or not isinstance(x, int):
        raise UsageError('%s must be an integer or a "p/q" string, got %r' % (what, x))
    return Fraction(x)


def _fields(data, keys, message, *args):
    """data[k] for each of keys, or UsageError(message % args + ": " + why)
    if data is no object or lacks one of them; the message is formatted
    only on that error."""
    try:
        return [data[k] for k in keys]
    except (TypeError, KeyError) as exc:
        raise UsageError("%s: %s" % (message % args, exc))


def rational_to_json(q: Fraction) -> str:
    """"p" or "p/q"; CapacityError past Python's int-to-str digit limit."""
    try:
        return str(q)
    except ValueError as exc:
        raise CapacityError("rational too large to encode: %s" % exc)


def value_to_json(v: TropValue) -> str:
    return "inf" if v.is_inf else rational_to_json(v.value)


def value_from_json(s) -> TropValue:
    return INF if s == "inf" else TropValue(_rational(s, "a tropical value"))


def vector_to_json(v: TropVector):
    return [value_to_json(e) for e in v]


def vector_from_json(data) -> TropVector:
    if not isinstance(data, list) or not data:
        raise UsageError("a vector must be a nonempty array")
    return TropVector([value_from_json(e) for e in data])


def _rows(data):
    if not (isinstance(data, list) and data and all(isinstance(r, list) for r in data)):
        raise UsageError("a matrix must be a nonempty array of row arrays")
    return data


def trop_matrix_from_json(data) -> TropMatrix:
    return TropMatrix([[value_from_json(e) for e in row] for row in _rows(data)])


def matroid_to_json(m: ValuatedMatroid):
    return {
        "n": m.n,
        "r": m.r,
        "values": [[list(b), rational_to_json(x)] for b, x in sorted(_fractions(m).items())],
    }


def matroid_from_json(data) -> ValuatedMatroid:
    n, r, values = _fields(data, ("n", "r", "values"), "matroid object needs n, r, values")
    if not isinstance(values, list):
        raise UsageError("matroid values must be an array")
    table = {}
    for item in values:
        if not isinstance(item, list) or len(item) != 2 or not isinstance(item[0], list):
            raise UsageError("matroid values must be [subset, value] pairs")
        subset = tuple(_int(e, "a subset element") for e in item[0])
        if subset in table:
            raise UsageError("subset %r is listed twice" % (list(subset),))
        value = item[1]
        table[subset] = None if value == "inf" else _rational(value, "a tropical value")
    return ValuatedMatroid(_int(n, "n"), _int(r, "r"), table)


def puiseux_to_json(p: PuiseuxElement):
    return [{"c": rational_to_json(c), "e": rational_to_json(e)} for e, c in p.terms()]


def puiseux_from_json(data) -> PuiseuxElement:
    if not isinstance(data, list):
        # shorthand: a bare rational constant
        return PuiseuxElement.const(_rational(data, "a Puiseux constant"))
    terms = {}
    for t in data:
        c, e = _fields(t, ("c", "e"), "bad Puiseux term %r", t)
        e = _rational(e, "a Puiseux exponent")
        terms[e] = terms.get(e, 0) + _rational(c, "a Puiseux coefficient")
    return _element({e: c for e, c in terms.items() if c})


def field_matrix_to_json(m: FieldMatrix):
    """puiseux_to_json of each entry, from the stored ints without a view."""
    return [[[{"c": rational_to_json(Fraction(c, m._coeff)),
               "e": rational_to_json(Fraction(e, m._scale))} for e, c in sorted(x.items())]
             for x in row] for row in m._at]


def field_matrix_from_json(data) -> FieldMatrix:
    return FieldMatrix([[puiseux_from_json(e) for e in row] for row in _rows(data)])


def map_to_json(f: GroundSetMap):
    entries = []
    for i in range(1, f.n + 1):
        to = "o" if f.f1[i] == 0 else f.f1[i]
        entries.append({"i": i, "to": to, "shift": value_to_json(f.f2[i])})
    return {"n": f.n, "f": entries}


def map_from_json(data) -> GroundSetMap:
    n, entries = _fields(data, ("n", "f"), "map object needs n and f")
    if not isinstance(entries, list):
        raise UsageError("map entries f must be an array")
    assignments = {}
    for entry in entries:
        i, to, shift = _fields(entry, ("i", "to", "shift"), "bad map entry %r", entry)
        if i == "o":  # the origin is implicit, and a map fixes it
            if to != "o" or shift != "inf":
                raise UsageError('the origin maps to itself: its entry needs "to": "o", '
                                 '"shift": "inf", got %r' % (entry,))
            continue
        i = _int(i, "map entry i")
        if i in assignments:
            raise UsageError("map entry i = %d is listed twice" % i)
        assignments[i] = (
            0 if to == "o" else _int(to, "map entry to"), value_from_json(shift)
        )
    return GroundSetMap(_int(n, "n"), assignments)


def representation_from_json(data) -> QuiverRepresentation:
    n, vertices, arrows, dim = _fields(data, ("n", "vertices", "arrows", "dim"),
                                       "quiver object needs n, vertices, arrows, dim")
    if not (isinstance(vertices, list) and all(isinstance(v, str) for v in vertices)
            and isinstance(arrows, list) and isinstance(dim, dict)):
        raise UsageError("quiver vertices must be an array of names, arrows an "
                         "array, dim an object")
    dim = {v: _int(d, "dimension of %r" % (v,)) for v, d in dim.items()}
    rep_arrows = []
    for a in arrows:
        src, dst = _fields(a, ("src", "dst"), "bad arrow %r", a)
        if not (isinstance(src, str) and isinstance(dst, str)):
            raise UsageError("arrow ends must be vertex names, got %r" % (a,))
        field = field_matrix_from_json(a["matrix_field"]) if "matrix_field" in a else None
        trop = trop_matrix_from_json(a["matrix_trop"]) if "matrix_trop" in a else None
        rep_arrows.append(RepArrow(src=src, dst=dst, field=field, trop=trop))
    return QuiverRepresentation(_int(n, "n"), vertices, rep_arrows, dim)


def matroid_tuple_from_json(data):
    if not isinstance(data, dict):
        raise UsageError("a matroid tuple must be an object keyed by vertex")
    return {v: matroid_from_json(m) for v, m in data.items()}


def witness_from_json(data):
    if not isinstance(data, dict):
        raise UsageError("a witness must be an object keyed by vertex")
    return {v: field_matrix_from_json(m) for v, m in data.items()}


def flag_from_json(data):
    if not isinstance(data, list):
        raise UsageError("flag-check expects an array of matroids")
    return [matroid_from_json(m) for m in data]


class _Relation(tuple):
    """A relation as relations_to_json hands it to dump: (kind, where, I, J,
    classical, terms).  kind is a str and I and J are tuples of ints;
    classical is False on the tropical layer, whose classical key is null.
    terms is a tuple of (monomial, (coefficient, value)): the monomial
    ((vertex, subset), (vertex, subset)), each subset a tuple of ints and
    the two vertex names the same in every monomial of the relation; the
    coefficient the texts of a Puiseux coefficient's terms as (c, e) pairs,
    None on the tropical layer; the value the text of the term's tropical
    coefficient.  dump writes it in _write_relation."""

    __slots__ = ()


def _coefficient_texts(c, exp_scale, coeff_scale):
    """The (coefficient, value) texts of _Relation for one int coefficient
    c of quiver._relations: exponents divided by exp_scale, coefficients by
    coeff_scale.  On the tropical layer (coeff_scale None) c is the value
    and there is no coefficient."""
    if coeff_scale is None:
        return None, rational_to_json(Fraction(c, exp_scale))
    coefficient = tuple((rational_to_json(Fraction(k, coeff_scale)),
                         rational_to_json(Fraction(e, exp_scale))) for e, k in c)
    return coefficient, rational_to_json(Fraction(c[0][0], exp_scale))


def relations_to_json(relations):
    """The relations that quiver._kept_relations yields, as _Relation
    objects for dump.  The JSON of each is an object with keys kind, where,
    I, J, classical and tropical; a term of either layer is {"monomial":
    [[vertex, subset], [vertex, subset]], "coeff": ...}, its coeff a Puiseux
    element classically and a rational tropically.  Each distinct int
    coefficient under each pair of scales is rendered once per call."""
    texts = {}  # (exp_scale, coeff_scale) -> {int coefficient: its texts}
    out = []
    for kind, where, i_set, j_set, terms, exp_scale, coeff_scale in relations:
        cache = texts.setdefault((exp_scale, coeff_scale), {})
        rendered = []
        for mono, c in terms:
            text = cache.get(c)
            if text is None:
                text = cache[c] = _coefficient_texts(c, exp_scale, coeff_scale)
            rendered.append((mono, text))
        out.append(_Relation((kind, where, i_set, j_set, coeff_scale is not None,
                              tuple(rendered))))
    return out


def certificate_to_json(cert):
    """A certificate: None, bools, ints and strings as they are, rationals
    and tropical vectors in their encodings, tuples and lists as arrays."""
    if cert is None or isinstance(cert, (bool, int, str)):
        return cert
    if isinstance(cert, Fraction):
        return rational_to_json(cert)
    if isinstance(cert, TropVector):
        return vector_to_json(cert)
    if isinstance(cert, (list, tuple)):
        return [certificate_to_json(x) for x in cert]
    raise TypeError("cannot serialize %r" % (cert,))


_BATCH = 1000  # chunks joined per stream.write


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _text(x, nl, memo) -> str:
    """The text of x on a line whose newline and indent are nl."""
    part = []
    _write(x, nl, part, None, memo)
    return "".join(part)


def _write_relation(x, nl, out, memo) -> None:
    """Append the text of the _Relation x, on a line whose newline and
    indent are nl, to out.  The relation is assembled from the texts of its
    I and J, of its monomials' factors and of its classical coefficients,
    which memo keeps per indent: memo[nl] holds three dicts, subset ->
    text, factor -> text and coefficient -> text.  A part repeats far more
    often than a relation (41 distinct I, 42 distinct J, 56 distinct
    factors and 2 distinct coefficients in the 392 relations of the n = 7
    identity chain).  Monomials are rendered in place where the relation's
    vertex names are not both str, since equal names can render
    differently (1 and True); I and J are tuples of ints."""
    kind, where, i_set, j_set, classical, terms = x
    inner = nl + "  "
    term_nl = inner + "  "
    field_nl = term_nl + "  "  # the line of a term's coeff and monomial
    factor_nl = field_nl + "  "
    parts = memo.get(nl)
    if parts is None:
        parts = memo[nl] = ({}, {}, {})
    subsets, factors, coefficients = parts
    # a term is {"coeff": ..., "monomial": ...}, after "[" or ","; its
    # monomial's text runs from the comma after the coeff to the closing brace
    head = "{" + field_nl + '"coeff": '
    first, comma = "[" + term_nl + head, "," + term_nl + head
    mid, close = "," + field_nl + '"monomial": ', term_nl + "}"
    monomials = []
    if terms:
        (u, _), (w, _) = terms[0][0]
        if type(u) is str and type(w) is str:
            # each factor's text with the newline before it
            for (f, g), _ in terms:
                f_text = factors.get(f)
                if f_text is None:
                    f_text = factors[f] = factor_nl + _text(f, factor_nl, memo)
                g_text = factors.get(g)
                if g_text is None:
                    g_text = factors[g] = factor_nl + _text(g, factor_nl, memo)
                monomials.append("%s[%s,%s%s]%s" % (mid, f_text, g_text, field_nl, close))
        else:
            monomials = [mid + _text(mono, field_nl, memo) + close for mono, _ in terms]
    i_text = subsets.get(i_set)
    if i_text is None:
        i_text = subsets[i_set] = _text(i_set, inner, memo)
    j_text = subsets.get(j_set)
    if j_text is None:
        j_text = subsets[j_set] = _text(j_set, inner, memo)
    out.append("{" + inner + '"I": ' + i_text + "," + inner + '"J": ' + j_text
               + "," + inner + '"classical": ')
    extend = out.extend
    if not classical:
        out.append("null")
    elif not terms:
        out.append("[]")
    else:
        sep = first
        for monomial, (_, (coeff, _)) in zip(monomials, terms):
            text = coefficients.get(coeff)
            if text is None:
                text = coefficients[coeff] = _text([{"c": c, "e": e} for c, e in coeff],
                                                   field_nl, memo)
            extend((sep, text, monomial))
            sep = comma
        out.append(inner + "]")
    out.append("," + inner + '"kind": ' + _string(kind) + "," + inner + '"tropical": ')
    if not terms:
        out.append("[]")
    else:
        sep = first
        for monomial, (_, (_, value)) in zip(monomials, terms):
            extend((sep, _string(value), monomial))
            sep = comma
        out.append(inner + "]")
    out.append("," + inner + '"where": ')
    _write(where, inner, out, None, memo)
    out.append(nl + "}")


def _write(x, nl, out, stream, memo) -> None:
    """Append the text of x to out, x on a line whose newline and indent
    are nl.  With a stream, write out to it and clear it once it holds
    _BATCH chunks; without one (a part of a relation being rendered),
    never.  memo holds the texts of relation parts (_write_relation).  A
    module function, not a closure, so that a call leaves no reference
    cycle behind to hold out and memo until the garbage collector runs."""
    # containers first: the loops below write str and int items inline,
    # so nearly every call is for a container
    if type(x) is _Relation:
        _write_relation(x, nl, out, memo)
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        append = out.append
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(x):  # _string raises TypeError on a non-str key
            item = x[key]
            if type(item) is str:
                append(sep + _string(key) + ": " + _string(item))
            elif type(item) is int:
                append(sep + _string(key) + ": " + int.__repr__(item))
            else:
                append(sep + _string(key) + ": ")
                _write(item, inner, out, stream, memo)
            sep = comma
        append(nl + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        append = out.append
        inner = nl + "  "
        sep, comma = "[" + inner, "," + inner
        for item in x:
            if type(item) is str:
                append(sep + _string(item))
            elif type(item) is int:
                append(sep + int.__repr__(item))
            else:
                append(sep)
                _write(item, inner, out, stream, memo)
            sep = comma
        append(nl + "]")
    elif isinstance(x, str):
        out.append(_string(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, float):
        out.append(_float(x))
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(x).__name__)
    if len(out) >= _BATCH and stream is not None:
        stream.write("".join(out))
        out.clear()


def dump(obj, stream) -> None:
    """Write obj to stream exactly as json.dump(obj, stream, indent=2,
    sort_keys=True) does, without json's generator per nesting level:
    chunks collect in a list, joined and written once that holds _BATCH of
    them and once at the end.  A relation of relations_to_json is written
    from the texts it carries, the text of each of its monomials and
    classical coefficients rendered once per indent and reused at every
    repeat.  obj is built of str, int, float, bool, None, lists, tuples,
    dicts with str keys and those relations; anything else raises
    TypeError."""
    out = []
    _write(obj, "\n", out, stream, {})
    stream.write("".join(out))
