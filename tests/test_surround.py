"""Surround query parser (queryparser/surround): syntax -> span trees."""

import numpy as np
import pytest

from lucene_7_x_9_x_ray.search import queries as Q
from lucene_7_x_9_x_ray.search.surround import (
    MAX_BASIC_QUERIES,
    SurroundSyntaxError,
    parse_surround,
)


def test_prefix_distance_ops():
    """nW -> ordered SpanNear(slop=n-1); nN -> unordered; default n=1."""
    assert parse_surround("3W(key, hash)") == Q.SpanNearQuery(
        (Q.SpanTermQuery("key"), Q.SpanTermQuery("hash")), slop=2, in_order=True
    )
    assert parse_surround("2n(a, b, c)") == Q.SpanNearQuery(
        (Q.SpanTermQuery("a"), Q.SpanTermQuery("b"), Q.SpanTermQuery("c")),
        slop=1, in_order=False,
    )
    assert parse_surround("W(a, b)").slop == 0


def test_infix_and_nesting_and_case():
    """Infix form is left-associative; distance ops nest; operators are
    case-insensitive; OR inside a distance op becomes SpanOr."""
    q = parse_surround("data 9w join")
    assert q == Q.SpanNearQuery(
        (Q.SpanTermQuery("data"), Q.SpanTermQuery("join")), slop=8, in_order=True
    )
    nest = parse_surround("7W(5w(key, hash), value)")
    assert isinstance(nest.clauses[0], Q.SpanNearQuery)
    assert nest.slop == 6 and nest.clauses[0].slop == 4

    orq = parse_surround("5W(OR(window, stream), batch)")
    assert orq.clauses[0] == Q.SpanOrQuery(
        (Q.SpanTermQuery("window"), Q.SpanTermQuery("stream"))
    )
    # a grouped right operand after an infix distance op
    assert parse_surround("a W (b OR c)") == Q.SpanNearQuery(
        (Q.SpanTermQuery("a"),
         Q.SpanOrQuery((Q.SpanTermQuery("b"), Q.SpanTermQuery("c")))),
        slop=0, in_order=True,
    )
    assert parse_surround("a 3N (b OR c)") == Q.SpanNearQuery(
        (Q.SpanTermQuery("a"),
         Q.SpanOrQuery((Q.SpanTermQuery("b"), Q.SpanTermQuery("c")))),
        slop=2, in_order=False,
    )
    # Terms lowercase like the reference's analyzer pass
    assert parse_surround("KEY w HASH").clauses[0] == Q.SpanTermQuery("key")


def test_boolean_combiners_top_level_only():
    """AND/OR/NOT build boolean trees at the top; inside a distance op
    they raise (distanceSubQueryNotAllowed)."""
    q = parse_surround("key AND hash")
    assert [c.occur for c in q.clauses] == [Q.MUST, Q.MUST]
    q2 = parse_surround("key NOT hash")
    assert [c.occur for c in q2.clauses] == [Q.MUST, Q.MUST_NOT]
    q3 = parse_surround("3W(a, b) OR c")
    assert isinstance(q3.clauses[0].query, Q.SpanNearQuery)

    with pytest.raises(SurroundSyntaxError):
        parse_surround("3W(a AND b, c)")


def test_truncation_expands_against_dictionary():
    """pre* / t?rm expand via the sorted term dict; span context -> SpanOr,
    top level -> SynonymQuery; overflow and missing-dict raise."""
    td = np.asarray(sorted(["key", "keys", "keyed", "hash", "kelp"]), dtype=object)
    q = parse_surround("2W(key*, hash)", td)
    assert q.clauses[0] == Q.SpanOrQuery(
        (Q.SpanTermQuery("key"), Q.SpanTermQuery("keyed"), Q.SpanTermQuery("keys"))
    )
    assert parse_surround("ke?", td) == Q.SynonymQuery(("key",))
    with pytest.raises(SurroundSyntaxError):
        parse_surround("key*")  # no dictionary
    big = np.asarray([f"w{i:05d}" for i in range(MAX_BASIC_QUERIES + 1)], dtype=object)
    with pytest.raises(SurroundSyntaxError):
        parse_surround("w*", big)


def test_syntax_errors():
    for bad in ("3W(a", "a OR", "(a", "a )", "NOT(a)", "W(a)"):
        with pytest.raises(SurroundSyntaxError):
            parse_surround(bad)


def test_surround_fuzz_never_crashes_unexpectedly():
    """Random operator soup either parses to a Query or raises
    SurroundSyntaxError — never any other exception (parser robustness)."""
    import random

    from lucene_7_x_9_x_ray.search.queries import Query

    rng = random.Random(42)
    atoms = ["a", "bb", "W", "N", "3W", "2n", "OR", "AND", "NOT",
             "(", ")", ",", "ke*", "t?m"]
    td = np.asarray(sorted(["key", "keys", "term", "tim"]), dtype=object)
    parsed = 0
    for _ in range(500):
        text = " ".join(rng.choice(atoms) for _ in range(rng.randint(1, 8)))
        try:
            q = parse_surround(text, td)
            assert isinstance(q, Query)
            parsed += 1
        except SurroundSyntaxError:
            pass
    assert parsed > 0  # some random strings are valid queries
