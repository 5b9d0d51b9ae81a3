"""Surround query parser: the span-query syntax.

Re-creates the org.apache.lucene.queryparser.surround surface (s84
queryparser/src/java/org/apache/lucene/queryparser/surround/parser/
QueryParser.jj + query/DistanceQuery.java): a query language whose
operators translate to span queries —

  3W(a, b)        ordered within distance 3   -> SpanNear(slop=2, in_order)
  2N(a, b)        unordered within distance 2 -> SpanNear(slop=1, unordered)
  a W b, a 3W b   infix form (default distance 1 = adjacent)
  OR(a, b) / a OR b     disjunction (SpanOr inside a distance op)
  AND / NOT             boolean combiners (top level only)
  pre*, t?rm            truncation, expanded against the term dictionary
                        (SrndTruncQuery; maxBasicQueries guard)

Operators are case-insensitive (W(a,b) == w(a,b)), infix distance ops are
left-associative and bind tighter than AND/OR/NOT, and parentheses group.
As in the reference, distance operands must be span-expressible: AND/NOT
inside W/N raises (DistanceQuery.distanceSubQueryNotAllowed), while OR and
nested distance ops nest freely.

Translation differences from the reference are scope, not semantics: the
reference rewrites truncations lazily per segment; here the caller passes
the merged dictionary (searcher.term_dict_union()) and expansion happens
at parse time with the same maxBasicQueries=1024 overflow guard.
"""

from __future__ import annotations

import re

import numpy as np

from . import queries as Q

MAX_BASIC_QUERIES = 1024  # surround BasicQueryFactory default

_TOKEN_RE = re.compile(r"\s*(\(|\)|,|[^\s(),]+)")
_DIST_OP_RE = re.compile(r"^(\d*)([wn])$", re.IGNORECASE)


class SurroundSyntaxError(ValueError):
    pass


def _tokenize(text: str) -> list[str]:
    out, i = [], 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            break
        out.append(m.group(1))
        i = m.end()
    return out


# --- AST ---------------------------------------------------------------


class _Node:
    pass


class _Term(_Node):
    def __init__(self, text: str):
        self.text = text
        self.truncated = "*" in text or "?" in text


class _Op(_Node):
    def __init__(self, kind: str, children: list[_Node], distance: int = 0):
        self.kind = kind  # "and" | "or" | "not" | "w" | "n"
        self.children = children
        self.distance = distance


class _Parser:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise SurroundSyntaxError("unexpected end of query")
        self.i += 1
        return tok

    # grammar: or_expr := and_expr (OR and_expr)*
    #          and_expr := not_expr (AND not_expr)*
    #          not_expr := dist_expr (NOT dist_expr)*
    #          dist_expr := primary ((nW|nN) primary)*
    def parse(self) -> _Node:
        node = self.or_expr()
        if self.peek() is not None:
            raise SurroundSyntaxError(f"trailing input at {self.peek()!r}")
        return node

    def or_expr(self) -> _Node:
        parts = [self.and_expr()]
        while (p := self.peek()) is not None and p.upper() == "OR":
            self.next()
            parts.append(self.and_expr())
        return parts[0] if len(parts) == 1 else _Op("or", parts)

    def and_expr(self) -> _Node:
        parts = [self.not_expr()]
        while (p := self.peek()) is not None and p.upper() == "AND":
            self.next()
            parts.append(self.not_expr())
        return parts[0] if len(parts) == 1 else _Op("and", parts)

    def not_expr(self) -> _Node:
        node = self.dist_expr()
        while (p := self.peek()) is not None and p.upper() == "NOT":
            self.next()
            node = _Op("not", [node, self.dist_expr()])
        return node

    def dist_expr(self) -> _Node:
        node = self.primary()
        # after a primary a distance operator is always infix, also when
        # its right operand is a group: "a W (b OR c)"
        while (p := self.peek()) is not None and _DIST_OP_RE.match(p):
            m = _DIST_OP_RE.match(self.next())
            dist = int(m.group(1) or 1)
            node = _Op(m.group(2).lower(), [node, self.primary()], dist)
        return node

    def primary(self) -> _Node:
        tok = self.next()
        if tok == "(":
            node = self.or_expr()
            if self.next() != ")":
                raise SurroundSyntaxError("expected ')'")
            return node
        up = tok.upper()
        if self.peek() == "(" and (up in ("OR", "AND", "NOT") or _DIST_OP_RE.match(tok)):
            self.next()  # consume '('
            args = [self.or_expr()]
            while self.peek() == ",":
                self.next()
                args.append(self.or_expr())
            if self.next() != ")":
                raise SurroundSyntaxError("expected ')'")
            if up == "OR":
                return _Op("or", args)
            if up == "AND":
                return _Op("and", args)
            if up == "NOT":
                if len(args) != 2:
                    raise SurroundSyntaxError("NOT(a, b) takes two operands")
                return _Op("not", args)
            m = _DIST_OP_RE.match(tok)
            if len(args) < 2:
                raise SurroundSyntaxError("distance op takes >= 2 operands")
            return _Op(m.group(2).lower(), args, int(m.group(1) or 1))
        if tok in (")", ","):
            raise SurroundSyntaxError(f"unexpected {tok!r}")
        return _Term(tok)


# --- translation ---------------------------------------------------------


def _expand_trunc(text: str, term_dict: np.ndarray | None) -> tuple[str, ...]:
    if term_dict is None:
        raise SurroundSyntaxError(
            f"truncated term {text!r} needs a term dictionary to expand"
        )
    if "?" not in text and text.endswith("*") and "*" not in text[:-1]:
        pre = text[:-1].lower()
        lo = int(np.searchsorted(term_dict, pre))
        hi = int(np.searchsorted(term_dict, pre + "￿"))
        matches = term_dict[lo:hi]
    else:
        rx = re.compile(
            "".join(
                ".*" if c == "*" else "." if c == "?" else re.escape(c)
                for c in text.lower()
            )
            + r"\Z"
        )
        matches = term_dict[[bool(rx.match(str(t))) for t in term_dict]]
    if len(matches) > MAX_BASIC_QUERIES:
        raise SurroundSyntaxError(
            f"{text!r} expands to {len(matches)} terms > maxBasicQueries "
            f"{MAX_BASIC_QUERIES}"
        )
    return tuple(str(t) for t in matches)


def _to_span(node: _Node, term_dict) -> Q.Query:
    if isinstance(node, _Term):
        if node.truncated:
            terms = _expand_trunc(node.text, term_dict)
            if not terms:
                return Q.SpanOrQuery(())
            if len(terms) == 1:
                return Q.SpanTermQuery(terms[0])
            return Q.SpanOrQuery(tuple(Q.SpanTermQuery(t) for t in terms))
        return Q.SpanTermQuery(node.text.lower())
    if node.kind == "or":
        return Q.SpanOrQuery(tuple(_to_span(c, term_dict) for c in node.children))
    if node.kind in ("w", "n"):
        subs = tuple(_to_span(c, term_dict) for c in node.children)
        return Q.SpanNearQuery(
            subs, slop=node.distance - 1, in_order=(node.kind == "w")
        )
    raise SurroundSyntaxError(
        f"{node.kind.upper()} is not allowed inside a distance operator "
        "(distanceSubQueryNotAllowed)"
    )


def _to_query(node: _Node, term_dict) -> Q.Query:
    if isinstance(node, _Term):
        if node.truncated:
            terms = _expand_trunc(node.text, term_dict)
            if not terms:
                return Q.MatchNoDocsQuery()
            return Q.SynonymQuery(terms)
        return Q.TermQuery(node.text.lower())
    if node.kind in ("w", "n"):
        return _to_span(node, term_dict)
    if node.kind == "or":
        return Q.BooleanQuery.build(
            [(Q.SHOULD, _to_query(c, term_dict)) for c in node.children]
        )
    if node.kind == "and":
        return Q.BooleanQuery.build(
            [(Q.MUST, _to_query(c, term_dict)) for c in node.children]
        )
    if node.kind == "not":
        a, b = node.children
        return Q.BooleanQuery.build(
            [(Q.MUST, _to_query(a, term_dict)), (Q.MUST_NOT, _to_query(b, term_dict))]
        )
    raise SurroundSyntaxError(node.kind)


def parse_surround(text: str, term_dict: np.ndarray | None = None) -> Q.Query:
    """Parse a surround query string into the engine's query tree.
    ``term_dict`` (sorted term array, e.g. searcher.term_dict_union()) is
    required only when the query contains truncated terms."""
    return _to_query(_Parser(_tokenize(text)).parse(), term_dict)
