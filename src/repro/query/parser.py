"""Recursive-descent parser for the paper's first-order query syntax.

Grammar (case-insensitive keywords, ``#`` comments to end of line)::

    formula     := quantified
    quantified  := (EXISTS | FORALL) var ("," var)* "." quantified
                 | implication
    implication := disjunction (IMPLIES quantified)?
    disjunction := conjunction (OR conjunction)*
    conjunction := negation (AND negation)*
    negation    := NOT negation | primary
    primary     := "(" formula ")" | TRUE | FALSE | atom | comparison
    atom        := RelName "(" term ("," term)* ")"
    comparison  := term ("=" | "!=" | "<>" | "<" | ">" | "<=" | ">=") term
    term        := variable | constant

Identifier convention (matching the paper's typography): identifiers
beginning with a lowercase letter are *variables* (``x1``, ``y``);
identifiers beginning with an uppercase letter are *name constants*
(``Mary``) — except immediately before ``(`` where they are relation
names.  Quoted strings (``'R&D'``) are always name constants; decimal
literals are natural-number constants.  Unicode connectives ``∃ ∀ ∧ ∨ ¬
→ ≠ ≤ ≥`` are accepted as aliases.

Example (query Q1 of the paper)::

    EXISTS x1, y1, z1, x2, y2, z2 .
        Mgr(Mary, x1, y1, z1) AND Mgr(John, x2, y2, z2) AND y1 < y2

Nesting (negations, parentheses, quantifier bodies, implication
consequents) is limited to :data:`MAX_NESTING_DEPTH` levels: the parser
and every later pass over the formula recurse once per level, so deeper
input is rejected as a syntax error instead of exhausting the
interpreter stack.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Union

from repro.exceptions import QuerySyntaxError
from repro.query.ast import (
    And,
    Atom,
    Comparison,
    Const,
    Exists,
    FalseFormula,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Term,
    TrueFormula,
    Var,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<number>\d+)
  | (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|!=|<>|≠|≤|≥|=|<|>)
  | (?P<punct>[(),.])
  | (?P<unicode>[∃∀∧∨¬→])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"EXISTS", "FORALL", "AND", "OR", "NOT", "IMPLIES", "TRUE", "FALSE"}

_UNICODE_ALIASES = {
    "∃": "EXISTS",
    "∀": "FORALL",
    "∧": "AND",
    "∨": "OR",
    "¬": "NOT",
    "→": "IMPLIES",
}

_OP_ALIASES = {"<>": "!=", "≠": "!=", "≤": "<=", "≥": ">="}

#: Deepest formula nesting the parser accepts.
MAX_NESTING_DEPTH = 100


@dataclass(frozen=True)
class _Token:
    kind: str  # 'keyword' | 'ident' | 'number' | 'string' | 'op' | 'punct' | 'eof'
    text: str
    position: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise QuerySyntaxError(
                f"unexpected character {text[position]!r} at offset {position}"
            )
        position = match.end()
        if match.lastgroup == "ws":
            continue
        value = match.group()
        if match.lastgroup == "ident":
            upper = value.upper()
            if upper in _KEYWORDS:
                tokens.append(_Token("keyword", upper, match.start()))
            else:
                tokens.append(_Token("ident", value, match.start()))
        elif match.lastgroup == "unicode":
            tokens.append(_Token("keyword", _UNICODE_ALIASES[value], match.start()))
        elif match.lastgroup == "op":
            tokens.append(_Token("op", _OP_ALIASES.get(value, value), match.start()))
        elif match.lastgroup == "number":
            tokens.append(_Token("number", value, match.start()))
        elif match.lastgroup == "string":
            tokens.append(_Token("string", value, match.start()))
        else:
            tokens.append(_Token("punct", value, match.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


def _unquote(literal: str) -> str:
    body = literal[1:-1]
    return re.sub(r"\\(.)", r"\1", body)


class _Parser:
    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = _tokenize(text)
        self._index = 0
        self._depth = 0

    # Token helpers ---------------------------------------------------------

    @property
    def _current(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._current
        self._index += 1
        return token

    def _error(self, message: str) -> QuerySyntaxError:
        token = self._current
        where = f"offset {token.position}" if token.kind != "eof" else "end of input"
        return QuerySyntaxError(f"{message} at {where} (near {token.text!r})")

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        token = self._current
        if token.kind == kind and (text is None or token.text == text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> _Token:
        token = self._accept(kind, text)
        if token is None:
            raise self._error(f"expected {text or kind}")
        return token

    @contextmanager
    def _nested(self) -> Iterator[None]:
        """One nesting level deeper, bounded by :data:`MAX_NESTING_DEPTH`."""
        if self._depth >= MAX_NESTING_DEPTH:
            raise self._error(
                f"formula nested deeper than {MAX_NESTING_DEPTH} levels"
            )
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1

    # Grammar ---------------------------------------------------------------

    def parse(self) -> Formula:
        formula = self._formula()
        if self._current.kind != "eof":
            raise self._error("trailing input after formula")
        return formula

    def _formula(self) -> Formula:
        return self._quantified()

    def _quantified(self) -> Formula:
        for keyword, node in (("EXISTS", Exists), ("FORALL", Forall)):
            if self._accept("keyword", keyword):
                variables = [self._variable_name()]
                while self._accept("punct", ","):
                    variables.append(self._variable_name())
                self._expect("punct", ".")
                with self._nested():
                    return node(variables, self._quantified())
        return self._implication()

    def _variable_name(self) -> str:
        token = self._expect("ident")
        if not token.text[0].islower() and token.text[0] != "_":
            raise QuerySyntaxError(
                f"quantified variable {token.text!r} must start lowercase "
                f"(offset {token.position})"
            )
        return token.text

    def _implication(self) -> Formula:
        left = self._disjunction()
        if self._accept("keyword", "IMPLIES"):
            with self._nested():
                return Implies(left, self._quantified())
        return left

    def _disjunction(self) -> Formula:
        parts = [self._conjunction()]
        while self._accept("keyword", "OR"):
            parts.append(self._conjunction())
        return parts[0] if len(parts) == 1 else Or(parts)

    def _conjunction(self) -> Formula:
        parts = [self._negation()]
        while self._accept("keyword", "AND"):
            parts.append(self._negation())
        return parts[0] if len(parts) == 1 else And(parts)

    def _negation(self) -> Formula:
        if self._accept("keyword", "NOT"):
            with self._nested():
                return Not(self._negation())
        return self._primary()

    def _primary(self) -> Formula:
        if self._accept("punct", "("):
            with self._nested():
                inner = self._formula()
            self._expect("punct", ")")
            return inner
        if self._accept("keyword", "TRUE"):
            return TrueFormula()
        if self._accept("keyword", "FALSE"):
            return FalseFormula()
        if (
            self._current.kind == "ident"
            and self._peek_is_punct(1, "(")
        ):
            return self._atom()
        left = self._term()
        op_token = self._expect("op")
        right = self._term()
        return Comparison(op_token.text, left, right)

    def _peek_is_punct(self, offset: int, text: str) -> bool:
        index = self._index + offset
        if index >= len(self._tokens):
            return False
        token = self._tokens[index]
        return token.kind == "punct" and token.text == text

    def _atom(self) -> Formula:
        relation = self._expect("ident").text
        self._expect("punct", "(")
        terms = [self._term()]
        while self._accept("punct", ","):
            terms.append(self._term())
        self._expect("punct", ")")
        return Atom(relation, terms)

    def _term(self) -> Term:
        token = self._current
        if token.kind == "number":
            self._advance()
            return Const(int(token.text))
        if token.kind == "string":
            self._advance()
            return Const(_unquote(token.text))
        if token.kind == "ident":
            self._advance()
            if token.text[0].islower() or token.text[0] == "_":
                return Var(token.text)
            return Const(token.text)
        raise self._error("expected a term (variable or constant)")


def parse_query(text: str) -> Formula:
    """Parse query text into a :class:`~repro.query.ast.Formula`."""
    return _Parser(text).parse()
