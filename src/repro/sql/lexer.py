"""SQL tokenizer."""

from __future__ import annotations

import enum
import re
from typing import Iterator, List, NamedTuple

__all__ = ["TokenKind", "Token", "tokenize", "SQLSyntaxError"]


class SQLSyntaxError(ValueError):
    """Raised for malformed SQL text."""


class TokenKind(enum.Enum):
    """Lexical category of a :class:`Token`."""

    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT",
    "JOIN", "INNER", "ON", "AND", "OR", "NOT", "IN", "AS", "ASC", "DESC",
    "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "SUM", "COUNT",
    "MIN", "MAX", "AVG", "BETWEEN", "CASE", "WHEN", "THEN", "ELSE", "END",
    "NULL", "IS", "OFFSET",
}

OPERATORS = ["<>", "<=", ">=", "!=", "=", "<", ">", "+", "-", "*", "/", "%"]
PUNCT = ["(", ")", ",", ".", ";"]


class Token(NamedTuple):
    """One lexeme: its kind, source text, and character offset."""

    kind: TokenKind
    value: str
    position: int

    def matches(self, kind: TokenKind, value: str | None = None) -> bool:
        """True if the token has this kind (and, if given, this value)."""
        if self.kind is not kind:
            return False
        return value is None or self.value == value


# One alternative per lexeme class after optional whitespace, tried in this
# order at each position; the scanner matches where the previous lexeme
# ended, so a position nothing matches is an error, never skipped.
# ``\s``, ``\d`` and ``\w`` are Unicode classes: ``\s`` is ``str.isspace``,
# ``\w`` is ``str.isalnum`` plus ``_``, and ``\d`` is the decimal digits
# (``str.isdecimal``).  An identifier must start with a letter or ``_``
# (``str.isalpha``), which no class expresses; a non-ASCII start is
# checked in :func:`tokenize`.  So a numeral that is not a decimal digit
# (``'²'``, ``'½'``) is an error outside literals and identifiers, as
# ``int()`` would reject it anyway.
_LEXEME = re.compile(
    r"\s*(?:"
    r"'(?P<string>[^']*)'"
    r"|(?P<number>\d+\.?\d*|\.\d+)"
    r"|(?P<word>[A-Za-z_]\w*)"
    r"|(?P<uword>[^\W\d]\w*)"
    rf"|(?P<operator>{'|'.join(map(re.escape, OPERATORS))})"  # longest first
    rf"|(?P<punct>[{re.escape(''.join(PUNCT))}])"
    r"|\Z)"
)
_SPACE = re.compile(r"\s*")
_STRING = _LEXEME.groupindex["string"]
_WORD = _LEXEME.groupindex["word"]
_UWORD = _LEXEME.groupindex["uword"]
#: token kind of each group, by group number (the groups are named after
#: the kinds; the two word groups have none)
_KINDS = [None] * (_LEXEME.groups + 1)
for _name, _group in _LEXEME.groupindex.items():
    _KINDS[_group] = TokenKind.__members__.get(_name.upper())


def tokenize(text: str) -> List[Token]:
    """Split SQL text into tokens (keywords upper-cased)."""
    return list(_lex(text))


def _lex(text: str) -> Iterator[Token]:
    """Tokens of ``text`` one at a time, ending with EOF (an INSERT's head
    is pulled from here, so its VALUES body is never tokenized)."""
    new = tuple.__new__  # Token(...) without the NamedTuple constructor
    scan = _LEXEME.scanner(text).match
    end = 0
    while True:
        m = scan()
        if m is None:
            pos = _SPACE.match(text, end).end()
            if text[pos] == "'":
                raise SQLSyntaxError(f"unterminated string literal at {pos}")
            raise SQLSyntaxError(f"unexpected character {text[pos]!r} at position {pos}")
        group = m.lastindex
        if group is None:  # only whitespace was left
            break
        pos = m.start(group)
        end = m.end()
        if group == _WORD or group == _UWORD:
            word = m.group(group)
            if group == _UWORD and not word[0].isalpha():
                raise SQLSyntaxError(f"unexpected character {word[0]!r} at position {pos}")
            upper = word.upper()
            if upper in KEYWORDS:
                yield new(Token, (TokenKind.KEYWORD, upper, pos))
            else:
                yield new(Token, (TokenKind.IDENT, word, pos))
        elif group == _STRING:  # the literal starts at its opening quote
            yield new(Token, (TokenKind.STRING, m.group(group), pos - 1))
        else:
            yield new(Token, (_KINDS[group], m.group(group), pos))
    yield new(Token, (TokenKind.EOF, "", len(text)))
