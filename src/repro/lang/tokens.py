"""Token definitions for the Tower surface language."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class TokenKind(str, Enum):
    """Kinds of lexical tokens."""

    IDENT = "ident"
    INT = "int"
    KEYWORD = "keyword"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "type",
        "fun",
        "let",
        "if",
        "else",
        "with",
        "do",
        "return",
        "skip",
        "not",
        "test",
        "true",
        "false",
        "null",
        "default",
        "uint",
        "bool",
        "ptr",
    }
)

#: Multi-character punctuation, longest first (order matters for the lexer).
PUNCTUATION = (
    "<->",
    "<-",
    "->",
    "==",
    "!=",
    "&&",
    "||",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    "<",
    ">",
    ",",
    ";",
    ":",
    "*",
    "+",
    "-",
    ".",
    "=",
)


class Token(NamedTuple):
    """One lexical token with its source position (1-based).

    A named tuple: immutable, compared by value, and about half as
    costly to build as a frozen dataclass, which matters because the
    lexer builds one per token.
    """

    kind: TokenKind
    text: str
    line: int
    column: int

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.text!r}@{self.line}:{self.column}"
