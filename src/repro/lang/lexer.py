"""Lexer for the Tower surface language.

Supports ``//`` line comments and ``/* */`` block comments (non-nested).
Identifiers match ``[A-Za-z_][A-Za-z0-9_']*``; integers are decimal.
"""

from __future__ import annotations

from typing import List

from ..errors import LexError
from .tokens import KEYWORDS, PUNCTUATION, Token, TokenKind

#: Integer literals are ASCII decimal, as the grammar says; ``str.isdigit``
#: also accepts characters such as ``²`` that ``int()`` cannot parse.
_DIGITS = frozenset("0123456789")


def tokenize(source: str) -> List[Token]:
    """Convert source text into a token list terminated by an EOF token."""
    tokens: List[Token] = []
    pos = 0
    line = 1
    column = 1
    length = len(source)

    def advance(count: int) -> None:
        nonlocal pos, line, column
        for _ in range(count):
            if pos < length and source[pos] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            pos += 1

    while pos < length:
        ch = source[pos]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", pos):
            while pos < length and source[pos] != "\n":
                advance(1)
            continue
        if source.startswith("/*", pos):
            end = source.find("*/", pos + 2)
            if end < 0:
                raise LexError("unterminated block comment", line, column)
            advance(end + 2 - pos)
            continue
        if ch in _DIGITS:
            start = pos
            start_line, start_col = line, column
            while pos < length and source[pos] in _DIGITS:
                advance(1)
            tokens.append(Token(TokenKind.INT, source[start:pos], start_line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            start_line, start_col = line, column
            while pos < length and (source[pos].isalnum() or source[pos] in "_'"):
                advance(1)
            text = source[start:pos]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, text, start_line, start_col))
            continue
        for punct in PUNCTUATION:
            if source.startswith(punct, pos):
                tokens.append(Token(TokenKind.PUNCT, punct, line, column))
                advance(len(punct))
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token(TokenKind.EOF, "", line, column))
    return tokens
