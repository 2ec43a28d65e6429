"""Lexer for the Tower surface language.

Supports ``//`` line comments and ``/* */`` block comments (non-nested).
Identifiers start with a letter (``str.isalpha``) or ``_`` and continue
with letters, digits, ``_`` and ``'``; integers are ASCII decimal.

One compiled regular expression scans the whole source: each match is a
run of whitespace and comments, an integer, an identifier, a punctuation
symbol, or the single character no token starts with (a lexical error).
Positions are 1-based lines and columns counted in code points.
"""

from __future__ import annotations

import re
from typing import List

from ..errors import LexError
from .tokens import KEYWORDS, PUNCTUATION, Token, TokenKind

_SCANNER = re.compile(
    "|".join(
        [
            # whitespace and complete comments; ``/*`` with no ``*/`` after
            # it falls through to the error alternative
            r"(?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)",
            # integer literals are ASCII decimal, as the grammar says:
            # ``\d`` would also take characters such as ``٣`` that ``int()``
            # reads but the grammar does not
            r"(?P<int>[0-9]+)",
            # a word character that is no decimal digit, then word
            # characters and primes; ``tokenize`` rejects a first character
            # that is not a letter (a non-decimal digit such as ``²``)
            r"(?P<ident>[^\W\d][\w']*)",
            "(?P<punct>" + "|".join(re.escape(p) for p in PUNCTUATION) + ")",
            r"(?P<error>.)",
        ]
    ),
    re.DOTALL,
)


def tokenize(source: str) -> List[Token]:
    """Convert source text into a token list terminated by an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # index of the first character of ``line``
    for match in _SCANNER.finditer(source):
        group = match.lastgroup
        start = match.start()
        if group == "skip":
            end = match.end()
            newlines = source.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", start, end) + 1
            continue
        text = match.group()
        if group == "ident":
            head = text[0]
            if not (head.isalpha() or head == "_"):
                raise LexError(
                    f"unexpected character {head!r}", line, start - line_start + 1
                )
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        elif group == "punct":
            kind = TokenKind.PUNCT
        elif group == "int":
            kind = TokenKind.INT
        elif text == "/" and source.startswith("/*", start):
            raise LexError("unterminated block comment", line, start - line_start + 1)
        else:
            raise LexError(f"unexpected character {text!r}", line, start - line_start + 1)
        append(Token(kind, text, line, start - line_start + 1))
    tokens.append(Token(TokenKind.EOF, "", line, len(source) - line_start + 1))
    return tokens
