"""Unit tests for the Tower lexer."""

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import KEYWORDS, PUNCTUATION, Token, TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty_input_gives_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        (tok,) = tokenize("hello")[:-1]
        assert tok.kind is TokenKind.IDENT
        assert tok.text == "hello"

    def test_identifier_with_underscore_and_prime(self):
        assert texts("is_empty x' _tmp") == ["is_empty", "x'", "_tmp"]

    def test_integer(self):
        (tok,) = tokenize("42")[:-1]
        assert tok.kind is TokenKind.INT
        assert tok.text == "42"

    def test_keywords_recognized(self):
        for kw in ["type", "fun", "let", "if", "else", "with", "do", "return",
                   "not", "test", "true", "false", "null", "default",
                   "uint", "bool", "ptr", "skip"]:
            (tok,) = tokenize(kw)[:-1]
            assert tok.kind is TokenKind.KEYWORD, kw

    def test_ident_prefixed_by_keyword_is_ident(self):
        (tok,) = tokenize("lettuce")[:-1]
        assert tok.kind is TokenKind.IDENT


class TestPunctuation:
    def test_longest_match_memswap_arrow(self):
        assert texts("<->") == ["<->"]

    def test_assign_arrows(self):
        assert texts("<- ->") == ["<-", "->"]

    def test_arrow_vs_less_than(self):
        assert texts("a < b") == ["a", "<", "b"]

    def test_comparison_operators(self):
        assert texts("== != && ||") == ["==", "!=", "&&", "||"]

    def test_brackets_and_braces(self):
        assert texts("[]{}()") == ["[", "]", "{", "}", "(", ")"]

    def test_projection_dot(self):
        assert texts("x.1") == ["x", ".", "1"]


class TestComments:
    def test_line_comment(self):
        assert texts("a // comment\n b") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* b c */ d") == ["a", "d"]

    def test_block_comment_spanning_lines(self):
        assert texts("a /* x\ny\nz */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("ab\n  cd")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_invalid_character_reports_position(self):
        with pytest.raises(LexError) as err:
            tokenize("a\n  @")
        assert err.value.line == 2
        assert err.value.column == 3

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff17"])
    def test_non_ascii_digit_is_lex_error(self, digit):
        # ``str.isdigit`` accepts these, ``int()`` does not parse them all,
        # and the grammar's integers are ASCII decimal
        with pytest.raises(LexError) as err:
            tokenize(f"let y <- x + {digit};")
        assert (err.value.line, err.value.column) == (1, 14)


def test_full_program_lexes(length_source):
    tokens = tokenize(length_source)
    assert tokens[-1].kind is TokenKind.EOF
    assert any(t.text == "length" for t in tokens)
    assert any(t.text == "<->" for t in tokens)


# ------------------------------------------------------------------- oracle
_ORACLE_DIGITS = frozenset("0123456789")


def oracle_tokenize(source: str) -> List[Token]:
    """The character-at-a-time lexer the regular-expression scanner
    replaced, kept verbatim as the reference for its tokens, positions and
    errors."""
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
        if ch in _ORACLE_DIGITS:
            start = pos
            start_line, start_col = line, column
            while pos < length and source[pos] in _ORACLE_DIGITS:
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


def _outcome(lex, source: str):
    """The token list, or the error's message, line and column."""
    try:
        return lex(source)
    except LexError as exc:
        return ("LexError", str(exc), exc.line, exc.column)


#: fragments that exercise every lexer path: ASCII words and numbers,
#: whitespace with tabs and CRLF, both comment forms (an opener alone is
#: an unterminated comment), primes, letters beyond ASCII, and digits that
#: are not ASCII decimal (superscript, Arabic-Indic, fullwidth)
_FRAGMENTS = (
    sorted(KEYWORDS)
    + list(PUNCTUATION)
    + ["x", "y1", "_t", "len'", "0", "42", "007"]
    + [" ", "\t", "\n", "\r\n", "\r"]
    + ["//", "// note\n", "/*", "*/", "/* c */", "/*\n*/", "/", "*"]
    + ["'", "\u00e9", "\u03a9", "\u4e2d", "\u00b2", "\u0663", "\uff17"]
    + ["!", "&", "|", "@", "#", "\u00a0", "\x0b"]
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join))
def test_scanner_matches_oracle_on_fragments(source):
    assert _outcome(tokenize, source) == _outcome(oracle_tokenize, source)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_scanner_matches_oracle_on_any_text(source):
    assert _outcome(tokenize, source) == _outcome(oracle_tokenize, source)


def test_scanner_matches_oracle_on_table1_sources():
    from repro.benchsuite.programs import SOURCES

    for source in SOURCES.values():
        assert tokenize(source) == oracle_tokenize(source)
