"""Unit tests for the Tower lexer."""

import pytest

from repro.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind


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
