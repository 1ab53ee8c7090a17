"""Unit tests for the JavaScript tokenizer."""

import pytest

from repro.jsast.tokenizer import TokenizeError, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def raws(source):
    return [t.raw for t in tokenize(source) if t.kind != "eof"]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == "eof"

    def test_identifier(self):
        (tok, _eof) = tokenize("foo")
        assert tok.kind == "identifier"
        assert tok.value == "foo"

    def test_identifier_with_dollar_and_underscore(self):
        assert tokenize("$_var1")[0].value == "$_var1"

    def test_keyword_recognition(self):
        assert tokenize("function")[0].kind == "keyword"
        assert tokenize("var")[0].kind == "keyword"
        assert tokenize("typeof")[0].kind == "keyword"

    def test_literal_keywords_are_keyword_kind(self):
        for word in ("true", "false", "null", "undefined"):
            assert tokenize(word)[0].kind == "keyword"

    def test_keyword_prefix_is_identifier(self):
        tok = tokenize("variable")[0]
        assert tok.kind == "identifier"

    def test_punctuator_longest_match(self):
        assert raws("=== == =") == ["===", "==", "="]
        assert raws(">>>= >>> >> >") == [">>>=", ">>>", ">>", ">"]

    def test_unexpected_character_raises(self):
        with pytest.raises(TokenizeError):
            tokenize("var a = #")


class TestNumbers:
    def test_integer(self):
        assert tokenize("42")[0].value == 42.0

    def test_float(self):
        assert tokenize("3.14")[0].value == pytest.approx(3.14)

    def test_leading_dot_float(self):
        assert tokenize(".5")[0].value == 0.5

    def test_exponent(self):
        assert tokenize("1e3")[0].value == 1000.0
        assert tokenize("2.5e-2")[0].value == pytest.approx(0.025)

    def test_hex(self):
        assert tokenize("0xFF")[0].value == 255.0
        assert tokenize("0x10")[0].value == 16.0

    def test_bad_hex_raises(self):
        with pytest.raises(TokenizeError):
            tokenize("0x")

    def test_superscript_digit_is_a_tokenize_error(self):
        # str.isdigit accepts "²" but float() does not: a TokenizeError,
        # which extraction records as a parse error, not a ValueError.
        with pytest.raises(TokenizeError, match="invalid number literal"):
            tokenize("var x = 1\u00b2;")

    def test_number_then_dot_method(self):
        toks = raws("1..toString")
        assert toks == ["1.", ".", "toString"]


class TestStrings:
    def test_double_quoted(self):
        assert tokenize('"hello"')[0].value == "hello"

    def test_single_quoted(self):
        assert tokenize("'hi'")[0].value == "hi"

    def test_escapes(self):
        assert tokenize(r'"\n\t\\"')[0].value == "\n\t\\"

    def test_quote_escape(self):
        assert tokenize(r'"say \"hi\""')[0].value == 'say "hi"'

    def test_hex_escape(self):
        assert tokenize(r'"\x41"')[0].value == "A"

    def test_unicode_escape(self):
        assert tokenize(r'"A"')[0].value == "A"

    def test_unknown_escape_passes_through(self):
        assert tokenize(r'"\q"')[0].value == "q"

    def test_unterminated_raises(self):
        with pytest.raises(TokenizeError):
            tokenize('"abc')

    def test_newline_in_string_raises(self):
        with pytest.raises(TokenizeError):
            tokenize('"ab\ncd"')

    def test_line_continuation(self):
        assert tokenize('"ab\\\ncd"')[0].value == "abcd"

    def test_crlf_line_continuation_is_one_terminator(self):
        tokens = tokenize('x = "ab\\\r\ncd";')
        string = tokens[2]
        assert (string.kind, string.value) == ("string", "abcd")
        assert string.raw == '"ab\\\r\ncd"'
        # The token after the string sits on line 2, just past ``cd"``.
        assert (tokens[3].raw, tokens[3].line, tokens[3].column) == (";", 2, 4)


class TestComments:
    def test_line_comment_skipped(self):
        assert kinds("// comment\nfoo") == ["identifier", "eof"]

    def test_block_comment_skipped(self):
        assert kinds("/* block */ foo") == ["identifier", "eof"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(TokenizeError):
            tokenize("/* oops")

    def test_multiline_block_comment_sets_newline_flag(self):
        tokens = tokenize("a /* x\ny */ b")
        assert tokens[1].newline_before is True

    def test_position_after_multiline_block_comment(self):
        b = tokenize("a /* x\ny */ b")[1]
        assert (b.line, b.column) == (2, 6)

    def test_crlf_in_block_comment_counts_one_line(self):
        b = tokenize("a /* x\r\ny */ b")[1]
        assert (b.line, b.column) == (2, 6)

    def test_mixed_terminators_in_block_comment(self):
        b = tokenize("/* \r \n \u2028 \u2029 \r\n*/ b")[0]
        assert (b.line, b.column, b.newline_before) == (6, 4, True)


class TestRegexDisambiguation:
    def test_regex_at_start(self):
        tok = tokenize("/ab+c/gi")[0]
        assert tok.kind == "regex"
        assert tok.value == ("ab+c", "gi")

    def test_regex_after_assignment(self):
        tokens = tokenize("x = /foo/")
        assert tokens[2].kind == "regex"

    def test_division_after_identifier(self):
        tokens = tokenize("a / b")
        assert tokens[1].kind == "punct"
        assert tokens[1].raw == "/"

    def test_division_after_close_paren(self):
        tokens = tokenize("(a) / 2")
        punct = [t for t in tokens if t.kind == "punct"]
        assert any(t.raw == "/" for t in punct)
        assert all(t.kind != "regex" for t in tokens)

    def test_regex_after_open_paren(self):
        tokens = tokenize("f(/x/)")
        assert any(t.kind == "regex" for t in tokens)

    def test_regex_with_class_containing_slash(self):
        tok = tokenize("/[/]/")[0]
        assert tok.kind == "regex"
        assert tok.value == ("[/]", "")

    def test_regex_escaped_slash(self):
        tok = tokenize(r"/a\/b/")[0]
        assert tok.value == (r"a\/b", "")

    def test_regex_after_return(self):
        tokens = tokenize("return /x/")
        assert tokens[1].kind == "regex"

    def test_unterminated_regex_raises(self):
        with pytest.raises(TokenizeError):
            tokenize("x = /abc")


class TestPositionsAndNewlines:
    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:3]] == [1, 2, 3]

    def test_newline_before_flag(self):
        tokens = tokenize("a\nb c")
        assert tokens[0].newline_before is False
        assert tokens[1].newline_before is True
        assert tokens[2].newline_before is False

    def test_crlf_counts_one_line(self):
        tokens = tokenize("a\r\nb")
        assert tokens[1].line == 2

    def test_eof_column_after_trailing_zero(self):
        eof = tokenize("x=0")[-1]
        assert (eof.kind, eof.line, eof.column) == ("eof", 1, 4)

    def test_column_tracking(self):
        tokens = tokenize("ab cd")
        assert tokens[0].column == 1
        assert tokens[1].column == 4
