"""Differential tests: the master-regex scanner against the reference oracle.

:func:`repro.jsast.tokenizer.tokenize` must produce exactly the tokens of
the per-character :mod:`tests.jsast.reference_tokenizer` — every field of
every token, or the same exception with the same message — on the §5
corpus, on what unpacking that corpus yields, and on generated inputs
aimed at the scanner's fallbacks. Node child discovery is pinned to
``dataclasses.fields`` order for the same reason: the feature events are
a walk over it.
"""

import dataclasses
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.context import ExperimentContext
from repro.jsast import nodes as N
from repro.jsast.codegen import to_source
from repro.jsast.parser import ParseError, parse
from repro.jsast.tokenizer import PUNCTUATORS, TokenizeError, tokenize
from repro.jsast.unpack import unpack_program

from .reference_tokenizer import reference_tokenize


def scan(tokenizer, source):
    """Every token as a tuple of all its fields, or the exception raised."""
    try:
        return [
            (t.kind, t.value, t.raw, t.line, t.column, t.newline_before)
            for t in tokenizer(source)
        ]
    except Exception as exc:  # both scanners must fail the same way
        return (type(exc).__name__, str(exc))


def assert_same_scan(source):
    assert scan(tokenize, source) == scan(reference_tokenize, source), repr(source)


@pytest.fixture(scope="module")
def corpus_and_unpacked():
    """The §5 corpus at scale 0.05, then every unpacked payload and the
    unpacked programs printed back to source."""
    sources = list(ExperimentContext.create(scale=0.05).corpus.sources())
    derived = []
    for source in sources:
        try:
            result = unpack_program(parse(source))
        except (ParseError, TokenizeError):
            continue
        derived.extend(result.unpacked_sources)
        derived.append(to_source(result.program))
    return sources, derived


class TestCorpus:
    def test_corpus_sources(self, corpus_and_unpacked):
        sources, _ = corpus_and_unpacked
        assert len(sources) > 100
        for source in sources:
            assert_same_scan(source)

    def test_unpacked_output(self, corpus_and_unpacked):
        _, derived = corpus_and_unpacked
        assert derived
        for source in derived:
            assert_same_scan(source)


# -- generated inputs ----------------------------------------------------------------

PIECES = [
    # identifiers, keywords, literal words; non-ASCII starts and parts
    "a", "foo", "$_x1", "var", "this", "true", "null", "undefined", "in",
    "\u00e9", "\u03c0", "\u53d8\u91cf", "x\u00e9", "a\u0673", "ab\u0663", "\ufeff",
    # numbers: hex, leading dot, exponent, and the forms that fall back
    # (U+0663 is an Arabic-Indic digit, U+00B2 a superscript two)
    "0", "42", "0x1F", "0X", "0x", "0xg", ".5", "1.", "1.5", "1..x", "1e3",
    "2.5e-2", "1e", "1e+", "1E+x", "1\u0663", ".\u0663", "1.\u0663", "1e\u0663",
    "1e+\u0663", "10x", "1\u00b2",
    # strings: plain, escapes, continuations (LF, CR, CRLF, U+2028/9), bad
    '"abc"', "'abc'", '""', '"a\\"b"', "'it\\'s'", '"\\x41"', '"\\u00e9"',
    '"\\x4"', '"\\u12"', '"\\q"', '"ab\\\ncd"', '"ab\\\rcd"', '"ab\\\r\ncd"',
    '"ab\\\u2028cd"', '"ab\\\u2029cd"', '"\\\\"', '"open', "'a\nb'",
    '"a\u2028b"', '"\\',
    # regular expressions versus division
    "/re/", "/re/gi", "/[/]/", "/a\\/b/", "/\\//", "/re", "/=/", "/=",
    "(a)/2", "a / b / c", "x = /x/", "return /x/", "a++ / 2", "this / 2",
    "} /x/", "true/x/g", "[1]/2",
    # comments
    "// line\n", "// line\r\n", "// open", "/* block */", "/* a\nb */",
    "/* a\r\nb */", "/* a\u2028b\u2029 */", "/* a\r*/", "/*/ */", "/* open",
    # whitespace and line terminators
    " ", "\t", "\x0b", "\x0c", "\xa0", "\u3000", "\x1c", "\n", "\r", "\r\n",
    "\u2028", "\u2029", "\n\n", "\r\r\n",
    # odd characters
    "#", "@", "`", "\\", "\x00",
] + PUNCTUATORS

ALPHABET = (
    string.ascii_letters[:8]
    + string.digits[:4]
    + "$_.+-*/%=<>!&|^~?:;,(){}[]'\"\\ \t\n\r#"
    + "\u2028\u2029\xa0\u00e9\u03c0\u0663\u00b2"
)


class TestGenerated:
    @given(st.lists(st.sampled_from(PIECES), max_size=24).map("".join))
    @settings(max_examples=600, deadline=None)
    def test_pieces(self, source):
        assert_same_scan(source)

    @given(st.lists(st.sampled_from(PIECES), max_size=12).map(" ".join))
    @settings(max_examples=300, deadline=None)
    def test_spaced_pieces(self, source):
        assert_same_scan(source)

    @given(st.text(alphabet=ALPHABET, max_size=40))
    @settings(max_examples=600, deadline=None)
    def test_raw_text(self, source):
        assert_same_scan(source)

    @pytest.mark.parametrize("source", PIECES + ["", "x=0", "a /* x\r\ny */ b"])
    def test_each_piece(self, source):
        assert_same_scan(source)

    def test_every_code_point_alone_and_after_a_name(self):
        # Every BMP character, as a token start and as an identifier part.
        for code in range(0x10000):
            if 0xD800 <= code <= 0xDFFF:
                continue
            ch = chr(code)
            assert_same_scan(ch)
            assert_same_scan("a" + ch)


# -- node child discovery ------------------------------------------------------------

NODE_CLASSES = sorted(
    (
        cls
        for cls in vars(N).values()
        if isinstance(cls, type) and issubclass(cls, N.Node)
    ),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
class TestChildOrder:
    def test_field_names_follow_dataclass_fields(self, cls):
        assert N.field_names(cls) == tuple(f.name for f in dataclasses.fields(cls))

    def test_children_in_field_order(self, cls):
        node = cls()
        expected = []
        for f in dataclasses.fields(cls):
            items = [N.Identifier(name=f"{f.name}.{i}") for i in range(2)]
            setattr(node, f.name, items)
            expected.extend(item.name for item in items)
        assert [child.name for child in node.children()] == expected

    def test_replace_child_takes_the_first_field(self, cls):
        node = cls()
        shared, new = N.Identifier(name="shared"), N.Identifier(name="new")
        names = [f.name for f in dataclasses.fields(cls)]
        for name in names:
            setattr(node, name, shared)
        assert node.replace_child(shared, new) is bool(names)
        replaced = [getattr(node, name) is new for name in names]
        assert replaced == [index == 0 for index in range(len(names))]
