"""Tokenizer for the ES5-subset JavaScript parser.

Produces a stream of :class:`Token` objects with enough context for the
parser to honour automatic semicolon insertion (each token records whether
a line terminator preceded it) and to disambiguate regular-expression
literals from division operators (the classic JS lexer ambiguity).

Scanning is one compiled master regex (:data:`_MASTER`) of named groups,
matched at the cursor and dispatched on ``match.lastgroup``: whitespace,
line terminators, comments, ASCII identifiers, plain numbers, escape-free
strings and punctuators. Everything else — string escapes and line
continuations, regular-expression literals, non-ASCII identifiers and
odd numbers — falls back to the per-character ``_read_*`` readers, which
define the token language.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

KEYWORDS = frozenset(
    """break case catch continue debugger default delete do else finally
    for function if in instanceof new return switch this throw try typeof
    var void while with""".split()
)

# Reserved literal words are tokenized distinctly so the parser can build
# boolean/null Literal nodes directly.
LITERAL_KEYWORDS = frozenset({"true", "false", "null", "undefined"})

PUNCTUATORS = [
    ">>>=",
    "===",
    "!==",
    ">>>",
    "<<=",
    ">>=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "++",
    "--",
    "<<",
    ">>",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "&",
    "|",
    "^",
    "!",
    "~",
    "?",
    ":",
    "=",
    ".",
]

LINE_TERMINATORS = "\n\r\u2028\u2029"

_RESERVED_WORDS = KEYWORDS | LITERAL_KEYWORDS

#: Whitespace other than a line terminator (``\s`` is ``str.isspace``).
_HSPACE = r"[^\S\n\r\u2028\u2029]"

#: The scanner's alternatives, tried in order at the cursor. The
#: punctuators are one ordered alternation in :data:`PUNCTUATORS` order,
#: so the first (longest) entry that matches wins, as in a ``startswith``
#: scan — except ``/`` and ``/=`` (the ``slash`` group: whether they
#: start a regular expression depends on the previous token) and ``.``
#: (the ``dot`` group, after ``number`` so that ``.5`` is a number; a
#: non-ASCII character after it may be a digit, which the per-character
#: reader handles). No alternative matches the empty string, so a failed
#: match means end of input or a fallback.
_MASTER = re.compile(
    "|".join(
        (
            rf"(?P<ws>{_HSPACE}+)",
            rf"(?P<crlf>\r\n{_HSPACE}*)",
            rf"(?P<nl>[\n\r\u2028\u2029]{_HSPACE}*)",
            r"(?P<name>[A-Za-z$_][A-Za-z0-9$_]*)",
            r"(?P<punct>"
            + "|".join(re.escape(p) for p in PUNCTUATORS if p[0] != "/" and p != ".")
            + ")",
            r"(?P<string>\"[^\"\\\n\r\u2028\u2029]*\"|'[^'\\\n\r\u2028\u2029]*')",
            r"(?P<hex>0[xX][0-9a-fA-F]+)",
            r"(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)",
            r"(?P<comment>//[^\n\r\u2028\u2029]*)",
            r"(?P<block>/\*)",
            r"(?P<slash>/=?)",
            r"(?P<dot>\.(?![^\x00-\x7f]))",
        )
    )
)

#: Characters after a matched decimal number at which the regex may stop
#: short of :meth:`Tokenizer._read_number`: an exponent marker the regex
#: declined (its digit may be non-ASCII) or the ``x`` of a hex marker
#: without digits. A non-ASCII character (a possible digit) falls back too.
_NUMBER_TAIL = frozenset("eExX")

#: The previous token's raw text, for kinds where it decides whether a
#: ``/`` may start a regular expression.
_NO_REGEX_AFTER_KEYWORD = frozenset({"this", "true", "false", "null", "undefined"})
_NO_REGEX_AFTER_PUNCT = frozenset({")", "]", "}", "++", "--"})


class TokenizeError(ValueError):
    """Raised when the source cannot be tokenized."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass
class Token:
    """One lexical token.

    ``kind`` is one of ``identifier``, ``keyword``, ``number``, ``string``,
    ``regex``, ``punct`` or ``eof``. ``value`` is the cooked value for
    strings/numbers and the raw text otherwise; ``raw`` is always the exact
    source slice.
    """

    kind: str
    value: object
    raw: str
    line: int
    column: int
    newline_before: bool = False

    def is_punct(self, *values: str) -> bool:
        """Whether this token is one of the given punctuators."""
        return self.kind == "punct" and self.raw in values

    def is_keyword(self, *values: str) -> bool:
        """Whether this token is one of the given keywords."""
        return self.kind == "keyword" and self.raw in values


def _is_identifier_start(ch: str) -> bool:
    if ch.isalpha() or ch in "$_":
        return True
    # Permissive non-ASCII identifiers, but never separators/whitespace.
    return ord(ch) > 127 and not ch.isspace() and ch not in LINE_TERMINATORS


def _is_identifier_part(ch: str) -> bool:
    if ch.isalnum() or ch in "$_":
        return True
    return ord(ch) > 127 and not ch.isspace() and ch not in LINE_TERMINATORS


class Tokenizer:
    """Single-pass tokenizer over a JavaScript source string."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.line_start = 0
        self._tokens: List[Token] = []

    # -- public API --------------------------------------------------------

    def tokenize(self) -> List[Token]:
        """Tokenize the whole source, returning a list ending with EOF."""
        src = self.source
        match = _MASTER.match
        tokens = self._tokens
        append = tokens.append
        pos, line, line_start = self.pos, self.line, self.line_start
        newline = False
        while True:
            m = match(src, pos)
            group = m.lastgroup if m is not None else None
            if group == "punct":
                raw = m.group()
                append(Token("punct", raw, raw, line, pos - line_start + 1, newline))
            elif group == "name":
                raw = m.group()
                if src[m.end() : m.end() + 1] > "\x7f":
                    group = None  # a non-ASCII identifier part follows
                else:
                    kind = "keyword" if raw in _RESERVED_WORDS else "identifier"
                    append(Token(kind, raw, raw, line, pos - line_start + 1, newline))
            elif group == "ws" or group == "comment":
                pos = m.end()
                continue
            elif group == "nl" or group == "crlf":
                newline = True
                line += 1
                line_start = pos + (1 if group == "nl" else 2)
                pos = m.end()
                continue
            elif group == "string":
                raw = m.group()
                append(Token("string", raw[1:-1], raw, line, pos - line_start + 1, newline))
            elif group == "number":
                tail = src[m.end() : m.end() + 1]
                if tail in _NUMBER_TAIL or tail > "\x7f":
                    group = None  # the number may read on past the match
                else:
                    raw = m.group()
                    append(Token("number", float(raw), raw, line, pos - line_start + 1, newline))
            elif group == "hex":
                raw = m.group()
                append(Token("number", float(int(raw, 16)), raw, line, pos - line_start + 1, newline))
            elif group == "block":
                end = src.find("*/", pos + 2)
                if end < 0:
                    raise TokenizeError("unterminated block comment", line, pos - line_start + 1)
                lines = _count_terminators(src, pos, end)
                if lines:
                    newline = True
                    line += lines
                    line_start = 1 + max(src.rfind(t, pos, end) for t in LINE_TERMINATORS)
                pos = end + 2
                continue
            elif group == "slash":
                if self._regex_allowed():
                    group = None
                else:
                    raw = m.group()
                    append(Token("punct", raw, raw, line, pos - line_start + 1, newline))
            elif group == "dot":
                append(Token("punct", ".", ".", line, pos - line_start + 1, newline))
            elif pos >= len(src):
                append(Token("eof", None, "", line, pos - line_start + 1, newline))
                return tokens
            if group is None:
                # Hand the cursor to the per-character readers and back.
                self.pos, self.line, self.line_start = pos, line, line_start
                token = self._read_token()
                token.newline_before = newline
                append(token)
                pos, line, line_start = self.pos, self.line, self.line_start
            else:
                pos = m.end()
            newline = False

    # -- internals ---------------------------------------------------------

    @property
    def _column(self) -> int:
        return self.pos - self.line_start + 1

    def _error(self, message: str) -> TokenizeError:
        return TokenizeError(message, self.line, self._column)

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _regex_allowed(self) -> bool:
        """Heuristic: may a ``/`` at the current position start a regex?

        A regex is allowed when the previous token cannot end an
        expression — i.e. after punctuation other than ``) ] }`` and
        postfix operators, after most keywords, or at the start of input.
        """
        if not self._tokens:
            return True
        prev = self._tokens[-1]
        if prev.kind in ("identifier", "number", "string", "regex"):
            return False
        if prev.kind == "keyword":
            # ``this`` and literal keywords end an expression.
            return prev.raw not in _NO_REGEX_AFTER_KEYWORD
        if prev.kind == "punct":
            return prev.raw not in _NO_REGEX_AFTER_PUNCT
        return True

    def _read_token(self) -> Token:
        """Read one token at the cursor, one character at a time."""
        ch = self.source[self.pos]
        if _is_identifier_start(ch):
            return self._read_identifier()
        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._read_number()
        if ch in "'\"":
            return self._read_string()
        if ch == "/" and self._regex_allowed():
            return self._read_regex()
        return self._read_punctuator()

    def _read_identifier(self) -> Token:
        start = self.pos
        line, column = self.line, self._column
        while self.pos < len(self.source) and _is_identifier_part(self.source[self.pos]):
            self.pos += 1
        raw = self.source[start : self.pos]
        if raw in _RESERVED_WORDS:
            return Token("keyword", raw, raw, line, column)
        return Token("identifier", raw, raw, line, column)

    def _read_number(self) -> Token:
        start = self.pos
        line, column = self.line, self._column
        src = self.source
        if src[self.pos] == "0" and self._peek(1) in ("x", "X"):
            self.pos += 2
            while self.pos < len(src) and src[self.pos] in "0123456789abcdefABCDEF":
                self.pos += 1
            raw = src[start : self.pos]
            if len(raw) == 2:
                raise self._error("invalid hex literal")
            return Token("number", float(int(raw, 16)), raw, line, column)
        while self.pos < len(src) and src[self.pos].isdigit():
            self.pos += 1
        if self._peek() == ".":
            self.pos += 1
            while self.pos < len(src) and src[self.pos].isdigit():
                self.pos += 1
        if self._peek() in "eE":
            mark = self.pos
            self.pos += 1
            if self._peek() in "+-":
                self.pos += 1
            if not self._peek().isdigit():
                self.pos = mark
            else:
                while self.pos < len(src) and src[self.pos].isdigit():
                    self.pos += 1
        raw = src[start : self.pos]
        try:
            value = float(raw)
        except ValueError:  # a digit ``float`` rejects, such as "²"
            raise TokenizeError("invalid number literal", line, column) from None
        return Token("number", value, raw, line, column)

    _ESCAPES = {
        "n": "\n",
        "t": "\t",
        "r": "\r",
        "b": "\b",
        "f": "\f",
        "v": "\v",
        "0": "\0",
        "'": "'",
        '"': '"',
        "\\": "\\",
        "/": "/",
    }

    def _read_string(self) -> Token:
        src = self.source
        quote = src[self.pos]
        start = self.pos
        line, column = self.line, self._column
        self.pos += 1
        parts: List[str] = []
        while True:
            if self.pos >= len(src):
                raise self._error("unterminated string literal")
            ch = src[self.pos]
            if ch == quote:
                self.pos += 1
                break
            if ch in LINE_TERMINATORS:
                raise self._error("unterminated string literal")
            if ch == "\\":
                self.pos += 1
                esc = self._peek()
                if esc == "":
                    raise self._error("unterminated string literal")
                if esc in LINE_TERMINATORS:  # line continuation; CRLF is one
                    if esc == "\r" and self._peek(1) == "\n":
                        self.pos += 1
                    self.pos += 1
                    self.line += 1
                    self.line_start = self.pos
                    continue
                if esc == "x":
                    hexpart = src[self.pos + 1 : self.pos + 3]
                    if len(hexpart) == 2 and all(c in "0123456789abcdefABCDEF" for c in hexpart):
                        parts.append(chr(int(hexpart, 16)))
                        self.pos += 3
                        continue
                    raise self._error("invalid \\x escape")
                if esc == "u":
                    hexpart = src[self.pos + 1 : self.pos + 5]
                    if len(hexpart) == 4 and all(c in "0123456789abcdefABCDEF" for c in hexpart):
                        parts.append(chr(int(hexpart, 16)))
                        self.pos += 5
                        continue
                    raise self._error("invalid \\u escape")
                parts.append(self._ESCAPES.get(esc, esc))
                self.pos += 1
                continue
            parts.append(ch)
            self.pos += 1
        raw = src[start : self.pos]
        return Token("string", "".join(parts), raw, line, column)

    def _read_regex(self) -> Token:
        src = self.source
        start = self.pos
        line, column = self.line, self._column
        self.pos += 1  # opening /
        in_class = False
        while True:
            if self.pos >= len(src) or src[self.pos] in LINE_TERMINATORS:
                raise self._error("unterminated regular expression")
            ch = src[self.pos]
            if ch == "\\":
                self.pos += 2
                continue
            if ch == "[":
                in_class = True
            elif ch == "]":
                in_class = False
            elif ch == "/" and not in_class:
                self.pos += 1
                break
            self.pos += 1
        pattern = src[start + 1 : self.pos - 1]
        flag_start = self.pos
        while self.pos < len(src) and _is_identifier_part(src[self.pos]):
            self.pos += 1
        flags = src[flag_start : self.pos]
        raw = src[start : self.pos]
        return Token("regex", (pattern, flags), raw, line, column)

    def _read_punctuator(self) -> Token:
        line, column = self.line, self._column
        for punct in PUNCTUATORS:
            if self.source.startswith(punct, self.pos):
                self.pos += len(punct)
                return Token("punct", punct, punct, line, column)
        raise self._error(f"unexpected character {self.source[self.pos]!r}")


def _count_terminators(src: str, start: int, end: int) -> int:
    """Line terminators in ``src[start:end]``, counting CRLF as one."""
    return (
        src.count("\n", start, end)
        + src.count("\r", start, end)
        - src.count("\r\n", start, end)
        + src.count("\u2028", start, end)
        + src.count("\u2029", start, end)
    )


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` into a token list terminated by an EOF token."""
    return Tokenizer(source).tokenize()
