"""A small SQL lexer.

Produces a flat list of :class:`Token` objects.  The lexer is case-insensitive
for keywords and identifiers (both are lower-cased, matching the behaviour of
the paper's Postgres backend for unquoted identifiers) and preserves string
literals verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ParseError

KEYWORDS = frozenset(
    {
        "select",
        "from",
        "where",
        "group",
        "by",
        "having",
        "order",
        "limit",
        "as",
        "and",
        "or",
        "not",
        "join",
        "inner",
        "on",
        "between",
        "is",
        "null",
        "asc",
        "desc",
        "distinct",
        "insert",
        "into",
        "values",
        "delete",
        "update",
        "set",
        "in",
        "like",
    }
)

_PUNCTUATION = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    "*": "STAR",
    "+": "PLUS",
    "-": "MINUS",
    "/": "SLASH",
    "%": "PERCENT",
    ";": "SEMICOLON",
}


@dataclass(frozen=True)
class Token:
    """A lexical token with its type, normalised value and input position."""

    type: str
    value: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        """Whether this token is a keyword (one of ``names`` when given)."""
        if self.type != "KEYWORD":
            return False
        return not names or self.value in names


def tokenize(text: str) -> list[Token]:
    """Tokenise ``text`` into a list of tokens (terminated by an EOF token)."""
    tokens: list[Token] = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and i + 1 < length and text[i + 1] == "-":
            # Line comment.
            while i < length and text[i] != "\n":
                i += 1
            continue
        if ch in _PUNCTUATION:
            tokens.append(Token(_PUNCTUATION[ch], ch, i))
            i += 1
            continue
        if ch in "<>!=":
            start = i
            if text[i : i + 2] in ("<=", ">=", "<>", "!="):
                op = text[i : i + 2]
                i += 2
            else:
                op = ch
                i += 1
            if op == "!":
                raise ParseError("unexpected character '!'", start)
            tokens.append(Token("OP", op, start))
            continue
        if ch == "'":
            start = i
            i += 1
            chars: list[str] = []
            while i < length:
                if text[i] == "'":
                    if i + 1 < length and text[i + 1] == "'":
                        chars.append("'")
                        i += 2
                        continue
                    break
                chars.append(text[i])
                i += 1
            if i >= length:
                raise ParseError("unterminated string literal", start)
            i += 1
            tokens.append(Token("STRING", "".join(chars), start))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < length and text[i + 1].isdigit()):
            start = i
            while i < length and (text[i].isdigit() or text[i] == "."):
                i += 1
            if i < length and text[i] in "eE":
                # An exponent: ``e``, an optional sign and at least one digit.
                i += 1
                if i < length and text[i] in "+-":
                    i += 1
                digits = i
                while i < length and text[i].isdigit():
                    i += 1
                if i == digits:
                    raise ParseError(f"malformed number {text[start:i]!r}", start)
            value = text[start:i]
            if value.count(".") > 1 or (i < length and (text[i].isalpha() or text[i] == "_")):
                # A name never starts with a digit: ``3abc`` is one bad token,
                # not the number 3 aliased ``abc``.
                raise ParseError(f"malformed number {text[start : i + 1]!r}", start)
            tokens.append(Token("NUMBER", value, start))
            continue
        if ch.isalpha() or ch == "_" or ch == '"':
            start = i
            if ch == '"':
                i += 1
                while i < length and text[i] != '"':
                    i += 1
                if i >= length:
                    raise ParseError("unterminated quoted identifier", start)
                word = text[start + 1 : i]
                i += 1
                tokens.append(Token("IDENT", word, start))
                continue
            while i < length and (text[i].isalnum() or text[i] in "_."):
                i += 1
            word = text[start:i]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append(Token("KEYWORD", lowered, start))
            else:
                tokens.append(Token("IDENT", lowered, start))
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token("EOF", "", length))
    return tokens
