"""Exception hierarchy shared by all cwkit modules, and the tokenizer of the
text grammars, which reports positions through ParseError.

The CLI maps these onto exit codes: InputError -> 2, CapacityError -> 3,
InvariantViolation -> 4.
"""

import re
from typing import Optional


class CwkitError(Exception):
    """Base class for all cwkit errors."""


class InputError(CwkitError):
    """Malformed input: bad graph data, bad arguments, violated preconditions."""


class ParseError(InputError):
    """Syntax error in one of the text formats, with a position."""

    def __init__(self, message: str, text: str = "", pos: int = -1):
        if pos >= 0:
            message = f"{message} (at position {pos}: {text[pos:pos + 12]!r})"
        super().__init__(message)
        self.pos = pos


class HypothesisError(InputError):
    """A stated numeric hypothesis (such as n > m+1) does not hold."""


class CapacityError(CwkitError):
    """The input exceeds a configured size cap for an exponential procedure.

    Raised instead of ever returning an approximate answer.
    """


class InvariantViolation(CwkitError):
    """An internal consistency guarantee failed; always a bug, never user error."""


_INT = re.compile(r"\d+")


class _Tokens:
    """The tokens of one input, as (kind, text, position) triples.

    Kinds: "int" (a run of digits), "word" (a match of ``word``), "kw" (a
    word listed in ``keywords``) and "sym" (one of ``symbols``, tried in
    order).  Whitespace separates tokens; any other character is a parse
    error.  ``noun`` names the input in the end-of-input error.
    """

    def __init__(
        self,
        text: str,
        symbols: tuple[str, ...],
        word: re.Pattern,
        keywords: tuple[str, ...] = (),
        noun: str = "input",
    ):
        self.text = text
        self.noun = noun
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            sym = next((s for s in symbols if text.startswith(s, pos)), None)
            if sym is not None:
                self.items.append(("sym", sym, pos))
                pos += len(sym)
            elif m := _INT.match(text, pos):
                self.items.append(("int", m.group(), pos))
                pos = m.end()
            elif m := word.match(text, pos):
                self.items.append(("kw" if m.group() in keywords else "word", m.group(), pos))
                pos = m.end()
            else:
                raise ParseError("unexpected character", text, pos)
        self.i = 0

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.items[self.i] if self.i < len(self.items) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of {self.noun}", self.text, len(self.text))
        self.i += 1
        return tok

    def expect(self, kind: str, value: Optional[str] = None) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError(f"expected {value or kind}", self.text, tok[2])
        return tok

    def build(self, pos: int, make, *args):
        """``make(*args)``, with the InputError of a rejected value raised as
        a ParseError at ``pos``."""
        try:
            return make(*args)
        except InputError as exc:
            raise ParseError(str(exc), self.text, pos) from None
