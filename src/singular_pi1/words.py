"""Generator symbols and freely reduced words.

A generator symbol is a ``(namespace, name)`` pair.  Namespaces are
dot-separated tags allocated by the constructions that copy
presentations into larger ones; user-declared generators live in the
empty namespace.  A word is a sequence of ``(symbol, exponent)``
syllables kept in freely reduced form: exponents are non-zero and
adjacent syllables carry distinct symbols.
"""

import re
from typing import NamedTuple

from .errors import InputError

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_TAG_RE = re.compile(r"^[A-Za-z0-9_]+$")


class GeneratorSymbol(NamedTuple):
    namespace: str
    name: str

    def qualified(self):
        return self.name if not self.namespace else f"{self.namespace}.{self.name}"

    def __str__(self):
        return self.qualified()


def check_symbol(s):
    if not isinstance(s, GeneratorSymbol):
        raise InputError(f"not a generator symbol: {s!r}")
    if not _NAME_RE.match(s.name):
        raise InputError(f"malformed generator name: {s.name!r}")
    if s.namespace:
        for seg in s.namespace.split("."):
            if not _TAG_RE.match(seg):
                raise InputError(f"malformed namespace segment: {seg!r}")
    return s


def check_tag(tag):
    if not _TAG_RE.match(tag):
        raise InputError(f"malformed namespace tag: {tag!r}")
    return tag


def sym(text):
    """Parse ``"ns.name"`` (namespace may be empty or dotted)."""
    if "." in text:
        ns, name = text.rsplit(".", 1)
    else:
        ns, name = "", text
    return check_symbol(GeneratorSymbol(ns, name))


def retag_symbol(s, tag):
    ns = tag if not s.namespace else f"{tag}.{s.namespace}"
    return GeneratorSymbol(ns, s.name)


def free_reduce(pairs):
    """Merge adjacent equal symbols and drop zero exponents."""
    out = []
    for s, e in pairs:
        if e == 0:
            continue
        if out and out[-1][0] == s:
            e2 = out[-1][1] + e
            out.pop()
            if e2:
                out.append((s, e2))
        else:
            out.append((s, e))
    return tuple(out)


class Word:
    """A freely reduced word in some set of generator symbols."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = free_reduce(letters)

    @classmethod
    def identity(cls):
        return cls(())

    @classmethod
    def gen(cls, symbol, exponent=1):
        return cls(((symbol, exponent),))

    def __mul__(self, other):
        return Word(self.letters + other.letters)

    def inverse(self):
        return Word(tuple((s, -e) for s, e in reversed(self.letters)))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.letters * n)

    def symbols(self):
        return {s for s, _ in self.letters}

    def length(self):
        return sum(abs(e) for _, e in self.letters)

    def is_identity(self):
        return not self.letters

    def cyclically_reduced(self):
        """Conjugate away matching first/last syllables.

        Inside a freely reduced word the first syllable that does not
        cancel against the last one ends the reduction: its merged
        syllable and the middle differ at both ends.
        """
        letters = self.letters
        i, j = 0, len(letters) - 1
        while i < j and letters[i][0] == letters[j][0]:
            s, e1 = letters[i]
            e = e1 + letters[j][1]
            if e:
                return Word(((s, e),) + letters[i + 1:j])
            i, j = i + 1, j - 1
        return Word(letters[i:j + 1])

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        if not self.letters:
            return "e"
        parts = []
        for s, e in self.letters:
            parts.append(s.qualified() if e == 1 else f"{s.qualified()}^{e}")
        return "*".join(parts)


def substitute(word, mapping):
    """Rewrite ``word`` sending each mapped symbol to a replacement word.

    Unmapped symbols are kept as themselves.
    """
    out = []
    for s, e in word.letters:
        repl = mapping.get(s)
        if repl is None:
            out.append((s, e))
        else:
            out.extend((repl ** e).letters)
    return Word(tuple(out))


def rename(word, symbol_map):
    """Rewrite ``word`` through a symbol-to-symbol dictionary."""
    return Word(tuple((symbol_map.get(s, s), e) for s, e in word.letters))


def _least_rotation(letters):
    if not letters:
        return letters
    return min(letters[i:] + letters[:i] for i in range(len(letters)))


def cyclic_key(word):
    """Canonical key identifying a cyclic word up to rotation and inversion.

    The inverse of a cyclically reduced word is cyclically reduced, so
    its syllables are built directly, without another ``Word``.
    """
    letters = word.cyclically_reduced().letters
    inverse = tuple((s, -e) for s, e in reversed(letters))
    return min(_least_rotation(letters), _least_rotation(inverse))
