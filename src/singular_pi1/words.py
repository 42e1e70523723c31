"""Freely reduced words over integer generators, and generator names.

A word is a tuple of ``(generator, exponent)`` syllables, a generator
being an index into the generator names of a presentation.  Words are
kept freely reduced: exponents are non-zero and adjacent syllables carry
distinct generators.  The functions below take and return such tuples.

A generator name is ``"name"`` or ``"ns.name"`` with a dotted namespace;
the constructions that copy a presentation into a larger one prefix one
namespace tag per copy.  Names are checked once, where they enter the
package (``check_name``), and are only rendered after that.
"""

import re
import sys

from .errors import InputError, ResourceError

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_TAG_RE = re.compile(r"^[A-Za-z0-9_]+$")


def check_name(text):
    """Check a generator name and return it."""
    ns, dot, name = text.rpartition(".")
    if not _NAME_RE.match(name):
        raise InputError(f"malformed generator name: {name!r}")
    if dot:
        for seg in ns.split("."):
            if not _TAG_RE.match(seg):
                raise InputError(f"malformed namespace segment: {seg!r}")
    return text


def reduce(syllables):
    """Merge adjacent equal generators and drop zero exponents."""
    out = []
    for g, e in syllables:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            e2 = out[-1][1] + e
            out.pop()
            if e2:
                out.append((g, e2))
        else:
            out.append((g, e))
    return tuple(out)


def inverse(word):
    return tuple((g, -e) for g, e in reversed(word))


def power(word, n):
    """``word`` to the ``n``-th power.  A word ``u g^e u^-1`` whose cyclic
    core is one syllable has the power ``u g^(e n) u^-1``, so its
    exponent may be of any size; any other word is repeated ``n``
    times, and a power that is longer than a tuple can be, or that does
    not fit in memory, raises ``ResourceError``."""
    if n < 0:
        word, n = inverse(word), -n
    i, j = 0, len(word) - 1
    while i < j and word[j] == (word[i][0], -word[i][1]):
        i, j = i + 1, j - 1
    if i == j:
        g, e = word[i]
        return word[:i] + ((g, e * n),) + word[j + 1:] if n else ()
    length = len(word) * n
    if length > sys.maxsize:
        raise ResourceError(
            f"power length {length} exceeds the longest tuple, "
            f"{sys.maxsize}", estimate=length, ceiling=sys.maxsize,
            layer="presentation")
    try:
        return reduce(word * n)
    except MemoryError:
        raise ResourceError(f"power length {length} does not fit in memory",
                            estimate=length,
                            layer="presentation") from None


def cyclically_reduce(word):
    """Conjugate away matching first/last syllables.

    Inside a freely reduced word the first syllable that does not
    cancel against the last one ends the reduction: its merged
    syllable and the middle differ at both ends.
    """
    i, j = 0, len(word) - 1
    while i < j and word[i][0] == word[j][0]:
        g, e1 = word[i]
        e = e1 + word[j][1]
        if e:
            return ((g, e),) + word[i + 1:j]
        i, j = i + 1, j - 1
    return word[i:j + 1]


def substitute(word, mapping):
    """Rewrite ``word`` sending each generator in ``mapping`` to its word.

    Generators not in ``mapping`` are kept as themselves.
    """
    out = []
    for g, e in word:
        repl = mapping.get(g)
        if repl is None:
            out.append((g, e))
        else:
            out.extend(power(repl, e))
    return reduce(out)


def shift(word, offset):
    """``word`` with every generator moved up by ``offset``."""
    return tuple((g + offset, e) for g, e in word)


def render(word, names):
    """``word`` as text over ``names``, ``e`` for the identity."""
    if not word:
        return "e"
    return "*".join(names[g] if e == 1 else f"{names[g]}^{e}"
                    for g, e in word)


def cyclic_key(word):
    """Canonical key identifying a cyclic word up to rotation and inversion:
    the least rotation of the cyclically reduced word or of its inverse.

    The inverse of a cyclically reduced word is cyclically reduced.  A
    least rotation starts at a least syllable, so only the rotations
    that start at the least syllable of either side are built, and of
    one side only when its least syllable is strictly smaller.
    """
    word = cyclically_reduce(word)
    if len(word) == 1:
        # about two keys in five that Tietze builds on the S3/C2
        # families' dévissage raw presentations; the general path costs
        # six times as much here
        (g, e), = word
        return ((g, -abs(e)),)
    if not word:
        return word
    inv = inverse(word)
    m, m_inv = min(word), min(inv)
    sides = (word,) if m < m_inv else (inv,) if m_inv < m else (word, inv)
    m = min(m, m_inv)
    return min(w[i:] + w[:i] for w in sides
               for i, x in enumerate(w) if x == m)
