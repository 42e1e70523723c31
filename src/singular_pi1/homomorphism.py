"""Homomorphisms between concrete groups, given by generator images.

A ``Homo`` maps the canonical generators of its source ``GroupSpec`` to
words over the canonical generators of its target ``GroupSpec``:
``images[i]`` is the image of source generator ``i``.  It is checked on
construction: every source generator has exactly one image, every image
uses declared target generators only, and every source relator
evaluates to the identity of the target, over the permutations the
images evaluate to, each image once (``perms.evaluate``).  An image's
exponent larger in absolute value than the order of its generator is
reduced modulo that order, keeping its sign, so a map costs what its
smallest exponents cost: a power of a long word written out by Tietze
stays short.
"""

from .errors import InputError
from .groups import GroupSpec
from .perms import evaluate
from .words import reduce, render


class Homo:
    def __init__(self, source, target, images):
        self.source, self.target = source, target
        for side in (source, target):
            if not isinstance(side, GroupSpec):
                raise InputError(f"expected a GroupSpec, got {side!r}")
        names = source.canonical_presentation.generators
        images = tuple(images)
        if len(images) != len(names):
            detail = (f"missing images for {sorted(names[len(images):])}"
                      if len(images) < len(names) else
                      f"images for undeclared "
                      f"{list(range(len(names), len(images)))}")
            raise InputError("invalid homomorphism: " + detail)
        n_dst = len(target.canonical_presentation.generators)
        for name, w in zip(names, images):
            if not isinstance(w, tuple):
                raise InputError(f"image of {name} is not a word")
            bad = {g for g, _ in w if not 0 <= g < n_dst}
            if bad:
                raise InputError(
                    f"image of {name} uses undeclared target generators: "
                    f"{sorted(bad)}")
        self.images = tuple(reduce(_within_orders(w, target))
                            for w in images)
        values = [target.evaluate(w) for w in self.images]
        one = target.identity_element
        for r in source.canonical_presentation.relators:
            if evaluate(r, values, one) != one:
                raise InputError(
                    f"invalid homomorphism: relator {render(r, names)} "
                    f"maps to a non-trivial element")

    @classmethod
    def trivial(cls, source, target):
        return cls(source, target,
                   ((),) * len(source.canonical_presentation.generators))


def _within_orders(word, target):
    """``word`` with every exponent ``e`` on a generator of order ``k <
    |e|`` replaced by the one of the same sign and ``|e| mod k``."""
    out = []
    for g, e in word:
        if e > 1 or e < -1:
            k = target.generator_order(g)
            if abs(e) > k:
                e = e % k if e > 0 else -(-e % k)
        out.append((g, e))
    return out
