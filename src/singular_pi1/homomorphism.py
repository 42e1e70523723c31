"""Homomorphisms between concrete groups, given by generator images.

A ``Homo`` maps the canonical generators of its source ``GroupSpec`` to
words over the canonical generators of its target ``GroupSpec``:
``images[i]`` is the image of source generator ``i``.  It is checked on
construction: every source generator has exactly one image, every image
uses declared target generators only, and every source relator
evaluates to the identity of the target.
"""

from .errors import InputError
from .groups import GroupSpec
from .words import reduce, render, substitute


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
        self.images = tuple(map(reduce, images))
        by_generator = dict(enumerate(self.images))
        for r in source.canonical_presentation.relators:
            value = target.evaluate(substitute(r, by_generator))
            if value != target.identity_element:
                raise InputError(
                    f"invalid homomorphism: relator {render(r, names)} "
                    f"maps to a non-trivial element")

    @classmethod
    def trivial(cls, source, target):
        return cls(source, target,
                   ((),) * len(source.canonical_presentation.generators))
