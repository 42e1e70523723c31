"""Homomorphisms between concrete groups, given by generator images.

A ``Homo`` maps the canonical generators of its source ``GroupSpec`` to
words over the canonical generators of its target ``GroupSpec``.  It is
checked on construction: every source generator has exactly one image,
every image uses declared target generators only, and every source
relator evaluates to the identity of the target.
"""

from dataclasses import dataclass

from .errors import InputError
from .groups import GroupSpec
from .words import Word, substitute


@dataclass
class Homo:
    source: GroupSpec
    target: GroupSpec
    images: dict

    def __post_init__(self):
        for side in (self.source, self.target):
            if not isinstance(side, GroupSpec):
                raise InputError(f"expected a GroupSpec, got {side!r}")
        src = self.source.canonical_presentation
        given = set(self.images)
        declared = set(src.generators)
        if given != declared:
            missing = declared - given
            extra = given - declared
            detail = []
            if missing:
                detail.append(f"missing images for {sorted(map(str, missing))}")
            if extra:
                detail.append(f"images for undeclared {sorted(map(str, extra))}")
            raise InputError("invalid homomorphism: " + "; ".join(detail))
        dst_gens = set(self.target.canonical_presentation.generators)
        for g, w in self.images.items():
            if not isinstance(w, Word):
                raise InputError(f"image of {g} is not a Word")
            bad = w.symbols() - dst_gens
            if bad:
                raise InputError(
                    f"image of {g} uses undeclared target generators: "
                    f"{sorted(map(str, bad))}")
        for r in src.relators:
            value = self.target.evaluate(substitute(r, self.images))
            if value != self.target.identity_element:
                raise InputError(
                    f"invalid homomorphism: relator {r} maps to a "
                    f"non-trivial element")

    @classmethod
    def trivial(cls, source, target):
        return cls(source, target,
                   {g: Word.identity()
                    for g in source.canonical_presentation.generators})
