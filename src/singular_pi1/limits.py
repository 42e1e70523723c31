"""Configurable enumeration bounds.

Every exhaustive search in the package is gated by one of these three
numbers.  The defaults keep all bundled computations in the seconds
range; raise them at your own risk.
"""

from collections import namedtuple


class Limits(namedtuple("Limits", "order_bound degree_bound ceiling",
                        defaults=(5040, 5, 10 ** 8))):
    """Three bounds, frozen, compared and hashed by value: the largest
    allowed finite group order, the largest symmetric-group degree for
    counting, and the largest admissible estimated work."""

    __slots__ = ()

    def replace(self, **kw):
        return self._replace(**kw)


DEFAULT_LIMITS = Limits()
