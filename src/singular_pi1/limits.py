"""Configurable enumeration bounds.

Every exhaustive search in the package is gated by one of these three
numbers.  The defaults keep all bundled computations in the seconds
range; raise them at your own risk.
"""

import dataclasses


@dataclasses.dataclass(frozen=True)
class Limits:
    order_bound: int = 5040      # largest allowed finite group order
    degree_bound: int = 5        # largest symmetric-group degree for counting
    ceiling: int = 10 ** 8       # largest admissible estimated work

    def replace(self, **kw):
        return dataclasses.replace(self, **kw)


DEFAULT_LIMITS = Limits()
