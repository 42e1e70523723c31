"""Configurable enumeration bounds, and the checks that gate work on them.

Every exhaustive search in the package is gated by one of these three
numbers, through the checks below: each refusal is a ``ResourceError``
that names the layer that refused, its estimate and the bound it
exceeded.  The defaults keep all bundled computations in the seconds
range; raise them at your own risk.
"""

from collections import namedtuple

from .errors import ResourceError


class Limits(namedtuple("Limits", "order_bound degree_bound ceiling",
                        defaults=(5040, 5, 10 ** 8))):
    """Three bounds, frozen, compared and hashed by value: the largest
    allowed finite group order, the largest symmetric-group degree for
    counting, and the largest admissible estimated work."""

    __slots__ = ()

    def replace(self, **kw):
        return self._replace(**kw)

    def charge(self, work, what, layer):
        """Refuse ``work``, the estimate ``what`` of ``layer``, when it
        exceeds the ceiling."""
        if work > self.ceiling:
            raise ResourceError(
                f"{what} {work} exceeds ceiling {self.ceiling}",
                estimate=work, ceiling=self.ceiling, layer=layer)

    def check_degree(self, d, layer):
        """Refuse the degree ``d`` in ``layer`` when it exceeds the
        degree bound."""
        if d > self.degree_bound:
            raise ResourceError(
                f"degree {d} exceeds the configured bound "
                f"{self.degree_bound}",
                estimate=d, ceiling=self.degree_bound, layer=layer)

    def check_order(self, order):
        """Refuse a group of ``order`` elements when it exceeds the order
        bound."""
        if order > self.order_bound:
            raise ResourceError(
                f"group order {order} exceeds bound {self.order_bound}",
                estimate=order, ceiling=self.order_bound, layer="groups")


DEFAULT_LIMITS = Limits()
