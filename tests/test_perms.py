"""The Sym(d) tables against the definitions of composition, inverse and
conjugacy."""

from math import factorial

import pytest

from singular_pi1.perms import compose, invert, table

PARTITIONS = (1, 1, 2, 3, 5, 7, 11)     # p(d) for d = 0..6


@pytest.mark.parametrize("d", range(7))
def test_table_matches_compose_and_invert(d):
    T = table(d)
    perms = T.perms
    assert perms[T.identity] == tuple(range(d))
    for a, p in enumerate(perms):
        assert [perms[x] for x in T.mul[a]] == [compose(p, q) for q in perms]
        assert perms[T.inv[a]] == invert(p)


@pytest.mark.parametrize("d", range(7))
def test_classes_are_the_conjugacy_classes(d):
    T = table(d)
    perms = T.perms
    assert len(T.classes) == PARTITIONS[d]
    assert sum(size for _, size in T.classes) == factorial(d)
    covered = set()
    for rep, size in T.classes:
        p = perms[rep]
        conjugates = {compose(compose(invert(g), p), g) for g in perms}
        assert len(conjugates) == size
        assert min(conjugates) == p         # the first in ``perms``
        covered |= conjugates
    assert len(covered) == factorial(d)
