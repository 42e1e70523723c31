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


@pytest.mark.parametrize("d", range(7))
def test_conjugations_are_by_a_cycle_and_a_transposition(d):
    T = table(d)
    gens = [tuple(range(1, d)) + (0,), (1, 0) + tuple(range(2, d))] \
        if d >= 2 else []
    assert len(T.conjugations) == len(gens)
    for g, conj in zip(gens, T.conjugations):
        assert [T.perms[y] for y in conj] \
            == [compose(compose(invert(g), p), g) for p in T.perms]


@pytest.mark.parametrize("d", range(7))
def test_order_matches_powering_to_the_identity(d):
    T = table(d)
    for x in range(T.size):
        k, y = 1, x
        while y != T.identity:
            k, y = k + 1, T.mul[y][x]
        assert T.order[x] == k
        assert T.exponent % k == 0


@pytest.mark.parametrize("d", range(7))
def test_reduced_exponents_give_the_same_powers(d):
    T = table(d)
    for e in (-10 ** 21 - 1, -7, -1, 0, 1, 5, 12, 10 ** 21 + 1):
        f = T.reduce_exponent(e)
        assert -T.exponent < 2 * f <= T.exponent
        for x in range(T.size):
            # x^e depends on e modulo the order of x
            assert (e - f) % T.order[x] == 0


def _power(T, x, e):
    """``x^e`` by repeated squaring, with no use of element orders."""
    if e < 0:
        x, e = T.inv[x], -e
    acc = T.identity
    while e:
        if e & 1:
            acc = T.mul[acc][x]
        x, e = T.mul[x][x], e >> 1
    return acc


@pytest.mark.parametrize("d", range(7))
def test_dividing_matches_powering_to_the_identity(d):
    T = table(d)
    for e in (0, 1, -1, 2, 3, 4, 6, 12, 60, 10 ** 21 + 1):
        assert T.dividing(e) == tuple(
            x for x in range(T.size) if _power(T, x, e) == T.identity)
