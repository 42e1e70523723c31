import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singular_pi1 import InputError, Word, sym
from singular_pi1.words import cyclic_key, free_reduce, substitute
from support import (cyclic_key_reference, cyclically_reduced_reference,
                     power_reference)

A, B, C = sym("a"), sym("b"), sym("c")


def w(*pairs):
    return Word(tuple(pairs))


def test_free_reduction_merges_and_cancels():
    assert w((A, 1), (A, 1)).letters == ((A, 2),)
    assert w((A, 1), (A, -1)).letters == ()
    assert w((A, 1), (B, 1), (B, -1), (A, -1)).letters == ()
    assert w((A, 2), (A, -1)).letters == ((A, 1),)


def test_multiplication_and_inverse():
    u = w((A, 1), (B, 1))
    assert (u * u.inverse()).is_identity()
    assert (u.inverse() * u).is_identity()
    assert (u ** 3).length() == 6
    assert (u ** -1) == u.inverse()
    assert (u ** 0).is_identity()


def test_cyclic_reduction_wraps_syllables():
    # a b a  ~  a^2 b after conjugation
    word = w((A, 1), (B, 1), (A, 1))
    assert word.cyclically_reduced().letters == ((A, 2), (B, 1))
    # conjugate of the identity
    word = w((A, 1), (B, 1), (B, -1), (A, -1))
    assert word.cyclically_reduced().is_identity()
    # a w a^-1 drops the conjugation
    word = w((A, 1), (B, 2), (A, -1))
    assert word.cyclically_reduced().letters == ((B, 2),)


def _cancelling_words(seed, count=500):
    rng = random.Random(seed)
    for _ in range(count):
        # palindromic cores make long cancelling ends
        core = [(rng.choice((A, B, C)), rng.choice((-2, -1, 1, 2)))
                for _ in range(rng.randint(0, 6))]
        ends = [(s, -e) for s, e in reversed(core)] if rng.random() < 0.5 \
            else core[::-1]
        middle = [(rng.choice((A, B, C)), rng.choice((-1, 1)))
                  for _ in range(rng.randint(0, 3))]
        yield rng, Word(tuple(core + middle + ends))


def test_power_and_cyclic_reduction_match_the_syllable_loops():
    for rng, word in _cancelling_words(11):
        assert word.cyclically_reduced().letters \
            == cyclically_reduced_reference(word).letters
        n = rng.randint(-4, 4)
        assert (word ** n).letters == power_reference(word, n).letters


def test_cyclic_key_matches_the_rotation_list():
    for _, word in _cancelling_words(12):
        assert cyclic_key(word) == cyclic_key_reference(word)


def test_cyclic_key_identifies_rotations_and_inverses():
    u = w((A, 1), (B, 1), (A, -1), (C, 1))
    rotated = w((C, 1), (A, 1), (B, 1), (A, -1))
    assert cyclic_key(u) == cyclic_key(rotated)
    assert cyclic_key(u) == cyclic_key(u.inverse())


def test_substitute_replaces_with_powers():
    mapping = {A: w((B, 1), (C, 1))}
    out = substitute(w((A, -1)), mapping)
    assert out.letters == ((C, -1), (B, -1))


def test_symbol_parsing_round_trip():
    s = sym("c1.F.v2")
    assert s.namespace == "c1.F" and s.name == "v2"
    assert sym(s.qualified()) == s
    with pytest.raises(InputError):
        sym("bad name")


symbols = st.sampled_from([A, B, C])
letters = st.tuples(symbols, st.integers(-3, 3).filter(bool))
word_strategy = st.lists(letters, max_size=8).map(lambda ls: Word(tuple(ls)))


@settings(max_examples=60, deadline=None)
@given(word_strategy)
def test_reduction_is_idempotent(word):
    assert Word(word.letters).letters == word.letters
    assert free_reduce(word.letters) == word.letters


@settings(max_examples=60, deadline=None)
@given(word_strategy)
def test_word_times_inverse_is_identity(word):
    assert (word * word.inverse()).is_identity()


@settings(max_examples=60, deadline=None)
@given(word_strategy)
def test_cyclic_reduction_fixed_point(word):
    reduced = word.cyclically_reduced()
    assert reduced.cyclically_reduced() == reduced
    if reduced.letters:
        assert reduced.letters[0][0] != reduced.letters[-1][0] \
            or len(reduced.letters) == 1
