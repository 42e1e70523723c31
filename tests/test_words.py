import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singular_pi1.words as words
from singular_pi1 import (InputError, Presentation, ResourceError,
                          tietze_simplify)
from singular_pi1.words import (check_name, cyclic_key, cyclically_reduce,
                                inverse, power, reduce, substitute)
from support import (cyclic_key_reference, cyclically_reduced_reference,
                     power_reference)

A, B, C = 0, 1, 2


def w(*pairs):
    return reduce(pairs)


def test_free_reduction_merges_and_cancels():
    assert w((A, 1), (A, 1)) == ((A, 2),)
    assert w((A, 1), (A, -1)) == ()
    assert w((A, 1), (B, 1), (B, -1), (A, -1)) == ()
    assert w((A, 2), (A, -1)) == ((A, 1),)


def test_multiplication_and_inverse():
    u = w((A, 1), (B, 1))
    assert reduce(u + inverse(u)) == ()
    assert reduce(inverse(u) + u) == ()
    assert power(u, 3) == ((A, 1), (B, 1)) * 3
    assert power(u, -1) == inverse(u)
    assert power(u, 0) == ()


def test_power_of_a_one_syllable_core_multiplies_the_exponent():
    # b a^2 b^-1 to the n is b a^(2n) b^-1, for an n of any size
    u = w((B, 1), (A, 2), (B, -1))
    n = 10 ** 21 + 1
    assert power(u, n) == ((B, 1), (A, 2 * n), (B, -1))
    assert power(u, -n) == ((B, 1), (A, -2 * n), (B, -1))
    assert power(((A, -3),), n) == ((A, -3 * n),)
    for k in range(-3, 4):
        assert power(u, k) == power_reference(u, k)


def test_a_power_too_long_to_write_out_is_refused():
    # Tietze eliminates a = c b from a^(10^21), which writes c b out
    # 10^21 times
    with pytest.raises(ResourceError) as err:
        power(w((C, 1), (B, 1)), 10 ** 21)
    assert err.value.layer == "presentation"
    assert err.value.estimate == 2 * 10 ** 21
    with pytest.raises(ResourceError):
        tietze_simplify(Presentation(
            ["a", "b", "c"], [((A, 1), (B, -1), (C, -1)), ((A, 10 ** 21),),
                              ((B, 2),), ((C, 2),)]))


def test_a_power_out_of_memory_is_refused(monkeypatch):
    def full(word):
        raise MemoryError

    monkeypatch.setattr(words, "reduce", full)
    with pytest.raises(ResourceError) as err:
        power(((A, 1), (B, 1)), 3)
    assert err.value.layer == "presentation"


def test_cyclic_reduction_wraps_syllables():
    # a b a  ~  a^2 b after conjugation
    word = w((A, 1), (B, 1), (A, 1))
    assert cyclically_reduce(word) == ((A, 2), (B, 1))
    # conjugate of the identity
    word = w((A, 1), (B, 1), (B, -1), (A, -1))
    assert cyclically_reduce(word) == ()
    # a w a^-1 drops the conjugation
    word = w((A, 1), (B, 2), (A, -1))
    assert cyclically_reduce(word) == ((B, 2),)


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
        yield rng, reduce(core + middle + ends)


def test_power_and_cyclic_reduction_match_the_syllable_loops():
    for rng, word in _cancelling_words(11):
        assert cyclically_reduce(word) == cyclically_reduced_reference(word)
        n = rng.randint(-4, 4)
        assert power(word, n) == power_reference(word, n)


def test_cyclic_key_matches_the_rotation_list():
    for _, word in _cancelling_words(12):
        assert cyclic_key(word) == cyclic_key_reference(word)


def commutator(x, y):
    return w((x, 1), (y, 1), (x, -1), (y, -1))


@pytest.mark.parametrize("word", [
    # periodic words: every least syllable starts an equal rotation
    *(power(w((A, 1), (B, 1)), k) for k in (1, 2, 5)),
    *(power(commutator(A, B), k) for k in (1, 2, 4)),
    power(w((A, 1), (B, -1), (C, 2)), 3),
    # a least syllable that recurs, with different rotations after it
    w((A, 1), (B, 1), (A, 1), (C, 1)),
    w((A, 1), (C, 1), (A, 1), (B, 1), (A, 1), (B, -1)),
    w((A, -1), (B, 2), (A, -1), (B, 1)),
    # one syllable, with each sign
    *(w((g, e)) for g in (A, C) for e in (-3, -1, 1, 2)),
    # the least syllables of a word and its inverse tie
    w((A, -1), (B, 1), (A, 1), (C, 1)),
    w((A, -1), (B, 1), (A, 1), (B, -1)),
    w((A, 1), (B, 1), (A, -1), (B, 2)),
    w((A, -2), (B, 1), (A, 2), (B, -1)),
])
def test_cyclic_key_on_words_where_least_syllables_tie(word):
    for rotation in (word[i:] + word[:i] for i in range(len(word))):
        assert cyclic_key(rotation) == cyclic_key_reference(rotation)
        assert cyclic_key(inverse(rotation)) == cyclic_key_reference(word)


def test_cyclic_key_identifies_rotations_and_inverses():
    u = w((A, 1), (B, 1), (A, -1), (C, 1))
    rotated = w((C, 1), (A, 1), (B, 1), (A, -1))
    assert cyclic_key(u) == cyclic_key(rotated)
    assert cyclic_key(u) == cyclic_key(inverse(u))


def test_substitute_replaces_with_powers():
    mapping = {A: w((B, 1), (C, 1))}
    assert substitute(w((A, -1)), mapping) == ((C, -1), (B, -1))
    assert substitute(w((A, 2), (B, 1)), mapping) \
        == ((B, 1), (C, 1), (B, 1), (C, 1), (B, 1))


def test_symbol_parsing_round_trip():
    assert check_name("c1.F.v2") == "c1.F.v2"
    assert check_name("g") == "g"
    with pytest.raises(InputError, match="malformed namespace segment"):
        check_name(".g")
    with pytest.raises(InputError, match="malformed generator name"):
        check_name("bad name")
    with pytest.raises(InputError, match="malformed namespace segment"):
        check_name("a-b.g")


generators = st.sampled_from([A, B, C])
letters = st.tuples(generators, st.integers(-3, 3).filter(bool))
word_strategy = st.lists(letters, max_size=8).map(reduce)


@settings(max_examples=60, deadline=None)
@given(word_strategy)
def test_reduction_is_idempotent(word):
    assert reduce(word) == word


@settings(max_examples=60, deadline=None)
@given(word_strategy)
def test_word_times_inverse_is_identity(word):
    assert reduce(word + inverse(word)) == ()


@settings(max_examples=60, deadline=None)
@given(word_strategy)
def test_cyclic_reduction_fixed_point(word):
    reduced = cyclically_reduce(word)
    assert cyclically_reduce(reduced) == reduced
    if reduced:
        assert reduced[0][0] != reduced[-1][0] or len(reduced) == 1
