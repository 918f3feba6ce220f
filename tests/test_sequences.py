import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from z2schur.errors import InvalidLength, LengthMismatch, NotCoprime
from z2schur.sequences import (
    BinarySequence,
    all_sequences,
    divisors,
    make_sequence,
    sign_rows,
    units,
)
from helpers import str_decimate, str_negate, str_product, str_reverse, str_rotate

signs = st.text(alphabet="+-", min_size=1, max_size=40)


@given(signs)
def test_render_roundtrip(s):
    assert str(make_sequence(s)) == s


@given(signs)
def test_weight_counts_plus_signs(s):
    assert make_sequence(s).weight == s.count("+")


def test_ordering_is_lexicographic():
    seqs = sorted(all_sequences(4))
    rendered = [str(x) for x in seqs]
    assert rendered == sorted(rendered)
    assert rendered[0] == "++++"
    assert rendered[-1] == "----"


def test_identity_is_all_plus():
    e = BinarySequence.identity(5)
    assert str(e) == "+++++" and e.weight == 5
    x = make_sequence("+-+-+")
    assert x * e == x
    assert x * x == e


@given(signs, st.integers(0, 80))
def test_rotate_matches_string_oracle(s, i):
    assert str(make_sequence(s).rotate(i)) == str_rotate(s, i)


@given(signs)
def test_reverse_matches_string_oracle(s):
    assert str(make_sequence(s).reverse()) == str_reverse(s)


@given(signs)
def test_negate_matches_string_oracle(s):
    assert str(-make_sequence(s)) == str_negate(s)


@given(st.integers(1, 30), st.data())
def test_decimate_matches_string_oracle(n, data):
    s = data.draw(st.text(alphabet="+-", min_size=n, max_size=n))
    r = data.draw(st.sampled_from(units(n)))
    assert str(make_sequence(s).decimate(r)) == str_decimate(s, r)


@given(signs, signs)
def test_product_matches_string_oracle(s, t):
    if len(s) != len(t):
        with pytest.raises(LengthMismatch):
            make_sequence(s) * make_sequence(t)
    else:
        assert str(make_sequence(s) * make_sequence(t)) == str_product(s, t)


@given(signs)
def test_full_rotation_is_identity(s):
    x = make_sequence(s)
    assert x.rotate(len(s)) == x
    assert x.reverse().reverse() == x


@given(st.integers(1, 20), st.data())
def test_decimations_compose_multiplicatively(n, data):
    s = data.draw(st.text(alphabet="+-", min_size=n, max_size=n))
    r = data.draw(st.sampled_from(units(n)))
    t = data.draw(st.sampled_from(units(n)))
    x = make_sequence(s)
    assert x.decimate(r).decimate(t) == x.decimate((r * t) % n)


@given(st.integers(1, 20), st.data())
def test_reversal_conjugates_rotation(n, data):
    s = data.draw(st.text(alphabet="+-", min_size=n, max_size=n))
    x = make_sequence(s)
    assert x.rotate(1).reverse() == x.reverse().rotate(n - 1)


@given(st.integers(1, 20), st.data())
def test_rotation_commutes_past_decimation(n, data):
    s = data.draw(st.text(alphabet="+-", min_size=n, max_size=n))
    r = data.draw(st.sampled_from(units(n)))
    i = data.draw(st.integers(0, n - 1))
    x = make_sequence(s)
    assert x.decimate(r).rotate(i) == x.rotate((i * r) % n).decimate(r)


def test_decimation_requires_coprime_multiplier():
    with pytest.raises(NotCoprime):
        make_sequence("+-+-+-").decimate(2)


def test_length_limits():
    with pytest.raises(InvalidLength):
        make_sequence("")
    with pytest.raises(InvalidLength):
        BinarySequence(300, 0)
    with pytest.raises(InvalidLength):
        make_sequence("+x-")


def test_units_and_divisors():
    assert units(12) == (1, 5, 7, 11)
    assert all(math.gcd(r, 30) == 1 for r in units(30))
    assert len(units(30)) == 8
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert units(1) == (1,)


def test_concat_blocks_places_first_block_first():
    from z2schur.sequences import concat_blocks

    joined = concat_blocks([make_sequence("+-"), make_sequence("--")])
    assert str(joined) == "+---"
    with pytest.raises(LengthMismatch):
        concat_blocks([make_sequence("+-"), make_sequence("+")])


def test_all_sequences_is_complete_and_ordered():
    seqs = list(all_sequences(3))
    assert len(seqs) == 8
    assert len(set(seqs)) == 8
    assert [x.bits for x in seqs] == list(range(8))


@given(st.integers(1, 256), st.data())
def test_sign_rows_reads_positions_left_to_right(n, data):
    row = st.text(alphabet="+-", min_size=n, max_size=n)
    rows = data.draw(st.lists(row, max_size=4))
    got = sign_rows([make_sequence(t).bits for t in rows], n)
    assert got.shape == (len(rows), n)
    assert got.tolist() == [[1.0 if c == "+" else -1.0 for c in t] for t in rows]
