import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from z2schur.errors import InvalidLength, LengthMismatch, NotCoprime, ScaleExceeded
from z2schur.sequences import (
    BinarySequence,
    bit_columns,
    decimation_perm,
    divisors,
    fixed_words,
    make_sequence,
    pack_columns,
    permute_bits,
    permute_bits_array,
    reversal_perm,
    rotate_bits_array,
    sign_rows,
    units,
)
from helpers import (
    str_decimate,
    str_negate,
    str_permute,
    str_product,
    str_reverse,
    str_rotate,
)

signs = st.text(alphabet="+-", min_size=1, max_size=40)


@given(signs)
def test_render_roundtrip(s):
    assert str(make_sequence(s)) == s


@given(signs)
def test_weight_counts_plus_signs(s):
    assert make_sequence(s).weight == s.count("+")


def test_ordering_is_lexicographic():
    seqs = sorted(BinarySequence(4, bits) for bits in range(16))
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


def _fixed_by_string(n, image_of):
    # Packed words whose string s satisfies image_of(s) == s, and those
    # with image_of(s) == str_negate(s), by brute force over all words.
    fixed, negated = [], []
    for bits in range(1 << n):
        s = str(BinarySequence(n, bits))
        t = image_of(s)
        if t == s:
            fixed.append(bits)
        if t == str_negate(s):
            negated.append(bits)
    return fixed, negated


def _assert_fixed_words(n, perm, fixed, negated):
    for flag, want in ((False, fixed), (True, negated)):
        got = fixed_words(n, perm, negated=flag)
        assert got.dtype == np.uint64
        assert got.tolist() == want, (n, perm, flag)


def test_fixed_words_of_reversal_match_string_oracle():
    for n in range(1, 13):
        fixed, negated = _fixed_by_string(n, str_reverse)
        assert len(fixed) == 1 << (n + 1) // 2
        assert len(negated) == (0 if n % 2 else 1 << n // 2)
        _assert_fixed_words(n, reversal_perm(n), fixed, negated)


def test_fixed_words_of_decimations_match_string_oracle():
    for n in range(1, 13):
        for r in units(n):
            fixed, negated = _fixed_by_string(n, lambda s: str_decimate(s, r))
            assert not negated  # d_r fixes position 0
            _assert_fixed_words(n, decimation_perm(n, r), fixed, negated)
    with pytest.raises(ScaleExceeded):
        fixed_words(23, decimation_perm(23, 1))


@given(st.integers(1, 9).flatmap(lambda n: st.permutations(range(n))))
def test_fixed_words_of_any_permutation(perm):
    n = len(perm)
    fixed, negated = _fixed_by_string(n, lambda s: "".join(s[p] for p in perm))
    _assert_fixed_words(n, tuple(perm), fixed, negated)


def _oracle_perms(n, rng):
    # Three seeded shuffles, the reversal and every decimation, each built
    # here from its definition.
    perms = [tuple(rng.sample(range(n), n)) for _ in range(3)]
    perms.append(tuple(range(n - 1, -1, -1)))
    perms += [tuple(r * j % n for j in range(n))
              for r in range(1, max(n, 2)) if math.gcd(r, n) == 1]
    return perms


def test_permutation_kernel_matches_string_oracle():
    # Words as 0/1 strings with position j at index j, permuted by string
    # reordering: nothing shared with the kernels under test.
    rng = random.Random(64)
    for n in range(1, 65):
        words = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(14)]
        dtypes = (np.uint32, np.uint64) if n <= 32 else (np.uint64,)
        for perm in _oracle_perms(n, rng):
            want = [int(str_permute(format(w, f"0{n}b"), perm), 2) for w in words]
            assert [permute_bits(w, n, perm) for w in words] == want, (n, perm)
            for dtype in dtypes:
                got = permute_bits_array(np.array(words, dtype=dtype), n, perm)
                assert got.dtype == dtype and got.tolist() == want, (n, perm, dtype)


def test_permutation_kernel_past_sixty_four_positions():
    # One word is permuted up to MAX_N; arrays stop at 64.
    rng = random.Random(256)
    for n in (65, 100, 256):
        perm = tuple(rng.sample(range(n), n))
        for w in (0, (1 << n) - 1, rng.getrandbits(n)):
            assert permute_bits(w, n, perm) == int(str_permute(format(w, f"0{n}b"), perm), 2)
    with pytest.raises(ValueError):
        permute_bits_array(np.zeros(1, dtype=np.uint64), 65, tuple(range(65)))


def test_rotate_bits_array_keeps_dtype_and_writes_in_place():
    rng = random.Random(32)
    for n in (1, 7, 24, 32, 33, 64):
        words = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(6)]
        for dtype in (np.uint32, np.uint64) if n <= 32 else (np.uint64,):
            for i in (0, 1, n - 1, n + 2):
                want = [int(str_rotate(format(w, f"0{n}b"), i), 2) for w in words]
                arr = np.array(words, dtype=dtype)
                got = rotate_bits_array(arr, n, i)
                assert got.dtype == dtype and got.tolist() == want, (n, i, dtype)
                assert rotate_bits_array(arr, n, i, out=arr) is arr
                assert arr.tolist() == want, (n, i, dtype)
            # Shift arrays: a column of all n shifts, and one shift per word.
            arr = np.array(words, dtype=dtype)
            column = rotate_bits_array(arr, n, np.arange(n, dtype=dtype)[:, None])
            assert column.dtype == dtype, (n, dtype)
            assert column.tolist() == [
                [int(str_rotate(format(w, f"0{n}b"), i), 2) for w in words] for i in range(n)]
            each = [0, n - 1] + [rng.randrange(n) for _ in words[2:]]
            want = [int(str_rotate(format(w, f"0{n}b"), i), 2) for w, i in zip(words, each)]
            shifts = np.array(each, dtype=dtype)
            assert rotate_bits_array(arr, n, shifts).tolist() == want, (n, dtype)
            assert rotate_bits_array(arr, n, shifts, out=arr) is arr
            assert arr.tolist() == want, (n, dtype)


@given(st.integers(1, 256), st.data())
def test_sign_rows_reads_positions_left_to_right(n, data):
    row = st.text(alphabet="+-", min_size=n, max_size=n)
    rows = data.draw(st.lists(row, max_size=4))
    words = [make_sequence(t).bits for t in rows]
    got = sign_rows(words, n)
    assert got.shape == (len(rows), n)
    assert got.tolist() == [[1.0 if c == "+" else -1.0 for c in t] for t in rows]
    bits = bit_columns(words, n)
    assert bits.dtype == np.uint8
    assert bits.tolist() == [[int(c == "-") for c in t] for t in rows]
    if n <= 64:
        assert pack_columns(bits).tolist() == words
