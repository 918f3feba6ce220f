from collections import Counter
from itertools import product as iproduct
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from z2schur import reproduce
from z2schur import weight_ring as wr
from z2schur.errors import InvalidLength, InvalidWeight, RingAxiomViolation, ScaleExceeded
from z2schur.sequences import BinarySequence
from z2schur.weight_ring import (
    class_members_bits,
    class_product,
    class_product_oracle,
    even_odd_unions,
    is_sgroup,
    product_multiplicity_table,
    structure_constant_closed,
    verify_ring,
)
from helpers import (
    class_array,
    class_members_recursive,
    peak_traced_mb,
    product_table,
    product_word_counts,
)


def test_class_size_is_binomial():
    # The weight cells that the ring's kernel reads its classes from.
    for n in range(1, 10):
        order, starts = wr.group_cells(n - np.bitwise_count(np.arange(1 << n)))
        sizes = np.diff(np.append(starts, order.size))
        assert sizes.tolist() == [comb(n, k) for k in range(n + 1)]
    assert list(class_members_bits(3, -1)) == []


def test_class_members_sorted_and_complete():
    for n in range(1, 9):
        for k in range(n + 1):
            members = list(class_members_bits(n, k))
            assert len(members) == comb(n, k)
            assert all(str(BinarySequence(n, x)).count("+") == k for x in members)
            assert members == sorted(members)


def test_recursive_decomposition_reproduces_members():
    for n in range(1, 10):
        for k in range(n + 1):
            assert set(class_members_bits(n, k)) == set(class_members_recursive(n, k))
    assert set(class_members_bits(12, 5)) == set(class_members_recursive(12, 5))


def test_structure_constant_fixed_values():
    assert structure_constant_closed(4, 1, 1, 2) == 2
    assert structure_constant_closed(4, 1, 1, 0) == 4
    assert structure_constant_closed(4, 1, 1, 1) == 0
    assert structure_constant_closed(4, 1, 1, 4) == 0


def test_structure_constant_parity_vanishing():
    for n in range(1, 8):
        for i, j, k in iproduct(range(n + 1), repeat=3):
            if (i + j - k) % 2:
                assert structure_constant_closed(n, i, j, k) == 0


def test_structure_constants_match_oracle_exhaustively():
    for n in range(1, 9):
        for i, j, k in iproduct(range(n + 1), repeat=3):
            assert structure_constant_closed(n, i, j, k) == \
                product_table(n, n - i, n - j)[n - k]


@given(st.integers(1, 10), st.data())
def test_multiplicity_table_mass(n, data):
    a = data.draw(st.integers(0, n))
    b = data.draw(st.integers(0, n))
    table = product_multiplicity_table(n, a, b)
    assert table.mass == comb(n, a) * comb(n, b)


@given(st.integers(1, 10), st.data())
def test_multiplicity_table_support_is_class_product(n, data):
    a = data.draw(st.integers(0, n))
    b = data.draw(st.integers(0, n))
    assert product_multiplicity_table(n, a, b).support() == class_product(n, a, b)


def test_class_product_fixed_values():
    assert class_product(4, 4, 4) == {4}
    assert class_product(5, 1, 5) == {1}
    assert class_product(4, 1, 1) == {2, 4}
    assert class_product(6, 2, 3) == {1, 3, 5}
    assert class_product(5, 0, 3) == {2}
    assert class_product(6, 3, 3) == {0, 2, 4, 6}


def test_identity_class_is_full_weight():
    for n in range(1, 8):
        for b in range(n + 1):
            assert class_product(n, n, b) == {b}


def test_class_product_matches_oracle_exhaustively():
    for n in range(1, 10):
        for a in range(n + 1):
            for b in range(n + 1):
                assert class_product(n, a, b) == class_product_oracle(n, a, b)


@given(st.integers(1, 12), st.data())
def test_class_product_commutes(n, data):
    a = data.draw(st.integers(0, n))
    b = data.draw(st.integers(0, n))
    assert class_product(n, a, b) == class_product(n, b, a)


@given(st.integers(1, 12), st.data())
def test_class_product_complement_symmetry(n, data):
    a = data.draw(st.integers(0, n))
    b = data.draw(st.integers(0, n))
    assert class_product(n, a, b) == class_product(n, n - a, n - b)


def test_weight_class_set_equality_semantics():
    s = class_product(4, 1, 1)
    assert s == {2, 4}
    assert s == [2, 4]
    assert s == frozenset({4, 2})
    assert not s == {0, 1}
    assert s != 7


def test_weight_class_set_equal_objects_hash_alike():
    s = class_product(6, 2, 3)
    for other in (frozenset({5, 3, 1}), wr.WeightClassSet.of(6, (1, 3, 5))):
        assert s == other and hash(s) == hash(other)
    # A tuple hashes unlike a frozenset, so it must not compare equal.
    assert s != (1, 3, 5) and (1, 3, 5) != s
    assert (1, 3, 5) not in {s}


def test_weight_class_set_hashes_like_its_members():
    s = class_product(6, 2, 3)
    assert s == frozenset({1, 3, 5}) and hash(s) == hash(frozenset({1, 3, 5}))
    assert s in {frozenset({1, 3, 5})}
    assert frozenset({1, 3, 5}) in {s}
    assert {frozenset({1, 3, 5}): "odd"}[s] == "odd"
    assert {s: "odd"}[frozenset({5, 3, 1})] == "odd"
    assert wr.WeightClassSet.of(6, {1, 3, 5}) in {s}
    assert frozenset({0, 2}) not in {s}


def test_even_odd_unions_and_sgroups():
    evens, odds = even_odd_unions(6)
    assert evens == {0, 2, 4, 6}
    assert odds == {1, 3, 5}
    assert is_sgroup(6, evens)
    assert not is_sgroup(6, odds)
    assert is_sgroup(5, {1, 3, 5})
    assert not is_sgroup(5, {1})
    assert is_sgroup(3, {0, 1, 2, 3})


def test_verify_ring_small_lengths():
    for n in (1, 2, 3, 6):
        rep = verify_ring(n)
        assert rep["product_ok"] and rep["lambda_ok"]
        assert rep["counterexamples"] == []


def test_verify_ring_lists_each_counterexample_once_products_first(monkeypatch):
    real_product, real_lambda = wr.class_product, wr.structure_constant_closed

    def short_product(n, a, b):
        got = real_product(n, a, b)
        if (n, a, b) == (5, 1, 2):
            return wr.WeightClassSet.of(n, got.sorted()[1:])
        return got

    def off_lambda(n, i, j, k):
        return real_lambda(n, i, j, k) + ((n, i, j, k) == (5, 1, 3, 2))

    monkeypatch.setattr(wr, "class_product", short_product)
    monkeypatch.setattr(wr, "structure_constant_closed", off_lambda)
    full = list(real_product(5, 1, 2))
    product = {"kind": "product", "a": 1, "b": 2,
               "closed": full[1:], "oracle": full}
    want = real_lambda(5, 1, 3, 2)
    lam = {"kind": "lambda", "i": 1, "j": 3, "k": 2, "closed": want + 1, "oracle": want}
    rep = verify_ring(5)
    assert rep["counterexamples"] == [product, lam]
    assert rep["product_ok"] is False and rep["lambda_ok"] is False
    passed, details = reproduce.criterion_class_products(6)
    assert not passed and details["counterexamples"] == [product]
    passed, details = reproduce.criterion_structure_constants(6)
    assert not passed and details["counterexamples"] == [product, lam]


def test_run_all_runs_one_ring_sweep_per_pass(monkeypatch):
    """Criteria 1 and 2 share one verify_ring call per n <= 12, and the
    next pass makes the same calls again: no report outlives its pass."""
    calls = []
    real = wr.verify_ring

    def spy(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(wr, "verify_ring", spy)
    reproduce.run_all(16)
    assert calls == list(range(1, 13))
    reproduce.run_all(16)
    assert calls == 2 * list(range(1, 13))


def test_class_product_cache_holds_a_whole_pass():
    reproduce.run_all(16)
    misses = class_product.cache_info().misses
    reproduce.run_all(16)
    assert class_product.cache_info().misses == misses


def test_verify_ring_derived_tables_match_direct_enumeration(monkeypatch):
    """Every table derived by complementing equals the outer-product
    oracle, and one kernel call over the pairs a <= b <= n/2 derived them."""
    real = wr._word_multiplicities
    calls = []
    monkeypatch.setattr(wr, "_word_multiplicities",
                        lambda n, pairs, classes:
                        calls.append(list(pairs)) or real(n, pairs, classes))
    for n in range(1, 13):
        half = n // 2
        calls.clear()
        tables = wr._class_pair_tables(n)
        assert calls == [[(a, b) for a in range(half + 1) for b in range(a, half + 1)]]
        assert list(tables) == [(a, b) for a in range(n + 1) for b in range(a, n + 1)]
        for (a, b), table in tables.items():
            assert table.coeffs == product_table(n, a, b), (n, a, b)


def test_transform_tables_match_the_outer_product_oracle():
    for n in range(1, 13):
        for a in range(-1, n + 1):
            for b in range(-1, n + 1):
                assert product_multiplicity_table(n, a, b).coeffs == \
                    product_table(n, a, b), (n, a, b)


@pytest.mark.parametrize("batch_words", [None, 3, 1])
def test_word_multiplicities_match_the_outer_product_counts(monkeypatch, batch_words):
    # A cap of a few rows per batch, or of one, also exercises the batching.
    for n in range(1, 11):
        if batch_words is not None:
            monkeypatch.setattr(wr, "_BATCH_WORDS", batch_words << n)
        pairs = [(a, b) for a in range(-1, n + 1) for b in range(-1, n + 1)]
        classes = {k: class_array(n, k) for k in range(-1, n + 1)}
        batches = list(wr._word_multiplicities(n, pairs, classes))
        assert [p for batch, _ in batches for p in batch] == pairs
        largest = batch_words or min(len(pairs), wr._BATCH_WORDS >> n)
        assert max(len(batch) for batch, _ in batches) == largest
        counts = np.concatenate([c for _, c in batches])
        assert counts.dtype == np.int64
        for (a, b), row in zip(pairs, counts):
            assert np.array_equal(row, product_word_counts(n, a, b)), (n, a, b)


def test_tables_keep_the_mass_identity_at_the_oracle_cap():
    # Exactness of the float transform where its partial sums are largest.
    n = wr.ORACLE_MAX_N
    for (a, b), table in wr._class_pair_tables(n).items():
        assert all(type(c) is int for c in table.coeffs)
        assert sum(c * comb(n, k) for k, c in enumerate(table.coeffs)) == \
            comb(n, a) * comb(n, b), (a, b)


def test_class_pair_tables_stay_in_batch_sized_buffers():
    # At n = 14 a batch is one row of 2^14 float64 words, 128 KB, beside
    # the eight class spectra of 128 KB each; at n = 16 the nine spectra
    # take 4.5 MB, the rows 512 KB each.  8 MB batches peaked at 14.7 and
    # 37.5 MB.
    assert peak_traced_mb(lambda: wr._class_pair_tables(14)) < 4
    assert peak_traced_mb(lambda: wr.verify_ring(wr.ORACLE_MAX_N)) < 12


def _first_uneven_class(n, xs, ys):
    """The least weight class that the XOR multiset of xs and ys covers
    unevenly, with its least and greatest multiplicity."""
    counts = Counter(x ^ y for x in xs for y in ys)
    by_weight = {}
    for z in range(1 << n):
        by_weight.setdefault(n - z.bit_count(), []).append(counts[z])
    w = min(w for w, c in by_weight.items() if min(c) != max(c))
    return w, min(by_weight[w]), max(by_weight[w])


def _drop_first_member_of_class_2(monkeypatch):
    real = wr._word_multiplicities

    def broken(n, pairs, classes):
        return real(n, pairs, {k: c[1:] if k == 2 else c for k, c in classes.items()})

    monkeypatch.setattr(wr, "_word_multiplicities", broken)


def test_multiplicity_table_rejects_a_broken_partition(monkeypatch):
    """A class missing one member covers some weight class unevenly."""
    _drop_first_member_of_class_2(monkeypatch)
    w, lo, hi = _first_uneven_class(
        6, list(class_members_bits(6, 2))[1:], list(class_members_bits(6, 3)))
    with pytest.raises(RingAxiomViolation) as err:
        product_multiplicity_table(6, 2, 3)
    assert str(err.value) == (
        f"nonuniform multiplicity on G_6({w}) in G_6(2)*G_6(3): min {lo}, max {hi}")


def test_verify_ring_rejects_a_broken_partition(monkeypatch):
    """Deriving tables by complementing does not bypass the uniformity
    check: the first enumerated pair with the broken class, (0, 2), raises."""
    _drop_first_member_of_class_2(monkeypatch)
    w, lo, hi = _first_uneven_class(
        6, list(class_members_bits(6, 0)), list(class_members_bits(6, 2))[1:])
    with pytest.raises(RingAxiomViolation) as err:
        verify_ring(6)
    assert str(err.value) == (
        f"nonuniform multiplicity on G_6({w}) in G_6(0)*G_6(2): min {lo}, max {hi}")


def test_verify_ring_runs_clean_at_the_oracle_cap():
    rep = verify_ring(wr.ORACLE_MAX_N)
    assert rep["n"] == wr.ORACLE_MAX_N == 16
    assert rep["product_ok"] and rep["lambda_ok"]
    assert rep["counterexamples"] == []
    assert rep["even_union_sgroup"] and not rep["odd_union_sgroup"]


def test_verify_ring_refuses_lengths_below_one():
    # An empty sweep must not read as a passing report.
    for n in (0, -1):
        with pytest.raises(InvalidLength):
            verify_ring(n)
    rep = verify_ring(1)
    assert rep["product_ok"] and rep["lambda_ok"]


def test_oracles_refuse_lengths_below_one():
    # Refused before any class is built: n = 0 would give a table, and
    # n < 0 a negative shift or a weight error that blames the wrong input.
    for n, a, b in ((0, 0, 0), (-1, -1, -1), (-2, -1, -1)):
        with pytest.raises(InvalidLength):
            product_multiplicity_table(n, a, b)
        with pytest.raises(InvalidLength):
            class_product_oracle(n, a, b)


def test_scale_and_weight_guards():
    with pytest.raises(InvalidWeight):
        class_product(4, 5, 1)
    with pytest.raises(InvalidWeight):
        list(class_members_bits(3, -2))
    for a, b in ((7, 0), (0, -2)):
        with pytest.raises(InvalidWeight):
            product_multiplicity_table(6, a, b)
    with pytest.raises(ScaleExceeded):
        product_multiplicity_table(wr.ORACLE_MAX_N + 1, 2, 2)
    with pytest.raises(ScaleExceeded):
        verify_ring(wr.ORACLE_MAX_N + 1)
