import random
from collections import Counter
from functools import lru_cache, reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from z2schur import orbits as ob
from z2schur.errors import InvalidLength, ScaleExceeded
from z2schur.orbits import (
    GROUPS,
    MAX_ENUM_N,
    Orbit,
    affine_group,
    asym_square_check,
    burnside_count,
    canonical_array,
    census,
    classify,
    enumerate_orbits,
    fd_partition,
    fd_partition_check,
    invariance_check,
    necklace_count,
    orbit_product_decomposition,
    spartition_axiom_check,
    square_freeness_check,
)
from z2schur.sequences import (
    BinarySequence,
    decimate_bits,
    decimation_perm,
    divisors,
    fixed_words,
    make_sequence,
    perm_cycles,
    permute_bits,
    reverse_bits,
    units,
)
from helpers import (
    conjugates_walk,
    cyclic_orbit,
    group_closure,
    peak_traced_mb,
    period_tally,
    rotate_words,
    str_decimate,
    str_period,
    str_permute,
    str_reverse,
    table_census,
    word_periods,
)

signs = st.text(alphabet="+-", min_size=1, max_size=14)

NECKLACES = {1: 2, 2: 3, 3: 4, 4: 6, 5: 8, 6: 14, 7: 20, 8: 36, 9: 60,
             10: 108, 11: 188, 12: 352}
BRACELETS = {1: 2, 2: 3, 3: 4, 4: 6, 5: 8, 6: 13, 7: 18, 8: 30, 9: 46, 10: 78}

# (palindromic-and-free, non-palindromic free, palindromic non-free,
#  neither) per length, counted over rotation orbits.
SYM_QUADRUPLES = {
    1: (2, 0, 0, 0),
    2: (0, 1, 2, 0),
    3: (2, 0, 2, 0),
    4: (1, 2, 2, 1),
    5: (6, 0, 2, 0),
    6: (2, 7, 4, 1),
    7: (14, 4, 2, 0),
    8: (6, 24, 3, 3),
}


def test_group_sizes():
    for table in (group_closure, affine_group):
        assert len(table(5, "C")) == 5
        assert len(table(5, "H")) == 2
        assert len(table(5, "D")) == 4
        assert len(table(5, "HC")) == 10
        assert len(table(5, "DC")) == 20
        assert len(table(12, "DC")) == 48


def test_reversal_lies_inside_rotation_decimation():
    for n in (3, 4, 5, 7, 8):
        assert set(group_closure(n, "DC")) == set(group_closure(n, "HDC"))
        assert affine_group(n, "DC") == affine_group(n, "HDC")


def test_affine_group_matches_generator_closure():
    for n in range(1, 41):
        for group in GROUPS:
            pairs = affine_group(n, group)
            assert len(set(pairs)) == len(pairs), (n, group)
            # Position j of (u, s) x reads position u (j + s).
            perms = [tuple(u * (j + s) % n for j in range(n)) for u, s in pairs]
            assert len(set(perms)) == len(perms), (n, group)
            assert set(perms) == set(group_closure(n, group)), (n, group)


def test_conjugates_match_the_group_walk():
    # classify tests x against the conjugates of R and of every d_r.
    for n in range(1, 41):
        for group in GROUPS:
            pairs = affine_group(n, group)
            for h in (ob._reflection(n), *((r, 0) for r in units(n))):
                assert ob._conjugates(n, group, h) == conjugates_walk(n, pairs, h), \
                    (n, group, h)


def test_shift_residues_match_the_group_walk():
    # classify decides each fixed-point flag by the conjugates' shifts
    # mod the period of x, one cached set per (n, group, h, p).
    for n in range(1, 41):
        for group in GROUPS:
            pairs = affine_group(n, group)
            for h in (ob._reflection(n), *((r, 0) for r in units(n))):
                shifts = [s for _, s in conjugates_walk(n, pairs, h)]
                for p in divisors(n):
                    assert ob._shift_residues(n, group, h, p) == \
                        {s % p for s in shifts}, (n, group, h, p)


def test_affine_group_rejects_unknown_groups():
    with pytest.raises(ValueError):
        affine_group(5, "R")


@pytest.mark.parametrize("group", ["XC", "CD", "HCD", "c"])
def test_orbit_functions_reject_unknown_groups(group):
    # Codes holding "C" passed the rotation-only checks and ran as "DC".
    x = BinarySequence(6, 0b001011)
    calls = [lambda: classify(x, group), lambda: census(6, group),
             lambda: canonical_array(6, group), lambda: list(enumerate_orbits(6, group))]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_group_membership_matches_the_pair_lists():
    # classify decides a closure flag with no image when the map lies in
    # the group.
    for n in range(1, 41):
        every = affine_group(n, "HDC")
        for group in GROUPS:
            pairs = set(affine_group(n, group))
            assert all(ob._in_group(n, group, h) == (h in pairs) for h in every), (n, group)


def _members(x, group):
    # Every member of the orbit of x, ascending: x permuted by every
    # element of the generator closure.
    return sorted({permute_bits(x.bits, x.n, p) for p in group_closure(x.n, group)})


def test_classify_rep_is_least_string():
    assert str(classify(make_sequence("---+"), "C").representative) == "+---"
    assert str(classify(make_sequence("-+-+"), "HC").representative) == "+-+-"


@given(signs, st.sampled_from(GROUPS))
def test_classify_rep_constant_on_orbit(s, group):
    x = make_sequence(s)
    members = [BinarySequence(x.n, m) for m in _members(x, group)]
    for member in members:
        assert classify(member, group).rep == members[0].bits
    assert str(classify(x, group).representative) == min(str(m) for m in members)


@given(signs)
def test_cyclic_orbit_matches_string_oracle(s):
    x = make_sequence(s)
    got = {str(BinarySequence(x.n, m)) for m in _members(x, "C")}
    assert got == cyclic_orbit(s)
    assert str(classify(x, "C").representative) == min(cyclic_orbit(s))


@given(signs)
def test_classify_flags_match_string_oracle(s):
    o = classify(make_sequence(s))
    orbit = cyclic_orbit(s)
    assert o.size == len(orbit)
    assert o.period == str_period(s)
    assert o.symmetric == any(str_reverse(m) == m for m in orbit)
    assert o.antisymmetric == any(
        str_reverse(m) == m.translate(str.maketrans("+-", "-+")) for m in orbit
    )
    assert o.reversal_closed == ({str_reverse(m) for m in orbit} == orbit)
    n = len(s)
    expect_fixed = tuple(
        r for r in units(n) if r != 1 and any(str_decimate(m, r) == m for m in orbit)
    )
    assert tuple(r for r in o.delta_invariant if r != 1) == expect_fixed


def _walk_every_member(x, group):
    # Every member built from every group element, every flag tested on
    # every member.
    n = x.n
    members = _members(x, group)
    memberset = set(members)
    mask = (1 << n) - 1
    decimated = {r: [(t, decimate_bits(t, n, r)) for t in members] for r in units(n)}
    return Orbit(
        n=n,
        rep=members[0],
        group=group,
        size=len(members),
        period=str_period(format(x.bits, f"0{n}b")),
        symmetric=any(reverse_bits(t, n) == t for t in memberset),
        antisymmetric=any(reverse_bits(t, n) == t ^ mask for t in memberset),
        reversal_closed=all(reverse_bits(t, n) in memberset for t in memberset),
        delta_invariant=tuple(
            r for r in units(n) if any(d == t for t, d in decimated[r])
        ),
        delta_closed=tuple(
            r for r in units(n) if all(d in memberset for _, d in decimated[r])
        ),
    )


def test_classify_matches_member_walk():
    rng = np.random.default_rng(14)
    for group in GROUPS:
        words = [BinarySequence(n, bits) for n in range(1, 10) for bits in range(1 << n)]
        for n in rng.integers(10, 15, size=200).tolist():
            words.append(BinarySequence(n, int(rng.integers(0, 1 << n))))
        for x in words:
            assert classify(x, group) == _walk_every_member(x, group), (str(x), group)


def _flagged_words(n, rng):
    # A random word, and words that set the flags a random word misses: a
    # palindrome, a word fixed by the least nontrivial decimation, and a
    # word of the largest proper period.
    signs = format(rng.getrandbits(n), f"0{n}b")
    head = signs[:(n + 1) // 2]
    palindrome = head + head[:n // 2][::-1]
    r = units(n)[1]
    fixed = sum(1 << (n - 1 - j) for cycle in perm_cycles(decimation_perm(n, r))
                if rng.getrandbits(1) for j in cycle)
    d = divisors(n)[-2]
    periodic = signs[:d] * (n // d)
    return [BinarySequence(n, bits) for bits in
            (int(signs, 2), int(palindrome, 2), fixed, int(periodic, 2))]


def _periodic_words(n, most):
    # Every word whose period is a proper divisor p <= most of n.
    return sorted({int(format(b, f"0{p}b") * (n // p), 2)
                   for p in divisors(n)[:-1] if p <= most for b in range(1 << p)})


def test_classify_matches_member_walk_at_large_n():
    # The walk above stops at n = 14 and the vector engine's check at
    # n = 24; the affine images of x matter most past both.  classify
    # reads its fixed-point flags off shift residues mod the period, so
    # every word of each short period is walked too, in every group.
    rng = random.Random(47)
    cases = [(n, group) for n in (31, 47, 64) for group in GROUPS]
    cases += [(128, "C"), (128, "HC")]
    for n, group in cases:
        for x in _flagged_words(n, rng):
            assert classify(x, group) == _walk_every_member(x, group), (str(x), group)
    for n in (12, 18, 24, 30):
        words = [BinarySequence(n, bits) for bits in _periodic_words(n, 6)]
        for group in GROUPS:
            for x in words:
                assert classify(x, group) == _walk_every_member(x, group), (str(x), group)


def test_classify_matches_member_walk_where_classes_collide():
    # A word fixed by an affine pair (u, s), u != 1, has d_u x =
    # rotate(x, -s): its coset images d_m x fall into fewer rotation
    # classes than there are m, which random words past n = 12 almost
    # never do.  Two such words per pair, for s = 0 and s = 1.
    rng = np.random.default_rng(24)
    for n in (15, 18, 21, 24, 30):
        words = []
        for u in units(n)[1:]:
            for s in (0, 1):
                fixed = fixed_words(n, ob._positions(n, (u, s)))
                words += [BinarySequence(n, int(b)) for b in rng.choice(fixed, size=2)]
        for group in GROUPS:
            for x in words:
                assert classify(x, group) == _walk_every_member(x, group), (str(x), group)


def test_classify_worked_examples():
    o = classify(make_sequence("+----+----+----"))
    assert o.period == 5 and not o.free
    assert 2 in o.delta_invariant
    o = classify(make_sequence("++--"))
    assert o.antisymmetric and o.symmetric  # "+--+" is a palindrome member
    o = classify(make_sequence("+-+-"))
    assert o.period == 2 and o.antisymmetric and not o.symmetric


def test_census_against_formula_counts():
    for n, count in NECKLACES.items():
        assert necklace_count(n) == count
        assert burnside_count(n, "C") == count
        assert census(n, "C")["total"] == count
    for n, count in BRACELETS.items():
        assert burnside_count(n, "HC") == count
        assert census(n, "HC")["total"] == count


def test_burnside_matches_enumeration_for_every_group():
    for n in range(1, 11):
        for group in GROUPS:
            assert burnside_count(n, group) == \
                int(np.unique(canonical_array(n, group)).size)


def test_census_row_masses():
    rep = census(10, "C")
    assert sum(p * c for p, c in rep["by_period"].items()) == 1 << 10
    assert rep["sym"] + rep["asym"] <= rep["total"]
    assert rep["nonsym"] == rep["total"] - rep["sym"] - rep["asym"]
    for row in rep["rows"]:
        assert set(row) == {"period", "count", "sym", "asym"}


def test_census_delta_invariant_against_string_oracle():
    for n in (4, 6, 8):
        rep = census(n, "C")
        for r in units(n):
            if r == 1:
                continue
            fixed_orbits = set()
            for bits in range(1 << n):
                s = str(make_sequence("+" * n).__class__(n, bits))
                if str_decimate(s, r) == s:
                    fixed_orbits.add(min(cyclic_orbit(s)))
            assert rep["delta_invariant"][r] == len(fixed_orbits)


def test_sym_decomposition_quadruples():
    def quadruple(n, flag):
        orbits = list(enumerate_orbits(n, "C"))
        return tuple(
            sum(1 for o in orbits if getattr(o, flag) == sym and o.free == free)
            for sym, free in ((True, True), (False, True), (True, False), (False, False))
        )

    for n, quad in SYM_QUADRUPLES.items():
        assert quadruple(n, "symmetric") == quad
    assert quadruple(4, "reversal_closed") == (3, 0, 3, 0)


def test_fd_partition_and_masses():
    assert fd_partition(4) == {1: 2, 2: 1, 4: 3}
    assert fd_partition(6) == {1: 2, 2: 1, 3: 2, 6: 9}
    for n in (1, 2, 3, 4, 6, 9, 12):
        rep = fd_partition_check(n)
        assert rep["mass_ok"] and rep["formula_ok"]


def test_fd_partition_matches_per_word_periods():
    for n in range(1, 21):
        assert fd_partition(n) == period_tally(n), n


@pytest.mark.parametrize("scan", [canonical_array, census, fd_partition,
                                  fd_partition_check, square_freeness_check])
def test_whole_space_scans_refuse_lengths_outside_the_cap(scan):
    for n in (0, -1):
        with pytest.raises(InvalidLength):
            scan(n)
    with pytest.raises(ScaleExceeded):
        scan(MAX_ENUM_N + 1)


def test_enumerate_orbits_consistency():
    orbits = list(enumerate_orbits(6, "C"))
    assert sum(o.size for o in orbits) == 1 << 6
    assert len(orbits) == 14
    for o in orbits:
        assert o.size == o.period
        direct = classify(o.representative)
        assert direct.symmetric == o.symmetric
        assert direct.antisymmetric == o.antisymmetric
        assert direct.delta_invariant == o.delta_invariant


def test_enumerate_orbits_needs_no_identity_table(monkeypatch):
    # d_1 has n cycles, past the 22-cycle cap of fixed_words at n = 23
    # and 24, so enumerate_orbits must fill r = 1 without a table.
    requested = []

    def spy(n, perm, negated=False):
        requested.append((n, perm, negated))
        return fixed_words(n, perm, negated)

    monkeypatch.setattr(ob, "fixed_words", spy)
    for n, group in ((7, "C"), (8, "HDC"), (9, "D")):
        orbits = list(enumerate_orbits(n, group))
        assert all(o.delta_invariant[0] == 1 for o in orbits)
        asked = [perm for m, perm, negated in requested if m == n and not negated]
        assert all(decimation_perm(n, r) in asked for r in units(n)[1:])
        assert decimation_perm(n, 1) not in asked


@lru_cache(maxsize=None)
def _canon(n, group):
    return canonical_array(n, group)


@lru_cache(maxsize=None)
def _records(n, group):
    return {o.rep: o for o in enumerate_orbits(n, group)}


@given(st.integers(1, 16).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))),
    st.sampled_from(GROUPS))
def test_scalar_engine_matches_vector_engine(n_bits, group):
    n, bits = n_bits
    x = BinarySequence(n, bits)
    rep = _members(x, group)[0]
    assert rep == int(_canon(n, group)[bits])
    direct, record = classify(x, group), _records(n, group)[rep]
    assert direct.rep == rep
    for field in ("size", "period", "symmetric", "antisymmetric",
                  "reversal_closed", "delta_invariant", "delta_closed"):
        assert getattr(direct, field) == getattr(record, field), field


def test_vector_engine_matches_classify_at_ceiling_sizes():
    # The hypothesis test above stops at n = 16; sample whole records here,
    # up to the enumeration cap.  The 40 indices per size are drawn against
    # the orbit count, and one walk of the records keeps only those.
    rng = np.random.default_rng(20)
    for n, group in ((20, "HDC"), (21, "HC"), (22, "DC"), (23, "HC"), (24, "HDC")):
        picked = set(rng.choice(burnside_count(n, group), size=40, replace=False).tolist())
        checked = 0
        for i, o in enumerate(enumerate_orbits(n, group)):
            if i in picked:
                assert classify(BinarySequence(n, o.rep), group) == o, (n, group, o.rep)
                checked += 1
        assert checked == 40, (n, group)


def _brute_canonical_array(n, group):
    # Every group element applied bit by bit, sharing no array helper.
    x = np.arange(1 << n, dtype=np.uint64)
    best = x.copy()
    for perm in group_closure(n, group):
        image = np.zeros_like(x)
        for j, src in enumerate(perm):
            image |= ((x >> np.uint64(n - 1 - src)) & np.uint64(1)) << np.uint64(n - 1 - j)
        np.minimum(best, image, out=best)
    return best.astype(np.uint32)


def test_canonical_array_matches_whole_group_brute_force():
    for n in range(1, 15):
        for group in GROUPS:
            want = _brute_canonical_array(n, group)
            got = canonical_array(n, group)
            assert got.dtype == want.dtype and np.array_equal(got, want), (n, group)


def _every_rotation(n):
    # Every word, and its nontrivial rotations one array at a time.
    words = np.arange(1 << n, dtype=np.uint64)
    return words, (rotate_words(words, n, i) for i in range(1, n))


def _plain_rotation_canon(n):
    words, turns = _every_rotation(n)
    return reduce(np.minimum, turns, words).astype(np.uint32)


def test_rotation_canon_over_full_blocks(monkeypatch):
    # Past n = 16 the space spans several _CHUNK blocks: every block after
    # the first copies its even half from an earlier one, and every
    # upper-half block but the last its odd half too.  Small blocks give
    # many upper-half blocks, and a last one that must take the full min.
    for n in (17, 18, 19):
        assert np.array_equal(ob._rotation_canon(n), _plain_rotation_canon(n)), n
    monkeypatch.setattr(ob, "_CHUNK", 1 << 4)
    for n in range(9, 13):
        assert np.array_equal(ob._rotation_canon(n), _plain_rotation_canon(n)), n


def _plain_filter(n, below):
    # Every word, kept when it is below each nontrivial rotation.
    words, turns = _every_rotation(n)
    keep = np.ones(words.size, dtype=bool)
    for turned in turns:
        keep &= below(words, turned)
    return words[keep].astype(np.uint32)


def _stream(n, strict):
    return np.concatenate(list(ob._necklace_blocks(n, strict)))


def test_lyndon_words_match_the_plain_filter(monkeypatch):
    for n in range(1, 19):
        got = _stream(n, strict=True)
        assert got.dtype == np.uint32 and np.array_equal(got, _plain_filter(n, np.less)), n
    monkeypatch.setattr(ob, "_CHUNK", 1 << 4)
    for n in range(1, 13):
        assert np.array_equal(_stream(n, strict=True), _plain_filter(n, np.less)), n


def test_necklaces_match_the_plain_filter(monkeypatch):
    # The non-strict stream: 0 and the all-ones word are necklaces of every
    # length, and the periodic words come from prenecklaces whose Lyndon
    # prefix length divides n.
    for n in range(1, 19):
        got = _stream(n, strict=False)
        assert got.dtype == np.uint32, n
        assert np.array_equal(got, _plain_filter(n, np.less_equal)), n
        assert got[0] == 0 and got[-1] == (1 << n) - 1, n
    monkeypatch.setattr(ob, "_CHUNK", 1 << 4)
    for n in range(1, 13):
        assert np.array_equal(_stream(n, strict=False), _plain_filter(n, np.less_equal)), n


def _mobius(n):
    # mu(n) by trial division: 0 on a square factor, else -1 per prime.
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if n > 1 else mu


def test_lyndon_words_count_by_the_mobius_formula():
    # Past the plain filter's n <= 18: (1/n) sum over d | n of
    # mu(d) 2^(n/d) aperiodic necklaces, each listed once, ascending.
    for n in range(19, MAX_ENUM_N + 1):
        got = _stream(n, strict=True)
        assert got.size == sum(_mobius(d) << (n // d) for d in divisors(n)) // n, n
        assert np.all(got[1:] > got[:-1]), n


def test_necklaces_count_by_the_closed_form():
    for n in range(19, MAX_ENUM_N + 1):
        got = _stream(n, strict=False)
        assert got.size == necklace_count(n), n
        assert np.all(got[1:] > got[:-1]), n


def test_canonical_array_sampled_at_twenty():
    rng = np.random.default_rng(20)
    xs = rng.integers(0, 1 << 20, size=50).tolist()
    for group in ("C", "HC", "HDC"):
        canon = canonical_array(20, group)
        for bits in xs:
            assert _members(BinarySequence(20, bits), group)[0] == canon[bits]


def test_census_at_twenty_two():
    totals = {group: census(22, group)["total"] for group in ("C", "HC")}
    assert totals == {group: burnside_count(22, group) for group in totals}
    assert totals["C"] == necklace_count(22)


def test_census_stream_matches_the_table_oracle():
    # The stream counts from orbit representatives alone; the oracle counts
    # on the 2^n canon, at every small size and at the workload and
    # ceiling sizes.
    cases = [(n, group) for n in range(1, 17) for group in GROUPS]
    cases += [(20, "C"), (19, "HC"), (18, "HDC"), (24, "C"), (24, "HDC")]
    for n, group in cases:
        assert census(n, group) == table_census(n, group), (n, group)


def test_chunked_scans_match_one_block(monkeypatch):
    # Every whole-space scan walks the words in _CHUNK blocks; blocks far
    # smaller than the space must give what one block gives.
    def results(n):
        return ([list(enumerate_orbits(n, group)) for group in GROUPS],
                [canonical_array(n, group).tolist() for group in GROUPS],
                [census(n, group) for group in GROUPS], invariance_check(n),
                square_freeness_check(n), fd_partition(n))

    for n in (9, 10):
        whole = results(n)
        with monkeypatch.context() as m:
            m.setattr(ob, "_CHUNK", 1 << 4)
            assert results(n) == whole, n


def test_whole_space_scans_stay_in_cache_sized_blocks():
    # canonical_array keeps one 4 MB uint32 table, also where the coset
    # representatives are applied through the byte tables, since the fold
    # is written into it; the blocks around it, and all of fd_partition,
    # stay at a few _CHUNK-word buffers.  invariance_check keys every flag
    # by the orbit's least member, packed in one 2^n uint8 code beside the
    # canon (1 MB at n = 20); its representatives are collected block by
    # block, with no sorted copy.
    # census keeps no table: it streams the representatives block by block,
    # makes one set of fixed words at a time and finds the orbits they meet
    # in batches of at most _CHUNK words, about 1.4 MB at n = 20 and 3.8 MB
    # at n = 24 (2 MB of it the 2^18 words that d_13 fixes), where the table
    # alone is 64 MB.
    assert peak_traced_mb(lambda: canonical_array(20, "C")) < 4 + 2
    assert peak_traced_mb(lambda: canonical_array(20, "HDC")) < 4 + 2
    assert peak_traced_mb(lambda: fd_partition(20)) < 2
    assert peak_traced_mb(lambda: census(20, "C")) < 3
    assert peak_traced_mb(lambda: census(24, "C")) < 6
    assert peak_traced_mb(lambda: invariance_check(20)) < 4 + 3
    # fixed_words fills its one array of 2^c words in place, with no
    # concatenated halves and no sorted copy: 16 MB for the 2^21 words
    # that d_15 fixes at n = 28.
    assert peak_traced_mb(lambda: fixed_words(28, decimation_perm(28, 15))) < 20
    # square_freeness_check grows the Lyndon words in blocks of at most
    # _CHUNK words and keeps only the failing ones, so it holds no array
    # of them all.
    assert peak_traced_mb(lambda: square_freeness_check(23)) < 2.5


def test_invariance_check_clean_small():
    for n in range(2, 11):
        rep = invariance_check(n)
        assert rep["ok"], rep["violations"][:3]


def _necklace_flags(n):
    # Per rotation orbit, from its member strings: rep -> (period, sym,
    # asym, rev_closed), reps as sign strings, whose order is packed order.
    negate = str.maketrans("+-", "-+")
    flags = {}
    for bits in range(1 << n):
        orbit = cyclic_orbit(format(bits, f"0{n}b").translate(str.maketrans("01", "+-")))
        rep = min(orbit)
        if rep not in flags:
            flags[rep] = (str_period(rep), any(str_reverse(m) == m for m in orbit),
                          any(str_reverse(m) == m.translate(negate) for m in orbit),
                          {str_reverse(m) for m in orbit} == orbit)
    return dict(sorted(flags.items()))


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("head", [(1, 0), (2, 1, 0)])
def test_invariance_check_full_report_under_a_fault(monkeypatch, n, head):
    # Swapping two positions stands in for every d_r: 0 and 1 breaks the
    # period, sym and rev_closed flags, 0 and 2 the asym flag too.  Each
    # witness is checked against the flags of the rep's necklace and of
    # its swapped image's necklace, built from member walks; the witnesses
    # run in rep order, ten at most per multiplier and flag.
    # invariance_check packs the period into five bits.
    assert MAX_ENUM_N < 32
    swap = head + tuple(range(len(head), n))
    monkeypatch.setattr(ob, "decimation_perm", lambda n, r: swap)
    flags = _necklace_flags(n)
    mapped = {rep: flags[min(cyclic_orbit(str_permute(rep, swap)))] for rep in flags}
    names = ("period", "sym", "asym", "rev_closed")
    multipliers = [r for r in units(n) if r != 1]
    violations, count = [], 0
    for r in multipliers:
        for f, name in enumerate(names):
            bad = [{"r": r, "flag": name, "rep": rep, "value": mine[f],
                    "mapped_value": mapped[rep][f]}
                   for rep, mine in flags.items() if mine[f] != mapped[rep][f]]
            count += len(bad)
            violations += bad[:10]
    rep = invariance_check(n)
    assert rep == {"n": n, "orbits": len(flags), "multipliers": multipliers,
                   "violations": violations, "violation_count": count, "ok": False}
    for got, want in zip(rep["violations"], violations):
        assert type(got["value"]) is type(want["value"]), got
    if n == 12:
        # The fault reaches past the witness cap: some (r, flag) pair keeps ten.
        kept = Counter((v["r"], v["flag"]) for v in rep["violations"])
        assert max(kept.values()) == 10
        assert rep["violation_count"] > len(rep["violations"])


def test_square_freeness_even_witness():
    for n in (2, 4, 6, 8, 10, 12):
        rep = square_freeness_check(n)
        assert rep["ok"]


def test_square_freeness_odd_prime_powers_clean():
    for n in (3, 5, 7, 9, 11, 13):
        rep = square_freeness_check(n)
        assert rep["ok"]


def test_square_freeness_breaks_at_fifteen():
    rep = square_freeness_check(15)
    assert not rep["ok"]
    assert rep["free_sequences"] == 32730
    assert rep["violations"][0] == {"x": "++++++--+---+--", "a": 3}
    assert len(rep["violations"]) == 60
    x = make_sequence("++++++--+---+--")
    assert str_period(str(x)) == 15
    assert str_period(str(x * x.rotate(3))) == 5


def test_square_freeness_counts_past_the_witness_cap():
    # 90 failing free x at each offset a in {3, 5, 6, 9, 10, 12}; the
    # report keeps ten per offset.
    rep = square_freeness_check(15)
    assert rep["violation_count"] == 540
    assert Counter(v["a"] for v in rep["violations"]) == \
        {a: 10 for a in (3, 5, 6, 9, 10, 12)}
    assert square_freeness_check(13)["violation_count"] == 0
    assert square_freeness_check(12)["violation_count"] == 0


def _scan_every_free_word(n):
    # Every free word against every offset, by exact period.
    def signs(bits):
        return format(bits, f"0{n}b").translate(str.maketrans("01", "+-"))

    words = np.arange(1 << n, dtype=np.uint64)
    free = words[word_periods(words, n) == n]
    if n % 2:
        failing = [(a, free[word_periods(free ^ rotate_words(free, n, a), n) != n])
                   for a in range(1, n)]
        checked = free.size * (n - 1)
    else:
        y = free ^ rotate_words(free, n, n // 2)
        failing = [(n // 2, free[~((rotate_words(y, n, n // 2) == y) & (y != 0))])]
        checked = free.size
    violations = [{"x": signs(bits), "a": a}
                  for a, bad in failing for bits in bad[:10].tolist()]
    return {
        "n": n,
        "free_sequences": free.size,
        "checked": checked,
        "violations": violations,
        "violation_count": sum(bad.size for _, bad in failing),
        "ok": not violations,
    }


def test_square_freeness_matches_per_word_scan():
    for n in range(1, 18):
        assert square_freeness_check(n) == _scan_every_free_word(n), n


def _free_word_count(n):
    # The Moebius sum, as free(n) = 2^n minus free(d) over proper divisors d.
    return (1 << n) - sum(_free_word_count(d) for d in range(1, n) if n % d == 0)


def test_square_freeness_at_twenty_two_and_twenty_three():
    rep = square_freeness_check(23)  # prime, so clean
    assert rep["ok"] and rep["violation_count"] == 0
    assert rep["free_sequences"] == _free_word_count(23)
    assert rep["checked"] == _free_word_count(23) * 22
    rep = square_freeness_check(22)
    assert rep["ok"] and rep["checked"] == rep["free_sequences"] == _free_word_count(22)


def test_asym_square_products():
    rep = asym_square_check(8)
    assert rep["set_reversal_closed"]
    assert not rep["subset_palindromic"]
    assert not rep["subset_reversal_closed"]


def test_orbit_product_counterexamples():
    rep = orbit_product_decomposition(make_sequence("+---"), make_sequence("++--"))
    assert rep["orbit_count"] == 2 and rep["sizes"] == [4, 4]
    assert not rep["claim_holds"]
    rep = orbit_product_decomposition(
        make_sequence("+-+-+-"), make_sequence("++-++-")
    )
    assert rep["orbit_count"] == 1 and rep["sizes"] == [6]
    assert not rep["claim_holds"]


def test_spartition_axioms_hold():
    for group in ("D", "DC"):
        rep = spartition_axiom_check(8, group)
        assert rep["is_spartition"], rep["violations"][:3]


def spartition_loop(n, group):
    """The cell-by-cell S-partition check from one count tensor:
    count[i, j, w] is the number of pairs (x, y), x in cell i and y in cell
    j, with x * y = w, and cells i, j cover cell k uniformly when that
    count has one value over the words w of cell k."""
    cell_values, cell_of = np.unique(ob.canonical_array(n, group), return_inverse=True)
    size = 1 << n
    x = np.arange(size, dtype=np.int64)
    cell_of = cell_of.astype(np.int64)
    m = cell_values.size
    cells = [x[cell_of == i] for i in range(m)]
    keys = (cell_of[:, None] * m + cell_of[None, :]) * size + (x[:, None] ^ x[None, :])
    count = np.bincount(keys.ravel(), minlength=m * m * size).reshape(m, m, size)
    uneven = np.stack([count[:, :, c].min(axis=2) != count[:, :, c].max(axis=2)
                       for c in cells], axis=2)
    violations = []
    if cells[0].size != 1 or cells[0][0] != 0:
        violations.append({"kind": "identity_cell", "size": int(cells[0].size)})
    # argwhere lists (i, j, k) in lexicographic order; j < i repeats (j, i).
    for i, j, k in np.argwhere(uneven).tolist():
        if j >= i and len(violations) < 21:
            vals = count[i, j, cells[k]]
            violations.append({"kind": "nonuniform", "i": i, "j": j, "k": k,
                               "min": int(vals.min()), "max": int(vals.max())})
    return {
        "n": n,
        "group": group,
        "cells": m,
        "violations": violations,
        "is_spartition": not violations,
    }


@pytest.mark.parametrize("group", GROUPS)
def test_spartition_check_matches_cell_loop(group):
    for n in range(1, 9):
        assert spartition_axiom_check(n, group) == spartition_loop(n, group)


@pytest.mark.parametrize("n, group, word, into, count", [
    (3, "C", 0b010, 0b011, 5),    # one word moved between cells
    (5, "DC", 0b00001, 0, 21),    # into the identity cell: the early return
])
def test_spartition_check_matches_cell_loop_on_broken_partitions(
        monkeypatch, n, group, word, into, count):
    real = ob.canonical_array

    def moved(n, group="C"):
        canon = real(n, group)
        canon[word] = canon[into]
        return canon

    monkeypatch.setattr(ob, "canonical_array", moved)
    rep = spartition_axiom_check(n, group)
    assert rep == spartition_loop(n, group)
    assert not rep["is_spartition"] and len(rep["violations"]) == count
