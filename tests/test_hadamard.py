import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from z2schur import autocorr
from z2schur import hadamard as hd
from z2schur.autocorr import flat_offpeak, theta
from z2schur.errors import (
    InvalidCore,
    InvalidCoreOrder,
    InvalidLength,
    InvalidWeight,
    NotHadamard,
    ScaleExceeded,
)
from z2schur.orbits import classify
from z2schur.sequences import BinarySequence, make_sequence, permute_bits
from z2schur.ssets import complete_maximal
from helpers import (
    circulant,
    concat_bits,
    scalar_core_partition_search,
    scalar_structured_search,
)

BORDER7 = """\
++++++++
+-++-+--
+--++-+-
+---++-+
++---++-
+-+---++
++-+---+
+++-+---"""

CORE_DELTA_MULTIPLIERS = {
    3: (1, 2),
    7: (1, 2, 4),
    11: (1, 3, 4, 5, 9),
}

QUADRATIC_RESIDUES = {
    3: {1},
    7: {1, 2, 4},
    11: {1, 3, 4, 5, 9},
}


# ------------------------------------------------------------ SignMatrix

def test_from_text_render_roundtrip():
    mat = hd.SignMatrix.from_text(BORDER7)
    assert mat.render() == BORDER7
    assert str(mat.row(1)) == "+-++-+--"
    with pytest.raises(InvalidLength):
        hd.SignMatrix.from_text("++\n+")
    with pytest.raises(InvalidLength):
        hd.SignMatrix.from_text("")


def test_is_hadamard_basics():
    assert hd.is_hadamard(hd.SignMatrix.from_rows(["+"]))
    assert hd.is_hadamard(hd.SignMatrix.from_rows(["-"]))
    assert hd.is_hadamard(hd.SignMatrix.from_rows(["++", "+-"]))
    assert not hd.is_hadamard(hd.SignMatrix.from_rows(["+++"] * 3))
    assert hd.is_hadamard(hd.SignMatrix.from_text(BORDER7))


def test_builtin_h12():
    mat = hd.BUILTIN_H12
    assert mat.m == 12
    assert hd.is_hadamard(mat)
    assert str(mat.row(0)) == "+-----------"
    assert str(mat.row(1)) == "++-+---+++-+"
    assert sorted({mat.row(i).weight for i in range(12)}) == [1, 7]


def test_corrupted_builtin_detected():
    rows = [str(hd.BUILTIN_H12.row(i)) for i in range(12)]
    rows[3] = "-" + rows[3][1:] if rows[3][0] == "+" else "+" + rows[3][1:]
    mat = hd.SignMatrix.from_rows(rows)
    assert not hd.is_hadamard(mat)
    assert hd.orthogonality_witness(mat) in ((0, 3, 2), (0, 3, -2))


def test_orthogonality_witness_is_the_first_nonorthogonal_pair():
    assert hd.orthogonality_witness(hd.BUILTIN_H12) is None
    assert hd.orthogonality_witness(hd.SignMatrix.from_rows(["-"])) is None
    assert hd.orthogonality_witness(hd.SignMatrix.from_rows(["+++"] * 3)) == (0, 1, 3)
    assert hd.orthogonality_witness(hd.SignMatrix.from_rows(["++", "++"])) == (0, 1, 2)


@given(st.integers(1, 6).flatmap(
    lambda m: st.lists(st.text("+-", min_size=m, max_size=m), min_size=m, max_size=m)))
def test_no_witness_exactly_when_hadamard(rows):
    """`hadamard check` decides on the witness alone."""
    mat = hd.SignMatrix.from_rows(rows)
    assert (hd.orthogonality_witness(mat) is None) == hd.is_hadamard(mat)


# ------------------------------------------------------------- circulant

def test_circulant_rows_are_right_rotations():
    mat = circulant("-+++")
    assert [str(mat.row(i)) for i in range(4)] == \
        ["-+++", "+-++", "++-+", "+++-"]


def test_circulant_order_four_hadamard():
    assert hd.is_hadamard(circulant("+---"))
    assert hd.is_hadamard(circulant("+++-"))
    assert not hd.is_hadamard(circulant("++--"))


def test_circulant_feasible_weights():
    assert hd.circulant_feasible_weights(4) == (1, 3)
    assert hd.circulant_feasible_weights(16) == (6, 10)
    assert hd.circulant_feasible_weights(12) == ()
    assert hd.circulant_feasible_weights(36) == (15, 21)


# ----------------------------------------------------------- normalize

def test_normalize_builtin_h12():
    normalized, rep = hd.normalize_into_complete(hd.BUILTIN_H12)
    assert hd.is_hadamard(normalized)
    assert rep.signs == "++++++++--+-"
    assert rep.sset_parity == "even"
    assert rep.sset_members == (4, 6, 8)
    assert not rep.already_contained
    assert rep.target_weight == 6
    assert rep.row_weights == tuple(normalized.row(i).weight for i in range(12))
    assert set(rep.row_weights) <= {4, 6, 8}


def test_normalize_already_contained():
    mat = circulant("-+++")
    normalized, rep = hd.normalize_into_complete(mat)
    assert rep.already_contained
    assert rep.signs == "++++"
    assert rep.sset_parity == "odd"
    assert rep.sset_members == (1, 3)
    assert normalized == mat


def fixed_block_scan(mat, block=4096):
    """The first working sign vector and its 1-based scan position, found
    with one block size for every chunk, even flavour first."""
    m = mat.m
    rows = np.array(mat.rows, dtype=np.uint64)
    scanned = 0
    for flavour in complete_maximal(m):
        allowed = np.zeros(m + 1, dtype=bool)
        allowed[list(flavour.members)] = True
        for start in range(0, 1 << m, block):
            ts = np.arange(start, min(start + block, 1 << m), dtype=np.uint64)
            weights = m - np.bitwise_count(ts[:, None] ^ rows[None, :])
            hits = np.flatnonzero(allowed[weights].all(axis=1))
            if hits.size:
                t = int(ts[hits[0]])
                return str(BinarySequence(m, t)), scanned + int(hits[0]) + 1
            scanned += ts.size
    raise AssertionError(f"no containment at order {m}")


def shuffled_copy(mat, seed):
    """mat with its columns permuted and then negated, both seeded."""
    rng = random.Random(seed)
    perm = list(range(mat.m))
    rng.shuffle(perm)
    flip = rng.getrandbits(mat.m)
    return hd.SignMatrix(mat.m, tuple(permute_bits(r, mat.m, tuple(perm)) ^ flip
                                      for r in mat.rows))


def normalize_cases():
    cases = [hd.BUILTIN_H12]
    cases += [hd.border_core(hd.paley_core(p)) for p in (3, 7, 11, 19, 23)]
    for border in cases[-2:]:  # orders 20 and 24
        for seed in range(3):
            flip = random.Random(seed).getrandbits(border.m)
            cases.append(hd.SignMatrix(border.m, tuple(r ^ flip for r in border.rows)))
    # Two copies whose first hit lies in the second chunk.
    cases += [shuffled_copy(hd.BUILTIN_H12, 264), shuffled_copy(cases[4], 103)]
    return cases


def test_normalize_chunk_schedule_matches_a_fixed_block_scan():
    scans = []
    for mat in normalize_cases():
        _, rep = hd.normalize_into_complete(mat)
        assert (rep.signs, rep.scanned) == fixed_block_scan(mat)
        scans.append(rep.scanned)
    # H12 hits at 14; the order-20 and order-24 borders hit at the last
    # vector of the first 64-vector chunk; the order-4 border exhausts its
    # even pass before the odd one hits.
    assert scans[:6] == [14, 18, 4, 16, 64, 64]
    assert scans[-2:] == [67, 92]


def test_normalize_guards():
    with pytest.raises(InvalidLength):
        hd.normalize_into_complete(hd.SignMatrix.from_rows(["++", "+-"]))
    with pytest.raises(NotHadamard):
        hd.normalize_into_complete(hd.SignMatrix.from_rows(["+++-"] * 4))


# ---------------------------------------------------------------- search

def test_search_order_four():
    res = hd.search_circulant_hadamard(4)
    assert res.feasible_weights == (1, 3)
    assert res.found == ("+++-", "+---")
    assert res.candidates_tested == 8
    orbits = [classify(make_sequence(s)) for s in res.found]
    assert [(str(o.representative), o.size) for o in orbits] == \
        [("+++-", 4), ("+---", 4)]


def test_search_trivial_orders():
    res = hd.search_circulant_hadamard(1)
    assert res.found == ("+", "-") and res.feasible_weights == (0, 1)
    res = hd.search_circulant_hadamard(2)
    assert res.found == () and res.candidates_tested == 0


def test_search_empty_feasible_orders():
    for n in (8, 12, 20, 24):
        res = hd.search_circulant_hadamard(n)
        assert res.feasible_weights == ()
        assert res.found == () and res.candidates_tested == 0


def test_search_order_sixteen_exhausts_in_vain():
    res = hd.search_circulant_hadamard(16)
    assert res.found == ()
    assert res.candidates_tested == 16016


def test_search_matches_bruteforce():
    for n in (1, 2, 4, 8, 12, hd.BRUTEFORCE_MAX_N):
        assert hd.search_circulant_hadamard(n).found == \
            hd.search_circulant_bruteforce(n)
    with pytest.raises(ScaleExceeded):
        hd.search_circulant_bruteforce(hd.BRUTEFORCE_MAX_N + 1)


@pytest.mark.parametrize("n", [0, -1])
def test_bruteforce_refuses_lengths_below_one(n):
    with pytest.raises(InvalidLength):
        hd.search_circulant_bruteforce(n)


def test_bruteforce_runs_without_the_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle called flat_offpeak_indices")

    monkeypatch.setattr(autocorr, "flat_offpeak_indices", refuse)
    monkeypatch.setattr(hd, "flat_offpeak_indices", refuse)
    with pytest.raises(AssertionError):
        hd.search_circulant_hadamard(4)  # the patch is in force
    assert hd.search_circulant_bruteforce(1) == ("+", "-")
    assert hd.search_circulant_bruteforce(4) == ("+++-", "+---")
    assert hd.search_circulant_bruteforce(6) == ()


def test_search_guards():
    with pytest.raises(InvalidLength):
        hd.search_circulant_hadamard(6)
    with pytest.raises(ScaleExceeded):
        hd.search_circulant_hadamard(36)


# --------------------------------------------------------------- verdicts

def test_sym_verdict_excluded_for_odd_half_length():
    for n in (1, 3, 5):
        for a in range(2 * n + 1):
            for kind in ("sym", "asym"):
                v = hd.partition_parity_verdict(n, 1, a, kind)
                assert v.excluded, (n, a, kind)


def test_sym_verdict_open_for_even_half_length():
    assert not hd.partition_parity_verdict(2, 1, 2, "sym").excluded
    assert not hd.partition_parity_verdict(4, 1, 4, "sym").excluded


def test_plain_verdict_certificate():
    v = hd.partition_parity_verdict(1, 1, 1, "plain")
    assert v.verdict == hd.VERDICT_OPEN
    cert = v.certificate
    assert cert["stated_parity_clause"]["satisfiable"] is False
    assert v.as_dict()["parameters"] == {"n": 1, "r": 1, "a": 1}


def test_plain_verdict_excluded_when_sum_unreachable():
    v = hd.partition_parity_verdict(3, 1, 0, "plain")
    assert v.excluded  # forced overlap sum is negative, weight 0 blocks


def test_verdict_argument_guards():
    with pytest.raises(ValueError):
        hd.partition_parity_verdict(2, 3, 1, "sym")
    with pytest.raises(ValueError):
        hd.partition_parity_verdict(2, 1, 1, "bogus")
    with pytest.raises(InvalidWeight):
        hd.partition_parity_verdict(2, 1, 5, "plain")


def test_structured_search_consistent_with_verdicts():
    rep = hd.exhaustive_structured_search(1, 1, 1, "plain")
    assert rep["verdict"] == hd.VERDICT_OPEN
    assert rep["hits"] == [] and rep["consistent"]
    for a in range(3):
        rep = hd.exhaustive_structured_search(1, 1, a, "sym")
        assert rep["verdict"] == hd.VERDICT_EXCLUDED
        assert rep["hits"] == [] and rep["consistent"]
    rep = hd.exhaustive_structured_search(3, 1, 2, "sym")
    assert rep["verdict"] == hd.VERDICT_EXCLUDED and rep["consistent"]


def criterion_11_sweep(order):
    """The (n, r, a, kind) that criterion 11 runs at one order."""
    cases = []
    for n in range(1, order // 4 + 1):
        if order % (4 * n) == 0:
            r = order // (4 * n)
            cases += [(n, r, a, kind) for kind in ("plain", "alt") for a in range(2 * n + 1)]
    n = order // 4
    cases += [(n, 1, a, kind) for kind in ("sym", "asym") for a in range(2 * n + 1)]
    return cases


@pytest.mark.parametrize("order", [4, 8, 12, 16, 20, 24])
def test_structured_search_matches_scalar_oracle(order):
    """Every report criterion 11 makes up to order 24, hits in order."""
    for case in criterion_11_sweep(order):
        assert hd.exhaustive_structured_search(*case) == \
            scalar_structured_search(*case), case


def test_criterion_11_sweep_lists_every_case():
    cases = [c for order in range(4, 25, 4) for c in criterion_11_sweep(order)]
    assert len(cases) == len(set(cases)) == 2 * sum(
        (2 * n + 1) * (24 // (4 * n) + 1) for n in range(1, 7))


def test_structured_search_object_path_matches_scalar_oracle():
    """Orders 68, 80 and 132 run on object arrays of Python ints; at 132
    the blocks themselves pass 64 positions."""
    for case, count in (((17, 1, 1, "plain"), 34 ** 2), ((17, 1, 1, "alt"), 34 ** 2),
                        ((20, 1, 0, "sym"), 1), ((33, 1, 1, "asym"), 66)):
        rep = hd.exhaustive_structured_search(*case)
        assert rep == scalar_structured_search(*case), case
        assert rep["candidates"] == count


def test_concat_blocks_places_first_block_first():
    joined = concat_bits([make_sequence("+-").bits, make_sequence("--").bits], 2)
    assert str(BinarySequence(4, joined)) == "+---"
    blocks = ["+-+", "---", "++-", "-++"]
    joined = concat_bits((make_sequence(b).bits for b in blocks), 3)
    assert str(BinarySequence(12, joined)) == "".join(blocks)


def test_concat_blocks_follow_product_order(monkeypatch):
    """No search report at a searchable size shows the digit order, since
    no plain, alt or multi-block core candidate there is flat; so check
    it directly, across block boundaries, on uint64 and on object words."""
    monkeypatch.setattr(hd, "_BLOCK", 5)
    words = ([1, 4, 6], [0, 7], [2, 3, 5, 7])
    for width in (3, 30):
        factors = [np.array(w, dtype=np.uint64) for w in words]
        got = np.concatenate(list(hd._concat_blocks(factors, width))).tolist()
        assert got == [concat_bits(t, width) for t in product(*words)], width


def test_structured_search_memory_stays_in_blocks():
    """6^8 candidates of order 32 would take 13 MB in one uint64 array."""
    def search():
        return hd.exhaustive_structured_search(2, 4, 2, "plain")

    search()  # warm-up
    tracemalloc.start()
    try:
        rep = search()
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert rep["candidates"] == 6 ** 8 == 1679616
    assert rep["hits"] == []
    assert peak_mb < 5


def test_core_partition_verdicts():
    assert hd.core_partition_verdict(5, 3).excluded
    assert hd.core_partition_verdict(3, 5).excluded
    assert not hd.core_partition_verdict(15, 1).excluded
    assert not hd.core_partition_verdict(7, 1).excluded
    with pytest.raises(InvalidCoreOrder):
        hd.core_partition_verdict(3, 3)  # 9 = 1 mod 4


@pytest.mark.parametrize("n, r", [(-1, -3), (0, 3), (3, 0)])
def test_core_verdict_refuses_nonpositive_parameters(n, r):
    with pytest.raises(ValueError, match="must be positive"):
        hd.core_partition_verdict(n, r)


def test_core_search_length_fifteen_empty():
    rep = hd.exhaustive_core_partition_search(5, 3)
    assert rep["candidates"] == 2252
    assert rep["hits"] == [] and rep["consistent"]


def test_core_search_matches_scalar_oracle():
    for n, r in ((5, 3), (3, 5), (7, 1), (11, 1), (1, 67)):
        assert hd.exhaustive_core_partition_search(n, r) == \
            scalar_core_partition_search(n, r), (n, r)
    assert len(hd.exhaustive_core_partition_search(11, 1)["hits"]) > 0


def test_core_search_length_seven_finds_residue_cores():
    rep = hd.exhaustive_core_partition_search(7, 1)
    assert rep["verdict"] == hd.VERDICT_OPEN
    assert rep["candidates"] == 128
    assert len(rep["hits"]) == 14
    assert all(make_sequence(h).weight == 3 for h in rep["hits"])
    assert str(hd.paley_core(7)) in rep["hits"]


# ------------------------------------------------------- cores and borders

def test_paley_cores():
    assert str(hd.paley_core(3)) == "-+-"
    assert str(hd.paley_core(7)) == "-++-+--"
    assert str(hd.paley_core(11)) == "-+-+++---+-"
    with pytest.raises(InvalidCoreOrder):
        hd.paley_core(5)  # 5 = 1 mod 4
    with pytest.raises(InvalidCoreOrder):
        hd.paley_core(15)  # not prime


def test_paley_core_flat_offpeak():
    for p in (3, 7, 11, 19, 23):
        core = hd.paley_core(p)
        assert core.weight == (p - 1) // 2
        assert flat_offpeak(core, level=-1)
        assert theta(core).values == (p,) + (-1,) * (p - 1)


def test_border_core_matches_fixed_render():
    assert hd.border_core(hd.paley_core(7)).render() == BORDER7
    for p in (3, 7, 11, 19, 23):
        assert hd.is_hadamard(hd.border_core(hd.paley_core(p)))


def test_border_core_rejects_non_core():
    with pytest.raises(InvalidCore):
        hd.border_core(make_sequence("++-"))  # weight 2, need 1
    with pytest.raises(InvalidCore):
        hd.border_core(make_sequence("+++-"))  # even length
    with pytest.raises(InvalidCore):
        hd.border_core(make_sequence("++---"))  # right weight, lumpy off-peak


def test_core_decimation_multipliers():
    for p, want in CORE_DELTA_MULTIPLIERS.items():
        got = classify(hd.paley_core(p)).delta_invariant
        assert got == want
        assert QUADRATIC_RESIDUES[p] <= set(got)
