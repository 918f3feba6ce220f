import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from z2schur import autocorr
from z2schur.autocorr import (
    AutocorrVector,
    flat_offpeak,
    flat_offpeak_indices,
    periodic_autocorrelation,
    periodic_correlation,
    random_identity_trials,
    sum_identity,
    theta,
    verify_identities,
)
from z2schur.autocorr import VERIFY_MAX_N
from z2schur.errors import InvalidLength, LengthMismatch, ScaleExceeded
from z2schur.hadamard import paley_core
from z2schur.sequences import BinarySequence, make_sequence, units
from helpers import (
    peak_traced_mb,
    str_autocorr,
    str_cross,
    str_decimate,
    str_negate,
    str_permute,
    str_rotate,
)

signs = st.text(alphabet="+-", min_size=1, max_size=16)


@given(signs, st.integers(0, 40))
def test_autocorrelation_matches_string_oracle(s, k):
    assert periodic_autocorrelation(make_sequence(s), k) == str_autocorr(s, k)


@given(signs, st.data())
def test_cross_correlation_matches_string_oracle(s, data):
    t = data.draw(st.text(alphabet="+-", min_size=len(s), max_size=len(s)))
    k = data.draw(st.integers(0, len(s)))
    x, y = make_sequence(s), make_sequence(t)
    assert periodic_correlation(x, y, k) == str_cross(s, t, k)


def test_cross_correlation_length_mismatch():
    with pytest.raises(LengthMismatch):
        periodic_correlation(make_sequence("+-"), make_sequence("+--"), 1)


def test_theta_fixed_values():
    assert theta(make_sequence("+---")).values == (4, 0, 0, 0)
    assert theta(make_sequence("+-")).values == (2, -2)
    assert theta(make_sequence("+++")).values == (3, 3, 3)


def test_theta_peak_and_symmetry():
    vec = theta(make_sequence("++-+-++---"))
    n = vec.n
    assert vec.values[0] == n
    for k in range(1, n):
        assert vec.values[k] == vec.values[n - k]
    assert vec[3] == vec[-3] == vec[n + 3]


def test_autocorr_vector_validation():
    with pytest.raises(ValueError):
        AutocorrVector(4, (4, 0, 0))  # wrong length
    with pytest.raises(ValueError):
        AutocorrVector(4, (2, 0, 0, 0))  # peak must be n
    with pytest.raises(ValueError):
        AutocorrVector(4, (4, 0, 2, 0))  # symmetry broken
    with pytest.raises(ValueError):
        AutocorrVector(4, (4, 1, 0, 1))  # even n: n - P(k) must be 0 mod 4
    AutocorrVector(3, (3, 1, 1))  # odd n carries no mod-4 constraint


@given(signs)
def test_mod_four_congruence_all_lengths(s):
    vec = theta(make_sequence(s))
    for k in range(1, vec.n):
        assert (vec.n - vec.values[k]) % 4 == 0


def test_flat_offpeak():
    assert flat_offpeak(make_sequence("+---"))
    assert flat_offpeak(make_sequence("+++-"))
    assert not flat_offpeak(make_sequence("++--"))
    assert flat_offpeak(make_sequence("-++-+--"), level=-1)
    assert not flat_offpeak(make_sequence("+++-"), level=1)  # parity guard
    for s in ("+", "-"):  # no off-peak shift at n = 1: vacuously flat
        assert flat_offpeak(make_sequence(s))
        assert flat_offpeak(make_sequence(s), level=-1)


def _flat_by_string(words, n, level):
    # Positions of the words whose string autocorrelation is level at every k != 0.
    return [i for i, w in enumerate(words)
            if all(str_autocorr(str(BinarySequence(n, w)), k) == level
                   for k in range(1, n))]


def test_flat_offpeak_indices_matches_string_oracle():
    """Every word at n <= 10, at levels 0 and -1 and at a level of the
    wrong parity, which only n = 1 passes."""
    for n in range(1, 11):
        words = np.arange(1 << n, dtype=np.uint64)
        for level in (0, -1, 1 + n % 2):
            got = flat_offpeak_indices(words, n, level).tolist()
            assert got == _flat_by_string(range(1 << n), n, level), (n, level)
            if level == 1 + n % 2:
                assert got == ([0, 1] if n == 1 else [])


def test_flat_offpeak_indices_at_sixty_four_positions():
    """The last uint64 width: constant words are flat at level 64, the
    top bit rotates round, and random words match the string oracle."""
    rng = random.Random(64)
    words = [0, (1 << 64) - 1, 1 << 63, 0x5555555555555555]
    words += [rng.getrandbits(64) for _ in range(200)]
    arr = np.array(words, dtype=np.uint64)
    for level in (0, -4, 64):
        assert flat_offpeak_indices(arr, 64, level).tolist() == \
            _flat_by_string(words, 64, level), level
    assert flat_offpeak_indices(arr, 64, 64).tolist() == [0, 1]


def test_flat_offpeak_indices_on_object_words():
    """Paley cores of length 67 and 71, past uint64, pass at level -1 and
    their one-bit mutants fail, but for the flip of position 0: that gives
    the negated non-residue core, which is flat as well."""
    for p in (67, 71):
        core = paley_core(p).bits
        words = np.array([core] + [core ^ 1 << j for j in range(p)], dtype=object)
        got = flat_offpeak_indices(words, p, -1).tolist()
        assert got == _flat_by_string(words.tolist(), p, -1) == [0, p]
        assert flat_offpeak_indices(words, p, 0).size == 0  # parity miss


@given(signs)
def test_sum_identity(s):
    assert sum_identity(make_sequence(s))["ok"]


@given(signs, st.data())
def test_cross_sum_identity(s, data):
    # sum_k P_{X,Y}(k) = (2a - n)(2b - n) for weights a, b.
    t = data.draw(st.text(alphabet="+-", min_size=len(s), max_size=len(s)))
    x, y = make_sequence(s), make_sequence(t)
    total = sum(periodic_correlation(x, y, k) for k in range(x.n))
    assert total == (2 * x.weight - x.n) * (2 * y.weight - x.n)
    assert total == sum(str_cross(s, t, k) for k in range(x.n))


@given(st.integers(1, 16), st.data())
def test_decimation_permutes_autocorrelation(n, data):
    # P_{d_r X}(i) = P_X(ri mod n), on the string oracles.
    s = data.draw(st.text(alphabet="+-", min_size=n, max_size=n))
    r = data.draw(st.sampled_from(units(n)))
    dx = make_sequence(str_decimate(s, r))
    assert [periodic_autocorrelation(dx, i) for i in range(n)] == \
        [str_autocorr(s, r * i % n) for i in range(n)]


@given(signs)
def test_invariance_under_symmetries(s):
    x = make_sequence(s)
    base = theta(x).values
    assert theta(x.rotate(3)).values == base
    assert theta(x.reverse()).values == base
    assert theta(-x).values == base


def test_cross_theta_shape():
    # The cross-correlation vector of two rotations of one word is its
    # autocorrelation vector, rotated.
    x, y = make_sequence("++-+"), make_sequence("+-++")
    assert [periodic_correlation(x, y, k) for k in range(4)] == [0, 0, 0, 4]
    assert [str_cross("++-+", "+-++", k) for k in range(4)] == [0, 0, 0, 4]


def test_verify_identities_exhaustive_small():
    for n in range(1, 11):
        rep = verify_identities(n)
        assert rep["ok"], rep["violations"][:3]
        assert rep["checked"] == 1 << n


def identity_oracle(n):
    """verify_identities(n) from '+'/'-' strings, one string at a time.

    The reversal and decimation images use whatever position permutations
    `autocorr` currently holds, so a patched permutation reaches both."""
    words = [format(w, f"0{n}b").translate(str.maketrans("01", "+-"))
             for w in range(1 << n)]
    vec = {s: [str_autocorr(s, k) for k in range(n)] for s in words}
    violations = []
    counts = dict.fromkeys(("peak", "symmetry", "mod4", "ik_range", "sum",
                            "rotation", "reversal", "negation", "decimation"), 0)

    def check(kind, bad, **keys):
        failing = [s for s in words if bad(s)]
        counts[kind] += len(failing)
        violations.extend({"kind": kind, "x": s, **keys} for s in failing[:10])

    def ik_bad(s, k):
        a = s.count("+")
        four_i = vec[s][k] - n + 4 * a
        return four_i % 4 != 0 or not 0 <= four_i // 4 <= a

    check("peak", lambda s: vec[s][0] != n)
    for k in range(1, n):
        check("symmetry", lambda s: vec[s][k] != vec[s][n - k], k=k)
        check("mod4", lambda s: (n - vec[s][k]) % 4 != 0, k=k)
        check("ik_range", lambda s: ik_bad(s, k), k=k)
    check("sum", lambda s: sum(vec[s]) != (2 * s.count("+") - n) ** 2)
    reverse = autocorr.reversal_perm(n)
    images = [("rotation", 1, lambda s: str_rotate(s, 1)),
              ("reversal", 1, lambda s: str_permute(s, reverse)),
              ("negation", 1, str_negate)]
    images += [("decimation", r, lambda s, p=autocorr.decimation_perm(n, r): str_permute(s, p))
               for r in units(n) if r != 1]
    for kind, r, image in images:
        moved = {s: vec[image(s)] for s in words}
        for k in range(n):
            check(kind, lambda s: moved[s][k] != vec[s][r * k % n], k=k)
    return {"n": n, "checked": 1 << n, "violations": violations,
            "violation_counts": counts, "ok": not violations}


def _swap_first_two(perm_of):
    def swapped(n, *args):
        perm = list(perm_of(n, *args))
        perm[:2] = perm[1::-1]
        return tuple(perm)
    return swapped


@pytest.mark.parametrize("broken", ("decimation_perm", "reversal_perm"))
def test_verify_identities_matches_string_oracle(monkeypatch, broken):
    """With a reversal or decimation that swaps positions 0 and 1, no
    longer an automorphism, the full capped violation list, in order, and
    the exact counts per kind equal a per-string oracle at every n <= 8."""
    monkeypatch.setattr(autocorr, broken, _swap_first_two(getattr(autocorr, broken)))
    for n in range(1, 9):
        assert verify_identities(n) == identity_oracle(n), n
    rep = verify_identities(8)
    kind = broken.removesuffix("_perm")
    assert {k for k, c in rep["violation_counts"].items() if c} == {kind}
    assert rep["violation_counts"][kind] > len(rep["violations"])  # a cap of ten bit


def test_verify_identities_at_its_cap():
    rep = verify_identities(VERIFY_MAX_N)
    assert rep["ok"] and rep["checked"] == 1 << VERIFY_MAX_N
    assert not any(rep["violation_counts"].values())
    with pytest.raises(ScaleExceeded):
        verify_identities(VERIFY_MAX_N + 1)


def test_verify_identities_refuses_lengths_below_one():
    # No sequence has length below 1; refused before any table is built.
    for n in (0, -1):
        with pytest.raises(InvalidLength):
            verify_identities(n)
    assert verify_identities(1)["ok"]


def test_random_trials_seeded():
    rep = random_identity_trials(32, trials=200, seed=1)
    assert rep["ok"] and rep["trials"] == 200
    again = random_identity_trials(32, trials=200, seed=1)
    assert again == rep


# ------------------------------------------- batched randomized trials

def scalar_trials(n, trials=1000, seed=0, rng=None):
    """The per-trial loop the batched trials replaced, kept as their oracle."""
    rng = random.Random(seed) if rng is None else rng
    mults = units(n)
    violations = []
    for t in range(trials):
        x = BinarySequence(n, rng.getrandbits(n))
        y = BinarySequence(n, rng.getrandbits(n))
        vec = theta(x)  # peak, symmetry, and even-n mod 4 enforced here
        if sum(vec.values) != (2 * x.weight - n) ** 2:
            violations.append({"kind": "sum", "trial": t})
        if sum(periodic_correlation(x, y, j) for j in range(n)) != \
                (2 * x.weight - n) * (2 * y.weight - n):
            violations.append({"kind": "cross_sum", "trial": t})
        k = rng.randrange(1, n)
        if periodic_autocorrelation(x.rotate(1), k) != vec[k]:
            violations.append({"kind": "rotation", "trial": t, "k": k})
        if periodic_autocorrelation(x.reverse(), k) != vec[k]:
            violations.append({"kind": "reversal", "trial": t, "k": k})
        if periodic_autocorrelation(-x, k) != vec[k]:
            violations.append({"kind": "negation", "trial": t, "k": k})
        r = rng.choice(mults)
        dx = x.decimate(r)
        if any(periodic_autocorrelation(dx, i) != vec[r * i % n] for i in range(n)):
            violations.append({"kind": "decimation", "trial": t, "r": r})
    return {"n": n, "trials": trials, "seed": seed, "violations": violations,
            "ok": not violations}


TRIAL_LENGTHS = (2, 3, 5, 8, 15, 32, 63, 64)


@pytest.mark.parametrize("n", TRIAL_LENGTHS)
def test_batched_trials_match_scalar_loop(n):
    trials = 4000 // n + 16  # the loop costs about n^2 per trial
    for seed in range(5):
        assert random_identity_trials(n, trials, seed) == scalar_trials(n, trials, seed)


class RecordingRandom(random.Random):
    """Logs every draw, including the getrandbits calls randrange and
    choice make internally, so two logs agree only if the same calls were
    made with the same arguments in the same order."""

    def __init__(self, seed):
        self.log = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.log.append(("getrandbits", k))
        return super().getrandbits(k)

    def randrange(self, *args):
        self.log.append(("randrange", args))
        return super().randrange(*args)

    def choice(self, seq):
        self.log.append(("choice", tuple(seq)))
        return super().choice(seq)


@pytest.mark.parametrize("n", (2, 15, 63, 64))
def test_batched_trials_draw_like_the_loop(monkeypatch, n):
    made = []

    def recording(seed):
        made.append(RecordingRandom(seed))
        return made[-1]

    monkeypatch.setattr(autocorr.random, "Random", recording)
    random_identity_trials(n, 6, 3)
    monkeypatch.undo()
    want = RecordingRandom(3)
    scalar_trials(n, 6, rng=want)
    assert len(made) == 1 and made[0].log == want.log
    assert [call[0] for call in want.log if call[0] != "getrandbits"] == \
        ["randrange", "choice"] * 6


def test_a_corrupted_decimation_index_is_reported(monkeypatch):
    class OneBadMultiplier(random.Random):
        picks = 0

        def choice(self, seq):
            r = super().choice(seq)
            OneBadMultiplier.picks += 1
            return 2 if OneBadMultiplier.picks == 4 else r  # trial 3: gcd(2, 8) = 2

    monkeypatch.setattr(autocorr.random, "Random", OneBadMultiplier)
    rep = random_identity_trials(8, 10, 0)
    assert rep["violations"] == [{"kind": "decimation", "trial": 3, "r": 2}]
    assert not rep["ok"]


@pytest.mark.parametrize("n", (8, 12, 9, 15, 64))
def test_a_packed_fault_breaks_peak_and_even_mod4_only(monkeypatch, n):
    """The trials read popcount tables.  Moving one trial's
    P_X(0) down by 2 and P_X(j), P_X(n - j) up by 1, with k not j or
    n - j and d_r X's table moved to match, keeps the sums, the symmetry,
    the invariances at k and the decimation, but breaks the peak and, at
    even n, the congruences at j and n - j."""
    trial = 2
    real = autocorr._packed_correlations
    seen = {}

    def faulty(length, xs, ys, ks, dec):
        table, dtab, *_ = out = real(length, xs, ys, ks, dec)
        j = next(j for j in range(1, n) if 2 * j != n and ks[trial] not in (j, n - j))
        delta = np.zeros(n, dtype=np.int64)
        delta[0], delta[j], delta[n - j] = -2, 1, 1
        table[trial] += delta
        dtab[trial] += delta[dec[trial]]
        seen["j"] = j
        return out

    monkeypatch.setattr(autocorr, "_packed_correlations", faulty)
    rep = random_identity_trials(n, 5, 2)
    mod4 = [] if n % 2 else sorted((seen["j"], n - seen["j"]))
    assert rep["violations"] == [{"kind": "peak", "trial": trial}] + [
        {"kind": "mod4", "trial": trial, "k": k} for k in mod4]


def test_random_trials_need_a_nonzero_shift():
    for n in (1, 0, 65, 256):
        with pytest.raises(InvalidLength, match="2 <= n <= 64"):
            random_identity_trials(n, 10)


def test_random_trials_refuse_a_negative_count(monkeypatch):
    # Refused before any draw is made; no trials at all is an empty report.
    made = []
    monkeypatch.setattr(autocorr.random, "Random", lambda seed: made.append(seed))
    with pytest.raises(ValueError, match="at least 0, got -3"):
        random_identity_trials(32, -3)
    assert not made
    monkeypatch.undo()
    assert random_identity_trials(32, 0) == {
        "n": 32, "trials": 0, "seed": 0, "violations": [], "ok": True}


def test_trial_blocks_match_scalar_loop(monkeypatch):
    """With blocks of 32 entries (16 trials at n = 2, 4 at n = 8, and one
    trial per block from n = 32 on) the trials still equal the loop, and
    the blocks are checked one by one, the last one short."""
    monkeypatch.setattr(autocorr, "_TRIAL_BLOCK", 1 << 5)
    for n in TRIAL_LENGTHS:
        trials = 4000 // n + 16
        assert random_identity_trials(n, trials, 7) == scalar_trials(n, trials, 7), n
    sizes = []
    real = autocorr._trial_block
    monkeypatch.setattr(autocorr, "_trial_block",
                        lambda n, xs, *rest: sizes.append(len(xs)) or real(n, xs, *rest))
    assert random_identity_trials(8, 10, 4)["ok"]
    assert sizes == [4, 4, 2]


def test_a_corrupted_decimation_past_the_first_block_keeps_its_trial_index(monkeypatch):
    class OneBadMultiplier(random.Random):
        picks = 0

        def choice(self, seq):
            r = super().choice(seq)
            OneBadMultiplier.picks += 1
            return 2 if OneBadMultiplier.picks == 6 else r  # trial 5: gcd(2, 8) = 2

    monkeypatch.setattr(autocorr, "_TRIAL_BLOCK", 1 << 5)  # 4 trials per block
    monkeypatch.setattr(autocorr.random, "Random", OneBadMultiplier)
    rep = random_identity_trials(8, 10, 0)  # trial 5 is the second of block 2
    assert rep["violations"] == [{"kind": "decimation", "trial": 5, "r": 2}]


def test_autocorrelation_sweeps_stay_in_cache_sized_blocks():
    # The trials hold a few blocks of 2^13 entries and the draws, whatever
    # n: uint64 words at every shift (192 KiB a table).
    # verify_identities(16) holds its 1 MiB table, a gather and a mask
    # buffer of that size, a 512 KiB index array and 64 KiB rows.
    assert peak_traced_mb(lambda: random_identity_trials(64, 1000)) < 1.5
    assert peak_traced_mb(lambda: verify_identities(VERIFY_MAX_N)) < 1 + 3.5
