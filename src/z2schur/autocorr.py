"""Periodic autocorrelation of sign sequences.

For a length-n sign sequence X the periodic autocorrelation at shift k
is P_X(k) = sum_j X_j X_{j+k} with indices mod n, which in packed form
is n - 2 popcount(X xor rotate(X, k)).  The whole vector theta(X) =
(P_X(0), ..., P_X(n-1)) is invariant under rotation, reversal, and
negation, is permuted by decimations via P_{d_r X}(i) = P_X(ri), and
always sums to (2a - n)^2 where a is the weight of X.

Every check counts bits of packed words: the exhaustive sweep, the flat
off-peak test, and the randomized trials, which take 2 <= n <= 64 so
that a uint64 holds a word.  Rotations of word arrays, bit columns and
their packing are those of `sequences`.
"""

from __future__ import annotations

from dataclasses import dataclass
import random

import numpy as np

from .errors import InvalidLength, LengthMismatch, ScaleExceeded
from .sequences import (
    BinarySequence,
    bit_columns,
    check_positive_length,
    decimation_perm,
    pack_columns,
    permute_bits_array,
    reversal_perm,
    rotate_bits,
    rotate_bits_array,
    units,
    word_dtype,
)

VERIFY_MAX_N = 16
# Entries per block of random_identity_trials: 256 trials at n = 32, so
# a block's uint64 words with every shift are 192 KiB.
_TRIAL_BLOCK = 1 << 13


def periodic_correlation(x: BinarySequence, y: BinarySequence, k: int) -> int:
    """P_{X,Y}(k) = sum_j X_j Y_{j+k}, indices mod n."""
    if x.n != y.n:
        raise LengthMismatch(f"lengths differ: {x.n} vs {y.n}")
    k %= x.n
    return x.n - 2 * (x.bits ^ rotate_bits(y.bits, y.n, k)).bit_count()


def periodic_autocorrelation(x: BinarySequence, k: int) -> int:
    return periodic_correlation(x, x, k)


@dataclass(frozen=True)
class AutocorrVector:
    """A full autocorrelation vector with its unconditional invariants
    enforced: peak n at shift 0, the symmetry P(k) = P(n-k), and for even
    n the congruence P(k) = n mod 4 at every shift."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.n:
            raise ValueError(f"expected {self.n} values, got {len(self.values)}")
        if self.values[0] != self.n:
            raise ValueError(f"peak must equal n={self.n}, got {self.values[0]}")
        for k in range(1, self.n):
            if self.values[k] != self.values[self.n - k]:
                raise ValueError(f"symmetry broken at shift {k}")
            if self.n % 2 == 0 and (self.n - self.values[k]) % 4:
                raise ValueError(f"value at shift {k} not congruent to n mod 4")

    def __getitem__(self, k: int) -> int:
        return self.values[k % self.n]


def theta(x: BinarySequence) -> AutocorrVector:
    return AutocorrVector(
        x.n, tuple(periodic_autocorrelation(x, k) for k in range(x.n))
    )


def flat_offpeak_indices(words: np.ndarray, n: int, level: int = 0) -> np.ndarray:
    """Indices of the packed length-n words with P(k) = level at every k != 0.

    P(k) = level needs popcount(X xor rotate(X, k)) = (n - level)/2, so a
    parity miss rules every word out, and the symmetry P(k) = P(n - k)
    halves the scan.  After each shift the array is compacted to the words
    still flat, so most words cost one shift.  At n = 1 there is no
    off-peak shift, so every word passes at every level.  Words are uint64
    up to n = 64 and Python ints (object dtype) beyond, on one code path.
    """
    words = np.asarray(words)
    idx = np.arange(words.size)
    if n > 1 and (n - level) % 2:
        return idx[:0]
    target = (n - level) // 2
    for k in range(1, n // 2 + 1):
        if not idx.size:
            break
        keep = np.bitwise_count(words ^ rotate_bits_array(words, n, k)) == target
        words, idx = words[keep], idx[keep]
    return idx


def flat_offpeak(x: BinarySequence, level: int = 0) -> bool:
    """True iff P_X(k) = level for every k != 0."""
    word = np.array([x.bits], dtype=word_dtype(x.n))
    return flat_offpeak_indices(word, x.n, level).size == 1


def sum_identity(x: BinarySequence) -> dict:
    """sum_k P_X(k) = (2a - n)^2 for X of weight a."""
    a = x.weight
    total = sum(periodic_autocorrelation(x, k) for k in range(x.n))
    expected = (2 * a - x.n) ** 2
    return {"n": x.n, "weight": a, "sum": total, "expected": expected,
            "ok": total == expected}


def verify_identities(n: int) -> dict:
    """Exhaustively check every identity over all 2^n sequences.

    Covers: peak value, shift symmetry, the mod-4 congruence of n - P(k)
    (recorded at every n, even and odd alike), the sum identity, the
    bound P(k) = n - 4a + 4 i_k with 0 <= i_k <= a, and invariance under
    rotation, reversal, negation, and every decimation.

    The words are w = 0 .. 2^n - 1, so column w of the n x 2^n table
    holds P_w at every shift.  The table is built once, in int8 (|P| <=
    n <= 16), a row per shift k from the popcount of w ^ rotate(w, k).
    The peak, symmetry, mod-4 and i_k range checks run one shift row at a
    time through reused row buffers.  A transform's values are a gather
    into one reused table-sized buffer: word w maps to image[w], and
    P_{image[w]}(k) = table[k, image[w]] is compared with table[k, w], or
    with table[rk mod n, w] for the decimation d_r.  The negation maps w
    to 2^n - 1 - w, so its gather is the table read backwards.  Every word
    image is built from the images of the 2^h low words and the 2^(n-h)
    high words, h = n // 2, so no temporary is the size of the word range.

    Each check lists at most ten violating sequences, in word order, and
    only masks with a failure are searched for them.  `violation_counts`
    gives the exact number of failures per kind: failing (word, shift)
    pairs, or failing words for the peak and the sum.  Refuses n < 1, and
    n above VERIFY_MAX_N.
    """
    check_positive_length(n)
    if n > VERIFY_MAX_N:
        raise ScaleExceeded(f"exhaustive sweep capped at n <= {VERIFY_MAX_N}")
    size, low = 1 << n, 1 << n // 2
    images = np.arange(size, dtype=np.intp)  # np.take's index type, so no copy
    weights = np.empty(size, dtype=np.int8)  # the '+' count a
    np.subtract(n, np.bitwise_count(images), out=weights)
    # w = hi * low + lo, so a map fn that is linear over xor (a position
    # permutation, or w ^ rotate(w, k)) has fn(w) = fn(hi * low) ^ fn(lo):
    # fn runs on these at most 2^9 words, and one outer xor fills images.
    parts = np.concatenate((images[:low], images[:size // low] * low))

    def image_of(fn) -> np.ndarray:
        part = fn(parts)
        np.bitwise_xor(part[low:, None], part[:low], out=images.reshape(-1, low))
        return images

    table = np.empty((n, size), dtype=np.int8)  # |P| <= n <= 16
    for k in range(n):
        np.bitwise_count(image_of(lambda w: w ^ rotate_bits_array(w, n, k)),
                         out=table[k])
    table *= -2
    table += n
    violations: list[dict] = []
    counts = dict.fromkeys(("peak", "symmetry", "mod4", "ik_range", "sum",
                            "rotation", "reversal", "negation", "decimation"), 0)

    def check(kind: str, mask: np.ndarray, keys: list[dict]) -> None:
        # One mask row per entry of keys; only rows with a failure are listed.
        found = int(np.count_nonzero(mask))
        if not found:
            return
        counts[kind] += found
        for row in np.flatnonzero(mask.any(axis=1)).tolist():
            for i in np.flatnonzero(mask[row])[:10].tolist():
                violations.append(
                    {"kind": kind, "x": str(BinarySequence(n, i)), **keys[row]})

    bad, worse = np.empty((2, 1, size), dtype=bool)
    num, rem = np.empty((2, size), dtype=np.int8)
    base = 4 * weights - n  # 4a - n, in [-16, 48]
    four_a = (4 * weights).view(np.uint8)
    check("peak", np.not_equal(table[:1], n, out=bad), [{}])
    for k in range(1, n):  # the three kinds interleave shift by shift
        np.not_equal(table[k], table[n - k], out=bad[0])
        check("symmetry", bad, [{"k": k}])
        np.add(table[k], base, out=num)  # 4 i_k = P(k) - n + 4a, in [-32, 64]
        np.bitwise_and(num, 3, out=rem)  # also (P(k) - n) & 3, as 4a = 0 mod 4
        np.not_equal(rem, 0, out=bad[0])
        check("mod4", bad, [{"k": k}])
        # i_k out of [0, a]: read unsigned, a negative 4 i_k is at least
        # 128 > 4a, and a multiple of 4 above 4a means i_k > a.
        np.greater(num.view(np.uint8), four_a, out=worse[0])
        bad |= worse
        check("ik_range", bad, [{"k": k}])
    square = 2 * weights.astype(np.int16) - n
    square *= square
    np.not_equal(table.sum(axis=0, dtype=np.int16), square, out=bad[0])
    check("sum", bad, [{}])

    # (kind, r, fn): P_{fn(w)}(k) must equal P_w(rk), with r = 1 for the
    # rotation, reversal and negation.  fn None is the negation.
    transforms = [
        ("rotation", 1, lambda w: rotate_bits_array(w, n, 1)),
        ("reversal", 1, lambda w: permute_bits_array(w, n, reversal_perm(n))),
        ("negation", 1, None),
    ] + [
        ("decimation", r, lambda w, p=decimation_perm(n, r): permute_bits_array(w, n, p))
        for r in units(n) if r != 1
    ]
    keys = [{"k": k} for k in range(n)]
    moved = np.empty_like(table)
    mask = np.empty(table.shape, dtype=bool)
    for kind, r, fn in transforms:
        if fn is None:
            source = table[:, ::-1]
        else:  # the indices are in range, and mode "raise" would copy out
            source = np.take(table, image_of(fn), axis=1, out=moved, mode="wrap")
        if r == 1:
            np.not_equal(source, table, out=mask)
        else:
            for k in range(n):
                np.not_equal(source[k], table[r * k % n], out=mask[k])
        check(kind, mask, keys)

    return {"n": n, "checked": 1 << n, "violations": violations,
            "violation_counts": counts, "ok": not violations}


def random_identity_trials(n: int, trials: int = 1000, seed: int = 0) -> dict:
    """Seeded random spot checks of the same identities at lengths too
    large to sweep, for 2 <= n <= 64 and trials >= 0.

    Each trial draws, from random.Random(seed) and in this order, X =
    getrandbits(n), Y = getrandbits(n), a shift k = randrange(1, n) and a
    multiplier r = choice(units(n)).  All draws are made first; the trials
    are then checked in blocks of _TRIAL_BLOCK // n trials (at least one),
    so the arrays of a block hold about _TRIAL_BLOCK entries whatever n
    and the number of trials.  Checked per trial: the peak, the symmetry
    P(k) = P(n-k) and, for even n only, the mod-4 congruence at every
    shift; the sum and cross-sum identities; rotation, reversal and
    negation invariance at k; and P_{d_r X}(i) = P_X(ri) at every i.
    Violations are listed by trial and, within a trial, in that order,
    keyed by the shift k or the multiplier r they concern; `trial` counts
    from the first trial of the call, not of the block.

    A block is checked on the packed uint64 words, each correlation a
    popcount (`_packed_correlations`).
    """
    if not 2 <= n <= 64:
        raise InvalidLength(
            f"randomized trials need a nonzero shift and a uint64 word, "
            f"so 2 <= n <= 64; got {n}"
        )
    if trials < 0:
        raise ValueError(f"the number of trials must be at least 0, got {trials}")
    rng = random.Random(seed)
    mults = units(n)
    xs, ys, ks, rs = [], [], [], []
    for _ in range(trials):
        xs.append(rng.getrandbits(n))
        ys.append(rng.getrandbits(n))
        ks.append(rng.randrange(1, n))
        rs.append(rng.choice(mults))
    step = max(1, _TRIAL_BLOCK // n)
    violations = []
    for start in range(0, trials, step):
        block = slice(start, start + step)
        violations += _trial_block(n, xs[block], ys[block], ks[block], rs[block], start)
    return {"n": n, "trials": trials, "seed": seed, "violations": violations,
            "ok": not violations}


def _packed_correlations(n: int, xs: list[int], ys: list[int], ks: list[int],
                         dec: np.ndarray) -> tuple:
    """The correlations of one block on uint64 words.

    One (3 trials x n) table of n - 2 popcount(a ^ rotate(b, k)) holds the
    autocorrelations of X and of d_r X and the cross-correlation of X with
    Y, each word of b rotated by all n shifts in one call.  d_r X and the
    reversal of X are packed from gathered bit columns (`bit_columns`,
    `pack_columns`), and the rotation, reversal and negation of X are
    checked at k alone, each P(k) one popcount.  Returns (table, dtab,
    cross, sums of X, sums of Y, P(k) of the three images).
    """
    trials = len(xs)
    x, y = np.array(xs + ys, dtype=np.uint64).reshape(2, trials)
    bits = bit_columns(x, n)
    dx = pack_columns(bits[np.arange(trials)[:, None], dec])
    a, b = np.concatenate([x, dx, x]), np.concatenate([x, dx, y])
    shifts = np.arange(n, dtype=np.uint64)
    turned = rotate_bits_array(b[:, None], n, shifts)
    turned ^= a[:, None]
    table, dtab, cross = np.split(n - 2 * np.bitwise_count(turned).astype(np.int64), 3)
    k = np.array(ks, dtype=np.uint64)

    def at_k(img):
        img ^= rotate_bits_array(img, n, k)
        return n - 2 * np.bitwise_count(img).astype(np.int64)

    def sums(words):
        return n - 2 * np.bitwise_count(words).astype(np.int64)

    moved = [at_k(rotate_bits_array(x, n, 1)), at_k(pack_columns(bits[:, ::-1])),
             at_k(x ^ np.uint64((1 << n) - 1))]
    return table, dtab, cross, sums(x), sums(y), moved


def _trial_block(n: int, xs: list[int], ys: list[int], ks: list[int],
                 rs: list[int], first: int) -> list[dict]:
    """The violations of one block of trials, numbered from trial `first`."""
    trials = len(xs)
    t = np.arange(trials)
    dec = (np.array(rs, dtype=np.int64)[:, None] * np.arange(n)) % n
    table, dtab, cross, sx, sy, moved = _packed_correlations(n, xs, ys, ks, dec)
    at_k = table[t, ks]
    off = table[:, 1:]
    checks = [  # (kind, trials x keys failure mask, the keys of one failure)
        ("peak", (table[:, 0] != n)[:, None], lambda i, c: {}),
        ("symmetry", off != off[:, ::-1], lambda i, c: {"k": c + 1}),
        ("mod4", ((n - off) % 4 != 0) & (n % 2 == 0), lambda i, c: {"k": c + 1}),
        ("sum", (table.sum(axis=1) != sx ** 2)[:, None], lambda i, c: {}),
        ("cross_sum", (cross.sum(axis=1) != sx * sy)[:, None], lambda i, c: {}),
        ("rotation", (moved[0] != at_k)[:, None], lambda i, c: {"k": ks[i]}),
        ("reversal", (moved[1] != at_k)[:, None], lambda i, c: {"k": ks[i]}),
        ("negation", (moved[2] != at_k)[:, None], lambda i, c: {"k": ks[i]}),
        ("decimation", (dtab != table[t[:, None], dec]).any(axis=1)[:, None],
         lambda i, c: {"r": rs[i]}),
    ]
    failing = np.zeros(trials, dtype=bool)
    for _, mask, _ in checks:
        failing |= mask.any(axis=1)
    return [
        {"kind": kind, "trial": first + i, **keys(i, c)}
        for i in np.flatnonzero(failing).tolist()
        for kind, mask, keys in checks
        for c in np.flatnonzero(mask[i]).tolist()
    ]
