"""Hadamard matrices built from sign sequences.

A sign matrix of order m is Hadamard when every pair of rows disagrees
in exactly m/2 positions.  The circulant matrix of a sequence X has
row i equal to X shifted right by i, and is Hadamard exactly when the
off-peak autocorrelation of X vanishes; that pins the weight a of X to
(2a - n)^2 = n, so candidates exist only at square orders.

Beyond direct search, three structural arguments exclude whole families
of first rows: sequences partitioned into equal-weight blocks (plainly
or with alternating signs), the reversal-paired shapes (A, RA) and
(A, -RA), and circulant-core borders whose core would need a
non-integral block weight.  Each argument is packaged as a verdict with
the arithmetic certificate spelled out, plus a desk-scale exhaustive
search that confirms the verdict by enumeration.

Every search tests its candidates with `autocorr.flat_offpeak_indices`,
in arrays of at most 2^16 words.  The structured and core searches build
each array from a range of flat candidate indices, one digit per block,
so candidates come in itertools.product order and memory does not grow
with the candidate count.  `search_circulant_bruteforce`, the oracle of
the circulant search, keeps its independence by testing every row pair
of each circulant instead, without the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb, prod

import numpy as np

from .autocorr import flat_offpeak, flat_offpeak_indices
from .clock import timed
from .errors import (
    InvalidCore,
    InvalidCoreOrder,
    InvalidLength,
    InvalidWeight,
    NotHadamard,
    ScaleExceeded,
    TheoremViolation,
)
from .sequences import (
    BinarySequence,
    check_positive_length,
    make_sequence,
    reverse_bits,
    rotate_bits,
    rotate_bits_array,
    word_dtype,
)
from .ssets import CompleteSSet, complete_maximal
from .weight_ring import class_members_bits

NORMALIZE_MAX_M = 24
BRUTEFORCE_MAX_N = 16
ENUM_MAX_CANDIDATES = 10**7
SEARCH_MAX_CANDIDATES = 10**8
_BLOCK = 1 << 16  # candidate words tested per kernel call

VERDICT_EXCLUDED = "excluded-by-parity"
VERDICT_OPEN = "not-excluded"

PARTITION_KINDS = ("plain", "alt", "sym", "asym")


# ----------------------------------------------------------- sign matrix

@dataclass(frozen=True)
class SignMatrix:
    """A square matrix of signs, one packed integer per row."""

    m: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1:
            raise InvalidLength(f"order must be positive, got {self.m}")
        if len(self.rows) != self.m:
            raise InvalidLength(f"expected {self.m} rows, got {len(self.rows)}")
        for r in self.rows:
            if not 0 <= r < 1 << self.m:
                raise InvalidLength(f"row {r:#x} does not fit order {self.m}")

    @classmethod
    def from_rows(cls, rows) -> "SignMatrix":
        seqs = [make_sequence(r) if isinstance(r, str) else r for r in rows]
        m = len(seqs)
        for s in seqs:
            if s.n != m:
                raise InvalidLength(f"row length {s.n} in a {m}-row matrix")
        return cls(m, tuple(s.bits for s in seqs))

    @classmethod
    def from_text(cls, text: str) -> "SignMatrix":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise InvalidLength("empty matrix text")
        return cls.from_rows(lines)

    def row(self, i: int) -> BinarySequence:
        return BinarySequence(self.m, self.rows[i])

    def render(self) -> str:
        return "\n".join(str(self.row(i)) for i in range(self.m))

    def __str__(self) -> str:
        return self.render()


def orthogonality_witness(mat: SignMatrix) -> tuple[int, int, int] | None:
    """The first row pair i < j with a nonzero dot product, as (i, j, dot),
    or None when the rows are pairwise orthogonal, which is exactly when
    `is_hadamard` holds: at odd m > 1 every dot product is odd."""
    m, rows = mat.m, mat.rows
    for i in range(m):
        for j in range(i + 1, m):
            dot = m - 2 * (rows[i] ^ rows[j]).bit_count()
            if dot:
                return i, j, dot
    return None


def is_hadamard(mat: SignMatrix) -> bool:
    """Every pair of rows disagrees in exactly m/2 positions."""
    if mat.m == 1:
        return True
    if mat.m % 2:
        return False
    return orthogonality_witness(mat) is None


BUILTIN_H12 = SignMatrix.from_rows(
    [
        "+-----------",
        "++-+---+++-+",
        "+++-+---+++-",
        "+-++-+---+++",
        "++-++-+---++",
        "+++-++-+---+",
        "++++-++-+---",
        "+-+++-++-+--",
        "+--+++-++-+-",
        "+---+++-++-+",
        "++---+++-++-",
        "+-+---+++-++",
    ]
)


# ------------------------------------------------- weight normalization

@dataclass(frozen=True)
class ContainmentReport:
    """How a Hadamard matrix was pushed into a maximal complete S-set by
    column negations: the sign vector used, the row weights afterwards,
    and the member set that contains them."""

    m: int
    target_weight: int
    signs: str
    row_weights: tuple[int, ...]
    sset_members: tuple[int, ...]
    sset_parity: str
    already_contained: bool
    scanned: int


def normalize_into_complete(mat: SignMatrix) -> tuple[SignMatrix, ContainmentReport]:
    """Negate a column subset so that every row weight lands inside one
    maximal complete S-set.

    Tries the even-member set first, scanning sign vectors in ascending
    packed order, and falls back to the odd-member set only when no even
    containment exists; within a pass the first working vector wins, so
    the result is deterministic and the identity vector is preferred when
    the matrix is already contained.  Exhausting both passes raises
    TheoremViolation.

    Each pass scans in chunks of 64, 128, 256, ... sign vectors, doubling
    up to 2^18, so an early hit builds only a small block of weights (the
    order-20 and order-24 Paley borders hit at the 64th vector).  The
    schedule is fixed; there is no chunk argument.
    """
    m = mat.m
    if not is_hadamard(mat):
        raise NotHadamard(f"matrix of order {m} is not Hadamard")
    if m % 4:
        raise InvalidLength(f"order {m} is not a multiple of 4")
    if m > NORMALIZE_MAX_M:
        raise ScaleExceeded(f"sign scan capped at order {NORMALIZE_MAX_M}")
    flavours: list[CompleteSSet] = complete_maximal(m)
    rows = np.array(mat.rows, dtype=np.uint64)
    scanned = 0
    for flavour in flavours:
        tab = np.zeros(m + 1, dtype=bool)
        for w in flavour.members:
            tab[w] = True
        start, chunk = 0, 1 << 6
        while start < 1 << m:
            ts = np.arange(start, min(start + chunk, 1 << m), dtype=np.uint64)
            start += ts.size
            chunk = min(2 * chunk, 1 << 18)
            weights = m - np.bitwise_count(ts[:, None] ^ rows[None, :]).astype(
                np.int64
            )
            hit = tab[weights].all(axis=1)
            if not hit.any():
                scanned += ts.size
                continue
            idx = int(np.argmax(hit))
            t = int(ts[idx])
            normalized = SignMatrix(m, tuple(r ^ t for r in mat.rows))
            report = ContainmentReport(
                m=m,
                target_weight=flavour.a,
                signs=str(BinarySequence(m, t)),
                row_weights=tuple(int(w) for w in weights[idx]),
                sset_members=flavour.members,
                sset_parity=flavour.parity,
                already_contained=t == 0,
                scanned=scanned + idx + 1,
            )
            return normalized, report
    raise TheoremViolation(
        f"no column sign vector puts order-{m} row weights in a complete maximal S-set"
    )


# ------------------------------------------------------ circulant search

def circulant_feasible_weights(n: int) -> tuple[int, ...]:
    """Weights a with (2a - n)^2 = n, the only ones a circulant Hadamard
    first row can have."""
    check_positive_length(n)
    return tuple(a for a in range(n + 1) if (2 * a - n) ** 2 == n)


@dataclass(frozen=True)
class SearchResult:
    order: int
    feasible_weights: tuple[int, ...]
    found: tuple[str, ...]
    candidates_tested: int
    runtime_ms: int

    def as_dict(self) -> dict:
        return {
            "order": self.order,
            "feasible_weights": list(self.feasible_weights),
            "found": list(self.found),
            "candidates_tested": self.candidates_tested,
            "runtime_ms": self.runtime_ms,
            # Kept until ROADMAP item 11 regenerates perfbench/frozen/.
            "workers": 1,
        }


def search_circulant_hadamard(n: int) -> SearchResult:
    """Exhaust all candidate first rows of circulant Hadamard matrices of
    one order, returning the orbit representatives found.

    Only the feasible weights are tested: the words of [0, 2^n) with a
    feasible weight go through `flat_offpeak_indices` in one array.
    Orders 1, 4 and 16 are the only ones with feasible weights under the
    candidate cap, so that scan never passes 2^16 words.
    """
    if n < 1 or (n > 2 and n % 4):
        raise InvalidLength(f"circulant Hadamard order must be 1, 2, or 4k, got {n}")
    (feasible, total, found), seconds = timed(_circulant_rows, n)
    return SearchResult(
        order=n,
        feasible_weights=feasible,
        found=found,
        candidates_tested=total,
        runtime_ms=int(seconds * 1000),
    )


def _circulant_rows(n: int) -> tuple[tuple[int, ...], int, tuple[str, ...]]:
    """The feasible weights of order n, their candidate count, and the
    least rotation of each flat candidate, as sign strings."""
    feasible = circulant_feasible_weights(n)
    total = sum(comb(n, a) for a in feasible)
    if total > SEARCH_MAX_CANDIDATES:
        raise ScaleExceeded(
            f"{total} candidates at order {n} exceed the cap {SEARCH_MAX_CANDIDATES}"
        )
    minus = [n - a for a in feasible]  # set bits are '-' signs
    words = np.arange(1 << n if feasible else 0, dtype=np.uint64)
    words = words[np.isin(np.bitwise_count(words), minus)]
    found = {min(rotate_bits(v, n, i) for i in range(n))
             for v in words[flat_offpeak_indices(words, n)].tolist()}
    return feasible, total, tuple(str(BinarySequence(n, b)) for b in sorted(found))


def search_circulant_bruteforce(n: int) -> tuple[str, ...]:
    """Oracle for the pruned search: build all n rows of the circulant of
    every one of the 2^n words at once and keep the words whose row pairs
    i < j all disagree in n/2 places.

    It shares only the array rotation with the search: no weight filter,
    no parity guard, no half scan over shifts, no early exit, and no call
    to `flat_offpeak_indices`.  Each orbit is named by its least rotation,
    the least of its rows.
    """
    check_positive_length(n)
    if n > BRUTEFORCE_MAX_N:
        raise ScaleExceeded(f"bruteforce capped at n <= {BRUTEFORCE_MAX_N}")
    x = np.arange(1 << n, dtype=np.uint64)
    rows = [rotate_bits_array(x, n, n - i) for i in range(n)]
    ok = np.ones(x.size, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            ok &= 2 * np.bitwise_count(rows[i] ^ rows[j]) == n
    found = np.unique(np.minimum.reduce(rows)[ok])
    return tuple(str(BinarySequence(n, b)) for b in found.tolist())


# -------------------------------------------------- structural verdicts

@dataclass(frozen=True)
class StructureVerdict:
    """Outcome of one non-existence argument, with the arithmetic that
    justifies it spelled out in the certificate."""

    n: int
    r: int
    a: int | None
    kind: str
    order: int
    verdict: str
    certificate: dict

    @property
    def excluded(self) -> bool:
        return self.verdict == VERDICT_EXCLUDED

    def as_dict(self) -> dict:
        return {
            "parameters": {"n": self.n, "r": self.r, "a": self.a},
            "kind": self.kind,
            "order": self.order,
            "verdict": self.verdict,
            "certificate": self.certificate,
        }


def partition_parity_verdict(n: int, r: int, a: int, kind: str) -> StructureVerdict:
    """Can a circulant Hadamard first row of order 4nr be built from 2r
    blocks of length 2n and weight a, arranged plainly ("plain"), with
    alternating signs ("alt"), or as the reversal pairs (A, RA) ("sym") /
    (A, -RA) ("asym")?

    The order-4nr Hadamard condition fixes the weight of X * C^{2n} X at
    2rn, which pins the total block overlap sum(h_i) to r(2a - n) while
    each h_i can only range over [max(0, 2a-2n), a]; for the reversal
    pairs additionally h_1 = h_2, making the sum even.  The verdict is
    "excluded-by-parity" exactly when the pinned sum is unreachable.
    """
    if kind not in PARTITION_KINDS:
        raise ValueError(f"kind must be one of {PARTITION_KINDS}, got {kind!r}")
    if n < 1 or r < 1:
        raise ValueError(f"n and r must be positive, got n={n} r={r}")
    block = 2 * n
    if not 0 <= a <= block:
        raise InvalidWeight(f"block weight {a} outside [0, {block}]")
    if kind in ("sym", "asym") and r != 1:
        raise ValueError(f"kind {kind!r} pairs one block with its reversal; needs r=1")
    blocks = 2 * r
    order = 4 * n * r
    lo, hi = max(0, 2 * (a - n)), a
    forced = r * (2 * a - n)
    paired = kind in ("sym", "asym")
    reachable = blocks * lo <= forced <= blocks * hi and (
        not paired or forced % 2 == 0
    )
    certificate = {
        "order": order,
        "block_length": block,
        "blocks": blocks,
        "block_weight": a,
        "overlap_range": [lo, hi],
        "forced_overlap_sum": forced,
        "reachable_sums": [blocks * lo, blocks * hi],
        "identity": (
            "weight(X * shift(X, 2n)) = 2rn forces sum(h_i) = r(2a - n)"
            if kind in ("plain", "sym")
            else "weight(X * shift(X, 2n)) = 4ar - 2 sum(h_i) forces sum(h_i) = r(2a - n)"
        ),
    }
    if paired:
        certificate["paired_overlaps"] = "h_1 = h_2, so the sum is even"
        certificate["forced_sum_parity"] = "odd" if forced % 2 else "even"
    else:
        # The two stated parity cases ask sum(h_i) to differ from nr mod 2,
        # but the forced value r(2a - n) is always congruent to nr mod 2, so
        # for genuine blocks the case split never fires; the reachability of
        # the forced sum is the operative test.
        certificate["stated_parity_clause"] = {
            "requires": "sum(h_i) incongruent to nr mod 2",
            "forced_sum_mod_2": forced % 2,
            "nr_mod_2": (n * r) % 2,
            "satisfiable": False,
        }
    return StructureVerdict(
        n=n,
        r=r,
        a=a,
        kind=kind,
        order=order,
        verdict=VERDICT_OPEN if reachable else VERDICT_EXCLUDED,
        certificate=certificate,
    )


def core_partition_verdict(n: int, r: int) -> StructureVerdict:
    """Can the circulant core of a bordered Hadamard matrix, core length
    nr with nr = 3 mod 4, be split into r blocks of equal weight?

    The border forces core weight (nr - 1)/2, so each block would need
    weight (nr - 1)/(2r); since r divides nr, it divides nr - 1 only for
    r = 1, and every r >= 2 is excluded.
    """
    if n < 1 or r < 1:
        raise ValueError(f"n and r must be positive, got n={n} r={r}")
    p = n * r
    if p % 4 != 3:
        raise InvalidCoreOrder(f"core length {p} is not 3 mod 4")
    core_weight = (p - 1) // 2
    divisible = (p - 1) % (2 * r) == 0
    certificate = {
        "core_length": p,
        "block_length": n,
        "blocks": r,
        "required_core_weight": core_weight,
        "required_block_weight_numerator": p - 1,
        "required_block_weight_denominator": 2 * r,
        "block_weight_integral": divisible,
    }
    return StructureVerdict(
        n=n,
        r=r,
        a=None,
        kind="core",
        order=p + 1,
        verdict=VERDICT_OPEN if divisible else VERDICT_EXCLUDED,
        certificate=certificate,
    )


# ---------------------------------------------- exhaustive confirmations

def _members(width: int, a: int) -> np.ndarray:
    """G_width(a) as an array of packed words, ascending."""
    return np.fromiter(class_members_bits(width, a), dtype=word_dtype(width))


def _concat_blocks(factors: list[np.ndarray], width: int):
    """Every concatenation of one width-bit word from each factor, the first
    factor leftmost, in itertools.product order, as arrays of at most
    _BLOCK words.  Flat index i splits into one digit per factor, the last
    factor's digit the fastest, and each digit picks its factor's word."""
    dtype = word_dtype(width * len(factors))
    factors = [f.astype(dtype) for f in factors]
    total = prod(f.size for f in factors)
    for start in range(0, total, _BLOCK):
        rest = np.arange(start, min(start + _BLOCK, total))
        words = np.zeros(rest.size, dtype=dtype)
        for place, f in enumerate(reversed(factors)):
            rest, digit = np.divmod(rest, f.size)
            words |= f[digit] << place * width
        yield words


def _reversal_pairs(block: int, a: int, negate: bool):
    """The words B || RB (B || -RB when negate) for B in G_block(a)
    ascending, as arrays of at most _BLOCK words."""
    dtype = word_dtype(2 * block)
    stream = class_members_bits(block, a)
    while (b := np.fromiter(islice(stream, _BLOCK), dtype=word_dtype(block))).size:
        rb = np.array([reverse_bits(v, block) for v in b.tolist()], dtype=word_dtype(block))
        if negate:
            rb ^= (1 << block) - 1
        yield (b.astype(dtype) << block) | rb.astype(dtype)


def exhaustive_structured_search(n: int, r: int, a: int, kind: str) -> dict:
    """Enumerate every structured candidate at desk scale and test it
    outright, confirming (or refuting) the corresponding verdict.

    The blocks are the weight-a words of length 2n, ascending.  "plain" and
    "alt" candidates are built as `_concat_blocks` of 2r factors, in
    itertools.product order; "sym" and "asym" pair each block with its
    reversal.  Each array of at most 2^16 candidates goes through
    `flat_offpeak_indices` at once, so `hits` keep the enumeration order
    and memory stays flat up to the candidate cap.
    """
    v = partition_parity_verdict(n, r, a, kind)
    block = 2 * n
    order = 4 * n * r
    total = comb(block, a) ** (2 * r if kind in ("plain", "alt") else 1)
    if total > ENUM_MAX_CANDIDATES:
        raise ScaleExceeded(f"{total} structured candidates exceed the cap")
    if kind in ("plain", "alt"):
        members = _members(block, a)
        factors = [members ^ ((1 << block) - 1) if kind == "alt" and i % 2 else members
                   for i in range(2 * r)]
        blocks = _concat_blocks(factors, block)
    else:
        blocks = _reversal_pairs(block, a, kind == "asym")
    hits = []
    for words in blocks:
        hits += [str(BinarySequence(order, w))
                 for w in words[flat_offpeak_indices(words, order)].tolist()]
    return {
        "n": n,
        "r": r,
        "a": a,
        "kind": kind,
        "order": order,
        "verdict": v.verdict,
        "candidates": total,
        "hits": hits,
        "consistent": not (v.excluded and hits),
    }


def exhaustive_core_partition_search(n: int, r: int) -> dict:
    """Enumerate every uniform-weight block partition of a circulant core
    and test whether its border is Hadamard.

    Block weights run upwards; at each weight the r-block cores are
    `_concat_blocks` in itertools.product order, kept at the core weight
    (p - 1)/2 and tested at level -1 by `flat_offpeak_indices`, one array
    of at most 2^16 cores at a time.
    """
    v = core_partition_verdict(n, r)
    p = n * r
    total = sum(comb(n, a) ** r for a in range(n + 1))
    if total > ENUM_MAX_CANDIDATES:
        raise ScaleExceeded(f"{total} core candidates exceed the cap")
    minus = (p + 1) // 2  # '-' signs of a core of weight (p - 1)/2
    hits = []
    for a in range(n + 1):
        for words in _concat_blocks([_members(n, a)] * r, n):
            words = words[np.bitwise_count(words) == minus]
            hits += [str(BinarySequence(p, w))
                     for w in words[flat_offpeak_indices(words, p, -1)].tolist()]
    return {
        "n": n,
        "r": r,
        "core_length": p,
        "verdict": v.verdict,
        "candidates": total,
        "hits": hits,
        "consistent": not (v.excluded and hits),
    }


# -------------------------------------------------------- cores, borders

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def paley_core(p: int) -> BinarySequence:
    """The quadratic-residue core: '-' at position 0, '+' exactly at the
    nonzero squares mod p.  Needs p prime with p = 3 mod 4; then the core
    has weight (p - 1)/2 and off-peak autocorrelation constantly -1."""
    if p % 4 != 3 or not _is_prime(p):
        raise InvalidCoreOrder(f"need a prime equal to 3 mod 4, got {p}")
    qr = {pow(i, 2, p) for i in range(1, p)}
    return make_sequence("".join("+" if j in qr else "-" for j in range(p)))


def border_core(core: BinarySequence) -> SignMatrix:
    """Border a valid circulant core with an all-'+' row and column.

    The core must have weight (p - 1)/2 and off-peak autocorrelation -1;
    those two facts are exactly the orthogonality of the result.
    """
    p = core.n
    if core.weight != (p - 1) // 2 or p % 2 == 0:
        raise InvalidCore(
            f"core weight {core.weight} at length {p}, need {(p - 1) // 2} at odd length"
        )
    if not flat_offpeak(core, -1):
        raise InvalidCore("core off-peak autocorrelation is not constantly -1")
    rows = [0]
    for i in range(1, p + 1):
        rows.append(rotate_bits(core.bits, p, (p - (i - 1)) % p))
    return SignMatrix(p + 1, tuple(rows))

