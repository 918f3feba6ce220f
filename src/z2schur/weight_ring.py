"""The weight-class ring of Z_2^n under the full symmetric group.

The basic sets are the weight classes G_n(k): all sequences with exactly k
plus signs, of size binomial(n, k).  Their simple-quantity products carry
integer structure constants with a closed form, and the set-level product
of two classes is a two-branch interval formula.  Both closed forms are
paired here with one brute-force oracle: the multiplicity of every word
of Z_2^n in a class product, whose per-class table checks the structure
constants and whose support checks the set-level product.  It comes from
the Walsh-Hadamard transform, which turns XOR products into entrywise
ones: transform the 0/1 indicator rows of the two classes, multiply,
transform back and divide by 2^n.  The transform uses only the +-1
characters (-1)^popcount(u & z) of Z_2^n, never a binomial or Krawtchouk
value, so it is independent of the closed forms it checks.  One batched
kernel serves every class pair of an n.  `group_cells` sorts the words
of Z_2^n by weight once per n: each class's slice of that order sets its
indicator row, and the same order reads the least and greatest count of
each class, equal when the S-ring axiom holds.  `class_members_bits`
lists a class on its own, by Gosper's hack, for the block searches of
`hadamard`.

Complement symmetry.  Complementing every sign, x -> ~x = x XOR 1...1, maps
G_n(k) onto G_n(n - k).  Since ~x XOR ~y = x XOR y, the multiset
G_n(n-a) * G_n(n-b) equals G_n(a) * G_n(b); since x XOR ~y = ~(x XOR y),
the table of G_n(a) * G_n(n-b) is the table of G_n(a) * G_n(b) read at
class n - k.  `verify_ring` therefore counts only the pairs
a <= b <= floor(n/2) and derives the other tables by reversal.

Index conventions.  The closed structure-constant form is stated in the
complement indexing T_i = G_n(n - i); the public helpers speak weights and
convert at the boundary.  G_n(-1) denotes the empty class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator

import numpy as np

from .errors import InvalidWeight, RingAxiomViolation, ScaleExceeded
from .sequences import check_positive_length

# The transform kernel is exact while every partial sum of its second
# transform, at most 2^n * binomial(n, a) * binomial(n, b) <= 8^n, stays
# below 2^53: n <= 17.
ORACLE_MAX_N = 16
# Words per batch of class pairs in the kernel: 128 KB per float64
# buffer, the cache-sized block that orbits._CHUNK and
# autocorr._TRIAL_BLOCK also keep.  A batch holds one pair at least, so
# from n = 15 on it is one 2^n-word row.  8 MB buffers only grew the
# working set (37.5 MB traced at verify_ring(16), 9.5 MB now) and were
# slower on one BLAS thread.
_BATCH_WORDS = 1 << 14


def _binom0(m: int, t: int) -> int:
    return comb(m, t) if 0 <= t <= m else 0


def _check_weight(n: int, k: int) -> None:
    if not -1 <= k <= n:
        raise InvalidWeight(f"weight {k} outside [-1, {n}]")


def gosper_next(v: int) -> int:
    """The next larger integer with the same popcount as v > 0 (Gosper's hack)."""
    low = v & -v
    ripple = v + low
    return ripple | (((v ^ ripple) >> 2) // low)


def class_members_bits(n: int, k: int) -> Iterator[int]:
    """Packed members of G_n(k) in ascending integer order (Gosper's hack).

    Ascending packed order is lexicographic order on the sign strings.
    """
    _check_weight(n, k)
    if k == -1:
        return
    m = n - k  # number of '-' signs, i.e. set bits
    if m == 0:
        yield 0
        return
    v = (1 << m) - 1
    limit = 1 << n
    while v < limit:
        yield v
        v = gosper_next(v)


def group_cells(cell_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The words of Z_2^n sorted by cell (ascending within a cell), and the
    offset where each cell starts; cell_of[x] is the cell of word x, and the
    cells are 0..c-1, none empty."""
    order = np.argsort(cell_of, kind="stable")
    starts = np.searchsorted(cell_of[order], np.arange(int(cell_of.max()) + 1))
    return order, starts


@dataclass(frozen=True, eq=False)
class WeightClassSet:
    """A union of weight classes: the S-set currency of the ring.

    Compares equal to a set, frozenset or list with the same weights, so
    results can be checked against plain sets directly.  Not to a tuple
    or any other hashable iterable: equal objects must hash alike, and
    this hashes like the frozenset of its weights.
    """

    n: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        for k in self.members:
            if not 0 <= k <= self.n:
                raise InvalidWeight(f"weight {k} outside [0, {self.n}]")

    def __eq__(self, other) -> bool:
        if isinstance(other, WeightClassSet):
            return self.n == other.n and self.members == other.members
        if isinstance(other, (set, frozenset, list)):
            return self.members == frozenset(other)
        return NotImplemented

    def __hash__(self) -> int:
        # The members alone: equal to a frozenset means hashing like one.
        return hash(self.members)

    @classmethod
    def of(cls, n: int, weights) -> "WeightClassSet":
        return cls(n, frozenset(weights))

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __contains__(self, k: int) -> bool:
        return k in self.members

    def __iter__(self):
        return iter(self.sorted())

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class QuantityVector:
    """Integer coefficient per weight class: a simple-quantity multiset."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.n + 1:
            raise InvalidWeight(
                f"need {self.n + 1} coefficients, got {len(self.coeffs)}"
            )

    def support(self) -> WeightClassSet:
        return WeightClassSet.of(
            self.n, (k for k, c in enumerate(self.coeffs) if c)
        )

    @property
    def mass(self) -> int:
        """Total multiset size: sum of coeff[k] * |G_n(k)|."""
        return sum(c * comb(self.n, k) for k, c in enumerate(self.coeffs))


def structure_constant_closed(n: int, i: int, j: int, k: int) -> int:
    """Multiplicity of T_k in T_i * T_j, where T_i = G_n(n - i).

    Zero when i + j - k is odd; otherwise
    binomial(k, (j - i + k) / 2) * binomial(n - k, (j + i - k) / 2).
    """
    for idx in (i, j, k):
        if not 0 <= idx <= n:
            raise InvalidWeight(f"index {idx} outside [0, {n}]")
    if (i + j - k) % 2:
        return 0
    return _binom0(k, (j - i + k) // 2) * _binom0(n - k, (j + i - k) // 2)


@lru_cache(maxsize=None)
def _sylvester(m: int) -> np.ndarray:
    """The +-1 Sylvester-Hadamard matrix of order 2^m, float64: its entry
    (u, z) is the character (-1)^popcount(u & z) of Z_2^m."""
    h = np.ones((1, 1))
    for _ in range(m):
        h = np.block([[h, h], [h, -h]])
    return h


def _walsh_hadamard(rows: np.ndarray, n: int) -> np.ndarray:
    """The unnormalised Walsh-Hadamard transform of each row of a C-ordered
    (r, 2^n) float64 array, written over it.  Row-major, a row is a
    2^p x 2^q matrix X with p = floor(n/2), q = ceil(n/2), and
    H_{2^n} = H_{2^p} (x) H_{2^q} maps it to H_{2^p} X H_{2^q}: two matmuls,
    exact while every partial sum stays below 2^53."""
    p, q = n // 2, n - n // 2
    y = rows.reshape(-1, 1 << q) @ _sylvester(q)
    np.matmul(_sylvester(p), y.reshape(-1, 1 << p, 1 << q),
              out=rows.reshape(-1, 1 << p, 1 << q))
    return rows


def _word_multiplicities(n: int, pairs: list[tuple[int, int]],
                         classes: dict[int, np.ndarray]
                         ) -> Iterator[tuple[list, np.ndarray]]:
    """The multiplicity of every word of Z_2^n in G_n(a) * G_n(b), for each
    pair in order: batches of pairs, each with an int64 array of shape
    (len(batch), 2^n), one row per pair, at most _BATCH_WORDS words or
    else one row.  classes[k] holds the words of G_n(k), for -1 <= k <= n.
    The spectra of the weights in use are kept whole, one 2^n-word row
    each; only the products and their transforms are batched.

    The characters of Z_2^n turn XOR convolution into a product: the
    transform of the indicator rows of G_n(a) and G_n(b), multiplied
    entrywise and transformed again, is 2^n times the count of each word.
    """
    weights = sorted({k for pair in pairs for k in pair})
    row_of = {k: i for i, k in enumerate(weights)}
    spectra = np.zeros((len(weights), 1 << n))
    for k, row in zip(weights, spectra):
        _check_weight(n, k)
        row[classes[k]] = 1.0
    _walsh_hadamard(spectra, n)
    per_batch = max(1, _BATCH_WORDS >> n)
    for start in range(0, len(pairs), per_batch):
        batch = pairs[start:start + per_batch]
        prod = spectra[[row_of[a] for a, _ in batch]]
        prod *= spectra[[row_of[b] for _, b in batch]]
        counts = np.rint(_walsh_hadamard(prod, n), out=prod).astype(np.int64)
        counts >>= n
        yield batch, counts


def _product_tables(n: int, pairs: list[tuple[int, int]]) -> list[QuantityVector]:
    """The multiplicity table of G_n(a) * G_n(b) for each pair in order.

    Every member of a touched weight class must appear the same number of
    times; the first pair with a non-uniform count raises
    RingAxiomViolation, since that can only come from an indexing bug,
    never from the ring itself.
    """
    check_positive_length(n)
    if n > ORACLE_MAX_N:
        raise ScaleExceeded(f"oracle capped at n <= {ORACLE_MAX_N}, got {n}")
    order, starts = group_cells(n - np.bitwise_count(np.arange(1 << n)))
    classes = {-1: order[:0]} | dict(enumerate(np.split(order, starts[1:])))
    tables = []
    for batch, counts in _word_multiplicities(n, pairs, classes):
        counts = counts[:, order]
        los = np.minimum.reduceat(counts, starts, axis=1)
        his = np.maximum.reduceat(counts, starts, axis=1)
        bad = np.argwhere(los != his)
        if bad.size:
            row, w = bad[0].tolist()
            a, b = batch[row]
            raise RingAxiomViolation(
                f"nonuniform multiplicity on G_{n}({w}) in G_{n}({a})*G_{n}({b}):"
                f" min {los[row, w]}, max {his[row, w]}"
            )
        tables += [QuantityVector(n, tuple(lo)) for lo in los.tolist()]
    return tables


def product_multiplicity_table(n: int, a: int, b: int) -> QuantityVector:
    """Brute-force multiset G_n(a) * G_n(b) as per-class multiplicities,
    checked uniform on every class; refuses n < 1 and n > ORACLE_MAX_N."""
    return _product_tables(n, [(a, b)])[0]


# A reproduce-paper pass asks for 968 + 179 = 1147 keys: every pair a <= b
# up to n = 16, and the Paley-border normalisations at n = 20 and 24.
@lru_cache(maxsize=2048)
def class_product(n: int, a: int, b: int) -> WeightClassSet:
    """Weights appearing in G_n(a) * G_n(b), via the two-branch closed form.

    Branch I covers a <= floor(n/2), a <= b <= n - a; branch II covers
    a >= floor(n/2) + 1, n - a <= b <= a.  Inputs outside both are routed
    through commutativity and the complement identity
    G_n(a) G_n(b) = G_n(n-a) G_n(n-b), which always lands in a branch.
    """
    for w in (a, b):
        if not 0 <= w <= n:
            raise InvalidWeight(f"weight {w} outside [0, {n}]")
    half = n // 2
    for aa, bb in ((a, b), (b, a), (n - a, n - b), (n - b, n - a)):
        if aa <= half and aa <= bb <= n - aa:
            return WeightClassSet.of(n, (n - aa - bb + 2 * i for i in range(aa + 1)))
        if aa >= half + 1 and n - aa <= bb <= aa:
            return WeightClassSet.of(
                n, (aa + bb - n + 2 * i for i in range(n - aa + 1))
            )
    raise AssertionError(f"branch routing failed for n={n}, a={a}, b={b}")


def class_product_oracle(n: int, a: int, b: int) -> WeightClassSet:
    """Weights in G_n(a) * G_n(b) by direct enumeration of all member pairs."""
    return product_multiplicity_table(n, a, b).support()


def even_odd_unions(n: int) -> tuple[WeightClassSet, WeightClassSet]:
    evens = WeightClassSet.of(n, range(0, n + 1, 2))
    odds = WeightClassSet.of(n, range(1, n + 1, 2))
    return evens, odds


def is_sgroup(n: int, s: WeightClassSet | frozenset[int] | set[int]) -> bool:
    """True iff the union of the classes contains the identity and is
    closed under the group product.

    The identity (all '+') has weight n, so membership of n is what puts
    the identity inside the union.
    """
    members = s.members if isinstance(s, WeightClassSet) else frozenset(s)
    if n not in members:
        return False
    return all(
        class_product(n, a, b).members <= members
        for a in members
        for b in members
        if a <= b
    )


def _class_pair_tables(n: int) -> dict[tuple[int, int], QuantityVector]:
    """The multiplicity table of every class pair a <= b, in (a, b) order.

    Only the pairs a <= b <= floor(n/2) are counted; complementing a
    factor above n/2 reverses the table, so two such factors cancel.
    """
    half = n // 2
    pairs = [(a, b) for a in range(half + 1) for b in range(a, half + 1)]
    base = dict(zip(pairs, _product_tables(n, pairs)))
    tables = {}
    for a in range(n + 1):
        for b in range(a, n + 1):
            fa, fb = min(a, n - a), min(b, n - b)
            table = base[min(fa, fb), max(fa, fb)]
            if (a > half) != (b > half):
                table = QuantityVector(n, table.coeffs[::-1])
            tables[a, b] = table
    return tables


def verify_ring(n: int) -> dict:
    """Cross-check the closed forms against the oracles at a single n.

    One multiplicity table per unordered class pair serves both checks: its
    support against `class_product`, its entries against
    `structure_constant_closed`.  The pairs a <= b <= floor(n/2) are counted
    word by word in one batched transform call, each with the uniformity
    check; the rest follow from the complement identities
    G_n(n-a) * G_n(n-b) = G_n(a) * G_n(b) and G_n(a) * G_n(n-b) = the same
    table read at class n - k.  Returns a report dict with product_ok /
    lambda_ok flags and explicit counterexamples (empty on success),
    products first, then structure constants in (i, j, k) order.  Refuses
    n < 1 and n > ORACLE_MAX_N.
    """
    tables = _class_pair_tables(n)
    products = []
    for (a, b), table in tables.items():
        got, want = class_product(n, a, b), table.support()
        if got != want:
            products.append({"kind": "product", "a": a, "b": b,
                             "closed": list(got), "oracle": list(want)})
    lambdas = []
    for i in range(n + 1):
        for j in range(i, n + 1):
            table = tables[n - j, n - i]
            for k in range(n + 1):
                got, want = structure_constant_closed(n, i, j, k), table.coeffs[n - k]
                if got != want:
                    lambdas.append({"kind": "lambda", "i": i, "j": j, "k": k,
                                    "closed": got, "oracle": want})
    evens, odds = even_odd_unions(n)
    report = {
        "n": n,
        "product_ok": not products,
        "lambda_ok": not lambdas,
        "counterexamples": products + lambdas,
        "even_union_sgroup": is_sgroup(n, evens),
        "odd_union_sgroup": is_sgroup(n, odds),
    }
    if n % 2:
        # For odd n the odd-weight union contains the identity (weight n)
        # and closes under product, so it really is an S-subgroup.
        report["odd_union_note"] = (
            "weights count '+' signs, so the identity has weight n and the "
            "odd union is product-closed for odd n"
        )
    return report
