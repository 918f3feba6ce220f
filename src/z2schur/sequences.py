"""Packed-bit sequences over {+, -} and the automorphisms acting on them.

A sequence X = (x_0, ..., x_{n-1}) with x_i in {+, -} is stored as one
Python integer: bit (n - 1 - i) holds position i, with 0 encoding '+' and
1 encoding '-'.  Under this layout the n-digit binary rendering of the
integer *is* the sequence read left to right, ascending integers agree
with lexicographic order on the '+' < '-' alphabet, and the componentwise
sign product is a single XOR.  The Hamming weight counts '+' signs, so
weight(X) = n - popcount(bits) and the identity (all '+') is the zero word.

The automorphisms used throughout, as `BinarySequence` methods:

    X.rotate(i)    position j of the result is x_{(j+i) mod n}
    X.reverse()    (x_{n-1}, ..., x_1, x_0)
    X.decimate(r)  position i of the result is x_{ri mod n}, gcd(r, n) = 1
    -X             every sign flipped

Reversal and decimation are also given as position permutations, the
tuples that `fixed_words` and the array kernels take; the orbit module
names group elements by affine pairs instead and builds a tuple only
for the array kernels and the cycle counts.  `permute_bits` applies one permutation
to a single packed word by reordering its n-digit binary string, which
needs no per-permutation state: `decimate_bits` runs on it for
`BinarySequence.decimate`, one word at a time, where tables built per
permutation would rarely be reused.  `orbits.classify`, which
decimates by every unit on each call, keeps one getter per unit and
length instead, applied to one binary string per call.
`permute_bits_array` applies one to a numpy array of words, n <= 64, by
byte tables: per (n, permutation), built on first use and cached,
ceil(n/8) tables of 256 entries map each byte of the input to the output
bits it lands on, so a word costs ceil(n/8) lookups instead of n bit
moves.  It keeps the dtype of its input (uint32 words for the whole-space
scans, uint64 up to n = 64), and `rotate_bits_array` likewise, optionally
in place, by one shift or an array of shifts broadcast against the words.
`bit_columns` unpacks words of up to 64 positions into a 0/1 matrix,
column i for position i, and `pack_columns` packs them back.
`fixed_words` lists the words a permutation fixes or negates.  The orbit,
autocorrelation and Hadamard modules build on these rather than on copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterable

import numpy as np

from .errors import InvalidLength, LengthMismatch, NotCoprime, ScaleExceeded

MAX_N = 256

_SIGN_TO_BIT = {"+": "0", "-": "1"}
_BIT_TO_SIGN = {"0": "+", "1": "-"}


def check_positive_length(n: int) -> None:
    """Every sequence, and every sweep over sequences, has length n >= 1."""
    if n < 1:
        raise InvalidLength(f"sequence length must be at least 1, got {n}")


def _check_length(n: int) -> None:
    check_positive_length(n)
    if n > MAX_N:
        raise InvalidLength(f"sequence length {n} exceeds the cap of {MAX_N}")


def rotate_bits(bits: int, n: int, i: int) -> int:
    """Left-rotate the position vector by i: result position j = x_{(j+i) mod n}."""
    i %= n
    if i == 0:
        return bits
    mask = (1 << n) - 1
    return ((bits << i) | (bits >> (n - i))) & mask


def reverse_bits(bits: int, n: int) -> int:
    return int(format(bits, f"0{n}b")[::-1], 2)


# Position permutations: position j of the image reads position perm[j].

def reversal_perm(n: int) -> tuple[int, ...]:
    return tuple(n - 1 - j for j in range(n))


@lru_cache(maxsize=1024)  # decimate_bits asks for it once per sequence
def decimation_perm(n: int, r: int) -> tuple[int, ...]:
    return tuple((r * j) % n for j in range(n))


def perm_cycles(perm: tuple[int, ...]) -> list[list[int]]:
    """The cycles of a position permutation, each listed from its least position."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        cycle = []
        j = start
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = perm[j]
        if cycle:
            cycles.append(cycle)
    return cycles


def fixed_words(n: int, perm: tuple[int, ...], negated: bool = False) -> np.ndarray:
    """Every packed word x with perm x = x, or perm x = -x when negated,
    ascending, as uint64.

    A fixed word is constant on each cycle of perm, so it is a union of
    cycle masks.  A negated one alternates along each cycle, so it takes
    the odd steps of every cycle, XOR any union of cycle masks; an odd
    cycle admits none.  Refuses more than 22 cycles (4M words).

    The words fill one array of 2^c words, c the number of cycles, with
    no sort: a cycle's top bit is its least position, so taken from the
    last cycle to the first the masks rise in top bit, and each doubling
    ORs a mask above every earlier word onto the words so far.  The odd
    steps never hold a cycle's top bit, so XORing them keeps the order.
    """
    cycles = perm_cycles(perm)
    if len(cycles) > 22:
        raise ScaleExceeded(f"permutation of {n} positions has {len(cycles)} cycles")
    if negated and any(len(c) % 2 for c in cycles):
        return np.empty(0, dtype=np.uint64)
    out = np.zeros(1 << len(cycles), dtype=np.uint64)
    for i, cycle in enumerate(reversed(cycles)):
        mask = np.uint64(sum(1 << (n - 1 - j) for j in cycle))
        np.bitwise_or(out[:1 << i], mask, out=out[1 << i:2 << i])
    if negated:
        out ^= np.uint64(sum(1 << (n - 1 - j) for c in cycles for j in c[1::2]))
    return out


def permute_bits(bits: int, n: int, perm: tuple[int, ...]) -> int:
    # bin() of bits | 2^n is "0b1" followed by position 0 .. n-1.
    return int("".join(itemgetter(*perm)(bin(bits | 1 << n)[3:])), 2)


def decimate_bits(bits: int, n: int, r: int) -> int:
    return permute_bits(bits, n, decimation_perm(n, r))


@lru_cache(maxsize=256)  # at most 16 KB each
def _byte_tables(n: int, perm: tuple[int, ...]) -> np.ndarray:
    """Where perm sends each byte of a packed word, n <= 64: row b maps the
    value of bits 8b..8b+7 to the bits they move to, so ORing one lookup
    per byte applies perm."""
    dest = [0] * (8 * ((n + 7) // 8))  # dest[s]: the bit that input bit s becomes
    for j, p in enumerate(perm):
        dest[n - 1 - p] = 1 << (n - 1 - j)
    rows = []
    for base in range(0, n, 8):
        row = [0]
        for bit in dest[base:base + 8]:  # entries v and v + 2^t differ by bit t
            row += [v | bit for v in row]
        rows.append(row)
    table = np.array(rows, dtype=np.uint64)
    table.flags.writeable = False
    return table


def permute_bits_array(arr: np.ndarray, n: int, perm: tuple[int, ...]) -> np.ndarray:
    """Apply one position permutation to a whole array of packed sequences,
    n <= 64.  The result has the dtype of arr, which must hold n bits."""
    if n > 64:
        raise ValueError(f"array permutations hold at most 64 positions, got {n}")
    a = np.asarray(arr)
    table = _byte_tables(n, perm).astype(a.dtype, copy=False)
    out = table[0][a & 255]
    for b in range(1, table.shape[0]):
        out |= table[b][(a >> 8 * b) & 255]
    return out


def rotate_bits_array(arr: np.ndarray, n: int, i: int | np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """rotate(X, i) for a whole array of packed sequences, into out when
    given (out may be arr itself).  The result has the dtype of arr, which
    must hold n bits.  i is one shift, or an integer array of shifts in
    [0, n) of arr's dtype, broadcast against arr; a shift of 0 then ORs a
    word with itself, so no shift reaches the width of the word."""
    a = np.asarray(arr)
    if isinstance(i, np.ndarray):
        low = a >> (n - i) % n  # taken first, so that out may overwrite arr
        out = np.left_shift(a, i, out=out)
    else:
        if out is None:
            out = np.empty_like(a)
        n, i = int(n), int(i) % n
        if i == 0:
            np.copyto(out, a)
            return out
        low = a >> (n - i)
        np.left_shift(a, i, out=out)
    out |= low
    out &= (1 << n) - 1
    return out


def word_dtype(n: int):
    """The array dtype of packed length-n words: uint64 up to n = 64 and
    object (Python ints) beyond, which numpy's shifts, bitwise operators and
    bitwise_count also accept."""
    return np.uint64 if n <= 64 else object


def bit_columns(words: np.ndarray | list[int], n: int) -> np.ndarray:
    """A uint8 0/1 matrix with one row per packed length-n word, n <= 64;
    column i holds position i, bit n - 1 - i."""
    if n > 64:
        raise ValueError(f"bit columns hold at most 64 positions, got {n}")
    raw = np.asarray(words, np.uint64).astype(">u8").view(np.uint8)
    return np.unpackbits(raw.reshape(-1, 8), axis=1)[:, 64 - n:]


def pack_columns(bits: np.ndarray) -> np.ndarray:
    """The uint64 words whose positions are the columns of a 0/1 matrix of
    at most 64 columns, the inverse of `bit_columns`."""
    rows, n = bits.shape
    padded = np.zeros((rows, 64), dtype=np.uint8)
    padded[:, 64 - n:] = bits
    return np.packbits(padded, axis=1).view(">u8").ravel().astype(np.uint64)


@dataclass(frozen=True, order=True)
class BinarySequence:
    """An element of Z_2^n in the packed sign encoding.

    Immutable; every operation returns a fresh value.
    """

    n: int
    bits: int

    def __post_init__(self) -> None:
        _check_length(self.n)
        if not 0 <= self.bits < (1 << self.n):
            raise InvalidLength(
                f"bits 0x{self.bits:x} do not fit in {self.n} positions"
            )

    @classmethod
    def from_signs(cls, signs: str | Iterable[str]) -> "BinarySequence":
        text = signs if isinstance(signs, str) else "".join(signs)
        if not text:
            raise InvalidLength("empty sign list")
        # Checked before int(), which also takes "_", spaces and "0b".
        if text.strip("+-"):
            raise InvalidLength(f"signs must be '+' or '-', got {text!r}")
        return cls(len(text), int(text.translate(str.maketrans(_SIGN_TO_BIT)), 2))

    @classmethod
    def identity(cls, n: int) -> "BinarySequence":
        return cls(n, 0)

    def render(self) -> str:
        return format(self.bits, f"0{self.n}b").translate(str.maketrans(_BIT_TO_SIGN))

    def __str__(self) -> str:
        return self.render()

    def __len__(self) -> int:
        return self.n

    @property
    def weight(self) -> int:
        """Number of '+' signs."""
        return self.n - self.bits.bit_count()

    def __mul__(self, other: "BinarySequence") -> "BinarySequence":
        if self.n != other.n:
            raise LengthMismatch(f"lengths differ: {self.n} vs {other.n}")
        return BinarySequence(self.n, self.bits ^ other.bits)

    def __neg__(self) -> "BinarySequence":
        return BinarySequence(self.n, self.bits ^ ((1 << self.n) - 1))

    def rotate(self, i: int) -> "BinarySequence":
        return BinarySequence(self.n, rotate_bits(self.bits, self.n, i))

    def reverse(self) -> "BinarySequence":
        return BinarySequence(self.n, reverse_bits(self.bits, self.n))

    def decimate(self, r: int) -> "BinarySequence":
        r %= self.n
        if math.gcd(r, self.n) != 1:
            raise NotCoprime(f"gcd({r}, {self.n}) != 1")
        return BinarySequence(self.n, decimate_bits(self.bits, self.n, r))


def make_sequence(signs: str | Iterable[str]) -> BinarySequence:
    return BinarySequence.from_signs(signs)


@lru_cache(maxsize=None)
def units(n: int) -> tuple[int, ...]:
    """Multipliers coprime to n, the valid decimation parameters."""
    check_positive_length(n)
    if n == 1:
        return (1,)
    return tuple(r for r in range(1, n) if math.gcd(r, n) == 1)


def divisors(n: int) -> tuple[int, ...]:
    check_positive_length(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])

