"""Every seed and seeded draw. `derive_seed` is numpy's SeedSequence; the
seeded picks, `random`'s and a DPB tie's, draw bit for bit as
`np.random.default_rng([seed, ue]).integers(n)` does, many at once on uint32
and uint64 arrays, with no generator built unless Lemire's method may reject.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

__all__ = ["derive_seed", "entropy_words", "derive_seeds", "stream_words",
           "bounded", "picks", "drop_streams", "arrival_order"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


@functools.cache
def _hash_constants(start: int, mult: int, n: int) -> tuple:
    """SeedSequence's running hash constant: the value each of n hashes
    XORs in, and the value it multiplies by (the next one), as uint32
    columns."""
    xors = [start]
    for _ in range(n):
        xors.append(xors[-1] * mult & _MASK32)
    return (np.array(xors[:-1], dtype=np.uint32)[:, None],
            np.array(xors[1:], dtype=np.uint32)[:, None])


# a 4-word pool hashes its first 4 entropy words with 4 constants, mixes
# each word into the other 3 with 12 more, then each later entropy word into
# all 4 with 4 more each; the state words hash with a second series
_POOL_HASH = (0x43B0D7E5, 0x931E8875)
_STATE_HASH = (0x8B51F9DD, 0x58F38DED)
_OTHERS = [[d for d in range(4) if d != s] for s in range(4)]
_U32 = {k: np.uint32(k) for k in (16, 0xCA01F9DD, 0x4973F715)}
_U64 = {k: np.uint64(k) for k in (1, 32, 58, 63, _MASK32)}
# PCG64 seeding sets the state to initstate + inc and steps once; the first
# output steps again, to initstate * M^2 + inc * (M^2 + M + 1) mod 2^128;
# each factor as its (high, low) uint64 limbs
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_FACTORS = [(np.uint64(f >> 64), np.uint64(f & _MASK64))
                for f in (_PCG_MULT ** 2 & _MASK128,
                          _PCG_MULT ** 2 + _PCG_MULT + 1 & _MASK128)]


def _hashmix(words, consts):
    xor, mult = consts
    words = (words ^ xor) * mult
    return words ^ words >> _U32[16]


def _mix(words, hashed):
    mixed = words * _U32[0xCA01F9DD] - hashed * _U32[0x4973F715]
    return mixed ^ mixed >> _U32[16]


def _seed_state(entropy, n_words: int, widths=None) -> np.ndarray:
    """`np.random.SeedSequence(words).generate_state(n_words)` for each
    column of the (W, N) uint32 array `entropy`, as (n_words, N) uint32.

    A column's words are its entropy's 32-bit words, as SeedSequence takes
    them from its ints, then zeros; `widths` gives each column's count of
    words where the columns differ past the pool of 4 (zeros within the
    pool hash as SeedSequence pads them). The hash constants are made for
    the widest column.
    """
    entropy = np.asarray(entropy, dtype=np.uint32)
    width = max(len(entropy), 4)
    xor, mult = _hash_constants(*_POOL_HASH, 4 * width)
    pool = np.zeros((4, entropy.shape[1]), dtype=np.uint32)
    pool[:len(entropy)] = entropy[:4]
    pool = _hashmix(pool, (xor[:4], mult[:4]))
    for src, dst in enumerate(_OTHERS):
        at = slice(4 + 3 * src, 7 + 3 * src)
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], (xor[at], mult[at])))
    for i in range(4, width):
        at = slice(4 * i, 4 * i + 4)
        mixed = _mix(pool, _hashmix(entropy[i], (xor[at], mult[at])))
        pool = mixed if widths is None else np.where(i < widths, mixed, pool)
    return _hashmix(pool[np.arange(n_words) % 4],
                    _hash_constants(*_STATE_HASH, n_words))


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from integer parts, order-sensitive."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def entropy_words(part) -> list:
    """SeedSequence's entropy words of a nonnegative int: its 32-bit words,
    least significant first; 0 is one word."""
    part = operator.index(part)
    if part < 0:
        raise ValueError(f"seed parts must be >= 0, got {part}")
    return [part >> shift & 0xFFFFFFFF
            for shift in range(0, max(part.bit_length(), 1), 32)]


def derive_seeds(columns) -> list:
    """`derive_seed` of each list of entropy words in `columns`, in one
    `_seed_state` call on the lists zero-padded to one width."""
    if not columns:
        return []
    entropy = np.array(list(itertools.zip_longest(*columns, fillvalue=0)),
                       dtype=np.uint32)
    state = _seed_state(entropy, 2, np.array([len(c) for c in columns]))
    state = state.astype(np.uint64)
    return (state[0] | state[1] << np.uint64(32)).tolist()


def _mulhi(a, b):
    """High limbs of the 128-bit products of the uint64 array a and the
    uint64 b, from their 32-bit halves: no partial product or sum passes
    2^64."""
    (a_high, a_low), (b_high, b_low) = [(x >> _U64[32], x & _U64[_MASK32])
                                        for x in (a, b)]
    low = a_low * b_low
    mid = a_high * b_low + (low >> _U64[32])
    mid2 = a_low * b_high + (mid & _U64[_MASK32])
    return a_high * b_high + (mid >> _U64[32]) + (mid2 >> _U64[32])


def stream_words(seeds, ues) -> np.ndarray:
    """First 32-bit output word of `np.random.default_rng([seed, ue])` for
    each (seed, ue) pair of the broadcast arrays, as uint64.

    Seeds lie in [0, 2^64) and UEs in [0, 2^32). SeedSequence's entropy is
    seed's one or two 32-bit words, then ue's; `_seed_state` hashes it into
    PCG64's 8 state words. PCG64's 128-bit seeding, first step and XSL-RR
    output run on (high, low) uint64 limbs, each 64 x 64 product's high
    limb taken from 32-bit halves; the word is the output's low half.
    """
    seeds, ues = np.broadcast_arrays(np.asarray(seeds, dtype=np.uint64),
                                     np.asarray(ues, dtype=np.uint64))
    shape = seeds.shape
    seeds, ues = seeds.ravel(), ues.ravel().astype(np.uint32)
    high = (seeds >> _U64[32]).astype(np.uint32)
    wide = high != 0
    words = _seed_state([seeds.astype(np.uint32), np.where(wide, high, ues),
                         np.where(wide, ues, np.uint32(0))], 8)
    # little-endian pairs: initstate's high and low limbs, then inc's
    words = words.astype(np.uint64)
    init_high, init_low, inc_high, inc_low = (
        words[0::2] | words[1::2] << _U64[32])
    # PCG64's increment is 2 inc + 1
    inc_high = inc_high << _U64[1] | inc_low >> _U64[63]
    inc_low = inc_low << _U64[1] | _U64[1]
    (m_high, m_low), (i_high, i_low) = _PCG_FACTORS
    low_a, low_b = init_low * m_low, inc_low * i_low
    low = low_a + low_b
    high = (_mulhi(init_low, m_low) + init_low * m_high + init_high * m_low
            + _mulhi(inc_low, i_low) + inc_low * i_high + inc_high * i_low
            + (low < low_a).astype(np.uint64))
    # XSL-RR: high ^ low rotated right by the state's top 6 bits
    xored, rot = high ^ low, high >> _U64[58]
    out = xored >> rot | xored << ((-rot) & _U64[63])
    return (out & _U64[_MASK32]).reshape(shape)


def bounded(word: int | None, n: int, seed: int, ue: int) -> int:
    """`np.random.default_rng([seed, ue]).integers(n)` from the stream's
    first word: Lemire's multiply-shift, as `Generator.integers` takes it.
    Without a word, where Lemire's method may reject it (the product's low
    half is below n), or where n is past its 32-bit form, the generator
    draws instead."""
    if word is not None and n <= 1 << 32 and word * n & _MASK32 >= n:
        return word * n >> 32
    return int(np.random.default_rng([seed, ue]).integers(n))


def picks(seeds, num_ues: int, lp: int) -> np.ndarray:
    """`bounded` of each UE t < num_ues under each seed, as a (D, T) int
    array: Lemire's multiply-shift on every word at once, and the generator
    where it may reject (the product's low half below lp) or lp > 2^32."""
    words = stream_words(seeds, np.arange(num_ues)[:, None])
    products = (words * np.uint64(lp) if lp <= 1 << 32
                else np.zeros_like(words))
    drawn = (products >> np.uint64(32)).astype(int)
    for t, d in zip(*np.nonzero(
            products & np.uint64(_MASK32) < np.uint64(min(lp, 1 << 32)))):
        drawn[t, d] = bounded(None, lp, seeds[d], int(t))
    return drawn.T


def drop_streams(seed) -> tuple:
    """A drop's AP, UE and shadowing generators, spawned from its seed."""
    return tuple(np.random.default_rng(s)
                 for s in np.random.SeedSequence(seed).spawn(3))


def arrival_order(seed: int, drop: int, num_ues: int) -> np.ndarray:
    """The protocol audit's arrival order of drop `drop`'s UEs."""
    return np.random.default_rng([seed, drop]).permutation(num_ues)
