"""The Monte Carlo offset stream, bit for bit numpy's, without numpy.random.

Sample i is the first normal within the truncation drawn from
``Generator(PCG64(SeedSequence((seed, i))))``. numpy's SeedSequence hash,
PCG64's seed step and its first XSL-RR output (O'Neill 2014) are recomputed
over arrays of indices, and the fast path of numpy's ziggurat (Marsaglia and
Tsang 2000; tables in ``_ziggurat``) turns that word into the normal. A row
the fast path does not settle (the base layer's tail, a wedge, a value past
the truncation) goes on from its stepped state on Python ints: further PCG64
words and numpy's ``random_standard_normal`` slow path, ported line for line
in ``_settle``.

``variation.sample_offsets`` imports this module on its first draw, so only
a Monte Carlo run loads numpy and the tables for it.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from ._ziggurat import FI, KI, WI

# numpy's SeedSequence: O'Neill's seed_seq hash over a pool of four uint32
# words. The constants step as Python ints masked to 32 bits; every word is a
# uint32 array over a chunk of indices, whose arithmetic wraps silently.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# numpy's PCG64: the 128-bit LCG multiplier of pcg_setseq_128_srandom_r, as
# (high, low) uint64 limbs, and the low limb's 32-bit halves for mulhi
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (2**64 - 1))
_MULT_LO_HALVES = np.uint64(_PCG_MULT & _MASK32), np.uint64(_PCG_MULT >> 32 & _MASK32)
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
# the ziggurat's 52-bit magnitude field; the tables as Python numbers and
# numpy's ziggurat_nor_r and ziggurat_nor_inv_r, for the slow path
_MASK52 = (1 << 52) - 1
_KI, _WI, _FI = KI.tolist(), WI.tolist(), FI.tolist()
_NOR_R = 3.6541528853610087963519472518
_NOR_INV_R = 0.27366123732975827203338247596
# indices seeded per vectorized pass; bounds the word arrays' memory
_CHUNK = 8192

_Limbs = tuple[np.ndarray, np.ndarray]  # (high, low) uint64 words of 128-bit values


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's words of a non-negative int: little-endian, [0] for 0."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_constants(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """The (constant, next constant) pair each hashmix of one pass uses."""
    constant = init
    while True:
        following = constant * mult & _MASK32
        yield constant, following
        constant = following


def _hashmix(value: np.ndarray, constants: Iterator[tuple[int, int]]) -> np.ndarray:
    constant, following = next(constants)
    value = (value ^ constant) * following
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _add128(a: _Limbs, b: _Limbs) -> _Limbs:
    """a + b mod 2^128 over uint64 limb arrays that wrap; a low sum that
    wrapped is smaller than either term and carries one."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _pcg_step(state: _Limbs, inc: _Limbs) -> _Limbs:
    """state * _PCG_MULT + inc mod 2^128.

    The low limbs' product carries a high word into the high limb; a 32-bit
    split gives it from four partial products that each fit 64 bits.
    """
    high, low = state
    low0, low1 = low & _MASK32, low >> 32
    mult0, mult1 = _MULT_LO_HALVES
    cross0, cross1 = low0 * mult1, low1 * mult0
    middle = (low0 * mult0 >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    carried = low1 * mult1 + (cross0 >> 32) + (cross1 >> 32) + (middle >> 32)
    product = (carried + low * _MULT_HI + high * _MULT_LO, low * _MULT_LO)
    return _add128(product, inc)


def _pcg_seeds(seed_words: list[int], start: int, count: int) -> tuple[_Limbs, _Limbs]:
    """(state, inc) of ``PCG64(SeedSequence((seed, i)))`` for each index i
    in [start, start + count), which must not cross a multiple of 2^32:
    only the lowest index word then varies."""
    low = start & _MASK32
    entropy = [np.full(count, word, dtype=np.uint32) for word in seed_words]
    entropy.append(np.arange(low, low + count, dtype=np.uint32))
    if start >> 32:
        entropy += [np.full(count, word, dtype=np.uint32) for word in _uint32_words(start >> 32)]
    # mix_entropy: hash the first words into the pool, mix every pool word
    # into every other, then mix in the words past the pool
    constants = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros(count, dtype=np.uint32)
    pool = [
        _hashmix(entropy[i] if i < len(entropy) else zero, constants) for i in range(_POOL_SIZE)
    ]
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                pool[target] = _mix(pool[target], _hashmix(pool[source], constants))
    for word in entropy[_POOL_SIZE:]:
        for target in range(_POOL_SIZE):
            pool[target] = _mix(pool[target], _hashmix(word, constants))
    # generate_state(4, np.uint64): eight words cycled from the pool, paired
    # little-endian into (state high, state low, seq high, seq low)
    constants = _hash_constants(_INIT_B, _MULT_B)
    words = [_hashmix(pool[i % _POOL_SIZE], constants).astype(np.uint64) for i in range(8)]
    state_high, state_low, seq_high, seq_low = (
        words[2 * i] | words[2 * i + 1] << 32 for i in range(4)
    )
    # pcg_setseq_128_srandom_r: inc = seq << 1 | 1, then
    # state = (inc + initial state) * _PCG_MULT + inc
    inc = (seq_high << 1 | seq_low >> 63, seq_low << 1 | 1)
    return _pcg_step(_add128((state_high, state_low), inc), inc), inc


def _first_words(
    seed_words: list[int], start: int, count: int
) -> tuple[_Limbs, _Limbs, np.ndarray]:
    """(state after the first step, inc, first 64-bit output) per index, as
    ``_pcg_seeds``.

    PCG64 steps, then outputs XSL-RR: the high and low halves xor-folded and
    rotated right by the top six bits of the state.
    """
    state, inc = _pcg_seeds(seed_words, start, count)
    high, low = _pcg_step(state, inc)
    folded, rotation = high ^ low, high >> 58
    return (high, low), inc, folded >> rotation | folded << (-rotation & 63)


def _words(state: int, inc: int) -> Iterator[int]:
    """PCG64's 64-bit outputs after ``state``, one step and XSL-RR each."""
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        high = state >> 64
        folded, rotation = (high ^ state) & _MASK64, high >> 58
        yield (folded >> rotation | folded << (64 - rotation)) & _MASK64


def _next_double(words: Iterator[int]) -> float:
    return (next(words) >> 11) * 2.0**-53


def _settle(word: int, words: Iterator[int], truncation: float) -> float:
    """The normal numpy's ``standard_normal()`` draws within ``truncation``
    when its first 64-bit word is ``word`` and ``words`` are the ones after.

    Each pass is numpy's random_standard_normal: the fast path; the base
    layer's tail (an exponential beyond ziggurat_nor_r, kept when a second
    one clears its square); or the wedge test against exp(-x^2 / 2). A
    rejected word, and a value past the truncation, start a fresh pass.
    ``math.exp`` and ``math.log1p`` are the C library's, as numpy's calls
    are, so the bits agree; tests/test_sampler.py compares every branch.
    """
    while True:
        layer = word & 0xFF
        magnitude = word >> 9 & _MASK52
        x = magnitude * _WI[layer]
        if word >> 8 & 1:
            x = -x
        if magnitude < _KI[layer]:
            value = x
        elif layer == 0:
            while True:
                xx = -_NOR_INV_R * math.log1p(-_next_double(words))
                yy = -math.log1p(-_next_double(words))
                if yy + yy > xx * xx:
                    break
            value = -(_NOR_R + xx) if magnitude >> 8 & 1 else _NOR_R + xx
        else:
            height = (_FI[layer - 1] - _FI[layer]) * _next_double(words) + _FI[layer]
            if height >= math.exp(-0.5 * x * x):  # outside the curve: a fresh word
                word = next(words)
                continue
            value = x
        if abs(value) <= truncation:
            return value
        word = next(words)


def truncated_normals(seed: int, truncation: float, start: int, stop: int) -> np.ndarray:
    """Standard normals within ``truncation`` for sample indices [start, stop).

    Seeding and the first draw run over chunks of indices: a row whose first
    word takes the ziggurat's fast path to a value within the truncation is
    done in arrays. Every other row goes on from its stepped state in
    ``_settle``, as a fresh generator would.
    """
    seed_words = _uint32_words(seed)
    z = np.empty(max(stop - start, 0))
    row = 0
    while start < stop:
        end = min(stop, start + _CHUNK, ((start >> 32) + 1) << 32)
        (state_high, state_low), (inc_high, inc_low), word = _first_words(
            seed_words, start, end - start
        )
        # numpy's random_standard_normal: layer, sign and magnitude of one word
        layer = (word & 0xFF).astype(np.intp)
        magnitude = word >> 9 & _MASK52
        x = magnitude.astype(np.float64) * WI[layer]
        np.negative(x, out=x, where=(word >> 8 & 1).astype(bool))
        missed = np.flatnonzero(~((magnitude < KI[layer]) & (np.abs(x) <= truncation)))
        for index, first, high, low, inc_hi, inc_lo in zip(
            missed.tolist(),
            word[missed].tolist(),
            state_high[missed].tolist(),
            state_low[missed].tolist(),
            inc_high[missed].tolist(),
            inc_low[missed].tolist(),
        ):
            words = _words(high << 64 | low, inc_hi << 64 | inc_lo)
            x[index] = _settle(first, words, truncation)
        z[row : row + x.size] = x
        row += x.size
        start = end
    return z
