"""Deterministic, addressable randomness.

One run owns one 64-bit seed. Every random decision is drawn from a
counter-addressed Philox stream keyed by that seed and indexed by
(step, phase), so adding or removing an event at one step never shifts
the draws of any other step or phase. Trial seeds for Monte Carlo
sweeps are derived from a root seed by spawn index, so results do not
depend on worker count or scheduling.
"""

from __future__ import annotations

import functools

import numpy as np

# Phase indices for the per-step streams of an evolution run.
PHASE_BIRTH = 1      # Bernoulli(p) and the Z draws
PHASE_ATTACH = 2     # neighbor choice for a newborn type

COIN_BLOCK = 1024    # steps whose coins ``RunStreams.coin`` draws at once

# Philox4x64-10 (Salmon et al., Random123): round multipliers and key bumps.
_MASK64 = (1 << 64) - 1
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(m: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of the 128-bit products m * b, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    b_lo, b_hi = b & _LOW32, b >> _32
    lo_lo, hi_lo = b_lo * m_lo, b_hi * m_lo
    cross = (lo_lo >> _32) + (hi_lo & _LOW32) + b_lo * m_hi    # < 2^64
    return b_hi * m_hi + (hi_lo >> _32) + (cross >> _32), b * np.uint64(m)


def _philox_first_words(key: tuple[int, int], steps: np.ndarray, phase: int) -> np.ndarray:
    """Word 0 of Philox4x64-10 at counters [1, 0, step, phase], one per step.

    That is the first uint64 a ``Philox(counter=[0, 0, step, phase])``
    returns: it bumps the counter before its first block.
    """
    c0, c1 = np.ones_like(steps), np.zeros_like(steps)
    c2, c3 = steps, np.full_like(steps, phase)
    k0, k1 = key
    for r in range(10):
        if r:
            k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
    return c0


@functools.cache
def _philox_key_type() -> type:
    """The seed sequence type that hands Philox a cached key, made on first use.

    Subclassing ``ISeedSequence`` imports numpy.random, which costs about
    6 MB of resident memory; commands without randomness never load it.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        """The Philox key of ``SeedSequence(seed)``, derived once.

        Philox asks its seed sequence for ``generate_state(2, uint64)`` and
        nothing else; handing back the cached words gives the same generator
        as the SeedSequence itself, without hashing the seed again per stream.
        """

        def __init__(self, seed: int):
            self._seq = np.random.SeedSequence(seed)
            self._key = self._seq.generate_state(2, np.uint64)

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words == 2 and np.dtype(dtype) == np.uint64:
                return self._key.copy()
            return self._seq.generate_state(n_words, dtype)

    return PhiloxKey


class RunStreams:
    """Counter-addressable random streams for a single evolution run."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        # Philox keyed by SeedSequence(seed); (step, phase) go into the high
        # counter words, so streams are disjoint unless one phase draws 2^128
        # values.
        self._key = _philox_key_type()(self.seed)
        self._words = tuple(map(int, self._key.generate_state(2, np.uint64)))
        self._coins: dict[int, tuple[int, np.ndarray]] = {}   # phase -> (block, coins)

    def stream(self, step: int, phase: int) -> np.random.Generator:
        """Fresh generator for (step, phase); identical on every call."""
        counter = np.zeros(4, dtype=np.uint64)
        counter[2] = np.uint64(step)
        counter[3] = np.uint64(phase)
        return np.random.Generator(np.random.Philox(seed=self._key, counter=counter))

    def coin(self, step: int, phase: int) -> float:
        """``stream(step, phase).random()``, bit for bit, without a Generator.

        Draws the coins of COIN_BLOCK consecutive steps at once, in numpy
        uint64 arithmetic: ``random()`` is (first word >> 11) * 2**-53.
        """
        return float(self._block(step // COIN_BLOCK, phase)[step % COIN_BLOCK])

    def coins(self, start: int, stop: int, phase: int) -> np.ndarray:
        """The coins of steps ``start`` .. ``stop``-1, ``coin(step, phase)`` each.

        Works block by block: a whole block, or the one ``coin`` holds, comes
        from ``coin``'s cache; the part of a block that ``stop`` cuts short is
        drawn on its own, only up to ``stop``.
        """
        parts = []
        for first in range(start - start % COIN_BLOCK, stop, COIN_BLOCK):
            block, lo, hi = first // COIN_BLOCK, max(start, first), min(stop, first + COIN_BLOCK)
            cached = self._coins.get(phase)
            if hi == first + COIN_BLOCK or (cached is not None and cached[0] == block):
                parts.append(self._block(block, phase)[lo - first:hi - first])
            else:
                parts.append(self._draw(lo, hi - lo, phase))
        return np.concatenate(parts) if parts else np.empty(0)

    def _block(self, block: int, phase: int) -> np.ndarray:
        """The coins of the COIN_BLOCK steps of ``block``; the last block drawn is kept."""
        cached = self._coins.get(phase)
        if cached is None or cached[0] != block:
            cached = self._coins[phase] = block, self._draw(block * COIN_BLOCK, COIN_BLOCK, phase)
        return cached[1]

    def _draw(self, first: int, count: int, phase: int) -> np.ndarray:
        """The coins of steps ``first`` .. ``first + count``-1."""
        steps = np.uint64(first) + np.arange(count, dtype=np.uint64)
        raw = _philox_first_words(self._words, steps, phase)
        return (raw >> np.uint64(11)) * 2.0**-53


def trial_seed(root_seed: int, index: int) -> int:
    """Seed for the ``index``-th trial of a sweep rooted at ``root_seed``.

    Documented splitting rule: SeedSequence(root, spawn_key=(index,)),
    collapsed to one 64-bit word.
    """
    ss = np.random.SeedSequence(int(root_seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


def generator(seed: int) -> np.random.Generator:
    """Plain seeded generator for one-shot sampling tasks."""
    return np.random.default_rng(int(seed))
