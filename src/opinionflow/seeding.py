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

# Coins that one Philox pass draws: the steps of a ``RunStreams`` window, or
# the cells of ``evolution.birth_counts``, many runs at once. Both ran as fast
# at 2^12 as at 2^13 or 2^14, and 2^12 holds the least memory per pass.
COIN_WINDOW = 1 << 12

# Philox4x64-10 (Salmon et al., Random123): round multipliers and key bumps.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(m: int, b: np.ndarray, hi: np.ndarray, lo: np.ndarray | None,
             t: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """The high and low words of the 128-bit products m * b, from 32-bit
    halves, into ``hi`` and ``lo`` (the high words alone when ``lo`` is
    None); ``t``, ``u`` and ``v`` are scratch. All are arrays that b
    broadcasts to, and none of them is ``b``."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    if lo is not None:
        np.multiply(b, np.uint64(m), out=lo)
    np.bitwise_and(b, _LOW32, out=t)                 # b_lo
    np.right_shift(b, _32, out=u)                    # b_hi
    np.multiply(u, m_hi, out=hi)
    np.multiply(u, m_lo, out=u)                      # hi_lo
    np.multiply(t, m_lo, out=v)                      # lo_lo
    np.right_shift(v, _32, out=v)
    np.multiply(t, m_hi, out=t)
    v += t
    np.bitwise_and(u, _LOW32, out=t)
    v += t                                           # cross, < 2^64
    np.right_shift(u, _32, out=u)
    hi += u
    np.right_shift(v, _32, out=v)
    hi += v


def _philox_first_words(keys: np.ndarray, steps: np.ndarray, phase: int) -> np.ndarray:
    """Word 0 of Philox4x64-10 at counters [1, 0, step, phase], one per step
    under each key: ``keys`` of shape (rows, 2), uint64, give (rows, len(steps)).

    That is the first uint64 a ``Philox(counter=[0, 0, step, phase])``
    returns: it bumps the counter before its first block. A round maps
    (c0, c1, c2, c3) to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1,
    lo(M0 c0)). Only c2 varies along a row, so the first two rounds take
    their constant products once: M0 * 1 in round 1, M1 * step in round 1
    once for all keys, and M1 * (phase ^ k1) in round 2 once per key. The
    last two rounds compute only what word 0 reads. The other rounds run in
    place on buffers allocated once.
    """
    m0, m1 = _PHILOX_M
    shape = (len(keys), len(steps))
    c0, c1, c2, c3, hi0, lo0, hi1, lo1, t, u, v = (np.empty(shape, np.uint64) for _ in range(11))
    bumps = np.arange(10, dtype=np.uint64)
    k0 = keys[:, :1] + bumps * np.uint64(_PHILOX_W[0])     # round r's keys: column r
    k1 = keys[:, 1:] + bumps * np.uint64(_PHILOX_W[1])
    # round 1 at [1, 0, step, phase]: M0 * 1 is (0, M0), and M1 * step is
    # the same under every key: one row
    _mulhilo(m1, steps, hi1[0], lo1[0], t[0], u[0], v[0])
    np.bitwise_xor(hi1[0], k0[:, :1], out=c0)
    row = lo1[0]                                        # c1
    column = k1[:, :1] ^ np.uint64(phase)               # c2, and c3 = M0
    # round 2: M1 * c2 once per key
    _mulhilo(m0, c0, hi0, lo0, t, u, v)
    h, lo, *scratch = (np.empty_like(column) for _ in range(5))
    _mulhilo(m1, column, h, lo, *scratch)
    np.bitwise_xor(h ^ k0[:, 1:2], row, out=c0)
    c1[...] = lo
    np.bitwise_xor(hi0, k1[:, 1:2] ^ np.uint64(m0), out=c2)
    c3, lo0 = lo0, c3
    for r in range(2, 8):
        _mulhilo(m0, c0, hi0, lo0, t, u, v)
        _mulhilo(m1, c2, hi1, lo1, t, u, v)
        np.bitwise_xor(hi1, c1, out=c0)
        c0 ^= k0[:, r:r + 1]
        np.bitwise_xor(hi0, c3, out=c2)
        c2 ^= k1[:, r:r + 1]
        c1, lo1 = lo1, c1
        c3, lo0 = lo0, c3
    # round 9: word 0 of round 10 reads only its c1 and c2
    np.multiply(c2, np.uint64(m1), out=c1)
    _mulhilo(m0, c0, hi0, None, t, u, v)
    np.bitwise_xor(hi0, c3, out=c2)
    c2 ^= k1[:, 8:9]
    # round 10
    _mulhilo(m1, c2, hi1, None, t, u, v)
    np.bitwise_xor(hi1, c1, out=c0)
    c0 ^= k0[:, 9:]
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
            if n_words == 2 and (dtype is np.uint64 or np.dtype(dtype) == np.uint64):
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
        self._words = self._key.generate_state(2, np.uint64)[None]
        self._windows: dict[int, tuple[int, np.ndarray]] = {}   # phase -> (first, coins)
        self.coin_draws = 0             # Philox passes made for coins

    def stream(self, step: int, phase: int) -> np.random.Generator:
        """Fresh generator for (step, phase); identical on every call."""
        counter = np.array((0, 0, step, phase), dtype=np.uint64)
        return np.random.Generator(np.random.Philox(seed=self._key, counter=counter))

    def coin(self, step: int, phase: int) -> float:
        """``stream(step, phase).random()``, bit for bit, without a Generator:
        read from the window that holds ``step``."""
        first, coins = self.window(step, phase)
        return float(coins[step - first])

    def window(self, step: int, phase: int) -> tuple[int, np.ndarray]:
        """(first, coins): the coins of the COIN_WINDOW steps from ``first``, the
        multiple of COIN_WINDOW at or below ``step``, drawn in one Philox pass
        in numpy uint64 arithmetic (``random()`` is (first word >> 11) * 2**-53).
        The last window drawn in each phase is kept.
        """
        first = step - step % COIN_WINDOW
        cached = self._windows.get(phase)
        if cached is None or cached[0] != first:
            self.coin_draws += 1
            cached = self._windows[phase] = first, _coins(self._words, first, COIN_WINDOW, phase)[0]
        return cached


def _coins(keys: np.ndarray, first: int, count: int, phase: int) -> np.ndarray:
    """The coins of steps ``first`` .. ``first + count``-1 under each row of
    ``keys``: ``random()`` is (first word >> 11) * 2**-53."""
    steps = np.uint64(first) + np.arange(count, dtype=np.uint64)
    return (_philox_first_words(keys, steps, phase) >> np.uint64(11)) * 2.0**-53


def run_coins(seeds: list[int], first: int, count: int, phase: int) -> np.ndarray:
    """The coins of steps ``first`` .. ``first + count``-1 under each of
    ``seeds``, ``RunStreams(seed).coin(step, phase)`` each, one row per seed,
    drawn together."""
    keys = np.array([_philox_key_type()(int(seed)).generate_state(2, np.uint64)
                     for seed in seeds]).reshape(-1, 2)
    return _coins(keys, first, count, phase)


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
