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

    def stream(self, step: int, phase: int) -> np.random.Generator:
        """Fresh generator for (step, phase); identical on every call."""
        counter = np.zeros(4, dtype=np.uint64)
        counter[2] = np.uint64(step)
        counter[3] = np.uint64(phase)
        return np.random.Generator(np.random.Philox(seed=self._key, counter=counter))


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
