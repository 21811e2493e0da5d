"""Deterministic random-stream derivation.

Every stochastic component draws from its own substream keyed by
(master_seed, experiment, n, replication, component, ...).  Streams are
PCG64 generators seeded through numpy's SeedSequence so that substreams are
independent and the whole run is reproducible from the master seed alone.

A stream is fully given by its seed words: the four 64-bit words that its
SeedSequence's ``generate_state(4, np.uint64)`` returns and that PCG64 seeds
itself from.  :func:`seed_words` derives the words of many substreams, or of
their spawned children, in one vectorized pass of SeedSequence's hash, and
:func:`reseat` puts an existing generator into the fresh state that a
stream's words give.  A process keeps one scratch generator, which
:func:`seated` re-seats before every draw, so simulated replications draw
every stream from it and never build a SeedSequence, a PCG64 or a Generator
per stream or per block; every draw is bit for bit the one that
``substream(...).spawn(k)`` would make.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

__all__ = ["substream", "seed_words", "reseat", "seated"]

# numpy's SeedSequence: pool size and the constants of hashmix, mix and
# generate_state (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _key_words(keys) -> list[int]:
    words = []
    for k in keys:
        if isinstance(k, str):
            words.append(zlib.crc32(k.encode("utf-8")))
        elif isinstance(k, (int, np.integer)):
            words.append(int(k) & 0xFFFFFFFF)
            words.append((int(k) >> 32) & 0xFFFFFFFF)
        else:
            raise TypeError(f"substream key must be str or int, got {type(k)!r}")
    return words


def _entropy_words(seed: int) -> list[int]:
    """The 32-bit words SeedSequence makes of an integer entropy, low first."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"master seed must be a nonnegative integer, got {seed}")
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    return words


def substream(master_seed: int, *keys) -> np.random.Generator:
    """Generator for the substream identified by (master_seed, *keys)."""
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=tuple(_key_words(keys)))
    return np.random.Generator(np.random.PCG64(ss))


def seed_words(master_seed: int, rows, count: int | None = None) -> np.ndarray:
    """Seed words of the substreams (master_seed, *row) for each key row,
    shape (rows, 4); or, with ``count``, of the first ``count`` children of
    each, shape (rows, count, 4), those of ``substream(master_seed,
    *row).spawn(count)``.  Every row must give as many key words.

    Entry [r, i] is ``SeedSequence(master_seed, spawn_key=keys + (i,))
    .generate_state(4, np.uint64)``, computed for all rows and children at
    once: numpy's hash, vectorized over the rows, in uint32 arithmetic.
    """
    keys = np.array([_key_words(row) for row in rows], dtype=np.uint32)
    if count is not None:
        keys = np.concatenate((np.repeat(keys, count, axis=0),
                               np.tile(np.arange(count, dtype=np.uint32), len(rows))[:, None]),
                              axis=1)
    run = _entropy_words(master_seed)
    if keys.shape[1] and len(run) < _POOL:          # the run entropy is padded
        run += [0] * (_POOL - len(run))
    entropy = [np.full(len(keys), w, dtype=np.uint32) for w in run] + list(keys.T)
    pool = _mix_entropy(entropy, len(keys))
    hash_b = _hasher(_INIT_B, _MULT_B)                 # generate_state's hash
    state = [hash_b(pool[i % _POOL]) for i in range(8)]
    lo, hi = np.stack(state[0::2], axis=1), np.stack(state[1::2], axis=1)
    out = lo.astype(np.uint64) | (hi.astype(np.uint64) << np.uint64(32))
    return out if count is None else out.reshape(len(rows), count, 4)


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix with its own running hash constant, on uint32
    arrays."""
    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * mult) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)
    return hashmix


def _mix_entropy(entropy: list[np.ndarray], size: int) -> list[np.ndarray]:
    """SeedSequence's pool of 4 words, mixed from the entropy word columns."""
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ (result >> 16)

    zero = np.zeros(size, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def reseat(gen: np.random.Generator, words) -> np.random.Generator:
    """Put ``gen``'s PCG64 into the fresh state its seed words give, that of
    a new ``Generator(PCG64(seq))`` with ``seq.generate_state(4, np.uint64)``
    equal to ``words``, and return it.

    PCG64 seeds its 128-bit LCG with s = w0:w1 and increment inc =
    2 (w2:w3) + 1, then steps it around adding s: state = ((inc + s) M +
    inc) mod 2^128.
    """
    w0, w1, w2, w3 = map(int, words)
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
    gen.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return gen


@functools.cache
def _scratch() -> np.random.Generator:
    """The process's scratch generator, made on first use: ``numpy.random``
    takes about 25 ms to import.  Seeded from a constant, it reads no OS
    entropy; every user re-seats it, so no state carries between draws."""
    return np.random.Generator(np.random.PCG64(0))


def seated(words) -> np.random.Generator:
    """The process's scratch generator, re-seated on a stream's seed words
    (see :func:`reseat`).  It stays valid until the next call."""
    return reseat(_scratch(), words)
