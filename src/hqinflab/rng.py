"""Deterministic random-stream derivation.

Every stochastic component draws from its own substream keyed by
(master_seed, experiment, n, replication, component, ...).  Streams are
PCG64 generators seeded through numpy's SeedSequence so that substreams are
independent and the whole run is reproducible from the master seed alone.
A substream's spawned children can also be built directly, without the
parent generator, which is what a simulated replication draws from.
"""

from __future__ import annotations

import zlib

import numpy as np


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


def substream(master_seed: int, *keys) -> np.random.Generator:
    """Generator for the substream identified by (master_seed, *keys)."""
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=tuple(_key_words(keys)))
    return np.random.Generator(np.random.PCG64(ss))


def substream_children(master_seed: int, *keys, count: int) -> list[np.random.Generator]:
    """The first ``count`` children of ``substream(master_seed, *keys)``,
    bit for bit those of its ``spawn(count)``, built without the parent."""
    words = tuple(_key_words(keys))
    return [np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=int(master_seed), spawn_key=words + (i,)))) for i in range(count)]
