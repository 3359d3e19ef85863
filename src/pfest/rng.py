"""Deterministic random-number generation.

All randomness flows through counter-based Philox generators keyed by
an integer below 2^128, so identical keys produce identical streams
across platforms and runs. Philox streams under distinct keys are
independent without any hashing of the key (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC 2011), so the i-th of the
sub-streams under a 64-bit seed is simply the stream keyed by the key
words ``[seed, i]``, that is by ``seed + (i << 64)``. ``substreams``
yields a fresh generator for each of them; ``derive_seed`` hashes a
master seed into the 64-bit seeds of separate experiment rows.

Philox is counter-based, so a stream can also be entered at any word
without drawing the words before it: ``make_generator(seed, start=s)``
begins at the stream's s-th 64-bit word, which lets two threads draw
consecutive parts of one stream at the same time, bit for bit.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

_SEED_BOUND = 2**64
_KEY_BOUND = 2**128
# One Philox4x64 counter step makes four 64-bit words, and the counter
# has 256 bits, so a stream holds 2^258 words before it wraps.
_WORDS_PER_STEP = 4
_STREAM_WORDS = 2**258


class _KeyWords:
    """The two 64-bit words of a Philox key, handed to ``Philox`` as its
    seed sequence: it asks for two uint64 words and uses them as the key,
    with the counter at 0, as ``Philox(key=...)`` does. Passing the key
    itself would first build an unused ``SeedSequence`` from OS entropy.
    Any other request raises, so that a numpy whose Philox asks for
    something else fails instead of keying other streams. The first
    ``make_generator`` call registers it as an ``ISeedSequence``, so
    that importing pfest does not import ``numpy.random``."""

    def __init__(self, key: int):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise RuntimeError(
                f"Philox asked for {n_words} words of {np.dtype(dtype)}, "
                "not the 2 uint64 key words"
            )
        return np.array([self.key & (_SEED_BOUND - 1), self.key >> 64], dtype=np.uint64)


@functools.cache
def _register_key_words() -> None:
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_KeyWords)


def _check_integer(label: str, value) -> int:
    """``value`` as an int, or a ValueError naming ``label`` where it is a
    float without an integer value, nan and the infinities included
    (``int`` would truncate it to another integer's stream, count or
    size), or a string (``int`` would parse it). An integer-valued float
    is its integer."""
    if isinstance(value, (str, bytes)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(f"{label} must be an integer, got {value!r}")
    return int(value)


def _check_count(label: str, value) -> int:
    """``value`` as an int of at least 1, or a ValueError naming
    ``label`` (see ``_check_integer``)."""
    value = _check_integer(label, value)
    if value < 1:
        raise ValueError(f"{label} must be >= 1, got {value}")
    return value


def make_generator(seed: int, start: int = 0) -> np.random.Generator:
    """Return a Generator over the Philox stream keyed by ``seed``, an
    integer in [0, 2^128): its low 64 bits are key word 0, its high 64
    bits key word 1.

    The generator begins at the stream's ``start``-th 64-bit word, so
    ``make_generator(seed, start=s).random(k)`` is
    ``make_generator(seed).random(s + k)[s:]``: ``Generator.random``
    takes one word per double. It gets there without drawing the words
    before it: ``start // 4`` counter steps by ``advance``, then
    ``start % 4`` doubles drawn and discarded."""
    seed, start = _check_integer("seed", seed), int(start)
    if not 0 <= seed < _KEY_BOUND:
        raise ValueError(f"seed must be a 128-bit unsigned integer, got {seed}")
    if not 0 <= start < _STREAM_WORDS:
        raise ValueError(f"start must be a word of the stream in [0, 2^258), got {start}")
    _register_key_words()
    bit_generator = np.random.Philox(_KeyWords(seed))
    gen = np.random.Generator(bit_generator)
    if start:
        bit_generator.advance(start // _WORDS_PER_STEP)
        gen.random(start % _WORDS_PER_STEP)
    return gen


def substreams(seed: int, count: int) -> Iterator[tuple[int, np.random.Generator]]:
    """Yield ``(key, make_generator(key))`` for the sub-streams i = 0 ..
    count - 1 of the 64-bit ``seed``, ``key = seed + (i << 64)``: each
    item has a generator of its own, whatever order it is drawn from."""
    seed = _check_integer("seed", seed)
    if not 0 <= seed < _SEED_BOUND:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    for i in range(count):
        key = seed + (i << 64)
        yield key, make_generator(key)


def derive_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit seed for the ``index``-th independent sub-stream.

    Hashing (master_seed, index) through SeedSequence keeps sub-streams
    decorrelated while staying reproducible whatever order the indices
    are asked for in.
    """
    ss = np.random.SeedSequence((int(master_seed), int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
