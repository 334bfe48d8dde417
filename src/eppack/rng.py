"""Seeded pseudo-random generator with a pinned bit-level algorithm.

The generator is splitmix64 (Steele, Lea, Flood 2014).  State is a single
64-bit word; each step adds the golden-gamma constant and finalizes with
two xor-shift-multiply rounds.  The sequence is therefore reproducible
bit-for-bit in any language, which is what instance generation requires.

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)

Derived (per-trial) seeds are simply successive outputs of the parent
stream, which makes trials independent and order-insensitive.

``below(count, p)`` answers ``random() < p`` for the next ``count`` draws at
once.  Draw i's state is ``s0 + i * gamma`` mod 2^64, so the draws of a chunk
do not depend on each other: it packs one draw per 128-bit lane of a Python
int and runs the finalizer on the whole int, a few big-int operations per
chunk of ``_LANES`` draws instead of two method calls per draw.
"""

import math

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# One draw per 128-bit lane, so a 64-bit value times a 64-bit constant stays
# in its lane; lane j of _STEPS holds (j + 1) * gamma mod 2^64, draw j's step.
# 1,024 lanes run as fast as 4,096 and keep each big int at 16 KB.
_LANES = 1024
_ONES = int.from_bytes(b"\x01".ljust(16, b"\x00") * _LANES, "little")
_LOW64 = _ONES * _MASK
_STEPS = bytearray(16 * _LANES)  # filled in place: a list of lanes would triple peak memory
for _j in range(_LANES):
    _STEPS[16 * _j:16 * _j + 8] = ((_j + 1) * _GAMMA & _MASK).to_bytes(8, "little")
_STEPS = int.from_bytes(_STEPS, "little")


class SplitMix64:
    """Deterministic 64-bit generator; see module docstring for the algorithm."""

    def __init__(self, seed):
        self._state = seed & _MASK

    def next_u64(self):
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n):
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        if not 0 < n <= 1 << 64:
            raise ValueError("randrange() arg must be in [1, 2**64]")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def randint(self, a, b):
        """Uniform integer in [a, b] inclusive."""
        return a + self.randrange(b - a + 1)

    def random(self):
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) / (1 << 53)

    def below(self, count, p):
        """Ascending indices i < count of the next ``count`` draws whose
        ``random()`` is below p, leaving the state where ``count`` calls to
        ``random()`` would.

        For a draw's output z, ``random() < p`` iff ``z < ceil(p * 2^53) << 11``:
        both sides of ``(z >> 11) / 2^53 < p`` are exact reals, an integer is
        below a real iff it is below its ceiling c, and ``z >> 11 < c`` iff
        ``z < c << 11``.  Each 128-bit lane holds ``2^64 + z - t`` for that
        threshold t, whose bit 64 is clear iff z < t; p outside [0, 1] (or
        NaN) is rejected, since the lane would then borrow across lanes.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError("below() needs p in [0, 1]")
        hits = []
        lanes = min(count, _LANES)
        width = (1 << 128 * lanes) - 1
        ones, low = _ONES & width, _LOW64 & width
        offset = ones * ((1 << 64) - (math.ceil(p * (1 << 53)) << 11))
        for base in range(0, count, _LANES):
            if count - base < lanes:  # a short last chunk
                lanes = count - base
                width = (1 << 128 * lanes) - 1
                ones, low, offset = ones & width, low & width, offset & width
            z = (self._state * ones + (_STEPS & width)) & low
            z = ((z ^ (z >> 30)) & low) * _MIX1 & low
            z = ((z ^ (z >> 27)) & low) * _MIX2 & low
            # bits shifted in from the next lane land at bit 97 and up, so
            # bit 64 of each lane stays exact without a mask
            flags = ((z ^ (z >> 31)) + offset).to_bytes(16 * lanes, "little")[8::16]
            i = flags.find(0)
            while i >= 0:
                hits.append(base + i)
                i = flags.find(0, i + 1)
            self._state = (self._state + lanes * _GAMMA) & _MASK
        return hits

    def shuffle(self, xs):
        """In-place Fisher-Yates."""
        for i in range(len(xs) - 1, 0, -1):
            j = self.randrange(i + 1)
            xs[i], xs[j] = xs[j], xs[i]

    def sample(self, seq, k):
        xs = list(seq)
        self.shuffle(xs)
        return xs[:k]
