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
"""

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Deterministic 64-bit generator; see module docstring for the algorithm."""

    def __init__(self, seed):
        self._state = seed & _MASK

    def next_u64(self):
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n):
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("randrange() arg must be positive")
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

    def shuffle(self, xs):
        """In-place Fisher-Yates."""
        for i in range(len(xs) - 1, 0, -1):
            j = self.randrange(i + 1)
            xs[i], xs[j] = xs[j], xs[i]

    def sample(self, seq, k):
        xs = list(seq)
        self.shuffle(xs)
        return xs[:k]
