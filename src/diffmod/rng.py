"""Small deterministic PRNG.

The search and scramble routines must replay bit-exactly from a seed, on any
platform and Python version, so we use an explicit splitmix64 stream rather
than the stdlib Mersenne Twister (whose integer helpers have changed across
releases).
"""

_MASK = (1 << 64) - 1


class StableRng:
    def __init__(self, seed: int):
        """ValueError unless seed is an int (not a bool); any int is masked
        to 64 bits, so negative and huge seeds are legal."""
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        # rejection sampling for exact uniformity, on the fewest 64-bit words
        # whose range holds the span: one for any span up to 2**64
        top, words = 1 << 64, 1
        while top < span:
            top, words = top << 64, words + 1
        limit = top - (top % span)
        while True:
            v = self.next_u64()
            for _ in range(words - 1):
                v = v << 64 | self.next_u64()
            if v < limit:
                return lo + (v % span)

    def choice(self, seq):
        if not seq:
            raise ValueError("empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def nonzero_int(self, bound: int) -> int:
        """Uniform nonzero integer in [-bound, bound]."""
        while True:
            v = self.randint(-bound, bound)
            if v:
                return v

    def spawn(self, tag: int) -> "StableRng":
        """Independent child stream; deterministic in (seed, tag)."""
        return StableRng(self.next_u64() ^ ((tag * 0xD1342543DE82EF95) & _MASK))
