"""Seeded random primitives: thinning, Poisson, multinomial and geometric draws.

Every draw goes through an :class:`RngStream`, a counter-based generator keyed
by ``(seed, stream_id)``. Replaying the same key and call sequence reproduces
every output bit for bit, and streams with distinct ids are independent, so
substreams can be handed to concurrent simulations without coordination.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    # SplitMix64 finalizer; bijective on 64-bit ints.
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class RngStream:
    """Reproducible random stream identified by ``(seed, stream_id)``.

    Wraps a Philox counter-based bit generator whose 128-bit key is the
    ``(seed, stream_id)`` pair. Distinct stream ids give statistically
    independent streams; equal ids replay identically (for a fixed numpy
    version, the draws are platform independent).

    A single stream must be consumed by one thread at a time; independent
    streams are safe to use concurrently.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if not 0 <= int(seed) <= _MASK64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if not 0 <= int(stream_id) <= _MASK64:
            raise ParameterError(
                f"stream_id must be a 64-bit unsigned integer, got {stream_id}"
            )
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    @property
    def identity(self) -> tuple[int, int]:
        return (self.seed, self.stream_id)

    def substream(self, index: int) -> "RngStream":
        """Derive an independent child stream, deterministic in (stream_id, index)."""
        if index < 0:
            raise ParameterError(f"substream index must be nonnegative, got {index}")
        child_id = _mix64(self.stream_id ^ _mix64(index & _MASK64))
        return RngStream(self.seed, child_id)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def binomial_thin(n: int, p: float, rng: RngStream) -> int:
    """Thin a count of ``n`` individuals, keeping each with probability ``p``.

    Returns a Binomial(n, p) draw; the sampler is exact (inversion / BTPE),
    never a normal approximation.
    """
    if n < 0:
        raise ParameterError(f"population count must be nonnegative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"thinning probability must lie in [0, 1], got {p}")
    if n == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return int(n)
    return int(rng.generator.binomial(n, p))


def poisson_draw(rate: float, rng: RngStream) -> int:
    """Draw one Poisson(rate) count; rate 0 returns 0."""
    if rate < 0:
        raise ParameterError(f"rate must be nonnegative, got {rate}")
    if rate == 0:
        return 0
    return int(rng.generator.poisson(rate))


def multinomial_allocate(x: int, probs, rng: RngStream) -> list[int]:
    """Split ``x`` individuals across categories with the given probabilities.

    ``probs`` may sum to less than 1; the residual mass is an implicit
    "none of the categories" outcome, so the returned counts sum to at
    most ``x``. Each marginal count is Binomial(x, probs[i]).
    """
    if x < 0:
        raise ParameterError(f"count must be nonnegative, got {x}")
    probs = [float(p) for p in probs]
    if any(p < 0 for p in probs):
        raise ParameterError("category probabilities must be nonnegative")
    total = math.fsum(probs)
    if total > 1.0 + 1e-12:
        raise ParameterError(f"category probabilities sum to {total} > 1")
    if not probs:
        return []
    if x == 0:
        return [0] * len(probs)
    if total > 1.0:
        # Inside tolerance; renormalize so the residual category is exactly 0.
        probs = [p / total for p in probs]
        total = 1.0
    counts = rng.generator.multinomial(x, probs + [1.0 - total])
    return [int(c) for c in counts[: len(probs)]]


def geometric_draws(success_prob: float, size: int, rng: RngStream) -> np.ndarray:
    """Draw ``size`` geometric waiting times on support {1, 2, ...} in one call.

    P(result = i) = success_prob * (1 - success_prob)**(i - 1). Sampled by
    inversion: floor(log(U) / log(1 - p)) + 1 with U uniform on (0, 1].
    """
    if not 0.0 < success_prob <= 1.0:
        raise ParameterError(
            f"success probability must lie in (0, 1], got {success_prob}"
        )
    if size < 0:
        raise ParameterError(f"size must be nonnegative, got {size}")
    if success_prob == 1.0:
        return np.ones(size, dtype=np.int64)
    u = rng.generator.random(size)
    np.subtract(1.0, u, out=u)
    np.log(u, out=u)
    u /= math.log(1.0 - success_prob)
    draws = np.floor(u, out=u).astype(np.int64)
    draws += 1
    return draws
