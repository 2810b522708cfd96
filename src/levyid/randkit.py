"""Deterministic splittable random streams plus samplers for the special laws.

Streams are counter-based (Philox) and fully determined by
(seed, stream_id, substream path), so ensembles can be generated in
independent chunks and merged without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import JumpLaw, TemperedStableSpec

# largest time step the tempered stable rejection sampler accepts; the
# acceptance rate is exp(-dt), so callers subdivide rather than let it decay
DT_MAX = 0.5

_THETA_EPS = 1e-12


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Identical (seed, stream_id, path) and call sequence give identical draws.
    `substream` derives independent child streams without consuming state.
    """

    seed: int
    stream_id: int = 0
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 bits")
        object.__setattr__(self, "path", tuple(int(p) for p in self.path))

    @cached_property
    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=int(self.seed), spawn_key=(int(self.stream_id), *self.path)
        )
        return np.random.Generator(np.random.Philox(ss))

    def substream(self, *tags: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id, self.path + tags)


def sample_uniform(rng: RngStream, size: int) -> np.ndarray:
    """Uniform draws on [0, 1)."""
    return rng.generator.random(size)


def sample_exponential(rng: RngStream, mean: float, size: int) -> np.ndarray:
    if mean <= 0:
        raise ValueError("mean must be positive")
    return mean * rng.generator.standard_exponential(size)


def sample_gamma(rng: RngStream, shape: float, rate: float, size: int) -> np.ndarray:
    if shape <= 0 or rate <= 0:
        raise ValueError("shape and rate must be positive")
    return rng.generator.gamma(shape, 1.0 / rate, size)


def _positive_stable(gen: np.random.Generator, alpha: float, t: float, n: int) -> np.ndarray:
    # Kanter's representation, evaluated in log space for stability near the
    # endpoints of theta.
    theta = np.pi * gen.random(n)
    np.clip(theta, _THETA_EPS, np.pi - _THETA_EPS, out=theta)
    w = np.maximum(gen.standard_exponential(n), 1e-300)
    frac = alpha / (1.0 - alpha)
    log_a = (
        frac * np.log(np.sin(alpha * theta))
        + np.log(np.sin((1.0 - alpha) * theta))
        - (1.0 + frac) * np.log(np.sin(theta))
    )
    s = np.exp((log_a - np.log(w)) / frac)
    return t ** (1.0 / alpha) * s


def sample_positive_stable(rng: RngStream, alpha: float, t: float, size: int) -> np.ndarray:
    """Positive stable law with E exp(-u X) = exp(-t u^alpha), 0 < alpha < 1."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if t <= 0:
        raise ValueError("t must be positive")
    return _positive_stable(rng.generator, alpha, t, size)


def _tempered_stable_block(gen: np.random.Generator, alpha: float, dt: float, n: int) -> np.ndarray:
    # exponential tilting by rejection: accept a stable draw S with prob e^{-S};
    # overall acceptance rate is exp(-dt), hence the DT_MAX guard upstream
    out = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        cand = _positive_stable(gen, alpha, dt, pending.size)
        acc = gen.random(pending.size) < np.exp(-cand)
        out[pending[acc]] = cand[acc]
        pending = pending[~acc]
    return out


def sample_tempered_stable_increment(
    rng: RngStream, alpha: float, dt: float, size: int
) -> np.ndarray:
    """Increment with E exp(-u X) = exp(dt (1 - (1+u)^alpha)).

    dt must not exceed DT_MAX; subdivide longer steps and sum.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt > DT_MAX:
        raise ValueError(f"dt={dt} exceeds DT_MAX={DT_MAX}; subdivide the step")
    return _tempered_stable_block(rng.generator, alpha, dt, size)


def _jump_block(gen: np.random.Generator, law: JumpLaw, n: int) -> np.ndarray:
    if law.kind == "exponential":
        return law.params[0] * gen.standard_exponential(n)
    if law.kind == "gamma":
        k, r = law.params
        return gen.gamma(k, 1.0 / r, n)
    if law.kind == "constant":
        return np.full(n, law.params[0])
    xs = np.array([x for x, _ in law.params])
    ps = np.array([p for _, p in law.params])
    return gen.choice(xs, size=n, p=ps / ps.sum())


def sample_jump(rng: RngStream, law: JumpLaw, size: int) -> np.ndarray:
    """Draw jump sizes from a JumpLaw."""
    return _jump_block(rng.generator, law, size)


def _size_biased_block(gen: np.random.Generator, law, n: int) -> np.ndarray:
    if isinstance(law, TemperedStableSpec):
        # x^{-alpha-1} e^{-x} dx size-biases to Gamma(1 - alpha, 1)
        return gen.gamma(1.0 - law.alpha, 1.0, n)
    if law.kind == "exponential":
        return gen.gamma(2.0, law.params[0], n)
    if law.kind == "gamma":
        k, r = law.params
        return gen.gamma(k + 1.0, 1.0 / r, n)
    if law.kind == "constant":
        return np.full(n, law.params[0])
    xs = np.array([x for x, _ in law.params])
    ps = np.array([p for _, p in law.params])
    w = xs * ps
    return gen.choice(xs, size=n, p=w / w.sum())


def sample_size_biased_jump(rng: RngStream, law, size: int) -> np.ndarray:
    """Draw from the size-biased jump law x * law(dx) / mean.

    `law` is a JumpLaw or, for the tempered stable jump measure, a
    TemperedStableSpec.
    """
    if not isinstance(law, (JumpLaw, TemperedStableSpec)):
        raise TypeError("law must be a JumpLaw or TemperedStableSpec")
    return _size_biased_block(rng.generator, law, size)
