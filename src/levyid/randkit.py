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


def sample_positive_stable(rng: RngStream, alpha: float, t: float, size: int) -> np.ndarray:
    """Positive stable law with E exp(-u X) = exp(-t u^alpha), 0 < alpha < 1."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if t <= 0:
        raise ValueError("t must be positive")
    # Kanter's representation, evaluated in log space for stability near the
    # endpoints of theta.
    gen = rng.generator
    theta = np.pi * gen.random(size)
    np.clip(theta, _THETA_EPS, np.pi - _THETA_EPS, out=theta)
    w = gen.standard_exponential(size)
    np.maximum(w, 1e-300, out=w)
    beta = 1.0 - alpha
    frac = alpha / beta
    log_a = _log_sin(alpha * theta)
    # log_a <- frac * log_a + log_b - (1 + frac) * log_c
    if beta == alpha:
        # at alpha = 1/2 both sines take the same argument and frac is 1, so
        # frac * log_a + log_b is log_a + log_a, exact in place
        log_a += log_a
    else:
        log_a *= frac
        log_a += _log_sin(beta * theta)
    log_c = _log_sin(theta)  # theta is not needed after this
    log_c *= 1.0 + frac
    log_a -= log_c
    log_a -= np.log(w, out=w)
    log_a /= frac
    s = np.exp(log_a, out=log_a)
    s *= t ** (1.0 / alpha)
    return s


def _log_sin(x: np.ndarray) -> np.ndarray:
    """log(sin(x)), computed in place in x."""
    np.sin(x, out=x)
    return np.log(x, out=x)


def sample_tempered_stable_increment(
    rng: RngStream, alpha: float, dt: float, size: int
) -> np.ndarray:
    """Increment with E exp(-u X) = exp(dt (1 - (1+u)^alpha)).

    dt must not exceed DT_MAX; subdivide longer steps and sum.
    """
    if dt > DT_MAX:
        raise ValueError(f"dt={dt} exceeds DT_MAX={DT_MAX}; subdivide the step")
    # exponential tilting by rejection: accept a stable draw S with prob e^{-S};
    # the acceptance rate is exp(-dt), hence the DT_MAX guard
    # the first round's candidates are the output; later rounds redraw only
    # the rejected entries, with the same generator calls in the same order
    out = sample_positive_stable(rng, alpha, dt, size)
    pending = np.flatnonzero(~(rng.generator.random(size) < np.exp(-out)))
    while pending.size:
        cand = sample_positive_stable(rng, alpha, dt, pending.size)
        acc = rng.generator.random(pending.size) < np.exp(-cand)
        out[pending[acc]] = cand[acc]
        pending = pending[~acc]
    return out


def sample_jump(rng: RngStream, law: JumpLaw, size: int) -> np.ndarray:
    """Draw jump sizes from a JumpLaw."""
    gen = rng.generator
    if law.kind == "exponential":
        return law.params[0] * gen.standard_exponential(size)
    if law.kind == "gamma":
        k, r = law.params
        return gen.gamma(k, 1.0 / r, size)
    if law.kind == "constant":
        return np.full(size, law.params[0])
    xs = np.array([x for x, _ in law.params])
    ps = np.array([p for _, p in law.params])
    return gen.choice(xs, size=size, p=ps / ps.sum())


def sample_size_biased_jump(rng: RngStream, law, size: int) -> np.ndarray:
    """Draw from the size-biased jump law x * law(dx) / mean.

    `law` is a JumpLaw or, for the tempered stable jump measure, a
    TemperedStableSpec.
    """
    gen = rng.generator
    if isinstance(law, TemperedStableSpec):
        # x^{-alpha-1} e^{-x} dx size-biases to Gamma(1 - alpha, 1)
        return gen.gamma(1.0 - law.alpha, 1.0, size)
    if not isinstance(law, JumpLaw):
        raise TypeError("law must be a JumpLaw or TemperedStableSpec")
    if law.kind == "exponential":
        return gen.gamma(2.0, law.params[0], size)
    if law.kind == "gamma":
        k, r = law.params
        return gen.gamma(k + 1.0, 1.0 / r, size)
    if law.kind == "constant":
        return np.full(size, law.params[0])
    xs = np.array([x for x, _ in law.params])
    ps = np.array([p for _, p in law.params])
    w = xs * ps
    return gen.choice(xs, size=size, p=w / w.sum())
