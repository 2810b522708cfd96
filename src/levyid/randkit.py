"""Deterministic splittable random streams plus samplers for the special laws.

Streams are counter-based (Philox) and fully determined by
(seed, stream_id, substream path), so ensembles can be generated in
independent chunks and merged without synchronization.

A tempered-stable increment at alpha = 1/2 is inverse Gaussian and is drawn
exactly at any step, from one normal and one uniform per variate (Michael,
Schucany and Haas, Amer. Statist. 1976). At any other alpha it tilts a
Kanter stable draw by rejection, so its step is bounded by DT_MAX.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import JumpLaw, TemperedStableSpec

# largest time step the tempered stable rejection sampler accepts at
# alpha != 1/2; the acceptance rate is exp(-dt), so callers subdivide rather
# than let it decay. The exact alpha = 1/2 sampler takes any finite step
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
    if not (t > 0 and np.isfinite(t)):
        raise ValueError("t must be positive and finite")
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

    At alpha = 1/2 any positive finite dt is drawn exactly; at any other
    alpha dt must not exceed DT_MAX: subdivide longer steps and sum.
    """
    if not (dt > 0 and np.isfinite(dt)):
        raise ValueError(f"dt={dt} must be positive and finite")
    if alpha == 0.5:
        return _inverse_gaussian_increment(rng.generator, dt, size)
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


def _inverse_gaussian_increment(gen: np.random.Generator, dt: float, size: int) -> np.ndarray:
    """dt * Z with Z ~ IG(mean 1/2, shape dt/2): the alpha = 1/2 increment,
    whose exponent dt((1 + u)^{1/2} - 1) is that of IG(dt/2, dt^2/2).

    Michael-Schucany-Haas: with Y = N^2 / 2, the smaller root of the IG
    quadratic is Z = (dt/2) / (dt + Y + sqrt(Y) sqrt(Y + 2 dt)), kept with
    probability (1/2) / (1/2 + Z) and otherwise replaced by the larger root
    1/(4Z). This form of the root neither cancels at small dt nor squares dt.
    """
    y = gen.standard_normal(size)
    y *= y
    y *= 0.5
    s = y + 2.0 * dt
    np.sqrt(s, out=s)
    s *= np.sqrt(y)
    y += dt
    y += s  # the denominator, (dt + Y) + sqrt(Y) sqrt(Y + 2 dt)
    z = np.divide(0.5 * dt, y, out=y)
    u = gen.random(size)
    u *= 0.5 + z
    np.divide(0.25, z, out=z, where=u > 0.5)
    z *= dt
    return z


def sample_jump(rng: RngStream, law: JumpLaw, size: int) -> np.ndarray:
    """Draw jump sizes from a JumpLaw."""
    gen = rng.generator
    if law.kind == "exponential":
        x = gen.standard_exponential(size)
        x *= law.params[0]
        return x
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
