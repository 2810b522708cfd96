import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from levyid.core import JumpLaw, TemperedStableSpec
from levyid.randkit import (
    DT_MAX,
    RngStream,
    sample_jump,
    sample_positive_stable,
    sample_size_biased_jump,
    sample_tempered_stable_increment,
)


class TestStreams:
    def test_same_stream_reproduces(self):
        a = RngStream(42, 0).generator.random(5)
        b = RngStream(42, 0).generator.random(5)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0).generator.random(5)
        b = RngStream(42, 1).generator.random(5)
        assert not np.array_equal(a, b)

    def test_substream_is_deterministic(self):
        r = RngStream(7)
        a = r.substream(3, 1).generator.random(4)
        b = RngStream(7).substream(3, 1).generator.random(4)
        assert np.array_equal(a, b)

    def test_substreams_decorrelated(self):
        r = RngStream(123)
        x = r.substream(0).generator.random(100_000)
        y = r.substream(1).generator.random(100_000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.01


class TestBasicLaws:
    def test_uniform_mean(self, rng):
        x = rng.substream(1).generator.random(200_000)
        assert abs(x.mean() - 0.5) < 0.002


class TestPositiveStable:
    def test_half_stable_cdf(self, rng):
        # for alpha = 1/2 and unit time scale: P(S <= q) = 2 Phi(-1/sqrt(2q))
        # from the Levy distribution with scale 1/2
        x = sample_positive_stable(rng.substream(4), 0.5, 1.0, 200_000)
        for q in (0.5, 1.0, 4.0):
            want = 2 * stats.norm.cdf(-1.0 / math.sqrt(2.0 * q))
            got = (x <= q).mean()
            se = math.sqrt(want * (1 - want) / x.size)
            assert abs(got - want) <= 4 * se, (q, got, want)

    def test_scaling_in_time(self, rng):
        # S_t has the law of t^{1/alpha} S_1
        al = 0.7
        x = sample_positive_stable(rng.substream(5), al, 2.0, 100_000)
        y = sample_positive_stable(rng.substream(6), al, 1.0, 100_000)
        scaled = 2.0 ** (1.0 / al) * y
        for q in (0.5, 2.0, 10.0):
            p1, p2 = (x <= q).mean(), (scaled <= q).mean()
            se = math.sqrt(p1 * (1 - p1) / x.size + p2 * (1 - p2) / y.size)
            assert abs(p1 - p2) <= 4 * max(se, 1e-4)

    def test_positive(self, rng):
        x = sample_positive_stable(rng.substream(7), 0.3, 1.0, 10_000)
        assert np.all(x > 0)


class TestTemperedStableIncrement:
    def test_laplace_transform(self, rng):
        # E e^{-u psi(dt)} = exp(dt (1 - (1+u)^alpha))
        al, dt = 0.5, 0.4
        x = sample_tempered_stable_increment(rng.substream(8), al, dt, 200_000)
        for u in (0.5, 1.0, 2.0):
            got = np.exp(-u * x)
            se = got.std() / math.sqrt(x.size)
            want = math.exp(dt * (1.0 - (1.0 + u) ** al))
            assert abs(got.mean() - want) <= 3.5 * se, u

    def test_mean(self, rng):
        al, dt = 0.3, 0.25
        x = sample_tempered_stable_increment(rng.substream(9), al, dt, 200_000)
        se = x.std() / math.sqrt(x.size)
        assert abs(x.mean() - al * dt) <= 3 * se

    def test_rejects_large_step(self, rng):
        # the rejection sampler's bound; alpha = 1/2 takes any finite step
        with pytest.raises(ValueError):
            sample_tempered_stable_increment(rng, 0.6, DT_MAX * 1.5, 10)

    def test_rejects_nonpositive_step(self, rng):
        with pytest.raises(ValueError):
            sample_tempered_stable_increment(rng, 0.5, 0.0, 10)

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1.0],
                             ids=["nan", "inf", "zero", "negative"])
    def test_rejects_step_not_positive_and_finite(self, alpha, dt):
        # exp(-NaN) and exp(-inf) accept no candidate: the rejection loop
        # would never end, and the stable draw would be NaN
        with pytest.raises(ValueError, match="positive and finite"):
            sample_tempered_stable_increment(RngStream(1), alpha, dt, 3)
        with pytest.raises(ValueError, match="positive and finite"):
            sample_positive_stable(RngStream(1), alpha, dt, 3)


class TestHalfIncrement:
    """At alpha = 1/2 the increment over dt is inverse Gaussian with mean
    dt/2 and shape dt^2/2, scipy's invgauss(1/dt, scale=dt^2/2)."""

    @pytest.mark.parametrize("dt", [1e-3, 0.015, 0.5, 4.0, 1e3])
    def test_cdf_is_inverse_gaussian(self, rng, dt):
        x = sample_tempered_stable_increment(rng.substream(10), 0.5, dt, 200_000)
        law = stats.invgauss(1.0 / dt, scale=dt * dt / 2.0)
        for p in (0.05, 0.25, 0.5, 0.75, 0.95):
            q = law.ppf(p)
            want = law.cdf(q)
            got = (x <= q).mean()
            se = math.sqrt(want * (1 - want) / x.size)
            assert abs(got - want) <= 4 * se, (p, got, want)

    @pytest.mark.parametrize("dt", [1e-300, 1e6])
    def test_extreme_steps_stay_finite(self, rng, dt):
        x = sample_tempered_stable_increment(rng.substream(11), 0.5, dt, 100_000)
        assert np.all(np.isfinite(x) & (x >= 0))

    def test_draws_one_normal_then_one_uniform_per_variate(self):
        n = 1000
        rng = RngStream(5)
        sample_tempered_stable_increment(rng, 0.5, 0.5, n)
        gen = RngStream(5).generator
        gen.standard_normal(n)
        gen.random(n)
        assert np.array_equal(rng.generator.bit_generator.random_raw(8),
                              gen.bit_generator.random_raw(8))


class TestJumpSampling:
    @given(st.sampled_from(["exponential", "gamma", "constant", "discrete"]))
    def test_jumps_positive(self, kind):
        law = {
            "exponential": JumpLaw.exponential(1.5),
            "gamma": JumpLaw.gamma(0.7, 2.0),
            "constant": JumpLaw.constant(0.4),
            "discrete": JumpLaw.discrete(((0.5, 0.3), (2.0, 0.7))),
        }[kind]
        x = sample_jump(RngStream(99).substream(hash(kind) % 1000), law, 1000)
        assert np.all(x > 0)

    def test_jump_means(self, rng):
        for i, law in enumerate([JumpLaw.exponential(1.5), JumpLaw.gamma(2.0, 0.5),
                                 JumpLaw.constant(0.4),
                                 JumpLaw.discrete(((0.5, 0.3), (2.0, 0.7)))]):
            x = sample_jump(rng.substream(20, i), law, 100_000)
            se = x.std() / math.sqrt(x.size) + 1e-12
            assert abs(x.mean() - law.mean) <= 4 * se


class TestSizeBiasedJump:
    def test_exponential_becomes_gamma2(self, rng):
        # size-biased Exp(mean m) is Gamma(2, scale m): mean 2m
        x = sample_size_biased_jump(rng.substream(30), JumpLaw.exponential(1.5), 200_000)
        se = x.std() / math.sqrt(x.size)
        assert abs(x.mean() - 3.0) <= 3 * se
        # second moment of Gamma(2, 1.5): (2)(3) 1.5^2 = 13.5
        m2 = (x**2).mean()
        se2 = (x**2).std() / math.sqrt(x.size)
        assert abs(m2 - 13.5) <= 3 * se2

    def test_gamma_shifts_shape(self, rng):
        # size-biased Gamma(k, r) is Gamma(k+1, r)
        x = sample_size_biased_jump(rng.substream(31), JumpLaw.gamma(2.0, 3.0), 200_000)
        se = x.std() / math.sqrt(x.size)
        assert abs(x.mean() - 1.0) <= 3 * se

    def test_constant_unchanged(self, rng):
        x = sample_size_biased_jump(rng.substream(32), JumpLaw.constant(0.7), 100)
        assert np.all(x == 0.7)

    def test_discrete_reweighted(self, rng):
        # atoms (x_j, p_j) reweighted to x_j p_j / mean
        law = JumpLaw.discrete(((1.0, 0.5), (3.0, 0.5)))
        x = sample_size_biased_jump(rng.substream(33), law, 200_000)
        p3 = (x == 3.0).mean()
        want = 3.0 * 0.5 / 2.0
        se = math.sqrt(want * (1 - want) / x.size)
        assert abs(p3 - want) <= 4 * se

    def test_ts_spec_gives_gamma(self, rng):
        # the size-biased jump of the tempered stable density is Gamma(1-alpha, 1)
        x = sample_size_biased_jump(rng.substream(34), TemperedStableSpec(0.5), 200_000)
        se = x.std() / math.sqrt(x.size)
        assert abs(x.mean() - 0.5) <= 3 * se
        lap = np.exp(-x)
        se_l = lap.std() / math.sqrt(x.size)
        assert abs(lap.mean() - 2.0**-0.5) <= 3 * se_l
