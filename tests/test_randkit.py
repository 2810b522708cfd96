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
        with pytest.raises(ValueError):
            sample_tempered_stable_increment(rng, 0.5, DT_MAX * 1.5, 10)

    def test_rejects_nonpositive_step(self, rng):
        with pytest.raises(ValueError):
            sample_tempered_stable_increment(rng, 0.5, 0.0, 10)


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
