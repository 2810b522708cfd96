import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from levyid import processes
from levyid.core import (
    ConvSpec,
    ExpDecayKernel,
    JumpLaw,
    JumpLawSpec,
    PanelEntry,
    PoissonSpec,
    SatoSpec,
    TabulatedKernel,
    TemperedStableSpec,
    TimeGrid,
    mean_function,
)
from levyid.identities import companion_values, hidden_values, visible_values
from levyid.levymeasure import levy_functional_quadrature
from levyid.processes import (
    _TAIL_FRACTION,
    required_cutoff,
    sample_ensemble,
    sample_paths,
    values_at,
)
from levyid.randkit import RngStream
from levyid.statlab import bonferroni_crit

# one spec per sampler branch of values_at
SAMPLERS = {
    "poisson": PoissonSpec(rate=1.0),
    "tempered-stable": TemperedStableSpec(0.5),
    "sato": SatoSpec(H=0.8, bdlp=JumpLawSpec(rate=2.0, law=JumpLaw.gamma(1.5, 2.0))),
    "conv-jump": ConvSpec(kernel=ExpDecayKernel(decay=0.7),
                          z=JumpLawSpec(rate=1.5, law=JumpLaw.exponential(1.0))),
    "conv-ts": ConvSpec(kernel=TabulatedKernel((0.0, 1.0), (1.0, 1.0)),
                        z=TemperedStableSpec(alpha=0.6)),
}

# (family, construction) pairs drawn through sample_ensemble; no construction
# means plain paths through sample_paths
CHUNK_CASES = [(f, None) for f in SAMPLERS] + [
    (f, c) for f in ("poisson", "sato", "conv-jump")
    for c in (companion_values, hidden_values, visible_values)
]


def _laplace_check(vals, want_fn, us=(0.5, 1.0, 2.0), z=3.5):
    for u in us:
        lap = np.exp(-u * vals)
        se = lap.std() / math.sqrt(lap.size)
        assert abs(lap.mean() - want_fn(u)) <= z * se, u


class TestPoisson:
    def test_marginal_is_poisson(self, rng):
        spec = PoissonSpec(rate=1.5)
        vals = values_at(rng.substream(0), spec, [2.0], 100_000)[:, 0]
        for k in range(6):
            want = stats.poisson.pmf(k, 3.0)
            got = (vals == k).mean()
            se = math.sqrt(want * (1 - want) / vals.size)
            assert abs(got - want) <= 4 * se, k

    def test_paths_are_counting(self, rng, grid):
        vals = values_at(rng.substream(1), PoissonSpec(rate=2.0), grid.points, 2000)
        assert np.all(vals >= 0)
        assert np.all(np.diff(vals, axis=1) >= 0)
        assert np.array_equal(vals, np.round(vals))

    def test_single_path_helper(self, rng, grid):
        p = values_at(rng.substream(2), PoissonSpec(rate=1.0), grid.points, 1)
        assert p.shape == (1, len(grid))
        assert np.all(np.diff(p[0]) >= 0)


class TestTemperedStable:
    def test_marginal_laplace(self, rng):
        spec = TemperedStableSpec(alpha=0.5)
        vals = values_at(rng.substream(3), spec, [1.0], 100_000)[:, 0]
        _laplace_check(vals, lambda u: math.exp(1.0 - (1.0 + u) ** 0.5))

    def test_increments_stationary_independent(self, rng):
        # Laplace of psi(2) equals that of the sum of two fresh copies of psi(1)
        spec = TemperedStableSpec(alpha=0.7)
        two = values_at(rng.substream(4), spec, [2.0], 80_000)[:, 0]
        ones = values_at(rng.substream(5), spec, [1.0], 160_000)[:, 0]
        pair = ones[:80_000] + ones[80_000:]
        for u in (0.5, 1.5):
            l1, l2 = np.exp(-u * two), np.exp(-u * pair)
            se = math.hypot(l1.std() / math.sqrt(l1.size), l2.std() / math.sqrt(l2.size))
            assert abs(l1.mean() - l2.mean()) <= 3.5 * se

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_paths_match_quadrature_laplace(self, rng, alpha):
        # E exp(-sum_i u_i psi(t_i)) = exp(-nu(F)) on 1M paths; the 1.5 step
        # takes three rejection sub-steps at alpha != 1/2 and one exact
        # inverse-Gaussian draw at alpha = 1/2
        spec = TemperedStableSpec(alpha)
        times = (0.5, 1.0, 2.5)
        vals = sample_paths(rng.substream(40), spec, TimeGrid(times), 1_000_000)
        for entry in (PanelEntry((1.0,), (0.5,)), PanelEntry((0.5, 1.0), (1.0, 2.5)),
                      PanelEntry((2.0, 0.3, 0.7), times)):
            cols = [times.index(t) for t in entry.times]
            lap = np.exp(-(vals[:, cols] @ np.array(entry.alphas)))
            want = math.exp(-levy_functional_quadrature(spec, entry))
            se = lap.std() / math.sqrt(lap.size)
            assert abs(lap.mean() - want) <= 4 * se, (entry, lap.mean(), want)

    def test_monotone(self, rng, grid):
        vals = values_at(rng.substream(6), TemperedStableSpec(alpha=0.4), grid.points, 3000)
        assert np.all(np.diff(vals, axis=1) >= 0)
        p = values_at(rng.substream(7), TemperedStableSpec(alpha=0.4), grid.points, 1)[0]
        assert all(b >= a for a, b in zip(p, p[1:]))


class TestSato:
    def test_marginal_laplace_h1(self, rng):
        # H=1, Exp(1) jumps at unit rate: E e^{-u psi(t)} = (1 + ut)^{-1}
        spec = SatoSpec(H=1.0, bdlp=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0)))
        vals = values_at(rng.substream(8), spec, [1.0], 100_000)[:, 0]
        _laplace_check(vals, lambda u: 1.0 / (1.0 + u))

    def test_self_similarity(self, rng):
        # psi(ct) has the law of c^H psi(t)
        spec = SatoSpec(H=0.5, bdlp=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0)))
        a = values_at(rng.substream(9), spec, [2.0], 80_000)[:, 0]
        b = values_at(rng.substream(10), spec, [1.0], 80_000)[:, 0] * 2.0**0.5
        for u in (0.5, 1.0):
            la, lb = np.exp(-u * a), np.exp(-u * b)
            se = math.hypot(la.std() / math.sqrt(la.size), lb.std() / math.sqrt(lb.size))
            assert abs(la.mean() - lb.mean()) <= 3.5 * se

    def test_monotone_paths(self, rng, grid):
        spec = SatoSpec(H=0.8, bdlp=JumpLawSpec(rate=2.0, law=JumpLaw.gamma(1.5, 2.0)))
        vals = values_at(rng.substream(11), spec, grid.points, 3000)
        assert np.all(np.diff(vals, axis=1) >= -1e-12)
        p = values_at(rng.substream(12), spec, grid.points, 1)[0]
        assert len(p) == len(grid) and np.all(np.diff(p) >= 0)

    def test_exact_tail_law(self):
        # exponential-law paths carry no truncation: at 1M rows the path
        # means match mean_function and the Laplace values exp(-nu(F)) from
        # quadrature, on times down to 0.05 where a truncated tail shows
        # first, all z-scores under one Bonferroni gate
        times = (0.05, 0.3, 1.0, 3.0)
        alphas = [*np.eye(len(times)), np.full(len(times), 0.5)]
        zs = []
        for i, h in enumerate((0.5, 1.0, 1.7)):
            spec = SatoSpec(H=h, bdlp=JumpLawSpec(rate=2.5, law=JumpLaw.exponential(0.4)))
            vals = sample_ensemble(lambda stream, m: values_at(stream, spec, times, m),
                                   RngStream(61).substream(i), 1_000_000)
            for j, t in enumerate(times):
                col = vals[:, j]
                zs.append((col.mean() - mean_function(spec, t)) / (col.std() / math.sqrt(col.size)))
            for alpha in alphas:
                lap = np.exp(-(vals @ alpha))
                want = math.exp(-levy_functional_quadrature(spec, PanelEntry(alpha, times)))
                zs.append((lap.mean() - want) / (lap.std() / math.sqrt(lap.size)))
        assert np.all(np.abs(zs) <= bonferroni_crit(3.0, len(zs))), zs

    def test_required_cutoff_covers_small_times(self):
        spec = SatoSpec(H=2.0, bdlp=JumpLawSpec(rate=1.0, law=JumpLaw.constant(1.0)))
        c = required_cutoff(spec, [0.01, 1.0])
        # jumps born at locations up to c reach back to time exp(-c/H)
        assert math.exp(-c / 2.0) <= 0.01 + 1e-12
        # the neglected tail, kappa e^{-c}, against E psi(t_min) = kappa t_min^H
        assert math.exp(-c) == pytest.approx(_TAIL_FRACTION * 0.01**2.0, rel=1e-12)
        assert required_cutoff(spec, [0.0, 1.0]) == pytest.approx(math.log(1.0 / _TAIL_FRACTION))
        assert required_cutoff(spec, [0.0]) == 0.0


class TestConv:
    def test_mean_matches_kernel_integral(self, rng):
        kern = ExpDecayKernel(decay=1.3)
        spec = ConvSpec(kernel=kern, z=JumpLawSpec(rate=2.0, law=JumpLaw.exponential(0.5)))
        t = 1.7
        vals = values_at(rng.substream(14), spec, [t], 100_000)[:, 0]
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - mean_function(spec, t)) <= 3.5 * se
        assert mean_function(spec, t) == pytest.approx(spec.kappa * kern.integral(t))

    def test_indicator_kernel_laplace(self, rng):
        # f = 1_[0, L] with L >= t makes psi(t) a compound Poisson sum at time t
        spec = ConvSpec(
            kernel=TabulatedKernel((0.0, 5.0), (1.0, 1.0)),
            z=JumpLawSpec(rate=1.0, law=JumpLaw.constant(1.0)),
        )
        vals = values_at(rng.substream(15), spec, [1.0], 100_000)[:, 0]
        _laplace_check(vals, lambda u: math.exp(-(1.0 - math.exp(-u))))

    def test_nonnegative(self, rng, grid):
        spec = ConvSpec(
            kernel=ExpDecayKernel(decay=0.7),
            z=JumpLawSpec(rate=1.5, law=JumpLaw.gamma(0.5, 1.0)),
        )
        vals = values_at(rng.substream(16), spec, grid.points, 3000)
        assert np.all(vals >= 0)
        p = values_at(rng.substream(17), spec, grid.points, 1)[0]
        assert len(p) == len(grid) and np.all(np.isfinite(p) & (p >= 0))

    def test_ts_driver_mean(self, rng):
        spec = ConvSpec(kernel=TabulatedKernel((0.0, 2.0), (1.0, 1.0)),
                        z=TemperedStableSpec(alpha=0.6))
        assert spec.approximate
        vals = values_at(rng.substream(18), spec, [1.0], 50_000)[:, 0]
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - 0.6) <= 4 * se


class TestEnsembles:
    def test_shape(self, rng, grid):
        vals = sample_paths(rng.substream(20), PoissonSpec(rate=1.0), grid, 123)
        assert vals.shape == (123, len(grid))

    def test_deterministic(self, grid):
        a = sample_paths(RngStream(5).substream(0), TemperedStableSpec(0.5), grid, 500)
        b = sample_paths(RngStream(5).substream(0), TemperedStableSpec(0.5), grid, 500)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("family,construct", CHUNK_CASES,
                             ids=[f if c is None else f"{f}-{c.__name__.removesuffix('_values')}"
                                  for f, c in CHUNK_CASES])
    def test_chunk_contract(self, monkeypatch, grid, family, construct):
        # fixed chunks, one substream each, stacked in order: the ensemble
        # does not depend on how many threads draw the chunks
        spec = SAMPLERS[family]

        def fn(stream, m):
            if construct is None:
                return values_at(stream, spec, grid.points, m)
            return construct(stream, spec, 1.0, grid.points, m)

        rng = RngStream(9).substream(1)
        monkeypatch.setattr(processes, "CHUNK", 1_000)
        got = (sample_paths(rng, spec, grid, 2_500) if construct is None
               else sample_ensemble(fn, rng, 2_500))
        want = np.vstack([fn(rng.substream(k), m) for k, m in enumerate((1_000, 1_000, 500))])
        assert np.array_equal(got, want)

    def test_rejects_nonpositive_n(self, rng, grid):
        with pytest.raises(ValueError):
            sample_paths(rng, PoissonSpec(rate=1.0), grid, 0)

    def test_sample_ensemble_chunks_cover_n(self, rng):
        got = sample_ensemble(
            lambda stream, m: np.full((m, 1), m, dtype=float), rng.substream(21), 130_000
        )
        assert got.shape == (130_000, 1)

    @given(n=st.integers(min_value=1, max_value=7))
    @settings(max_examples=10)
    def test_small_ensembles(self, n):
        grid = TimeGrid((1.0,))
        vals = sample_paths(RngStream(42).substream(1), PoissonSpec(rate=1.0), grid, n)
        assert vals.shape == (n, 1)


def _within(seconds, call):
    """call() on a daemon thread, which must finish within `seconds`."""
    got = []
    worker = threading.Thread(target=lambda: got.append(call()), daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), "sample_ensemble did not finish"
    assert got, "sample_ensemble raised"
    return got[0]


class TestPool:
    """Every chunk of every ensemble in one sample_ensemble call is one task
    on a pool of (usable cores - 1) helper threads plus the caller."""

    def test_usable_cores_follows_the_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert processes._usable_cores() == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert processes._usable_cores() == 5

    def test_streams_keep_the_bits(self, monkeypatch, grid, pool_cores):
        # two ensembles, the second drawing two streams per chunk, over three
        # chunks: each is stacked in chunk order from its own substreams
        spec = SAMPLERS["sato"]
        monkeypatch.setattr(processes, "CHUNK", 1_000)
        before = threading.active_count()

        def fn(s, stream, m):
            if s == 0:
                return values_at(stream, spec, grid.points, m)
            out = values_at(stream[0], spec, grid.points, m)
            out += companion_values(stream[1], spec, 1.0, grid.points, m)
            return out

        rng = RngStream(9)
        got = sample_ensemble(fn, (rng.substream(1), (rng.substream(2), rng.substream(3))),
                              2_500)
        sizes = (1_000, 1_000, 500)
        want = [np.vstack([fn(0, rng.substream(1, k), m) for k, m in enumerate(sizes)]),
                np.vstack([fn(1, (rng.substream(2, k), rng.substream(3, k)), m)
                           for k, m in enumerate(sizes)])]
        assert len(got) == 2
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        if pool_cores == 1:
            assert processes._pool is None  # no helper thread starts
            assert threading.active_count() == before
        else:
            assert processes._pool[1] == pool_cores - 1

    def test_first_error_in_task_order(self, pool_cores):
        # chunk 0 raises last in time; its error is the one raised
        def fn(stream, m):
            k = stream.path[-1]
            if k == 0:
                time.sleep(0.2)
            raise ValueError(f"chunk {k}")

        with pytest.raises(ValueError, match="^chunk 0$"):
            sample_ensemble(fn, RngStream(4), 3 * processes.CHUNK)

    def test_each_task_runs_once_under_contention(self, monkeypatch, pool_cores):
        # 500 one-row chunks with a short switch interval: a task taken twice
        # or skipped, or a result stored in the wrong slot, shows
        monkeypatch.setattr(processes, "CHUNK", 1)
        ran = []

        def fn(stream, m):
            ran.append(stream.path[-1])
            return np.full((m, 1), float(stream.path[-1]))

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _within(60, lambda: sample_ensemble(fn, RngStream(1), 500))
        finally:
            sys.setswitchinterval(saved)
        assert sorted(ran) == list(range(500))
        assert np.array_equal(got[:, 0], np.arange(500.0))

    def test_nested_call_in_a_helper_runs_inline(self, monkeypatch, pool_cores):
        monkeypatch.setattr(processes, "CHUNK", 10)
        threads = []

        def inner(stream, m):
            threads.append(threading.current_thread())
            return stream.generator.random((m, 1))

        def outer(stream, m):
            return sample_ensemble(inner, stream, 25)[:m]

        got = _within(60, lambda: sample_ensemble(outer, RngStream(6), 30))
        want = np.vstack([
            np.vstack([RngStream(6).substream(k, j).generator.random((m, 1))
                       for j, m in enumerate((10, 10, 5))])[:10]
            for k in range(3)])
        assert np.array_equal(got, want)
        assert len(threads) == 9
        if pool_cores > 1:
            # called in a helper, every chunk is drawn in that helper
            threads.clear()
            executor, _ = processes._helpers()
            executor.submit(sample_ensemble, inner, RngStream(6), 25).result(timeout=60)
            assert len(threads) == 3 and len(set(threads)) == 1
            assert threads[0] is not threading.current_thread()


class TestMeanFunction:
    @given(
        t=st.floats(min_value=0.01, max_value=10.0),
        rate=st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=20)
    def test_poisson_mean_linear(self, t, rate):
        assert mean_function(PoissonSpec(rate=rate), t) == pytest.approx(rate * t)

    def test_empirical_agreement_all_families(self, rng):
        specs = [
            PoissonSpec(rate=1.2),
            TemperedStableSpec(alpha=0.5),
            SatoSpec(H=1.0, bdlp=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0))),
            ConvSpec(kernel=TabulatedKernel((0.0, 2.0), (1.0, 1.0)),
                     z=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0))),
        ]
        t = 1.5
        for i, spec in enumerate(specs):
            vals = values_at(rng.substream(40, i), spec, [t], 60_000)[:, 0]
            se = vals.std() / math.sqrt(vals.size) + 1e-12
            assert abs(vals.mean() - mean_function(spec, t)) <= 4 * se, type(spec).__name__
