"""Bitwise references for the in-place ensemble kernels.

The samplers and the SE panel write into reused buffers instead of
allocating a copy per step. They must still perform the same floating-point
operations, in the same order, on the same draws, so that every report keeps
its bytes. Each kernel is compared with np.array_equal against the
expression it replaced, kept here as the reference.
"""

import math

import numpy as np
import pytest

from levyid import processes
from levyid.core import (
    LevyFunctionalPanel,
    PanelEntry,
    PoissonSpec,
    TemperedStableSpec,
    TimeGrid,
    WeightedEnsemble,
)
from levyid.identities import hidden_values, visible_values
from levyid.processes import _cumulative, _poisson_values, sample_ensemble
from levyid.randkit import RngStream, sample_positive_stable
from levyid.statlab import laplace_values, weighted_laplace_panel


def _panel_ref(ensemble, panel):
    w = ensemble.weights
    sw = w.sum()
    est, se = np.empty(len(panel)), np.zeros(len(panel))
    for k, entry in enumerate(panel):
        m = ensemble.values[:, ensemble.grid.index_of(entry.times)]
        acc = np.zeros(m.shape[0])
        for j, c in enumerate(np.asarray(entry.alphas, dtype=float)):
            acc += c * m[:, j]
        v = np.exp(-acc)
        est[k] = np.sum(w * v) / sw
        if w.size >= 2:
            r = w * (v - est[k])
            se[k] = math.sqrt(np.sum(r * r)) / sw
    return est, se


def _cumulative_ref(points, increments):
    uniq, inv = np.unique(np.asarray(points, dtype=float), return_inverse=True)
    steps = np.diff(np.concatenate([[0.0], uniq]))
    return np.cumsum(increments(steps), axis=1, dtype=float)[:, inv]


def _poisson_ref(rng, rate, points, n):
    return _cumulative_ref(
        points, lambda steps: rng.generator.poisson(rate * steps, size=(n, steps.size))
    )


def _kanter_ref(rng, alpha, t, size):
    gen = rng.generator
    theta = np.pi * gen.random(size)
    np.clip(theta, 1e-12, np.pi - 1e-12, out=theta)
    w = np.maximum(gen.standard_exponential(size), 1e-300)
    frac = alpha / (1.0 - alpha)
    log_a = (
        frac * np.log(np.sin(alpha * theta))
        + np.log(np.sin((1.0 - alpha) * theta))
        - (1.0 + frac) * np.log(np.sin(theta))
    )
    s = np.exp((log_a - np.log(w)) / frac)
    return t ** (1.0 / alpha) * s


GRID = TimeGrid((0.25, 0.5, 1.0, 2.0))
# multi-time entries with distinct coefficients, some listed out of time
# order, so that the column order of each sum shows in the last bits
PANEL = LevyFunctionalPanel((
    PanelEntry((1.0,), (1.0,)),
    PanelEntry((0.3, 0.7), (0.5, 2.0)),
    PanelEntry((0.9, 0.1, 0.55), (2.0, 0.25, 1.0)),
    PanelEntry((0.123, 0.456, 0.789, 1.011), (0.25, 0.5, 1.0, 2.0)),
    PanelEntry((2.5,), (0.25,)),
    PanelEntry((0.6, 0.2), (1.0, 0.5)),
))


def _values(n, seed=4):
    gen = np.random.default_rng(seed)
    return np.cumsum(gen.exponential(0.7, size=(n, len(GRID))), axis=1)


def _weights(kind, vals):
    if kind == "unit":
        return None
    if kind == "tilted":
        return vals[:, 2] / vals[:, 2].mean()
    # sparse: most paths carry weight zero, as on the thinned ladder's rungs
    w = vals[:, 1].copy()
    w[np.random.default_rng(8).random(w.size) < 0.9] = 0.0
    return w


class TestPanel:
    @pytest.mark.parametrize("kind", ["unit", "tilted", "sparse"])
    def test_matches_reference(self, kind):
        vals = _values(3001)
        ens = WeightedEnsemble(GRID, vals, _weights(kind, vals))
        est, se = weighted_laplace_panel(ens, PANEL)
        ref_est, ref_se = _panel_ref(ens, PANEL)
        assert np.array_equal(est, ref_est)
        assert np.array_equal(se, ref_se)
        assert np.all(se > 0)

    def test_single_path_has_zero_se(self):
        ens = WeightedEnsemble(GRID, _values(1), np.array([2.0]))
        est, se = weighted_laplace_panel(ens, PANEL)
        ref_est, ref_se = _panel_ref(ens, PANEL)
        assert np.array_equal(est, ref_est)
        assert np.array_equal(se, np.zeros(len(PANEL)))
        assert np.array_equal(se, ref_se)

    def test_laplace_values_match_reference_and_leave_the_ensemble(self):
        vals = _values(500)
        ens = WeightedEnsemble(GRID, vals.copy())
        for entry in PANEL:
            m = vals[:, GRID.index_of(entry.times)]
            acc = np.zeros(m.shape[0])
            for j, c in enumerate(entry.alphas):
                acc += c * m[:, j]
            assert np.array_equal(laplace_values(ens, entry), np.exp(-acc))
        assert np.array_equal(ens.values, vals)


def _float_increments(n):
    return lambda steps: np.random.default_rng(6).exponential(1.0, (n, steps.size))


def _int_increments(n):
    return lambda steps: np.random.default_rng(6).poisson(1.5, (n, steps.size))


POINT_SETS = {
    "sorted": (0.25, 0.5, 1.0, 2.0),
    "unsorted": (2.0, 0.5, 1.0, 0.25),
    "repeated": (0.5, 0.5, 1.0, 1.0, 0.0),
    "hidden-augmented": (1.0, 1.0, 1.5, 2.0, 1.0),
}


class TestCumulative:
    @pytest.mark.parametrize("points", POINT_SETS.values(), ids=POINT_SETS.keys())
    @pytest.mark.parametrize("draw", [_float_increments, _int_increments], ids=["float", "int"])
    def test_matches_reference(self, points, draw):
        got = _cumulative(points, draw(257))
        assert np.array_equal(got, _cumulative_ref(points, draw(257)))
        assert got.dtype == float and got.flags.c_contiguous

    @pytest.mark.parametrize("points", [(0.5, 1.0, 1.5, 2.0), (0.3, 0.5, 1.7)],
                             ids=["equal-steps", "unequal-steps"])
    def test_poisson_matches_reference(self, points):
        got = _poisson_values(RngStream(3), 1.3, points, 2000)
        assert np.array_equal(got, _poisson_ref(RngStream(3), 1.3, points, 2000))

    @pytest.mark.parametrize("spec", [PoissonSpec(1.3), TemperedStableSpec(0.6)],
                             ids=["poisson", "tempered-stable"])
    @pytest.mark.parametrize("part", [hidden_values, visible_values],
                             ids=["hidden", "visible"])
    def test_decomposition_parts_match_reference(self, monkeypatch, spec, part):
        points, a = (0.5, 1.0, 1.5, 2.0), 1.0
        got = part(RngStream(12), spec, a, points, 300)
        monkeypatch.setattr(processes, "_cumulative", _cumulative_ref)
        monkeypatch.setattr(processes, "_poisson_values", _poisson_ref)
        assert np.array_equal(got, part(RngStream(12), spec, a, points, 300))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_kanter_matches_reference(alpha):
    got = sample_positive_stable(RngStream(21), alpha, 0.4, 5000)
    assert np.array_equal(got, _kanter_ref(RngStream(21), alpha, 0.4, 5000))


def test_one_chunk_ensemble_is_the_chunk_itself():
    made = []

    def fn(stream, m):
        made.append(stream.generator.random((m, 3)))
        return made[-1]

    got = sample_ensemble(fn, RngStream(2), 1000)
    assert got is made[0]
    ref = np.vstack([RngStream(2).substream(0).generator.random((1000, 3))])
    assert np.array_equal(got, ref)
