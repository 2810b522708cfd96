"""Bitwise references for the in-place ensemble and chain kernels, the
jump-law moments and the per-job quadrature pieces.

The samplers and the SE panels write into reused buffers instead of
allocating a copy per step, and the killed-chain loop steps compacted arrays
of live chains instead of indexing the full matrices. A jump-law moment's
value at a level does not depend on the array it comes in, and a levy-check
job integrates each quadrature piece once. An identity check draws its two
sides' chunks as one batch of tasks on the shared sampler pool, adding each
right-hand-side chunk's two parts inside its task, instead of in three
sequential ensemble calls, and each chunk writes into its own row block of
one preallocated ensemble matrix instead of being stacked; a companion
writes its jump's indicator into its rows and scales it there by the jump
size. The permanental Levy marginals and the sampled
Levy-measure representations are evaluated on one shared draw instead of
one draw per entry, and the Sato sampler sums
each point's kept jumps with the others zeroed instead of gathered. The
tempered-stable rejection sampler keeps its first round's candidates as the
output instead of scattering them, the alpha = 1/2 inverse-Gaussian step
works in place, the tabulated reach sampler inverts each draw by its own
segment's rule only, and the Poisson sampler leaves zero steps
out of its draw and inverts each uniform from a guide table in place of a
full search. They must still perform the same
floating-point operations, in the same order, on the same draws, so that
every report keeps its bytes. Each kernel is compared with np.array_equal
(or == on floats) against the expression it replaced, kept here as the
reference.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from levyid import cli, levymeasure, processes
from levyid.core import (
    ConvSpec,
    ExpDecayKernel,
    JumpLaw,
    JumpLawSpec,
    LevyFunctionalPanel,
    PanelEntry,
    PermanentalSpec,
    PoissonSpec,
    SatoSpec,
    TabulatedKernel,
    TemperedStableSpec,
    TimeGrid,
    WeightedEnsemble,
    _matvec,
    mean_function,
)
from levyid.identities import (
    _tabulated_reach,
    companion_values,
    hidden_values,
    verify_decomposition_identity,
    verify_tilting_identity,
    visible_values,
)
from levyid.levymeasure import levy_functional_mc, levy_functional_quadrature
from levyid.limits import thinned_spec, thinned_values
from levyid.permanental import (
    _MAX_STEPS,
    _simulate_local_times,
    green_matrix,
    levy_functional_permanental,
    sample_local_times,
)
from levyid.processes import (
    _GUIDE,
    _cumulative,
    _invert,
    _jump_set,
    _poisson_table,
    _poisson_values,
    _sato_values,
    required_cutoff,
    sample_ensemble,
    sample_paths,
    values_at,
)
from levyid.randkit import (
    RngStream,
    sample_positive_stable,
    sample_size_biased_jump,
    sample_tempered_stable_increment,
)
from levyid.statlab import (
    bootstrap_mean_se,
    laplace_values,
    weighted_laplace_panel,
)


def _laplace_ref(ensemble, entry):
    m = ensemble.values[:, ensemble.grid.index_of(entry.times)]
    acc = np.zeros(m.shape[0])
    for j, c in enumerate(np.asarray(entry.alphas, dtype=float)):
        acc += c * m[:, j]
    return np.exp(-acc)


def _panel_ref(ensemble, panel):
    w = ensemble.weights
    n = w.size
    est, se = np.empty(len(panel)), np.zeros(len(panel))
    for k, entry in enumerate(panel):
        t = w * _laplace_ref(ensemble, entry)
        est[k] = np.sum(t) / n
        if n >= 2:
            r = t - est[k]
            se[k] = math.sqrt(np.sum(r * r)) / n
    return est, se


def _ratio_panel_ref(ensemble, panel):
    # the former self-normalized ratio and its linearized SE
    w = ensemble.weights
    sw = w.sum()
    est, se = np.empty(len(panel)), np.zeros(len(panel))
    for k, entry in enumerate(panel):
        v = _laplace_ref(ensemble, entry)
        est[k] = np.sum(w * v) / sw
        if w.size >= 2:
            r = w * (v - est[k])
            se[k] = math.sqrt(np.sum(r * r)) / sw
    return est, se


def _centered_ref(x):
    # the mean after a shift by the first value, and the deviations from it
    shift = np.sum(x - x[0]) / x.size
    return x[0] + shift, (x - x[0]) - shift


def _cv_panel_ref(ensemble, panel):
    w = ensemble.weights
    w_mean, wc = _centered_ref(w)
    sww = np.sum(wc * wc)
    est, se = np.empty(len(panel)), np.empty(len(panel))
    for k, entry in enumerate(panel):
        t_mean, tc = _centered_ref(w * _laplace_ref(ensemble, entry))
        beta = np.sum(tc * wc) / sww if sww > 0 else 0.0
        est[k] = t_mean - beta * (w_mean - 1.0)
        r = tc - beta * wc
        se[k] = math.sqrt(np.sum(r * r)) / w.size
    return est, se


def _cumulative_ref(points, increments, out):
    uniq, inv = np.unique(np.asarray(points, dtype=float), return_inverse=True)
    steps = np.diff(np.concatenate([[0.0], uniq]))
    inc = np.empty((out.shape[0], steps.size))
    increments(steps, inc)
    out[...] = np.cumsum(inc, axis=1)[:, inv]
    return out


def _poisson_cdf_ref(mean):
    # the float CDF by the pmf recurrence, cut at the first entry that reaches
    # 1 or that the next term leaves unmoved, its last entry clamped to 1
    pmf = [math.exp(-mean)]
    for k in range(1, 100):
        pmf.append(pmf[-1] * mean / k)
    cdf = np.cumsum(pmf)
    m = next(i for i in range(1, cdf.size) if cdf[i - 1] >= 1.0 or cdf[i] == cdf[i - 1])
    cdf = cdf[:m]
    cdf[-1] = 1.0
    return cdf


def _poisson_ref(rng, rate, points, n, out=None):
    # one uniform per nonzero-mean cell, in one row-major block, inverted
    # column by column by a full search; means from 10 up redraw their
    # column from numpy's sampler after the block, in column order
    def increments(steps, inc):
        lam = rate * steps
        drawn = np.flatnonzero(lam)
        u = rng.generator.random((n, drawn.size))
        inc.fill(0.0)
        for j, col in zip(drawn, u.T):
            if lam[j] >= 10:
                inc[:, j] = rng.generator.poisson(lam[j], n)
            else:
                inc[:, j] = np.searchsorted(_poisson_cdf_ref(lam[j]), col, side="right")

    return _cumulative_ref(points, increments, np.empty((n, len(points))) if out is None else out)


def _block(n, points):
    # an output block whose every cell a sampler must write
    return np.full((n, len(points)), np.nan)


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


def _ts_increment_ref(rng, alpha, dt, size):
    if alpha == 0.5:
        # the Michael-Schucany-Haas inverse-Gaussian step, written out plainly
        gen = rng.generator
        y = 0.5 * gen.standard_normal(size) ** 2
        z = (dt / 2) / (dt + y + np.sqrt(y) * np.sqrt(y + 2 * dt))
        u = gen.random(size)
        return dt * np.where(u * (0.5 + z) > 0.5, 1 / (4 * z), z)
    # every round, the first included, scatters its accepted candidates
    out = np.empty(size)
    pending = np.arange(size)
    while pending.size:
        cand = sample_positive_stable(rng, alpha, dt, pending.size)
        acc = rng.generator.random(pending.size) < np.exp(-cand)
        out[pending[acc]] = cand[acc]
        pending = pending[~acc]
    return out


def _tabulated_reach_ref(gen, kernel, a, n):
    # both inverses on every draw, then a choice by the segment's slope
    ks = np.asarray(kernel.knots)
    vs = np.asarray(kernel.values)
    b = min(a, kernel.support_end)
    keep = ks < b
    ks = np.concatenate([ks[keep], [b]])
    vs = np.concatenate([vs[keep], [float(kernel(b))]])
    seg = 0.5 * (vs[1:] + vs[:-1]) * np.diff(ks)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    q = gen.random(n) * cum[-1]
    i = np.clip(np.searchsorted(cum, q, side="right") - 1, 0, len(seg) - 1)
    r = q - cum[i]
    d = np.diff(ks)[i]
    f0 = vs[i]
    slope = (vs[i + 1] - f0) / d
    flat = np.abs(slope) < 1e-14
    safe_slope = np.where(flat, 1.0, slope)
    h_lin = r / np.maximum(f0, 1e-300)
    h_quad = (-f0 + np.sqrt(np.maximum(f0**2 + 2.0 * safe_slope * r, 0.0))) / safe_slope
    h = np.where(flat, h_lin, h_quad)
    return ks[i] + np.minimum(h, d)


def _local_times_ref(rng, chain, start, n):
    ns = chain.n
    rates = chain.rate_matrix
    total = chain.total_rates
    kill_prob = np.asarray(chain.kill) / total
    jump_cum = np.cumsum(
        np.divide(rates, rates.sum(axis=1, keepdims=True),
                  out=np.zeros_like(rates), where=rates.sum(axis=1, keepdims=True) > 0),
        axis=1,
    )
    gen = rng.generator
    state = np.full(n, start, dtype=int)
    alive = np.arange(n)
    full = np.zeros((n, ns))
    pinned = np.zeros((n, ns))
    for _ in range(_MAX_STEPS):
        if alive.size == 0:
            return pinned
        s = state[alive]
        dt = gen.standard_exponential(alive.size) / total[s]
        full[alive, s] += dt
        at_start = s == start
        if at_start.any():
            rows = alive[at_start]
            pinned[rows] = full[rows]
        u = gen.random(alive.size)
        dies = u < kill_prob[s]
        survivors = alive[~dies]
        if survivors.size:
            v = (u[~dies] - kill_prob[s[~dies]]) / (1.0 - kill_prob[s[~dies]])
            nxt = (v[:, None] > jump_cum[s[~dies]]).sum(axis=1)
            state[survivors] = nxt
        alive = survivors
    raise AssertionError("reference chain exceeded the step budget")


def _permanental_marginal_ref(rng, chain, m, entry, n):
    # one panel entry on its own draw, as each state's marginal was evaluated
    g = green_matrix(chain).matrix
    alphas = np.asarray(entry.alphas)
    states = np.asarray(entry.times, dtype=int)
    starts = rng.substream(1).generator.choice(chain.n, size=n, p=m / m.sum())
    x = np.zeros(n)
    for a in np.unique(starts):
        rows = np.where(starts == a)[0]
        local = sample_local_times(rng.substream(2, int(a)), chain, int(a), rows.size)
        denom = _matvec(local, m)
        bad = denom <= 0
        f = -np.expm1(-0.5 * (2.0 * _matvec(local[:, states], alphas)))
        x[rows] = np.where(bad, 0.0, m.sum() * g[a, a] * f / np.where(bad, 1.0, denom))
    return float(x.mean()), bootstrap_mean_se(x)


def _sato_ref(rng, spec, points, n):
    # each point's column summed over the gathered jumps at or past its
    # threshold; an exponential law stops at the largest threshold c and adds
    # exp(-c) times one Gamma(rate, mean) variate per path, drawn after the
    # jumps, and any other law draws on to required_cutoff
    pts = np.asarray(points, dtype=float)
    out = np.zeros((n, pts.size))
    pos = pts > 0
    if not pos.any():
        return out
    thresholds = np.full(pts.size, np.inf)
    thresholds[pos] = -spec.H * np.log(pts[pos])
    law = spec.bdlp.law
    exact_tail = law.kind == "exponential"
    hi = float(thresholds[pos].max()) if exact_tail else required_cutoff(spec, pts)
    jumps = _jump_set(rng, spec.bdlp, float(thresholds[pos].min()), hi, n)
    tail = np.zeros(n)
    if exact_tail:
        tail = rng.generator.gamma(spec.bdlp.rate, law.params[0], n) * math.exp(-hi)
    counts, s, x = jumps if jumps is not None else (np.zeros(n, int), np.empty(0), np.empty(0))
    rep = np.repeat(np.arange(n), counts)
    v = x * np.exp(-s)
    for j in np.flatnonzero(pos):
        mask = s >= thresholds[j]
        out[:, j] = np.bincount(rep[mask], weights=v[mask], minlength=n) + tail
    return out


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

    @pytest.mark.parametrize("control", [False, True], ids=["plain", "control"])
    def test_explicit_unit_weights_keep_the_bits(self, control):
        # an ensemble built without weights skips the multiply by them; 1 w
        # is w exactly, so explicit unit weights give the same bits. Zero
        # path values make the negated first product -0.0
        vals = _values(3001)
        vals[::7, :2] = 0.0
        implicit = WeightedEnsemble(GRID, vals)
        explicit = WeightedEnsemble(GRID, vals, np.ones(vals.shape[0]))
        ctl = {"control": (vals[:, 2] / vals[:, 2].mean(), 1.0)} if control else {}
        got = weighted_laplace_panel(implicit, PANEL, **ctl)
        want = weighted_laplace_panel(explicit, PANEL, **ctl)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert all(np.array_equal(g, w) for g, w in zip(want, _panel_ref(explicit, PANEL))) \
            or control

    def test_unit_weights_keep_the_ratio_bits(self):
        # sum(v) / n is the former ratio's sum(1 v) / sum(1), and its SE the
        # same operations on v - est, so every unit-weight caller keeps its
        # report bytes
        ens = WeightedEnsemble(GRID, _values(3001))
        est, se = weighted_laplace_panel(ens, PANEL)
        ref_est, ref_se = _ratio_panel_ref(ens, PANEL)
        assert np.array_equal(est, ref_est)
        assert np.array_equal(se, ref_se)

    @pytest.mark.parametrize("kind", ["unit", "tilted"])
    def test_control_variate_matches_reference(self, kind):
        vals = _values(3001)
        ens = WeightedEnsemble(GRID, vals, _weights(kind, vals))
        est, se = weighted_laplace_panel(ens, PANEL, control=(ens.weights, 1.0))
        ref_est, ref_se = _cv_panel_ref(ens, PANEL)
        assert np.array_equal(est, ref_est)
        assert np.array_equal(se, ref_se)
        assert np.all(se > 0)

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


def _float_increments(steps, buf):
    buf[...] = np.random.default_rng(6).exponential(1.0, buf.shape)


def _int_increments(steps, buf):
    buf[...] = np.random.default_rng(6).poisson(1.5, buf.shape)


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
        out = _block(257, points)
        assert _cumulative(points, draw, out) is out
        assert np.array_equal(out, _cumulative_ref(points, draw, _block(257, points)))

    # a zero step draws nothing: zero times, repeated or unsorted, and the
    # points the hidden part used to draw, ending in the pin a = 1
    @pytest.mark.parametrize("points", [(0.5, 1.0, 1.5, 2.0), (0.3, 0.5, 1.7),
                                        (0.0, 0.5, 1.0, 1.5), (0.0, 0.0, 0.0, 0.5, 1.0),
                                        (1.0, 0.0, 0.3, 0.0), (0.0,),
                                        POINT_SETS["repeated"], POINT_SETS["hidden-augmented"]],
                             ids=["equal-steps", "unequal-steps", "zero-then-equal",
                                  "zeros-then-equal", "zeros-unsorted", "only-zero",
                                  "repeated", "hidden-augmented"])
    def test_poisson_matches_reference(self, points):
        got = _poisson_values(RngStream(3), 1.3, points, 2000, _block(2000, points))
        assert np.array_equal(got, _poisson_ref(RngStream(3), 1.3, points, 2000))

    # steps of mean 6, 6 and 12: two table columns around one numpy column
    def test_poisson_large_means_match_reference(self):
        points = (0.5, 1.0, 2.0)
        got = _poisson_values(RngStream(4), 12.0, points, 2000, _block(2000, points))
        assert np.array_equal(got, _poisson_ref(RngStream(4), 12.0, points, 2000))

    def test_poisson_zero_steps_draw_nothing(self):
        a, b = RngStream(8), RngStream(8)
        with_zeros, points = (0.0, 0.5, 0.5, 1.0, 0.0), (0.5, 1.0)
        got = _poisson_values(a, 1.3, with_zeros, 500, _block(500, with_zeros))
        want = _poisson_values(b, 1.3, points, 500, _block(500, points))
        assert np.array_equal(got[:, 1:4], want[:, [0, 0, 1]])
        assert not got[:, [0, 4]].any()
        # both streams stand at the same place: the next draws agree
        assert np.array_equal(a.generator.random(4), b.generator.random(4))
        c = RngStream(8)
        assert not _poisson_values(c, 1.3, (0.0, 0.0), 500, _block(500, (0.0, 0.0))).any()
        assert np.array_equal(c.generator.random(4), RngStream(8).generator.random(4))

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


# tiny, desk-step and odd means across (0, 10), the last just under numpy's
# switch to its own sampler
INVERSION_MEANS = [1e-300, 1e-9, 0.05, 0.325, 0.5, 0.65, 1.3, 2.6, 7.0, 9.99]


@pytest.mark.parametrize("mean", INVERSION_MEANS)
def test_guide_table_matches_full_search(mean):
    cdf, guide = _poisson_table(mean)
    assert np.array_equal(cdf, _poisson_cdf_ref(mean))
    assert np.array_equal(guide, np.searchsorted(cdf, np.arange(_GUIDE) / _GUIDE, side="right"))
    # every knot, its neighbours, every guide boundary and the largest uniform
    knots = cdf[cdf < 1.0]
    u = np.concatenate([RngStream(5).generator.random(50_000), knots,
                        np.nextafter(knots, 0.0), np.nextafter(knots, 1.0),
                        np.arange(_GUIDE) / _GUIDE, [0.0, 1.0 - 2.0**-53]])
    # a strided column of a two-column block, as the sampler passes it
    block = np.stack([u, -u], axis=1)
    _invert(block[:, 0], cdf, guide)
    assert np.array_equal(block[:, 0], np.searchsorted(cdf, u, side="right"))
    assert np.array_equal(block[:, 1], -u)


@pytest.mark.parametrize("size", [1, 5_000, 50_000])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_tempered_stable_increment_matches_reference(alpha, size):
    got = sample_tempered_stable_increment(RngStream(22), alpha, 0.5, size)
    assert np.array_equal(got, _ts_increment_ref(RngStream(22), alpha, 0.5, size))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_kanter_matches_reference(alpha):
    got = sample_positive_stable(RngStream(21), alpha, 0.4, 5000)
    assert np.array_equal(got, _kanter_ref(RngStream(21), alpha, 0.4, 5000))


@pytest.mark.parametrize("knots,values,a", [
    ((0.0, 1.0), (1.0, 1.0), 2.0),                       # flat: an indicator
    ((0.0, 0.5, 2.0), (1.0, 0.2, 0.8), 1.5),             # sloped, cut at a
    ((0.0, 0.5, 1.0, 1.5, 3.0), (0.7, 0.7, 0.0, 0.0, 1.2), 2.5),  # mixed, zero stretch
], ids=["flat", "sloped", "mixed"])
def test_tabulated_reach_matches_reference(knots, values, a):
    kernel = TabulatedKernel(knots, values)
    got = _tabulated_reach(np.random.default_rng(23), kernel, a, 20_000)
    assert np.array_equal(got, _tabulated_reach_ref(np.random.default_rng(23), kernel, a, 20_000))


def test_one_chunk_ensemble_is_the_chunk_itself():
    # with a width, the one chunk's row block is the whole ensemble matrix,
    # filled in place; fn's return value is ignored
    blocks = []

    def fn(stream, out):
        blocks.append(out)
        stream.generator.random(out=out)
        return np.zeros((1, 1))

    got = sample_ensemble(fn, RngStream(2), 1000, 3)
    assert got.shape == (1000, 3) and got.flags.c_contiguous
    assert len(blocks) == 1 and blocks[0].shape == got.shape
    assert np.shares_memory(blocks[0], got)
    ref = np.vstack([RngStream(2).substream(0).generator.random((1000, 3))])
    assert np.array_equal(got, ref)


# every sampler branch that writes into a row block: the cumulative families
# on sorted distinct points (drawn straight into the rows) and on points with
# zeros, repeats or no order (scattered into them), Sato with an exponential
# law (exact tail) and a truncated gamma law, conv with a jump driver and
# with a tempered-stable driver (a gemm into the rows)
BLOCK_SPECS = {
    "poisson": PoissonSpec(1.3),
    "poisson-large-mean": PoissonSpec(14.0),
    "ts-half": TemperedStableSpec(0.5),
    "ts": TemperedStableSpec(0.6),
    "sato-exp": SatoSpec(H=0.5, bdlp=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0))),
    "sato-gamma": SatoSpec(H=0.8, bdlp=JumpLawSpec(rate=2.0, law=JumpLaw.gamma(1.5, 2.0))),
    "conv-jump": ConvSpec(kernel=ExpDecayKernel(decay=0.7),
                          z=JumpLawSpec(rate=1.5, law=JumpLaw.exponential(1.0))),
    "conv-ts": ConvSpec(kernel=ExpDecayKernel(decay=0.7), z=TemperedStableSpec(0.6)),
    # no path draws a jump
    "conv-no-jumps": ConvSpec(kernel=ExpDecayKernel(decay=0.7),
                              z=JumpLawSpec(rate=1e-12, law=JumpLaw.exponential(1.0))),
}
BLOCK_POINTS = {
    "grid": GRID.points,
    "zero-first": (0.0, 0.5, 1.0, 2.0),
    "unsorted": (2.0, 0.5, 1.0, 0.25),
    "repeated": (0.5, 0.5, 1.0, 1.0, 0.0),
    "zeros": (0.0, 0.0),
}


def _blocks_and_stack(spec, points, draw, n):
    # the in-place ensemble and its reference: fresh chunks, stacked
    k = len(points)
    got = sample_ensemble(lambda stream, out: draw(stream, spec, points, len(out), out),
                          RngStream(17), n, k)
    sizes = [min(processes.CHUNK, n - lo) for lo in range(0, n, processes.CHUNK)]
    want = np.vstack([draw(RngStream(17).substream(j), spec, points, m)
                      for j, m in enumerate(sizes)])
    # a block that starts as NaN: every cell must be written, not left as
    # the zero pages a fresh matrix often starts as
    nan_block = np.full((sizes[0], k), np.nan)
    assert draw(RngStream(17).substream(0), spec, points, sizes[0], nan_block) is nan_block
    assert np.array_equal(nan_block, want[:sizes[0]])
    return got, want


@pytest.mark.parametrize("points", BLOCK_POINTS.values(), ids=BLOCK_POINTS.keys())
@pytest.mark.parametrize("family", BLOCK_SPECS)
def test_values_into_blocks_match_stacked_chunks(monkeypatch, pool_cores, family, points):
    monkeypatch.setattr(processes, "CHUNK", 400)
    n = 2 * processes.CHUNK + 7
    got, want = _blocks_and_stack(BLOCK_SPECS[family], points, values_at, n)
    assert np.array_equal(got, want)
    if points == GRID.points:
        grid_got = sample_paths(RngStream(17), BLOCK_SPECS[family], GRID, n)
        assert np.array_equal(grid_got, want)


@pytest.mark.parametrize("family", BLOCK_SPECS)
def test_visible_values_into_blocks_match_stacked_chunks(monkeypatch, pool_cores, family):
    monkeypatch.setattr(processes, "CHUNK", 400)

    def visible(stream, spec, points, m, out=None):
        return visible_values(stream, spec, 1.0, points, m, out)

    got, want = _blocks_and_stack(BLOCK_SPECS[family], GRID.points, visible,
                                  2 * processes.CHUNK + 7)
    assert np.array_equal(got, want)


# a tempered-stable-driven moving average has no thinning rule
@pytest.mark.parametrize("family", [f for f in BLOCK_SPECS if f != "conv-ts"])
def test_thinned_ensembles_match_stacked_chunks(monkeypatch, pool_cores, family):
    # the ladder's rungs, thinned_values per chunk as verify_thinning_limit
    # draws them, against the stacked chunks; the tempered-stable family
    # thins by its clock, so its points are scaled and stay off the grid
    monkeypatch.setattr(processes, "CHUNK", 400)
    spec = BLOCK_SPECS[family]
    n = 2 * processes.CHUNK + 7
    sizes = (400, 400, 7)
    got = sample_ensemble(
        lambda stream, out: thinned_values(stream, spec, 0.3, GRID.points, len(out), out),
        RngStream(19), n, len(GRID))
    want = np.vstack([values_at(RngStream(19).substream(j), thinned_spec(spec, 0.3),
                                0.3 * np.asarray(GRID.points) if family.startswith("ts") else GRID.points, m)
                      for j, m in enumerate(sizes)])
    assert np.array_equal(got, want)


# the companion, the hidden part and the ladder's rungs, each on every
# family it supports (a tempered-stable-driven moving average has no
# thinning rule), filling row blocks and a NaN-filled block as their chunks
PARTS = {
    "companion": lambda stream, spec, points, m, out=None: companion_values(
        stream, spec, 1.0, points, m, out),
    "hidden": lambda stream, spec, points, m, out=None: hidden_values(
        stream, spec, 1.0, points, m, out),
    "thinned": lambda stream, spec, points, m, out=None: thinned_values(
        stream, spec, 0.3, points, m, out),
}
PART_CASES = [(p, f) for p in PARTS for f in BLOCK_SPECS if (p, f) != ("thinned", "conv-ts")]


@pytest.mark.parametrize("part,family", PART_CASES, ids=[f"{p}-{f}" for p, f in PART_CASES])
def test_parts_into_blocks_match_stacked_chunks(monkeypatch, pool_cores, part, family):
    monkeypatch.setattr(processes, "CHUNK", 400)
    got, want = _blocks_and_stack(BLOCK_SPECS[family], GRID.points, PARTS[part],
                                  2 * processes.CHUNK + 7)
    assert np.array_equal(got, want)


def _companion_ref(rng, spec, a, points, n):
    # the jump-born families' companions: a fresh indicator matrix,
    # multiplied by the jump size
    pts = np.asarray(points, dtype=float)
    u = rng.substream(1).generator.random(n)
    if isinstance(spec, PoissonSpec):
        return (pts[None, :] >= (a * u)[:, None]).astype(float)
    if isinstance(spec, TemperedStableSpec):
        g = rng.substream(2).generator.gamma(1.0 - spec.alpha, 1.0, n)
        return g[:, None] * (pts[None, :] >= (a * u)[:, None])
    v = sample_size_biased_jump(rng.substream(2), spec.bdlp.law, n)
    birth = a * u ** (1.0 / spec.H)
    scale = a**spec.H * u * v
    return scale[:, None] * (pts[None, :] >= birth[:, None])


@pytest.mark.parametrize("points", BLOCK_POINTS.values(), ids=BLOCK_POINTS.keys())
@pytest.mark.parametrize("family", ["poisson", "ts-half", "ts", "sato-exp", "sato-gamma"])
def test_companion_matches_reference(family, points):
    spec = BLOCK_SPECS[family]
    got = companion_values(RngStream(23), spec, 1.0, points, 3000, _block(3000, points))
    assert np.array_equal(got, _companion_ref(RngStream(23), spec, 1.0, points, 3000))


def _stack_ref(fn, rng, n):
    sizes = [min(processes.CHUNK, n - lo) for lo in range(0, n, processes.CHUNK)]
    return np.vstack([fn(rng.substream(k), m) for k, m in enumerate(sizes)])


def _tilting_reference(rng, spec, a, grid, panel, n):
    # the three sequential ensembles: tilted psi, psi, then the companion
    ia = int(grid.index_of([a])[0])
    lhs = _stack_ref(lambda s, m: values_at(s, spec, grid.points, m), rng.substream(1), n)
    base = _stack_ref(lambda s, m: values_at(s, spec, grid.points, m), rng.substream(2), n)
    add = _stack_ref(lambda s, m: companion_values(s, spec, a, grid.points, m),
                     rng.substream(3), n)
    base += add
    lhs_ens = WeightedEnsemble(grid, lhs, lhs[:, ia] / mean_function(spec, a))
    return (*weighted_laplace_panel(lhs_ens, panel, control=(lhs_ens.weights, 1.0)),
            *weighted_laplace_panel(WeightedEnsemble(grid, base), panel))


def _decomposition_reference(rng, spec, a, grid, panel, n):
    # the two sequential ensembles, the hidden part then the visible part,
    # against e^{-kappa} from quadrature with SE 0
    hid = _stack_ref(lambda s, m: hidden_values(s, spec, a, grid.points, m),
                     rng.substream(2), n)
    vis = _stack_ref(lambda s, m: visible_values(s, spec, a, grid.points, m),
                     rng.substream(3), n)
    hid += vis
    exact = np.exp(-np.array([levy_functional_quadrature(spec, e) for e in panel]))
    return (*weighted_laplace_panel(WeightedEnsemble(grid, hid), panel),
            exact, np.zeros(len(panel)))


IDENTITY_SPECS = {
    "poisson": PoissonSpec(1.3),
    "tempered-stable": TemperedStableSpec(0.6),
    "sato": SatoSpec(H=0.8, bdlp=JumpLawSpec(rate=2.0, law=JumpLaw.gamma(1.5, 2.0))),
    "conv-indicator": ConvSpec(kernel=TabulatedKernel((0.0, 1.5), (1.0, 1.0)),
                               z=JumpLawSpec(rate=1.5, law=JumpLaw.exponential(1.0))),
    "conv-exp-decay": ConvSpec(kernel=ExpDecayKernel(decay=0.7), z=TemperedStableSpec(0.6)),
}
VERIFIERS = {
    "tilting": (verify_tilting_identity, _tilting_reference),
    "decomposition": (verify_decomposition_identity, _decomposition_reference),
}


@pytest.mark.parametrize("chunk", [50_000, 600], ids=["one-chunk", "two-chunks"])
@pytest.mark.parametrize("identity", VERIFIERS)
@pytest.mark.parametrize("family", IDENTITY_SPECS)
def test_identity_sides_match_reference(monkeypatch, pool_cores, chunk, identity, family):
    monkeypatch.setattr(processes, "CHUNK", chunk)
    verify, reference = VERIFIERS[identity]
    spec = IDENTITY_SPECS[family]
    rep = verify(RngStream(31), spec, 1.0, GRID, PANEL, 1000)
    lhs, lhs_se, rhs, rhs_se = reference(RngStream(31), spec, 1.0, GRID, PANEL, 1000)
    assert np.array_equal(rep.lhs, lhs) and np.array_equal(rep.lhs_se, lhs_se)
    assert np.array_equal(rep.rhs, rhs) and np.array_equal(rep.rhs_se, rhs_se)


@pytest.mark.parametrize("identity", VERIFIERS)
@pytest.mark.parametrize("family", ["sato", "conv-indicator"])
def test_jump_budget_error_matches_reference(pool_cores, identity, family):
    # both chunks of every side exceed the driver-jump budget; the message
    # names the first chunk's 50,000 paths, as the sequential draws raised
    base = IDENTITY_SPECS[family]
    driver = base.bdlp if family == "sato" else base.z
    big = JumpLawSpec(rate=1e5, law=driver.law)
    spec = (SatoSpec(H=base.H, bdlp=big) if family == "sato"
            else ConvSpec(kernel=base.kernel, z=big))
    verify, reference = VERIFIERS[identity]
    with pytest.raises(ValueError) as want:
        reference(RngStream(31), spec, 1.0, GRID, PANEL, 60_000)
    assert "50000 paths expect" in str(want.value)
    with pytest.raises(ValueError) as got:
        verify(RngStream(31), spec, 1.0, GRID, PANEL, 60_000)
    assert str(got.value) == str(want.value)


# the desk's chains: one state with no jump rates, two states, and three
# states whose state 1 is never killed
DESK_CHAINS = {
    "1-state": PermanentalSpec(((0.0,),), (1.0,)),
    "2-state": PermanentalSpec(((0.0, 1.0), (1.0, 0.0)), (0.7, 0.4)),
    "3-state": PermanentalSpec(((0.0, 0.6, 0.2), (0.6, 0.0, 0.5), (0.2, 0.5, 0.0)),
                               (0.4, 0.0, 0.9)),
}
CHAIN_STARTS = [(name, start) for name, chain in DESK_CHAINS.items()
                for start in range(chain.n)]


@pytest.mark.parametrize("name,start", CHAIN_STARTS,
                         ids=[f"{name}-from-{start}" for name, start in CHAIN_STARTS])
@pytest.mark.parametrize("n", [1, 3333, 60_000])
def test_local_times_match_reference(name, start, n):
    chain = DESK_CHAINS[name]
    pinned = _simulate_local_times(RngStream(17), chain, start, n)
    assert np.array_equal(pinned, _local_times_ref(RngStream(17), chain, start, n))
    assert np.all(pinned[:, start] > 0)


def _singles(n):
    return LevyFunctionalPanel(tuple(PanelEntry((1.0,), (float(x),)) for x in range(n)))


def _marginal_panel(n):
    # the job's single-state entries, then a pair and a weighted full vector
    extra = (PanelEntry((0.8, 1.2), (0.0, float(n - 1))),
             PanelEntry(tuple(0.3 + 0.2 * x for x in range(n)), tuple(float(x) for x in range(n))))
    return LevyFunctionalPanel((*_singles(n), *extra))


@pytest.mark.parametrize("name", DESK_CHAINS)
def test_marginal_panel_entries_match_one_entry_calls(name):
    chain = DESK_CHAINS[name]
    m = np.array([1.0, 0.5, 2.0][:chain.n])
    panel = _marginal_panel(chain.n)
    est, se = levy_functional_permanental(RngStream(19), chain, m, panel, 3000)
    assert est.shape == se.shape == (len(panel),)
    for k, entry in enumerate(panel):
        one = levy_functional_permanental(RngStream(19), chain, m,
                                          LevyFunctionalPanel((entry,)), 3000)
        assert (est[k], se[k]) == (one[0][0], one[1][0])
        assert (est[k], se[k]) == _permanental_marginal_ref(RngStream(19), chain, m,
                                                            entry, 3000)


@pytest.mark.parametrize("name", DESK_CHAINS)
def test_job_state0_marginal_matches_per_state_reference(name):
    # the job draws every marginal on the stream state 0's own draw had
    chain = DESK_CHAINS[name]
    rng = RngStream(23).substream(2, 0)
    est, se = levy_functional_permanental(rng, chain, np.ones(chain.n), _singles(chain.n), 5000)
    want = _permanental_marginal_ref(rng, chain, np.ones(chain.n),
                                     PanelEntry((1.0,), (0.0,)), 5000)
    assert (est[0], se[0]) == want


SATO_DESK = SatoSpec(H=0.5, bdlp=JumpLawSpec(rate=1.0, law=JumpLaw.exponential(1.0)))
# a law the sampler truncates at required_cutoff
SATO_GAMMA = SatoSpec(H=0.8, bdlp=JumpLawSpec(rate=1.5, law=JumpLaw.gamma(2.0, 1.5)))
SATO_POINTS = {"sorted": (0.0, 0.5, 1.0, 1.5, 2.0), "unsorted": (1.5, 0.0, 2.0, 0.5, 1.0, 0.25),
               "repeated": (1.0, 2.0, 0.0, 1.0, 0.5, 2.0)}


@pytest.mark.parametrize("points, spec", [
    *(pytest.param(p, SATO_DESK, id=k) for k, p in SATO_POINTS.items()),
    *(pytest.param(p, SATO_GAMMA, id=f"{k}-gamma") for k, p in SATO_POINTS.items()),
])
def test_sato_columns_match_masked_reference(points, spec):
    got = _sato_values(RngStream(29), spec, points, 4000, _block(4000, points))
    assert np.array_equal(got, _sato_ref(RngStream(29), spec, points, 4000))
    assert np.all(got[:, list(points).index(0.0)] == 0.0)


def _one_minus_exp_ref(law, c):
    # the same forms on one plain float through math
    if law.kind == "exponential":
        x = c * law.params[0]
        return x / (1.0 + x)
    if law.kind == "gamma":
        k, r = law.params
        return -math.expm1(-k * math.log1p(c / r))
    if law.kind == "constant":
        return -math.expm1(-c * law.params[0])
    total = 0.0
    for x, p in law.params:
        total += p * -math.expm1(-(c * x))
    return total


JUMP_LAWS = {
    "exponential": JumpLaw.exponential(1.3),
    "gamma-1": JumpLaw.gamma(1.0, 0.7),
    "gamma-2": JumpLaw.gamma(2.0, 1.5),
    "gamma-0.5": JumpLaw.gamma(0.5, 2.0),
    "gamma-1.7": JumpLaw.gamma(1.7, 0.9),
    "constant": JumpLaw.constant(0.8),
    "discrete": JumpLaw.discrete(((0.5, 0.2), (1.0, 0.5), (3.0, 0.3))),
}


@pytest.mark.parametrize("law", JUMP_LAWS.values(), ids=JUMP_LAWS.keys())
def test_one_minus_exp_moment_matches_reference(law):
    # quadrature's levels: a spread of magnitudes down to the Sato substitution's
    # u -> 0, with exact zeros
    gen = np.random.default_rng(5)
    c = np.concatenate([[0.0, 1.0, 1e-300], gen.lognormal(0.0, 3.0, 2000),
                        10.0 ** gen.uniform(-18, -6, 200)])
    got = law.one_minus_exp_moment(c)
    assert got.shape == c.shape
    for i, x in enumerate(c):
        assert got[i] == pytest.approx(_one_minus_exp_ref(law, float(x)), rel=1e-15, abs=0)
        # a level's value does not depend on the array around it, so a
        # piece keeps its bits however the integrator batches its nodes
        assert law.one_minus_exp_moment(c[i : i + 1])[0] == got[i]
        assert law.one_minus_exp_moment(float(x)) == got[i]


def _desk_levy_job(name):
    suite = json.loads((Path(__file__).resolve().parents[1]
                        / "configs" / "suite_desk.json").read_text())
    cfg = next(job["config"] for job in suite["jobs"] if job["name"] == name)
    return cfg, cli.parse_process(cfg["process"]), cli.default_panel(cfg["grid"])


# integrations per job, counted on the integrator: one per piece of the
# Laplace exponent's panel entries, none of which shares a piece with
# another, 10 (Sato) and 13 (conv)
@pytest.mark.parametrize("name,calls", [("sato-levy", 10), ("conv-levy", 13)],
                         ids=["sato-levy", "conv-levy"])
def test_levy_check_integrates_each_piece_once_per_job(monkeypatch, name, calls):
    cfg, _, _ = _desk_levy_job(name)
    cfg = dict(cfg, mc={"N": 2000}, levy={"n": 500})
    counts = []
    integrate = levymeasure._integrate

    def counting_integrate(*args, **kwargs):
        counts[-1] += 1
        return integrate(*args, **kwargs)

    monkeypatch.setattr(levymeasure, "_integrate", counting_integrate)
    for _ in range(2):
        counts.append(0)
        cli._cmd_levy_check(cfg, 3)
    # the second job integrates as much as the first: no piece outlives its job
    assert counts == [calls, calls]


def _levy_mc_ref(rng, spec, entry, n, mixing_mean=1.0, theta=1.0):
    # one panel entry on its own draw, as each representation was evaluated
    times, alphas = np.asarray(entry.times), np.asarray(entry.alphas)
    if isinstance(spec, PoissonSpec):
        u = rng.substream(1).generator.random(n)
        y = mixing_mean * rng.substream(2).generator.standard_exponential(n)
        loc = u * y
        f = -np.expm1(-_matvec(times[None, :] >= loc[:, None], alphas))
        x = spec.rate * y * np.exp(loc / mixing_mean) * f
    elif isinstance(spec, TemperedStableSpec):
        u = rng.substream(1).generator.random(n)
        y = rng.substream(2).generator.standard_exponential(n)
        g = rng.substream(3).generator.gamma(1.0 - spec.alpha, 1.0, n)
        loc = u * y
        level = _matvec(times[None, :] >= loc[:, None], alphas)
        small = g < 1e-12
        ratio = np.where(small, level, -np.expm1(-(g * level)) / np.where(small, 1.0, g))
        x = (spec.alpha * y * np.exp(loc)) * ratio
    elif isinstance(spec, SatoSpec):
        u = rng.substream(1).generator.random(n)
        v = sample_size_biased_jump(rng.substream(2), spec.bdlp.law, n)
        g = rng.substream(3).generator.standard_exponential(n)
        birth = g * u ** (1.0 / spec.H)
        level = _matvec(times[None, :] >= birth[:, None], alphas)
        f = -np.expm1(-(g**spec.H * u * v * level))
        x = spec.bdlp.kappa * np.exp(birth) / (u * v) * f
    else:
        y = (1.0 / theta) * rng.substream(1).generator.standard_exponential(n)
        law = spec.z.law if isinstance(spec.z, JumpLawSpec) else spec.z
        v = sample_size_biased_jump(rng.substream(2), law, n)
        resp = _matvec(spec.kernel(times[None, :] - y[:, None]), alphas)
        x = (spec.kappa / theta) * np.exp(theta * y) / v * -np.expm1(-(v * resp))
    return float(x.mean()), bootstrap_mean_se(x)


# the desk's four levy-check jobs, then Poisson at the second mixing mean
# and conv at a second location rate
LEVY_CASES = [(name, {}) for name in ("poisson-levy", "ts-levy", "sato-levy", "conv-levy")]
LEVY_CASES += [("poisson-levy", {"mixing_mean": 5.0}), ("conv-levy", {"theta": 2.0})]
LEVY_IDS = [name + "".join(f"-{k}={v:g}" for k, v in kw.items()) for name, kw in LEVY_CASES]
# the desk specs' unit rates, means and alpha = 1/2 make some regroupings of
# the prefactor exact, so these non-unit specs are checked as well
ODD_LEVY = {
    "poisson-1.3": PoissonSpec(1.3),
    "ts-0.6": TemperedStableSpec(0.6),
    "sato-gamma": SatoSpec(0.8, JumpLawSpec(1.3, JumpLaw.gamma(2.0, 1.5))),
    "conv-discrete": ConvSpec(ExpDecayKernel(0.9),
                              JumpLawSpec(2.0, JumpLaw.discrete(((0.5, 0.3), (2.0, 0.7))))),
    "conv-ts": ConvSpec(TabulatedKernel((0.0, 1.0), (1.0, 1.0)), TemperedStableSpec(0.5)),
}


def _levy_case(name):
    if name in ODD_LEVY:
        return ODD_LEVY[name], cli.default_panel((0.5, 1.0, 1.5, 2.0))
    return _desk_levy_job(name)[1:]


@pytest.mark.parametrize("name,kwargs", LEVY_CASES + [(name, {"mixing_mean": 2.7, "theta": 1.7})
                                                      for name in ODD_LEVY],
                         ids=LEVY_IDS + list(ODD_LEVY))
def test_levy_mc_panel_entries_match_one_entry_calls(name, kwargs):
    spec, panel = _levy_case(name)
    est, se = levy_functional_mc(RngStream(37), spec, panel, 4000, **kwargs)
    assert est.shape == se.shape == (len(panel),)
    for k, entry in enumerate(panel):
        one = levy_functional_mc(RngStream(37), spec, LevyFunctionalPanel((entry,)), 4000,
                                 **kwargs)
        assert (est[k], se[k]) == (one[0][0], one[1][0])
        assert (est[k], se[k]) == _levy_mc_ref(RngStream(37), spec, entry, 4000, **kwargs)


@pytest.mark.parametrize("name,kwargs", LEVY_CASES, ids=LEVY_IDS)
def test_levy_job_entry0_matches_per_entry_reference(name, kwargs):
    # the job draws every entry on the stream entry 0's own draw had
    _, spec, panel = _desk_levy_job(name)
    rng = RngStream(41).substream(10, 0)
    est, se = levy_functional_mc(rng, spec, panel, 5000, **kwargs)
    assert (est[0], se[0]) == _levy_mc_ref(rng, spec, panel.entries[0], 5000, **kwargs)
