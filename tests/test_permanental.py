import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from levyid import cli, permanental
from levyid.core import LevyFunctionalPanel, PanelEntry, PermanentalSpec
from levyid.permanental import (
    GreenMatrix,
    conditional_kernel,
    default_state_panel,
    green_matrix,
    levy_functional_permanental,
    local_time_mean,
    marginal_levy_functional,
    permanental_mean,
    sample_local_times,
    sample_permanental,
    verify_permanental_identity,
)
from levyid.randkit import RngStream

CHAIN1 = PermanentalSpec(rates=((0.0,),), kill=(2.0,))
CHAIN2 = PermanentalSpec(rates=((0.0, 1.0), (1.0, 0.0)), kill=(0.5, 0.25))
CHAIN3 = PermanentalSpec(
    rates=((0.0, 1.0, 0.5), (1.0, 0.0, 1.0), (0.5, 1.0, 0.0)),
    kill=(0.25, 0.5, 0.75),
)


class TestKilledChain:
    """PermanentalSpec is the killed chain: it validates the rates itself."""

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            PermanentalSpec(rates=((0.0, 1.0),), kill=(1.0,))
        with pytest.raises(ValueError, match="kill"):
            PermanentalSpec(rates=((0.0,),), kill=(1.0, 2.0))
        with pytest.raises(ValueError, match="diagonal"):
            PermanentalSpec(rates=((1.0,),), kill=(1.0,))
        with pytest.raises(ValueError, match="symmetric"):
            PermanentalSpec(rates=((0.0, 1.0), (2.0, 0.0)), kill=(1.0, 1.0))
        with pytest.raises(ValueError, match="nonnegative"):
            PermanentalSpec(rates=((0.0,),), kill=(-1.0,))

    def test_transient_required(self):
        with pytest.raises(ValueError, match="transient"):
            PermanentalSpec(rates=((0.0, 1.0), (1.0, 0.0)), kill=(0.0, 0.0))

    def test_rate_matrix_and_total_rates(self):
        spec = PermanentalSpec(rates=((0.0, 1.0), (1.0, 0.0)), kill=(0.5, 0.25), beta=1.0)
        assert spec.n == 2
        assert np.array_equal(spec.rate_matrix, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(spec.total_rates, np.array([1.5, 1.25]))


class TestGreenMatrix:
    def test_one_state_closed_form(self):
        # no jumps: g(0, 0) = 1 / kill
        g = green_matrix(CHAIN1)
        assert g.matrix[0, 0] == pytest.approx(0.5)

    def test_two_state_closed_form(self):
        # (Q + K) g = I with Q the generator and K = diag(kill)
        g = green_matrix(CHAIN2).matrix
        m = np.array([[1.5, -1.0], [-1.0, 1.25]])
        assert np.allclose(m @ g, np.eye(2), atol=1e-12)
        assert np.allclose(g, g.T)

    def test_positive_semidefinite(self):
        for chain in (CHAIN1, CHAIN2, CHAIN3):
            w = np.linalg.eigvalsh(green_matrix(chain).matrix)
            assert np.all(w > 0)

    def test_green_matrix_validation(self):
        with pytest.raises(ValueError):
            GreenMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestConditionalKernel:
    def test_row_and_column_vanish(self):
        g = green_matrix(CHAIN3)
        for a in range(3):
            ga = conditional_kernel(g, a).matrix
            assert np.all(ga[a, :] == 0.0)
            assert np.all(ga[:, a] == 0.0)

    def test_psd(self):
        g = green_matrix(CHAIN3)
        for a in range(3):
            w = np.linalg.eigvalsh(conditional_kernel(g, a).matrix)
            assert np.all(w >= -1e-12)

    def test_rejects_bad_state(self):
        g = green_matrix(CHAIN2)
        with pytest.raises(ValueError):
            conditional_kernel(g, 5)


class TestPermanentalSampling:
    def test_marginal_laplace_beta1(self, rng):
        # E e^{-alpha psi(x)/2} = (1 + alpha g(x, x))^{-1} at beta = 1
        g = green_matrix(CHAIN2)
        x = sample_permanental(rng.substream(0), g, 1.0, 100_000)
        for state in (0, 1):
            for al in (0.5, 1.0, 2.0):
                lap = np.exp(-0.5 * al * x[:, state])
                se = lap.std() / math.sqrt(lap.size)
                want = 1.0 / (1.0 + al * g.matrix[state, state])
                assert abs(lap.mean() - want) <= 4 * se

    def test_marginal_laplace_beta_half(self, rng):
        g = green_matrix(CHAIN2)
        x = sample_permanental(rng.substream(1), g, 0.5, 100_000)
        lap = np.exp(-0.5 * 1.0 * x[:, 0])
        se = lap.std() / math.sqrt(lap.size)
        want = (1.0 + g.matrix[0, 0]) ** -0.5
        assert abs(lap.mean() - want) <= 4 * se

    def test_mean_vector(self, rng):
        g = green_matrix(CHAIN3)
        x = sample_permanental(rng.substream(2), g, 1.0, 200_000)
        want = permanental_mean(g, 1.0)
        for j in range(3):
            se = x[:, j].std() / math.sqrt(x.shape[0])
            assert abs(x[:, j].mean() - want[j]) <= 4 * se
        assert np.allclose(want, 2.0 * np.diag(g.matrix))

    def test_rejects_other_beta(self, rng):
        with pytest.raises(ValueError, match="beta"):
            sample_permanental(rng, green_matrix(CHAIN1), 0.7, 10)


class TestChainSimulation:
    def test_pinned_local_time_means(self, rng):
        # E L^a(x) = g(a, x) g(x, a) / g(a, a)
        for chain in (CHAIN2, CHAIN3):
            g = green_matrix(chain)
            for a in range(chain.n):
                pinned = sample_local_times(rng.substream(5, chain.n, a), chain, a, 100_000)
                want = local_time_mean(g, a)
                for y in range(chain.n):
                    se = pinned[:, y].std() / math.sqrt(pinned.shape[0]) + 1e-12
                    assert abs(pinned[:, y].mean() - want[y]) <= 4.5 * se, (chain.n, a, y)

    def test_pinned_positive_at_pin(self, rng):
        pinned = sample_local_times(rng.substream(6), CHAIN2, 0, 5000)
        assert np.all(pinned[:, 0] > 0)

    def test_rejects_bad_state(self, rng):
        with pytest.raises(ValueError):
            sample_local_times(rng, CHAIN2, 7, 10)

    def test_expected_jumps_is_green_weighted_total_rate(self):
        for chain in (CHAIN1, CHAIN2, CHAIN3):
            g = green_matrix(chain).matrix
            for a in range(chain.n):
                want = float(np.sum(g[a] * chain.total_rates))
                assert permanental._expected_jumps(chain, a) == pytest.approx(want, rel=1e-12)

    def test_near_recurrent_chain_rejected_before_drawing(self):
        # about 2e6 expected jumps from state 0, beyond the step budget
        chain = PermanentalSpec(rates=((0.0, 1.0), (1.0, 0.0)), kill=(1e-6, 0.0))
        rng = RngStream(3)
        with pytest.raises(ValueError, match="'kill'"):
            sample_local_times(rng, chain, 0, 10)
        # nothing was drawn: the stream still starts where a fresh one does
        assert rng.generator.random() == RngStream(3).generator.random()

    def test_exhausted_budget_names_kill(self, rng, monkeypatch):
        budget = math.ceil(permanental._expected_jumps(CHAIN2, 0)) + 1
        monkeypatch.setattr(permanental, "_MAX_STEPS", budget)
        with pytest.raises(ValueError, match="'kill'"):
            sample_local_times(rng.substream(7), CHAIN2, 0, 5000)

    def test_chains_dying_on_the_last_allowed_step_return(self, monkeypatch):
        # the one-state chain with kill probability 1 dies at its first
        # sojourn, so a one-step budget holds every path; the draws are those
        # of the full budget
        chain = PermanentalSpec(rates=((0.0,),), kill=(1.0,))
        want = sample_local_times(RngStream(8), chain, 0, 1000)
        monkeypatch.setattr(permanental, "_MAX_STEPS", 1)
        assert np.array_equal(sample_local_times(RngStream(8), chain, 0, 1000), want)
        # 1.25 expected jumps, within a two-step budget, but of 1000 paths
        # some jump twice without dying
        jumper = PermanentalSpec(rates=((0.0, 1.0), (1.0, 0.0)), kill=(4.0, 4.0))
        monkeypatch.setattr(permanental, "_MAX_STEPS", 2)
        with pytest.raises(ValueError, match="'kill'"):
            sample_local_times(RngStream(8), jumper, 0, 1000)


class TestIdentity:
    @pytest.mark.parametrize("chain,a", [(CHAIN1, 0), (CHAIN2, 0), (CHAIN2, 1), (CHAIN3, 1)],
                             ids=["1state", "2state-a0", "2state-a1", "3state-a1"])
    def test_identity_passes(self, chain, a):
        rep = verify_permanental_identity(
            RngStream(400).substream(chain.n, a), chain, a, n=60_000
        )
        assert rep.overall_pass, rep.to_dict()
        assert rep.notes["a"] == a

    def test_passed_local_times_are_its_own_draw(self):
        # the job draws the pinned local times once, on the identity's
        # substream 3, and hands them in: the same check as drawing them there
        rng = RngStream(402)
        local = sample_local_times(rng.substream(3), CHAIN3, 1, 3000)
        got = verify_permanental_identity(rng, CHAIN3, 1, n=3000, local=local)
        want = verify_permanental_identity(rng, CHAIN3, 1, n=3000)
        assert got.to_dict() == want.to_dict()

    def test_default_panel_shape(self):
        panel = default_state_panel(3, 1)
        assert len(panel) == 5  # three singles, one pair, one full vector


def _singles(n):
    return LevyFunctionalPanel(tuple(PanelEntry((1.0,), (float(x),)) for x in range(n)))


class TestLevyFunctional:
    def test_matches_marginal_closed_form(self):
        # single-coordinate functionals vs log(1 + alpha g(x, x)), one draw
        chain = CHAIN2
        g = green_matrix(chain)
        est, se = levy_functional_permanental(RngStream(401), chain, np.ones(chain.n),
                                              _singles(chain.n), n=150_000)
        assert est.shape == se.shape == (chain.n,)
        for x in range(chain.n):
            want = marginal_levy_functional(g, 1.0, x)
            assert abs(est[x] - want) <= 4 * se[x], (x, est[x], want)

    def test_three_state_pair_entry(self):
        # no closed form; check against an independent weight vector run
        chain = CHAIN3
        panel = LevyFunctionalPanel((PanelEntry(alphas=(0.7, 1.1), times=(0.0, 2.0)),))
        (e1,), (se1,) = levy_functional_permanental(RngStream(402), chain, np.ones(3), panel,
                                                    n=150_000)
        (e2,), (se2,) = levy_functional_permanental(RngStream(403), chain,
                                                    np.array([0.2, 1.0, 2.0]), panel, n=150_000)
        assert abs(e1 - e2) <= 4 * math.hypot(se1, se2)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="m_weights"):
            levy_functional_permanental(RngStream(404), CHAIN2, np.zeros(2), _singles(2), n=100)

    def test_rejects_bad_state_entry(self):
        with pytest.raises(ValueError, match="state"):
            levy_functional_permanental(
                RngStream(405), CHAIN2, np.ones(2),
                LevyFunctionalPanel((PanelEntry((1.0,), (5.0,)),)), n=100)

    @pytest.mark.parametrize("m", [[1.0, np.nan, 1.0], [1.0, np.inf, 1.0], [-1.0, 1.0, 1.0]],
                             ids=["nan", "inf", "negative"])
    def test_rejects_weights_that_are_not_finite_and_nonnegative(self, m):
        # a NaN passed the old check and failed later inside the start-state draw
        with pytest.raises(ValueError, match="^m_weights must be finite"):
            levy_functional_permanental(RngStream(406), CHAIN3, np.array(m), _singles(3), n=100)

    @pytest.mark.parametrize("t", [0.25, 1.5, 1.999])
    def test_rejects_fractional_state_entry(self, t):
        # times 1.5 and 1.999 were cast to state 1 and gave its estimate and SE
        with pytest.raises(ValueError, match="^entry times must be state indices$"):
            levy_functional_permanental(
                RngStream(407), CHAIN3, np.ones(3),
                LevyFunctionalPanel((PanelEntry((1.0,), (t,)),)), n=100)

    def test_bad_last_entry_rejected_before_any_draw(self, monkeypatch):
        class NoDraw:
            def substream(self, *tags):
                raise AssertionError("a stream was drawn from before validation")

        chains = []
        monkeypatch.setattr(permanental, "_simulate_local_times",
                            lambda *args: chains.append(args))
        panel = LevyFunctionalPanel((*_singles(3), PanelEntry((1.0, 1.0), (0.0, 3.0))))
        with pytest.raises(ValueError, match="state"):
            levy_functional_permanental(NoDraw(), CHAIN3, np.ones(3), panel, n=100)
        assert chains == []

    def test_marginal_uses_half_convention(self):
        g = green_matrix(CHAIN1)
        # -log E exp(-alpha psi(0)/2) with psi(0) ~ 2 beta=1 exponential modes
        assert marginal_levy_functional(g, 2.0, 0) == pytest.approx(math.log(2.0))

    def test_marginal_nearly_recurrent_chain(self):
        # g(0, 0) = 1e300: log(1 + 2 g(0, 0)) = log(1 + 2e300), exactly and
        # with no warning, however close to recurrent the chain is
        spec = PermanentalSpec(rates=((0.0,),), kill=(1e-300,), beta=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = marginal_levy_functional(green_matrix(spec), 2.0, 0)
        want = math.log1p(2e300)
        assert abs(got - want) <= 1e-12 * want


# the desk suite's permanental jobs: 1, 2 and 3 states
DESK_JOBS = {job["name"]: job["config"] for job in json.loads(
    (Path(__file__).resolve().parents[1] / "configs" / "suite_desk.json").read_text())["jobs"]
    if job["command"] == "permanental"}


@pytest.mark.parametrize("name", DESK_JOBS)
def test_job_runs_one_chain_per_start_state(monkeypatch, name):
    # one chain run from a, whose pinned local times serve the identity and
    # the local-time check, then one run per start state for all the Levy
    # marginals together: 1 + ns
    calls = []
    simulate = permanental._simulate_local_times

    def counting(rng, chain, start, n):
        calls.append(start)
        return simulate(rng, chain, start, n)

    monkeypatch.setattr(permanental, "_simulate_local_times", counting)
    cfg = dict(DESK_JOBS[name], mc={"N": 2000})
    ns = len(cfg["process"]["kill"])
    cli._cmd_permanental(cfg, 5)
    assert len(calls) == 1 + ns
    assert sorted(calls[1:]) == list(range(ns))
