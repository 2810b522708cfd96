import math

import numpy as np
import pytest

from levyid.core import PanelEntry, PermanentalSpec
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
    sample_total_sojourns,
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
    def test_total_sojourn_mean_is_green_row(self, rng):
        for chain in (CHAIN2, CHAIN3):
            g = green_matrix(chain).matrix
            full = sample_total_sojourns(rng.substream(4, chain.n), chain, 0, 100_000)
            for y in range(chain.n):
                se = full[:, y].std() / math.sqrt(full.shape[0]) + 1e-12
                assert abs(full[:, y].mean() - g[0, y]) <= 4 * se

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


class TestIdentity:
    @pytest.mark.parametrize("chain,a", [(CHAIN1, 0), (CHAIN2, 0), (CHAIN2, 1), (CHAIN3, 1)],
                             ids=["1state", "2state-a0", "2state-a1", "3state-a1"])
    def test_identity_passes(self, chain, a):
        rep = verify_permanental_identity(
            RngStream(400).substream(chain.n, a), chain, a, n=60_000
        )
        assert rep.overall_pass, rep.to_dict()
        assert rep.notes["a"] == a

    def test_default_panel_shape(self):
        panel = default_state_panel(3, 1)
        assert len(panel) == 5  # three singles, one pair, one full vector


class TestLevyFunctional:
    def test_matches_marginal_closed_form(self):
        # single-coordinate functional vs log(1 + alpha g(x, x))
        chain = CHAIN2
        g = green_matrix(chain)
        for x in range(chain.n):
            entry = PanelEntry(alphas=(1.0,), times=(float(x),))
            m = np.ones(chain.n)
            est = levy_functional_permanental(RngStream(401, x), chain, m, entry, n=150_000)
            want = marginal_levy_functional(g, 1.0, x)
            assert abs(est.value - want) <= 4 * est.se, (x, est.value, want)

    def test_three_state_pair_entry(self):
        # no closed form; check against an independent weight vector run
        chain = CHAIN3
        entry = PanelEntry(alphas=(0.7, 1.1), times=(0.0, 2.0))
        e1 = levy_functional_permanental(RngStream(402), chain, np.ones(3), entry, n=150_000)
        e2 = levy_functional_permanental(RngStream(403), chain, np.array([0.2, 1.0, 2.0]), entry, n=150_000)
        assert abs(e1.value - e2.value) <= 4 * math.hypot(e1.se, e2.se)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="m_weights"):
            levy_functional_permanental(RngStream(404), CHAIN2, np.zeros(2), PanelEntry((1.0,), (0.0,)), n=100)

    def test_rejects_bad_state_entry(self):
        with pytest.raises(ValueError, match="state"):
            levy_functional_permanental(RngStream(405), CHAIN2, np.ones(2), PanelEntry((1.0,), (5.0,)), n=100)

    def test_marginal_uses_half_convention(self):
        g = green_matrix(CHAIN1)
        # -log E exp(-alpha psi(0)/2) with psi(0) ~ 2 beta=1 exponential modes
        assert marginal_levy_functional(g, 2.0, 0) == pytest.approx(math.log(2.0))
        assert marginal_levy_functional(g.matrix, 2.0, 0) == pytest.approx(math.log(2.0))
