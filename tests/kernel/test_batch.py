"""The array slot problem: construction, validation, bit-identity of its math.

``gain_matrix`` must equal :func:`repro.core.decomposition.slot_objective`
entry by entry with ``==`` (no tolerance), and ``mm1_delay_matrix``
must match :meth:`repro.simulation.delaymodel.MM1DelayModel.delay`
across every branch: healthy link, saturated link, dead link.
"""

import math

import numpy as np
import pytest

from repro.core.allocation import SlotProblem, UserSlotState
from repro.core.decomposition import skip_objective, slot_objective
from repro.core.qoe import QoEWeights
from repro.errors import ConfigurationError
from repro.kernel import mm1_delay_matrix
from repro.simulation.delaymodel import MM1DelayModel

WEIGHTS = QoEWeights(alpha=0.02, beta=0.5)


def _random_batch(rng, num_users=16, num_levels=5, t=7):
    base = rng.uniform(0.5, 3.0, size=num_users)
    sizes = base[:, None] * 1.5 ** np.arange(num_levels)[None, :]
    caps = rng.uniform(5.0, 100.0, size=num_users)
    return SlotProblem(
        t=t,
        sizes=sizes,
        delays=mm1_delay_matrix(sizes, caps),
        delta=rng.uniform(0.0, 1.0, size=num_users),
        qbar=rng.uniform(0.0, num_levels, size=num_users),
        caps_mbps=caps,
        raw_caps_mbps=caps,
        budget_mbps=float(sizes.sum()),
        weights=WEIGHTS,
    )


class TestMm1DelayMatrix:
    def test_matches_scalar_model_branch_by_branch(self):
        rng = np.random.default_rng(0)
        model = MM1DelayModel()
        rates = rng.uniform(0.0, 30.0, size=(64, 4))
        # Mix healthy, nearly saturated, saturated, and dead links.
        bandwidth = np.concatenate(
            [
                rng.uniform(1.0, 40.0, size=32),
                rng.uniform(0.0, 5.0, size=16),
                np.zeros(16),
            ]
        )
        got = mm1_delay_matrix(rates, bandwidth)
        for n in range(rates.shape[0]):
            for k in range(rates.shape[1]):
                want = model.delay(float(rates[n, k]), float(bandwidth[n]))
                assert got[n, k] == want, (n, k)

    def test_idle_dead_link_is_free(self):
        got = mm1_delay_matrix(np.array([[0.0, 1.0]]), np.array([0.0]))
        assert got[0, 0] == 0.0
        assert got[0, 1] == 100.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            mm1_delay_matrix(np.array([[-1.0]]), np.array([10.0]))

    def test_bad_max_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            mm1_delay_matrix(np.array([[1.0]]), np.array([10.0]), max_delay=0.0)


class TestGainMatrix:
    def test_matches_slot_objective_exactly(self):
        rng = np.random.default_rng(1)
        batch = _random_batch(rng)
        gains = batch.gain_matrix()
        for n in range(batch.num_users):
            for q in range(1, batch.num_levels + 1):
                want = slot_objective(
                    q,
                    batch.t,
                    float(batch.qbar[n]),
                    float(batch.delta[n]),
                    WEIGHTS.alpha,
                    WEIGHTS.beta,
                    float(batch.delays[n, q - 1]),
                )
                assert gains[n, q - 1] == want, (n, q)

    def test_skip_values_match_skip_objective(self):
        rng = np.random.default_rng(2)
        batch = _random_batch(rng)
        skips = batch.skip_values()
        for n in range(batch.num_users):
            assert skips[n] == skip_objective(
                batch.t, float(batch.qbar[n]), WEIGHTS.beta
            )


class TestFromUsers:
    def test_round_trips_a_slot_problem(self):
        model = MM1DelayModel()
        users = tuple(
            UserSlotState(
                sizes=(1.0 + n, 2.0 + n, 4.0 + n),
                delays=model.delays((1.0 + n, 2.0 + n, 4.0 + n), 20.0 + n),
                delta=0.5 + 0.1 * n,
                qbar=float(n),
                cap_mbps=20.0 + n,
            )
            for n in range(3)
        )
        batch = SlotProblem.from_users(
            t=5,
            users=users,
            budget_mbps=9.0,
            weights=WEIGHTS,
            allow_skip=True,
            router_of=(0, 0, 1),
            router_budgets_mbps=(6.0, 6.0),
        )
        assert batch.t == 5
        assert batch.num_users == 3 and batch.num_levels == 3
        assert batch.allow_skip
        for n, user in enumerate(users):
            assert tuple(batch.sizes[n]) == user.sizes
            assert batch.delta[n] == user.delta
            assert batch.qbar[n] == user.qbar
            assert batch.caps_mbps[n] == user.cap_mbps
            assert batch.raw_caps_mbps[n] == user.raw_cap_mbps
            for k, size in enumerate(user.sizes):
                assert batch.delays[n, k] == model.delay(size, 20.0 + n)
        assert tuple(batch.router_of) == (0, 0, 1)
        assert tuple(batch.router_budgets_mbps) == (6.0, 6.0)
        assert batch.nbytes() > 0


class TestValidation:
    def _kwargs(self, **overrides):
        kwargs = dict(
            t=1,
            sizes=np.array([[1.0, 2.0]]),
            delays=np.zeros((1, 2)),
            delta=np.array([0.5]),
            qbar=np.array([0.0]),
            caps_mbps=np.array([10.0]),
            raw_caps_mbps=np.array([10.0]),
            budget_mbps=5.0,
            weights=WEIGHTS,
        )
        kwargs.update(overrides)
        return kwargs

    def test_valid_batch_accepted(self):
        SlotProblem(**self._kwargs())

    @pytest.mark.parametrize(
        "overrides",
        [
            {"t": 0},
            {"sizes": np.array([1.0, 2.0])},
            {"delays": np.zeros((1, 3))},
            {"delta": np.array([0.5, 0.5])},
            {"qbar": np.zeros(2)},
            {"caps_mbps": np.zeros(2)},
            {"budget_mbps": -1.0},
            {"delta": np.array([1.5])},
            {"sizes": np.array([[2.0, 1.0]]), "delays": np.zeros((1, 2))},
            {"router_of": np.array([0])},
            {"router_of": np.array([0, 1]), "router_budgets_mbps": np.array([1.0, 1.0])},
            {"raw_caps_mbps": np.zeros(2)},
            {"qbar": np.array([-0.5])},
            {"caps_mbps": np.array([-1.0])},
            {"raw_caps_mbps": np.array([-1.0])},
            {"sizes": np.zeros((0, 2)), "delays": np.zeros((0, 2))},
            {"sizes": np.zeros((1, 0)), "delays": np.zeros((1, 0))},
        ],
    )
    def test_bad_batch_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            SlotProblem(**self._kwargs(**overrides))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sizes", (1.0, math.nan)),
            ("sizes", (1.0, math.inf)),
            ("delays", (math.nan, 0.1)),
            ("delays", (0.0, math.inf)),
            ("qbar", math.nan),
            ("qbar", math.inf),
            ("cap_mbps", math.nan),
            ("cap_mbps", math.inf),
            ("raw_cap_mbps", math.nan),
            ("raw_cap_mbps", math.inf),
            ("budget_mbps", math.nan),
            ("budget_mbps", math.inf),
        ],
    )
    def test_non_finite_input_refused(self, field, value):
        """A NaN cap would silently lift constraint (6) in every allocator.

        ``size > nan + eps`` is False, so Algorithm 1 once granted two
        seats with NaN caps level 2 under a 10 Mbps budget.  Every
        entry the planner reads must be a finite number.
        """
        user = dict(sizes=(1.0, 6.0), delays=(0.0, 0.1), delta=0.9, qbar=0.5,
                    cap_mbps=8.0)
        budget = 10.0
        if field == "budget_mbps":
            budget = value
        else:
            user[field] = value
        users = (UserSlotState(**user), UserSlotState(**user))
        with pytest.raises(ConfigurationError):
            SlotProblem.from_users(3, users, budget, WEIGHTS)
