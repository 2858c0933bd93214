"""BanditController tests: arms, contexts, rewards, and snapshots.

The online half of the tuning subsystem.  The load-bearing contracts:

* decisions are pure functions of (config, observed snapshots) — same
  seed, same signals, same arm sequence;
* ``state_dict`` → JSON → ``load_state`` → continue is byte-equivalent
  to never having snapshotted (the service-snapshot requirement);
* policy telemetry rides in ``controller_stats`` only for the bandit,
  so pre-existing controllers' payloads stay unchanged.

Also here: regression tests for ``parse_controller_spec`` on the
nested/typed parameters the bandit introduced (JSON list values, seed,
band edges) and the malformed spellings that must fail by name.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.controllers import BanditController, HysteresisController
from repro.control.driver import ControllerDriver
from repro.control.registry import make_controller, parse_controller_spec
from repro.control.signals import ControlSignals, Setpoints
from repro.core.config import ControllerConfig, PruningConfig
from repro.sim.rng import tuning_seed


def signals(
    *,
    now=0.0,
    on_time=0,
    late=0,
    dropped_missed=0,
    dropped_proactive=0,
    mapping_events=1,
    queued=0,
    **kw,
) -> ControlSignals:
    defaults = dict(
        misses_since_last_event=0,
        arrived=0,
        defers=0,
        batch_queued=0,
        running=0,
        sufferage={},
        beta=0.5,
        alpha=0,
    )
    defaults.update(kw)
    return ControlSignals(
        now=now,
        mapping_events=mapping_events,
        on_time=on_time,
        late=late,
        dropped_missed=dropped_missed,
        dropped_proactive=dropped_proactive,
        queued=queued,
        **defaults,
    )


def bandit(**overrides) -> BanditController:
    fields = dict(kind="bandit", window=1, epsilon=0.0)
    fields.update(overrides)
    return BanditController(
        ControllerConfig(**fields), PruningConfig(pruning_threshold=0.5)
    )


def feed(controller, observations):
    """Drive a controller through (on_time, late, queued) cumulative
    observations; returns the emitted (β, α) outputs (None included)."""
    outs = []
    for i, (on_time, late, queued) in enumerate(observations):
        outs.append(
            controller.update(
                signals(now=float(i), on_time=on_time, late=late, queued=queued)
            )
        )
    return outs


class TestArmsAndContexts:
    def test_arm_table_is_betas_times_alphas(self):
        c = bandit(betas=(0.3, 0.7), alphas=(0, 2))
        assert c.arms == ((0.3, 0), (0.3, 2), (0.7, 0), (0.7, 2))

    def test_alpha_falls_back_to_base_toggle(self):
        config = ControllerConfig(kind="bandit", betas=(0.3, 0.7))
        c = BanditController(config, PruningConfig(dropping_toggle=3))
        assert c.arms == ((0.3, 3), (0.7, 3))

    def test_default_beta_grid(self):
        assert bandit().arms == ((0.25, 0), (0.5, 0), (0.75, 0), (0.95, 0))

    def test_context_classification_bands(self):
        c = bandit(miss_bands=(0.05, 0.25), queue_bands=(4, 16))
        assert c.n_contexts == 9
        assert c._classify(0.0, 0) == 0
        assert c._classify(0.05, 0) == 3   # an exact edge lands in the next band
        assert c._classify(0.1, 5) == 4
        assert c._classify(0.9, 99) == 8

    def test_registry_builds_bandit(self):
        c = make_controller(ControllerConfig(kind="bandit"), PruningConfig())
        assert isinstance(c, BanditController)


class TestPolicy:
    def test_window_gates_and_empty_windows_extend(self):
        c = bandit(window=3)
        assert c.update(signals(on_time=1)) is None  # tick 1 < window
        assert c.update(signals(on_time=2)) is None  # tick 2 < window
        # Window reached but no *new* outcomes since the last vote ⇒
        # keep growing instead of voting on no evidence.
        empty = bandit(window=1)
        assert empty.update(signals()) is None
        assert empty.update(signals(on_time=1)) is not None

    def test_ucb_pulls_every_arm_then_exploits(self):
        # Proactive drops grow ``outcomes`` without touching the miss
        # rate, so every decision happens in the same context.
        c = bandit(betas=(0.2, 0.5, 0.8), ucb_c=0.1)
        obs = [
            dict(on_time=1),                       # arm 0 pulled (unpulled first)
            dict(on_time=2),                       # rewards arm 0 with 1.0 → arm 1
            dict(on_time=2, dropped_proactive=1),  # rewards arm 1 with 0.0 → arm 2
            dict(on_time=3, dropped_proactive=1),  # rewards arm 2 with 1.0 → argmax
        ]
        outs = [
            c.update(signals(now=float(i), **fields)) for i, fields in enumerate(obs)
        ]
        assert [out[0] for out in outs[:3]] == [0.2, 0.5, 0.8]
        # Arm 1's value is 0.0, arms 0/2 are 1.0 with equal counts: the
        # tie goes to the lowest index, deterministically.
        assert outs[3] == (0.2, 0)

    def test_greedy_epsilon_zero_is_deterministic(self):
        runs = [
            feed(bandit(betas=(0.2, 0.8)), [(1, 0, 0), (1, 1, 0), (2, 1, 0)])
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_exploration_stream_is_the_named_tuning_stream(self):
        """ε = 1 explores every step; the draws must replay from
        tuning_seed(seed, "bandit") — the D002-sanctioned stream."""
        c = bandit(epsilon=1.0, seed=9, betas=(0.1, 0.5, 0.9))
        outs = feed(c, [(i + 1, 0, 0) for i in range(6)])
        rng = np.random.default_rng(tuning_seed(9, "bandit"))
        expected = []
        for _ in range(6):
            assert rng.random() < 1.0
            expected.append(c.arms[int(rng.integers(len(c.arms)))][0])
        assert [out[0] for out in outs] == expected

    def test_reward_is_windowed_on_time_rate(self):
        c = bandit(betas=(0.2, 0.8))
        # First vote pulls the greedy arm 0 (all values 0.0).
        feed(c, [(2, 0, 0)])
        arm, context = c._arm, c._context
        # Next window: 1 on-time of 3 new outcomes → reward 1/3 to arm 0.
        c.update(signals(now=1.0, on_time=3, late=2))
        assert c.counts[context][arm] == 1
        assert c.values[context][arm] == pytest.approx(1.0 / 3.0)

    def test_rewards_credit_the_context_that_pulled(self):
        c = bandit(betas=(0.2, 0.8), queue_bands=(4,), miss_bands=(0.5,))
        c.update(signals(on_time=1, queued=0))       # pulled in context 0
        c.update(signals(now=1.0, on_time=2, queued=9))  # reward lands in context 0
        assert sum(c.counts[0]) == 1
        # The new pull happened in the queue>4 context.
        assert c._context == 1


class TestSnapshotRestore:
    def observations(self, n=10):
        # A deterministic mixed stream: rising outcomes, varying queue.
        return [(2 * i + 1, i // 2, (3 * i) % 7) for i in range(n)]

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        epsilon=st.sampled_from([0.0, 0.3, 1.0]),
        split=st.integers(min_value=0, max_value=9),
    )
    def test_snapshot_restore_continue_equals_uninterrupted(
        self, seed, epsilon, split
    ):
        """The ISSUE contract: snapshot → JSON → restore → continue is
        equivalent to never snapshotting, at any split point."""
        obs = self.observations()
        straight = bandit(seed=seed, epsilon=epsilon, betas=(0.2, 0.5, 0.8))
        expected = feed(straight, obs)

        first = bandit(seed=seed, epsilon=epsilon, betas=(0.2, 0.5, 0.8))
        head = feed(first, obs[:split])
        frozen = json.loads(json.dumps(first.state_dict()))  # wire round trip
        second = bandit(seed=seed, epsilon=epsilon, betas=(0.2, 0.5, 0.8))
        second.load_state(frozen)
        tail = feed(second, obs[split:])
        assert head + tail == expected
        assert second.state_dict() == straight.state_dict()

    def test_state_dict_is_json_safe(self):
        c = bandit(epsilon=0.5, seed=3)
        feed(c, self.observations(4))
        payload = json.dumps(c.state_dict())
        assert json.loads(payload)["pulls"] == c._pulls

    def test_load_state_rejections(self):
        c = bandit()
        good = c.state_dict()
        with pytest.raises(ValueError, match="unknown bandit state fields"):
            c.load_state({**good, "extra": 1})
        with pytest.raises(ValueError, match="missing bandit state fields"):
            c.load_state({k: v for k, v in good.items() if k != "pulls"})
        other = bandit(betas=(0.2, 0.8))  # 2 arms vs the default 4
        with pytest.raises(ValueError, match="shape mismatch"):
            c.load_state(other.state_dict())


class TestDriverTelemetry:
    def test_policy_stats_ride_in_controller_stats(self):
        c = bandit(betas=(0.2, 0.8), ucb_c=0.5)
        driver = ControllerDriver(c, Setpoints(beta=0.5, alpha=0))
        for i, (on_time, late, queued) in enumerate([(1, 0, 0), (2, 1, 3)]):
            driver.tick(signals(now=float(i), on_time=on_time, late=late, queued=queued))
        stats = driver.stats()
        policy = stats["policy"]
        assert policy["mode"] == "ucb"
        assert policy["arms"] == [[0.2, 0], [0.8, 0]]
        assert sum(policy["pulls"]) == 1  # one completed reward window
        assert policy["contexts_visited"] == 1
        json.dumps(stats)

    def test_epsilon_mode_reported(self):
        c = bandit(epsilon=0.2)
        assert c.policy_stats()["mode"] == "epsilon-greedy"

    def test_preexisting_controllers_have_no_policy_key(self):
        """The sparse contract that keeps golden fixtures byte-identical."""
        c = HysteresisController(
            ControllerConfig(kind="hysteresis"), PruningConfig()
        )
        driver = ControllerDriver(c, Setpoints(beta=0.5, alpha=0))
        driver.tick(signals(on_time=1))
        assert "policy" not in driver.stats()


class TestBanditConfigValidation:
    def test_betas_must_be_ascending_probabilities(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            ControllerConfig(kind="bandit", betas=(0.7, 0.3))
        with pytest.raises(ValueError, match=r"betas must lie in \[0, 1\]"):
            ControllerConfig(kind="bandit", betas=(0.5, 1.5))

    def test_alphas_must_be_ascending_ints(self):
        with pytest.raises(ValueError, match="alphas must be integers"):
            ControllerConfig(kind="bandit", alphas=(0, 1.5))
        with pytest.raises(ValueError, match="strictly ascending"):
            ControllerConfig(kind="bandit", alphas=(2, 2))

    def test_epsilon_and_ucb_ranges(self):
        with pytest.raises(ValueError, match=r"epsilon must be in \[0, 1\]"):
            ControllerConfig(kind="bandit", epsilon=1.5)
        with pytest.raises(ValueError, match="ucb_c must be >= 0"):
            ControllerConfig(kind="bandit", ucb_c=-0.1)

    def test_seed_must_be_integer_not_bool(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            ControllerConfig(kind="bandit", seed=True)
        assert ControllerConfig(kind="bandit", seed=3.0).seed == 3

    def test_band_validation(self):
        with pytest.raises(ValueError, match="miss_bands"):
            ControllerConfig(kind="bandit", miss_bands=())
        with pytest.raises(ValueError, match="queue_bands must be integers"):
            ControllerConfig(kind="bandit", queue_bands=(1.5,))
        with pytest.raises(ValueError, match="queue_bands"):
            ControllerConfig(kind="bandit", queue_bands=(16, 4))


class TestSpecParsingTypedParams:
    """parse_controller_spec regressions for nested/typed values."""

    def test_bandit_spec_with_json_lists(self):
        cfg = parse_controller_spec(
            "bandit:betas=[0.3,0.5,0.7],alphas=[0,2],epsilon=0.2,seed=7"
        )
        assert cfg.kind == "bandit"
        assert cfg.betas == (0.3, 0.5, 0.7)
        assert cfg.alphas == (0, 2)
        assert cfg.epsilon == pytest.approx(0.2)
        assert cfg.seed == 7

    def test_band_edges_and_ucb(self):
        cfg = parse_controller_spec(
            "bandit:miss_bands=[0.1,0.3],queue_bands=[2,8],ucb_c=1.5"
        )
        assert cfg.miss_bands == (0.1, 0.3)
        assert cfg.queue_bands == (2, 8)
        assert cfg.ucb_c == pytest.approx(1.5)

    def test_bare_scalar_becomes_one_element_grid(self):
        cfg = parse_controller_spec("bandit:betas=0.4,alphas=2")
        assert cfg.betas == (0.4,)
        assert cfg.alphas == (2,)

    def test_json_dict_schedule_parameter(self):
        cfg = parse_controller_spec('schedule:schedule={"0":0.25,"120":0.75}')
        assert cfg.schedule == ((0.0, 0.25), (120.0, 0.75))

    def test_commas_inside_brackets_do_not_split_items(self):
        cfg = parse_controller_spec("bandit:betas=[0.3,0.5],window=4")
        assert cfg.betas == (0.3, 0.5)
        assert cfg.window == 4

    def test_malformed_specs_fail_naming_the_key(self):
        with pytest.raises(ValueError, match="betas=.*not valid JSON"):
            parse_controller_spec("bandit:betas=[0.3,oops]")
        with pytest.raises(ValueError, match="alphas=.*expected an integer"):
            parse_controller_spec("bandit:alphas=[0.5]")
        with pytest.raises(ValueError, match="seed=.*expected an integer"):
            parse_controller_spec("bandit:seed=7.5")
        with pytest.raises(ValueError, match="epsilon=.*expected a number"):
            parse_controller_spec("bandit:epsilon=[0.1]")
        with pytest.raises(ValueError, match="unknown controller parameter 'gain'"):
            parse_controller_spec("bandit:gain=2")
        with pytest.raises(ValueError, match="unbalanced brackets"):
            parse_controller_spec("bandit:betas=[0.3,0.5")
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_controller_spec("schedule:schedule={0:0.25}")
        with pytest.raises(ValueError, match="not key=value"):
            parse_controller_spec("bandit:epsilon")
