import numpy as np
import pytest

import signalshift as ss
from signalshift.dqn import write_training_log
from signalshift.network import params_to_text
from signalshift.seeding import spawn_rng

from conftest import batch_of, make_toy_flow, obs_row, params_equal
from reference_kernel import train_dqn as reference_train_dqn


def small_config():
    return ss.IntersectionConfig(horizon=300.0, drain=120.0)


def small_flow(seed=3):
    return ss.sample_arrivals([8, 30, 4, 6, 8, 30, 4, 6], 300.0, seed)


# ---------------------------------------------------------------------------
# epsilon_greedy

def queue_reading_network(config):
    """A bound network whose Q-value of phase p is (P-1) times the mean
    queue over p's movements: the embedding reads the queue count, the
    competition layer passes on the scored phase's side alone."""
    params = ss.init_params((1, 1), seed=0)
    params.theta[:] = 0.0
    params.W_e[:] = [[1.0, 0.0]]
    params.W_c[:] = [[1.0, 0.0]]
    params.w_r[:] = 1.0
    return ss.bind(params, config)


def test_epsilon_greedy_argmax():
    cfg = ss.IntersectionConfig()
    queues = np.zeros(8)
    queues[list(cfg.phases[2])] = [3.0, 5.0]
    queues[list(cfg.phases[1])] = [1.0, 6.0]
    obs = obs_row(queues, np.zeros(8))
    assert ss.epsilon_greedy(queue_reading_network(cfg), obs, 0.0, None) == 2


def test_epsilon_greedy_tie_breaks_low():
    cfg = ss.IntersectionConfig()
    params = ss.init_params((4, 4), seed=0)
    params.theta[:] = 0.0
    obs = obs_row(np.arange(8.0), np.zeros(8))
    assert ss.epsilon_greedy(ss.bind(params, cfg), obs, 0.0, None) == 0


def test_epsilon_greedy_uniform_at_one():
    cfg = ss.IntersectionConfig()
    rng = spawn_rng(1)
    queues = np.zeros(8)
    queues[list(cfg.phases[0])] = 9.0
    obs = obs_row(queues, np.zeros(8))
    network = queue_reading_network(cfg)
    assert ss.epsilon_greedy(network, obs, 0.0, None) == 0
    draws = np.array([ss.epsilon_greedy(network, obs, 1.0, rng) for _ in range(10_000)])
    freq = np.bincount(draws, minlength=4) / len(draws)
    assert np.all(np.abs(freq - 0.25) < 0.02)


def test_epsilon_greedy_validation():
    cfg = ss.IntersectionConfig()
    network = queue_reading_network(cfg)
    obs = obs_row(np.zeros(8), np.zeros(8))
    with pytest.raises(ValueError):
        ss.epsilon_greedy(network, obs, 1.5, spawn_rng(0))
    with pytest.raises(ValueError):
        ss.epsilon_greedy(network, obs, -0.1, spawn_rng(0))
    with pytest.raises(ValueError):
        ss.epsilon_greedy(network, obs, 0.5, None)


# ---------------------------------------------------------------------------
# replay memory

def tagged(reward):
    """A transition told apart from the others by its reward."""
    obs = obs_row(np.zeros(8), np.zeros(8))
    return (obs, 0, float(reward), obs)


def test_replay_fifo_eviction():
    mem = ss.ReplayMemory(capacity=3, seed=0)
    for i in range(5):
        mem.push(tagged(i))
    assert len(mem) == 3
    assert sorted(mem._r) == [2, 3, 4]


def test_replay_sample_uniformity_within_3_sigma():
    mem = ss.ReplayMemory(capacity=100, seed=0)
    for i in range(100):
        mem.push(tagged(i))
    draws = 100_000
    counts = np.zeros(100)
    for _ in range(draws // 50):
        for item in mem.sample(50).r:
            counts[int(item)] += 1
    expected = draws / 100
    sigma = np.sqrt(draws * (1 / 100) * (99 / 100))
    assert np.all(np.abs(counts - expected) <= 3 * sigma)


class ListReplay:
    """The list ring buffer the array memory replaced, as a sampling reference."""

    def __init__(self, capacity, seed):
        self.capacity, self.buffer, self.cursor = capacity, [], 0
        self.rng = spawn_rng(seed)

    def push(self, transition):
        if len(self.buffer) < self.capacity:
            self.buffer.append(transition)
        else:
            self.buffer[self.cursor] = transition
            self.cursor = (self.cursor + 1) % self.capacity

    def sample(self, batch_size):
        idx = self.rng.integers(0, len(self.buffer), size=batch_size)
        return [self.buffer[i] for i in idx]


def test_replay_samples_what_a_list_buffer_samples_after_overwrites():
    capacity, pushes = 7, 40          # more than twice round the ring
    mem, reference = ss.ReplayMemory(capacity, seed=5), ListReplay(capacity, seed=5)
    rng = np.random.default_rng(6)

    def obs():
        return obs_row(rng.integers(0, 30, 8), rng.integers(0, 2, 8))

    for i in range(pushes):
        transition = (obs(), int(rng.integers(4)), -float(i), obs())
        mem.push(transition)
        reference.push(transition)
        batch_size = 1 + i % 9
        got, want = mem.sample(batch_size), batch_of(reference.sample(batch_size))
        for name in ss.Batch._fields:
            assert np.array_equal(getattr(got, name), getattr(want, name)), (i, name)
    assert len(mem) == capacity


@pytest.mark.parametrize("capacity", [0, -1])
def test_replay_capacity_must_be_positive(capacity):
    with pytest.raises(ValueError, match="capacity must be positive"):
        ss.ReplayMemory(capacity)


def test_replay_empty_sample_error():
    with pytest.raises(ValueError):
        ss.ReplayMemory(capacity=4, seed=0).sample(2)


# ---------------------------------------------------------------------------
# training loop

def test_zero_episodes_returns_initial_params():
    cfg = small_config()
    hyper = ss.DqnHyper(episodes=0, seed=4)
    result = ss.train_dqn(cfg, [small_flow()], hyper)
    assert params_equal(result.params, ss.init_params((16, 16), seed=4))
    assert result.updates == 0 and result.log == []


def test_training_determinism():
    cfg = small_config()
    hyper = ss.DqnHyper(episodes=3, seed=8)
    a = ss.train_dqn(cfg, [small_flow()], hyper)
    b = ss.train_dqn(cfg, [small_flow()], hyper)
    assert params_to_text(a.params) == params_to_text(b.params)
    assert a.log == b.log


def test_training_log_schema(tmp_path):
    cfg = small_config()
    result = ss.train_dqn(cfg, [small_flow()], ss.DqnHyper(episodes=2, seed=1))
    assert result.updates > 0
    path = tmp_path / "log.csv"
    write_training_log(result.log, path)
    lines = path.read_text().splitlines()
    assert lines[1] == "update,episode,loss,mean_reward,epsilon"
    assert len(lines) == 2 + len(result.log)
    # epsilon decays monotonically along the schedule
    eps = [row.epsilon for row in result.log]
    assert all(a >= b for a, b in zip(eps, eps[1:]))


def test_training_binds_each_parameter_version_once(monkeypatch):
    # the start, each SGD result and each target sync at most: neither the
    # TD step nor an exploit decision binds on its own
    binds = []
    real_bind = ss.network.bind

    def counting_bind(params, config):
        binds.append(params)
        return real_bind(params, config)

    for module in (ss.network, ss.dqn):
        monkeypatch.setattr(module, "bind", counting_bind)
    hyper = ss.DqnHyper(episodes=2, target_sync=7, epsilon_start=0.3, seed=5)
    result = ss.train_dqn(small_config(), [small_flow()], hyper)
    assert result.updates > hyper.target_sync
    assert len(binds) <= result.updates + result.updates // hyper.target_sync + 1


def test_training_equals_the_reference_loop_through_target_syncs():
    # the golden runs stop before the first sync at the default 200; here
    # the target is synced every 7 updates, several times over, while
    # epsilon decays and then holds at its end value
    cfg = small_config()
    flows = [small_flow(3), small_flow(4)]
    hyper = ss.DqnHyper(episodes=4, target_sync=7, batch_size=16, epsilon_fraction=0.5,
                        lr=1e-2, seed=3)
    result = ss.train_dqn(cfg, flows, hyper, dims=(6, 5))
    params, log, updates = reference_train_dqn(cfg, flows, hyper, dims=(6, 5))
    assert result.updates == updates > 10 * hyper.target_sync
    assert params_equal(result.params, params)
    assert repr(result.log) == repr(log)
    eps = [row.epsilon for row in log]
    assert eps[0] < hyper.epsilon_start
    assert eps[-1] == pytest.approx(hyper.epsilon_end) and eps.count(eps[-1]) > 20


def test_training_requires_scenarios():
    with pytest.raises(ValueError):
        ss.train_dqn(small_config(), [], ss.DqnHyper(episodes=1))


def test_trained_policy_prefers_heavy_phase(toy_training):
    # replay the greedy policy against a max-pressure oracle on decision
    # states that actually have queues
    tt = toy_training
    policy = ss.GreedyPolicy(tt.result.params, tt.config)
    state = ss.initial_state(tt.config, tt.flow)
    oracle = ss.MaxPressurePolicy(tt.config)  # stateless: safe to query
    n_phases = tt.config.n_phases
    actions = np.zeros(n_phases, dtype=int)
    oracle_actions = np.zeros(n_phases, dtype=int)
    agree = 0
    total = 0
    heavy_max = 0  # decisions where phase 1 strictly holds the largest queue
    heavy_max_served = 0
    while state.clock < tt.config.horizon:
        obs = ss.observe(state, tt.config)
        action = policy(obs)
        if obs[:, 0].sum() > 0:
            total += 1
            # 90% of *arrivals* use phase 1, but its queue is often empty at
            # decision time while a light movement waits, so the oracle is
            # max-pressure, not "always phase 1"
            best = oracle(obs)
            actions[action] += 1
            oracle_actions[best] += 1
            agree += action == best
            pressures = [obs[list(p), 0].sum()
                         for p in tt.config.phases]
            if pressures[1] > max(pressures[:1] + pressures[2:]):
                heavy_max += 1
                heavy_max_served += action == 1
        state, _ = ss.step(state, action, tt.config)
    counts = (f"agree with max-pressure {agree}/{total}; max-pressure picks "
              f"phase 1 on {oracle_actions[1]}/{total}; greedy actions "
              f"{actions.tolist()}; max-pressure actions "
              f"{oracle_actions.tolist()}; "
              f"phase 1 served {heavy_max_served}/{heavy_max} where its "
              f"queue is strictly largest")
    assert total > 0, counts
    assert agree / total >= 0.8, counts
    assert int(np.argmax(actions)) == 1, counts
    assert heavy_max > 0, counts
    assert heavy_max_served / heavy_max >= 0.8, counts


# ---------------------------------------------------------------------------
# baseline policies

def test_fixed_time_cycles_in_order():
    cfg = ss.IntersectionConfig()
    policy = ss.FixedTimePolicy(cfg)
    obs = ss.observe(ss.initial_state(cfg, ss.FlowSpec([], horizon=10.0)), cfg)
    assert [policy(obs) for _ in range(6)] == [0, 1, 2, 3, 0, 1]


def test_fixed_time_ignores_observations():
    cfg = ss.IntersectionConfig()
    policy = ss.FixedTimePolicy(cfg)
    seq1 = [policy(None) for _ in range(8)]
    policy.reset()
    seq2 = [policy("anything") for _ in range(8)]
    assert seq1 == seq2


def test_fixed_time_slower_than_always_green():
    cfg = ss.IntersectionConfig()
    flow = ss.FlowSpec([(0.0, 0)], horizon=3600.0)
    ft = ss.run_episode(cfg, flow, ss.FixedTimePolicy(cfg))
    always = ss.run_episode(cfg, flow, lambda obs: 0)
    assert ft.avg_travel_time >= always.avg_travel_time


def green(cfg, phase):
    """The green column of an observation taken while `phase` is green."""
    return [m in cfg.phases[phase] for m in range(cfg.n_movements)]


def test_max_pressure_picks_loaded_phase():
    cfg = ss.IntersectionConfig()
    policy = ss.MaxPressurePolicy(cfg)
    counts = np.zeros(8, dtype=int)
    counts[0] = 10
    obs = obs_row(counts, green(cfg, 2))
    assert policy(obs) == 0  # movement 0 belongs to phase 0


def test_max_pressure_tie_keeps_current_phase():
    cfg = ss.IntersectionConfig()
    policy = ss.MaxPressurePolicy(cfg)
    obs = obs_row(np.zeros(8), green(cfg, 2))
    assert policy(obs) == 2
    # engineered two-way tie between phases 0 and 3; current phase 3 wins
    counts = np.zeros(8, dtype=int)
    counts[0], counts[3] = 5, 5
    assert policy(obs_row(counts, green(cfg, 3))) == 3
    # when the current phase is not among the best, lowest index wins
    assert policy(obs_row(counts, green(cfg, 1))) == 0


def test_baseline_ordering_on_skewed_toy(toy_training):
    assert (toy_training.max_pressure.avg_travel_time
            <= toy_training.fixed_time.avg_travel_time)


def test_random_policy_reset_reproduces():
    cfg = ss.IntersectionConfig()
    policy = ss.RandomPolicy(cfg, seed=3)
    policy.reset(7)
    first = [policy(None) for _ in range(20)]
    policy.reset(7)
    assert [policy(None) for _ in range(20)] == first
