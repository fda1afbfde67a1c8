import numpy as np
import pytest

from riseq.agents import (
    AgentHyperparams,
    Batch,
    DdpgAgent,
    Experience,
    EpisodeConfig,
    LOG_ALPHA_MAX,
    ReplayBuffer,
    SacAgent,
    ScheduleState,
    Td3Agent,
    adaptive_schedule,
    exploration_noise_scale,
    load_checkpoint,
    polyak_update,
    run_episode,
    save_checkpoint,
    temperature_gradient,
)
from riseq.channels import ChannelRealization, FadingParams, Geometry
from riseq.env import RisEnv
from riseq.nets import Mlp


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def experience(i, state_dim=2, action_dim=2):
    return Experience(state=np.full(state_dim, float(i)),
                      action=np.zeros(action_dim), reward=float(i),
                      next_state=np.full(state_dim, float(i) + 0.5))


def random_batch(b, state_dim, action_dim, seed=0):
    r = rng(seed)
    return Batch(states=r.uniform(-1, 1, (b, state_dim)),
                 actions=r.uniform(-1, 1, (b, action_dim)),
                 rewards=r.normal(size=b),
                 next_states=r.uniform(-1, 1, (b, state_dim)))


small_hp = AgentHyperparams(hidden_width=8)


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=400)
        for i in range(401):
            buf.push(experience(i))
        assert len(buf) == 400
        rewards = [e.reward for e in buf]
        assert 0.0 not in rewards and rewards[0] == 1.0 and rewards[-1] == 400.0

    def test_single_item_sample(self):
        buf = ReplayBuffer(capacity=4)
        buf.push(experience(7))
        batch = buf.sample(rng(1), 1)
        assert batch.rewards[0] == 7.0 and len(batch) == 1

    def test_batch_size_four(self):
        buf = ReplayBuffer(capacity=400)
        for i in range(10):
            buf.push(experience(i))
        batch = buf.sample(rng(2), 4)
        assert batch.states.shape == (4, 2) and batch.rewards.shape == (4,)

    def test_uniform_sampling(self):
        buf = ReplayBuffer(capacity=10)
        for i in range(10):
            buf.push(experience(i))
        r = rng(3)
        counts = np.zeros(10)
        n = 100_000
        for _ in range(n // 4):
            batch = buf.sample(r, 4)
            for v in batch.rewards:
                counts[int(v)] += 1
        freqs = counts / n
        three_sigma = 3 * np.sqrt(0.1 * 0.9 / n)
        assert np.all(np.abs(freqs - 0.1) <= three_sigma + 1e-3)

    def test_insufficient_data(self):
        buf = ReplayBuffer(capacity=4)
        buf.push(experience(0))
        with pytest.raises(ValueError):
            buf.sample(rng(4), 2)


class TestPolyak:
    def test_tau_one_copies(self):
        a, b = Mlp(rng(5), [3, 4, 2]), Mlp(rng(6), [3, 4, 2])
        polyak_update(a, b, 1.0)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)

    def test_tau_zero_freezes(self):
        a, b = Mlp(rng(7), [3, 4, 2]), Mlp(rng(8), [3, 4, 2])
        before = [p.copy() for p in a.parameters()]
        polyak_update(a, b, 0.0)
        for pa, pb in zip(a.parameters(), before):
            assert np.array_equal(pa, pb)

    def test_scalar_case(self):
        a, b = Mlp(rng(9), [1, 1]), Mlp(rng(10), [1, 1])
        a.weights[0][...] = 0.0
        b.weights[0][...] = 2.0
        polyak_update(a, b, 0.001)
        assert a.weights[0][0, 0] == pytest.approx(0.002, rel=1e-12)

    def test_matches_elementwise_formula(self):
        # several chunks of the flat vectors, the last one partial
        target, online = (Mlp(rng(s), [6, 200, 200, 4], layer_norm=True) for s in (13, 14))
        expected = [0.01 * o + (1 - 0.01) * t
                    for t, o in zip(target.parameters(), online.parameters())]
        polyak_update(target, online, 0.01)
        for got, want in zip(target.parameters(), expected):
            assert np.array_equal(got, want)

    def test_structure_mismatch_rejected(self):
        with pytest.raises(ValueError):
            polyak_update(Mlp(rng(15), [3, 4, 2]), Mlp(rng(16), [3, 5, 2]), 0.1)

    def test_closed_form_after_k_frozen_updates(self):
        target, online = Mlp(rng(11), [3, 4, 2]), Mlp(rng(12), [3, 4, 2])
        t0 = [p.copy() for p in target.parameters()]
        tau, k = 0.01, 100
        for _ in range(k):
            polyak_update(target, online, tau)
        decay = (1 - tau) ** k
        for pt, po, p0 in zip(target.parameters(), online.parameters(), t0):
            expected = (1 - decay) * po + decay * p0
            assert np.max(np.abs(pt - expected)) <= 1e-12


class TestNoiseSchedule:
    def test_initial_scale(self):
        assert exploration_noise_scale(0, 0.3, 0.999) == 0.3

    def test_one_step_decay(self):
        assert exploration_noise_scale(1, 0.3, 0.999) == pytest.approx(0.2997)

    def test_monotone(self):
        scales = [exploration_noise_scale(t, 0.3, 0.999) for t in range(500)]
        assert np.all(np.diff(scales) <= 0)


class TestAdaptiveSchedule:
    def test_trigger(self):
        sched = ScheduleState(actor_lr=1e-3, n_train=4)
        for _ in range(5):
            adaptive_schedule(sched, 0.8)
        assert sched.n_train == 3
        assert sched.reward_target == pytest.approx(0.80)
        assert sched.actor_lr == pytest.approx(0.8e-3)

    def test_below_target_no_change(self):
        sched = ScheduleState(actor_lr=1e-3, n_train=4)
        for _ in range(20):
            adaptive_schedule(sched, 0.5)
        assert sched.n_train == 4 and sched.actor_lr == 1e-3
        assert sched.reward_target == 0.75

    def test_requires_full_window(self):
        sched = ScheduleState(actor_lr=1e-3, n_train=4)
        for _ in range(4):
            adaptive_schedule(sched, 1.0)
        assert sched.n_train == 4

    def test_n_train_floor(self):
        sched = ScheduleState(actor_lr=1e-3, n_train=2)
        for _ in range(200):
            adaptive_schedule(sched, 1.0)
        assert sched.n_train == 1


class TestDdpg:
    def test_gamma_zero_target_is_reward(self):
        agent = DdpgAgent(4, 2, small_hp, rng(13))
        batch = random_batch(4, 4, 2, seed=14)
        target = agent.critic_target_values(batch, discount=0.0)
        assert np.allclose(target, batch.rewards)

    def test_exact_q_gives_zero_critic_loss_and_update(self):
        hp = AgentHyperparams(hidden_width=8, discount=0.0)
        agent = DdpgAgent(4, 2, hp, rng(15))
        batch = random_batch(4, 4, 2, seed=16)
        q = agent.critic.forward(np.concatenate([batch.states, batch.actions], 1))
        batch.rewards = q[:, 0].copy()
        before = [p.copy() for p in agent.critic.parameters()]
        losses = agent.update(batch)
        assert losses["critic_loss"] == 0.0
        # zero gradients with fresh moments leave the critic unchanged
        for pa, pb in zip(agent.critic.parameters(), before):
            assert np.array_equal(pa, pb)

    def test_action_bounds_and_shape(self):
        agent = DdpgAgent(4, 6, small_hp, rng(17))
        r = rng(18)
        for t in (0, 10, 500):
            a = agent.select_action(r.uniform(-1, 1, 4), t, r)
            assert a.shape == (6,) and np.all(np.abs(a) <= 1.0)

    def test_reset_redraws_weights_and_clears(self):
        agent = DdpgAgent(4, 2, small_hp, rng(19))
        agent.buffer.push(experience(0, 4, 2))
        w_before = agent.actor.weights[0].copy()
        agent.schedule.n_train = 1
        agent.reset_episode(rng(20))
        assert len(agent.buffer) == 0
        assert agent.schedule.n_train == small_hp.n_train
        assert not np.array_equal(agent.actor.weights[0], w_before)

    def test_full_update_matches_hand_computation(self):
        # independent longhand replication of one DDPG update: critic
        # regression, actor ascent through the refreshed critic, Adam
        # steps, then Polyak tracking
        hp = AgentHyperparams(hidden_width=2, ddpg_layer_norm=False)
        agent = DdpgAgent(2, 2, hp, rng(21))
        batch = random_batch(4, 2, 2, seed=22)

        def fwd(net, x):
            h = x
            acts = [x]
            for w, b in zip(net.weights[:-1], net.biases[:-1]):
                h = np.maximum(h @ w + b, 0.0)
                acts.append(h)
            z = h @ net.weights[-1] + net.biases[-1]
            return z, acts

        def fwd_tanh(net, x):
            z, acts = fwd(net, x)
            return np.tanh(z), acts

        def back(net, acts, out, dz, tanh_out):
            if tanh_out:
                dz = dz * (1 - out**2)
            grads = []
            for i in range(len(net.weights) - 1, -1, -1):
                grads.insert(0, dz.sum(0))
                grads.insert(0, acts[i].T @ dz)
                if i > 0:
                    dz = (dz @ net.weights[i].T) * (acts[i] > 0)
            dx = dz @ net.weights[0].T
            return grads, dx

        def adam(params, grads, m, v, t, lr):
            out = []
            for p, g, mi, vi in zip(params, grads, m, v):
                mi[...] = 0.9 * mi + 0.1 * g
                vi[...] = 0.999 * vi + 0.001 * g * g
                out.append(p - lr * (mi / (1 - 0.9**t)) / (np.sqrt(vi / (1 - 0.999**t)) + 1e-8))
            return out

        # expected critic update
        a_next, _ = fwd_tanh(agent.actor_target, batch.next_states)
        q_next, _ = fwd(agent.critic_target, np.concatenate([batch.next_states, a_next], 1))
        y = batch.rewards + hp.discount * q_next[:, 0]
        xc = np.concatenate([batch.states, batch.actions], 1)
        q, acts = fwd(agent.critic, xc)
        grads_c, _ = back(agent.critic, acts, q, (2 * (q[:, 0] - y) / 4)[:, None], False)
        mc = [np.zeros_like(p) for p in agent.critic.parameters()]
        vc = [np.zeros_like(p) for p in agent.critic.parameters()]
        new_critic = adam(agent.critic.parameters(), grads_c, mc, vc, 1, hp.critic_lr)

        # expected actor update through the refreshed critic
        class Shim:
            pass
        critic2 = Shim()
        critic2.weights = [new_critic[0], new_critic[2], new_critic[4]]
        critic2.biases = [new_critic[1], new_critic[3], new_critic[5]]
        a_pred, acts_a = fwd_tanh(agent.actor, batch.states)
        xq = np.concatenate([batch.states, a_pred], 1)
        q2, acts_q = fwd(critic2, xq)
        _, dx = back(critic2, acts_q, q2, np.full((4, 1), -1 / 4), False)
        out_a, _ = fwd(agent.actor, batch.states)
        grads_a, _ = back(agent.actor, acts_a, np.tanh(out_a), dx[:, 2:], True)
        ma = [np.zeros_like(p) for p in agent.actor.parameters()]
        va = [np.zeros_like(p) for p in agent.actor.parameters()]
        new_actor = adam(agent.actor.parameters(), grads_a, ma, va, 1, hp.ddpg_actor_lr)

        # expected polyak
        tau = hp.polyak
        exp_ct = [tau * n + (1 - tau) * t for n, t in
                  zip(new_critic, agent.critic_target.parameters())]
        exp_at = [tau * n + (1 - tau) * t for n, t in
                  zip(new_actor, agent.actor_target.parameters())]

        agent.update(batch)
        for got, exp in zip(agent.critic.parameters(), new_critic):
            assert np.max(np.abs(got - exp)) <= 1e-12
        for got, exp in zip(agent.actor.parameters(), new_actor):
            assert np.max(np.abs(got - exp)) <= 1e-12
        for got, exp in zip(agent.critic_target.parameters(), exp_ct):
            assert np.max(np.abs(got - exp)) <= 1e-12
        for got, exp in zip(agent.actor_target.parameters(), exp_at):
            assert np.max(np.abs(got - exp)) <= 1e-12


class TestTd3:
    def test_delayed_update_skips_actor(self):
        agent = Td3Agent(4, 2, small_hp, rng(23))
        batch = random_batch(4, 4, 2, seed=24)
        before = [p.copy() for p in agent.actor.parameters()]
        before_t = [p.copy() for p in agent.critic_targets[0].parameters()]
        agent.update(batch, rng(25), train_iter=1)  # odd: skip
        for pa, pb in zip(agent.actor.parameters(), before):
            assert np.array_equal(pa, pb)
        for pa, pb in zip(agent.critic_targets[0].parameters(), before_t):
            assert np.array_equal(pa, pb)
        agent.update(batch, rng(26), train_iter=2)  # even: move
        moved = any(not np.array_equal(pa, pb)
                    for pa, pb in zip(agent.actor.parameters(), before))
        assert moved

    def test_twin_swap_leaves_targets_unchanged(self):
        agent = Td3Agent(4, 2, small_hp, rng(27))
        batch = random_batch(4, 4, 2, seed=28)
        t1 = agent.critic_target_values(batch, rng(99))
        agent.critics.reverse()
        agent.critic_targets.reverse()
        t2 = agent.critic_target_values(batch, rng(99))
        assert np.allclose(t1, t2)

    def test_smoothing_noise_bounded(self):
        agent = Td3Agent(4, 6, small_hp, rng(29))
        states = rng(30).uniform(-1, 1, (64, 4))
        base = agent.actor_target.forward(states)
        r = rng(31)
        for _ in range(20):
            smoothed = agent.smoothed_target_action(states, r)
            assert np.all(np.abs(smoothed) <= 1.0)
            assert np.max(np.abs(smoothed - base)) <= small_hp.smooth_noise_clip + 1e-12

    def test_identical_twins_reduce_to_single_target(self):
        agent = Td3Agent(4, 2, small_hp, rng(32))
        clone = agent.critics[0].copy()
        agent.critics[1] = clone.copy()
        agent.critic_targets = [agent.critics[0].copy(), agent.critics[0].copy()]
        batch = random_batch(4, 4, 2, seed=33)
        target = agent.critic_target_values(batch, rng(34))
        a2 = agent.smoothed_target_action(batch.next_states, rng(34))
        single = batch.rewards + small_hp.discount * agent.critic_targets[0].forward(
            np.concatenate([batch.next_states, a2], 1))[:, 0]
        assert np.allclose(target, single)

    def test_weights_persist_across_reset(self):
        agent = Td3Agent(4, 2, small_hp, rng(35))
        w = agent.actor.weights[0].copy()
        agent.reset_episode(rng(36))
        assert np.array_equal(agent.actor.weights[0], w)


class TestSac:
    def test_target_entropy_is_minus_action_dim(self):
        agent = SacAgent(4, 200, small_hp, rng(37))
        assert agent.target_entropy == -200.0

    def test_temperature_gradient_sign_and_fixed_point(self):
        assert temperature_gradient(np.array([-1.0, -2.0]), -32.0) < 0
        assert temperature_gradient(np.array([-40.0, -50.0]), -32.0) > 0
        assert temperature_gradient(np.array([-32.0, -32.0]), -32.0) == 0.0

    def test_log_alpha_increases_when_logp_above_target(self):
        hp = AgentHyperparams(hidden_width=8, init_temperature=0.1)
        agent = SacAgent(4, 2, hp, rng(38))
        batch = random_batch(4, 4, 2, seed=39)
        before = agent.log_alpha
        agent.update(batch, rng(40))
        # a 2-dim policy's log pi is far above the -4 target here
        assert agent.log_alpha > before
        assert agent.log_alpha <= LOG_ALPHA_MAX

    def test_alpha_zero_and_identical_twins_reduce_to_ddpg_form(self):
        agent = SacAgent(4, 2, small_hp, rng(41))
        agent.critics[1] = agent.critics[0].copy()
        agent.critic_targets = [agent.critics[0].copy(), agent.critics[0].copy()]
        batch = random_batch(4, 4, 2, seed=42)
        got = agent.critic_target_values(batch, rng(77), alpha=0.0)
        mean, log_std = agent.policy_head(batch.next_states)
        from riseq.nets import squashed_gaussian_sample
        sample = squashed_gaussian_sample(mean, log_std, rng(77))
        expected = batch.rewards + small_hp.discount * agent.critic_targets[0].forward(
            np.concatenate([batch.next_states, sample.action], 1))[:, 0]
        assert np.allclose(got, expected)

    def test_reset_restores_temperature(self):
        agent = SacAgent(4, 2, small_hp, rng(43))
        agent.log_alpha = -3.0
        agent.buffer.push(experience(0, 4, 2))
        agent.reset_episode(rng(44))
        assert agent.alpha == pytest.approx(small_hp.init_temperature)
        assert len(agent.buffer) == 0

    def test_actions_in_bounds(self):
        agent = SacAgent(4, 6, small_hp, rng(45))
        r = rng(46)
        for _ in range(50):
            a = agent.select_action(r.uniform(-1, 1, 4), 0, r)
            assert np.all(np.abs(a) <= 1.0)

    def test_parameters_finite_after_updates(self):
        agent = SacAgent(4, 2, small_hp, rng(47))
        r = rng(48)
        for i in range(50):
            batch = random_batch(4, 4, 2, seed=100 + i)
            batch.rewards = batch.rewards * 100
            agent.update(batch, r)
        for net in (agent.actor, *agent.critics, *agent.critic_targets):
            assert all(np.all(np.isfinite(p)) for p in net.parameters())
        assert np.isfinite(agent.log_alpha)


def static_env(m=2, n_delayed=1, seed=50):
    geom = Geometry(n_elements=m)
    fading = FadingParams(n_delayed=n_delayed)
    env = RisEnv(geom, fading, rng_channels=rng(seed), noise_enabled=False)
    env.new_coherence_block(move_ue=False)
    return env


class FixedAgent:
    """Test double: constant action, no learning."""

    def __init__(self, action):
        self.action = np.asarray(action, dtype=float)
        self.hp = AgentHyperparams(hidden_width=8)
        self.schedule = ScheduleState(actor_lr=1e-3)
        self.buffer = ReplayBuffer(4)

    def select_action(self, state, t, rng):
        return self.action

    def reset_episode(self, rng):
        pass


class TestCheckpoints:
    @pytest.mark.parametrize("cls", [DdpgAgent, Td3Agent, SacAgent])
    def test_round_trip_preserves_behavior(self, cls, tmp_path):
        hp = AgentHyperparams(hidden_width=8)
        agent = cls(4, 2, hp, rng(80))
        for i in range(3):
            agent.update(random_batch(4, 4, 2, seed=200 + i), rng(81 + i))
        agent.schedule.n_train = 2
        path = tmp_path / "agent.ckpt"
        save_checkpoint(agent, path)
        loaded = load_checkpoint(path)
        state = rng(90).uniform(-1, 1, 4)
        a1 = agent.select_action(state, 5, rng(91))
        a2 = loaded.select_action(state, 5, rng(91))
        assert np.array_equal(a1, a2)
        assert loaded.schedule.n_train == 2
        if cls is SacAgent:
            assert loaded.log_alpha == agent.log_alpha
        if cls is Td3Agent:
            assert loaded.train_iter == agent.train_iter
        agent.update(random_batch(4, 4, 2, seed=300), rng(92))
        loaded.update(random_batch(4, 4, 2, seed=300), rng(92))
        for na, nb in zip(agent.actor.parameters(), loaded.actor.parameters()):
            assert np.array_equal(na, nb)

    @pytest.mark.parametrize("cls", [DdpgAgent, Td3Agent, SacAgent])
    def test_update_after_load_moves_weights(self, cls, tmp_path):
        agent = cls(4, 2, AgentHyperparams(hidden_width=8), rng(94))
        path = tmp_path / "agent.ckpt"
        save_checkpoint(agent, path)
        loaded = load_checkpoint(path)
        before = loaded.actor.weights[0].copy()
        loaded.update(random_batch(4, 4, 2, seed=301), rng(95))
        assert not np.array_equal(loaded.actor.weights[0], before)
        assert np.shares_memory(loaded.actor.weights[0], loaded.actor.flat)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        agent = SacAgent(4, 2, AgentHyperparams(hidden_width=8), rng(93))
        path = tmp_path / "agent.ckpt"
        save_checkpoint(agent, path)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestRunEpisode:
    def test_static_policy_constant_trace(self):
        env = static_env()
        agent = FixedAgent([1.0, 0.0, 0.0, 1.0])
        trace = run_episode(agent, env, EpisodeConfig(n_steps=20), rng(51),
                            train=False)
        assert trace.objective_norm.size == 20
        assert np.allclose(trace.objective_norm, trace.objective_norm[0])

    def test_trace_length_default(self):
        env = static_env()
        agent = FixedAgent([1.0, 0.0, 0.0, 1.0])
        trace = run_episode(agent, env, EpisodeConfig(), rng(52), train=False)
        assert trace.objective_norm.size == 2000

    def test_buffer_rewards_scaled_by_100(self):
        env = static_env(seed=53)
        hp = AgentHyperparams(hidden_width=8)
        agent = SacAgent(env.state_dim, env.action_dim, hp, rng(54))
        trace = run_episode(agent, env, EpisodeConfig(n_steps=6), rng(55))
        stored = [e.reward for e in agent.buffer]
        assert np.allclose(stored, 100.0 * trace.objective_norm[:len(stored)])

    def test_training_runs_and_stays_finite(self):
        env = static_env(seed=56)
        hp = AgentHyperparams(hidden_width=8)
        for cls in (DdpgAgent, Td3Agent, SacAgent):
            agent = cls(env.state_dim, env.action_dim, hp, rng(57))
            trace = run_episode(agent, env, EpisodeConfig(n_steps=30), rng(58))
            assert np.all(np.isfinite(trace.objective_norm))
