"""Replay buffer and the three actor-critic agents: DDPG, TD3, SAC.

All agents act on the interleaved Re/Im reflection-coefficient vector in
[-1, 1]^(2M) and learn from the normalized pulse objective. Shared
machinery: a FIFO replay buffer sampled uniformly with replacement, Polyak
target tracking, a geometric exploration-noise decay for the deterministic
policies, and the adaptive training schedule that backs off the actor
learning rate and the per-step update count as rewards climb.

Per-episode protocol: the replay buffer, learning-rate schedule, and noise
clock reset every episode; SAC additionally restores its entropy
temperature, and DDPG re-randomizes all of its network weights to escape
local optima. TD3 and SAC keep their weights across episodes.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from .env import EpisodeConfig, RisEnv, action_to_reflection, pulse_objective, sinr_db
from .nets import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    Mlp,
    chunks,
    split_policy_head,
    squashed_gaussian_backward,
    squashed_gaussian_sample,
)


@dataclass
class Experience:
    """One transition; the stored reward is already scaled for buffering."""

    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray


@dataclass
class Batch:
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray

    def __len__(self) -> int:
        return self.states.shape[0]


class ReplayBuffer:
    """Bounded FIFO of experiences with uniform with-replacement sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: deque[Experience] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def push(self, experience: Experience) -> None:
        self._items.append(experience)

    def clear(self) -> None:
        self._items.clear()

    def sample(self, rng: np.random.Generator, batch_size: int) -> Batch:
        if len(self._items) < batch_size:
            raise ValueError("not enough experiences to sample a batch")
        picks = rng.integers(0, len(self._items), batch_size)
        items = [self._items[i] for i in picks]
        return Batch(states=np.stack([e.state for e in items]),
                     actions=np.stack([e.action for e in items]),
                     rewards=np.array([e.reward for e in items], dtype=float),
                     next_states=np.stack([e.next_state for e in items]))


@dataclass(frozen=True)
class AgentHyperparams:
    """Training constants shared by the agents (defaults: the reference setup)."""

    n_train: int = 4
    batch_size: int = 4
    buffer_size: int = 400
    policy_delay: int = 2
    noise_std: float = 0.3
    noise_decay: float = 0.999
    smooth_noise_var: float = 0.3
    smooth_noise_clip: float = 0.5
    critic_lr: float = 1e-3
    ddpg_actor_lr: float = 1e-3
    actor_lr: float = 2e-3
    temperature_lr: float = 1e-3
    polyak: float = 0.001
    discount: float = 0.99
    reward_scale: float = 100.0
    hidden_width: int = 512
    init_std: float = 0.1
    init_temperature: float = 0.75
    ddpg_layer_norm: bool = True

    def __post_init__(self):
        if self.policy_delay < 1:
            raise ValueError("policy_delay must be >= 1")
        if not 0 < self.polyak <= 1:
            raise ValueError("polyak must be in (0, 1]")
        for name in ("n_train", "batch_size", "buffer_size", "hidden_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def polyak_update(target: Mlp, online: Mlp, tau: float) -> None:
    """target <- tau * online + (1 - tau) * target, elementwise."""
    if (target.sizes, target.layer_norm) != (online.sizes, online.layer_norm):
        raise ValueError("networks have different parameter structures")
    t, o = target.flat, online.flat
    keep = 1.0 - tau
    for s, a, _ in chunks(t.size):
        tc = t[s]
        tc *= keep
        np.multiply(o[s], tau, out=a)
        tc += a


def exploration_noise_scale(t: int, noise_std: float, noise_decay: float) -> float:
    """Per-step exploration noise standard deviation: geometric decay."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return noise_std * noise_decay**t


# The entropy target -2M sits below what any distribution bounded in
# [-1, 1]^(2M) can reach (its entropy tops out at 2M * log 2), so the
# temperature gradient almost never changes sign; the log-temperature is
# clamped exactly like the policy's log-std to keep the mechanism a bounded
# exploration pressure instead of a divergence. The ceiling (0.75) is
# calibrated: higher leaves too much late-episode policy noise, lower
# starves fresh coherence blocks of exploration.
LOG_ALPHA_MIN = -20.0
LOG_ALPHA_MAX = float(np.log(0.75))


def temperature_gradient(log_probs, target_entropy: float) -> float:
    """Gradient of the temperature loss -log_alpha * (log pi - target)."""
    return -float(np.mean(np.asarray(log_probs) - target_entropy))


@dataclass
class ScheduleState:
    """Adaptive backoff of the actor learning rate and update count.

    Once the rolling mean of the five most recent rewards clears the
    current target, the actor learning rate shrinks by 0.8x, the per-step
    training count drops by one (never below one), and the target rises by
    0.05. Rewards here are the unscaled normalized objective.
    """

    actor_lr: float
    n_train: int = 4
    reward_target: float = 0.75
    window: deque = field(default_factory=lambda: deque(maxlen=5))


def adaptive_schedule(sched: ScheduleState, reward: float) -> ScheduleState:
    sched.window.append(reward)
    if len(sched.window) == 5 and np.mean(sched.window) > sched.reward_target:
        sched.actor_lr *= 0.8
        sched.n_train = max(sched.n_train - 1, 1)
        sched.reward_target += 0.05
    return sched


def _critic_input(states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    return np.concatenate([states, actions], axis=1)


class DdpgAgent:
    """Deterministic policy gradient with target networks and layer norm."""

    name = "ddpg"

    def __init__(self, state_dim: int, action_dim: int, hp: AgentHyperparams,
                 rng: np.random.Generator):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.hp = hp
        self._build(rng)
        self.schedule = ScheduleState(actor_lr=hp.ddpg_actor_lr, n_train=hp.n_train)
        self.buffer = ReplayBuffer(hp.buffer_size)

    def _build(self, rng: np.random.Generator) -> None:
        hp, h = self.hp, self.hp.hidden_width
        self.actor = Mlp(rng, [self.state_dim, h, h, self.action_dim],
                         std=hp.init_std, layer_norm=hp.ddpg_layer_norm, output="tanh")
        self.critic = Mlp(rng, [self.state_dim + self.action_dim, h, h, 1],
                          std=hp.init_std, layer_norm=hp.ddpg_layer_norm)
        self.actor_target = self.actor.copy()
        self.critic_target = self.critic.copy()

    def reset_episode(self, rng: np.random.Generator) -> None:
        """Fresh buffer and schedule; weights are re-randomized as well."""
        self.buffer.clear()
        self.schedule = ScheduleState(actor_lr=self.hp.ddpg_actor_lr,
                                      n_train=self.hp.n_train)
        self._build(rng)

    def select_action(self, state: np.ndarray, t: int,
                      rng: np.random.Generator) -> np.ndarray:
        scale = exploration_noise_scale(t, self.hp.noise_std, self.hp.noise_decay)
        a = self.actor_target.forward(state)
        return np.clip(a + scale * rng.standard_normal(self.action_dim), -1.0, 1.0)

    def critic_target_values(self, batch: Batch, discount: float | None = None) -> np.ndarray:
        gamma = self.hp.discount if discount is None else discount
        next_a = self.actor_target.forward(batch.next_states)
        q_next = self.critic_target.forward(_critic_input(batch.next_states, next_a))[:, 0]
        return batch.rewards + gamma * q_next

    def update(self, batch: Batch, rng: np.random.Generator | None = None) -> dict:
        b = len(batch)
        target = self.critic_target_values(batch)
        q, cache = self.critic.forward(_critic_input(batch.states, batch.actions),
                                       train=True)
        residual = q[:, 0] - target
        critic_loss = float(np.mean(residual**2))
        grads, _ = self.critic.backward(cache, (2.0 * residual / b)[:, None])
        self.critic.adam_step(grads, self.hp.critic_lr)

        # Ascend the (freshly updated) critic through its action input.
        actions, actor_cache = self.actor.forward(batch.states, train=True)
        q2, q_cache = self.critic.forward(_critic_input(batch.states, actions),
                                          train=True)
        actor_loss = float(-np.mean(q2[:, 0]))
        _, dinput = self.critic.backward(q_cache, np.full((b, 1), -1.0 / b),
                                         input_only=True)
        actor_grads, _ = self.actor.backward(actor_cache, dinput[:, self.state_dim:])
        self.actor.adam_step(actor_grads, self.schedule.actor_lr)

        polyak_update(self.critic_target, self.critic, self.hp.polyak)
        polyak_update(self.actor_target, self.actor, self.hp.polyak)
        return {"critic_loss": critic_loss, "actor_loss": actor_loss}


class Td3Agent:
    """Twin critics, smoothed bootstrap targets, delayed policy updates."""

    name = "td3"

    def __init__(self, state_dim: int, action_dim: int, hp: AgentHyperparams,
                 rng: np.random.Generator):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.hp = hp
        h = hp.hidden_width
        self.actor = Mlp(rng, [state_dim, h, h, action_dim], std=hp.init_std,
                         output="tanh")
        self.critics = [Mlp(rng, [state_dim + action_dim, h, h, 1], std=hp.init_std)
                        for _ in range(2)]
        self.actor_target = self.actor.copy()
        self.critic_targets = [c.copy() for c in self.critics]
        self.schedule = ScheduleState(actor_lr=hp.actor_lr, n_train=hp.n_train)
        self.buffer = ReplayBuffer(hp.buffer_size)
        self.train_iter = 0

    def reset_episode(self, rng: np.random.Generator) -> None:
        """Fresh buffer and schedule; network weights persist."""
        self.buffer.clear()
        self.schedule = ScheduleState(actor_lr=self.hp.actor_lr, n_train=self.hp.n_train)

    def select_action(self, state: np.ndarray, t: int,
                      rng: np.random.Generator) -> np.ndarray:
        scale = exploration_noise_scale(t, self.hp.noise_std, self.hp.noise_decay)
        a = self.actor_target.forward(state)
        return np.clip(a + scale * rng.standard_normal(self.action_dim), -1.0, 1.0)

    def smoothed_target_action(self, next_states: np.ndarray,
                               rng: np.random.Generator) -> np.ndarray:
        """Target action with clipped Gaussian smoothing noise, kept in bounds."""
        a = self.actor_target.forward(next_states)
        noise = rng.standard_normal(a.shape) * np.sqrt(self.hp.smooth_noise_var)
        noise = np.clip(noise, -self.hp.smooth_noise_clip, self.hp.smooth_noise_clip)
        return np.clip(a + noise, -1.0, 1.0)

    def critic_target_values(self, batch: Batch, rng: np.random.Generator,
                             discount: float | None = None) -> np.ndarray:
        gamma = self.hp.discount if discount is None else discount
        next_a = self.smoothed_target_action(batch.next_states, rng)
        x = _critic_input(batch.next_states, next_a)
        q_next = np.minimum(self.critic_targets[0].forward(x)[:, 0],
                            self.critic_targets[1].forward(x)[:, 0])
        return batch.rewards + gamma * q_next

    def update(self, batch: Batch, rng: np.random.Generator,
               train_iter: int | None = None) -> dict:
        """One training iteration; the actor and targets move only when
        the (zero-based) iteration index is a multiple of the delay."""
        it = self.train_iter if train_iter is None else train_iter
        b = len(batch)
        target = self.critic_target_values(batch, rng)
        losses = {}
        x = _critic_input(batch.states, batch.actions)
        for i, critic in enumerate(self.critics):
            q, cache = critic.forward(x, train=True)
            residual = q[:, 0] - target
            losses[f"critic{i + 1}_loss"] = float(np.mean(residual**2))
            grads, _ = critic.backward(cache, (2.0 * residual / b)[:, None])
            critic.adam_step(grads, self.hp.critic_lr)

        if it % self.hp.policy_delay == 0:
            actions, actor_cache = self.actor.forward(batch.states, train=True)
            q, q_cache = self.critics[0].forward(_critic_input(batch.states, actions),
                                                 train=True)
            losses["actor_loss"] = float(-np.mean(q[:, 0]))
            _, dinput = self.critics[0].backward(q_cache, np.full((b, 1), -1.0 / b),
                                                 input_only=True)
            actor_grads, _ = self.actor.backward(actor_cache, dinput[:, self.state_dim:])
            self.actor.adam_step(actor_grads, self.schedule.actor_lr)
            for ct, c in zip(self.critic_targets, self.critics):
                polyak_update(ct, c, self.hp.polyak)
            polyak_update(self.actor_target, self.actor, self.hp.polyak)

        if train_iter is None:
            self.train_iter += 1
        return losses


class SacAgent:
    """Soft actor-critic with twin critics and automatic temperature tuning."""

    name = "sac"

    def __init__(self, state_dim: int, action_dim: int, hp: AgentHyperparams,
                 rng: np.random.Generator):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.hp = hp
        h = hp.hidden_width
        self.actor = Mlp(rng, [state_dim, h, h, 2 * action_dim], std=hp.init_std)
        self.critics = [Mlp(rng, [state_dim + action_dim, h, h, 1], std=hp.init_std)
                        for _ in range(2)]
        self.critic_targets = [c.copy() for c in self.critics]
        self.log_alpha = float(np.log(hp.init_temperature))
        self.schedule = ScheduleState(actor_lr=hp.actor_lr, n_train=hp.n_train)
        self.buffer = ReplayBuffer(hp.buffer_size)

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha))

    @property
    def target_entropy(self) -> float:
        """Entropy target: minus the action dimension."""
        return -float(self.action_dim)

    def reset_episode(self, rng: np.random.Generator) -> None:
        """Fresh buffer, schedule, and temperature; weights persist."""
        self.buffer.clear()
        self.schedule = ScheduleState(actor_lr=self.hp.actor_lr, n_train=self.hp.n_train)
        self.log_alpha = float(np.log(self.hp.init_temperature))

    def policy_head(self, states: np.ndarray, train: bool = False):
        if train:
            out, cache = self.actor.forward(states, train=True)
            mean, log_std = split_policy_head(out)
            return mean, log_std, out, cache
        mean, log_std = split_policy_head(self.actor.forward(states))
        return mean, log_std

    def select_action(self, state: np.ndarray, t: int,
                      rng: np.random.Generator) -> np.ndarray:
        mean, log_std = self.policy_head(state[None, :])
        sample = squashed_gaussian_sample(mean, log_std, rng)
        return np.clip(sample.action[0], -1.0, 1.0)

    def critic_target_values(self, batch: Batch, rng: np.random.Generator,
                             discount: float | None = None,
                             alpha: float | None = None) -> np.ndarray:
        gamma = self.hp.discount if discount is None else discount
        a = self.alpha if alpha is None else alpha
        mean, log_std = self.policy_head(batch.next_states)
        sample = squashed_gaussian_sample(mean, log_std, rng)
        x = _critic_input(batch.next_states, sample.action)
        q_next = np.minimum(self.critic_targets[0].forward(x)[:, 0],
                            self.critic_targets[1].forward(x)[:, 0])
        return batch.rewards + gamma * (q_next - a * sample.log_prob)

    def update(self, batch: Batch, rng: np.random.Generator) -> dict:
        b = len(batch)
        alpha = self.alpha
        target = self.critic_target_values(batch, rng)
        losses = {}
        x = _critic_input(batch.states, batch.actions)
        for i, critic in enumerate(self.critics):
            q, cache = critic.forward(x, train=True)
            residual = q[:, 0] - target
            losses[f"critic{i + 1}_loss"] = float(np.mean(residual**2))
            grads, _ = critic.backward(cache, (2.0 * residual / b)[:, None])
            critic.adam_step(grads, self.hp.critic_lr)

        # Actor: minimize alpha * log pi - min_i Q_i with a fresh sample.
        mean, log_std, raw, actor_cache = self.policy_head(batch.states, train=True)
        sample = squashed_gaussian_sample(mean, log_std, rng)
        xa = _critic_input(batch.states, sample.action)
        q1, c1 = self.critics[0].forward(xa, train=True)
        q2, c2 = self.critics[1].forward(xa, train=True)
        q_min = np.minimum(q1[:, 0], q2[:, 0])
        losses["actor_loss"] = float(np.mean(alpha * sample.log_prob - q_min))
        # Gradient of -mean(min(Q1, Q2)) w.r.t. the action: rows route to
        # whichever critic attains the minimum.
        pick1 = (q1[:, 0] <= q2[:, 0]).astype(float)[:, None]
        _, din1 = self.critics[0].backward(c1, -pick1 / b, input_only=True)
        _, din2 = self.critics[1].backward(c2, -(1.0 - pick1) / b, input_only=True)
        grad_action = din1[:, self.state_dim:] + din2[:, self.state_dim:]
        grad_logp = np.full(b, alpha / b)
        dmean, dlog_std = squashed_gaussian_backward(mean, log_std, sample.noise,
                                                     grad_action, grad_logp)
        # The log-std half was clamped; gradients vanish outside the clamp.
        half = raw[:, self.action_dim:]
        dlog_std = dlog_std * ((half > LOG_STD_MIN) & (half < LOG_STD_MAX))
        head_grad = np.concatenate([dmean, dlog_std], axis=1)
        actor_grads, _ = self.actor.backward(actor_cache, head_grad)
        self.actor.adam_step(actor_grads, self.schedule.actor_lr)

        # Temperature: plain gradient step on log alpha toward the entropy
        # target, clamped to its documented range.
        losses["alpha_loss"] = float(-self.log_alpha
                                     * np.mean(sample.log_prob - self.target_entropy))
        grad_log_alpha = temperature_gradient(sample.log_prob, self.target_entropy)
        self.log_alpha -= self.hp.temperature_lr * grad_log_alpha
        self.log_alpha = float(np.clip(self.log_alpha, LOG_ALPHA_MIN, LOG_ALPHA_MAX))
        losses["alpha"] = self.alpha

        for ct, c in zip(self.critic_targets, self.critics):
            polyak_update(ct, c, self.hp.polyak)
        return losses


def _agent_nets(agent) -> dict[str, Mlp]:
    """Ordered name -> network mapping for checkpointing."""
    if isinstance(agent, DdpgAgent):
        return {"actor": agent.actor, "critic": agent.critic,
                "actor_target": agent.actor_target,
                "critic_target": agent.critic_target}
    if isinstance(agent, Td3Agent):
        return {"actor": agent.actor, "critic1": agent.critics[0],
                "critic2": agent.critics[1], "actor_target": agent.actor_target,
                "critic_target1": agent.critic_targets[0],
                "critic_target2": agent.critic_targets[1]}
    if isinstance(agent, SacAgent):
        return {"actor": agent.actor, "critic1": agent.critics[0],
                "critic2": agent.critics[1],
                "critic_target1": agent.critic_targets[0],
                "critic_target2": agent.critic_targets[1]}
    raise TypeError(f"not a known agent: {type(agent).__name__}")


def save_checkpoint(agent, path) -> None:
    """Write an agent checkpoint: JSON header plus network snapshots.

    The header carries the algorithm tag, hyperparameters, dimensions, step
    counters, schedule state, and per-network byte lengths; each network
    then follows in the engine's snapshot format. Replay contents are not
    saved (the episode protocol clears them anyway).
    """
    nets = _agent_nets(agent)
    blobs = [net.save_bytes() for net in nets.values()]
    header = {
        "algorithm": agent.name,
        "state_dim": agent.state_dim,
        "action_dim": agent.action_dim,
        "hyperparams": asdict(agent.hp),
        "schedule": {"actor_lr": agent.schedule.actor_lr,
                     "n_train": agent.schedule.n_train,
                     "reward_target": agent.schedule.reward_target,
                     "window": list(agent.schedule.window)},
        "log_alpha": getattr(agent, "log_alpha", None),
        "train_iter": getattr(agent, "train_iter", None),
        "nets": list(nets.keys()),
        "net_bytes": [len(b) for b in blobs],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path):
    """Reconstruct an agent saved by :func:`save_checkpoint`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    newline = blob.index(b"\n")
    header = json.loads(blob[:newline].decode())
    hp = AgentHyperparams(**header["hyperparams"])
    cls = {"ddpg": DdpgAgent, "td3": Td3Agent, "sac": SacAgent}[header["algorithm"]]
    agent = cls(header["state_dim"], header["action_dim"], hp,
                np.random.Generator(np.random.PCG64(0)))
    nets = _agent_nets(agent)
    pos = newline + 1
    for name, size in zip(header["nets"], header["net_bytes"]):
        nets[name].load_state(Mlp.load_bytes(blob[pos:pos + size]))
        pos += size
    if pos != len(blob):
        raise ValueError("checkpoint payload does not match its header")
    sched = header["schedule"]
    agent.schedule = ScheduleState(actor_lr=sched["actor_lr"],
                                   n_train=sched["n_train"],
                                   reward_target=sched["reward_target"])
    agent.schedule.window.extend(sched["window"])
    if header["log_alpha"] is not None:
        agent.log_alpha = header["log_alpha"]
    if header["train_iter"] is not None:
        agent.train_iter = header["train_iter"]
    return agent


@dataclass
class EpisodeTrace:
    """Per-step metrics of one training episode, and the last surface used."""

    objective: np.ndarray
    objective_norm: np.ndarray
    sinr_db: np.ndarray
    final_reflection: np.ndarray


def run_episode(agent, env: RisEnv, cfg: EpisodeConfig,
                rng: np.random.Generator, train: bool = True) -> EpisodeTrace:
    """Drive one coherence block for ``cfg.n_steps`` steps.

    The environment must already hold a fresh block. The agent is reset per
    the episode protocol, observes the pulse under an all-ones surface,
    then acts, stores scaled rewards, trains once the buffer can fill a
    batch, and feeds the schedule with unscaled rewards.
    """
    if train:
        agent.reset_episode(rng)
    reflection = np.ones(env.n_elements, dtype=complex)
    state, _ = env.step(reflection)
    etas = np.empty(cfg.n_steps)
    etas_norm = np.empty(cfg.n_steps)
    sinrs = np.empty(cfg.n_steps)
    noise_power = env.fading.noise_power
    for t in range(cfg.n_steps):
        action = agent.select_action(state, t, rng)
        reflection = action_to_reflection(action)
        next_state, reward = env.step(reflection)
        etas[t] = pulse_objective(env.last_pulse)
        etas_norm[t] = reward
        sinrs[t] = sinr_db(env.last_pulse, noise_power)
        if train:
            agent.buffer.push(Experience(state, action, cfg.reward_scale * reward,
                                         next_state))
            if len(agent.buffer) >= agent.hp.batch_size:
                for _ in range(agent.schedule.n_train):
                    batch = agent.buffer.sample(rng, agent.hp.batch_size)
                    agent.update(batch, rng)
            adaptive_schedule(agent.schedule, reward)
        state = next_state
    return EpisodeTrace(objective=etas, objective_norm=etas_norm, sinr_db=sinrs,
                        final_reflection=reflection)
