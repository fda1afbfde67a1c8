"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The learning criterion
(number 8) dominates the runtime and is marked ``slow``; everything else
finishes in seconds, and ``pytest -m "not slow"`` runs all but criterion 8.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from riseq import arise
from riseq.agents import (
    AgentHyperparams,
    Batch,
    DdpgAgent,
    Experience,
    ReplayBuffer,
    SacAgent,
    Td3Agent,
    polyak_update,
    temperature_gradient,
)
from riseq.arise import AriseConfig
from riseq.channels import (
    ChannelRealization,
    FadingParams,
    Geometry,
    SPEED_OF_LIGHT,
    received_pulse,
    sample_channels,
)
from riseq.cli import main as cli_main
from riseq.env import EpisodeConfig, RisEnv, pulse_objective, pulse_objective_norm, sinr_db
from riseq.experiments import ScenarioConfig, run_scenario, save_config
from riseq.nets import Adam, Mlp, squashed_gaussian_sample
from tests.test_nets import fd_gradient_check


def rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def report(number, label, passed, started, detail=""):
    state = "PASS" if passed else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"{state} criterion {number}: {label}{extra} [{time.time() - started:.1f}s]")
    assert passed, f"criterion {number} failed: {label}{extra}"


def make_block(m, kappa, n_delayed, seed):
    """One seeded coherence block with a walked user, noise disabled."""
    streams = [np.random.Generator(np.random.PCG64(s))
               for s in np.random.SeedSequence([420, seed]).spawn(3)]
    geom = Geometry(n_elements=m)
    fading = FadingParams(kappa=kappa, n_delayed=n_delayed)
    env = RisEnv(geom, fading, rng_channels=streams[0], rng_walk=streams[1])
    env.new_coherence_block()
    return env, streams[2]


def test_criterion_1_metric_correctness():
    started = time.time()
    # the third hand value is exact up to one ulp (0.8^2 rounds in binary)
    exact = (
        pulse_objective(np.array([1.0, 0.0], dtype=complex)) == 1.0
        and pulse_objective(np.array([-1.0, 0.0], dtype=complex)) == -1.0
        and abs(pulse_objective_norm(np.array([0.6, 0.8j])) + 0.28) <= 1e-15
    )
    r = rng(1)
    bounded = True
    for _ in range(10_000):
        n = int(r.integers(1, 10))
        y = r.normal(size=n) + 1j * r.normal(size=n)
        v = pulse_objective_norm(y)
        bounded &= -1.0 <= v <= 1.0
    report(1, "pulse metric hand values and [-1, 1] bound", exact and bounded,
           started)


def test_criterion_2_gradient_fidelity():
    started = time.time()
    h = 1e-6
    worst = 0.0
    geom = Geometry(n_elements=4)
    fading = FadingParams(n_delayed=3)  # L = 6
    for i in range(100):
        r = rng(1000 + i)
        direct = r.normal(size=7) + 1j * r.normal(size=7)
        cascaded = r.normal(size=(4, 7)) + 1j * r.normal(size=(4, 7))
        ch = ChannelRealization(direct=direct, cascaded=cascaded, direct_gain=1.0,
                                cascaded_gain=1.0, geometry=geom, fading=fading)
        g = r.normal(size=4) + 1j * r.normal(size=4)
        y_scale = float(r.uniform(0.5, 2.0))
        gre, gim = arise.cost_gradient(g, ch, y_scale)
        for m in range(4):
            basis = np.zeros(4, dtype=complex)
            for part, analytic in ((1.0, gre[m]), (1j, gim[m])):
                basis[m] = part
                fd = (arise.cost(g + h * basis, ch, y_scale)
                      - arise.cost(g - h * basis, ch, y_scale)) / (2 * h)
                basis[m] = 0.0
                worst = max(worst, abs(analytic - fd) / max(abs(fd), 1e-10))
    report(2, "descent gradient vs central differences, 100 instances",
           worst <= 1e-6, started, f"worst rel err {worst:.2e}")


def test_criterion_3_equalization_trend():
    started = time.time()
    beats_inverse = 0
    beats_random = 0
    blocks = 100
    for i in range(blocks):
        env, rng_extra = make_block(32, 10.0, 5, seed=i)
        ch = env.channel
        _, trace = arise.run(env, config=AriseConfig(target_scale=0.10))
        final = trace.objective_norm[-1]
        inv = pulse_objective_norm(received_pulse(ch, arise.inverse_phases(ch.cascaded)))
        rnd = pulse_objective_norm(received_pulse(ch, arise.random_phases(rng_extra, 32)))
        beats_inverse += final > inv
        beats_random += final > rnd
    report(3, "descent beats inverse >= 90% and random 100% over 100 blocks",
           beats_inverse >= 90 and beats_random == 100, started,
           f"inverse {beats_inverse}/100, random {beats_random}/100")


def test_criterion_4_target_scale_tradeoff():
    # The second clause measures amplification: the signal-to-NOISE ratio of
    # the converged main tap. (The ISI-inclusive ratio is a monotone
    # transform of the normalized objective, so it moves with the first
    # clause by construction and cannot express the amplification side of
    # the tradeoff; it is still printed below. See the decisions ledger.)
    started = time.time()
    eq_norm = {0.10: [], 1.00: []}
    snr_noise = {0.10: [], 1.00: []}
    snr_isi = {0.10: [], 1.00: []}
    for i in range(50):
        env, _ = make_block(32, 10.0, 5, seed=10_000 + i)
        noise_power = env.fading.noise_power
        for scale in (0.10, 1.00):
            refl, trace = arise.run(env, config=AriseConfig(target_scale=scale))
            eq_norm[scale].append(trace.objective_norm[-1])
            y = received_pulse(env.channel, refl)
            snr_noise[scale].append(10 * np.log10(y[0].real**2 / noise_power))
            snr_isi[scale].append(sinr_db(y, noise_power))
    med = {s: float(np.median(v)) for s, v in eq_norm.items()}
    med_snr = {s: float(np.median(v)) for s, v in snr_noise.items()}
    med_isi = {s: float(np.median(v)) for s, v in snr_isi.items()}
    ok = med[0.10] > med[1.00] and med_snr[1.00] >= med_snr[0.10] - 1.0
    report(4, "small target scale equalizes better; large one keeps the boost",
           ok, started,
           f"eta_n medians {med[0.10]:.3f} vs {med[1.00]:.3f}; main-tap SNR "
           f"medians {med_snr[1.00]:.2f} vs {med_snr[0.10]:.2f} dB; "
           f"ISI-inclusive medians {med_isi[1.00]:.2f} vs {med_isi[0.10]:.2f} dB")


def test_criterion_5_coherent_sum():
    started = time.time()
    lam = SPEED_OF_LIGHT / 3.5e9
    worst = 0.0
    for m in (1, 16, 100):
        geom = Geometry(n_elements=m, element_spacing=lam / 2, ue_pos=(10.0, -30.0))
        fading = FadingParams(kappa=1e18, n_delayed=0)
        ch = sample_channels(rng(50 + m), geom, fading)
        ch.direct[:] = 0.0
        y = received_pulse(ch, arise.inverse_phases(ch.cascaded))
        worst = max(worst, abs(abs(y[0]) - m * np.sqrt(ch.cascaded_gain)))
    report(5, "inverse phases coherent-sum closed form at 1e-9",
           worst <= 1e-9, started, f"worst abs err {worst:.2e}")


def test_criterion_6_neural_engine():
    started = time.time()
    for layer_norm in (False, True):
        for output in ("linear", "tanh"):
            net = Mlp(rng(60), [6, 8, 8, 4], layer_norm=layer_norm, output=output)
            fd_gradient_check(net, seed=61)
    # Gaussian head gradients under fixed noise
    r = rng(62)
    mean = r.normal(size=(3, 4))
    log_std = r.normal(size=(3, 4)) * 0.3
    s = squashed_gaussian_sample(mean, log_std, r)
    ga, gl = r.normal(size=s.action.shape), r.normal(size=3)
    from riseq.nets import squashed_gaussian_backward
    dmean, dls = squashed_gaussian_backward(mean, log_std, s.noise, ga, gl)

    def head_loss():
        pre = mean + np.exp(log_std) * s.noise
        a = np.tanh(pre)
        lp = np.sum(-0.5 * np.log(2 * np.pi) - log_std - 0.5 * s.noise**2, axis=-1) \
            - np.sum(np.log(1 - a**2 + 1e-6), axis=-1)
        return float(np.sum(ga * a) + np.sum(gl * lp))

    h = 1e-6
    head_ok = True
    for arr, grad in ((mean, dmean), (log_std, dls)):
        for idx in ((0, 0), (1, 1), (2, 3)):
            orig = arr[idx]
            arr[idx] = orig + h
            up = head_loss()
            arr[idx] = orig - h
            dn = head_loss()
            arr[idx] = orig
            fd = (up - dn) / (2 * h)
            head_ok &= abs(grad[idx] - fd) / max(abs(fd), 1e-10) <= 1e-6

    w = np.array([0.0])
    opt = Adam([w])
    for _ in range(2000):
        opt.step([w], [2.0 * (w - 3.0)], lr=0.05)
        if abs(w[0] - 3.0) < 0.01:
            break
    adam_ok = abs(w[0] - 3.0) < 0.01
    report(6, "gradient checks for all layer types and Adam convergence",
           head_ok and adam_ok, started)


def test_criterion_7_algorithmic_contracts():
    started = time.time()
    hp = AgentHyperparams(hidden_width=8)
    r = rng(70)
    batch = Batch(states=r.uniform(-1, 1, (4, 4)), actions=r.uniform(-1, 1, (4, 2)),
                  rewards=r.normal(size=4), next_states=r.uniform(-1, 1, (4, 4)))

    ddpg = DdpgAgent(4, 2, hp, rng(71))
    ddpg_ok = np.allclose(ddpg.critic_target_values(batch, discount=0.0),
                          batch.rewards)

    td3 = Td3Agent(4, 2, hp, rng(72))
    before = [p.copy() for p in td3.actor.parameters()]
    td3.update(batch, rng(73), train_iter=1)
    td3_skip_ok = all(np.array_equal(a, b)
                      for a, b in zip(td3.actor.parameters(), before))
    t1 = td3.critic_target_values(batch, rng(74))
    td3.critics.reverse()
    td3.critic_targets.reverse()
    t2 = td3.critic_target_values(batch, rng(74))
    td3_swap_ok = np.allclose(t1, t2)

    sac = SacAgent(4, 200, hp, rng(75))
    entropy_ok = sac.target_entropy == -200.0
    sign_ok = (temperature_gradient(np.array([-1.0]), -4.0) < 0
               and temperature_gradient(np.array([-10.0]), -4.0) > 0
               and temperature_gradient(np.array([-4.0, -4.0]), -4.0) == 0.0)

    target, online = Mlp(rng(76), [3, 4, 2]), Mlp(rng(77), [3, 4, 2])
    t0 = [p.copy() for p in target.parameters()]
    tau, k = 0.005, 200
    for _ in range(k):
        polyak_update(target, online, tau)
    decay = (1 - tau) ** k
    polyak_ok = all(
        np.max(np.abs(pt - ((1 - decay) * po + decay * p0))) <= 1e-12
        for pt, po, p0 in zip(target.parameters(), online.parameters(), t0))

    report(7, "DDPG/TD3/SAC unit contracts and Polyak closed form",
           ddpg_ok and td3_skip_ok and td3_swap_ok and entropy_ok and sign_ok
           and polyak_ok, started)


def _final_200_mean(algorithm, seed):
    cfg = ScenarioConfig(
        geometry=Geometry(n_elements=16),
        fading=FadingParams(kappa=10.0, n_delayed=4),
        episode=EpisodeConfig(n_steps=2000),
        agent=AgentHyperparams(hidden_width=128),
        algorithm=algorithm, episodes=3, seed=seed)
    records = run_scenario(cfg)
    tail = [rec.objective_norm for rec in records if rec.episode == 2][-200:]
    return float(np.mean(tail))


@pytest.mark.slow
def test_criterion_8_sac_desk_scale_learning():
    started = time.time()
    sac_scores, ddpg_scores = [], []
    for seed in range(10):
        sac_scores.append(_final_200_mean("sac", seed))
        ddpg_scores.append(_final_200_mean("ddpg", seed))
    sac_scores = np.array(sac_scores)
    ddpg_scores = np.array(ddpg_scores)
    hits = int(np.sum(sac_scores >= 0.5))
    order = int(np.sum(sac_scores >= ddpg_scores))
    report(8, "SAC desk-scale learning and ordering vs DDPG",
           hits >= 7 and order >= 8, started,
           f"sac>=0.5 in {hits}/10 seeds, sac>=ddpg in {order}/10; "
           f"sac={np.round(sac_scores, 3).tolist()}, "
           f"ddpg={np.round(ddpg_scores, 3).tolist()}")


def test_criterion_9_cli_determinism(tmp_path):
    started = time.time()
    cfg = ScenarioConfig(
        geometry=Geometry(n_elements=8),
        fading=FadingParams(kappa=10.0, n_delayed=2),
        episode=EpisodeConfig(n_steps=40),
        agent=AgentHyperparams(hidden_width=16),
        algorithm="sac", episodes=2, seed=0)
    cfg_path = tmp_path / "cfg.ini"
    save_config(cfg, cfg_path)
    rc1 = cli_main(["simulate", "--config", str(cfg_path), "--seed", "7",
                    "--out", str(tmp_path / "run1")])
    rc2 = cli_main(["simulate", "--config", str(cfg_path), "--seed", "7",
                    "--out", str(tmp_path / "run2")])
    same = (tmp_path / "run1" / "records.csv").read_bytes() == \
           (tmp_path / "run2" / "records.csv").read_bytes()
    report(9, "simulate --seed 7 twice gives byte-identical CSVs",
           rc1 == 0 and rc2 == 0 and same, started)


def test_criterion_10_replay_buffer_properties():
    started = time.time()
    buf = ReplayBuffer(capacity=400)
    for i in range(401):
        buf.push(Experience(state=np.array([float(i)]), action=np.zeros(1),
                            reward=float(i), next_state=np.zeros(1)))
    rewards = [e.reward for e in buf]
    fifo_ok = len(buf) == 400 and 0.0 not in rewards and rewards[0] == 1.0

    small = ReplayBuffer(capacity=10)
    for i in range(10):
        small.push(Experience(state=np.array([float(i)]), action=np.zeros(1),
                              reward=float(i), next_state=np.zeros(1)))
    r = rng(100)
    counts = np.zeros(10)
    n = 100_000
    for _ in range(n // 4):
        for v in small.sample(r, 4).rewards:
            counts[int(v)] += 1
    three_sigma = 3 * np.sqrt(0.1 * 0.9 / n)
    uniform_ok = np.all(np.abs(counts / n - 0.1) <= three_sigma + 1e-3)

    single = ReplayBuffer(capacity=4)
    single.push(Experience(state=np.zeros(1), action=np.zeros(1), reward=7.0,
                           next_state=np.zeros(1)))
    sample_ok = single.sample(rng(101), 1).rewards[0] == 7.0
    errored = False
    try:
        single.sample(rng(102), 2)
    except ValueError:
        errored = True
    report(10, "replay buffer FIFO eviction and uniform sampling",
           fifo_ok and uniform_ok and sample_ok and errored, started)
