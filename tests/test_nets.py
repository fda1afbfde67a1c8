import json

import numpy as np
import pytest

from riseq.nets import (
    CHUNK,
    Adam,
    LOG_STD_MAX,
    LOG_STD_MIN,
    Mlp,
    split_policy_head,
    squashed_gaussian_backward,
    squashed_gaussian_sample,
)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestInit:
    def test_weight_std(self):
        net = Mlp(rng(0), [512, 512, 4])
        assert 0.095 <= np.std(net.weights[0]) <= 0.105

    def test_biases_zero(self):
        net = Mlp(rng(1), [8, 16, 4])
        for b in net.biases:
            assert np.all(b == 0.0)

    def test_same_seed_bit_identical(self):
        a = Mlp(rng(7), [6, 8, 8, 4], layer_norm=True)
        b = Mlp(rng(7), [6, 8, 8, 4], layer_norm=True)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)

    def test_needs_two_sizes(self):
        with pytest.raises(ValueError):
            Mlp(rng(2), [4])


class TestForward:
    def test_zero_parameters_give_zero_output(self):
        net = Mlp(rng(3), [4, 8, 3])
        for w in net.weights:
            w[...] = 0.0
        assert np.allclose(net.forward(np.ones(4)), 0.0)

    def test_relu_identity_chain(self):
        net = Mlp(rng(4), [1, 1, 1])
        net.weights[0][...] = 1.0
        net.weights[1][...] = 1.0
        net.biases[0][...] = 0.0
        net.biases[1][...] = 0.0
        assert net.forward(np.array([-3.0]))[0] == 0.0
        assert net.forward(np.array([2.0]))[0] == 2.0

    def test_layer_norm_statistics(self):
        # large pre-activation variance so the variance epsilon is invisible
        net = Mlp(rng(5), [8, 16, 4], layer_norm=True)
        x = rng(6).normal(scale=40_000.0, size=(5, 8))
        _, cache = net.forward(x, train=True)
        normed = cache[0]["normed"]
        assert np.max(np.abs(normed.mean(axis=1))) <= 1e-9
        assert np.max(np.abs(normed.var(axis=1) - 1.0)) <= 1e-9

    def test_dimension_mismatch(self):
        net = Mlp(rng(7), [4, 8, 3])
        with pytest.raises(ValueError):
            net.forward(np.ones(5))

    def test_tanh_output_bounded(self):
        net = Mlp(rng(8), [4, 8, 3], output="tanh")
        y = net.forward(rng(9).normal(size=(20, 4)) * 30)
        assert np.all(np.abs(y) < 1.0)


def fd_gradient_check(net, seed, rel_tol=1e-6):
    """Finite-difference check of every parameter and the input gradient."""
    r = rng(seed)
    x = r.normal(size=(5, net.sizes[0]))
    w = r.normal(size=(5, net.sizes[-1]))

    def loss():
        return float(np.sum(w * net.forward(x)))

    _, cache = net.forward(x, train=True)
    grads, dx = net.backward(cache, w)
    h = 1e-6
    worst = 0.0
    for p, g in zip(net.parameters(), grads):
        flat_p, flat_g = p.ravel(), g.ravel()
        for idx in range(0, flat_p.size, max(1, flat_p.size // 7)):
            orig = flat_p[idx]
            flat_p[idx] = orig + h
            up = loss()
            flat_p[idx] = orig - h
            dn = loss()
            flat_p[idx] = orig
            fd = (up - dn) / (2 * h)
            denom = max(abs(fd), 1e-8)
            worst = max(worst, abs(fd - flat_g[idx]) / denom)
    xi = x.copy()
    xi[0, 0] += h
    up = float(np.sum(w * net.forward(xi)))
    xi[0, 0] -= 2 * h
    dn = float(np.sum(w * net.forward(xi)))
    fd = (up - dn) / (2 * h)
    worst = max(worst, abs(fd - dx[0, 0]) / max(abs(fd), 1e-8))
    assert worst <= rel_tol, f"worst relative error {worst:.3e}"


class TestBackward:
    @pytest.mark.parametrize("layer_norm", [False, True])
    @pytest.mark.parametrize("output", ["linear", "tanh"])
    def test_finite_difference_all_layer_types(self, layer_norm, output):
        net = Mlp(rng(10), [6, 8, 8, 4], layer_norm=layer_norm, output=output)
        fd_gradient_check(net, seed=11)

    def test_input_gradient_linear_single_layer(self):
        net = Mlp(rng(12), [3, 2])
        g = rng(13).normal(size=(4, 2))
        x = rng(14).normal(size=(4, 3))
        _, cache = net.forward(x, train=True)
        _, dx = net.backward(cache, g)
        assert np.allclose(dx, g @ net.weights[0].T, atol=1e-14)

    def test_zero_grad_output(self):
        net = Mlp(rng(15), [4, 8, 2], layer_norm=True)
        _, cache = net.forward(rng(16).normal(size=(3, 4)), train=True)
        grads, dx = net.backward(cache, np.zeros((3, 2)))
        assert all(np.all(g == 0.0) for g in grads)
        assert np.all(dx == 0.0)

    def test_stale_cache_rejected(self):
        net = Mlp(rng(17), [4, 8, 2])
        with pytest.raises(ValueError):
            net.backward(None, np.zeros((1, 2)))

    @pytest.mark.parametrize("layer_norm", [False, True])
    def test_input_only_gives_the_same_input_gradient(self, layer_norm):
        net = Mlp(rng(18), [6, 8, 8, 1], layer_norm=layer_norm, output="tanh")
        _, cache = net.forward(rng(19).normal(size=(4, 6)), train=True)
        g = rng(20).normal(size=(4, 1))
        grads, dx = net.backward(cache, g)
        kept = [a.copy() for a in grads]
        skipped, dx_only = net.backward(cache, g, input_only=True)
        assert skipped is None
        assert np.array_equal(dx_only, dx)
        # the gradient buffer is left as the full pass wrote it
        assert all(np.array_equal(a, b) for a, b in zip(grads, kept))


class TestAdam:
    def test_zero_gradient_is_identity(self):
        w = np.array([1.5, -2.0])
        opt = Adam([w])
        opt.step([w], [np.zeros(2)], lr=0.1)
        assert np.array_equal(w, [1.5, -2.0])

    def test_first_step_magnitude(self):
        w = np.array([1.0])
        opt = Adam([w])
        opt.step([w], [np.array([1.0])], lr=0.1)
        assert w[0] == pytest.approx(0.9, abs=1e-8)

    def test_quadratic_convergence(self):
        w = np.array([0.0])
        opt = Adam([w])
        for _ in range(2000):
            grad = 2.0 * (w - 3.0)
            opt.step([w], [grad], lr=0.05)
            if abs(w[0] - 3.0) < 0.01:
                break
        assert abs(w[0] - 3.0) < 0.01

    def test_finite_for_huge_gradients(self):
        w = np.array([1.0])
        opt = Adam([w])
        opt.step([w], [np.array([1e30])], lr=0.1)
        assert np.isfinite(w[0])

    def test_structure_mismatch(self):
        w = np.array([1.0])
        opt = Adam([w])
        with pytest.raises(ValueError):
            opt.step([w, w], [np.array([1.0])], lr=0.1)

    def test_non_contiguous_parameters_rejected(self):
        w = np.zeros(4)
        opt = Adam([w[::2]])
        with pytest.raises(ValueError):
            opt.step([w[::2]], [np.ones(2)], lr=0.1)

    def test_flat_step_matches_per_array_formula(self):
        # several chunks, the last one partial
        net = Mlp(rng(40), [6, 200, 200, 4], layer_norm=True, output="tanh")
        assert net.flat.size > CHUNK and net.flat.size % CHUNK != 0
        params = [p.copy() for p in net.parameters()]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        data = rng(41)
        for t in range(1, 6):
            y, cache = net.forward(data.normal(size=(3, 6)), train=True)
            grads, _ = net.backward(cache, y - 0.5)
            # the per-array update the engine made before flat storage
            c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            for p, g, mi, vi in zip(params, grads, m, v):
                mi *= 0.9
                mi += (1.0 - 0.9) * g
                vi *= 0.999
                vi += (1.0 - 0.999) * g * g
                p -= 1e-3 * (mi / c1) / (np.sqrt(vi / c2) + 1e-8)
            net.adam_step(grads, 1e-3)
        for got, want in zip((*net.parameters(), *net.adam.m, *net.adam.v),
                             (*params, *m, *v)):
            assert np.array_equal(got, want)


class TestPolicyHead:
    def test_split_and_clamp(self):
        out = np.array([[0.5, -0.5, -30.0, 30.0]])
        mean, log_std = split_policy_head(out)
        assert np.allclose(mean, [[0.5, -0.5]])
        assert np.allclose(log_std, [[LOG_STD_MIN, LOG_STD_MAX]])

    def test_collapsed_gaussian_near_zero_action(self):
        mean = np.zeros((1, 4))
        log_std = np.full((1, 4), -20.0)
        action = squashed_gaussian_sample(mean, log_std, rng(20)).action
        assert np.max(np.abs(action)) < 1e-7

    def test_actions_strictly_inside_unit_box(self):
        r = rng(21)
        for _ in range(200):
            mean = r.normal(size=6)
            log_std = r.uniform(-2, 0.5, size=6)
            action = squashed_gaussian_sample(mean, log_std, r).action
            assert np.all(np.abs(action) < 1.0)

    def test_saturated_actions_never_leave_box(self):
        r = rng(33)
        for _ in range(100):
            mean = r.normal(size=6) * 50
            log_std = r.uniform(-2, 2, size=6)
            action = squashed_gaussian_sample(mean, log_std, r).action
            assert np.all(np.abs(action) <= 1.0)

    def test_log_prob_matches_direct_evaluation(self):
        r = rng(22)
        mean = np.array([[0.3, -0.7]])
        log_std = np.array([[-0.2, 0.4]])
        s = squashed_gaussian_sample(mean, log_std, r)
        pre = mean + np.exp(log_std) * s.noise
        gauss = np.sum(-0.5 * np.log(2 * np.pi) - log_std - 0.5 * s.noise**2)
        corr = np.sum(np.log(1 - np.tanh(pre) ** 2 + 1e-6))
        assert s.log_prob[0] == pytest.approx(gauss - corr, rel=1e-12)

    def test_monte_carlo_entropy_vs_quadrature(self):
        # E[-log pi] equals the squashed distribution's entropy:
        # sum of Gaussian entropies plus E[log(1 - tanh(u)^2)] per dim
        mean = np.array([0.3, -0.2])
        log_std = np.array([-0.5, 0.1])
        n = 1_000_000
        r = rng(23)
        s = squashed_gaussian_sample(np.tile(mean, (n, 1)),
                                     np.tile(log_std, (n, 1)), r)
        mc = -s.log_prob
        analytic = 0.0
        for m, ls in zip(mean, log_std):
            sd = np.exp(ls)
            analytic += 0.5 * np.log(2 * np.pi * np.e) + ls
            u = np.linspace(m - 10 * sd, m + 10 * sd, 200_001)
            density = np.exp(-0.5 * ((u - m) / sd) ** 2) / (sd * np.sqrt(2 * np.pi))
            analytic += np.trapezoid(density * np.log(1 - np.tanh(u) ** 2 + 1e-6), u)
        three_sigma = 3.0 * np.std(mc) / np.sqrt(n)
        assert abs(np.mean(mc) - analytic) <= three_sigma

    def test_head_gradients_finite_difference(self):
        r = rng(24)
        mean = r.normal(size=(3, 4))
        log_std = r.normal(size=(3, 4)) * 0.3
        s = squashed_gaussian_sample(mean, log_std, r)
        ga = r.normal(size=s.action.shape)
        gl = r.normal(size=3)
        dmean, dlog_std = squashed_gaussian_backward(mean, log_std, s.noise, ga, gl)

        def loss(m, ls):
            pre = m + np.exp(ls) * s.noise
            a = np.tanh(pre)
            lp = np.sum(-0.5 * np.log(2 * np.pi) - ls - 0.5 * s.noise**2, axis=-1) \
                - np.sum(np.log(1 - a**2 + 1e-6), axis=-1)
            return float(np.sum(ga * a) + np.sum(gl * lp))

        h = 1e-6
        for arr, grad in ((mean, dmean), (log_std, dlog_std)):
            for idx in ((0, 0), (1, 2), (2, 3)):
                orig = arr[idx]
                arr[idx] = orig + h
                up = loss(mean, log_std)
                arr[idx] = orig - h
                dn = loss(mean, log_std)
                arr[idx] = orig
                fd = (up - dn) / (2 * h)
                assert grad[idx] == pytest.approx(fd, rel=1e-6)


class TestDeterminismAndCopy:
    def test_identical_training_trajectories(self):
        def train(seed):
            net = Mlp(rng(seed), [4, 8, 2], layer_norm=True)
            data = rng(99)
            for _ in range(20):
                x = data.normal(size=(3, 4))
                y, cache = net.forward(x, train=True)
                grads, _ = net.backward(cache, y - 1.0)
                net.adam_step(grads, 1e-3)
            return net

        a, b = train(5), train(5)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)

    def test_parameters_are_views_of_the_flat_vector(self):
        net = Mlp(rng(42), [4, 8, 8, 2], layer_norm=True)
        net.flat[:] = np.arange(net.flat.size)
        params = net.parameters()
        assert np.array_equal(np.concatenate([p.ravel() for p in params]), net.flat)
        assert [p.shape for p in params] == [(4, 8), (8,), (8,), (8,), (8, 8), (8,),
                                             (8,), (8,), (8, 2), (2,)]
        grouped = (*net.weights, *net.biases, *net.ln_gain, *net.ln_offset)
        assert len(grouped) == len(params)
        assert all(any(g is p for p in params) for g in grouped)
        net.ln_offset[1][...] = -1.0
        assert np.all(net.flat[136:144] == -1.0)

    def test_copy_is_independent(self):
        net = Mlp(rng(25), [4, 8, 2])
        y, cache = net.forward(rng(43).normal(size=(3, 4)), train=True)
        net.adam_step(net.backward(cache, y)[0], 1e-3)
        twin = net.copy()
        assert twin.adam.t == net.adam.t == 1
        for a, b in ((twin.flat, net.flat), (twin.adam.m.flat, net.adam.m.flat),
                     (twin.adam.v.flat, net.adam.v.flat)):
            assert np.array_equal(a, b) and not np.shares_memory(a, b)
        net.weights[0][0, 0] += 1.0
        net.adam.m[0][0, 0] += 1.0
        net.adam.v[0][0, 0] += 1.0
        assert twin.weights[0][0, 0] != net.weights[0][0, 0]
        assert twin.adam.m[0][0, 0] != net.adam.m[0][0, 0]
        assert twin.adam.v[0][0, 0] != net.adam.v[0][0, 0]

    def test_parameters_finite_after_training(self):
        net = Mlp(rng(26), [4, 16, 16, 2])
        data = rng(27)
        for _ in range(100):
            x = data.normal(size=(4, 4)) * 100
            y, cache = net.forward(x, train=True)
            grads, _ = net.backward(cache, (y - 5.0) * 1e6)
            net.adam_step(grads, 1e-2)
        assert all(np.all(np.isfinite(p)) for p in net.parameters())


class TestSerialization:
    def test_round_trip(self, tmp_path):
        net = Mlp(rng(28), [6, 8, 8, 4], layer_norm=True, output="tanh")
        data = rng(29)
        for _ in range(5):
            x = data.normal(size=(3, 6))
            y, cache = net.forward(x, train=True)
            grads, _ = net.backward(cache, y)
            net.adam_step(grads, 1e-3)
        path = tmp_path / "net.bin"
        net.save(path)
        loaded = Mlp.load(path)
        assert loaded.sizes == net.sizes
        assert loaded.adam.t == net.adam.t
        for pa, pb in zip(net.parameters(), loaded.parameters()):
            assert np.array_equal(pa, pb)
        for ma, mb in zip(net.adam.m, loaded.adam.m):
            assert np.array_equal(ma, mb)
        x = rng(30).normal(size=(2, 6))
        assert np.array_equal(net.forward(x), loaded.forward(x))

    def test_snapshot_layout(self):
        net = Mlp(rng(32), [3, 5, 5, 2], layer_norm=True, output="tanh")
        y, cache = net.forward(rng(33).normal(size=(2, 3)), train=True)
        net.adam_step(net.backward(cache, y)[0], 1e-3)
        header = {"sizes": [3, 5, 5, 2], "std": 0.1, "layer_norm": True,
                  "output": "tanh", "adam_t": 1}
        blob = json.dumps(header).encode() + b"\n" + b"".join(
            np.asarray(a, dtype="<f8").tobytes()
            for a in (*net.parameters(), *net.adam.m, *net.adam.v))
        assert net.save_bytes() == blob
        loaded = Mlp.load_bytes(blob)
        assert loaded.adam.t == 1
        for a, b in ((loaded.flat, net.flat), (loaded.adam.m.flat, net.adam.m.flat),
                     (loaded.adam.v.flat, net.adam.v.flat)):
            assert np.array_equal(a, b)

    def test_corrupt_payload_rejected(self):
        net = Mlp(rng(31), [3, 4, 2])
        blob = net.save_bytes()
        with pytest.raises(ValueError):
            Mlp.load_bytes(blob[:-8])
