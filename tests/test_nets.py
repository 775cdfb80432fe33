import json
import math

import numpy as np
import pytest

from reachrl.errors import NumericError, ValidationError
from reachrl.nets import (
    GaussianHead,
    Mlp,
    adam_init,
    adam_step,
    clip_grad_norm,
    gaussian_entropy,
    gaussian_log_prob,
    gaussian_sample,
    mlp_backward,
    mlp_backward_cached,
    mlp_forward,
    mlp_forward_cached,
    mlp_forward_rows,
    mlp_from_dict,
    mlp_init,
    mlp_to_dict,
    pack,
)


def forward_oracle(net, x):
    """Naive triple-loop re-implementation of the forward pass."""
    h = list(map(float, x))
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        out = []
        for j in range(w.shape[1]):
            acc = float(b[j])
            for i in range(w.shape[0]):
                acc += h[i] * float(w[i, j])
            out.append(acc)
        if k != len(net.weights) - 1:
            out = [math.tanh(v) for v in out]
        h = out
    return np.array(h)


def test_forward_zero_net_outputs_zero():
    net = Mlp([(3, 4), (4, 2)], np.zeros(3 * 4 + 4 * 2 + 4 + 2))
    np.testing.assert_array_equal(mlp_forward(net, np.array([1.0, -2.0, 3.0])), np.zeros(2))


def test_forward_identity_single_layer():
    net = Mlp([(3, 3)], np.concatenate([np.eye(3).ravel(), np.zeros(3)]))
    x = np.array([0.5, -0.25, 2.0])
    np.testing.assert_array_equal(mlp_forward(net, x), x)


def test_forward_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        net = mlp_init([5, 7, 3], rng)
        x = rng.normal(size=5)
        np.testing.assert_allclose(mlp_forward(net, x), forward_oracle(net, x), atol=1e-12)


def test_forward_batched_matches_vector_calls():
    rng = np.random.default_rng(1)
    net = mlp_init([4, 8, 2], rng)
    xs = rng.normal(size=(6, 4))
    batched = mlp_forward(net, xs)
    # BLAS may schedule the two shapes differently; agreement is to rounding.
    for i in range(6):
        np.testing.assert_allclose(batched[i], mlp_forward(net, xs[i]), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("out_dim", [6, 2, 1], ids=["policy", "planar-policy", "value"])
@pytest.mark.parametrize("obs_dim", [5, 9, 12])
@pytest.mark.parametrize("n_rows", [1, 2049])
def test_forward_rows_is_bitwise_the_vector_calls(out_dim, obs_dim, n_rows):
    # Guards the stacked one-row products: a numpy or BLAS build that stops
    # sending them to the one-row kernel would move PPO's rollout values.
    # The 1-D call runs as a vector and must keep the one-row batch's bits.
    rng = np.random.default_rng(obs_dim * out_dim + n_rows)
    net = mlp_init([obs_dim, 64, 64, out_dim], rng)
    xs = rng.normal(size=(n_rows, obs_dim))
    rows = mlp_forward_rows(net, xs)
    assert rows.shape == (n_rows, out_dim) and rows.dtype == np.float64
    assert np.array_equal(rows, [mlp_forward(net, x) for x in xs])
    assert np.array_equal(rows, [mlp_forward(net, x[None])[0] for x in xs])


def test_forward_does_not_mutate_parameters():
    rng = np.random.default_rng(2)
    net = mlp_init([3, 5, 2], rng)
    snapshot = net.params.copy()
    mlp_forward(net, rng.normal(size=3))
    np.testing.assert_array_equal(snapshot, net.params)


def test_forward_rejects_wrong_dimension():
    net = mlp_init([3, 2], np.random.default_rng(0))
    with pytest.raises(ValidationError):
        mlp_forward(net, np.zeros(4))


def test_backward_zero_output_grad():
    rng = np.random.default_rng(3)
    net = mlp_init([3, 4, 2], rng)
    wg, bg, gin = mlp_backward(net, rng.normal(size=3), np.zeros(2))
    assert all(np.all(g == 0) for g in wg + bg)
    np.testing.assert_array_equal(gin, np.zeros(3))


def test_backward_scalar_chain_rule():
    # y = w x with identity output; grad_w = x * output_grad
    net = Mlp([(1, 1)], np.array([0.7, 0.0]))
    wg, bg, gin = mlp_backward(net, np.array([2.0]), np.array([3.0]))
    assert wg[0][0, 0] == pytest.approx(6.0, abs=0)
    assert bg[0][0] == pytest.approx(3.0, abs=0)
    assert gin[0] == pytest.approx(0.7 * 3.0, abs=0)


def rel_error(a, b):
    return np.abs(a - b) / (np.abs(a) + np.abs(b) + 1e-10)


def finite_difference_grads(net, x, output_grad, h=1e-5):
    """Central differences of output . output_grad w.r.t. every parameter,
    laid out like ``net.params``."""
    p = net.params
    grads = np.zeros_like(p)
    for i, original in enumerate(p.tolist()):
        p[i] = original + h
        hi = float(mlp_forward(net, x) @ output_grad)
        p[i] = original - h
        lo = float(mlp_forward(net, x) @ output_grad)
        p[i] = original
        grads[i] = (hi - lo) / (2 * h)
    return grads


def test_gradient_check_against_finite_differences():
    rng = np.random.default_rng(4)
    sizes_pool = [4, 8, 16]
    worst = 0.0
    for trial in range(20):
        hidden = [sizes_pool[trial % 3]] + ([sizes_pool[(trial + 1) % 3]] if trial % 2 else [])
        sizes = [int(rng.integers(2, 6)), *hidden, int(rng.integers(1, 4))]
        net = mlp_init(sizes, rng)
        x = rng.normal(size=sizes[0])
        output_grad = rng.normal(size=sizes[-1])
        wg, bg, _ = mlp_backward(net, x, output_grad)
        numeric = finite_difference_grads(net, x, output_grad)
        analytic = np.concatenate([g.ravel() for g in wg + bg])
        worst = max(worst, float(rel_error(analytic, numeric).max()))
    assert worst < 1e-4


def test_backward_input_grad_finite_difference():
    rng = np.random.default_rng(5)
    net = mlp_init([4, 8, 3], rng)
    x = rng.normal(size=4)
    output_grad = rng.normal(size=3)
    _, _, gin = mlp_backward(net, x, output_grad)
    h = 1e-5
    for i in range(4):
        bumped_hi, bumped_lo = x.copy(), x.copy()
        bumped_hi[i] += h
        bumped_lo[i] -= h
        numeric = (
            float(mlp_forward(net, bumped_hi) @ output_grad)
            - float(mlp_forward(net, bumped_lo) @ output_grad)
        ) / (2 * h)
        assert rel_error(gin[i], numeric) < 1e-4


def test_adam_zero_gradient_leaves_params():
    rng = np.random.default_rng(6)
    net = mlp_init([2, 3], rng)
    snapshot = net.params.copy()
    state = adam_init(net.params, lr=0.1)
    adam_step(net.params, np.zeros_like(net.params), state)
    assert state.step_count == 1
    np.testing.assert_array_equal(snapshot, net.params)


def test_adam_first_step_moves_against_gradient():
    params = np.array([1.0, -1.0])
    grads = np.array([0.5, -0.25])
    state = adam_init(params, lr=0.01)
    adam_step(params, grads, state)
    assert params[0] < 1.0
    assert params[1] > -1.0


def adam_scalar_oracle(w0, lr, steps):
    """Run the textbook scalar Adam recursion on f(w) = w^2."""
    w, m, v = w0, 0.0, 0.0
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for t in range(1, steps + 1):
        g = 2.0 * w
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        w -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return w


def test_adam_minimises_quadratic():
    params = np.array([1.0])
    state = adam_init(params, lr=0.1)
    for _ in range(100):
        adam_step(params, 2.0 * params, state)
    expected = adam_scalar_oracle(1.0, 0.1, 100)
    assert abs(params[0]) < 0.1
    assert params[0] == pytest.approx(expected, abs=1e-12)


def test_adam_rejects_non_finite_grads():
    params = np.zeros(2)
    state = adam_init(params, lr=0.1)
    with pytest.raises(NumericError):
        adam_step(params, np.array([np.inf, 0.0]), state)


def test_clip_grad_norm():
    grads = np.array([3.0, 4.0, 0.0])
    pre = clip_grad_norm(grads, 1.0)
    assert pre == pytest.approx(5.0)
    post = math.sqrt(float(np.sum(grads * grads)))
    assert post <= 1.0 + 1e-12


def test_log_prob_standard_normal_at_mean():
    lp = gaussian_log_prob(np.zeros(1), np.zeros(1), np.zeros(1))
    assert lp == pytest.approx(-0.9189385332046727, abs=1e-12)


def test_log_prob_at_mean_general():
    log_std = np.array([0.3, -0.7, 1.1])
    mean = np.array([1.0, 2.0, 3.0])
    lp = gaussian_log_prob(mean, log_std, mean)
    expected = -float(np.sum(log_std + 0.5 * math.log(2 * math.pi)))
    assert lp == pytest.approx(expected, abs=1e-12)


def test_log_prob_matches_high_precision_formula():
    from mpmath import mp, mpf, log, pi

    mp.dps = 50
    rng = np.random.default_rng(8)
    for _ in range(20):
        mean = rng.normal(size=3)
        log_std = rng.uniform(-1, 1, size=3)
        action = rng.normal(size=3)
        expected = mpf(0)
        for mu, ls, a in zip(mean, log_std, action):
            sigma = mp.e**mpf(ls)
            z = (mpf(a) - mpf(mu)) / sigma
            expected += -mpf("0.5") * z**2 - mpf(ls) - mpf("0.5") * log(2 * pi)
        lp = gaussian_log_prob(mean, log_std, action)
        assert abs(lp - float(expected)) < 1e-12


def test_sample_degenerate_std_collapses_to_mean():
    mean = np.array([0.4, -0.2])
    action = gaussian_sample(mean, np.full(2, -20.0), np.random.default_rng(0))
    np.testing.assert_allclose(action, mean, atol=1e-8)


def test_sample_deterministic_given_seed():
    mean, log_std = np.zeros(3), np.zeros(3)
    a1 = gaussian_sample(mean, log_std, np.random.default_rng(77))
    a2 = gaussian_sample(mean, log_std, np.random.default_rng(77))
    assert np.array_equal(a1, a2)


def test_sample_log_prob_consistency_exact():
    # Actions drawn one at a time, scored in one batch call afterwards (as
    # PPO's rollout does): each row has the bits of the one-action call.
    rng = np.random.default_rng(9)
    for n_actions in (2, 6):
        means = rng.normal(size=(300, n_actions))
        log_std = rng.uniform(-1, 0.5, size=n_actions)
        actions = np.array([gaussian_sample(mean, log_std, rng) for mean in means])
        batch = gaussian_log_prob(means, log_std, actions)
        assert batch.shape == (300,)
        assert batch.tolist() == [gaussian_log_prob(m, log_std, a) for m, a in zip(means, actions)]


def test_sample_moments_match_standard_normal():
    rng = np.random.default_rng(10)
    samples = np.array(
        [gaussian_sample(np.zeros(1), np.zeros(1), rng)[0] for _ in range(10_000)]
    )
    assert abs(samples.mean()) < 0.05
    assert abs(samples.var() - 1.0) < 0.1


def test_entropy_matches_monte_carlo():
    rng = np.random.default_rng(11)
    log_std = np.array([0.2, -0.3, 0.5])
    mean = np.zeros(3)
    analytic = gaussian_entropy(log_std)
    std = np.exp(log_std)
    z = rng.standard_normal((100_000, 3))
    actions = mean + std * z
    log_probs = gaussian_log_prob(np.broadcast_to(mean, actions.shape), log_std, actions)
    estimate = -float(np.mean(log_probs))
    assert abs(estimate - analytic) / abs(analytic) < 0.02


def test_gaussian_head_clamps():
    head = GaussianHead(np.array([-25.0, 5.0, 0.0]))
    head.clamp()
    np.testing.assert_array_equal(head.log_std, [-20.0, 2.0, 0.0])


def test_mlp_dict_round_trip():
    rng = np.random.default_rng(12)
    net = mlp_init([4, 6, 2], rng)
    restored = mlp_from_dict(mlp_to_dict(net))
    assert restored.layer_shapes == net.layer_shapes
    np.testing.assert_array_equal(net.params, restored.params)


def test_float32_weights_round_trip_bit_exact_at_their_shortest():
    # Sampled bit patterns, then subnormals, both zeros, and the largest and
    # smallest normals of both signs: each is written as its shortest repr.
    rng = np.random.default_rng(3)
    signs = rng.integers(0, 2, size=2_000, dtype=np.uint32) << np.uint32(31)
    subnormals = rng.integers(1, 2**23, size=2_000, dtype=np.uint32) | signs
    bits = np.concatenate([rng.integers(0, 2**32, size=20_000, dtype=np.uint32), subnormals])
    tiny, big = np.finfo(np.float32).tiny, np.finfo(np.float32).max
    special = np.array([0.0, -0.0, tiny, -tiny, big, -big, tiny / 2**23, -tiny / 2**23], np.float32)
    values = np.concatenate([bits.view(np.float32), special])
    values = values[np.isfinite(values)]
    net = Mlp([(values.size - 1, 1)], values)
    doc = json.loads(json.dumps(mlp_to_dict(net)))
    assert mlp_from_dict(doc).params.tobytes() == values.tobytes()
    written = doc["weights"][0] + doc["biases"][0]
    assert all(len(repr(v)) <= len(repr(float(x))) for v, x in zip(written, values.tolist()))


@pytest.mark.parametrize("tamper", [
    lambda doc: doc["weights"].pop(),  # fewer weights than layers
    lambda doc: doc["weights"][0].pop(),  # a weight of the wrong size
    lambda doc: doc["biases"].append([0.0, 0.0]),  # a bias too many
    lambda doc: doc["weights"][1].append(doc["weights"][0].pop()),  # right total, wrong split
    lambda doc: doc.update(layer_shapes=[[3, 4], [5, 2]]),  # layers that do not chain
    lambda doc: doc.update(layer_shapes=[]),
])
def test_mlp_from_dict_rejects_arrays_that_do_not_fit(tamper):
    doc = mlp_to_dict(mlp_init([3, 4, 2], np.random.default_rng(0)))
    tamper(doc)
    with pytest.raises(ValidationError):
        mlp_from_dict(doc)


# ------------------------------------------- flat parameter vectors

def flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def ppo_shaped_group(rng, log_std, sizes=(3, 8)):
    """A policy, Gaussian head and value net, as PPO's group holds them."""
    policy, value_net = mlp_init([*sizes, 2], rng), mlp_init([*sizes, 1], rng)
    return policy, GaussianHead(np.array(log_std, dtype=float)), value_net


def group_arrays(policy, head, value_net):
    """Copies of a PPO-shaped group's arrays, in the order ``pack`` lays them out."""
    return [a.copy() for a in (*policy.weights, *policy.biases, head.log_std,
                               *value_net.weights, *value_net.biases)]


def test_pack_keeps_values_and_makes_views():
    rng = np.random.default_rng(20)
    policy, head, value_net = ppo_shaped_group(rng, [0.1, -0.2])
    arrays = group_arrays(policy, head, value_net)
    group = pack([policy, head, value_net])
    assert np.array_equal(group, flat(arrays))
    for net in (policy, value_net):
        for part in (*net.weights, *net.biases):
            assert np.shares_memory(part, group)
    assert np.shares_memory(head.log_std, group)


def test_writing_the_group_vector_moves_the_forward_output():
    rng = np.random.default_rng(21)
    policy, head, value_net = ppo_shaped_group(rng, [0.0, 0.0])
    group = pack([policy, head, value_net])
    x = rng.normal(size=3)
    before = mlp_forward(value_net, x), mlp_forward(policy, x)
    group[-1] += 1.0  # the value net's output bias
    group[0] += 1.0  # the policy's first weight
    group[policy.params.size] = 0.5  # log_std[0]
    assert mlp_forward(value_net, x)[0] != before[0][0]
    assert not np.array_equal(mlp_forward(policy, x), before[1])
    assert head.log_std[0] == 0.5


def test_forward_never_mutates_its_input_and_backward_spares_input_and_output():
    rng = np.random.default_rng(22)
    net = mlp_init([3, 8, 8, 2], rng)
    x = rng.normal(size=(5, 3))
    snapshot = x.copy()
    mlp_forward(net, x)
    mlp_forward(net, x[0])
    out, cache = mlp_forward_cached(net, x)
    out_before = out.copy()
    mlp_backward_cached(net, cache, rng.normal(size=(5, 2)), np.empty_like(net.params))
    np.testing.assert_array_equal(x, snapshot)
    np.testing.assert_array_equal(cache[0], snapshot)
    np.testing.assert_array_equal(cache[-1], out_before)


def test_backward_cached_skips_what_the_caller_discards():
    rng = np.random.default_rng(23)
    net = mlp_init([4, 8, 8, 3], rng)
    x, output_grad = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
    wg, bg, gin = mlp_backward(net, x, output_grad)
    grads = np.empty_like(net.params)
    _, cache = mlp_forward_cached(net, x)
    assert mlp_backward_cached(net, cache, output_grad, grads, input_grad=False) is None
    assert np.array_equal(grads, flat(wg + bg))
    _, cache = mlp_forward_cached(net, x)
    assert np.array_equal(mlp_backward_cached(net, cache, output_grad), gin)


def test_copy_owns_its_parameters():
    net = mlp_init([3, 4, 2], np.random.default_rng(24))
    clone = net.copy()
    assert np.array_equal(clone.params, net.params)
    net.params += 1.0
    assert not np.shares_memory(clone.params, net.params)
    assert np.shares_memory(clone.weights[0], clone.params)
    assert not np.array_equal(clone.params, net.params)


def reference_adam_step(params, grads, first, second, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step over a list of arrays, array by array."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for p, g, m, v in zip(params, grads, first, second):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def test_adam_on_a_group_vector_is_bitwise_the_per_array_step():
    rng = np.random.default_rng(25)
    policy, head, value_net = ppo_shaped_group(rng, rng.normal(size=2), sizes=(5, 16, 16))
    arrays = group_arrays(policy, head, value_net)
    group = pack([policy, head, value_net])
    first, second = [np.zeros_like(a) for a in arrays], [np.zeros_like(a) for a in arrays]
    state = adam_init(group, lr=1e-3)
    for t in range(1, 9):
        grads = [rng.normal(scale=10.0 ** rng.integers(-4, 2), size=a.shape) for a in arrays]
        reference_adam_step(arrays, grads, first, second, t, lr=1e-3)
        adam_step(group, flat(grads), state)
        assert np.array_equal(group, flat(arrays))
    assert np.array_equal(state.first_moment, flat(first))
    assert np.array_equal(state.second_moment, flat(second))


@pytest.mark.parametrize("max_norm", [1e-3, 1e9])
def test_clip_grad_norm_is_one_sum_of_squares(max_norm):
    # The norm is one sum of the squares over the whole vector, in its dtype,
    # so it agrees with an exact sum to that dtype's rounding, and a clip
    # scales every entry by the one factor max_norm / norm.
    rng = np.random.default_rng(26)
    sizes = [7 * 64, 64 * 64, 64 * 2, 64, 64, 2, 2, 7 * 64, 64 * 64, 64, 64, 64, 1]
    for dtype in (np.float32, np.float64):
        eps = np.finfo(dtype).eps
        for _ in range(30):
            scales = np.repeat(10.0 ** rng.uniform(-3, 3, size=len(sizes)), sizes)
            vector = (rng.normal(size=sum(sizes)) * scales).astype(dtype)
            before = vector.copy()
            total = clip_grad_norm(vector, max_norm)
            assert total == math.sqrt(float((before * before).sum()))
            exact = math.sqrt(math.fsum(float(g) ** 2 for g in before))
            assert abs(total - exact) <= eps * math.log2(before.size) * exact
            expected = before * (max_norm / total) if total > max_norm else before
            assert vector.dtype == dtype and np.array_equal(vector, expected)
