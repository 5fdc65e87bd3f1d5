"""Network module: forward/backward exactness, Adam, training, checkpoints."""

import copy
import hashlib
import json
import struct
import sys
import warnings

import numpy as np
import pytest

from manifold_dsm.datasets import (
    DatasetSpec,
    circle_points,
    sample_vmf_mixture,
    symmetrize_components,
)
from manifold_dsm.diffusion import NoiseSchedule, dsm_target, mad_target, perturb
from manifold_dsm.errors import CheckpointFormatError, TrainingDivergedError
from manifold_dsm import rowblocks
from manifold_dsm.geometry import DiscreteSet, Sphere
from manifold_dsm.mlp import (
    MlpConfig,
    _embed_sigma,
    NetworkGrads,
    NetworkParams,
    adam_step,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)

RING = DiscreteSet(circle_points(8))
SCHEDULE = NoiseSchedule.geometric(1e-4, 2.0, 100)


def tiny_config(**kw):
    base = dict(input_dim=2, hidden_dim=8, num_hidden_layers=2)
    base.update(kw)
    return MlpConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        MlpConfig(input_dim=0)
    with pytest.raises(ValueError):
        MlpConfig(input_dim=2, hidden_dim=0)
    with pytest.raises(ValueError):
        MlpConfig(input_dim=2, num_hidden_layers=0)
    with pytest.raises(ValueError):
        MlpConfig(input_dim=2, activation="tanh")
    with pytest.raises(ValueError):
        MlpConfig(input_dim=2, sigma_embedding="nope")
    with pytest.raises(ValueError):
        MlpConfig(input_dim=2, sigma_embedding="fourier", fourier_dim=0)
    with pytest.raises(ValueError):
        MlpConfig(input_dim=2, sigma_embedding="fourier", fourier_dim=3)
    with pytest.raises(ValueError):
        MlpConfig(input_dim=2, sigma_embedding="log_sigma_concat", fourier_dim=4)


def test_layer_shapes_and_embed_dim():
    cfg = MlpConfig(input_dim=2)
    assert cfg.embed_dim == 1
    assert cfg.layer_shapes() == [(3, 128), (128, 128), (128, 128), (128, 2)]
    cfg = MlpConfig(input_dim=4, hidden_dim=16, num_hidden_layers=1,
                    sigma_embedding="fourier", fourier_dim=6)
    assert cfg.embed_dim == 6
    assert cfg.layer_shapes() == [(10, 16), (16, 4)]


def test_init_bounds_and_zero_final_layer():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(0))
    shapes = cfg.layer_shapes()
    for (fan_in, _), w, b in zip(shapes[:-1], params.weights[:-1], params.biases[:-1]):
        bound = 1.0 / np.sqrt(fan_in)
        assert np.all(np.abs(w) <= bound) and np.any(w != 0.0)
        assert np.all(np.abs(b) <= bound)
    assert np.all(params.weights[-1] == 0.0)
    assert np.all(params.biases[-1] == 0.0)
    assert params.step == 0
    # zero final layer means the fresh network is the zero field
    out = forward(params, cfg, np.random.default_rng(1).standard_normal((7, 2)), 0.5)
    assert np.all(out == 0.0)


def test_backward_zero_target_zero_net():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(2))
    x = np.random.default_rng(3).standard_normal((6, 2))
    loss, grads = backward(params, cfg, x, np.zeros((6, 2)), 0.7)
    assert loss == 0.0
    assert all(np.all(g == 0.0) for g in grads.weights + grads.biases)


def test_hand_computed_forward():
    cfg = MlpConfig(input_dim=1, hidden_dim=1, num_hidden_layers=1, activation="relu")
    params = init_params(cfg, np.random.default_rng(0))
    params.weights[0][:] = np.array([[2.0], [-1.0]])  # rows: x, log sigma
    params.biases[0][:] = np.array([0.5])
    params.weights[1][:] = np.array([[1.5]])
    params.biases[1][:] = np.array([-0.25])

    # sigma = 1 gives embedding log(1) = 0
    z0 = 0.8 * 2.0 + 0.0 * (-1.0) + 0.5
    expected = max(z0, 0.0) * 1.5 - 0.25
    out = forward(params, cfg, np.array([[0.8]]), 1.0)
    assert abs(out[0, 0] - expected) < 1e-15

    # negative pre-activation exercises the relu kink
    out = forward(params, cfg, np.array([[-0.8]]), 1.0)
    assert abs(out[0, 0] - (-0.25)) < 1e-15

    # sigma enters through the embedding row of the first weight matrix
    sig = 2.0
    z0 = 0.8 * 2.0 + np.log(sig) * (-1.0) + 0.5
    expected = max(z0, 0.0) * 1.5 - 0.25
    out = forward(params, cfg, np.array([[0.8]]), sig)
    assert abs(out[0, 0] - expected) < 1e-14


def randomized_params(cfg, seed):
    """Init with a non-zero final layer so outputs are nontrivial."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    params.weights[-1][:] = rng.uniform(-0.5, 0.5, params.weights[-1].shape)
    params.biases[-1][:] = rng.uniform(-0.5, 0.5, params.biases[-1].shape)
    return params


def test_antisymmetrized_exactly_odd():
    cfg = tiny_config(antisymmetrize=True)
    params = randomized_params(cfg, 4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 2))
    sig = np.exp(rng.uniform(-3, 0, 40))
    f_pos = forward(params, cfg, x, sig)
    f_neg = forward(params, cfg, -x, sig)
    # bit-exact oddness: the two branch evaluations swap roles under x -> -x
    assert np.array_equal(f_pos, -f_neg)
    assert np.all(forward(params, cfg, np.zeros((3, 2)), 0.5) == 0.0)
    # the plain network is not odd, so antisymmetrization is doing work
    cfg_plain = tiny_config()
    f_plain = forward(randomized_params(cfg_plain, 4), cfg_plain, x, sig)
    assert not np.allclose(f_plain, -forward(randomized_params(cfg_plain, 4), cfg_plain, -x, sig))


def test_forward_batch_matches_single_rows():
    cfg = tiny_config()
    params = randomized_params(cfg, 6)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((20, 2))
    sig = np.exp(rng.uniform(-4, 1, 20))
    batch = forward(params, cfg, x, sig)
    for i in range(20):
        row = forward(params, cfg, x[i], sig[i])
        # batch and single-row paths hit different BLAS kernels
        assert np.allclose(batch[i], row[0], rtol=0.0, atol=1e-14)


def test_forward_validation():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(8))
    with pytest.raises(ValueError):
        forward(params, cfg, np.zeros((2, 3)), 0.5)
    with pytest.raises(ValueError):
        forward(params, cfg, np.zeros((2, 2)), 0.0)
    with pytest.raises(ValueError):
        forward(params, cfg, np.zeros((2, 2)), -1.0)


def test_forward_nonfinite_aborts_with_layer_index():
    cfg = tiny_config(activation="relu")
    params = init_params(cfg, np.random.default_rng(9))
    params.weights[0][:] = 1e200
    params.weights[1][:] = 1e200
    with pytest.raises(TrainingDivergedError, match="layer 1"):
        with np.errstate(over="ignore"):
            forward(params, cfg, np.full((1, 2), 10.0), 1.0)


def test_forward_nonfinite_hidden_layer_aborts_with_finite_output():
    # layer 1 overflows to -inf, relu maps it to 0, and the zero final layer
    # gives a finite output: only a per-layer check can name the bad layer
    cfg = tiny_config(activation="relu")
    params = init_params(cfg, np.random.default_rng(9))
    params.weights[0][:] = 1.0
    params.biases[0][:] = 1.0
    params.weights[1][:] = -1e308
    x = np.ones((1, 2))
    with np.errstate(over="ignore"):
        h = np.array([[1.0, 1.0, 0.0]])  # x and log(sigma = 1)
        z1 = np.maximum(h @ params.weights[0] + params.biases[0], 0.0) @ params.weights[1]
        assert np.all(z1 == -np.inf)
        out = np.maximum(z1, 0.0) @ params.weights[2] + params.biases[2]
        assert np.all(np.isfinite(out))
        with pytest.raises(TrainingDivergedError, match="layer 1"):
            forward(params, cfg, x, 1.0)
        with pytest.raises(TrainingDivergedError, match="layer 1"):
            backward(params, cfg, x, np.zeros((1, 2)), 1.0)


def test_finite_layer_with_overflowing_sum_passes_silently():
    cfg = tiny_config(activation="relu")
    params = init_params(cfg, np.random.default_rng(9))
    params.weights[0][:] = 0.0
    params.biases[0][:] = 1e308  # each entry finite, their sum is not
    params.weights[1][:] = 0.0
    x = np.ones((4, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = forward(params, cfg, x, 1.0)
        loss, _ = backward(params, cfg, x, np.zeros((4, 2)), 1.0)
    assert np.all(out == 0.0)
    assert loss == 0.0


# ------------------------------------------------ reference implementation ----
# The allocating forward, backward and Adam that the in-place hot path
# replaced.  The module must reproduce them bit for bit.


def ref_act(kind, z):
    if kind == "relu":
        return np.maximum(z, 0.0)
    sg = 1.0 / (1.0 + np.exp(-z))
    return z * sg


def ref_act_grad(kind, z):
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    sg = 1.0 / (1.0 + np.exp(-z))
    return sg * (1.0 + z * (1.0 - sg))


def ref_plain_forward(params, config, h, keep):
    pre = []
    post = [h] if keep else None
    n_layers = len(params.weights)
    for i in range(n_layers):
        z = h @ params.weights[i] + params.biases[i]
        if not np.all(np.isfinite(z)):
            raise TrainingDivergedError(f"non-finite activations at layer {i}")
        if i < n_layers - 1:
            if keep:
                pre.append(z)
            h = ref_act(config.activation, z)
            if keep:
                post.append(h)
        else:
            h = z
    return (h, pre, post) if keep else h


def ref_forward(params, config, x, sigma):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    emb = _embed_sigma(config, sigma, x.shape[0])
    out = ref_plain_forward(params, config, np.concatenate([x, emb], axis=1), keep=False)
    if config.antisymmetrize:
        out_neg = ref_plain_forward(params, config, np.concatenate([-x, emb], axis=1), keep=False)
        out = 0.5 * (out - out_neg)
    return out


def ref_backprop_branch(params, config, pre, post, upstream, grads):
    g = upstream
    for i in reversed(range(len(params.weights))):
        grads.weights[i] += post[i].T @ g
        grads.biases[i] += g.sum(axis=0)
        if i > 0:
            g = (g @ params.weights[i].T) * ref_act_grad(config.activation, pre[i - 1])


def ref_backward(params, config, x, residual_target, sigma):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    t = np.atleast_2d(np.asarray(residual_target, dtype=np.float64))
    n = x.shape[0]
    emb = _embed_sigma(config, sigma, n)
    sig = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (n,))[:, None]
    out_pos, pre_pos, post_pos = ref_plain_forward(
        params, config, np.concatenate([x, emb], axis=1), keep=True
    )
    if config.antisymmetrize:
        out_neg, pre_neg, post_neg = ref_plain_forward(
            params, config, np.concatenate([-x, emb], axis=1), keep=True
        )
        out = 0.5 * (out_pos - out_neg)
    else:
        out = out_pos
    resid = sig * out - t
    loss = float(np.mean(np.sum(resid * resid, axis=1)))
    d_out = 2.0 * sig * resid / n
    grads = NetworkGrads(
        weights=[np.zeros_like(w) for w in params.weights],
        biases=[np.zeros_like(b) for b in params.biases],
    )
    if config.antisymmetrize:
        ref_backprop_branch(params, config, pre_pos, post_pos, 0.5 * d_out, grads)
        ref_backprop_branch(params, config, pre_neg, post_neg, -0.5 * d_out, grads)
    else:
        ref_backprop_branch(params, config, pre_pos, post_pos, d_out, grads)
    return loss, grads


def ref_adam_step(params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    t = params.step + 1
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t

    def upd(p, g, m, v):
        m2 = beta1 * m + (1.0 - beta1) * g
        v2 = beta2 * v + (1.0 - beta2) * g * g
        p2 = p - lr * (m2 / c1) / (np.sqrt(v2 / c2) + eps)
        return p2, m2, v2

    new_w, new_mw, new_vw = [], [], []
    for p, g, m, v in zip(params.weights, grads.weights, params.m_w, params.v_w):
        p2, m2, v2 = upd(p, g, m, v)
        new_w.append(p2)
        new_mw.append(m2)
        new_vw.append(v2)
    new_b, new_mb, new_vb = [], [], []
    for p, g, m, v in zip(params.biases, grads.biases, params.m_b, params.v_b):
        p2, m2, v2 = upd(p, g, m, v)
        new_b.append(p2)
        new_mb.append(m2)
        new_vb.append(v2)
    return NetworkParams(
        weights=new_w, biases=new_b, m_w=new_mw, v_w=new_vw, m_b=new_mb, v_b=new_vb, step=t
    )


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()  # also tells -0.0 from 0.0


def state_arrays(params):
    return params.weights + params.biases + params.m_w + params.v_w + params.m_b + params.v_b


NET_VARIANTS = pytest.mark.parametrize(
    "activation,antisym,embedding,fdim",
    [
        (act, anti, emb, fdim)
        for act in ("relu", "silu")
        for anti in (False, True)
        for emb, fdim in (("log_sigma_concat", 0), ("fourier", 4))
    ],
)


@NET_VARIANTS
@pytest.mark.parametrize("rows", [1, 7, 512])
def test_forward_and_backward_match_reference_bitwise(activation, antisym, embedding, fdim, rows):
    cfg = tiny_config(hidden_dim=16, activation=activation, antisymmetrize=antisym,
                      sigma_embedding=embedding, fourier_dim=fdim)
    params = randomized_params(cfg, 40)
    rng = np.random.default_rng(41)
    x = rng.standard_normal((rows, 2))
    sig = np.exp(rng.uniform(-6.0, 1.0, rows))
    target = rng.standard_normal((rows, 2))

    assert_same_bits(forward(params, cfg, x, sig), ref_forward(params, cfg, x, sig))
    loss, grads = backward(params, cfg, x, target, sig)
    ref_loss, ref_grads = ref_backward(params, cfg, x, target, sig)
    assert_same_bits(loss, ref_loss)
    for a, b in zip(grads.weights + grads.biases, ref_grads.weights + ref_grads.biases):
        assert_same_bits(a, b)


@NET_VARIANTS
def test_chained_adam_steps_match_reference_bitwise(activation, antisym, embedding, fdim):
    cfg = tiny_config(hidden_dim=16, activation=activation, antisymmetrize=antisym,
                      sigma_embedding=embedding, fourier_dim=fdim)
    params = randomized_params(cfg, 42)
    ref = copy.deepcopy(params)
    rng = np.random.default_rng(43)
    for _ in range(5):
        x = rng.standard_normal((64, 2))
        sig = np.exp(rng.uniform(-6.0, 1.0, 64))
        target = rng.standard_normal((64, 2))
        _, grads = backward(params, cfg, x, target, sig)
        _, ref_grads = ref_backward(ref, cfg, x, target, sig)
        stepped = adam_step(params, grads, lr=1e-2)
        assert stepped is params
        ref = ref_adam_step(ref, ref_grads, lr=1e-2)
    assert params.step == ref.step == 5
    for a, b in zip(state_arrays(params), state_arrays(ref)):
        assert_same_bits(a, b)


# Row counts around the 512-row block: one row, a block and a row either side,
# a one-row tail (1025), many blocks, and a 10k sampling batch with and
# without a one-row tail.
BLOCK_EDGE_ROWS = [1, 2, 511, 512, 513, 1025, 4096, 10000, 10001]


def forward_bytes_by_workers(monkeypatch, params, cfg, x, sig):
    """Forward output bytes at the process's worker count, one worker and three."""
    out = [forward(params, cfg, x, sig).tobytes()]
    for workers in (1, 3):
        monkeypatch.setattr(rowblocks, "_WORKERS", workers)
        out.append(forward(params, cfg, x, sig).tobytes())
    return out


@NET_VARIANTS
@pytest.mark.parametrize("rows", BLOCK_EDGE_ROWS)
def test_blocked_forward_matches_reference_bitwise(monkeypatch, activation, antisym,
                                                   embedding, fdim, rows):
    cfg = tiny_config(hidden_dim=16, num_hidden_layers=3, activation=activation,
                      antisymmetrize=antisym, sigma_embedding=embedding, fourier_dim=fdim)
    params = randomized_params(cfg, 44)
    rng = np.random.default_rng(45)
    x = rng.standard_normal((rows, 2))
    sig = np.exp(rng.uniform(-6.0, 1.0, rows))
    want = ref_forward(params, cfg, x, sig).tobytes()
    assert forward_bytes_by_workers(monkeypatch, params, cfg, x, sig) == [want] * 3


@pytest.mark.parametrize(
    "model,dim",
    [(dict(hidden_dim=128, activation="relu"), 2),
     (dict(hidden_dim=64, activation="silu", antisymmetrize=True), 4)],
    ids=["ring_relu128", "s3_silu64_antisym"],
)
def test_blocked_forward_matches_reference_at_sampling_size(monkeypatch, model, dim):
    cfg = MlpConfig(input_dim=dim, num_hidden_layers=3, **model)
    params = randomized_params(cfg, 46)
    x = np.random.default_rng(47).standard_normal((10001, dim))
    want = ref_forward(params, cfg, x, 0.3).tobytes()
    assert forward_bytes_by_workers(monkeypatch, params, cfg, x, 0.3) == [want] * 3


def diverging_params():
    """relu 2 -> 4 x 3 -> 2 net: x = (1e200, 0) stays finite through layers 0
    and 1 and reaches -inf at layer 2; a nan input fails at layer 0."""
    cfg = tiny_config(hidden_dim=4, num_hidden_layers=3, activation="relu")
    params = init_params(cfg, np.random.default_rng(12))
    for w, b in zip(params.weights, params.biases):
        w[:] = 1.0
        b[:] = 0.0
    params.weights[2][:] = -1e108
    return cfg, params


@pytest.mark.parametrize("workers", [1, 3])
def test_blocked_forward_reports_the_lowest_failing_layer(monkeypatch, workers):
    monkeypatch.setattr(rowblocks, "_WORKERS", workers)
    cfg, params = diverging_params()
    x = np.zeros((1025, 2))
    x[0, 0] = 1e200  # first block: -inf at layer 2
    with np.errstate(over="ignore", invalid="ignore"):
        for fn in (forward, ref_forward):
            with pytest.raises(TrainingDivergedError, match="layer 2"):
                fn(params, cfg, x, 1.0)
        x[-1, 0] = np.nan  # last block: nan from layer 0 on
        for fn in (forward, ref_forward):
            with pytest.raises(TrainingDivergedError, match="non-finite activations at layer 0"):
                fn(params, cfg, x, 1.0)


def test_caller_errstate_applies_in_pool_workers(monkeypatch):
    # only the last of three blocks overflows in silu's exp, and with three
    # workers that block runs on a pool thread
    monkeypatch.setattr(rowblocks, "_WORKERS", 3)
    cfg = tiny_config(activation="silu")
    params = init_params(cfg, np.random.default_rng(13))
    params.weights[0][:] = -1.0
    params.biases[0][:] = 0.0
    x = np.full((1536, 2), 0.1)
    x[-300:] = 1000.0
    with np.errstate(over="raise"):
        for fn in (forward, ref_forward):
            with pytest.raises(FloatingPointError):
                fn(params, cfg, x, 1.0)


def test_blocked_forward_is_stable_under_thread_switching(monkeypatch):
    # more workers than CPUs and a short switch interval: a row written by
    # the wrong worker or lost between shards would change the bytes
    monkeypatch.setattr(rowblocks, "_WORKERS", 8)
    monkeypatch.setattr(rowblocks, "_pool", None)
    cfg = tiny_config(hidden_dim=16, activation="silu", antisymmetrize=True)
    params = randomized_params(cfg, 48)
    x = np.random.default_rng(49).standard_normal((10001, 2))
    want = ref_forward(params, cfg, x, 0.2).tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            assert forward(params, cfg, x, 0.2).tobytes() == want
    finally:
        sys.setswitchinterval(interval)


def loss_of(params, cfg, x, target, sig):
    loss, _ = backward(params, cfg, x, target, sig)
    return loss


@pytest.mark.parametrize("antisym", [False, True])
@pytest.mark.parametrize("embedding,fdim", [("log_sigma_concat", 0), ("fourier", 4)])
@pytest.mark.parametrize("loss_kind", ["dsm", "mad"])
def test_gradients_match_finite_differences(antisym, embedding, fdim, loss_kind):
    cfg = tiny_config(antisymmetrize=antisym, sigma_embedding=embedding, fourier_dim=fdim)
    params = randomized_params(cfg, 10)
    rng = np.random.default_rng(11)
    x0 = RING.points[rng.integers(8, size=5)]
    sig = SCHEDULE.sigmas[np.array([10, 30, 50, 70, 90])]
    xt = perturb(x0, sig, rng)
    if loss_kind == "dsm":
        target = dsm_target(x0, xt, sig)
    else:
        target = mad_target(x0, xt, sig, RING)

    _, grads = backward(params, cfg, xt, target, sig)
    h = 1e-4
    worst = 0.0
    for arrs, g_arrs in ((params.weights, grads.weights), (params.biases, grads.biases)):
        for arr, g_arr in zip(arrs, g_arrs):
            flat, g_flat = arr.ravel(), g_arr.ravel()
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + h
                up = loss_of(params, cfg, xt, target, sig)
                flat[k] = keep - h
                down = loss_of(params, cfg, xt, target, sig)
                flat[k] = keep
                fd = (up - down) / (2.0 * h)
                denom = max(abs(fd), abs(g_flat[k]), 1e-10)
                worst = max(worst, abs(fd - g_flat[k]) / denom)
    assert worst < 1e-3


def one_param_state(value):
    w = [np.array([[value]])]
    b = [np.array([0.25])]
    return NetworkParams(
        weights=w,
        biases=b,
        m_w=[np.zeros((1, 1))],
        v_w=[np.zeros((1, 1))],
        m_b=[np.zeros(1)],
        v_b=[np.zeros(1)],
    )


def test_adam_zero_gradient_is_identity():
    params = one_param_state(0.5)
    grads = NetworkGrads(weights=[np.zeros((1, 1))], biases=[np.zeros(1)])
    out = adam_step(params, grads, lr=0.01)
    assert out.weights[0][0, 0] == 0.5
    assert out.biases[0][0] == 0.25
    assert out.step == 1


def test_adam_first_step_closed_form():
    g = 0.3
    params = one_param_state(0.5)
    grads = NetworkGrads(weights=[np.array([[g]])], biases=[np.zeros(1)])
    out = adam_step(params, grads, lr=0.01)
    # bias correction cancels at t=1: update is lr * g / (|g| + eps)
    assert abs(out.weights[0][0, 0] - (0.5 - 0.01 * g / (g + 1e-8))) < 1e-15
    assert abs(out.m_w[0][0, 0] - 0.1 * g) < 1e-17
    assert abs(out.v_w[0][0, 0] - 0.001 * g * g) < 1e-18
    assert out.biases[0][0] == 0.25


def test_adam_updates_params_built_without_moments():
    grads = NetworkGrads(weights=[np.array([[0.3]])], biases=[np.array([-0.2])])
    bare = NetworkParams(weights=[np.array([[0.5]])], biases=[np.array([0.25])])
    out = adam_step(bare, grads, lr=0.01)
    ref = adam_step(one_param_state(0.5), grads, lr=0.01)
    assert out.step == 1
    assert out.weights[0][0, 0] != 0.5
    for a, b in zip(state_arrays(out), state_arrays(ref), strict=True):
        assert np.array_equal(a, b)


def test_adam_rejects_mismatched_lists():
    grads = NetworkGrads(weights=[np.array([[0.3]])], biases=[np.zeros(1)])
    params = one_param_state(0.5)
    params.m_w = []
    with pytest.raises(ValueError):
        adam_step(params, grads, lr=0.01)
    two_layers = NetworkGrads(weights=grads.weights * 2, biases=grads.biases * 2)
    with pytest.raises(ValueError):
        adam_step(one_param_state(0.5), two_layers, lr=0.01)
    # a list that falls short at layer 1 leaves layer 0 untouched as well
    params = NetworkParams(weights=[np.ones((1, 1)), np.ones((1, 1))],
                           biases=[np.zeros(1), np.zeros(1)])
    params.m_w = params.m_w[:1]

    def arrays(p):
        return [a for group in (p.weights, p.biases, p.m_w, p.v_w, p.m_b, p.v_b) for a in group]

    before = [a.copy() for a in arrays(params)]
    grads = NetworkGrads(weights=[np.ones((1, 1))] * 2, biases=[np.ones(1)] * 2)
    with pytest.raises(ValueError):
        adam_step(params, grads, lr=0.1)
    assert all(np.array_equal(a, b) for a, b in zip(arrays(params), before, strict=True))
    assert params.step == 0


def test_adam_converges_on_least_squares_toy():
    # min over W of ||W x - b||^2 via manually supplied gradients
    x = np.array([1.0, 0.5])
    b = np.array([0.3, -0.2])
    params = NetworkParams(
        weights=[np.zeros((2, 2))],
        biases=[np.zeros(2)],
        m_w=[np.zeros((2, 2))],
        v_w=[np.zeros((2, 2))],
        m_b=[np.zeros(2)],
        v_b=[np.zeros(2)],
    )
    first = None
    for _ in range(200):
        resid = params.weights[0].T @ x - b
        if first is None:
            first = float(np.linalg.norm(resid))
        g = np.outer(x, 2.0 * resid)
        params = adam_step(
            params, NetworkGrads(weights=[g], biases=[np.zeros(2)]), lr=0.05
        )
    final = float(np.linalg.norm(params.weights[0].T @ x - b))
    assert first > 0.3
    assert final < 1e-3


def test_train_zero_steps_matches_init():
    cfg = tiny_config()
    data = RING.points.copy()
    params, curve = train(cfg, "dsm", data, RING, SCHEDULE,
                          steps=0, batch_size=4, lr=1e-3, seed=21)
    expected = init_params(cfg, np.random.default_rng(21))
    assert curve.shape == (0,)
    for a, b in zip(params.weights + params.biases, expected.weights + expected.biases):
        assert np.array_equal(a, b)


def test_train_determinism_and_validation():
    cfg = tiny_config()
    data = RING.points.copy()
    p1, c1 = train(cfg, "mad", data, RING, SCHEDULE, steps=30, batch_size=8, lr=1e-3, seed=5)
    p2, c2 = train(cfg, "mad", data, RING, SCHEDULE, steps=30, batch_size=8, lr=1e-3, seed=5)
    assert np.array_equal(c1, c2)
    for a, b in zip(p1.weights + p1.biases, p2.weights + p2.biases):
        assert np.array_equal(a, b)
    _, c3 = train(cfg, "mad", data, RING, SCHEDULE, steps=30, batch_size=8, lr=1e-3, seed=6)
    assert not np.array_equal(c1, c3)

    with pytest.raises(ValueError):
        train(cfg, "huber", data, RING, SCHEDULE, steps=1, batch_size=4, lr=1e-3, seed=0)
    with pytest.raises(ValueError):
        train(cfg, "dsm", np.empty((0, 2)), RING, SCHEDULE, steps=1, batch_size=4, lr=1e-3, seed=0)
    with pytest.raises(ValueError):
        train(cfg, "dsm", np.zeros((4, 3)), RING, SCHEDULE, steps=1, batch_size=4, lr=1e-3, seed=0)


def test_train_divergence_aborts():
    # an absurd lr blows the final layer up after one step; the squared
    # residual then overflows and the loop aborts with the step index
    cfg = tiny_config()
    with pytest.raises(TrainingDivergedError) as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            train(cfg, "dsm", RING.points.copy(), RING, SCHEDULE,
                  steps=10, batch_size=8, lr=1e154, seed=0)
    assert exc.value.step is not None


UNIFORM_RING_DATA = circle_points(8)[np.tile(np.arange(8), 64)]


def test_mad_starts_where_dsm_cannot_reach_on_uniform_ring():
    """On the uniform ring the base score is already the exact score, so a
    fresh MAD model (zero final layer) starts at the irreducible
    conditional-variance floor of the schedule and stays there, while DSM
    starts at the raw noise energy (ambient dim = 2) and descends slowly:
    its target has magnitude 1/sigma, which small-sigma scales put far
    outside the reach of freshly initialized weights."""
    sch = NoiseSchedule.geometric(0.05, 2.0, 100)
    cfg = MlpConfig(input_dim=2, hidden_dim=64, num_hidden_layers=3)
    _, dsm_curve = train(cfg, "dsm", UNIFORM_RING_DATA, RING, sch,
                         steps=700, batch_size=256, lr=1e-2, seed=0)
    _, mad_curve = train(cfg, "mad", UNIFORM_RING_DATA, RING, sch,
                         steps=700, batch_size=256, lr=1e-2, seed=0)
    dsm_first, dsm_last = dsm_curve[:100].mean(), dsm_curve[-100:].mean()
    mad_first, mad_last = mad_curve[:100].mean(), mad_curve[-100:].mean()

    assert dsm_first > 1.2  # fresh zero output scores loss near E||eps||^2
    assert dsm_first / dsm_last > 1.4  # clear descent
    # the floor for this schedule is about 0.54; MAD opens there and holds
    assert mad_first < 0.6
    assert abs(mad_first - mad_last) < 0.1
    # a fresh MAD model beats the 700-step DSM model
    assert mad_first < dsm_last


def test_mad_loss_below_dsm_on_sphere_mixture():
    # matched-seed short run on a parity-symmetric S^3 mixture
    comps = symmetrize_components(
        (((1.0, 0.0, 0.0, 0.0), 40.0, 0.5), ((0.0, 1.0, 0.0, 0.0), 40.0, 0.5))
    )
    spec = DatasetSpec(kind="vmf_mixture", manifold_n=3, components=comps)
    data = sample_vmf_mixture(spec, 4096, seed=0)
    cfg = MlpConfig(input_dim=4, hidden_dim=64, num_hidden_layers=3, antisymmetrize=True)
    manifold = Sphere(3)
    schedule = NoiseSchedule.geometric(1e-4, 2.0, 100)
    _, c_mad = train(cfg, "mad", data, manifold, schedule,
                     steps=350, batch_size=128, lr=2e-3, seed=1)
    _, c_dsm = train(cfg, "dsm", data, manifold, schedule,
                     steps=350, batch_size=128, lr=2e-3, seed=1)
    assert c_mad[-100:].mean() < c_dsm[-100:].mean()


def test_checkpoint_roundtrip(tmp_path):
    cfg = tiny_config(antisymmetrize=True)
    params = randomized_params(cfg, 30)
    extras = {"loss_kind": "mad", "sigma_max": 2.0, "note": "roundtrip"}
    path = tmp_path / "net.bin"
    save_checkpoint(path, params, cfg, extras)
    loaded, cfg2, extras2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert extras2 == extras
    for a, b in zip(loaded.weights + loaded.biases, params.weights + params.biases):
        assert np.array_equal(a, b)
    # Adam state is not persisted
    assert loaded.step == 0
    assert all(np.all(m == 0.0) for m in loaded.m_w + loaded.v_w + loaded.m_b + loaded.v_b)
    # identical outputs after the roundtrip
    x = np.random.default_rng(31).standard_normal((5, 2))
    assert np.array_equal(forward(params, cfg, x, 0.3), forward(loaded, cfg2, x, 0.3))


def rebuild_blob(blob, version=None, header_edit=None, extra_payload=b""):
    """Re-assemble a checkpoint blob with targeted corruption, fixing the
    checksum so only the intended defect is visible."""
    magic = blob[:8]
    ver, hdr_len = struct.unpack_from("<II", blob, 8)
    header = blob[16 : 16 + hdr_len]
    body = blob[16 + hdr_len : -32]
    if version is not None:
        ver = version
    if header_edit is not None:
        obj = json.loads(header.decode("utf-8"))
        header_edit(obj)
        header = json.dumps(obj, sort_keys=True).encode("utf-8")
    body += extra_payload
    out = magic + struct.pack("<II", ver, len(header)) + header + body
    return out + hashlib.sha256(out).digest()


def test_checkpoint_corruption_cases(tmp_path):
    cfg = tiny_config()
    params = randomized_params(cfg, 32)
    path = tmp_path / "net.bin"
    save_checkpoint(path, params, cfg, {"k": 1})
    blob = path.read_bytes()

    bad = tmp_path / "bad.bin"

    bad.write_bytes(blob[:10])
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_checkpoint(bad)

    bad.write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(bad)

    flipped = bytearray(blob)
    flipped[len(blob) // 2] ^= 0xFF
    bad.write_bytes(bytes(flipped))
    with pytest.raises(CheckpointFormatError, match="checksum"):
        load_checkpoint(bad)

    bad.write_bytes(rebuild_blob(blob, version=99))
    with pytest.raises(CheckpointFormatError, match="version"):
        load_checkpoint(bad)

    bad.write_bytes(rebuild_blob(blob, extra_payload=b"\x00" * 16))
    with pytest.raises(CheckpointFormatError, match="trailing"):
        load_checkpoint(bad)

    def wrong_shapes(obj):
        obj["layer_shapes"][0][0] += 1

    bad.write_bytes(rebuild_blob(blob, header_edit=wrong_shapes))
    with pytest.raises(CheckpointFormatError, match="shapes"):
        load_checkpoint(bad)

    def broken_config(obj):
        del obj["config"]["input_dim"]

    bad.write_bytes(rebuild_blob(blob, header_edit=broken_config))
    with pytest.raises(CheckpointFormatError, match="header"):
        load_checkpoint(bad)
