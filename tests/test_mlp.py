"""Network module: forward/backward exactness, Adam, training, checkpoints."""

import copy
import dataclasses
import hashlib
import json
import struct
import sys
import threading
import types
import warnings
import weakref

import mpmath
import numpy as np
import pytest

from manifold_dsm.datasets import (
    DatasetSpec,
    circle_points,
    sample_discrete,
    sample_vmf_mixture,
    skewed_pmf,
)
from manifold_dsm.diffusion import NoiseSchedule, dsm_target, mad_target, perturb
from manifold_dsm.errors import CheckpointFormatError, TrainingDivergedError
from manifold_dsm import mlp, rowblocks
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

    # the forward runs in float32: every operand is cast, every step rounds there
    f = np.float32

    # sigma = 1 gives embedding log(1) = 0
    z0 = f(0.8) * f(2.0) + f(0.0) * f(-1.0) + f(0.5)
    expected = max(z0, f(0.0)) * f(1.5) + f(-0.25)
    out = forward(params, cfg, np.array([[0.8]]), 1.0)
    assert out.dtype == np.float64 and out[0, 0] == expected

    # negative pre-activation exercises the relu kink
    out = forward(params, cfg, np.array([[-0.8]]), 1.0)
    assert out[0, 0] == f(0.0) * f(1.5) + f(-0.25)

    # sigma enters through the embedding row of the first weight matrix
    sig = 2.0
    z0 = f(0.8) * f(2.0) + f(np.log(sig)) * f(-1.0) + f(0.5)
    expected = max(z0, f(0.0)) * f(1.5) + f(-0.25)
    out = forward(params, cfg, np.array([[0.8]]), sig)
    assert out[0, 0] == expected


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
        # batch and single-row paths hit different BLAS kernels: within four
        # float32 ulps of the batch value
        ulp = np.spacing(np.abs(batch[i]).astype(np.float32))
        assert np.all(np.abs(batch[i] - row[0]) <= 4 * ulp)


def test_forward_validation():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(8))
    with pytest.raises(ValueError):
        forward(params, cfg, np.zeros((2, 3)), 0.5)
    with pytest.raises(ValueError):
        forward(params, cfg, np.zeros((2, 2)), 0.0)
    with pytest.raises(ValueError):
        forward(params, cfg, np.zeros((2, 2)), -1.0)


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_forward_and_backward_reject_bad_sigma(sigma):
    # like every score and target, not as a non-finite layer-0 activation
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(8))
    x = np.zeros((2, 2))
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        forward(params, cfg, x, sigma)
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        backward(params, cfg, x, x, np.array([0.5, sigma]))


def test_forward_nonfinite_aborts_with_layer_index():
    cfg = tiny_config(activation="relu")
    params = init_params(cfg, np.random.default_rng(9))
    params.weights[0][:] = 1e20  # layer 0 stays within float32's range, layer 1 leaves it
    params.weights[1][:] = 1e20
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
    # layer 0 holds 3e38 in every entry: finite in float32, but the sum of a
    # row is not.  The forward's float32 layer passes its check, and
    # backward's float64 layer casts to finite float32 products
    cfg = tiny_config(activation="relu")
    params = init_params(cfg, np.random.default_rng(9))
    params.weights[0][:] = 0.0
    params.weights[1][:] = 0.0
    params.biases[0][:] = 3e38
    x = np.ones((4, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = forward(params, cfg, x, 1.0)
        loss, grads = backward(params, cfg, x, np.zeros((4, 2)), 1.0)
    assert np.all(out == 0.0)
    assert loss == 0.0
    assert np.all(grads.flat == 0.0)


# ------------------------------------------------ reference implementation ----
# The allocating forward, backward and Adam that the in-place hot path
# replaced.  The module must reproduce them bit for bit.


def ref_act(kind, z):
    if kind == "relu":
        return np.maximum(z, 0.0)
    h = z * 0.5
    return h * (np.tanh(h) + 1.0)


def ref_act_grad(kind, z):
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    h = z * 0.5
    sg = np.tanh(h) + 1.0
    return (z - h * sg + 1.0) * sg * 0.5


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


def ref_grid(n):
    """The forward's blocks: ceil(n / 512) near-equal contiguous pieces of n rows."""
    parts = -(-n // 512)
    return [(n * k // parts, n * (k + 1) // parts) for k in range(parts)]


def ref_blocks(params, config, h, neg=None):
    """One allocating pass per block of `ref_grid` on the block's rows of h,
    stacked over its rows of neg when given, whose output is then the top
    half less the bottom half, halved; a failure names the lowest failing
    layer over all blocks."""
    outs, failed = [], []
    for start, stop in ref_grid(h.shape[0]):
        block = h[start:stop] if neg is None else np.concatenate([h[start:stop], neg[start:stop]])
        try:
            out = ref_plain_forward(params, config, block, keep=False)
        except TrainingDivergedError as exc:
            failed.append(int(str(exc).rsplit(" ", 1)[1]))
            continue
        outs.append(out if neg is None else 0.5 * (out[: stop - start] - out[stop - start :]))
    if failed:
        raise TrainingDivergedError(f"non-finite activations at layer {min(failed)}")
    return np.concatenate(outs) if outs else np.empty((0, config.input_dim), dtype=h.dtype)


def ref_inputs32(params, config, x, sigma):
    """float32 casts of the parameters, [x || embed] and [-x || embed]."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    emb = _embed_sigma(config, sigma, x.shape[0])
    with np.errstate(over="ignore"):  # past float32's range: inf
        p32 = NetworkParams(params.flat.astype(np.float32), params.shapes)
        pos = np.concatenate([x, emb], axis=1).astype(np.float32)
        neg = np.concatenate([-x, emb], axis=1).astype(np.float32)
    return p32, pos, neg


def ref_forward(params, config, x, sigma):
    """The forward's reference: `ref_blocks` in float32, from the float32-cast
    parameters and [x || embed], stacked per block over [-x || embed] with
    antisymmetrize.  Returns float64."""
    p32, pos, neg = ref_inputs32(params, config, x, sigma)
    return ref_blocks(p32, config, pos, neg if config.antisymmetrize else None).astype(np.float64)


def ref_forward_branches(params, config, x, sigma):
    """The forward's second reference, one branch at a time: `ref_blocks` on
    [x || embed], then, with antisymmetrize, on [-x || embed]; the positive
    branch fails first.  Bit for bit the stacked reference at n >= 2, where
    no block runs as a one-row product.  Returns float64."""
    p32, pos, neg = ref_inputs32(params, config, x, sigma)
    out = ref_blocks(p32, config, pos)
    if config.antisymmetrize:
        out = 0.5 * (out - ref_blocks(p32, config, neg))
    return out.astype(np.float64)


def ref_backprop_branch(params, config, pre, post, upstream, grads, dtype):
    """Add one branch's gradients into the float64 `grads`, from products in
    `dtype` on casts of the weights, the layer inputs `post` and the float64
    `upstream`; the activation derivative is float64, cast to dtype."""
    with np.errstate(over="ignore"):  # past float32's range: inf
        w = [a.astype(dtype) for a in params.weights]
        g = upstream.astype(dtype)
        for i in reversed(range(len(w))):
            grads.weights[i] += post[i].astype(dtype).T @ g
            grads.biases[i] += g.sum(axis=0)
            if i > 0:
                g = (g @ w[i].T) * ref_act_grad(config.activation, pre[i - 1]).astype(dtype)


def ref_backward(params, config, x, residual_target, sigma, dtype=np.float32):
    """The backward's reference: one float64 forward on [x || embed], stacked
    over [-x || embed] with antisymmetrize (a failure names its first
    non-finite layer), the loss and output gradient g, then products in
    dtype from g, stacked over -g and halved with antisymmetrize, with each
    layer's weight product and bias sum taken per half, positive half first.
    float64 gives the all-float64 backward that the float32 products
    replaced."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    t = np.atleast_2d(np.asarray(residual_target, dtype=np.float64))
    n = x.shape[0]
    emb = _embed_sigma(config, sigma, n)
    sig = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (n,))[:, None]
    pos = np.concatenate([x, emb], axis=1)
    scales = (0.5, -0.5) if config.antisymmetrize else (1.0,)
    h = np.concatenate([pos, np.concatenate([-x, emb], axis=1)]) if config.antisymmetrize else pos
    out, pre, post = ref_plain_forward(params, config, h, keep=True)
    if config.antisymmetrize:
        out = 0.5 * (out[:n] - out[n:])
    resid = sig * out - t
    loss = float(np.mean(np.sum(resid * resid, axis=1)))
    d_out = 2.0 * sig * resid / n
    grads = NetworkGrads(np.zeros_like(params.flat), params.shapes)
    halves = [slice(k * n, (k + 1) * n) for k in range(len(scales))]
    with np.errstate(over="ignore"):  # past float32's range: inf
        w = [a.astype(dtype) for a in params.weights]
        g = np.concatenate([scale * d_out for scale in scales]).astype(dtype)
        for i in reversed(range(len(w))):
            inputs = post[i].astype(dtype)
            for rows in halves:
                grads.weights[i] += inputs[rows].T @ g[rows]
                grads.biases[i] += g[rows].sum(axis=0)
            if i > 0:
                g = (g @ w[i].T) * ref_act_grad(config.activation, pre[i - 1]).astype(dtype)
    return loss, grads


def ref_backward_branches(params, config, x, residual_target, sigma, dtype=np.float32):
    """The backward's second reference, one branch at a time: the float64
    forward, loss and output gradient, then `ref_backprop_branch` with
    products in dtype, positive branch first.  Bit for bit the stacked
    reference at n >= 2."""
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
    grads = NetworkGrads(np.zeros_like(params.flat), params.shapes)
    if config.antisymmetrize:
        ref_backprop_branch(params, config, pre_pos, post_pos, 0.5 * d_out, grads, dtype)
        ref_backprop_branch(params, config, pre_neg, post_neg, -0.5 * d_out, grads, dtype)
    else:
        ref_backprop_branch(params, config, pre_pos, post_pos, d_out, grads, dtype)
    return loss, grads


def ref_adam_step(params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    t = params.step + 1
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    g = grads.flat
    m = beta1 * params.m + (1.0 - beta1) * g
    v = beta2 * params.v + (1.0 - beta2) * g * g
    flat = params.flat - lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return NetworkParams(flat, params.shapes, m=m, v=v, step=t)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()  # also tells -0.0 from 0.0


def state_arrays(params):
    return [params.flat, params.m, params.v]


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


@pytest.mark.parametrize("rows", [2, 7, 128, 512, 4096])
def test_stacked_and_per_branch_references_agree_bitwise(rows):
    # one pass over [x || e; -x || e] rounds as a pass per branch does once
    # no product runs on a single row (OpenBLAS runs a one-row GEMM as a GEMV)
    params, x, target, sig = backward_case(S3_SILU64_ANTISYM, rows, 47)
    assert_same_bits(ref_forward(params, S3_SILU64_ANTISYM, x, sig),
                     ref_forward_branches(params, S3_SILU64_ANTISYM, x, sig))
    for dtype in (np.float32, np.float64):
        assert_same_loss_and_grads(
            ref_backward(params, S3_SILU64_ANTISYM, x, target, sig, dtype),
            ref_backward_branches(params, S3_SILU64_ANTISYM, x, target, sig, dtype))


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


@NET_VARIANTS
@pytest.mark.parametrize("rows", [1, 7, 512])
def test_backward_loss_matches_the_float64_reference_bitwise(activation, antisym, embedding,
                                                              fdim, rows):
    # the forward and the loss stay float64: only the gradient products moved
    cfg = tiny_config(hidden_dim=16, activation=activation, antisymmetrize=antisym,
                      sigma_embedding=embedding, fourier_dim=fdim)
    params, x, target, sig = backward_case(cfg, rows, 44)
    loss, _ = backward(params, cfg, x, target, sig)
    ref_loss, _ = ref_backward(params, cfg, x, target, sig, dtype=np.float64)
    assert_same_bits(loss, ref_loss)


# float32 products against float64 ones, in float32 epsilons of the layer's
# largest float64 gradient: 3.5-7.6 on the ring and 11-91 on S^3 (where the
# two antisymmetric branches cancel) over 20 seeds
PRODUCT_BOUND = 256 * np.finfo(np.float32).eps


@pytest.mark.parametrize("run", ["ring_relu128_batch512", "s3_silu64_antisym_batch128"])
def test_float32_product_gradients_stay_near_the_float64_reference(run):
    config, _, _, _, batch = benchmark_shaped_run(run)
    params, x, target, sig = backward_case(config, batch, 45)
    _, grads = backward(params, config, x, target, sig)
    _, ref = ref_backward(params, config, x, target, sig, dtype=np.float64)
    for got, want in zip(grads.weights + grads.biases, ref.weights + ref.biases, strict=True):
        assert np.abs(got - want).max() <= PRODUCT_BOUND * np.abs(want).max()
        assert not np.array_equal(got, want) or not want.any()  # the products did move


def ref_train(config, loss_kind, dataset, manifold, schedule, steps, batch_size, lr, seed,
              dtype=np.float32):
    """train's loop on the reference backward, with products in dtype, and
    the reference Adam, with the same draws."""
    rng = np.random.default_rng(seed)
    params = init_params(config, rng)
    curve = np.empty(steps)
    for step in range(steps):
        x0 = dataset[rng.integers(dataset.shape[0], size=batch_size)]
        sig = schedule.sigmas[rng.integers(schedule.num_scales, size=batch_size)]
        xt = perturb(x0, sig, rng)
        if loss_kind == "dsm":
            target = dsm_target(x0, xt, sig)
        else:
            target = mad_target(x0, xt, sig, manifold)
        curve[step], grads = ref_backward(params, config, xt, target, sig, dtype)
        params = ref_adam_step(params, grads, lr)
    return params, curve


RING_RELU128 = MlpConfig(input_dim=2, hidden_dim=128, num_hidden_layers=3, activation="relu")
S3_SILU64_ANTISYM = MlpConfig(input_dim=4, hidden_dim=64, num_hidden_layers=3,
                              activation="silu", antisymmetrize=True)
S3_AXES = ((1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, -1.0, 0.0, 0.0))


def benchmark_shaped_run(name):
    """(config, data, manifold, schedule, batch size) shaped like the benchmark's
    ring_mad and rotation_pair training runs."""
    if name == "ring_relu128_batch512":
        data = sample_discrete(RING.points, skewed_pmf(8, 0.8), 4096, seed=102)
        return RING_RELU128, data, RING, NoiseSchedule.geometric(1e-4, 4.0, 100), 512
    spec = DatasetSpec(kind="vmf_mixture", manifold_n=3,
                       components=tuple((axis, 40.0, 0.25) for axis in S3_AXES))
    data = sample_vmf_mixture(spec, 4096, seed=202)
    return S3_SILU64_ANTISYM, data, Sphere(3), NoiseSchedule.geometric(1e-4, 2.0, 100), 128


@pytest.mark.parametrize("loss_kind", ["mad", "dsm"])
@pytest.mark.parametrize("run", ["ring_relu128_batch512", "s3_silu64_antisym_batch128"])
def test_train_matches_reference_loop_bitwise(run, loss_kind):
    config, data, manifold, schedule, batch = benchmark_shaped_run(run)
    params, curve = train(config, loss_kind, data, manifold, schedule,
                          steps=20, batch_size=batch, lr=2e-3, seed=2)
    ref, ref_curve = ref_train(config, loss_kind, data, manifold, schedule, 20, batch, 2e-3, 2)
    assert_same_bits(curve, ref_curve)
    assert params.step == ref.step == 20
    for a, b in zip(state_arrays(params), state_arrays(ref), strict=True):
        assert_same_bits(a, b)


def workspace_arrays_of(ws):
    """Every array in a workspace, through its lists and tuples."""
    def walk(value):
        if isinstance(value, np.ndarray):
            return [value]
        return sum((walk(v) for v in value), []) if isinstance(value, (list, tuple)) else []

    return walk(list(vars(ws).values()))


def workspace_arrays():
    ws = getattr(mlp._workspaces, "ws", None)
    return [] if ws is None else workspace_arrays_of(ws)


def backward_case(config, rows, seed):
    rng = np.random.default_rng(seed)
    params = randomized_params(config, seed)
    x = rng.standard_normal((rows, config.input_dim))
    target = rng.standard_normal((rows, config.input_dim))
    sig = np.exp(rng.uniform(-6.0, 1.0, rows))
    return params, x, target, sig


def assert_same_loss_and_grads(got, want):
    (loss, grads), (ref_loss, ref_grads) = got, want
    assert_same_bits(loss, ref_loss)
    for a, b in zip(grads.weights + grads.biases, ref_grads.weights + ref_grads.biases,
                    strict=True):
        assert_same_bits(a, b)


def test_backward_workspace_is_reused_and_never_returned():
    results = []
    for config in (RING_RELU128, S3_SILU64_ANTISYM):
        for k, rows in enumerate((512, 128, 512)):
            params, x, target, sig = backward_case(config, rows, 60 + k)
            got = backward(params, config, x, target, sig)
            arrays = workspace_arrays()
            assert arrays and not any(np.shares_memory(g, a) for a in arrays
                                      for g in got[1].weights + got[1].biases)
            want = ref_backward(params, config, x, target, sig)
            assert_same_loss_and_grads(got, want)
            # a second call with the same shapes runs in the same arrays
            again = backward(params, config, x, target, sig)
            assert all(a is b for a, b in zip(workspace_arrays(), arrays, strict=True))
            assert_same_loss_and_grads(again, want)
            results.append((got, want))
    # later calls, at any shape, leave earlier results as they were
    for got, want in results:
        assert_same_loss_and_grads(got, want)


def test_backward_in_concurrent_threads_matches_reference():
    # four threads on two CPUs, two per configuration with their own data: a
    # workspace shared between threads would mix their activations
    cases = [(config, *backward_case(config, rows, 70 + k))
             for k, (config, rows) in enumerate([(RING_RELU128, 512), (RING_RELU128, 512),
                                                 (S3_SILU64_ANTISYM, 128),
                                                 (S3_SILU64_ANTISYM, 128)])]
    wants = [ref_backward(params, config, x, target, sig)
             for config, params, x, target, sig in cases]
    start = threading.Barrier(len(cases))
    errors, done = [], []

    def run(case, want):
        config, params, x, target, sig = case
        try:
            start.wait(timeout=30)
            for _ in range(20):
                assert_same_loss_and_grads(backward(params, config, x, target, sig), want)
            done.append(True)
        except BaseException as exc:  # reported by the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=pair) for pair in zip(cases, wants)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    assert len(done) == len(cases)


def test_train_drops_its_workspace_however_it_ends():
    cfg = tiny_config()
    params, x, target, sig = backward_case(cfg, 8, 80)
    backward(params, cfg, x, target, sig)
    assert workspace_arrays()
    train(cfg, "mad", RING.points.copy(), RING, SCHEDULE, steps=3, batch_size=8, lr=1e-3, seed=0)
    assert getattr(mlp._workspaces, "ws", None) is None
    backward(params, cfg, x, target, sig)
    with pytest.raises(TrainingDivergedError):
        with np.errstate(over="ignore", invalid="ignore"):
            train(cfg, "dsm", RING.points.copy(), RING, SCHEDULE,
                  steps=10, batch_size=8, lr=1e154, seed=0)
    assert getattr(mlp._workspaces, "ws", None) is None


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults as Linux reports them")
def test_training_steps_do_not_fault_pages_in(monkeypatch):
    # a count, not a timing: allocating the 512 KiB activations afresh every
    # step cost ~225 minor faults a step; reused, they cost none
    import resource

    config, data, manifold, schedule, batch = benchmark_shaped_run("ring_relu128_batch512")
    faults = []

    def counted(*args, _real=mlp.adam_step):
        out = _real(*args)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return out

    monkeypatch.setattr(mlp, "adam_step", counted)
    train(config, "mad", data, manifold, schedule, steps=55, batch_size=batch, lr=2e-3, seed=2)
    per_step = (faults[54] - faults[4]) / 50
    assert per_step < 20, f"{per_step} minor faults per training step"


# Row counts around the 512-row block: one row, a block and a row either side,
# two blocks and a row (1025), ranges of a block and a row at two and three
# workers (1026, 1539), many blocks, and a 10k sampling batch with and
# without a row past its last full block.
BLOCK_EDGE_ROWS = [1, 2, 511, 512, 513, 1025, 1026, 1539, 4096, 10000, 10001]


def forward_bytes_by_workers(monkeypatch, params, cfg, x, sig):
    """Forward output bytes at the process's worker count, and at one, two and
    three workers."""
    out = [forward(params, cfg, x, sig).tobytes()]
    for workers in (1, 2, 3):
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
    assert forward_bytes_by_workers(monkeypatch, params, cfg, x, sig) == [want] * 4


# At width 512 OpenBLAS runs a GEMM of two or three rows through other
# kernels than a longer one, so no block may be that short: cut every 512
# rows alone, each of these row counts would end on a 2-3 row block at one
# worker.
@pytest.mark.parametrize("activation", ["relu", "silu"])
@pytest.mark.parametrize("rows", [515, 1026, 1539])
def test_blocked_forward_matches_reference_bitwise_at_width_512(monkeypatch, activation, rows):
    cfg = tiny_config(hidden_dim=512, num_hidden_layers=3, activation=activation)
    params = randomized_params(cfg, 44)
    rng = np.random.default_rng(45)
    x = rng.standard_normal((rows, 2))
    sig = np.exp(rng.uniform(-6.0, 1.0, rows))
    want = ref_forward(params, cfg, x, sig).tobytes()
    assert forward_bytes_by_workers(monkeypatch, params, cfg, x, sig) == [want] * 4


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_forward_blocks_hold_half_a_block_to_a_block(monkeypatch, workers):
    # the grid of 256-512-row blocks depends on the row count alone, and each
    # worker walks one contiguous run of whole blocks; an antisymmetric net
    # walks each block once, its rows stacked over their mirror, and backward
    # walks its whole batch, stacked the same way, once per call
    monkeypatch.setattr(rowblocks, "_WORKERS", workers)
    walked = []

    def spy(params, silu, h, *rest, _real=mlp._layers):
        walked.append(h.shape[0])
        return _real(params, silu, h, *rest)

    monkeypatch.setattr(mlp, "_layers", spy)
    for antisym in (False, True):
        cfg = tiny_config(hidden_dim=8, antisymmetrize=antisym)
        params = randomized_params(cfg, 44)
        branches = 2 if antisym else 1
        for rows in [1, 511, 512, 513, 1023, 1025, 1537, 2049, 10000]:
            grid = ref_grid(rows)
            sizes = [stop - start for start, stop in grid]
            assert max(sizes) <= rowblocks.BLOCK_ROWS
            assert min(sizes) >= min(rows, rowblocks.BLOCK_ROWS // 2)
            runs = rowblocks.worker_blocks(rows)
            assert len(runs) == min(workers, len(grid)) and all(runs)
            assert sum(runs, []) == grid
            walked.clear()
            forward(params, cfg, np.zeros((rows, 2)), 0.3)
            assert [blocks for blocks, *_ in mlp._workspaces.ws.shards] == runs
            assert sorted(walked) == sorted(branches * size for size in sizes)
            walked.clear()
            backward(params, cfg, np.zeros((rows, 2)), np.zeros((rows, 2)), 0.3)
            assert walked == [branches * rows]


@pytest.mark.parametrize(
    "config", [RING_RELU128, S3_SILU64_ANTISYM], ids=["ring_relu128", "s3_silu64_antisym"])
def test_forward_workspace_holds_no_full_batch_activation(monkeypatch, config):
    # per run of blocks: two block buffers of hidden width and, antisymmetrized,
    # the stacked block input and output; a block buffer holds a block's rows,
    # twice over when antisymmetrized, and only the assembled input spans the
    # batch
    params = randomized_params(config, 46)
    x = np.random.default_rng(47).standard_normal((10001, config.input_dim))
    width = config.input_dim + config.embed_dim
    block = rowblocks.BLOCK_ROWS * (2 if config.antisymmetrize else 1)
    for workers in (1, 2, 3):
        monkeypatch.setattr(rowblocks, "_WORKERS", workers)
        forward(params, config, x, 0.3)
        runs = len(rowblocks.worker_blocks(10001))
        arrays = workspace_arrays()
        hidden = [a.shape[0] for a in arrays if a.shape[1] == config.hidden_dim]
        assert max(hidden) <= block and len(hidden) <= 2 * runs
        rest = [a.shape for a in arrays if a.shape[1] != config.hidden_dim]
        assert [s for s in rest if s[0] > block] == [(10001, width)]
        assert len(rest) - 1 <= 2 * runs * config.antisymmetrize


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
    assert forward_bytes_by_workers(monkeypatch, params, cfg, x, 0.3) == [want] * 4


def diverging_params(w2=-1e18):
    """relu 2 -> 4 x 3 -> 2 net: x = (1e20, 0) stays finite in float32 through
    layers 0 and 1 and reaches -inf at layer 2; with w2 = -1e108, x = (1e200, 0)
    does the same in float64.  A nan input fails at layer 0."""
    cfg = tiny_config(hidden_dim=4, num_hidden_layers=3, activation="relu")
    params = init_params(cfg, np.random.default_rng(12))
    for w, b in zip(params.weights, params.biases):
        w[:] = 1.0
        b[:] = 0.0
    params.weights[2][:] = w2
    return cfg, params


@pytest.mark.parametrize("workers", [1, 3])
def test_blocked_forward_reports_the_lowest_failing_layer(monkeypatch, workers):
    monkeypatch.setattr(rowblocks, "_WORKERS", workers)
    cfg, params = diverging_params()
    x = np.zeros((1025, 2))
    x[0, 0] = 1e20  # first block: -inf at layer 2
    with np.errstate(over="ignore", invalid="ignore"):
        for fn in (forward, ref_forward):
            with pytest.raises(TrainingDivergedError, match="layer 2"):
                fn(params, cfg, x, 1.0)
        x[-1, 0] = np.nan  # last block: nan from layer 0 on
        for fn in (forward, ref_forward):
            with pytest.raises(TrainingDivergedError, match="non-finite activations at layer 0"):
                fn(params, cfg, x, 1.0)


@pytest.mark.parametrize("workers", [1, 3])
def test_forward_names_the_lowest_failing_layer_of_either_branch(monkeypatch, workers):
    # last block: +x reaches -inf at layer 2; first block: only -x overflows,
    # at layer 0, through the sigma embedding's weight, which -x does not
    # negate; the lower layer is named, whichever branch holds it
    monkeypatch.setattr(rowblocks, "_WORKERS", workers)
    cfg, params = diverging_params()
    cfg = dataclasses.replace(cfg, antisymmetrize=True)
    params.weights[0][2] = 3e38
    x = np.zeros((1537, 2))
    x[0, 0] = -3e38
    x[-1, 0] = 1e20
    sig = np.ones(1537)
    sig[0] = np.e
    with np.errstate(over="ignore", invalid="ignore"):
        for fn in (forward, ref_forward):
            with pytest.raises(TrainingDivergedError, match="non-finite activations at layer 0$"):
                fn(params, cfg, x, sig)
        x[-1, 0] = 0.0
        for fn in (forward, ref_forward):
            with pytest.raises(TrainingDivergedError, match="non-finite activations at layer 0$"):
                fn(params, cfg, x, sig)
        # only the negative branch fails: +x = (-1e20, 0) dies in layer 0's
        # relu, and its mirror reaches -inf at layer 2
        x[0, 0], sig[0], x[-1, 0] = 0.0, 1.0, -1e20
        for fn in (forward, ref_forward):
            with pytest.raises(TrainingDivergedError, match="non-finite activations at layer 2$"):
                fn(params, cfg, x, sig)


@pytest.mark.parametrize("workers", [1, 3])
def test_forward_names_a_hidden_layer_before_the_output_layer(monkeypatch, workers):
    # first block: every hidden layer finite, the output overflows (layer 3);
    # last block: layer 1 overflows
    monkeypatch.setattr(rowblocks, "_WORKERS", workers)
    cfg, params = diverging_params()
    params.weights[2][:] = 1.0
    params.weights[3][:] = 1e30
    x = np.zeros((1537, 2))
    x[0, 0] = 1e10
    x[-1, 0] = 3e38
    with np.errstate(over="ignore", invalid="ignore"):
        for fn in (forward, ref_forward):
            with pytest.raises(TrainingDivergedError, match="non-finite activations at layer 1$"):
                fn(params, cfg, x, 1.0)
        x[-1, 0] = 0.0
        for fn in (forward, ref_forward):
            with pytest.raises(TrainingDivergedError, match="non-finite activations at layer 3$"):
                fn(params, cfg, x, 1.0)


def test_caller_errstate_applies_in_pool_workers(monkeypatch):
    # only the last of three blocks overflows, in layer 0's float32 bias add
    # (2e38 + 2e38), and with three workers that block runs on a pool thread
    monkeypatch.setattr(rowblocks, "_WORKERS", 3)
    cfg = tiny_config(activation="silu")
    params = init_params(cfg, np.random.default_rng(13))
    params.weights[0][:] = 1.0
    params.biases[0][:] = 2e38
    params.weights[1][:] = 0.0
    x = np.full((1536, 2), 0.1)
    x[-300:] = 1e38
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


def finite_calls(monkeypatch):
    """A list that gains an entry at every `mlp._finite` call."""
    calls = []

    def spy(z, _real=mlp._finite):
        calls.append(z.shape)
        return _real(z)

    monkeypatch.setattr(mlp, "_finite", spy)
    return calls


@pytest.mark.parametrize(
    "config", [RING_RELU128, S3_SILU64_ANTISYM], ids=["ring_relu128", "s3_silu64_antisym"])
def test_bounded_forward_checks_no_layer(monkeypatch, config):
    # trained-size weights and inputs: the bound proves every layer finite,
    # so no layer is summed, and the bytes stay the reference's
    params = randomized_params(config, 46)
    x = np.random.default_rng(47).standard_normal((10001, config.input_dim))
    want = ref_forward(params, config, x, 0.3).tobytes()
    calls = finite_calls(monkeypatch)
    assert forward_bytes_by_workers(monkeypatch, params, config, x, 0.3) == [want] * 4
    assert calls == []
    # backward at the training batch sizes: the float32 bound holds in float64
    rows = 512 if config is RING_RELU128 else 128
    sig = np.exp(np.random.default_rng(48).uniform(-9.0, 1.0, rows))
    target = np.random.default_rng(49).standard_normal((rows, config.input_dim))
    want = ref_backward(params, config, x[:rows], target, sig)
    assert_same_loss_and_grads(backward(params, config, x[:rows], target, sig), want)
    assert calls == []


@pytest.mark.parametrize("activation", ["relu", "silu"])
def test_forward_past_the_bound_checks_every_layer(monkeypatch, activation):
    # layer 0 reaches ~1e37 and layer 1 scales it back: every float32
    # activation is finite, but the bound passes 1e37, so each layer is checked
    cfg = tiny_config(hidden_dim=16, num_hidden_layers=3, activation=activation,
                      antisymmetrize=activation == "silu")
    params = randomized_params(cfg, 50)
    params.weights[0][:] *= 1e37
    params.weights[1][:] *= 1e-37
    x = np.random.default_rng(51).standard_normal((1025, 2))
    with np.errstate(over="ignore"):
        want = ref_forward(params, cfg, x, 0.3)
        assert np.all(np.isfinite(want))
        calls = finite_calls(monkeypatch)
        got = forward_bytes_by_workers(monkeypatch, params, cfg, x, 0.3)
    assert got == [want.tobytes()] * 4
    assert calls  # one per layer and block
    assert not mlp._bounded(params, np.concatenate([x, _embed_sigma(cfg, 0.3, 1025)], axis=1))


def test_forward_overflow_in_the_output_layer_alone_names_it():
    # every hidden layer within the bound, the output layer past it: the
    # output overflows to inf, and only the output layer may be named
    cfg = tiny_config(activation="relu")
    params = randomized_params(cfg, 59)
    params.weights[-1][:] = 3e38
    x = np.full((600, 2), 10.0)
    with np.errstate(over="ignore"):
        for fn in (forward, ref_forward):
            with pytest.raises(TrainingDivergedError, match="non-finite activations at layer 2"):
                fn(params, cfg, x, 1.0)


def past_float32_case(case, antisym):
    """A relu net and input on which every float64 value is finite, but an
    input, a weight or a bias lies past float32's range (3.4e38), and the
    float32 layer that first holds inf or nan."""
    cfg = tiny_config(activation="relu", antisymmetrize=antisym)
    params = randomized_params(cfg, 61)
    x = np.random.default_rng(62).standard_normal((600, 2))
    sigma = 0.5
    if case == "input":
        x[300, 0] = 1e39
        return cfg, params, x, sigma, 0
    if case == "weight_on_zero_input":  # 0 * inf = nan, though the float64 bound is 0
        x[:] = 0.0
        sigma = 1.0
        params.weights[0][:] = 1e39
        params.biases[0][:] = 0.0
        return cfg, params, x, sigma, 0
    if case == "hidden_weight":
        params.weights[1][:, 5] = 1e300
        return cfg, params, x, sigma, 1
    params.biases[-1][1] = -1e39  # case "output_bias"
    return cfg, params, x, sigma, 2


@pytest.mark.parametrize("case", ["input", "weight_on_zero_input", "hidden_weight", "output_bias"])
@pytest.mark.parametrize("antisym", [False, True])
def test_forward_past_float32_range_names_the_first_nonfinite_layer(case, antisym):
    cfg, params, x, sigma, layer = past_float32_case(case, antisym)
    emb = _embed_sigma(cfg, sigma, x.shape[0])
    assert np.all(np.isfinite(ref_plain_forward(params, cfg, np.concatenate([x, emb], axis=1),
                                                keep=False)))
    assert not mlp._bounded(params, x, emb)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for fn in (forward, ref_forward):
            with pytest.raises(TrainingDivergedError, match=f"activations at layer {layer}$"):
                fn(params, cfg, x, sigma)
    # the float32 casts overflow quietly; what overflowed is named by its layer
    assert not [w for w in caught if "cast" in str(w.message)]


def module_silu(z):
    """silu of the 1-d array z as `mlp._layers` computes it, in z's dtype:
    a hidden layer of one unit with weight 1 and bias 0, so its matmul is z."""
    layers = mlp._FlatLayers(np.zeros(4, dtype=z.dtype), [(1, 1), (1, 1)])
    layers.weights[0][:] = 1.0
    h = z[:, None]
    zs, sgs, acts = [np.empty_like(h), np.empty_like(h)], [np.empty_like(h)], [np.empty_like(h)]
    assert mlp._layers(layers, True, h, zs, sgs, acts) is None
    return acts[0][:, 0]


def module_silu_grad(z):
    """silu'(z) in float64 as `backward` forms it, before its float32 cast:
    one hidden unit fed by x alone, whose act buffer then holds 2 silu'(z)."""
    cfg = MlpConfig(input_dim=1, hidden_dim=1, num_hidden_layers=1, activation="silu")
    params = init_params(cfg, np.random.default_rng(0))
    params.weights[0][:] = [[1.0], [0.0]]
    params.biases[0][:] = 0.0
    backward(params, cfg, z[:, None], np.zeros((len(z), 1)), 1.0)
    ws = mlp._workspaces.ws
    assert np.array_equal(ws.zs[0][:, 0], z)
    return ws.acts[0][:, 0] * 0.5


def exact_silu(z, grad=False):
    """silu(z) or silu'(z) from mpmath at 40 digits, rounded to float64."""
    with mpmath.workdps(40):
        out = []
        for v in map(mpmath.mpf, np.asarray(z, dtype=np.float64).tolist()):
            sg = 1 / (1 + mpmath.exp(-v))
            out.append(float(sg * (1 + v * (1 - sg)) if grad else v * sg))
    return np.array(out)


SILU_GRID = np.concatenate([
    np.linspace(-200.0, 200.0, 8001),
    np.geomspace(1e-30, 200.0, 2001),
    -np.geomspace(1e-30, 200.0, 2001),
    np.random.default_rng(70).uniform(-200.0, 200.0, 2000),
    [0.0, -0.0],
])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_silu_matches_mpmath_to_two_eps_absolute(dtype):
    # |silu(z) - exact| <= 2 eps (1 + |z|) over [-200, 200] (measured: 0.38 of
    # the bound in float32, 0.48 in float64).  The bound is absolute, not
    # relative: in the far negative tail 1 + tanh(z/2) cancels, so silu keeps
    # no relative accuracy where it is tiny; what the next layer sees is the
    # absolute error, and that is what the bound holds
    z = SILU_GRID.astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = module_silu(z)
    assert got.dtype == dtype
    bound = 2.0 * np.finfo(dtype).eps * (1.0 + np.abs(z.astype(np.float64)))
    assert np.all(np.abs(got.astype(np.float64) - exact_silu(z)) <= bound)


def test_silu_derivative_matches_mpmath_to_two_eps_absolute():
    # the float64 silu'(z) = (sg/2) (1 + z - silu(z)); measured: 0.37 of the bound
    z = SILU_GRID
    got = module_silu_grad(z)
    bound = 2.0 * np.finfo(np.float64).eps * (1.0 + np.abs(z))
    assert np.all(np.abs(got - exact_silu(z, grad=True)) <= bound)


def test_silu_tails_are_silent_and_reach_silus_limits():
    # 1 + tanh(z/2) is exactly 0 far below zero and exactly 2 far above it,
    # so silu is -0.0 and z there, and silu' is -0.0 and 1, with no warning
    tails = {np.float32: 200.0, np.float64: 1600.0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dtype, far in tails.items():
            got = module_silu(np.array([-far, far], dtype=dtype))
            assert got[0] == 0.0 and np.signbit(got[0]) and got[1] == far
        grad = module_silu_grad(np.array([-1600.0, 1600.0]))
    assert grad[0] == 0.0 and np.signbit(grad[0]) and grad[1] == 1.0
    # the whole net agrees bit for bit with the reference in those tails
    cfg = tiny_config(activation="silu")
    params = randomized_params(cfg, 63)
    rng = np.random.default_rng(64)
    x = rng.standard_normal((16, 2))
    target = rng.standard_normal((16, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params.biases[0][:] = -200.0
        assert_same_bits(forward(params, cfg, x, 0.5), ref_forward(params, cfg, x, 0.5))
        params.biases[0][:] = -1600.0
        assert_same_loss_and_grads(backward(params, cfg, x, target, 0.5),
                                   ref_backward(params, cfg, x, target, 0.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("antisym", [False, True])
def test_forward_nonfinite_input_fails_at_layer_0(monkeypatch, bad, antisym):
    cfg = tiny_config(hidden_dim=16, activation="silu", antisymmetrize=antisym)
    params = randomized_params(cfg, 52)
    x = np.random.default_rng(53).standard_normal((1025, 2))
    x[700, 1] = bad
    for workers in (1, 3):
        monkeypatch.setattr(rowblocks, "_WORKERS", workers)
        with np.errstate(invalid="ignore", over="ignore"):
            for fn in (forward, ref_forward):
                with pytest.raises(TrainingDivergedError, match="non-finite activations at layer 0"):
                    fn(params, cfg, x, 1.0)


@pytest.mark.parametrize("antisym", [False, True])
def test_forward_on_an_empty_batch(antisym):
    cfg = tiny_config(input_dim=4, activation="silu", antisymmetrize=antisym)
    params = randomized_params(cfg, 54)
    out = forward(params, cfg, np.zeros((0, 4)), 0.5)
    assert out.shape == (0, 4)
    assert not mlp._bounded(params, np.zeros((0, 5)))


def test_forward_workspace_is_reused_and_never_returned():
    cfg = S3_SILU64_ANTISYM
    params = randomized_params(cfg, 55)
    x = np.random.default_rng(56).standard_normal((1025, 4))
    want = ref_forward(params, cfg, x, 0.3).tobytes()
    first = forward(params, cfg, x, 0.3)
    arrays = workspace_arrays()
    copy = mlp._workspaces.ws.params.flat  # the float32 parameter copy
    assert copy.dtype == np.float32 and copy.shape == params.flat.shape
    assert first.dtype == np.float64 and first.flags.owndata
    assert arrays and not any(np.shares_memory(first, a) for a in arrays + [copy])
    again = forward(params, cfg, x, 0.3)
    assert not np.shares_memory(again, first)
    assert all(a is b for a, b in zip(workspace_arrays(), arrays, strict=True))
    assert mlp._workspaces.ws.params.flat is copy
    assert first.tobytes() == again.tobytes() == want
    # a weight edited in place between two calls is seen by the second
    params.weights[-1][0, 0] += 1.0
    edited = forward(params, cfg, x, 0.3)
    assert mlp._workspaces.ws.params.flat is copy
    assert edited.tobytes() == ref_forward(params, cfg, x, 0.3).tobytes() != want


def test_forward_in_concurrent_threads_matches_reference(monkeypatch):
    # four caller threads, two per configuration, each row range on the pool:
    # a workspace shared between callers would mix their activations
    monkeypatch.setattr(rowblocks, "_WORKERS", 3)
    cases = [(config, randomized_params(config, 90 + k),
              np.random.default_rng(95 + k).standard_normal((1537, config.input_dim)))
             for k, config in enumerate([RING_RELU128, RING_RELU128,
                                         S3_SILU64_ANTISYM, S3_SILU64_ANTISYM])]
    wants = [ref_forward(params, config, x, 0.3).tobytes() for config, params, x in cases]
    start = threading.Barrier(len(cases))
    errors, done = [], []

    def run(case, want):
        config, params, x = case
        try:
            start.wait(timeout=30)
            for _ in range(10):
                assert forward(params, config, x, 0.3).tobytes() == want
            done.append(True)
        except BaseException as exc:  # reported by the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=pair) for pair in zip(cases, wants)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    assert len(done) == len(cases)


def test_forward_and_training_keep_at_most_one_workspace(monkeypatch):
    # every workspace is built after the one before it is gone, and training
    # still leaves none behind
    cfg = tiny_config()
    params = randomized_params(cfg, 57)
    x = np.random.default_rng(58).standard_normal((600, 2))
    alive = []  # per workspace built: whether the one before it still lived
    previous = [lambda: None]

    def tracked(**arrays):
        alive.append(previous[0]() is not None)
        ws = types.SimpleNamespace(**arrays)
        previous[0] = weakref.ref(next(a for a in workspace_arrays_of(ws)))
        return ws

    monkeypatch.setattr(mlp, "SimpleNamespace", tracked)
    train_args = (cfg, "mad", RING.points.copy(), RING, SCHEDULE)
    forward(params, cfg, x, 0.3)
    train(*train_args, steps=3, batch_size=8, lr=1e-3, seed=0)
    assert getattr(mlp._workspaces, "ws", None) is None
    forward(params, cfg, x, 0.3)
    forward(params, cfg, x[:5], 0.3)
    train(*train_args, steps=3, batch_size=8, lr=1e-3, seed=0)
    assert getattr(mlp._workspaces, "ws", None) is None
    assert alive == [False] * 5


# Row counts around 512, the sampling forward's block size; backward runs
# every batch as one pass on the calling thread.
SPLIT_EDGE_ROWS = [1, 2, 255, 511, 512, 513, 1024, 1025]


@NET_VARIANTS
@pytest.mark.parametrize("rows", SPLIT_EDGE_ROWS)
def test_split_backward_matches_reference_bitwise(activation, antisym, embedding, fdim, rows):
    cfg = tiny_config(hidden_dim=16, num_hidden_layers=3, activation=activation,
                      antisymmetrize=antisym, sigma_embedding=embedding, fourier_dim=fdim)
    params, x, target, sig = backward_case(cfg, rows, 53)
    assert_same_loss_and_grads(backward(params, cfg, x, target, sig),
                               ref_backward(params, cfg, x, target, sig))


@pytest.mark.parametrize("rows", [512, 1025])
@pytest.mark.parametrize("config", [RING_RELU128, S3_SILU64_ANTISYM],
                         ids=["ring_relu128", "s3_silu64_antisym"])
def test_split_backward_matches_reference_at_training_shapes(config, rows):
    params, x, target, sig = backward_case(config, rows, 54)
    assert_same_loss_and_grads(backward(params, config, x, target, sig),
                               ref_backward(params, config, x, target, sig))


@pytest.mark.parametrize("workers", [2, 3])
def test_split_backward_reports_the_lowest_failing_layer(monkeypatch, workers):
    # backward runs on the calling thread, so the pool size must not change
    # which layer it names
    monkeypatch.setattr(rowblocks, "_WORKERS", workers)
    cfg, params = diverging_params(w2=-1e108)
    x = np.zeros((1024, 2))
    target = np.zeros((1024, 2))
    x[600, 0] = 1e200  # one row: -inf at layer 2
    with np.errstate(over="ignore", invalid="ignore"):
        for fn in (backward, ref_backward):
            with pytest.raises(TrainingDivergedError, match="layer 2"):
                fn(params, cfg, x, target, 1.0)
        x[0, 0] = 1e200  # an earlier row fails at layer 2, a later one at layer 0
        x[600, 0] = np.nan
        for fn in (backward, ref_backward):
            with pytest.raises(TrainingDivergedError, match="non-finite activations at layer 0"):
                fn(params, cfg, x, target, 1.0)


def test_backward_names_the_lowest_failing_layer_of_the_stacked_walk():
    # layer 0 sends +x and -x to different relu units; +x then overflows only
    # in the output layer (2), -x already in hidden layer 1, where the one
    # stacked walk stops
    cfg = MlpConfig(input_dim=1, hidden_dim=2, num_hidden_layers=2, activation="relu",
                    antisymmetrize=True)
    params = init_params(cfg, np.random.default_rng(0))
    params.flat[:] = 0.0
    params.weights[0][0] = [1.0, -1.0]
    params.weights[1][:] = [[1.0, 0.0], [0.0, 1e300]]
    params.weights[2][0] = 1e300
    x = np.full((4, 1), 1e10)
    with np.errstate(over="ignore", invalid="ignore"):
        for fn in (backward, ref_backward):
            with pytest.raises(TrainingDivergedError, match="non-finite activations at layer 1$"):
                fn(params, cfg, x, np.zeros_like(x), 1.0)
        params.weights[2][0] = 1.0  # +x now finite throughout: -x alone fails
        for fn in (backward, ref_backward):
            with pytest.raises(TrainingDivergedError, match="non-finite activations at layer 1$"):
                fn(params, cfg, x, np.zeros_like(x), 1.0)


def test_a_failed_walk_leaves_dest_as_it_was():
    # only a walk that fails at no layer combines its two halves into dest
    cfg, params = diverging_params(w2=-1e108)
    cfg = dataclasses.replace(cfg, antisymmetrize=True)
    h = np.zeros((8, 3))
    h[0, 0] = 1e200  # +x reaches -inf at layer 2
    zs = [np.empty((8, 4)) for _ in range(3)] + [np.empty((8, 2))]
    dest = np.full((4, 2), 7.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert mlp._walk(params, cfg, h, zs, [], zs[:-1], dest, True) == 2
    assert np.array_equal(h[4:, :2], -h[:4, :2]) and np.array_equal(h[4:, 2:], h[:4, 2:])
    assert np.all(dest == 7.0)


def test_training_runs_on_the_calling_thread_at_any_worker_count(monkeypatch):
    # eight workers, where the sampling forward would start the pool: backward
    # and train still make no pool round and match the reference
    def no_pool(*args):
        raise AssertionError("training used the row-block pool")

    monkeypatch.setattr(rowblocks, "_WORKERS", 8)
    monkeypatch.setattr(mlp, "map_shards", no_pool)
    monkeypatch.setattr(rowblocks, "_executor", no_pool)
    for config in (RING_RELU128, S3_SILU64_ANTISYM):
        params, x, target, sig = backward_case(config, 1025, 56)
        assert_same_loss_and_grads(backward(params, config, x, target, sig),
                                   ref_backward(params, config, x, target, sig))
    config, data, manifold, schedule, batch = benchmark_shaped_run("ring_relu128_batch512")
    params, curve = train(config, "mad", data, manifold, schedule,
                          steps=5, batch_size=batch, lr=2e-3, seed=2)
    ref, ref_curve = ref_train(config, "mad", data, manifold, schedule, 5, batch, 2e-3, 2)
    assert_same_bits(curve, ref_curve)
    for a, b in zip(state_arrays(params), state_arrays(ref), strict=True):
        assert_same_bits(a, b)


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


ONE_LAYER = [(1, 1)]


def one_param_state(value):
    """A 1 -> 1 layer: weight value, bias 0.25, zero moments."""
    return NetworkParams(np.array([value, 0.25]), ONE_LAYER, m=np.zeros(2), v=np.zeros(2))


def test_adam_zero_gradient_is_identity():
    params = one_param_state(0.5)
    grads = NetworkGrads(np.zeros(2), ONE_LAYER)
    out = adam_step(params, grads, lr=0.01)
    assert out.weights[0][0, 0] == 0.5
    assert out.biases[0][0] == 0.25
    assert out.step == 1


def test_adam_first_step_closed_form():
    g = 0.3
    params = one_param_state(0.5)
    grads = NetworkGrads(np.array([g, 0.0]), ONE_LAYER)
    out = adam_step(params, grads, lr=0.01)
    # bias correction cancels at t=1: update is lr * g / (|g| + eps)
    assert abs(out.weights[0][0, 0] - (0.5 - 0.01 * g / (g + 1e-8))) < 1e-15
    assert abs(out.m[0] - 0.1 * g) < 1e-17
    assert abs(out.v[0] - 0.001 * g * g) < 1e-18
    assert out.biases[0][0] == 0.25


@pytest.mark.parametrize("keyword", ["beta1", "beta2", "eps"])
def test_adam_hyperparameters_are_fixed(keyword):
    # the moment decays and the floor are constants; only lr is an argument
    params = one_param_state(0.5)
    with pytest.raises(TypeError):
        adam_step(params, NetworkGrads(np.array([0.3, 0.0]), ONE_LAYER), lr=0.01, **{keyword: 0.5})
    assert params.step == 0


def test_adam_updates_params_built_without_moments():
    grads = NetworkGrads(np.array([0.3, -0.2]), ONE_LAYER)
    bare = NetworkParams(np.array([0.5, 0.25]), ONE_LAYER)
    out = adam_step(bare, grads, lr=0.01)
    ref = adam_step(one_param_state(0.5), grads, lr=0.01)
    assert out.step == 1
    assert out.weights[0][0, 0] != 0.5
    for a, b in zip(state_arrays(out), state_arrays(ref), strict=True):
        assert np.array_equal(a, b)


def test_adam_rejects_mismatched_sizes():
    # a gradient or moment vector of another size raises before anything
    # is updated
    two_layers = [(1, 1), (1, 1)]
    grads = NetworkGrads(np.ones(4), two_layers)
    for moment in ("m", "v"):
        params = NetworkParams(np.ones(4), two_layers)
        setattr(params, moment, np.zeros(2))
        before = [a.copy() for a in state_arrays(params)]
        with pytest.raises(ValueError, match="size"):
            adam_step(params, grads, lr=0.1)
        assert all(np.array_equal(a, b) for a, b in zip(state_arrays(params), before, strict=True))
        assert params.step == 0
    params = one_param_state(0.5)
    with pytest.raises(ValueError, match="size"):
        adam_step(params, grads, lr=0.1)
    assert params.flat.tolist() == [0.5, 0.25] and params.step == 0


def test_adam_converges_on_least_squares_toy():
    # min over W of ||W x - b||^2 via manually supplied gradients
    x = np.array([1.0, 0.5])
    b = np.array([0.3, -0.2])
    params = NetworkParams(np.zeros(6), [(2, 2)])
    grads = NetworkGrads(np.zeros(6), [(2, 2)])
    first = None
    for _ in range(200):
        resid = params.weights[0].T @ x - b
        if first is None:
            first = float(np.linalg.norm(resid))
        grads.weights[0][:] = np.outer(x, 2.0 * resid)
        params = adam_step(params, grads, lr=0.05)
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


@pytest.mark.parametrize("activation", ["relu", "silu"])
def test_float32_gradient_overflow_aborts_at_its_step(activation):
    # lr 1e40 puts the final layer near 1e40 after one step, past float32's
    # range, and the next step's output gradient with it: the float64
    # products stay finite for every step, the float32 casts do not, and
    # train names the step
    cfg = tiny_config(activation=activation)
    args = (cfg, "mad", RING.points.copy(), RING, SCHEDULE)
    with np.errstate(over="ignore", invalid="ignore"):
        ref, curve = ref_train(*args, 5, 8, 1e40, 0, dtype=np.float64)
    assert np.all(np.isfinite(curve)) and np.all(np.isfinite(ref.flat))
    assert np.abs(ref.weights[-1]).max() > np.finfo(np.float32).max
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrainingDivergedError, match="^non-finite gradient at step 1$") as exc:
            train(*args, steps=5, batch_size=8, lr=1e40, seed=0)
    assert exc.value.step == 1
    assert not [w for w in caught if "cast" in str(w.message)]


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
    comps = (((1.0, 0.0, 0.0, 0.0), 40.0, 0.25), ((-1.0, -0.0, -0.0, -0.0), 40.0, 0.25),
             ((0.0, 1.0, 0.0, 0.0), 40.0, 0.25), ((-0.0, -1.0, -0.0, -0.0), 40.0, 0.25))
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
    assert loaded.flat.tobytes() == params.flat.tobytes()
    # Adam state is not persisted
    assert loaded.step == 0
    assert np.all(loaded.m == 0.0) and np.all(loaded.v == 0.0)
    # identical outputs after the roundtrip
    x = np.random.default_rng(31).standard_normal((5, 2))
    assert np.array_equal(forward(params, cfg, x, 0.3), forward(loaded, cfg2, x, 0.3))


def test_checkpoint_bytes_follow_the_documented_format(tmp_path):
    cfg = tiny_config(antisymmetrize=True)
    params = randomized_params(cfg, 33)
    params.biases[0][0] = -0.0
    extras = {"loss_kind": "mad", "note": "pin"}
    save_checkpoint(tmp_path / "net.bin", params, cfg, extras)
    header = json.dumps({"config": dataclasses.asdict(cfg),
                         "layer_shapes": [list(s) for s in cfg.layer_shapes()],
                         "extras": extras}, sort_keys=True).encode("utf-8")
    blob = b"SCORENET" + struct.pack("<II", 1, len(header)) + header
    for w, b in zip(params.weights, params.biases):
        blob += w.astype("<f8").tobytes() + b.astype("<f8").tobytes()
    blob += hashlib.sha256(blob).digest()
    assert (tmp_path / "net.bin").read_bytes() == blob


def test_params_are_views_into_one_flat_vector():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(34))
    layers = [a.ravel() for pair in zip(params.weights, params.biases) for a in pair]
    assert all(np.shares_memory(a, params.flat) for a in layers)
    assert params.flat.tobytes() == np.concatenate(layers).tobytes()
    assert params.m.shape == params.v.shape == params.flat.shape
    # a copy's views point into the copy's own vector
    twin = copy.deepcopy(params)
    twin.flat[:] = 1.0
    assert all(np.all(w == 1.0) for w in twin.weights + twin.biases)
    assert not np.shares_memory(twin.weights[0], params.flat)
    with pytest.raises(ValueError, match="layer shapes"):
        NetworkParams(np.zeros(params.flat.size - 1), params.shapes)


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

    short = blob[:-48]
    bad.write_bytes(short + hashlib.sha256(short).digest())
    with pytest.raises(CheckpointFormatError, match="layer data truncated"):
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

    for extras in ([], "k", 1):
        bad.write_bytes(rebuild_blob(blob, header_edit=lambda obj: obj.update(extras=extras)))
        with pytest.raises(CheckpointFormatError,
                           match="invalid checkpoint header: extras must be a JSON object"):
            load_checkpoint(bad)
