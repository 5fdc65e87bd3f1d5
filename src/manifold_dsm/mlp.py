"""Score/correction MLP with manual backprop, Adam, and checkpoint I/O.

The network consumes [x || embed(sigma)] and outputs a vector field over the
ambient space.  Two conditioning embeddings: append log(sigma) (default), or
sin/cos features of log(sigma) at dyadic frequencies.  With `antisymmetrize`
the forward pass returns (f(x, e) - f(-x, e))/2, which is odd in x by
construction for every parameter value; the sigma embedding is never negated.

Training regresses sigma * output against a residual target (see diffusion):
loss = mean over rows of ||sigma f - target||^2, so at the optimum f is the
score itself (dsm) or the correction to the base score (mad).

Everything is plain numpy.  Bias adds and activations run in place on each
layer's matmul output, and every layer is checked for non-finite values.  For
backward, the forward pass keeps each layer's input and, for silu only, each
hidden layer's pre-activation and sigmoid; relu masks its gradient with the
sign of the kept layer input.  Adam is the standard bias-corrected update,
applied in place to the parameter and moment arrays.  The final layer
initializes to zero so a fresh mad model starts exactly at the base score.

Checkpoints are a small versioned binary container: magic, version, a JSON
header (config, layer shapes, caller extras), the raw little-endian float64
layer data, and a SHA-256 trailer over everything before it.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CheckpointFormatError, TrainingDivergedError

__all__ = [
    "MlpConfig",
    "NetworkParams",
    "NetworkGrads",
    "init_params",
    "forward",
    "backward",
    "adam_step",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]

_MAGIC = b"SCORENET"
_VERSION = 1


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    hidden_dim: int = 128
    num_hidden_layers: int = 3
    activation: str = "silu"
    sigma_embedding: str = "log_sigma_concat"
    fourier_dim: int = 0
    antisymmetrize: bool = False

    def __post_init__(self):
        if self.input_dim < 1 or self.hidden_dim < 1 or self.num_hidden_layers < 1:
            raise ValueError("input_dim, hidden_dim, num_hidden_layers must be >= 1")
        if self.activation not in ("relu", "silu"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.sigma_embedding == "log_sigma_concat":
            if self.fourier_dim != 0:
                raise ValueError("fourier_dim only applies to the fourier embedding")
        elif self.sigma_embedding == "fourier":
            if self.fourier_dim < 2 or self.fourier_dim % 2 != 0:
                raise ValueError("fourier embedding needs a positive even fourier_dim")
        else:
            raise ValueError(f"unknown sigma_embedding {self.sigma_embedding!r}")

    @property
    def embed_dim(self) -> int:
        return 1 if self.sigma_embedding == "log_sigma_concat" else self.fourier_dim

    def layer_shapes(self) -> list[tuple[int, int]]:
        dims = (
            [self.input_dim + self.embed_dim]
            + [self.hidden_dim] * self.num_hidden_layers
            + [self.input_dim]
        )
        return list(zip(dims[:-1], dims[1:]))


@dataclass
class NetworkParams:
    """Layer weights and biases with their Adam moments; moments not given start at zero."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    m_w: list[np.ndarray] | None = None
    v_w: list[np.ndarray] | None = None
    m_b: list[np.ndarray] | None = None
    v_b: list[np.ndarray] | None = None
    step: int = 0

    def __post_init__(self):
        for name, like in (("m_w", self.weights), ("v_w", self.weights),
                           ("m_b", self.biases), ("v_b", self.biases)):
            if getattr(self, name) is None:
                setattr(self, name, [np.zeros_like(a) for a in like])


@dataclass
class NetworkGrads:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init_params(config: MlpConfig, rng: np.random.Generator) -> NetworkParams:
    """Scaled-uniform init, except the final layer which starts at zero."""
    ws, bs = [], []
    shapes = config.layer_shapes()
    for i, (fan_in, fan_out) in enumerate(shapes):
        if i == len(shapes) - 1:
            ws.append(np.zeros((fan_in, fan_out)))
            bs.append(np.zeros(fan_out))
        else:
            bound = 1.0 / np.sqrt(fan_in)
            ws.append(rng.uniform(-bound, bound, (fan_in, fan_out)))
            bs.append(rng.uniform(-bound, bound, fan_out))
    return NetworkParams(weights=ws, biases=bs)


def _embed_sigma(config: MlpConfig, sigma: np.ndarray, n: int) -> np.ndarray:
    sig = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (n,))
    if np.any(sig <= 0.0):
        raise ValueError("sigma must be positive")
    log_sig = np.log(sig)
    if config.sigma_embedding == "log_sigma_concat":
        return log_sig[:, None]
    # dyadic ladder starting at 1/8 so the slowest component stays injective
    # over schedules spanning up to ~25 e-folds of sigma
    freqs = 2.0 ** np.arange(config.fourier_dim // 2) / 8.0
    ang = log_sig[:, None] * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def _check_finite(z: np.ndarray, layer: int) -> None:
    """Raise unless every entry of z is finite.

    Any nan or inf makes the sum non-finite, so a finite sum clears the layer
    in one pass without a boolean temporary; a sum that overflows on finite
    entries falls through to the exact elementwise test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = z.sum()
    if not np.isfinite(total) and not np.all(np.isfinite(z)):
        raise TrainingDivergedError(f"non-finite activations at layer {layer}")


def _plain_forward(params: NetworkParams, config: MlpConfig, h: np.ndarray, keep: bool):
    """Run the raw MLP on pre-assembled input h; optionally keep caches.

    Bias add and activation run in place on each layer's matmul output.  With
    keep, also returns post (the input of every layer) and, for silu, the
    (pre-activation, sigmoid) pair of every hidden layer.  relu needs nothing
    beyond post: post[i + 1] > 0 exactly where hidden layer i's pre-activation
    is positive.
    """
    post = [h] if keep else None
    silu_cache = [] if keep else None
    silu = config.activation == "silu"
    sg = None
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w
        z += b
        _check_finite(z, i)
        if i == last:
            break
        if not silu:
            np.maximum(z, 0.0, out=z)
        else:
            if keep or sg is None:
                sg = np.empty_like(z)
            # sg = 1/(1 + exp(-z)), built in one buffer
            np.negative(z, out=sg)
            np.exp(sg, out=sg)
            sg += 1.0
            np.divide(1.0, sg, out=sg)
            if keep:
                silu_cache.append((z, sg))
                z = z * sg
            else:
                z *= sg
        h = z
        if keep:
            post.append(h)
    return (z, post, silu_cache) if keep else z


def forward(params: NetworkParams, config: MlpConfig, x, sigma) -> np.ndarray:
    """Network output for a batch; odd in x when antisymmetrize is set."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != config.input_dim:
        raise ValueError(f"expected input dim {config.input_dim}, got {x.shape[1]}")
    emb = _embed_sigma(config, sigma, x.shape[0])
    out = _plain_forward(params, config, np.concatenate([x, emb], axis=1), keep=False)
    if config.antisymmetrize:
        out -= _plain_forward(params, config, np.concatenate([-x, emb], axis=1), keep=False)
        out *= 0.5
    return out


def _backprop_branch(params, config, post, silu_cache, upstream, grads: NetworkGrads):
    """Accumulate parameter grads for one cached forward pass."""
    g = upstream
    scratch = None
    for i in reversed(range(len(params.weights))):
        grads.weights[i] += post[i].T @ g
        grads.biases[i] += g.sum(axis=0)
        if i == 0:
            break
        g = g @ params.weights[i].T
        if config.activation == "relu":
            g *= post[i] > 0.0
        else:
            # silu'(z) = sg * (1 + z * (1 - sg)), built in one buffer
            z, sg = silu_cache[i - 1]
            if scratch is None:
                scratch = np.empty_like(z)
            np.subtract(1.0, sg, out=scratch)
            scratch *= z
            scratch += 1.0
            scratch *= sg
            g *= scratch


def backward(params: NetworkParams, config: MlpConfig, x, residual_target, sigma):
    """Loss mean ||sigma f - target||^2 over rows, and its parameter gradients."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    t = np.atleast_2d(np.asarray(residual_target, dtype=np.float64))
    if x.shape != t.shape or x.shape[1] != config.input_dim:
        raise ValueError("batch and targets must align with the network input dim")
    n = x.shape[0]
    emb = _embed_sigma(config, sigma, n)
    sig = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (n,))[:, None]

    out, post_pos, cache_pos = _plain_forward(
        params, config, np.concatenate([x, emb], axis=1), keep=True
    )
    if config.antisymmetrize:
        out_neg, post_neg, cache_neg = _plain_forward(
            params, config, np.concatenate([-x, emb], axis=1), keep=True
        )
        out -= out_neg
        out *= 0.5

    resid = sig * out - t
    loss = float(np.mean(np.sum(resid * resid, axis=1)))
    d_out = 2.0 * sig * resid / n

    grads = NetworkGrads(
        weights=[np.zeros_like(w) for w in params.weights],
        biases=[np.zeros_like(b) for b in params.biases],
    )
    if config.antisymmetrize:
        _backprop_branch(params, config, post_pos, cache_pos, 0.5 * d_out, grads)
        _backprop_branch(params, config, post_neg, cache_neg, -0.5 * d_out, grads)
    else:
        _backprop_branch(params, config, post_pos, cache_pos, d_out, grads)
    return loss, grads


def adam_step(
    params: NetworkParams,
    grads: NetworkGrads,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> NetworkParams:
    """Standard bias-corrected Adam, applied in place.

    Weights, biases and both moments are overwritten in the arrays `params`
    already owns; the same object is returned with its step advanced.  Moment
    and gradient lists must match the parameter lists in length; a mismatch
    raises ValueError before anything is updated.
    """
    groups = (
        (params.weights, grads.weights, params.m_w, params.v_w),
        (params.biases, grads.biases, params.m_b, params.v_b),
    )
    for ps, *others in groups:
        if any(len(other) != len(ps) for other in others):
            raise ValueError("moment and gradient lists must match the parameter lists")
    t = params.step + 1
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for ps, gs, ms, vs in groups:
        for p, g, m, v in zip(ps, gs, ms, vs):
            # same rounding as p - lr * (m/c1) / (sqrt(v/c2) + eps) with
            # m = beta1 m + (1-beta1) g and v = beta2 v + ((1-beta2) g) g
            step = np.multiply(g, 1.0 - beta1)
            m *= beta1
            m += step
            denom = np.multiply(g, 1.0 - beta2)
            denom *= g
            v *= beta2
            v += denom
            np.divide(v, c2, out=denom)
            np.sqrt(denom, out=denom)
            denom += eps
            np.divide(m, c1, out=step)
            step *= lr
            step /= denom
            p -= step
    params.step = t
    return params


def train(
    config: MlpConfig,
    loss_kind: str,
    dataset: np.ndarray,
    manifold,
    schedule,
    steps: int,
    batch_size: int,
    lr: float,
    seed: int,
):
    """Sequential Adam loop over perturbed minibatches; deterministic per seed.

    Each step: sample rows with replacement, draw one noise scale per row
    uniformly over the schedule's discrete levels, perturb, regress against
    the dsm or mad residual target.  Returns (params, per-step loss array).
    """
    from .diffusion import dsm_target, mad_target, perturb

    if loss_kind not in ("dsm", "mad"):
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    dataset = np.asarray(dataset, dtype=np.float64)
    if dataset.ndim != 2 or dataset.shape[0] == 0:
        raise ValueError("dataset must be a nonempty (n, d) array")
    if dataset.shape[1] != config.input_dim:
        raise ValueError("dataset dimension does not match the network input_dim")
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
        loss, grads = backward(params, config, xt, target, sig)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss at step {step}", step=step)
        params = adam_step(params, grads, lr)
        curve[step] = loss
    return params, curve


def save_checkpoint(path, params: NetworkParams, config: MlpConfig, extras: dict | None = None):
    """Write magic | version | header_len | JSON header | layer data | sha256."""
    header = {
        "config": asdict(config),
        "layer_shapes": [list(s) for s in config.layer_shapes()],
        "extras": extras or {},
    }
    hdr = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<II", _VERSION, len(hdr))
    blob += hdr
    for w, b in zip(params.weights, params.biases):
        blob += np.ascontiguousarray(w, dtype="<f8").tobytes()
        blob += np.ascontiguousarray(b, dtype="<f8").tobytes()
    blob += hashlib.sha256(bytes(blob)).digest()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def load_checkpoint(path):
    """Read a checkpoint; returns (params, config, extras).

    Adam state is not persisted: loaded parameters carry fresh moments.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_MAGIC) + 8 + 32:
        raise CheckpointFormatError("checkpoint file is truncated")
    if blob[: len(_MAGIC)] != _MAGIC:
        raise CheckpointFormatError("bad magic; not a checkpoint file")
    digest = blob[-32:]
    if hashlib.sha256(blob[:-32]).digest() != digest:
        raise CheckpointFormatError("checksum mismatch; file corrupted")
    off = len(_MAGIC)
    version, hdr_len = struct.unpack_from("<II", blob, off)
    off += 8
    if version != _VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    try:
        header = json.loads(blob[off : off + hdr_len].decode("utf-8"))
        config = MlpConfig(**header["config"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointFormatError(f"invalid checkpoint header: {exc}") from exc
    off += hdr_len
    shapes = config.layer_shapes()
    if header.get("layer_shapes") != [list(s) for s in shapes]:
        raise CheckpointFormatError("layer shapes in header disagree with config")
    ws, bs = [], []
    for fan_in, fan_out in shapes:
        nbytes = fan_in * fan_out * 8
        if off + nbytes + fan_out * 8 > len(blob) - 32:
            raise CheckpointFormatError("layer data truncated")
        ws.append(np.frombuffer(blob, dtype="<f8", count=fan_in * fan_out, offset=off).reshape(fan_in, fan_out).copy())
        off += nbytes
        bs.append(np.frombuffer(blob, dtype="<f8", count=fan_out, offset=off).copy())
        off += fan_out * 8
    if off != len(blob) - 32:
        raise CheckpointFormatError("trailing bytes after layer data")
    return NetworkParams(weights=ws, biases=bs), config, header.get("extras", {})
