"""Trainable conditional denoiser: a fully connected network with
hand-rolled reverse-mode gradients and an adaptive-moment optimizer.

Input is the scaled noisy tri-axis image, the flattened query image, and
a sinusoidal timestep embedding. The first layer multiplies each of the
three by its own row block of the first weight, on one forward path that
training and sampling share; a sampling chain prepares the query's product
once. The network body F is preconditioned as in
Karras et al. (arXiv:2206.00364): the clean-image estimate is
x0_hat = c_skip * x + c_out * F(c_in * x, ...) on the rescaled input
x = x_t / sqrt(abar), with c_skip the posterior-mean gain of a Gaussian
prior of the data's standard deviation sigma_data. The skip carries the
noisy image through at low noise, where a hidden layer narrower than the
output could not; the noise prediction follows as
eps = (x_t - sqrt(abar) * x0_hat) / sqrt(1 - abar). The parameters live in
one flat float32 buffer, and the network passes (forward, weight
gradients) and the optimizer run in float32; the preconditioning and
everything downstream of x0_hat stay in float64. Checkpoints store the
buffer as little-endian float32.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ArchConfig, OptConfig
from .diffusion import DenoiserInterface, DiffusionSchedule, make_schedule
from .errors import DivergedLoss
from .render import atomic_write

CHECKPOINT_MAGIC = b"AXISFORGE-CKPT"
CHECKPOINT_VERSION = 2  # 2: preconditioned denoiser, sigma_data in the header
_DIVERGENCE_WARMUP = 50  # steps used to establish the divergence baseline
DEFAULT_SIGMA_DATA = 0.5  # EDM's data standard deviation, for a denoiser built without data
MAX_LOSS_WEIGHT = 5.0  # per-draw cap of the signal-to-noise loss weight
ADAM_BLOCK = 1 << 16  # elements per block of the Adam step's walk


def time_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal embedding of the (integer) timestep, transformer style."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    args = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


@dataclass(frozen=True)
class ConditionProjection:
    """A batch of conditions as the network reads them: the rows in the
    network's dtype, (B, cond_dim), which the weight gradient reads, and
    their first-layer product plus the first bias, (B, hidden). What
    MLPDenoiser.prepare_condition gives; it holds for the weights it was
    made with."""

    rows: np.ndarray
    z1: np.ndarray


class MLPDenoiser(DenoiserInterface):
    """Two-hidden-layer tanh network F inside the preconditioned clean-image
    estimate; the noise prediction follows from it.

    The parameters are one flat buffer of ``dtype`` (float32 by default; a
    float64 network serves the finite-difference checks); ``weights`` and
    ``biases`` are views into it, laid out in parameters() order. The
    weights are drawn from rng; with rng None they are allocated but not
    drawn, for a caller that fills them, as load_checkpoint does.
    """

    def __init__(
        self,
        arch: ArchConfig,
        sched: DiffusionSchedule,
        rng: np.random.Generator | None,
        sigma_data: float = DEFAULT_SIGMA_DATA,
        dtype=np.float32,
    ):
        if not sigma_data > 0:
            raise ValueError("sigma_data must be positive")
        self.arch = arch
        self.sched = sched
        self.sigma_data = float(sigma_data)
        dims = [arch.input_dim, arch.hidden, arch.hidden, arch.triaxis_dim]
        self._shapes = [shape for n_in, n_out in zip(dims, dims[1:]) for shape in ((n_in, n_out), (n_out,))]
        self.flat = np.zeros(sum(math.prod(s) for s in self._shapes), dtype)
        params = self._views(self.flat)
        self.weights, self.biases = params[0::2], params[1::2]
        if rng is not None:
            for w in self.weights:
                np.divide(rng.standard_normal(w.shape), np.sqrt(w.shape[0]), out=w, casting="unsafe")

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    # --- parameter bookkeeping ---

    def _views(self, buf: np.ndarray) -> list[np.ndarray]:
        """buf, a flat array laid out like the parameter buffer, split into
        per-parameter views in parameters() order."""
        out, start = [], 0
        for shape in self._shapes:
            size = math.prod(shape)
            out.append(buf[start : start + size].reshape(shape))
            start += size
        return out

    def parameters(self) -> list[np.ndarray]:
        return self._views(self.flat)

    # --- forward / backward ---
    # A product with a transposed weight is written (W @ d.T).T: OpenBLAS's
    # float32 GEMM on a transposed weight view is markedly slower.

    def _body(self, x_in: np.ndarray, t, cond: ConditionProjection):
        """F on rows x_in of the scaled input c_in * x_t, at one timestep t or
        one per row, with the cache _backward reads. The first layer is
        split by its row blocks: the condition's product comes prepared,
        and at one timestep the time embedding's is one row for all rows."""
        a = self.arch
        w1 = self.weights[0]
        x_in = np.asarray(x_in, dtype=self.dtype)
        temb = time_embedding(t, a.time_embed_dim).astype(self.dtype)
        z1 = x_in @ w1[: a.triaxis_dim]
        z1 += cond.z1
        z1 += temb @ w1[a.triaxis_dim + a.cond_dim :]
        h1 = np.tanh(z1, out=z1)
        z2 = h1 @ self.weights[1]
        z2 += self.biases[1]
        h2 = np.tanh(z2, out=z2)
        out = h2 @ self.weights[2]
        out += self.biases[2]
        return out, (x_in, cond.rows, temb, h1, h2)

    def _pre_activation_grads(self, d_out: np.ndarray, cache):
        """d<d_out, F>/d z1 and d<d_out, F>/d z2."""
        h1, h2 = cache[-2:]
        d_z2 = (self.weights[2] @ d_out.T).T * (1.0 - h2 * h2)
        return (self.weights[1] @ d_z2.T).T * (1.0 - h1 * h1), d_z2

    def _backward(self, d_out: np.ndarray, cache, out: np.ndarray | None = None) -> np.ndarray:
        """Gradient of <d_out, F> as one flat array laid out like the
        parameter buffer (written into out when given); _views splits it in
        parameters() order. The cache is _body's at one timestep per row;
        the first weight's gradient is written as its three row blocks."""
        x_in, cond_rows, temb, h1, h2 = cache
        d_z1, d_z2 = self._pre_activation_grads(d_out, cache)
        grad = np.empty_like(self.flat) if out is None else out
        g_w1, g_b1, g_w2, g_b2, g_w3, g_b3 = self._views(grad)
        nx, nc = self.arch.triaxis_dim, self.arch.cond_dim
        np.matmul(x_in.T, d_z1, out=g_w1[:nx])
        np.matmul(cond_rows.T, d_z1, out=g_w1[nx : nx + nc])
        np.matmul(temb.T, d_z1, out=g_w1[nx + nc :])
        np.sum(d_z1, axis=0, out=g_b1)
        np.matmul(h1.T, d_z2, out=g_w2)
        np.sum(d_z2, axis=0, out=g_b2)
        np.matmul(h2.T, d_out, out=g_w3)
        np.sum(d_out, axis=0, out=g_b3)
        return grad

    # --- DenoiserInterface ---

    def prepare_condition(self, cond) -> ConditionProjection:
        """The first-layer product of the condition rows, once for a chain
        of evaluations with these weights."""
        a = self.arch
        rows = np.asarray(cond, dtype=self.dtype).reshape(-1, a.cond_dim)
        z1 = rows @ self.weights[0][a.triaxis_dim : a.triaxis_dim + a.cond_dim]
        z1 += self.biases[0]
        return ConditionProjection(rows, z1)

    def _precond(self, t):
        """Preconditioning at timestep(s) t, each coefficient acting on x_t:
        x0_hat = c_skip * x_t + c_out * F(c_in * x_t, ...). Returns
        (c_in, c_skip, c_out, sqrt(abar), sqrt(1 - abar))."""
        ab = self.sched.alpha_bar[np.asarray(t, dtype=int) - 1]
        sab, snab = np.sqrt(ab), np.sqrt(1.0 - ab)
        sigma, sd = snab / sab, self.sigma_data
        norm = np.sqrt(sigma * sigma + sd * sd)
        return 1.0 / (sab * norm), sd * sd / (norm * norm * sab), sigma * sd / norm, sab, snab

    def _eps_rows(self, x_rows: np.ndarray, t, cond) -> tuple[np.ndarray, tuple, tuple]:
        """Noise prediction for rows of flattened x_t at one timestep, with
        the forward cache and the preconditioning coefficients."""
        if cond is None:
            raise ValueError("this denoiser is conditional; cond is required")
        if not isinstance(cond, ConditionProjection):
            cond = self.prepare_condition(cond)
        if cond.z1.shape[0] != x_rows.shape[0]:
            raise ValueError(f"{cond.z1.shape[0]} conditions for {x_rows.shape[0]} images")
        coeffs = c_in, c_skip, c_out, sab, snab = self._precond(t)
        out, cache = self._body(c_in * x_rows, t, cond)
        eps = ((1.0 - sab * c_skip) * x_rows - sab * c_out * out.astype(float)) / snab
        return eps, cache, coeffs

    def evaluate(self, x_t, t, cond=None):
        """Predicted noise for x_t of shape (H, W, 3) or a batch (B, H, W, 3)."""
        x = np.asarray(x_t, dtype=float)
        return self._eps_rows(x.reshape(-1, self.arch.triaxis_dim), t, cond)[0].reshape(x.shape)

    def vjp(self, x_t, t, cond, cotangent):
        """d<cotangent, evaluate(x_t)>/d x_t from one forward and one input
        pullback through the network. No command calls it; it stays because
        the benchmark's tracer (``perfbench/tracing.py``) looks it up by name."""
        x = np.asarray(x_t, dtype=float)
        eps, cache, (c_in, c_skip, c_out, sab, snab) = self._eps_rows(
            x.reshape(-1, self.arch.triaxis_dim), t, cond
        )
        cot = np.asarray(cotangent, dtype=float).reshape(eps.shape)
        d_z1 = self._pre_activation_grads(cot.astype(self.dtype), cache)[0]
        body = (self.weights[0][: self.arch.triaxis_dim] @ d_z1.T).T.astype(float)
        return (((1.0 - sab * c_skip) * cot - sab * c_out * c_in * body) / snab).reshape(x.shape)


class Adam:
    """Adaptive-moment stochastic gradient optimizer over one flat parameter
    buffer, updated in place. The memory-bound step runs all its elementwise
    passes on one block of ADAM_BLOCK elements before the next, so a block's
    five arrays (1.25 MB in float32) stay in cache; each pass is IEEE-rounded
    elementwise, so the result is bit-identical to whole-buffer passes."""

    def __init__(self, param: np.ndarray, cfg: OptConfig):
        self.cfg = cfg
        self.m = np.zeros_like(param)
        self.v = np.zeros_like(param)
        self._buf = np.empty(min(param.size, ADAM_BLOCK), param.dtype)
        self.step_count = 0

    def step(self, param: np.ndarray, grad: np.ndarray) -> None:
        """One update from grad."""
        c = self.cfg
        self.step_count += 1
        bc1 = 1.0 - c.beta1**self.step_count
        bc2 = 1.0 - c.beta2**self.step_count
        for lo in range(0, param.size, ADAM_BLOCK):
            p, g, m, v = (a[lo : lo + ADAM_BLOCK] for a in (param, grad, self.m, self.v))
            buf = self._buf[: p.size]
            m *= c.beta1
            np.multiply(g, 1.0 - c.beta1, out=buf)
            m += buf
            v *= c.beta2
            np.multiply(g, g, out=buf)
            buf *= 1.0 - c.beta2
            v += buf
            np.divide(v, bc2, out=buf)
            np.sqrt(buf, out=buf)
            buf += c.adam_eps
            np.divide(m, buf, out=buf)
            buf *= c.lr / bc1
            p -= buf


@dataclass
class TrainResult:
    denoiser: MLPDenoiser
    log: list[dict] = field(default_factory=list)
    final_loss: float = float("nan")
    initial_loss: float = float("nan")


def train_denoiser(
    dataset: list[tuple[np.ndarray, np.ndarray]],
    arch: ArchConfig,
    opt: OptConfig,
    sched: DiffusionSchedule,
    rng: np.random.Generator,
    start_from: MLPDenoiser | None = None,
) -> TrainResult:
    """Fit the denoiser to (tri-axis, query) pairs.

    The objective is the clean-image error (x0_hat - x0)^2 weighted by
    min(SNR, MAX_LOSS_WEIGHT), SNR = abar / (1 - abar): the signal-to-noise
    weight of the noise-prediction loss, capped so that low-noise draws
    cannot dominate a batch (Hang et al., min-SNR weighting). A new
    denoiser takes sigma_data from the standard deviation of the training
    tri-axis pixels.
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    n = len(dataset)
    x0s = np.stack([np.asarray(x, float).reshape(-1) for x, _ in dataset])
    conds = np.stack([np.asarray(c, float).reshape(-1) for _, c in dataset])
    if x0s.shape[1] != arch.triaxis_dim or conds.shape[1] != arch.cond_dim:
        raise ValueError("dataset resolution does not match the architecture")

    if start_from is not None:
        den = start_from
    else:
        den = MLPDenoiser(arch, sched, rng, float(x0s.std()) or DEFAULT_SIGMA_DATA)
    adam = Adam(den.flat, opt)
    grad = np.empty_like(den.flat)
    log: list[dict] = []
    running = None
    initial = None
    warmup_sum = 0.0

    for step in range(1, opt.steps + 1):
        idx = rng.integers(0, n, size=opt.batch_size)
        ts = rng.integers(1, sched.T + 1, size=opt.batch_size)
        c_in, c_skip, c_out, sab, snab = (c[:, None] for c in den._precond(ts))
        ab = sab * sab
        eps = rng.standard_normal((opt.batch_size, arch.triaxis_dim))
        x0 = x0s[idx]
        x_t = sab * x0 + snab * eps
        out, cache = den._body(c_in * x_t, ts, den.prepare_condition(conds[idx]))
        # x0 loss weighted by min(SNR, MAX_LOSS_WEIGHT), written in F's terms:
        # x0_hat - x0 = c_out * (F - (x0 - c_skip * x_t) / c_out)
        wgt = np.minimum(ab / (1.0 - ab), MAX_LOSS_WEIGHT) * c_out * c_out
        diff = out.astype(float) - (x0 - c_skip * x_t) / c_out
        loss = float((wgt * diff * diff).mean())
        den._backward((2.0 * wgt * diff / diff.size).astype(den.dtype), cache, out=grad)
        adam.step(den.flat, grad)

        if not math.isfinite(loss):
            raise DivergedLoss(f"non-finite loss at step {step}")
        if running is None:
            running = loss
        else:
            running = 0.99 * running + 0.01 * loss
        if step <= _DIVERGENCE_WARMUP:
            # a single batch's loss depends on its timestep draws, so the
            # divergence baseline is the mean over the warm-up steps
            warmup_sum += loss
            initial = warmup_sum / step
        elif running > 10.0 * initial:
            raise DivergedLoss(f"running loss {running:.4g} vs initial {initial:.4g}")
        if step == 1 or step % opt.log_every == 0 or step == opt.steps:
            log.append({"step": step, "loss": loss, "running": running})

    return TrainResult(denoiser=den, log=log, final_loss=running, initial_loss=initial)


# --- checkpoints ---

def save_checkpoint(path: str | Path, den: MLPDenoiser) -> None:
    """magic, version, JSON header (arch, schedule, sigma_data), then the
    parameter buffer as little-endian float32."""
    header = {
        "arch": den.arch.to_dict(),
        "schedule": den.sched.to_dict(),
        "sigma_data": den.sigma_data,
    }
    hbytes = json.dumps(header, sort_keys=True).encode()
    with atomic_write(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(hbytes)))
        f.write(hbytes)
        f.write(np.ascontiguousarray(den.flat, dtype="<f4"))


def load_checkpoint(path: str | Path) -> MLPDenoiser:
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        try:
            version, hlen = struct.unpack("<II", f.read(8))
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"{path}: unsupported checkpoint version {version}")
            header = json.loads(f.read(hlen).decode())
            arch = ArchConfig.from_dict(header["arch"])
            sp = header["schedule"]
            sched = make_schedule(int(sp["T"]), float(sp["zeta_start"]), float(sp["zeta_end"]))
            den = MLPDenoiser(arch, sched, None, float(header["sigma_data"]))
        except (struct.error, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: malformed checkpoint header: {exc!r}") from exc
        if f.readinto(den.flat) != den.flat.nbytes:
            raise ValueError(f"{path}: truncated checkpoint")
    if sys.byteorder != "little":
        den.flat.byteswap(inplace=True)
    return den
