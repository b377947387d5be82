"""Trainable conditional denoiser: a fully connected network with
hand-rolled reverse-mode gradients and an adaptive-moment optimizer.

Input is the scaled noisy tri-axis image, the flattened query image, and
a sinusoidal timestep embedding. The first layer multiplies each of the
three by its own row block of the first weight, on one forward path that
training and sampling share; a sampling chain prepares the query's product
once. The network body F is preconditioned as in
Karras et al. (arXiv:2206.00364), and the denoiser returns the clean-image
estimate x0_hat = c_skip * x + c_out * F(c_in * x, ...) on the rescaled
input x = x_t / sqrt(abar), with c_skip the posterior-mean gain of a
Gaussian prior of the data's standard deviation sigma_data: the quantity
training fits. The skip carries the noisy image through at low noise, where
a hidden layer narrower than the output could not. The parameters live in
one flat float32 buffer, and the network passes (forward, weight
gradients) and the optimizer run in float32. The preconditioning runs in
x_t's dtype, so x0_hat comes back in it: a sampling chain stays float32,
and a float64 x_t gives a float64 x0_hat. Training keeps the images in
their stored float32 and widens each step's batch: its x_t, residual and
loss stay float64.
Training never holds a whole gradient: the weight gradient comes block by
block, each block one product over the batch, and the optimizer applies
each block as it comes, so a step holds the buffer, the two moments and
two blocks of scratch.
Checkpoints store the buffer as little-endian float32.
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
from .diffusion import DenoiserInterface, DiffusionSchedule, forward_diffuse, make_schedule
from .errors import DivergedLoss, InvalidSchedule
from .render import atomic_write, float_array

CHECKPOINT_MAGIC = b"AXISFORGE-CKPT"
CHECKPOINT_VERSION = 2  # 2: preconditioned denoiser, sigma_data in the header
_DIVERGENCE_WARMUP = 50  # steps used to establish the divergence baseline
DEFAULT_SIGMA_DATA = 0.5  # EDM's data standard deviation, for a denoiser built without data
MAX_LOSS_WEIGHT = 5.0  # per-draw cap of the signal-to-noise loss weight
ADAM_BLOCK = 1 << 16  # elements per gradient block of the Adam step's walk (two rows when they are wider)


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
    estimate, which evaluate returns.

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
        if not 0 < sigma_data < math.inf:
            raise ValueError("sigma_data must be finite and positive")
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

    def _backward(self, d_out: np.ndarray, cache, scratch: np.ndarray):
        """Gradient of <d_out, F> as (offset, block) pairs that cover the
        parameter buffer in order. A block is whole rows of one weight, made
        by one product over the batch, or one bias, made by one sum. A
        weight block has ADAM_BLOCK // n_out rows but at least two, and a
        last block of one row joins the block before it: NumPy computes a
        one-row product as a matrix-vector product, whose sums round
        differently from the whole product's. Each block is written into
        scratch (grad_scratch gives one that fits) and holds until the next
        is drawn. The cache is _body's at one timestep per row; the first
        weight's rows come from its three inputs in turn."""
        x_in, cond_rows, temb, h1, h2 = cache
        d_z1, d_z2 = self._pre_activation_grads(d_out, cache)
        offset = 0
        for lefts, right in (((x_in, cond_rows, temb), d_z1), ((h1,), d_z2), ((h2,), d_out)):
            n_out = right.shape[1]
            rows = max(2, ADAM_BLOCK // n_out)
            for left in lefts:
                r0, n = 0, left.shape[1]
                while r0 < n:
                    r1 = n if n - r0 <= rows + 1 else r0 + rows
                    block = scratch[: (r1 - r0) * n_out]
                    np.matmul(left[:, r0:r1].T, right, out=block.reshape(-1, n_out))
                    yield offset, block
                    offset += block.size
                    r0 = r1
            yield offset, np.sum(right, axis=0, out=scratch[:n_out])
            offset += n_out

    def grad_scratch(self) -> np.ndarray:
        """A scratch array that holds the largest block _backward yields."""
        widest = max(self.arch.hidden, self.arch.triaxis_dim)
        return np.empty(min(self.flat.size, max(ADAM_BLOCK, 2 * widest) + widest), self.dtype)

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
        (c_in, c_skip, c_out, sqrt(abar))."""
        ab = self.sched.alpha_bar[np.asarray(t, dtype=int) - 1]
        sab = np.sqrt(ab)
        sigma, sd = np.sqrt(1.0 - ab) / sab, self.sigma_data
        norm = np.sqrt(sigma * sigma + sd * sd)
        return 1.0 / (sab * norm), sd * sd / (norm * norm * sab), sigma * sd / norm, sab

    def _x0_rows(self, x_rows: np.ndarray, t, cond) -> tuple[np.ndarray, tuple, tuple]:
        """Clean-image estimate for rows of flattened x_t at one timestep, in
        x_rows' dtype, with the forward cache and the coefficients (c_in,
        c_skip, c_out)."""
        if cond is None:
            raise ValueError("this denoiser is conditional; cond is required")
        if not isinstance(cond, ConditionProjection):
            cond = self.prepare_condition(cond)
        if cond.z1.shape[0] != x_rows.shape[0]:
            raise ValueError(f"{cond.z1.shape[0]} conditions for {x_rows.shape[0]} images")
        # Python-float coefficients, so that each product runs in x_rows' dtype
        c_in, c_skip, c_out = (float(c) for c in self._precond(t)[:3])
        # c_in * x_rows rounds to the network's dtype after the product
        x_in = np.multiply(x_rows, c_in, out=np.empty(x_rows.shape, self.dtype), casting="same_kind")
        out, cache = self._body(x_in, t, cond)
        # c_skip * x_rows + c_out * F in x_rows' dtype, operation by operation
        x0_hat = np.multiply(x_rows, c_skip)
        x0_hat += np.multiply(out, c_out, dtype=x_rows.dtype)
        return x0_hat, cache, (c_in, c_skip, c_out)

    def evaluate(self, x_t, t, cond=None):
        """Clean-image estimate for x_t of shape (H, W, 3) or a batch (B, H, W, 3),
        in x_t's dtype: float32 stays float32, anything else is float64."""
        x = float_array(x_t)
        return self._x0_rows(x.reshape(-1, self.arch.triaxis_dim), t, cond)[0].reshape(x.shape)

    def vjp(self, x_t, t, cond, cotangent):
        """d<cotangent, evaluate(x_t)>/d x_t from one forward and one input
        pullback through the network. No command calls it; it stays because
        the benchmark's tracer (``perfbench/tracing.py``) looks it up by name."""
        x = np.asarray(x_t, dtype=float)
        x0_hat, cache, (c_in, c_skip, c_out) = self._x0_rows(x.reshape(-1, self.arch.triaxis_dim), t, cond)
        cot = np.asarray(cotangent, dtype=float).reshape(x0_hat.shape)
        d_z1 = self._pre_activation_grads(cot.astype(self.dtype), cache)[0]
        body = (self.weights[0][: self.arch.triaxis_dim] @ d_z1.T).T.astype(float)
        return (c_skip * cot + c_out * c_in * body).reshape(x.shape)


class Adam:
    """Adaptive-moment stochastic gradient optimizer over one flat parameter
    buffer, updated in place. The step takes the gradient as blocks and
    runs all its elementwise passes on a block as it arrives, so no whole
    gradient exists and a block's five arrays (parameters, moments,
    gradient and one scratch; 1.25 MB in float32 at ADAM_BLOCK elements)
    stay in cache. Each pass is IEEE-rounded elementwise, so the result is
    bit-identical to whole-buffer passes over a whole gradient."""

    def __init__(self, param: np.ndarray, cfg: OptConfig):
        self.cfg = cfg
        self.m = np.zeros_like(param)
        self.v = np.zeros_like(param)
        self._buf = np.empty(0, param.dtype)  # grows to the largest block
        self.step_count = 0

    def step(self, param: np.ndarray, blocks) -> None:
        """One update from the gradient given as (offset, block) pairs that
        cover param, such as MLPDenoiser._backward yields."""
        c = self.cfg
        self.step_count += 1
        bc1 = 1.0 - c.beta1**self.step_count
        bc2 = 1.0 - c.beta2**self.step_count
        for lo, g in blocks:
            p, m, v = (a[lo : lo + g.size] for a in (param, self.m, self.v))
            if self._buf.size < g.size:
                self._buf = np.empty(g.size, param.dtype)
            buf = self._buf[: g.size]
            m *= c.beta1
            np.multiply(g, 1.0 - c.beta1, out=buf)
            m += buf
            v *= c.beta2
            np.square(g, out=buf)
            buf *= 1.0 - c.beta2
            v += buf
            np.divide(v, bc2, out=buf)
            np.sqrt(buf, out=buf)
            buf += c.adam_eps
            np.divide(m, buf, out=buf)
            buf *= c.lr / bc1
            p -= buf


def _float64_std(a: np.ndarray) -> float:
    """np.std of a's float64 widening, bit for bit, from one widened copy:
    np.std's own passes (sum, divide, subtract, square, sum, divide, square
    root), with the deviations written over the copy."""
    w = a.astype(float)
    w -= np.add.reduce(w, axis=None, keepdims=True) / w.size
    w *= w
    return math.sqrt(np.add.reduce(w, axis=None) / w.size)


@dataclass
class TrainResult:
    denoiser: MLPDenoiser
    log: list[dict] = field(default_factory=list)
    final_loss: float = float("nan")
    initial_loss: float = float("nan")


def train_denoiser(
    x0s: np.ndarray,
    conds: np.ndarray,
    arch: ArchConfig,
    opt: OptConfig,
    sched: DiffusionSchedule,
    rng: np.random.Generator,
    start_from: MLPDenoiser | None = None,
) -> TrainResult:
    """Fit the denoiser to tri-axis images x0s, (n, H, W, 3), and their
    query images conds, (n, H, W), as load_images returns them. Float32
    (or float64) arrays are read in place, not copied: a step gathers its
    batch of rows and widens only those to float64, exactly, so float32
    images and their float64 widening train alike, bit for bit.

    The objective is the clean-image error (x0_hat - x0)^2 weighted by
    min(SNR, MAX_LOSS_WEIGHT), SNR = abar / (1 - abar): the signal-to-noise
    weight of the noise-prediction loss, capped so that low-noise draws
    cannot dominate a batch (Hang et al., min-SNR weighting). A new
    denoiser takes sigma_data from the standard deviation of the training
    tri-axis pixels, taken in float64.

    A step's float64 work is two batch-sized arrays, reused from step to
    step: x_t, then the loss terms; and the noise, then the residual.
    """
    n = len(x0s)
    if n == 0:
        raise ValueError("dataset must be nonempty")
    if len(conds) != n:
        raise ValueError(f"{n} tri-axis images for {len(conds)} query images")
    x0s = float_array(x0s).reshape(n, -1)
    conds = float_array(conds).reshape(n, -1)
    if x0s.shape[1] != arch.triaxis_dim or conds.shape[1] != arch.cond_dim:
        raise ValueError("dataset resolution does not match the architecture")

    if start_from is not None:
        den = start_from
    else:
        den = MLPDenoiser(arch, sched, rng, _float64_std(x0s) or DEFAULT_SIGMA_DATA)
    adam = Adam(den.flat, opt)
    scratch = den.grad_scratch()
    shape = (opt.batch_size, arch.triaxis_dim)
    x_t, res = np.empty(shape), np.empty(shape)  # float64 step work
    x_in = np.empty(shape, den.dtype)  # the network's input, which the step's cache holds
    log: list[dict] = []
    running = None
    initial = None
    warmup_sum = 0.0

    for step in range(1, opt.steps + 1):
        idx = rng.integers(0, n, size=opt.batch_size)
        ts = rng.integers(1, sched.T + 1, size=opt.batch_size)
        c_in, c_skip, c_out, sab = (c[:, None] for c in den._precond(ts))
        ab = sab * sab
        x0 = x0s[idx]
        forward_diffuse(x0, ts[:, None], sched, rng, out=(x_t, res))
        # c_in * x_t rounds to the network's dtype after the product
        np.multiply(c_in, x_t, out=x_in, casting="same_kind")
        out, cache = den._body(x_in, ts, den.prepare_condition(conds[idx]))
        # x0 loss weighted by min(SNR, MAX_LOSS_WEIGHT), written in F's terms:
        # x0_hat - x0 = c_out * (F - (x0 - c_skip * x_t) / c_out); each pass
        # below is one operation of that formula, written into res or x_t
        wgt = np.minimum(ab / (1.0 - ab), MAX_LOSS_WEIGHT) * c_out * c_out
        np.multiply(c_skip, x_t, out=res)
        np.subtract(x0, res, out=res)
        res /= c_out
        diff = np.subtract(out, res, out=res)
        terms = np.multiply(wgt, diff, out=x_t)
        terms *= diff
        loss = float(terms.mean())
        np.multiply(2.0 * wgt, diff, out=x_t)
        # out is spent: it takes the output cotangent 2 * wgt * diff / diff.size,
        # rounded to the network's dtype
        d_out = np.divide(x_t, diff.size, out=out, casting="same_kind")
        adam.step(den.flat, den._backward(d_out, cache, scratch))
        del x0, out, cache, d_out  # freed before the next step allocates its own

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
        head = f.read(8)
        if len(head) != 8:
            raise ValueError(f"{path}: truncated checkpoint")
        version, hlen = struct.unpack("<II", head)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        try:  # not JSON or UTF-8 (ValueError), a missing field or a bad value
            header = json.loads(f.read(hlen).decode())
            arch = ArchConfig.from_dict(header["arch"])
            sp = header["schedule"]
            sched = make_schedule(int(sp["T"]), float(sp["zeta_start"]), float(sp["zeta_end"]))
            den = MLPDenoiser(arch, sched, None, float(header["sigma_data"]))
        except (KeyError, TypeError, ValueError, OverflowError, InvalidSchedule) as exc:
            raise ValueError(f"{path}: malformed checkpoint header: {exc!r}") from exc
        if f.readinto(den.flat) != den.flat.nbytes:
            raise ValueError(f"{path}: truncated checkpoint")
        if f.read(1):
            raise ValueError(f"{path}: bytes after the parameter buffer")
    if sys.byteorder != "little":
        den.flat.byteswap(inplace=True)
    return den
