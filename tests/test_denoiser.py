import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from axisforge import denoiser, diffusion
from axisforge.camera import Pose, rot_x, rot_y
from axisforge.config import ArchConfig, OptConfig, default_intrinsics
from axisforge.denoiser import (
    ADAM_BLOCK,
    Adam,
    MLPDenoiser,
    load_checkpoint,
    save_checkpoint,
    time_embedding,
    train_denoiser,
)
from axisforge.diffusion import make_schedule
from axisforge.errors import DivergedLoss
from axisforge.render import render_query, render_triaxis

ARCH = ArchConfig(image_size=8, hidden=32, time_embed_dim=8)
SCHED = make_schedule(10, 1e-2, 0.2)


def _tiny_dataset(size=8):
    """One pose's tri-axis and query images, stacked as load_images gives them."""
    K = default_intrinsics(size)
    pose = Pose(R=rot_x(25.0) @ rot_y(40.0), T=np.array([0.0, 0.0, 5.0]))
    return np.stack([render_triaxis(K, pose, thickness_px=1.5)]), np.stack([render_query(K, pose)])


def test_time_embedding_shape_and_range():
    emb = time_embedding([1, 5, 10], 8)
    assert emb.shape == (3, 8)
    assert np.all(np.abs(emb) <= 1.0)
    assert not np.allclose(emb[0], emb[1])


def test_arch_config_validation():
    with pytest.raises(ValueError):
        ArchConfig(image_size=2)
    with pytest.raises(ValueError):
        ArchConfig(time_embed_dim=7)


def test_evaluate_shape_and_cond_required():
    rng = np.random.default_rng(0)
    den = MLPDenoiser(ARCH, SCHED, rng)
    x = rng.standard_normal((8, 8, 3))
    cond = rng.standard_normal((8, 8))
    out = den.evaluate(x, 5, cond)
    assert out.shape == x.shape
    with pytest.raises(ValueError):
        den.evaluate(x, 5, None)


def test_evaluate_is_the_preconditioned_clean_image_estimate():
    # the denoiser returns x0_hat = c_skip * x_t + c_out * F(c_in * x_t), the
    # quantity train_denoiser fits, not a noise prediction
    # bit for bit, in x_t's dtype with Python-float coefficients: the product
    # c_in * x_t is rounded to the network's dtype, and F comes back to x_t's
    # dtype before the combination. A float32 x_t gives a float32 x0_hat,
    # whatever the network's dtype
    rng = np.random.default_rng(13)
    x64 = rng.standard_normal((2, 8, 8, 3))
    cond = rng.random((2, 8, 8))
    for dtype in (np.float64, np.float32):
        den = MLPDenoiser(ARCH, SCHED, rng, 0.3, dtype)
        for x in (x64, x64.astype(np.float32)):
            rows = x.reshape(2, -1)
            for t in (1, 5, 10):
                c_in, c_skip, c_out = (float(c) for c in den._precond(t)[:3])
                body, _ = den._body(c_in * rows, t, den.prepare_condition(cond))
                expected = (c_skip * rows + c_out * body.astype(x.dtype)).reshape(x.shape)
                x0_hat = den.evaluate(x, t, cond)
                assert x0_hat.dtype == x.dtype
                assert np.array_equal(x0_hat, expected)


def test_vjp_matches_finite_differences():
    rng = np.random.default_rng(1)
    den = MLPDenoiser(ARCH, SCHED, rng, dtype=np.float64)
    x = rng.standard_normal((8, 8, 3))
    cond = rng.standard_normal((8, 8))
    cot = rng.standard_normal((8, 8, 3))
    grad = den.vjp(x, 5, cond, cot)
    h = 1e-6
    flat = grad.ravel()
    for j in rng.choice(flat.size, size=8, replace=False):
        dx = np.zeros(flat.size)
        dx[j] = h
        dx = dx.reshape(x.shape)
        fd = float(
            (cot * (den.evaluate(x + dx, 5, cond) - den.evaluate(x - dx, 5, cond))).sum()
        ) / (2 * h)
        assert abs(float(flat[j]) - fd) < 1e-5 * max(1.0, abs(fd))


def test_float32_network_agrees_with_float64():
    # the production float32 network against a float64 copy of its weights:
    # each output within 1e-5 of the float64 one's largest magnitude (float32
    # rounding through three layers stays below 1e-6 here)
    rtol = 1e-5
    rng = np.random.default_rng(9)
    den32 = MLPDenoiser(ARCH, SCHED, rng)
    den64 = MLPDenoiser(ARCH, SCHED, None, den32.sigma_data, np.float64)
    den64.flat[...] = den32.flat
    assert den32.flat.dtype == np.float32 and den64.flat.dtype == np.float64

    def close(a, b):
        return np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))

    x = rng.standard_normal((4, 8, 8, 3))
    cond = rng.random((4, 8, 8))
    cot = rng.standard_normal(x.shape)
    for t in (1, 5, 10):
        x0_32 = den32.evaluate(x, t, cond)
        assert x0_32.dtype == np.float64  # x0_hat comes back in x_t's dtype, not the network's
        assert close(x0_32, den64.evaluate(x, t, cond))
        assert close(den32.vjp(x, t, cond, cot), den64.vjp(x, t, cond, cot))
    x_in, ts = x.reshape(4, -1), np.array([1, 4, 7, 10])
    d_out = rng.standard_normal((4, ARCH.triaxis_dim))
    grad32 = _walked_gradient(den32, d_out.astype(np.float32), den32._body(x_in, ts, den32.prepare_condition(cond))[1])
    grad64 = _walked_gradient(den64, d_out, den64._body(x_in, ts, den64.prepare_condition(cond))[1])
    assert grad32.dtype == np.float32
    for g32, g64 in zip(den32._views(grad32), den64._views(grad64)):
        assert close(g32, g64)


def test_prepared_condition():
    rng = np.random.default_rng(10)
    den = MLPDenoiser(ARCH, SCHED, rng)
    x = rng.standard_normal((3, 8, 8, 3))
    cond = rng.random((3, 8, 8))
    prepared = den.prepare_condition(cond)
    assert np.array_equal(den.evaluate(x, 5, prepared), den.evaluate(x, 5, cond))
    assert np.array_equal(den.evaluate(x[1], 5, cond[1]), den.evaluate(x[1], 5, den.prepare_condition(cond[1])))
    with pytest.raises(ValueError):
        den.evaluate(x[:2], 5, prepared)  # three conditions for two images


def test_training_reduces_loss():
    rng = np.random.default_rng(2)
    res = train_denoiser(
        *_tiny_dataset(), ARCH, OptConfig(steps=400, batch_size=16, lr=3e-3), SCHED, rng
    )
    assert res.final_loss < 0.6 * res.initial_loss
    assert res.log[0]["step"] == 1
    assert res.log[-1]["step"] == 400


def test_training_is_deterministic():
    data = _tiny_dataset()
    opt = OptConfig(steps=50, batch_size=8, lr=1e-3)
    a = train_denoiser(*data, ARCH, opt, SCHED, np.random.default_rng(3)).denoiser
    b = train_denoiser(*data, ARCH, opt, SCHED, np.random.default_rng(3)).denoiser
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)


def _walked_gradient(den, d_out, cache):
    """The block walk's gradient, filled into one parameter-sized array."""
    grad = np.empty_like(den.flat)
    for lo, g in den._backward(d_out, cache, den.grad_scratch()):
        grad[lo : lo + g.size] = g
    return grad


def _whole_gradient(den, d_out, cache, scratch=None):
    """The weight gradient as whole-matrix products into one parameter-sized
    array, one product per row block of a weight (the first weight has one
    per input): the form the block walk must reproduce bit for bit."""
    x_in, cond_rows, temb, h1, h2 = cache
    d_z1, d_z2 = den._pre_activation_grads(d_out, cache)
    grad = np.empty_like(den.flat)
    g_w1, g_b1, g_w2, g_b2, g_w3, g_b3 = den._views(grad)
    nx, nc = den.arch.triaxis_dim, den.arch.cond_dim
    np.matmul(x_in.T, d_z1, out=g_w1[:nx])
    np.matmul(cond_rows.T, d_z1, out=g_w1[nx : nx + nc])
    np.matmul(temb.T, d_z1, out=g_w1[nx + nc :])
    np.sum(d_z1, axis=0, out=g_b1)
    np.matmul(h1.T, d_z2, out=g_w2)
    np.sum(d_z2, axis=0, out=g_b2)
    np.matmul(h2.T, d_out, out=g_w3)
    np.sum(d_out, axis=0, out=g_b3)
    return grad


class _WholeBufferAdam:
    """The Adam step as whole-buffer passes over a whole gradient, the form
    the blocked walk must reproduce bit for bit."""

    def __init__(self, param, cfg):
        self.cfg = cfg
        self.m = np.zeros_like(param)
        self.v = np.zeros_like(param)
        self._buf = np.empty_like(param)
        self.step_count = 0

    def step(self, param, grad):
        c = self.cfg
        m, v, buf = self.m, self.v, self._buf
        self.step_count += 1
        bc1 = 1.0 - c.beta1**self.step_count
        bc2 = 1.0 - c.beta2**self.step_count
        m *= c.beta1
        np.multiply(grad, 1.0 - c.beta1, out=buf)
        m += buf
        v *= c.beta2
        np.multiply(grad, grad, out=buf)
        buf *= 1.0 - c.beta2
        v += buf
        np.divide(v, bc2, out=buf)
        np.sqrt(buf, out=buf)
        buf += c.adam_eps
        np.divide(m, buf, out=buf)
        buf *= c.lr / bc1
        param -= buf


def _blocks(grad, width):
    return ((lo, grad[lo : lo + width]) for lo in range(0, grad.size, width))


@pytest.mark.parametrize("size", [1, ADAM_BLOCK - 1, ADAM_BLOCK, 2 * ADAM_BLOCK + 3])
def test_adam_step_matches_whole_buffer_passes(size):
    # blocks of ADAM_BLOCK, of an odd width and wider than ADAM_BLOCK, which
    # grows the step's scratch
    rng = np.random.default_rng(size)
    cfg = OptConfig(lr=3e-3)
    param = rng.standard_normal(size).astype(np.float32)
    ref_param = param.copy()
    adam, ref = Adam(param, cfg), _WholeBufferAdam(ref_param, cfg)
    for width in (ADAM_BLOCK, 3001, ADAM_BLOCK + 7):
        grad = rng.standard_normal(size).astype(np.float32)
        adam.step(param, _blocks(grad, width))
        ref.step(ref_param, grad)
    assert np.array_equal(param, ref_param)
    assert np.array_equal(adam.m, ref.m) and np.array_equal(adam.v, ref.v)


@pytest.mark.parametrize(
    "image_size, hidden, dtype",
    [
        (32, 43, np.float32),  # first weight: 1524 image rows a block, ragged; last: 21 rows, then 22 with the one left over
        (148, 5, np.float32),  # last-weight rows of 65,712 elements, wider than ADAM_BLOCK: blocks of 2 and 3 rows
        (32, 43, np.float64),  # in float64 a one-row product rounds differently at any width
        (8, 32, np.float32),
        (8, 1, np.float64),  # one hidden unit: one-column factors, whose whole products are matrix-vector ones too
    ],
)
@pytest.mark.parametrize("batch", [18, 32])
def test_block_walk_is_the_whole_gradient_bit_for_bit(image_size, hidden, dtype, batch):
    arch = ArchConfig(image_size=image_size, hidden=hidden, time_embed_dim=8)
    rng = np.random.default_rng(batch)
    den = MLPDenoiser(arch, SCHED, rng, dtype=dtype)
    x_in = rng.standard_normal((batch, arch.triaxis_dim))
    cond = rng.random((batch, arch.cond_dim))
    cache = den._body(x_in, rng.integers(1, SCHED.T + 1, size=batch), den.prepare_condition(cond))[1]
    d_out = rng.standard_normal((batch, arch.triaxis_dim)).astype(dtype)
    scratch = den.grad_scratch()
    end = 0
    for lo, g in den._backward(d_out, cache, scratch):
        assert lo == end and np.shares_memory(g, scratch)  # in order, without gaps, in the scratch
        end += g.size
    assert end == den.flat.size
    assert np.array_equal(_walked_gradient(den, d_out, cache), _whole_gradient(den, d_out, cache))


def test_training_matches_whole_buffer_adam(monkeypatch):
    # the block walk into the blocked step against whole-matrix gradient
    # products into whole-buffer passes: parameters, moments and log agree
    cases = [
        (32, 43, np.float32),  # ragged last blocks, and a one-row remainder joined to the block before it
        (148, 5, np.float32),  # rows wider than ADAM_BLOCK
        (16, 64, np.float32),
        (32, 43, np.float64),
    ]
    opt = OptConfig(steps=4, batch_size=18)  # at batch 4 a float32 one-row product happens to round alike

    def run(arch, dtype, data, adam_cls):
        made = []

        def make(param, cfg):
            made.append(adam_cls(param, cfg))
            return made[-1]

        monkeypatch.setattr(denoiser, "Adam", make)
        start = MLPDenoiser(arch, SCHED, np.random.default_rng(5), dtype=dtype)
        res = train_denoiser(*data, arch, opt, SCHED, np.random.default_rng(12), start_from=start)
        assert len(made) == 1 and made[0].step_count == opt.steps
        return res, made[0]

    for image_size, hidden, dtype in cases:
        arch = ArchConfig(image_size=image_size, hidden=hidden)
        data = _tiny_dataset(image_size)
        blocked, blocked_adam = run(arch, dtype, data, Adam)
        with monkeypatch.context() as patch:
            patch.setattr(MLPDenoiser, "_backward", _whole_gradient)
            whole, whole_adam = run(arch, dtype, data, _WholeBufferAdam)
        assert blocked.denoiser.flat.dtype == dtype
        assert np.array_equal(blocked.denoiser.flat, whole.denoiser.flat)
        assert np.array_equal(blocked_adam.m, whole_adam.m) and np.array_equal(blocked_adam.v, whole_adam.v)
        assert blocked.log == whole.log


def test_adam_allocates_no_whole_buffer_scratch():
    # an optimizer's own allocations are its two moments; the step's scratch
    # and any temporaries stay within two blocks
    n = 4 * 2**20
    param = np.zeros(n, np.float32)
    grad = np.full(n, 0.5, np.float32)
    tracemalloc.start()
    try:
        Adam(param, OptConfig()).step(param, _blocks(grad, ADAM_BLOCK))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * param.nbytes + 2 * ADAM_BLOCK * 4


def _float32_rows(n, size, seed=0):
    """n random tri-axis and query rows in [0, 1], float32 as load_images gives them."""
    rng = np.random.default_rng(seed)
    return rng.random((n, size, size, 3), dtype=np.float32), rng.random((n, size, size), dtype=np.float32)


def test_training_holds_no_whole_gradient():
    # a training call's parameter-sized arrays are the buffer and Adam's two
    # moments; the gradient comes one block at a time, and the data is read
    # in place. The float32 set (4 MB) is large enough that a float64 copy of
    # it (8 MB) would break the bound.
    arch = ArchConfig(image_size=16, hidden=512)
    rng = np.random.default_rng(0)  # outside the trace: the first use imports numpy.random
    for x0s, conds in (_tiny_dataset(16), _float32_rows(1000, 16)):
        tracemalloc.start()
        try:
            den = train_denoiser(x0s, conds, arch, OptConfig(steps=2, batch_size=4), SCHED, rng).denoiser
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert den.flat.size >= 1 << 20
        assert peak < 3 * den.flat.nbytes + x0s.nbytes + conds.nbytes + 4 * ADAM_BLOCK * den.flat.itemsize


def test_float32_rows_train_as_their_float64_widening():
    # each step widens its gathered batch, exactly: parameters, sigma_data
    # and log agree bit for bit with training on the widened arrays
    x0s, conds = _float32_rows(5, 8)
    opt = OptConfig(steps=20, batch_size=8, lr=3e-3, log_every=5)
    narrow, wide = (
        train_denoiser(x, c, ARCH, opt, SCHED, np.random.default_rng(4))
        for x, c in ((x0s, conds), (x0s.astype(float), conds.astype(float)))
    )
    assert narrow.denoiser.flat.tobytes() == wide.denoiser.flat.tobytes()
    assert narrow.denoiser.sigma_data == wide.denoiser.sigma_data == float(np.std(x0s.astype(float)))
    assert narrow.log == wide.log and len(narrow.log) == 5


def test_every_training_step_draws_x_t_through_forward_diffuse(monkeypatch):
    # the forward-diffuse-moments oracle checks forward_diffuse, so training
    # must draw its x_t there and train on what it draws
    data = _tiny_dataset()
    opt = OptConfig(steps=6, batch_size=8)
    plain = train_denoiser(*data, ARCH, opt, SCHED, np.random.default_rng(9))
    calls = []

    def spy(x0, t, sched, rng, out=None, shift=0.0):
        calls.append((x0.shape, np.shape(t)))
        x_t, eps = diffusion.forward_diffuse(x0, t, sched, rng, out=out)
        x_t += shift
        return x_t, eps

    monkeypatch.setattr(denoiser, "forward_diffuse", spy)
    spied = train_denoiser(*data, ARCH, opt, SCHED, np.random.default_rng(9))
    assert calls == [((8, ARCH.triaxis_dim), (8, 1))] * opt.steps
    assert spied.log == plain.log
    monkeypatch.setattr(denoiser, "forward_diffuse", lambda *args, **kw: spy(*args, **kw, shift=0.5))
    assert train_denoiser(*data, ARCH, opt, SCHED, np.random.default_rng(9)).log != plain.log


def test_training_diverged_loss_detection():
    with pytest.raises(DivergedLoss), np.errstate(over="ignore", invalid="ignore"):
        train_denoiser(
            *_tiny_dataset(),
            ARCH,
            OptConfig(steps=400, batch_size=8, lr=1e200),
            SCHED,
            np.random.default_rng(4),
        )


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    den = train_denoiser(
        *_tiny_dataset(), ARCH, OptConfig(steps=20, batch_size=8, lr=1e-3), SCHED, rng
    ).denoiser
    p = tmp_path / "ckpt.bin"
    save_checkpoint(p, den)
    back = load_checkpoint(p)
    assert back.arch == den.arch
    assert back.sched.T == den.sched.T
    # weights survive the float32 storage round trip
    for pa, pb in zip(den.parameters(), back.parameters()):
        assert np.allclose(pa, pb, atol=1e-6)
    # saving the loaded model reproduces the file byte-for-byte
    p2 = tmp_path / "ckpt2.bin"
    save_checkpoint(p2, back)
    assert p.read_bytes() == p2.read_bytes()


def test_failed_checkpoint_write_keeps_old_file(tmp_path):
    den = MLPDenoiser(ARCH, SCHED, np.random.default_rng(0))
    p = tmp_path / "ckpt.bin"
    save_checkpoint(p, den)
    old = p.read_bytes()
    den.flat = "not a number"  # fails after the header is written, at the parameter buffer
    with pytest.raises(ValueError):
        save_checkpoint(p, den)
    assert p.read_bytes() == old


def test_float64_checkpoint_save_load_save_is_byte_identical(tmp_path):
    # test_checkpoint_roundtrip covers a float32 network
    den = MLPDenoiser(ARCH, SCHED, np.random.default_rng(11), 0.3, np.float64)
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(first, den)
    back = load_checkpoint(first)
    assert back.flat.dtype == np.float32
    assert np.array_equal(back.flat, den.flat.astype(np.float32))
    save_checkpoint(second, back)
    assert first.read_bytes() == second.read_bytes()
    # a file cut short inside the parameter buffer is refused
    second.write_bytes(first.read_bytes()[:-4])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(second)
    # so are bytes after it: appended ones, and a smaller network's header
    # over a larger network's buffer, which would load misaligned
    second.write_bytes(first.read_bytes() + bytes(4096))
    with pytest.raises(ValueError, match="after the parameter buffer"):
        load_checkpoint(second)
    small, large = (MLPDenoiser(ArchConfig(image_size=8, hidden=h, time_embed_dim=8), SCHED, None) for h in (16, 32))
    save_checkpoint(first, small)
    save_checkpoint(second, large)
    header_end = len(first.read_bytes()) - small.flat.nbytes
    assert header_end == len(second.read_bytes()) - large.flat.nbytes  # hidden 16 and 32 have equal headers
    second.write_bytes(first.read_bytes()[:header_end] + second.read_bytes()[header_end:])
    with pytest.raises(ValueError, match="after the parameter buffer"):
        load_checkpoint(second)


def test_checkpoint_rejects_garbage(tmp_path):
    # every fault is a ValueError that names the file
    p = tmp_path / "bad.bin"

    def with_header(header: bytes) -> bytes:
        return denoiser.CHECKPOINT_MAGIC + struct.pack("<II", denoiser.CHECKPOINT_VERSION, len(header)) + header

    good = {"arch": ARCH.to_dict(), "schedule": SCHED.to_dict(), "sigma_data": 0.5}
    bad_headers = [
        {"schedule": SCHED.to_dict(), "sigma_data": 0.5},  # no arch
        {**good, "sigma_data": "abc"},
        {**good, "sigma_data": -1},
        {**good, "arch": {"hidden": "x"}},
        {**good, "schedule": {**SCHED.to_dict(), "T": 0}},
    ]
    for raw in (
        b"not a checkpoint at all",
        denoiser.CHECKPOINT_MAGIC + b"\x02\x00",  # cut short after the magic bytes
        with_header(b"{not json"),
        with_header(b"\xff\xfe{}"),  # not UTF-8
        *(with_header(json.dumps(header).encode()) for header in bad_headers),
    ):
        p.write_bytes(raw)
        with pytest.raises(ValueError, match=re.escape(str(p))):
            load_checkpoint(p)


def test_checkpoint_refuses_a_non_finite_sigma_data(tmp_path):
    # a header holding "sigma_data": Infinity once loaded, and every x0_hat was nan
    p = tmp_path / "ckpt.bin"
    save_checkpoint(p, MLPDenoiser(ARCH, SCHED, np.random.default_rng(0)))
    raw = p.read_bytes()
    start = len(denoiser.CHECKPOINT_MAGIC) + 8
    (hlen,) = struct.unpack("<I", raw[start - 4:start])
    for value in (float("inf"), float("nan")):
        header = json.dumps({**json.loads(raw[start:start + hlen]), "sigma_data": value}).encode()
        p.write_bytes(raw[:start - 4] + struct.pack("<I", len(header)) + header + raw[start + hlen:])
        with pytest.raises(ValueError, match=re.escape(str(p)) + ".*sigma_data must be finite and positive"):
            load_checkpoint(p)


def test_resume_continues_improving(tmp_path):
    data = _tiny_dataset()
    rng = np.random.default_rng(6)
    opt = OptConfig(steps=200, batch_size=16, lr=3e-3)
    first = train_denoiser(*data, ARCH, opt, SCHED, rng)
    second = train_denoiser(*data, ARCH, opt, SCHED, rng, start_from=first.denoiser)
    assert second.final_loss < 1.1 * first.final_loss


def test_dataset_resolution_mismatch():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        train_denoiser(*_tiny_dataset(16), ARCH, OptConfig(steps=5), SCHED, rng)
    x0s, conds = _tiny_dataset()
    with pytest.raises(ValueError, match="1 tri-axis images for 2 query images"):
        train_denoiser(x0s, np.concatenate([conds, conds]), ARCH, OptConfig(steps=5), SCHED, rng)


def test_sigma_data_from_training_set_and_checkpoint(tmp_path):
    data = _tiny_dataset()
    den = train_denoiser(*data, ARCH, OptConfig(steps=2, batch_size=4), SCHED, np.random.default_rng(8)).denoiser
    assert den.sigma_data == pytest.approx(float(np.std(data[0])))
    p = tmp_path / "ckpt.bin"
    save_checkpoint(p, den)
    assert load_checkpoint(p).sigma_data == den.sigma_data
    # a checkpoint of the earlier, unpreconditioned format is refused
    raw = bytearray(p.read_bytes())
    raw[len(b"AXISFORGE-CKPT") : len(b"AXISFORGE-CKPT") + 4] = (1).to_bytes(4, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: unsupported checkpoint version 1$"):
        load_checkpoint(p)
