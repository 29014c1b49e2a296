"""Network forward/backward, Adam, the cosine schedule, and the binary
checkpoint format.

The convolution convention (correlation, zero pad 1) is pinned with an
impulse kernel; every analytic gradient is checked against central finite
differences through the full forward pass, loss = sum(G * p). The
flat-shift Conv2d must also reproduce, byte for byte, the per-tap tensordot
form kept in oracles.
"""

import copy
import tracemalloc

import numpy as np
import pytest

import helpers
import oracles
from htlab.imagecore import Rng
from htlab.nn import (Adam, CheckpointError, Conv2d, Parameter,
                      PolicyNetwork, ResidualBlock, Workspace, cosine_lr,
                      load_checkpoint, network_from_checkpoint,
                      read_checkpoint, save_checkpoint)


def tiny_net(seed=0, channels=3, blocks=1):
    net = PolicyNetwork(channels=channels, blocks=blocks, in_channels=2)
    net.init_params(Rng(seed), std=0.05)
    return net


def net_input(seed=1, size=5, batch=1):
    rng = Rng(seed)
    return rng.uniforms(batch * 2 * size * size).reshape(batch, 2, size, size)


def seeded_conv(c_in, c_out, seed=7):
    rng = Rng(seed)
    conv = Conv2d(c_in, c_out)
    conv.weight.value[...] = rng.gaussians(conv.weight.value.size) \
        .reshape(conv.weight.value.shape) * 0.3
    conv.bias.value[...] = rng.gaussians(c_out)
    return conv


def gaussians(seed, shape):
    return Rng(seed).gaussians(int(np.prod(shape))).reshape(shape)


def convs(net):
    return [net.conv_in, net.conv_out] + [
        conv for blk in net.res for conv in (blk.conv1, blk.conv2)]


def train_pass(net, x, seed):
    """Forward, then backward of a seeded upstream gradient; the bytes of
    the output, the input gradient and every parameter gradient."""
    net.zero_grad()
    p = net.forward(x)
    dx = net.backward(gaussians(seed, p.shape))
    return [p.tobytes(), dx.tobytes()] + [q.grad.tobytes()
                                          for q in net.params()]


class TestConv2d:
    def test_impulse_pins_correlation_convention(self):
        # weight at kernel cell (0, 1) reads the pixel one row up:
        # out[y, x] = in[y-1, x], zero at the top border
        conv = Conv2d(1, 1)
        conv.weight.value[0, 0, 0, 1] = 1.0
        x = np.arange(12, dtype=np.float64).reshape(1, 1, 3, 4)
        out = conv.forward(x)
        assert np.array_equal(out[0, 0, 0], np.zeros(4))
        assert np.array_equal(out[0, 0, 1:], x[0, 0, :2])

    def test_forward_matches_windowed_sum_oracle(self):
        rng = Rng(3)
        conv = Conv2d(2, 3)
        conv.weight.value[...] = rng.gaussians(conv.weight.value.size) \
            .reshape(conv.weight.value.shape)
        conv.bias.value[...] = rng.gaussians(3)
        x = rng.uniforms(2 * 6 * 7).reshape(1, 2, 6, 7)
        out = conv.forward(x)
        for o in range(3):
            want = np.full((6, 7), conv.bias.value[o])
            for i in range(2):
                want = want + oracles.window_mean_brute(
                    x[0, i], conv.weight.value[o, i])
            assert np.max(np.abs(out[0, o] - want)) < 1e-12

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Conv2d(2, 1).forward(np.zeros((1, 3, 4, 4)))

    def test_gradients_match_finite_differences(self):
        rng = Rng(5)
        conv = Conv2d(2, 2)
        conv.weight.value[...] = rng.gaussians(conv.weight.value.size) \
            .reshape(conv.weight.value.shape) * 0.5
        conv.bias.value[...] = rng.gaussians(2) * 0.1
        x = rng.uniforms(2 * 4 * 4).reshape(1, 2, 4, 4)
        g = rng.gaussians(2 * 4 * 4).reshape(1, 2, 4, 4)

        out = conv.forward(x)
        dx = conv.backward(g)

        def check(param, array):
            fd = oracles.fd_gradient(
                lambda v: self._loss(conv, param, v, x, g), array)
            scale = max(np.max(np.abs(fd)), 1e-12)
            assert np.max(np.abs(param.grad - fd)) / scale < 1e-6

        check(conv.weight, conv.weight.value)
        check(conv.bias, conv.bias.value)
        fd_x = oracles.fd_gradient(
            lambda v: float(np.sum(conv.forward(v) * g)), x)
        assert np.max(np.abs(dx - fd_x)) < 1e-6 * max(np.max(np.abs(fd_x)),
                                                      1.0)

    @staticmethod
    def _loss(conv, param, values, x, g):
        keep = param.value.copy()
        param.value[...] = values
        out = float(np.sum(conv.forward(x) * g))
        param.value[...] = keep
        return out

    @pytest.mark.parametrize("train", [True, False])
    @pytest.mark.parametrize("batch,c_in,c_out,hgt,wid", [
        (8, 2, 8, 32, 32), (8, 8, 8, 32, 32), (8, 8, 1, 32, 32),
        (1, 2, 8, 64, 64), (3, 2, 4, 6, 7), (2, 3, 2, 1, 1),
        (2, 3, 5, 1, 9),
        # the convolutions of an 8-channel policy at image scale
        (1, 2, 8, 256, 256), (1, 8, 8, 256, 256), (1, 8, 1, 256, 256)])
    def test_flat_shift_is_byte_equal_to_tensordot(self, batch, c_in, c_out,
                                                   hgt, wid, train):
        rng = Rng(7)
        conv = Conv2d(c_in, c_out)
        conv.weight.value[...] = rng.gaussians(conv.weight.value.size) \
            .reshape(conv.weight.value.shape) * 0.3
        conv.bias.value[...] = rng.gaussians(c_out)
        x = rng.gaussians(batch * c_in * hgt * wid).reshape(
            batch, c_in, hgt, wid)
        out = conv.forward(x, train)
        got, want = [out], [oracles.conv3x3_forward_tensordot(
            x, conv.weight.value, conv.bias.value)]
        if train:
            g = rng.gaussians(batch * c_out * hgt * wid).reshape(
                batch, c_out, hgt, wid)
            got += [conv.backward(g), conv.weight.grad, conv.bias.grad]
            want += oracles.conv3x3_backward_tensordot(
                x, conv.weight.value, g)
        for name, a, b in zip(("out", "dx", "dW", "dbias"), got, want):
            assert a.shape == b.shape, name
            assert a.flags.c_contiguous, name
            assert a.tobytes() == b.tobytes(), name


class TestResidualBlock:
    def test_zero_second_conv_is_identity(self):
        blk = ResidualBlock(3)
        rng = Rng(7)
        blk.conv1.weight.value[...] = rng.gaussians(
            blk.conv1.weight.value.size).reshape(3, 3, 3, 3)
        x = rng.uniforms(3 * 5 * 5).reshape(1, 3, 5, 5)
        assert np.array_equal(blk.forward(x), x)

    def test_gradients_match_finite_differences(self):
        rng = Rng(9)
        blk = ResidualBlock(2)
        for p in blk.params():
            p.value[...] = rng.gaussians(p.value.size).reshape(
                p.value.shape) * 0.3
        x = rng.uniforms(2 * 4 * 4).reshape(1, 2, 4, 4)
        g = rng.gaussians(2 * 4 * 4).reshape(1, 2, 4, 4)
        blk.forward(x)
        dx = blk.backward(g)
        fd_x = oracles.fd_gradient(
            lambda v: float(np.sum(blk.forward(v) * g)), x)
        assert np.max(np.abs(dx - fd_x)) < 1e-6 * max(np.max(np.abs(fd_x)),
                                                      1.0)


class TestPolicyNetwork:
    def test_output_shape_and_range(self):
        net = tiny_net()
        p = net.forward(net_input(batch=2))
        assert p.shape == (2, 1, 5, 5)
        assert np.all(p > 0.0)
        assert np.all(p < 1.0)

    def test_init_determinism_and_statistics(self):
        a = PolicyNetwork(channels=8, blocks=2, in_channels=2)
        b = PolicyNetwork(channels=8, blocks=2, in_channels=2)
        a.init_params(Rng(42))
        b.init_params(Rng(42))
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa.value, pb.value)
        weights = np.concatenate([p.value.ravel() for p in a.params()
                                  if p.value.ndim > 1])
        biases = np.concatenate([p.value.ravel() for p in a.params()
                                 if p.value.ndim == 1])
        assert abs(weights.std() - 0.01) < 0.0015
        assert abs(weights.mean()) < 0.001
        assert not biases.any()

    def test_batch_rows_are_independent(self):
        net = tiny_net(seed=11)
        x = net_input(seed=13, batch=3)
        together = net.forward(x)
        for i in range(3):
            alone = net.forward(x[i:i + 1])
            assert np.max(np.abs(together[i] - alone[0])) < 1e-12

    def test_whole_network_gradients_match_finite_differences(self):
        net = tiny_net(seed=15, channels=2, blocks=1)
        x = net_input(seed=17, size=4)
        rng = Rng(19)
        g = rng.gaussians(16).reshape(1, 1, 4, 4)

        net.forward(x)
        net.zero_grad()
        dx = net.backward(g)

        def loss_wrt(param, values):
            keep = param.value.copy()
            param.value[...] = values
            out = float(np.sum(net.forward(x) * g))
            param.value[...] = keep
            return out

        for param in net.params():
            fd = oracles.fd_gradient(lambda v: loss_wrt(param, v),
                                     param.value)
            scale = max(np.max(np.abs(fd)), 1e-10)
            assert np.max(np.abs(param.grad - fd)) / scale < 1e-5
        fd_x = oracles.fd_gradient(
            lambda v: float(np.sum(net.forward(v) * g)), x)
        scale = max(np.max(np.abs(fd_x)), 1e-10)
        assert np.max(np.abs(dx - fd_x)) / scale < 1e-5

    def test_input_rank_validated(self):
        with pytest.raises(ValueError):
            tiny_net().forward(np.zeros((2, 5, 5)))

    def test_non_finite_logits_raise(self):
        net = tiny_net()
        net.conv_in.weight.value[...] = 1e300
        net.conv_out.weight.value[...] = 1e300
        with pytest.raises(FloatingPointError):
            net.forward(net_input())


class TestWorkspace:
    def test_a_later_call_leaves_returned_arrays_alone(self):
        net = tiny_net(seed=31, channels=4, blocks=1)
        x1, x2 = net_input(seed=33, batch=2), net_input(seed=35, batch=2)
        p1 = net.forward(x1)
        keep_p = p1.copy()
        dx1 = net.backward(gaussians(37, p1.shape))
        keep_dx = dx1.copy()
        p2 = net.forward(x2)
        net.backward(gaussians(39, p2.shape))
        assert p1.tobytes() == keep_p.tobytes()
        assert dx1.tobytes() == keep_dx.tobytes()
        conv = seeded_conv(2, 3)
        out1 = conv.forward(x1)
        keep = out1.copy()
        conv.forward(x2)
        assert out1.tobytes() == keep.tobytes()

    def test_shape_changes_give_the_bytes_of_fresh_networks(self):
        def fresh():
            return tiny_net(seed=41, channels=4, blocks=2)

        shape_a = net_input(seed=43, size=6, batch=3)
        shape_b = net_input(seed=45, size=9, batch=2)
        net = fresh()
        runs = [train_pass(net, x, seed) for x, seed in
                ((shape_a, 47), (shape_b, 49), (shape_a, 51))]
        nets = [fresh() for _ in range(3)]
        want = [train_pass(other, x, seed) for other, (x, seed) in zip(
            nets, ((shape_a, 47), (shape_b, 49), (shape_a, 51)))]
        assert runs == want
        # only the arrays of the latest geometry are kept
        assert net.conv_in._ws._arrays.keys() == \
            nets[2].conv_in._ws._arrays.keys()

    @pytest.mark.parametrize("shape,channels", [((1, 2, 1, 1), 3),
                                                ((1, 2, 1, 6), 1),
                                                ((1, 2, 1, 1), 1)])
    def test_one_row_batches_match_private_workspaces(self, shape, channels):
        # with B = H = 1 the cropped scratch is itself contiguous, so only
        # an unconditional copy keeps it from reaching the caller
        def fresh():
            net = PolicyNetwork(channels=channels, blocks=2)
            net.init_params(Rng(61), std=0.5)
            return net

        x = gaussians(63, shape)
        net, private = fresh(), fresh()
        for conv in convs(private):
            conv._ws = Workspace()
        for seed in (65, 67):
            assert train_pass(net, x, seed) == train_pass(private, x, seed)
        y = net.conv_in.forward(x)
        dx = net.conv_in.backward(gaussians(69, y.shape))
        scratch = list(net.conv_in._ws._arrays.values())
        assert scratch
        assert not any(np.shares_memory(out, arr)
                       for out in (y, dx) for arr in scratch)

    def test_one_workspace_per_network(self):
        def workspaces(net):
            return {id(conv._ws) for conv in convs(net)}

        net = tiny_net(channels=3, blocks=2)
        other = tiny_net(channels=3, blocks=2)
        assert len(workspaces(net)) == len(workspaces(other)) == 1
        assert workspaces(net) != workspaces(other)
        assert Conv2d(3, 3)._ws is not Conv2d(3, 3)._ws

    def test_warm_calls_allocate_only_what_they_return(self):
        # beyond the returned array (and backward's one transposed copy of
        # dout) a warm call may allocate only Python objects and the
        # (Cin, Cout) weight slices np.dot copies, a few KiB
        small = 4 * 1024
        conv = seeded_conv(8, 8)
        x = gaussians(57, (8, 8, 32, 32))
        dout = gaussians(59, (8, 8, 32, 32))
        conv.forward(x, train=False)
        conv.forward(x)
        conv.backward(dout)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = conv.forward(x)
            forward_peak = tracemalloc.get_traced_memory()[1] - base
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            dx = conv.backward(dout)
            backward_peak = tracemalloc.get_traced_memory()[1] - base
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            conv.forward(x, train=False)
            forward_only_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert forward_peak <= out.nbytes + small
        assert backward_peak <= dx.nbytes + dout.nbytes + small
        assert forward_only_peak <= out.nbytes + small


class TestForwardOnly:
    def test_gives_the_bytes_of_a_training_forward(self):
        net = tiny_net(seed=71, channels=4, blocks=2)
        twin = copy.deepcopy(net)
        for size, batch in ((6, 3), (9, 2), (6, 3), (1, 1)):
            x = net_input(seed=73 + size, size=size, batch=batch)
            assert net.forward(x, train=False).tobytes() == \
                twin.forward(x).tobytes()

    def test_keeps_nothing_for_backward(self):
        net = tiny_net(seed=75, channels=4, blocks=2)
        x = net_input(seed=77, size=6, batch=2)
        net.forward(x)
        p = net.forward(x, train=False)
        assert all(conv._xb is None for conv in convs(net))
        assert all(blk._relu_mask is None for blk in net.res)
        with pytest.raises(RuntimeError):
            net.backward(np.ones_like(p))
        with pytest.raises(RuntimeError):
            net.conv_in.backward(np.ones((2, 4, 6, 6)))
        # a training pass afterwards is that of a fresh network
        assert train_pass(net, x, 79) == \
            train_pass(tiny_net(seed=75, channels=4, blocks=2), x, 79)


class TestAdam:
    def test_minimizes_quadratic(self):
        p = Parameter(np.array([1.0]))
        adam = Adam([p])
        for _ in range(500):
            p.grad[...] = p.value        # d(w^2/2)/dw
            adam.step(0.1)
        assert abs(p.value[0]) < 0.01

    def test_zero_gradient_means_no_move(self):
        p = Parameter(np.array([0.7, -0.3]))
        before = p.value.copy()
        adam = Adam([p])
        adam.step(0.1)
        assert np.array_equal(p.value, before)

    def test_equal_gradients_give_equal_updates(self):
        a = Parameter(np.array([0.5]))
        b = Parameter(np.array([0.5]))
        adam = Adam([a, b])
        for k in range(5):
            a.grad[...] = 0.1 * (k + 1)
            b.grad[...] = 0.1 * (k + 1)
            adam.step(0.05)
            assert np.array_equal(a.value, b.value)


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100) == pytest.approx(3e-4, rel=1e-12)
        assert cosine_lr(100, 100) == 1e-5
        assert cosine_lr(250, 100) == 1e-5    # clamps past the end
        mid = cosine_lr(50, 100)
        assert mid == pytest.approx((3e-4 + 1e-5) / 2.0, rel=1e-9)

    def test_monotone_decreasing(self):
        values = [cosine_lr(t, 40, lr_start=0.1, lr_end=0.001)
                  for t in range(41)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            cosine_lr(0, 0)
        with pytest.raises(ValueError):
            cosine_lr(-1, 10)


class TestCheckpoints:
    def _trained_pair(self):
        net = tiny_net(seed=21, channels=4, blocks=2)
        adam = Adam(net.params())
        rng = Rng(23)
        for _ in range(3):
            for p in net.params():
                p.grad[...] = rng.gaussians(p.value.size).reshape(
                    p.value.shape)
            adam.step(1e-3)
        return net, adam

    def test_roundtrip_is_bitwise(self, tmp_path):
        net, adam = self._trained_pair()
        path = tmp_path / "ck.htnn"
        save_checkpoint(path, net, adam, iteration=7, rng_state=(1, 2, 3, 4))

        meta, values, m, v = read_checkpoint(path)
        assert meta == {"in_channels": 2, "channels": 4, "blocks": 2,
                        "iteration": 7, "adam_t": 3, "rng_state": (1, 2, 3, 4)}
        for p, val in zip(net.params(), values):
            assert np.array_equal(p.value, val)
        for buf, val in zip(adam.m, m):
            assert np.array_equal(buf, val)
        for buf, val in zip(adam.v, v):
            assert np.array_equal(buf, val)

        fresh = PolicyNetwork(channels=4, blocks=2, in_channels=2)
        fresh_adam = Adam(fresh.params())
        got = load_checkpoint(path, fresh, fresh_adam)
        assert got["iteration"] == 7
        assert fresh_adam.t == 3
        for pa, pb in zip(net.params(), fresh.params()):
            assert np.array_equal(pa.value, pb.value)

    def test_network_from_checkpoint(self, tmp_path):
        net, adam = self._trained_pair()
        path = tmp_path / "ck.htnn"
        save_checkpoint(path, net, adam, iteration=2)
        rebuilt, meta = network_from_checkpoint(path)
        assert (rebuilt.channels, rebuilt.blocks) == (4, 2)
        assert meta["iteration"] == 2
        x = net_input(seed=29, size=4)
        assert np.array_equal(net.forward(x), rebuilt.forward(x))

    def test_bare_params_file(self, tmp_path):
        net, _ = self._trained_pair()
        path = tmp_path / "bare.htnn"
        save_checkpoint(path, net)
        _, _, m, v = read_checkpoint(path)
        assert m is None and v is None
        fresh = PolicyNetwork(channels=4, blocks=2, in_channels=2)
        load_checkpoint(path, fresh)          # params only: fine
        with pytest.raises(CheckpointError):
            load_checkpoint(path, fresh, Adam(fresh.params()))

    def test_arch_mismatch(self, tmp_path):
        net, _ = self._trained_pair()
        path = tmp_path / "ck.htnn"
        save_checkpoint(path, net)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, PolicyNetwork(channels=4, blocks=1,
                                                in_channels=2))

    def test_corrupt_files(self, tmp_path):
        net, _ = self._trained_pair()
        path = tmp_path / "ck.htnn"
        save_checkpoint(path, net)
        raw = path.read_bytes()

        short = tmp_path / "short.htnn"
        short.write_bytes(raw[:20])
        with pytest.raises(CheckpointError):
            read_checkpoint(short)

        truncated = tmp_path / "trunc.htnn"
        truncated.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError):
            read_checkpoint(truncated)

        bad = tmp_path / "bad.htnn"
        bad.write_bytes(b"XTNN" + raw[4:])
        with pytest.raises(CheckpointError):
            read_checkpoint(bad)
