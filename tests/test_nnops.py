import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multinet import nnops
from multinet.nnops import (
    Layer,
    conv2d,
    feature_footprints,
    fully_connected,
    global_max_pool,
    max_pool2d,
    relu,
    sigmoid,
    softmax_rows,
    spp_layout,
    spp_pool,
    spp_pool_regions,
    stack_channels,
)
from multinet.tensor import Tape, Tensor, TensorError, backward, sum_all

from conftest import check_grads, leaf, spp_regions, weighted_sum


def conv_oracle(x, filters, bias, stride, padding):
    """Direct 6-loop cross-correlation, kept deliberately naive."""
    h, w, cin = x.shape
    k = filters.shape[0]
    cout = filters.shape[3]
    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    out = np.zeros((ho, wo, cout))
    for i in range(ho):
        for j in range(wo):
            for o in range(cout):
                acc = 0.0
                for a in range(k):
                    for b in range(k):
                        for c in range(cin):
                            acc += xp[i * stride + a, j * stride + b, c] * filters[a, b, c, o]
                out[i, j, o] = acc + bias[o]
    return out


def index_table_patches(a, k, padding):
    """The patch matrix of map `a` zero-padded by `padding` for k x k
    windows at stride 1, gathered through a flat index table: (cols, idx),
    with row i*wo + j holding window (i, j), its columns ordered (a, b, c)
    (C-contiguous), and idx the flat padded-map cell of every entry."""
    c = a.shape[2]
    ap = np.pad(a, ((padding, padding), (padding, padding), (0, 0)))
    hp, wp = ap.shape[:2]
    ho, wo = hp - k + 1, wp - k + 1
    i = np.arange(ho)[:, None, None, None, None]
    j = np.arange(wo)[None, :, None, None, None]
    da = np.arange(k)[None, None, :, None, None]
    db = np.arange(k)[None, None, None, :, None]
    dc = np.arange(c)[None, None, None, None, :]
    idx = (((i + da) * wp + (j + db)) * c + dc).reshape(ho * wo, k * k * c)
    return ap.reshape(-1)[idx], idx


def conv_index_table_reference(x, filters, bias, padding, g, x_needs_grad=True):
    """(out, gx, gw, gb) for output gradient g, in x's dtype: im2col through
    a flat index table, and the input gradient as a transposed convolution,
    the index-table patch matrix of g zero-padded by k // 2 times the filters
    flipped in space and transposed in channels, in one matmul. Cells of the
    output beyond x's own padding by k // 2 (`padding` > k // 2) are those of
    conv2d's bordered input, so gx is that input's gradient, cropped."""
    h, w, cin = x.shape
    k, _, _, cout = filters.shape
    cols, _ = index_table_patches(x, k, padding)
    wmat = filters.reshape(k * k * cin, cout)
    ho, wo = h + 2 * padding - k + 1, w + 2 * padding - k + 1
    out = (cols @ wmat + bias[None, :]).reshape(ho, wo, cout)
    gm = g.reshape(ho * wo, cout)
    gw = (cols.T @ gm).reshape(k, k, cin, cout)
    gb = gm.sum(axis=0)
    if not x_needs_grad:
        return out, None, gw, gb
    gcols, _ = index_table_patches(g, k, k // 2)
    wflip = np.ascontiguousarray(filters[::-1, ::-1].transpose(0, 1, 3, 2))
    gx = (gcols @ wflip.reshape(k * k * cout, cin)).reshape(ho, wo, cin)
    border = padding - k // 2
    return out, gx[border : border + h, border : border + w], gw, gb


def col2im_bincount_reference(x, filters, padding, g):
    """The input gradient by col2im: each window's gradient scattered onto
    the padded map by one `np.bincount`, summed in float64 and rounded to
    x's dtype once."""
    h, w, cin = x.shape
    k, _, _, cout = filters.shape
    _, idx = index_table_patches(x, k, padding)
    gcols = g.reshape(-1, cout) @ filters.reshape(k * k * cin, cout).T
    hp, wp = h + 2 * padding, w + 2 * padding
    gxp = np.bincount(idx.ravel(), weights=gcols.ravel(), minlength=hp * wp * cin)
    gxp = gxp.astype(x.dtype).reshape(hp, wp, cin)
    return gxp[padding : padding + h, padding : padding + w]


def bordered(x, pad):
    """x with a border of `pad` zero cells. conv2d pads by k // 2 itself,
    so conv2d of `bordered(x, pad)` is the convolution of x at padding
    pad + k // 2, cropped by `pad`."""
    return np.pad(x, ((pad, pad), (pad, pad), (0, 0)))


# (h, w, cin, cout, k, pad) of the reference comparisons
CONV_CASES = [
    (5, 5, 2, 3, 3, 0),
    (6, 4, 1, 2, 3, 1),
    (7, 7, 3, 2, 3, 1),
    (4, 4, 2, 2, 1, 0),
    (8, 6, 2, 4, 5, 2),
    (9, 7, 3, 5, 5, 1),
    # the inputs of the backbone's conv2, conv3 and conv4
    (32, 32, 16, 32, 3, 0),
    (16, 16, 32, 32, 3, 0),
    (8, 8, 32, 32, 3, 0),
]


class TestConv2d:
    # In the parametrised cases, `pad` is the zero border put around x
    # before the call (`bordered`); the oracles pad x by pad + k // 2.

    def test_1x1_identity(self, rng):
        x = rng.normal(size=(4, 4, 3))
        f = np.zeros((1, 1, 3, 3))
        f[0, 0] = np.eye(3)
        layer = Layer(Tensor(f), Tensor(np.zeros(3)))
        out = conv2d(Tensor(x), layer)
        np.testing.assert_allclose(out.data, x)

    def test_all_ones_3x3(self):
        # Padded by 1: each output cell counts the input cells in its window.
        x = np.ones((5, 5, 1))
        layer = Layer(Tensor(np.ones((3, 3, 1, 1))), Tensor(np.zeros(1)))
        out = conv2d(Tensor(x), layer)
        edge = [4.0, 6.0, 6.0, 6.0, 4.0]
        want = np.array([edge] + [[6.0, 9.0, 9.0, 9.0, 6.0]] * 3 + [edge])
        np.testing.assert_array_equal(out.data[:, :, 0], want)

    @pytest.mark.parametrize("h,w,cin,cout,k,stride,pad", [
        (5, 5, 2, 3, 3, 1, 0),
        (6, 4, 1, 2, 3, 1, 1),
        (7, 7, 3, 2, 3, 1, 1),
        (4, 4, 2, 2, 1, 1, 0),
        (8, 6, 2, 4, 5, 1, 2),
    ])
    def test_matches_loop_oracle(self, h, w, cin, cout, k, stride, pad, rng):
        x = rng.normal(size=(h, w, cin))
        f = rng.normal(size=(k, k, cin, cout))
        b = rng.normal(size=cout)
        layer = Layer(Tensor(f), Tensor(b))
        out = conv2d(Tensor(bordered(x, pad)), layer)
        want = conv_oracle(x, f, b, stride, pad + k // 2)
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    @pytest.mark.parametrize("h,w,cin,cout,k,pad", CONV_CASES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_needs_grad", [True, False], ids=["x_grad", "no_x_grad"])
    def test_bytes_match_index_table_reference(self, h, w, cin, cout, k, pad, dtype,
                                               x_needs_grad, rng):
        # Tolerances cannot see summation order: the output and all three
        # gradients must be the reference's bytes, input gradient included.
        x = rng.normal(size=(h, w, cin)).astype(dtype)
        f = rng.normal(size=(k, k, cin, cout)).astype(dtype)
        b = rng.normal(size=cout).astype(dtype)
        layer = Layer(leaf(f), leaf(b))
        with Tape() as tape:
            out = conv2d((leaf if x_needs_grad else Tensor)(bordered(x, pad)), layer)
        g = rng.normal(size=out.data.shape).astype(dtype)
        got = list((out.data, *tape.nodes[0].backward_fn(g)))
        if x_needs_grad and pad:
            got[1] = got[1][pad:-pad, pad:-pad]  # the gradient of x, not of its border
        want = conv_index_table_reference(x, f, b, pad + k // 2, g, x_needs_grad)
        for name, have, ref in zip(("out", "gx", "gw", "gb"), got, want):
            if ref is None:
                assert have is None, name
                continue
            assert have.dtype == dtype and have.shape == ref.shape, name
            assert np.ascontiguousarray(have).tobytes() == np.ascontiguousarray(ref).tobytes(), name

    @pytest.mark.parametrize("h,w,cin,cout,k,pad", CONV_CASES)
    @pytest.mark.parametrize("dtype,rel", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_input_gradient_matches_float64_col2im(self, h, w, cin, cout, k, pad, dtype, rel,
                                                    rng):
        # The transposed convolution sums each cell in its GEMM's order, not
        # in float64 rounded once, so it matches col2im to a tolerance only.
        x = rng.normal(size=(h, w, cin)).astype(dtype)
        f = rng.normal(size=(k, k, cin, cout)).astype(dtype)
        layer = Layer(Tensor(f), Tensor(np.zeros(cout, dtype)))
        with Tape() as tape:
            out = conv2d(leaf(bordered(x, pad)), layer)
        g = rng.normal(size=out.data.shape).astype(dtype)
        gx = tape.nodes[0].backward_fn(g)[0][pad : pad + h, pad : pad + w]
        ref = col2im_bincount_reference(x, f, pad + k // 2, g)
        assert gx.dtype == ref.dtype == dtype
        assert np.abs(gx.astype(np.float64) - ref).max() <= rel * np.abs(ref).max()

    @pytest.mark.parametrize("h,w,cin,cout,pad", [
        (5, 5, 2, 2, 0),
        (4, 6, 1, 3, 1),
        (6, 6, 3, 1, 1),
        (5, 4, 2, 2, 1),
        (7, 5, 1, 2, 0),
    ])
    def test_gradients(self, h, w, cin, cout, pad, rng):
        x = bordered(rng.normal(size=(h, w, cin)), pad)
        f = rng.normal(size=(3, 3, cin, cout))
        b = rng.normal(size=cout)

        def build(xt, ft, bt):
            return sum_all(conv2d(xt, Layer(ft, bt)))

        check_grads(build, [x, f, b])

    @pytest.mark.parametrize("pad", [0, 1])
    def test_input_without_gradient_skips_it(self, pad, rng):
        # An input that needs no gradient (the image at conv1) gets None;
        # the filter and bias gradients do not change.
        x = bordered(rng.normal(size=(6, 5, 2)), pad)
        layer = Layer(leaf(rng.normal(size=(3, 3, 2, 4))), leaf(rng.normal(size=4)))
        g = rng.normal(size=(6 + 2 * pad, 5 + 2 * pad, 4))

        def grads(needs):
            with Tape() as tape:
                conv2d((leaf if needs else Tensor)(x), layer)
            return tape.nodes[0].backward_fn(g)

        (gx, gw, gb), (gx0, gw0, gb0) = grads(True), grads(False)
        assert gx.shape == x.shape and gx0 is None
        assert gw0.tobytes() == gw.tobytes() and gb0.tobytes() == gb.tobytes()

    def test_channel_mismatch(self):
        layer = Layer(Tensor(np.zeros((3, 3, 2, 1))), Tensor(np.zeros(1)))
        with pytest.raises(TensorError, match="channels"):
            conv2d(Tensor(np.zeros((5, 5, 3))), layer)

    def test_kernel_larger_than_input(self, rng):
        # Padded by k // 2, the output keeps the input's size.
        x, f = rng.normal(size=(3, 3, 1)), rng.normal(size=(5, 5, 1, 2))
        out = conv2d(Tensor(x), Layer(Tensor(f), Tensor(np.zeros(2))))
        np.testing.assert_allclose(out.data, conv_oracle(x, f, np.zeros(2), 1, 2), atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 2, 1, 1), (3, 1, 1, 1), (1, 3, 1, 1)])
    def test_kernel_must_be_square_with_an_odd_side(self, shape):
        layer = Layer(Tensor(np.zeros(shape)), Tensor(np.zeros(1)))
        with pytest.raises(TensorError, match="not square with an odd side"):
            conv2d(Tensor(np.zeros((4, 4, 1))), layer)


class TestActivations:
    def test_relu_values(self):
        out = relu(Tensor([-2.0, 0.0, 3.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.0])

    def test_sigmoid_midpoint(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_extreme_inputs_stable(self):
        out = sigmoid(Tensor([-500.0, 500.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] < 1e-100 and out.data[1] == 1.0

    def test_softmax_uniform(self):
        out = softmax_rows(Tensor(np.zeros((2, 4))))
        np.testing.assert_allclose(out.data, np.full((2, 4), 0.25))

    def test_softmax_rows_sum_to_one(self, rng):
        out = softmax_rows(Tensor(rng.normal(size=(8, 5)) * 10))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(8), atol=1e-12)

    @given(st.floats(-50, 50), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_softmax_shift_invariance(self, shift, seed):
        r = np.random.default_rng(seed)
        x = r.normal(size=(3, 4)) * 5
        a = softmax_rows(Tensor(x)).data
        b = softmax_rows(Tensor(x + shift)).data
        assert np.max(np.abs(a - b)) <= 1e-12

    @pytest.mark.parametrize("shape", [(2,), (3, 4), (5,), (2, 2, 2), (7, 1)])
    def test_relu_gradient(self, shape, rng):
        x = rng.normal(size=shape)
        x[np.abs(x) < 0.05] += 0.1  # keep away from the kink
        check_grads(lambda t: sum_all(relu(t)), [x])

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (6,), (1, 5), (3, 3)])
    def test_sigmoid_gradient(self, shape, rng):
        check_grads(lambda t: sum_all(sigmoid(t)), [rng.normal(size=shape)])

    @pytest.mark.parametrize("m,k", [(1, 2), (3, 4), (2, 6), (5, 3), (4, 4)])
    def test_softmax_gradient(self, m, k, rng):
        x = rng.normal(size=(m, k))
        w = rng.normal(size=(m, k))
        check_grads(lambda t: weighted_sum(softmax_rows(t), w), [x])


def maxpool_oracle(x, window, stride):
    h, w, c = x.shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    out = np.zeros((ho, wo, c))
    for i in range(ho):
        for j in range(wo):
            patch = x[i * stride : i * stride + window, j * stride : j * stride + window]
            out[i, j] = patch.max(axis=(0, 1))
    return out


def maxpool_argmax_oracle(x, window, stride, g):
    """Loop form of the argmax max-pool kernel: each window's output is
    the value at its first row-major argmax, and its gradient is added
    there, windows taken in row-major order from a zero map."""
    h, w, c = x.shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    out = np.zeros((ho, wo, c), x.dtype)
    gx = np.zeros((h, w, c), x.dtype)
    for i in range(ho):
        for j in range(wo):
            for ch in range(c):
                patch = x[i * stride : i * stride + window, j * stride : j * stride + window, ch]
                du, dv = divmod(int(patch.argmax()), window)
                out[i, j, ch] = patch[du, dv]
                gx[i * stride + du, j * stride + dv, ch] += g[i, j, ch]
    return out, gx


class TestPooling:
    def test_constant_map(self):
        out = max_pool2d(Tensor(np.full((4, 4, 2), 3.0)))
        np.testing.assert_array_equal(out.data, np.full((2, 2, 2), 3.0))

    def test_matches_naive_oracle(self, rng):
        x = rng.normal(size=(6, 6, 3))
        out = max_pool2d(Tensor(x))
        np.testing.assert_array_equal(out.data, maxpool_oracle(x, 2, 2))

    @pytest.mark.parametrize("h,w,c", [(6, 6, 3), (8, 4, 1), (5, 7, 2)])
    def test_oracle_shapes(self, h, w, c, rng):
        # An odd trailing row or column belongs to no window.
        x = rng.normal(size=(h, w, c))
        out = max_pool2d(Tensor(x))
        np.testing.assert_array_equal(out.data, maxpool_oracle(x, 2, 2))

    def test_tie_gradient_goes_to_first_cell(self):
        x = leaf(np.zeros((2, 2, 1)))
        with Tape() as tape:
            backward(sum_all(max_pool2d(x)), tape)
        expect = np.zeros((2, 2, 1))
        expect[0, 0, 0] = 1.0
        np.testing.assert_array_equal(x.grad, expect)

    @pytest.mark.parametrize("shape,dtype", [
        *(pytest.param(shape, np.float64, id=f"shape{i}") for i, shape in enumerate([
            (8, 8, 3), (7, 9, 2), (7, 7, 2), (9, 8, 3), (6, 5, 2), (5, 7, 3), (4, 4, 1), (2, 3, 2),
        ])),
        # the backbone's three pooled maps, in the model's dtype
        *(pytest.param(shape, np.float32, id="x".join(map(str, shape)) + "-float32")
          for shape in [(64, 64, 16), (32, 32, 32), (16, 16, 32)]),
    ])
    @pytest.mark.parametrize("values", ["normal", "ties", "signed_zeros"])
    def test_bytes_match_argmax_oracle(self, shape, dtype, values, rng):
        # Ties inside windows (small integers; zeros of both signs) pin the
        # forward value of the first maximum; -0.0 output gradients and
        # cells that take no gradient pin the zeros' signs.
        if values == "normal":
            x = rng.normal(size=shape)
        elif values == "ties":
            x = rng.integers(0, 3, size=shape).astype(float)
        else:
            x = rng.choice([-0.0, 0.0, 0.0, 1.0], size=shape)
        x = x.astype(dtype)
        xt = leaf(x)
        with Tape() as tape:
            out = max_pool2d(xt)
        g = rng.normal(size=out.data.shape).astype(dtype)
        g.ravel()[::5] = -0.0
        want_out, want_gx = maxpool_argmax_oracle(x, 2, 2, g)
        (gx,) = tape.nodes[0].backward_fn(g)
        assert out.data.tobytes() == want_out.tobytes()
        assert gx.tobytes() == want_gx.tobytes()

    @pytest.mark.parametrize("shape", [(6, 6, 2), (5, 5, 1), (4, 4, 3), (8, 8, 1), (6, 4, 2)])
    def test_gradient(self, shape, rng):
        x = rng.normal(size=shape)
        check_grads(lambda t: sum_all(max_pool2d(t)), [x])

    def test_invalid_window(self):
        with pytest.raises(TensorError):
            max_pool2d(Tensor(np.zeros((1, 3, 1))))

    def test_global_max_pool(self, rng):
        x = rng.normal(size=(5, 7, 4))
        out = global_max_pool(Tensor(x))
        np.testing.assert_array_equal(out.data, x.max(axis=(0, 1)))

    @pytest.mark.parametrize("shape", [(3, 3, 2), (5, 2, 4), (1, 1, 3), (4, 6, 1), (2, 8, 5)])
    def test_global_max_pool_gradient(self, shape, rng):
        check_grads(lambda t: sum_all(global_max_pool(t)), [rng.normal(size=shape)])


class TestFullyConnected:
    def test_identity_weight(self, rng):
        x = rng.normal(size=4)
        layer = Layer(Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(fully_connected(Tensor(x), layer).data, x)

    def test_zero_weight_gives_bias(self, rng):
        b = rng.normal(size=3)
        layer = Layer(Tensor(np.zeros((4, 3))), Tensor(b))
        np.testing.assert_array_equal(fully_connected(Tensor(np.ones(4)), layer).data, b)

    def test_batched_matches_vector(self, rng):
        x = rng.normal(size=(5, 4))
        layer = Layer(Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=3)))
        batched = fully_connected(Tensor(x), layer).data
        rows = [fully_connected(Tensor(x[i]), layer).data for i in range(5)]
        np.testing.assert_allclose(batched, np.stack(rows))

    @pytest.mark.parametrize("n,din,dout", [(None, 3, 2), (1, 4, 4), (4, 2, 5), (None, 6, 1), (3, 5, 3)])
    def test_gradient(self, n, din, dout, rng):
        x = rng.normal(size=(din,) if n is None else (n, din))
        w = rng.normal(size=(din, dout))
        b = rng.normal(size=dout)
        check_grads(lambda xt, wt, bt: sum_all(fully_connected(xt, Layer(wt, bt))), [x, w, b])

    def test_dim_mismatch(self):
        layer = Layer(Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
        with pytest.raises(TensorError):
            fully_connected(Tensor(np.zeros(3)), layer)


class TestStackChannels:
    def test_order_and_values(self, rng):
        a = rng.normal(size=(3, 3, 2))
        b = rng.normal(size=(3, 3, 1))
        out = stack_channels([Tensor(a), Tensor(b)])
        np.testing.assert_array_equal(out.data[:, :, :2], a)
        np.testing.assert_array_equal(out.data[:, :, 2:], b)

    def test_spatial_mismatch(self):
        with pytest.raises(TensorError):
            stack_channels([Tensor(np.zeros((3, 3, 1))), Tensor(np.zeros((4, 3, 1)))])

    def test_backward_routes_slices_exactly(self, rng):
        a = leaf(rng.normal(size=(2, 2, 2)))
        b = leaf(rng.normal(size=(2, 2, 3)))
        w = rng.normal(size=(2, 2, 5))
        with Tape() as tape:
            backward(weighted_sum(stack_channels([a, b]), w), tape)
        np.testing.assert_array_equal(a.grad, w[:, :, :2])
        np.testing.assert_array_equal(b.grad, w[:, :, 2:])

    @pytest.mark.parametrize("chans", [(1, 1), (2, 3), (4, 1, 2), (1, 1, 1, 1), (3, 2)])
    def test_gradient(self, chans, rng):
        arrays = [rng.normal(size=(3, 3, c)) for c in chans]
        check_grads(lambda *ts: sum_all(stack_channels(ts)), arrays)

    def test_pooled_blocks_stack_on_last_axis(self, rng):
        a = rng.normal(size=(4, 2, 2, 3))
        b = rng.normal(size=(4, 2, 2, 1))
        out = stack_channels([Tensor(a), Tensor(b)])
        np.testing.assert_array_equal(out.data, np.concatenate([a, b], axis=3))
        with pytest.raises(TensorError):
            stack_channels([Tensor(a), Tensor(np.zeros((3, 2, 2, 1)))])

    def test_pooling_commutes_with_stacking(self, rng):
        # SPP max pooling is per channel: pooling channel blocks apart and
        # stacking the results bin by bin equals pooling the stacked map.
        a, b = rng.normal(size=(8, 8, 3)), rng.normal(size=(8, 8, 2))
        boxes = random_boxes(rng, 6, 64)
        whole = spp_regions(stack_channels([Tensor(a), Tensor(b)]), boxes, 3, 8)
        parts = stack_channels([
            Tensor(spp_regions(Tensor(x), boxes, 3, 8).data.reshape(6, 9, -1)) for x in (a, b)
        ])
        np.testing.assert_array_equal(parts.data, whole.data.reshape(6, 9, 5))


def footprint_oracle(box, stride, h, w):
    """Scalar reference for `feature_footprints`: cell bounds (r0, r1, c0, c1)."""
    x1, y1, x2, y2 = box
    import math

    c0 = min(max(math.floor(x1 / stride), 0), w - 1)
    r0 = min(max(math.floor(y1 / stride), 0), h - 1)
    c1 = min(max(math.ceil(x2 / stride), c0 + 1), w)
    r1 = min(max(math.ceil(y2 / stride), r0 + 1), h)
    return r0, r1, c0, c1


def oracle_bins(n, g):
    """[start, end) of each of g bins over n cells; an empty bin collapses
    to its clamped start cell."""
    bins = []
    for i in range(g):
        s, e = (i * n) // g, ((i + 1) * n) // g
        if e <= s:
            s = min(s, n - 1)
            e = s + 1
        bins.append((s, e))
    return bins


def spp_oracle(hdata, box, stride, g):
    """Per-bin max with explicit loops; empty bins collapse to their clamped
    start cell."""
    hh, ww, c = hdata.shape
    r0, r1, c0, c1 = footprint_oracle(box, stride, hh, ww)
    sub = hdata[r0:r1, c0:c1]
    out = np.zeros((g, g, c))
    for i, (rs, re) in enumerate(oracle_bins(r1 - r0, g)):
        for j, (cs, ce) in enumerate(oracle_bins(c1 - c0, g)):
            out[i, j] = sub[rs:re, cs:ce].max(axis=(0, 1))
    return out


def spp_routed_oracle(hdata, boxes, stride, g, gout):
    """Loop reference for `spp_pool_regions` forward and backward. Each bin
    and channel reads its first row-major maximum (argmax of the bin's cells
    flattened row by row) and sends its gradient there; gradients are summed
    in (region, bin row, bin column, channel) order. Also returns how many
    (bin, channel) pairs had a tied maximum over two or more cells."""
    hh, ww, c = hdata.shape
    out = np.zeros((len(boxes), g, g, c))
    gh = np.zeros_like(hdata)
    ties = 0
    for m, box in enumerate(boxes):
        r0, r1, c0, c1 = footprint_oracle(box, stride, hh, ww)
        for i, (rs, re) in enumerate(oracle_bins(r1 - r0, g)):
            for j, (cs, ce) in enumerate(oracle_bins(c1 - c0, g)):
                for ch in range(c):
                    cell = hdata[r0 + rs : r0 + re, c0 + cs : c0 + ce, ch]
                    a = int(cell.argmax())
                    r, col = r0 + rs + a // cell.shape[1], c0 + cs + a % cell.shape[1]
                    out[m, i, j, ch] = hdata[r, col, ch]
                    gh[r, col, ch] += gout[m, i, j, ch]
                    ties += int((cell == cell.max()).sum() > 1)
    return out, gh, ties


def random_box(r, canvas):
    x1 = r.uniform(0, canvas - 2)
    y1 = r.uniform(0, canvas - 2)
    return (x1, y1, r.uniform(x1 + 1, canvas), r.uniform(y1 + 1, canvas))


def random_boxes(r, n, canvas):
    """(n, 4) array of n `random_box` draws."""
    return np.array([random_box(r, canvas) for _ in range(n)])


def spp_bincount_reference(x, cells, gout):
    """SPP's input gradient as the scatter before the plan computed it: each
    bin and channel's winning cell by the strict-`>` scan, then one
    `np.bincount` over `win * C + channel` in (region, bin row, bin column,
    channel) order, summed in float64 and rounded to x's dtype once."""
    hh, ww, c = x.shape
    rows = x.reshape(hh * ww, c)
    out = rows[cells[..., 0]]
    win = np.broadcast_to(cells[..., :1], out.shape)
    for k in range(1, cells.shape[3]):
        cand = rows[cells[..., k]]
        take = cand > out
        out = np.where(take, cand, out)
        win = np.where(take, cells[..., k : k + 1], win)
    lin = win * c + np.arange(c)
    gh = np.bincount(lin.ravel(), weights=gout.ravel(), minlength=hh * ww * c)
    return gh.astype(x.dtype).reshape(hh, ww, c)


def spp_backward(x, boxes, g, stride, gout):
    """(input gradient, cells): what `spp_pool_regions`' backward returns
    for output gradient `gout`, read from its tape node, so no gradient
    buffer adds it onto zeros."""
    _, cells, plan = spp_layout(boxes, g, stride, *x.shape[:2])
    with Tape() as tape:
        spp_pool_regions(leaf(x), boxes, cells, plan)
    (gh,) = tape.nodes[0].backward_fn(gout.reshape(len(boxes), -1).astype(x.dtype))
    return gh, cells


def mixed_gradient(r, shape):
    """Output gradients of both signs, magnitudes 1e-9 to 1e3, a fifth of
    the bins' rows -0.0: sums that round differently in any other order."""
    g = r.choice([-1.0, 1.0], shape) * 10.0 ** r.uniform(-9, 3, shape)
    g[r.random(shape[:-1]) < 0.2] = -0.0
    return g


def assert_scatter_matches_bincount(x, boxes, g, stride, seed=0):
    """SPP's backward is byte-equal to `spp_bincount_reference`, in float64
    and float32, for a `mixed_gradient` and for one that is -0.0 everywhere
    (every cell's sum is then +0.0, as bincount's sums start at +0.0)."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    shape = (len(boxes), g, g, x.shape[2])
    for gout in (mixed_gradient(np.random.default_rng(seed), shape), np.full(shape, -0.0)):
        for dtype in (np.float64, np.float32):
            xd, gd = x.astype(dtype), gout.astype(dtype)
            gh, cells = spp_backward(xd, boxes, g, stride, gd)
            assert gh.dtype == dtype
            assert gh.tobytes() == spp_bincount_reference(xd, cells, gd).tobytes()


class TestSpp:
    def test_full_map_identity_grid(self, rng):
        # 6x6 map, 6x6 grid, stride 1, box covering everything: each bin is
        # exactly one cell.
        x = rng.normal(size=(6, 6, 2))
        out = spp_pool(Tensor(x), (0, 0, 6, 6), 6, 1)
        np.testing.assert_array_equal(out.data, x)
        assert_scatter_matches_bincount(x, (0, 0, 6, 6), 6, 1)

    def test_constant_map(self):
        x = np.full((8, 8, 3), 2.5)
        out = spp_pool(Tensor(x), (3, 1, 30, 50), 6, 8)
        np.testing.assert_array_equal(out.data, np.full((6, 6, 3), 2.5))
        assert_scatter_matches_bincount(x, (3, 1, 30, 50), 6, 8)

    def test_degenerate_box_rejected(self):
        with pytest.raises(TensorError):
            spp_pool(Tensor(np.zeros((4, 4, 1))), (2, 2, 2, 3), 6, 1)

    def test_oracle_100_cases(self):
        r = np.random.default_rng(777)
        for _ in range(100):
            x = r.normal(size=(12, 12, 4))
            box = random_box(r, 12 * 3)
            out = spp_regions(Tensor(x), np.array([box]), 6, 3)
            np.testing.assert_array_equal(out.data[0], spp_oracle(x, box, 3, 6).ravel())
            assert_scatter_matches_bincount(x, box, 6, 3)

    def test_batched_matches_single(self):
        r = np.random.default_rng(31)
        x = r.normal(size=(8, 8, 5))
        boxes = random_boxes(r, 20, 64)
        batched = spp_regions(Tensor(x), boxes, 6, 8)
        for i, b in enumerate(boxes):
            single = spp_pool(Tensor(x), b, 6, 8)
            np.testing.assert_array_equal(batched.data[i], single.data.ravel())
        assert_scatter_matches_bincount(x, boxes, 6, 8)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_single(self, seed):
        r = np.random.default_rng(seed)
        x = r.normal(size=(8, 8, 2))
        box = random_box(r, 64)
        check_grads(lambda t: sum_all(spp_regions(t, np.array([box]), 4, 8)), [x])
        assert_scatter_matches_bincount(x, box, 4, 8, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_batched(self, seed):
        r = np.random.default_rng(100 + seed)
        x = r.normal(size=(8, 8, 2))
        boxes = random_boxes(r, 3, 64)
        check_grads(lambda t: sum_all(spp_regions(t, boxes, 3, 8)), [x])
        assert_scatter_matches_bincount(x, boxes, 3, 8, seed)

    def test_batched_degenerate_box_names_region(self):
        with pytest.raises(TensorError, match="region 1"):
            spp_regions(
                Tensor(np.zeros((4, 4, 1))), np.array([[0.0, 0, 8, 8], [5, 5, 5, 9]]), 2, 8
            )

    def test_layout_follows_box_bytes_and_map_shape(self, rng):
        # A layout is built of the boxes and the map shape alone: equal
        # boxes pool alike, and a box set changed in place, or a map of
        # another shape, is indexed (and checked) anew.
        boxes = random_boxes(rng, 6, 64)
        x8, x4 = rng.normal(size=(8, 8, 3)), rng.normal(size=(4, 4, 3))
        first = spp_regions(Tensor(x8), boxes, 3, 8).data
        again = spp_regions(Tensor(x8), boxes.copy(), 3, 8).data
        assert again.tobytes() == first.tobytes()
        small = spp_regions(Tensor(x4), boxes, 3, 16).data
        for i, box in enumerate(boxes):
            np.testing.assert_array_equal(small[i], spp_oracle(x4, box, 16, 3).ravel())
        assert_scatter_matches_bincount(x8, boxes, 3, 8)
        assert_scatter_matches_bincount(x4, boxes, 3, 16)
        boxes[4, 2] = boxes[4, 0]
        with pytest.raises(TensorError, match="region 4"):
            spp_regions(Tensor(x4), boxes, 3, 16)

    def test_cells_must_match_boxes(self, rng):
        boxes = random_boxes(rng, 3, 64)
        _, cells, plan = spp_layout(boxes, 2, 8, 8, 8)
        with pytest.raises(TensorError, match="2 regions' cells for 3 boxes"):
            spp_pool_regions(Tensor(rng.normal(size=(8, 8, 1))), boxes, cells[:2], plan)

    @pytest.mark.parametrize("coord", range(4))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_box_names_region(self, coord, value):
        boxes = np.array([[0.0, 0, 16, 16], [8, 8, 24, 24], [0, 0, 16, 16]])
        boxes[2, coord] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any cast to cell indices
            with pytest.raises(TensorError, match="region 2"):
                spp_regions(Tensor(np.zeros((4, 4, 1))), boxes, 2, 8)

    # (grid size, integer-valued map, box draw, ties expected): integer maps
    # tie often; G = 3 on an 8 x 8 map makes bins of 2-3 cells; G = 10 and
    # small boxes under G = 6 give every bin one cell, so nothing can tie.
    TIE_CASES = {
        "ints-g3-random": (3, True, "random", True),
        "ints-g3-whole": (3, True, "whole", True),
        "ints-g6-whole": (6, True, "whole", True),
        "ints-g10-whole": (10, True, "whole", False),
        "ints-g6-small": (6, True, "small", False),
        "normal-g3-random": (3, False, "random", False),
    }

    @pytest.mark.parametrize("case", TIE_CASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_forward_and_gradient_bit_exact_vs_routed_oracle(self, case, seed):
        g, ints, draw, tied = self.TIE_CASES[case]
        r = np.random.default_rng(900 + seed)
        x = r.integers(-1, 2, size=(8, 8, 3)).astype(float) if ints else r.normal(size=(8, 8, 3))
        if draw == "whole":
            boxes = np.array([[0.0, 0, 64, 64], [0.5, 0.5, 63.5, 63.5]])
        elif draw == "small":
            x1, y1 = r.uniform(0, 40, size=(2, 8))
            boxes = np.stack([x1, y1, x1 + r.uniform(1, 24, 8), y1 + r.uniform(1, 24, 8)], axis=1)
        else:
            boxes = random_boxes(r, 8, 64)
        gout = r.normal(size=(len(boxes), g, g, 3))
        xt = leaf(x)
        with Tape() as tape:
            pooled = spp_regions(xt, boxes, g, 8)
            backward(weighted_sum(pooled, gout.reshape(len(boxes), -1)), tape)
        out, gh, ties = spp_routed_oracle(x, boxes, 8, g, gout)
        assert (ties > 0) == tied
        assert pooled.data.tobytes() == out.tobytes()
        assert xt.grad.tobytes() == gh.tobytes()
        assert_scatter_matches_bincount(x, boxes, g, 8, seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_scatter_bytes_match_bincount_on_random_layouts(self, seed):
        # 50 layouts per seed on maps of 1-12 cells a side: footprints wider
        # than the grid give multi-cell bins with pad repeats, integer maps
        # give tied maxima (-0.0 and +0.0 tie too), and `mixed_gradient`
        # puts rows of -0.0 and gradients of 1e-9 to 1e3 in one cell's sum.
        r = np.random.default_rng(4200 + seed)
        seen = {"padded": 0, "tied": 0}
        for _ in range(50):
            hh, ww = r.integers(1, 13, 2)
            stride, g = int(r.choice([1, 2, 4])), int(r.integers(1, 7))
            if r.random() < 0.5:
                x = r.integers(-1, 2, size=(hh, ww, int(r.integers(1, 4)))) * 1.0
                x[x == 0] = r.choice([0.0, -0.0], (x == 0).sum())
            else:
                x = r.normal(size=(hh, ww, int(r.integers(1, 4))))
            boxes = random_boxes(r, int(r.integers(1, 12)), stride * min(hh, ww) + 2)
            boxes[:, 2:] = np.minimum(boxes[:, 2:], (stride * ww, stride * hh))
            boxes[:, :2] = np.minimum(boxes[:, :2], boxes[:, 2:] - 0.5)
            _, cells, _ = spp_layout(boxes, g, stride, hh, ww)
            flat = cells.reshape(-1, cells.shape[3])
            seen["padded"] += bool((flat[:, 1:] == flat[:, :-1]).any())
            seen["tied"] += bool((np.diff(np.sort(x[..., 0].ravel())) == 0).any())
            assert_scatter_matches_bincount(x, boxes, g, stride, seed)
        assert seen["padded"] and seen["tied"]

    @pytest.mark.parametrize("seed", range(3))
    def test_plan_lists_each_real_slot_once(self, seed):
        # Column j of the plan holds, above its pads, each bin that reads
        # cell j once, in ascending bin order (bincount's); a bin's pad
        # repeats are not listed, and the last column is all pads.
        r = np.random.default_rng(4300 + seed)
        for _ in range(20):
            hh, ww = (int(v) for v in r.integers(1, 13, 2))
            boxes = random_boxes(r, int(r.integers(1, 10)), 4 * min(hh, ww) + 2)
            boxes[:, 2:] = np.minimum(boxes[:, 2:], (4 * ww, 4 * hh))
            boxes[:, :2] = np.minimum(boxes[:, :2], boxes[:, 2:] - 0.5)
            _, cells, plan = spp_layout(boxes, int(r.integers(1, 7)), 4, hh, ww)
            flat = cells.reshape(-1, cells.shape[3])
            bins = len(flat)
            want = sorted({(b, int(cell)) for b in range(bins) for cell in flat[b]})
            column_cell = np.append(plan.cells, -1)
            got = [(int(plan.rows[i, j]), int(column_cell[j]))
                   for i, j in zip(*np.nonzero(plan.rows < bins))]
            assert sorted(got) == want and len(got) == len(want)
            assert (plan.rows[:, -1] == bins).all()
            for col in plan.rows.T[:-1]:
                n = int((col < bins).sum())
                assert n > 0 and (col[n:] == bins).all() and (np.diff(col[:n]) > 0).all()

    @pytest.mark.parametrize("hh, ww", [(15, 17), (16, 16), (1, 65_536)])
    def test_scatter_bytes_on_maps_past_a_small_int(self, hh, ww):
        # The plan sorts cells as the smallest unsigned type that holds the
        # map's cell count, its pads' sort key: 255 cells (uint8), 256
        # (uint16) and 65,536 (uint32). Cell 0 wins the padded bins that
        # read it, so a pad key wrapped to 0 would add their gradients twice.
        r = np.random.default_rng(hh * ww)
        x = r.normal(size=(hh, ww, 2))
        x[0, 0] = 10.0
        side = min(hh, 7)
        boxes = np.array([[0.0, 0.0, 7.0, side], [0.5, 0.0, 8.0, hh],
                          [ww - 7.5, hh - side, ww, hh], [ww - 9.0, 0.0, ww, hh]])
        gout = r.normal(size=(len(boxes), 3, 3, 2))
        gh, cells = spp_backward(x, boxes, 3, 1, gout)
        assert gh.tobytes() == spp_bincount_reference(x, cells, gout).tobytes()
        assert_scatter_matches_bincount(x, boxes, 3, 1, 0)


def one_footprint(box, stride, h, w):
    return tuple(int(v) for v in feature_footprints(np.array([box], dtype=float), stride, h, w)[0])


class TestFootprints:
    def test_single_cell_box(self):
        assert one_footprint((0, 0, 1, 1), 8, 8, 8) == (0, 1, 0, 1)

    def test_exact_cell_alignment(self):
        assert one_footprint((8, 16, 16, 32), 8, 8, 8) == (2, 4, 1, 2)

    def test_partial_cells_round_outward(self):
        assert one_footprint((3, 5, 20, 10), 8, 8, 8) == (0, 2, 0, 3)

    def test_clamped_to_map(self):
        assert one_footprint((60, 60, 64, 64), 8, 8, 8) == (7, 8, 7, 8)

    def test_vectorized_matches_scalar(self):
        r = np.random.default_rng(5)
        boxes = random_boxes(r, 50, 64)
        fps = feature_footprints(boxes, 8, 8, 8)
        for b, fp in zip(boxes, fps):
            assert tuple(fp) == footprint_oracle(b, 8, 8, 8)
