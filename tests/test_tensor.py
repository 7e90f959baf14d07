import numpy as np
import pytest

from multinet import tensor as T
from multinet.nnops import stack_channels
from multinet.tensor import (
    ParamGroup,
    Tape,
    Tensor,
    TensorError,
    add_rowvec,
    backward,
    matmul,
    reshape,
    seed_rng,
    sgd_step,
    sum_all,
    take_rows,
)

from conftest import check_grads, n_values, weighted_sum


class TestElementwise:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_mul(self):
        out = Tensor([2.0, 3.0]) * -1.5
        np.testing.assert_array_equal(out.data, [-3.0, -4.5])

    def test_shape_mismatch_message(self):
        with pytest.raises(TensorError, match=r"\(2,\).*\(3,\)"):
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("kind", ["add", "mul"])
    @pytest.mark.parametrize("shape", [(1,), (4,), (2, 3), (3, 2, 2), (5, 1)])
    def test_gradients_random_shapes(self, kind, shape, rng):
        # The two forms the model runs: add of two Tensors, mul by a number.
        a = rng.normal(size=shape)
        b = rng.normal(size=shape)
        w = rng.normal(size=shape)
        if kind == "add":
            check_grads(lambda x, y: weighted_sum(T.elementwise("add", x, y), w), [a, b], tol=1e-6)
        else:
            check_grads(lambda x: weighted_sum(T.elementwise("mul", x, -1.5), w), [a], tol=1e-6)


class TestMatmul:
    def test_identity(self, rng):
        a = rng.normal(size=(3, 3))
        out = matmul(Tensor(a), Tensor(np.eye(3)))
        np.testing.assert_allclose(out.data, a)

    def test_scalar_product(self):
        out = matmul(Tensor([[2.0]]), Tensor([[3.0]]))
        np.testing.assert_array_equal(out.data, [[6.0]])

    def test_dim_mismatch(self):
        with pytest.raises(TensorError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_4x3_3x2(self, rng):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 2))
        w = rng.normal(size=(4, 2))
        check_grads(lambda x, y: weighted_sum(matmul(x, y), w), [a, b], tol=1e-6)

    @pytest.mark.parametrize("m,k,n", [(1, 1, 1), (2, 5, 3), (6, 2, 4), (3, 3, 3), (1, 4, 2)])
    def test_gradient_shapes(self, m, k, n, rng):
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        check_grads(lambda x, y: sum_all(matmul(x, y)), [a, b], tol=1e-6)


class TestReshapeAndIndexing:
    def test_reshape_roundtrip(self, rng):
        a = rng.normal(size=(2, 6))
        out = reshape(Tensor(a), (3, 4))
        assert out.data.shape == (3, 4)
        np.testing.assert_array_equal(out.data.ravel(), a.ravel())

    def test_reshape_gradient(self, rng):
        a = rng.normal(size=(2, 6))
        w = rng.normal(size=(4, 3))
        check_grads(lambda x: weighted_sum(reshape(x, (4, 3)), w), [a])

    def test_take_rows_values(self, rng):
        a = rng.normal(size=(5, 3))
        out = take_rows(Tensor(a), [4, 0, 2])
        np.testing.assert_array_equal(out.data, a[[4, 0, 2]])

    @pytest.mark.parametrize("idx", [[0, 0, 2], [3, 1, -1], [1, -3]])
    def test_take_rows_rejects_repeated_rows(self, idx):
        # The backward writes the taken rows with one fancy-index assignment,
        # so a row taken twice would lose one of its gradients; it is
        # refused up front.
        with pytest.raises(TensorError, match="repeated rows"):
            take_rows(Tensor(np.ones((4, 2))), idx)

    def test_take_rows_gradient_fd(self, rng):
        # Distinct, unsorted rows; rows 1 and 4 are not taken and get zero.
        a = rng.normal(size=(6, 2))
        w = rng.normal(size=(4, 2))
        check_grads(lambda x: weighted_sum(take_rows(x, [5, 0, 3, 2]), w), [a])

    def test_take_rows_gradient_fd_without_buffer(self, rng):
        # The source is an op output with no grad buffer yet, so `backward`
        # keeps the take_rows gradient as its buffer.
        a = rng.normal(size=(6, 2))
        w = rng.normal(size=(4, 2))
        check_grads(lambda x: weighted_sum(take_rows(x * 2.0, [5, 0, 3, 2]), w), [a])

    def test_take_rows_into_existing_buffer(self, rng):
        # A source that already holds a gradient keeps its buffer and ends
        # with the bytes of adding the gradient into the taken rows only:
        # the other rows add 0.0, which changes no nonzero value.
        a = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        buf = a.grad
        buf[:] = rng.normal(size=(5, 3))
        g = rng.normal(size=(2, 3))
        expect = buf.copy()
        expect[[3, 1]] += g
        with Tape() as tape:
            backward(weighted_sum(take_rows(a, [3, 1]), g), tape)
        assert a.grad is buf
        assert a.grad.tobytes() == expect.tobytes()

    def test_add_rowvec(self, rng):
        m = rng.normal(size=(4, 3))
        v = rng.normal(size=3)
        out = add_rowvec(Tensor(m), Tensor(v))
        np.testing.assert_allclose(out.data, m + v)
        check_grads(lambda a, b: sum_all(add_rowvec(a, b)), [m, v])

    def test_add_rowvec_shape_error(self):
        with pytest.raises(TensorError):
            add_rowvec(Tensor(np.ones((2, 3))), Tensor(np.ones(2)))


class TestBackward:
    def test_sum_of_squares(self, rng):
        # One tensor reaches the loss along two paths: both gradients add up.
        x = rng.normal(size=(1, 9))
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            loss = matmul(t, reshape(t, (9, 1)))
            backward(loss, tape)
        np.testing.assert_allclose(t.grad, 2 * x)

    def test_unused_input_gets_zero(self, rng):
        x = Tensor(rng.normal(size=3), requires_grad=True)
        y = Tensor(rng.normal(size=3), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(x * 2.0)
            backward(loss, tape)
        np.testing.assert_array_equal(y.grad, np.zeros(3))

    def test_two_layer_composition(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        c = rng.normal(size=(2, 3))

        def build(x, y, z):
            return sum_all(matmul(matmul(x, y), z))

        check_grads(build, [a, b, c], tol=1e-6)

    def test_non_scalar_loss_rejected(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            out = t * 1.0
            with pytest.raises(TensorError, match="scalar"):
                backward(out, tape)

    def test_gradient_linearity(self, rng):
        x = rng.normal(size=(3, 3))

        def grad_of(build):
            t = Tensor(x, requires_grad=True)
            with Tape() as tape:
                backward(build(t), tape)
            return t.grad

        g1 = grad_of(lambda t: sum_all(matmul(t, t)))
        g2 = grad_of(lambda t: sum_all(t * 3.0))
        g12 = grad_of(lambda t: sum_all(matmul(t, t)) + sum_all(t * 3.0))
        np.testing.assert_allclose(g12, g1 + g2, atol=1e-12)

    def test_accumulation_across_backward_calls(self, rng):
        x = rng.normal(size=4)
        t = Tensor(x, requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                backward(sum_all(t), tape)
            assert not tape.nodes  # each sweep clears its tape
        np.testing.assert_array_equal(t.grad, np.full(4, 2.0))

    def test_no_tape_no_recording(self):
        t = Tensor(np.ones(3), requires_grad=True)
        out = t * 2.0
        assert out.requires_grad is False

    def test_detach_blocks_gradient(self, rng):
        t = Tensor(rng.normal(size=3), requires_grad=True)
        with Tape() as tape:
            loss = matmul(reshape(t.detach(), (1, 3)), reshape(t, (3, 1)))
            backward(loss, tape)
        np.testing.assert_allclose(t.grad, t.data)  # only the live branch


# Builders of the ownership cases: x and y need gradients, w1..w3 do not.
# Each aliasing op reads an op output, which has no grad buffer until the
# sweep reaches it.
def _x_plus_x(x, y, w1, w2, w3):
    t = x * 2.0
    return weighted_sum(t + t, w1.data)


def _add_then_more_gradient(x, y, w1, w2, w3):
    # a and b get the add node's gradient first in the reverse sweep, then
    # more from the consumers recorded before it.
    a, b = x * 2.0, y * 3.0
    u = weighted_sum(a, w2.data) + weighted_sum(b, w3.data)
    return weighted_sum(a + b, w1.data) + u


def _reshape_two_consumers(x, y, w1, w2, w3):
    a = x * 2.0
    early = weighted_sum(a, w3.data)
    r = reshape(a, (6, 2))
    return weighted_sum(r, w1.data.reshape(6, 2)) + weighted_sum(r, w2.data.reshape(6, 2)) + early


def _stack_same_twice(x, y, w1, w2, w3):
    a = reshape(x * 1.5, (3, 2, 2))
    s = stack_channels([a, a])
    return weighted_sum(s, np.concatenate([w1.data, w2.data], axis=1).reshape(3, 2, 4))


def _one_fresh_array_for_two_inputs(x, y, w1, w2, w3):
    # An op whose backward hands one new array to both of its inputs.
    a, b = x * 2.0, y * 3.0
    early = weighted_sum(a, w2.data)
    s = T.make_op(a.data + b.data, (a, b), lambda g: (2.0 * g,) * 2, "double_sum")
    return weighted_sum(s, w1.data) + early


def _stacked_twice_grad(w1, w2):
    w = np.concatenate([w1, w2], axis=1).reshape(3, 2, 4)
    return 1.5 * (w[..., :2] + w[..., 2:]).reshape(3, 4)


# builder -> the gradients of x and y it implies, from the arrays of x, y,
# w1, w2 and w3.
IMPLIED_GRADS = {
    _x_plus_x: lambda x, y, w1, w2, w3: (4.0 * w1, np.zeros_like(y)),
    _add_then_more_gradient: lambda x, y, w1, w2, w3: (2.0 * (w1 + w2), 3.0 * (w1 + w3)),
    _reshape_two_consumers: lambda x, y, w1, w2, w3: (2.0 * (w1 + w2 + w3), np.zeros_like(y)),
    _stack_same_twice: lambda x, y, w1, w2, w3: (_stacked_twice_grad(w1, w2), np.zeros_like(y)),
    _one_fresh_array_for_two_inputs: lambda x, y, w1, w2, w3: (2.0 * (2.0 * w1 + w2), 6.0 * w1),
}


class TestGradientOwnership:
    @pytest.mark.parametrize("build", list(IMPLIED_GRADS))
    def test_grads_match_copying_reference_and_share_nothing(self, build, rng):
        # The reference is the sum of gradients each builder implies: what a
        # sweep that copies every first gradient gives.
        arrays = [rng.normal(size=(3, 4)) for _ in range(5)]
        leaves = [Tensor(a, requires_grad=i < 2) for i, a in enumerate(arrays)]
        with Tape() as tape:
            loss = build(*leaves)
            seen = {}
            for node in tape.nodes:
                for t in (node.out, *node.inputs):
                    if t.requires_grad:
                        seen[id(t)] = t
            backward(loss, tape)
        want = IMPLIED_GRADS[build](*arrays)
        for leaf, w in zip(leaves, want):
            np.testing.assert_allclose(leaf.grad, w, rtol=1e-12, atol=0)
        got = list(seen.values())
        for i, a in enumerate(got):
            for b in got[i + 1:]:
                assert not np.shares_memory(a.grad, b.grad)

    def test_kept_gradient_array_is_never_written(self):
        # An op's backward may return an array it keeps: the sweep copies
        # it before the input's later gradient is added.
        kept = np.ones(3)
        x = Tensor(np.zeros(3), requires_grad=True)
        with Tape() as tape:
            a = x * 1.0
            early = sum_all(a)
            out = T.make_op(a.data.copy(), (a,), lambda g: (kept,), "kept_gradient")
            backward(sum_all(out) + early, tape)
        np.testing.assert_array_equal(kept, np.ones(3))
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))


class TestSgd:
    def _group(self, w, mult):
        g = ParamGroup()
        g.add("w", Tensor(np.array([w])), mult)
        return g

    def test_basic_step(self):
        g = self._group(1.0, 1.0)
        g["w"].grad[:] = 0.5
        sgd_step(g, 0.1)
        np.testing.assert_allclose(g["w"].data, [0.95])

    def test_bias_multiplier(self):
        g = self._group(1.0, 2.0)
        g["w"].grad[:] = 0.5
        sgd_step(g, 0.1)
        np.testing.assert_allclose(g["w"].data, [0.9])

    def test_zero_grad_fixed_point(self):
        g = self._group(1.0, 1.0)
        for _ in range(5):
            sgd_step(g, 0.1)
        np.testing.assert_array_equal(g["w"].data, [1.0])

    def test_nan_gradient_names_parameter(self):
        g = self._group(1.0, 1.0)
        g["w"].grad[:] = np.nan
        with pytest.raises(TensorError, match="'w'"):
            sgd_step(g, 0.1)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(TensorError):
            sgd_step(self._group(1.0, 1.0), 0.0)

    def test_duplicate_name_rejected(self):
        g = ParamGroup()
        g.add("w", Tensor(np.zeros(2)))
        with pytest.raises(TensorError):
            g.add("w", Tensor(np.zeros(2)))

    def test_nonpositive_multiplier_rejected(self):
        g = ParamGroup()
        with pytest.raises(TensorError):
            g.add("w", Tensor(np.zeros(2)), lr_mult=0.0)

    def test_n_values(self):
        g = ParamGroup()
        g.add("a", Tensor(np.zeros((2, 3))))
        g.add("b", Tensor(np.zeros(5)), 2.0)
        assert n_values(g) == 11


class TestRng:
    def test_same_seed_identical(self):
        a = seed_rng(7, 3).standard_normal(50)
        b = seed_rng(7, 3).standard_normal(50)
        np.testing.assert_array_equal(a, b)


class TestFiniteness:
    def test_nonfinite_construction_rejected(self):
        with pytest.raises(TensorError):
            Tensor([1.0, np.inf])

    def test_nonfinite_op_result_rejected(self):
        big = Tensor(np.full(3, 1e308))
        with np.errstate(over="ignore"), pytest.raises(TensorError):
            big * 1e10
