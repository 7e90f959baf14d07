import weakref

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
    make_op,
    matmul,
    reshape,
    seed_rng,
    sgd_step,
    sum_all,
    take_rows,
)

from conftest import add, check_grads, n_values, scale, weighted_sum


class TestElementwise:
    def test_add_values(self):
        out = T.elementwise(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_shape_mismatch_message(self):
        with pytest.raises(TensorError, match=r"\(2,\).*\(3,\)"):
            T.elementwise(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("op", [T.elementwise], ids=["add"])
    @pytest.mark.parametrize("shape", [(1,), (4,), (2, 3), (3, 2, 2), (5, 1)])
    def test_gradients_random_shapes(self, op, shape, rng):
        a = rng.normal(size=shape)
        b = rng.normal(size=shape)
        w = rng.normal(size=shape)
        check_grads(lambda x, y: weighted_sum(op(x, y), w), [a, b], tol=1e-6)


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
        with pytest.raises(TensorError, match=r"\(2,\) and \(3, 2\)"):
            matmul(Tensor(np.ones(2)), Tensor(np.ones((3, 2))))

    def test_vector_left_operand_is_a_one_row_product(self, rng):
        # A D vector times D x K gives a K vector, with the values and
        # gradients of the (1, D) row's product.
        a, b, w = rng.normal(size=3), rng.normal(size=(3, 4)), rng.normal(size=4)
        out = matmul(Tensor(a), Tensor(b))
        assert out.data.shape == (4,)
        np.testing.assert_allclose(out.data, (a[None, :] @ b)[0], rtol=1e-14)
        check_grads(lambda x, y: weighted_sum(matmul(x, y), w), [a, b], tol=1e-6)

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
        check_grads(lambda x: weighted_sum(take_rows(scale(x, 2.0), [5, 0, 3, 2]), w), [a])

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
            loss = sum_all(scale(x, 2.0))
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
            out = scale(t, 1.0)
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
        g2 = grad_of(lambda t: sum_all(scale(t, 3.0)))
        g12 = grad_of(lambda t: add(sum_all(matmul(t, t)), sum_all(scale(t, 3.0))))
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
        out = scale(t, 2.0)
        assert out.requires_grad is False

    def test_detach_blocks_gradient(self, rng):
        t = Tensor(rng.normal(size=3), requires_grad=True)
        with Tape() as tape:
            loss = matmul(reshape(t.detach(), (1, 3)), reshape(t, (3, 1)))
            backward(loss, tape)
        np.testing.assert_allclose(t.grad, t.data)  # only the live branch

    def test_node_state_freed_before_the_node_before_it_runs(self, rng):
        # The sweep drops each node as it reaches it, so what a later op's
        # backward keeps is freed before the earlier op's backward runs.
        class Saved:  # state an op's backward keeps, such as a patch matrix
            pass

        x = Tensor(rng.normal(size=3), requires_grad=True)
        alive = []
        with Tape() as tape:
            first = make_op(x.data * 1.0, (x,), lambda g: alive.append(kept()) or (g,), "first")
            saved = Saved()
            kept = weakref.ref(saved)
            second = make_op(first.data * 1.0, (first,), lambda g, s=saved: (g,), "second")
            del saved
            assert kept() is not None
            backward(weighted_sum(second, np.ones(3)), tape)
        assert alive == [None] and tape.nodes == []
        np.testing.assert_array_equal(x.grad, np.ones(3))


# Builders of the ownership cases: x and y need gradients, w1..w3 do not.
# Each aliasing op reads an op output, which has no grad buffer until the
# sweep reaches it.
def _x_plus_x(x, y, w1, w2, w3):
    t = scale(x, 2.0)
    return weighted_sum(add(t, t), w1.data)


def _add_then_more_gradient(x, y, w1, w2, w3):
    # a and b get the add node's gradient first in the reverse sweep, then
    # more from the consumers recorded before it.
    a, b = scale(x, 2.0), scale(y, 3.0)
    u = add(weighted_sum(a, w2.data), weighted_sum(b, w3.data))
    return add(weighted_sum(add(a, b), w1.data), u)


def _reshape_two_consumers(x, y, w1, w2, w3):
    a = scale(x, 2.0)
    early = weighted_sum(a, w3.data)
    r = reshape(a, (6, 2))
    return add(add(weighted_sum(r, w1.data.reshape(6, 2)), weighted_sum(r, w2.data.reshape(6, 2))),
               early)


def _stack_same_twice(x, y, w1, w2, w3):
    a = reshape(scale(x, 1.5), (3, 2, 2))
    s = stack_channels([a, a])
    return weighted_sum(s, np.concatenate([w1.data, w2.data], axis=1).reshape(3, 2, 4))


def _one_fresh_array_for_two_inputs(x, y, w1, w2, w3):
    # An op whose backward hands one new array to both of its inputs.
    a, b = scale(x, 2.0), scale(y, 3.0)
    early = weighted_sum(a, w2.data)
    s = T.make_op(a.data + b.data, (a, b), lambda g: (2.0 * g,) * 2, "double_sum")
    return add(weighted_sum(s, w1.data), early)


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
            a = scale(x, 1.0)
            early = sum_all(a)
            out = T.make_op(a.data.copy(), (a,), lambda g: (kept,), "kept_gradient")
            backward(add(sum_all(out), early), tape)
        np.testing.assert_array_equal(kept, np.ones(3))
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))


class TestSgd:
    def _group(self, w, mult):
        g = ParamGroup()
        g.add("w", Tensor(np.array([w])), mult)
        return g

    def test_basic_step(self):
        g = self._group(1.0, 1.0)
        g["w"].grad = np.array([0.5])
        sgd_step(g, 0.1)
        np.testing.assert_allclose(g["w"].data, [0.95])

    def test_bias_multiplier(self):
        g = self._group(1.0, 2.0)
        g["w"].grad = np.array([0.5])
        sgd_step(g, 0.1)
        np.testing.assert_allclose(g["w"].data, [0.9])

    def test_zero_grad_fixed_point(self):
        g = self._group(1.0, 1.0)
        assert g["w"].grad is None  # the group allocates no gradient
        for _ in range(5):
            sgd_step(g, 0.1)
        np.testing.assert_array_equal(g["w"].data, [1.0])

    def test_only_reached_parameters_step(self):
        # A parameter the sweep did not reach keeps no gradient and is not
        # stepped: its bytes are where a zero step would leave them.
        g = ParamGroup()
        for name in ("a", "b", "c"):
            g.add(name, Tensor(np.array([1.0, -0.5])))
        with Tape() as tape:
            backward(add(weighted_sum(g["a"], [1.0, 2.0]), weighted_sum(g["c"], [3.0, 4.0])), tape)
        assert g["b"].grad is None
        sgd_step(g, 0.1)
        np.testing.assert_array_equal(g["a"].data, [0.9, -0.7])
        np.testing.assert_array_equal(g["c"].data, [0.7, -0.9])
        assert g["b"].data.tobytes() == np.array([1.0, -0.5]).tobytes()

    def test_nan_gradient_after_unreached_parameter_names_it(self):
        g = ParamGroup()
        g.add("unreached", Tensor(np.zeros(2)))
        g.add("w", Tensor(np.zeros(2))).grad = np.array([1.0, np.nan])
        with pytest.raises(TensorError, match="'w'"):
            sgd_step(g, 0.1)

    def test_zero_grads_drops_and_the_next_sweep_reuses_the_array(self):
        # The first gradient of a sweep is the op's gradient plus 0.0, so a
        # -0.0 reads +0.0, as on the zero buffer the group no longer keeps;
        # after `zero_grads` it is written into the dropped array.
        g = ParamGroup()
        w = g.add("w", Tensor(np.array([1.0, 2.0, 3.0])))
        for step in range(2):
            with Tape() as tape:
                backward(weighted_sum(w, [-0.0, 0.0, -2.0]), tape)
            assert w.grad.tobytes() == np.array([0.0, 0.0, -2.0]).tobytes()
            if step:
                assert w.grad is first
            first = w.grad
            g.zero_grads()
            assert w.grad is None

    def test_nan_gradient_names_parameter(self):
        g = self._group(1.0, 1.0)
        g["w"].grad = np.array([np.nan])
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
            scale(big, 1e10)
