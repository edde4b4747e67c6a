"""Autodiff correctness for the core tensor ops."""

import threading

import numpy as np
import pytest

from repro import nn
from repro.nn.gradcheck import check_gradient
from repro.nn.tensor import Tensor, as_tensor, concat, stack


class TestConstruction:
    def test_float_data_is_float32(self):
        t = Tensor([1.0, 2.0])
        assert t.dtype == np.float32

    def test_int_labels_allowed_without_grad(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype.kind in "iu"

    def test_int_with_grad_rejected(self):
        with pytest.raises(TypeError):
            Tensor(np.array([1, 2, 3]), requires_grad=True)

    def test_from_tensor_shares_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert b.data is a.data

    def test_repr_mentions_grad_flag(self):
        assert "requires_grad=True" in repr(Tensor([1.0], requires_grad=True))

    def test_detach_cuts_graph(self):
        a = Tensor([2.0], requires_grad=True)
        b = (a * 3).detach()
        assert not b.requires_grad
        assert b._parents == ()

    def test_item_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20


class TestArithmeticForward:
    def test_add(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_radd_scalar(self):
        out = 1.0 + Tensor([1.0])
        np.testing.assert_allclose(out.data, [2.0])

    def test_sub_and_rsub(self):
        np.testing.assert_allclose((Tensor([3.0]) - 1.0).data, [2.0])
        np.testing.assert_allclose((5.0 - Tensor([3.0])).data, [2.0])

    def test_mul_div(self):
        np.testing.assert_allclose((Tensor([2.0]) * 3.0).data, [6.0])
        np.testing.assert_allclose((Tensor([6.0]) / 3.0).data, [2.0])

    def test_rtruediv(self):
        np.testing.assert_allclose((6.0 / Tensor([3.0])).data, [2.0])

    def test_pow(self):
        np.testing.assert_allclose((Tensor([3.0]) ** 2).data, [9.0])

    def test_pow_non_scalar_rejected(self):
        with pytest.raises(TypeError):
            Tensor([3.0]) ** np.array([1.0, 2.0])

    def test_neg(self):
        np.testing.assert_allclose((-Tensor([3.0])).data, [-3.0])

    def test_matmul(self):
        a = np.arange(6, dtype=np.float32).reshape(2, 3)
        b = np.arange(12, dtype=np.float32).reshape(3, 4)
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_comparisons_return_numpy(self):
        mask = Tensor([1.0, 3.0]) > 2.0
        assert isinstance(mask, np.ndarray)
        np.testing.assert_array_equal(mask, [False, True])


class TestBackward:
    def test_add_grad(self):
        check_gradient(lambda a, b: a + b,
                       [np.random.randn(3, 4), np.random.randn(3, 4)], wrt=0)

    def test_mul_grad_both_sides(self):
        inputs = [np.random.randn(3, 4), np.random.randn(3, 4)]
        check_gradient(lambda a, b: a * b, inputs, wrt=0)
        check_gradient(lambda a, b: a * b, inputs, wrt=1)

    def test_div_grad(self):
        a = np.random.rand(3, 3) + 0.5
        b = np.random.rand(3, 3) + 0.5
        check_gradient(lambda x, y: x / y, [a, b], wrt=0)
        check_gradient(lambda x, y: x / y, [a, b], wrt=1)

    def test_pow_grad(self):
        check_gradient(lambda x: x ** 3, [np.random.rand(4) + 0.5])

    def test_matmul_grad(self):
        a = np.random.randn(2, 3)
        b = np.random.randn(3, 4)
        check_gradient(lambda x, y: x @ y, [a, b], wrt=0)
        check_gradient(lambda x, y: x @ y, [a, b], wrt=1)

    def test_broadcast_add_grad(self):
        a = np.random.randn(4, 3)
        bias = np.random.randn(3)
        check_gradient(lambda x, b: x + b, [a, bias], wrt=1)

    def test_broadcast_mul_grad(self):
        a = np.random.randn(4, 3)
        s = np.random.randn(1, 3)
        check_gradient(lambda x, y: x * y, [a, s], wrt=1)

    def test_reused_tensor_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        out = x * x + x  # d/dx = 2x + 1 = 5
        out.backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        (x * 3).backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None

    def test_backward_custom_seed(self):
        x = Tensor([1.0, 1.0], requires_grad=True)
        (x * 2).backward(np.array([1.0, 0.0]))
        np.testing.assert_allclose(x.grad, [2.0, 0.0])

    def test_no_grad_blocks_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with nn.no_grad():
            out = x * 2
        assert not out.requires_grad
        assert nn.is_grad_enabled()

    def test_no_grad_is_per_thread(self):
        # A serving thread's no_grad must not switch off this thread's
        # tape, and its exit inside this thread's no_grad must not leave
        # grad mode off once both have exited.
        entered, release = threading.Event(), threading.Event()

        def serve():
            with nn.no_grad():
                entered.set()
                release.wait(30.0)

        worker = threading.Thread(target=serve, daemon=True)
        worker.start()
        try:
            assert entered.wait(30.0)
            x = Tensor([1.0], requires_grad=True)
            assert (x * 2).requires_grad
            with nn.no_grad():
                release.set()
                worker.join(30.0)
        finally:
            release.set()
            worker.join(30.0)
        assert not worker.is_alive()
        assert nn.is_grad_enabled()


class TestShapeOps:
    def test_reshape_grad(self):
        check_gradient(lambda x: (x.reshape(6) * 2), [np.random.randn(2, 3)])

    def test_reshape_tuple_arg(self):
        t = Tensor(np.zeros((2, 3))).reshape((3, 2))
        assert t.shape == (3, 2)

    def test_transpose_grad(self):
        check_gradient(lambda x: x.transpose(1, 0) * 2, [np.random.randn(2, 3)])

    def test_T_property(self):
        assert Tensor(np.zeros((2, 5))).T.shape == (5, 2)

    def test_getitem_grad(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3),
                   requires_grad=True)
        x[0].sum().backward()
        np.testing.assert_allclose(x.grad, [[1, 1, 1], [0, 0, 0]])

    def test_getitem_fancy_index_accumulates(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        x[np.array([0, 0, 1])].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 1.0, 0.0])

    def test_flatten_batch(self):
        t = Tensor(np.zeros((4, 2, 3, 3)))
        assert t.flatten_batch().shape == (4, 18)


class TestReductions:
    def test_sum_all_grad(self):
        check_gradient(lambda x: x.sum(), [np.random.randn(3, 4)])

    def test_sum_axis_grad(self):
        check_gradient(lambda x: x.sum(axis=1), [np.random.randn(3, 4)])

    def test_sum_keepdims(self):
        out = Tensor(np.ones((2, 3))).sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)

    def test_mean_matches_numpy(self):
        a = np.random.randn(3, 4).astype(np.float32)
        np.testing.assert_allclose(Tensor(a).mean(axis=0).data,
                                   a.mean(axis=0), rtol=1e-5)

    def test_mean_grad(self):
        check_gradient(lambda x: x.mean(axis=0), [np.random.randn(3, 4)])

    def test_mean_multi_axis(self):
        a = np.random.randn(2, 3, 4).astype(np.float32)
        np.testing.assert_allclose(Tensor(a).mean(axis=(1, 2)).data,
                                   a.mean(axis=(1, 2)), rtol=1e-5)

    def test_max_grad_unique(self):
        a = np.array([[1.0, 5.0, 2.0]])
        x = Tensor(a, requires_grad=True)
        x.max(axis=1).backward()
        np.testing.assert_allclose(x.grad, [[0, 1, 0]])

    def test_max_grad_ties_split(self):
        x = Tensor(np.array([[3.0, 3.0]]), requires_grad=True)
        x.max(axis=1).backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5]])

    def test_argmax(self):
        assert Tensor(np.array([[1.0, 9.0, 2.0]])).argmax(axis=1)[0] == 1


class TestStackConcat:
    def test_stack_forward_and_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3) * 2, requires_grad=True)
        out = stack([a, b])
        assert out.shape == (2, 3)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.ones(3))

    def test_concat_grad_partition(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = concat([a, b], axis=0)
        assert out.shape == (5, 2)
        (out * 2).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((3, 2), 2.0))

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t
