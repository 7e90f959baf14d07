"""Every op the model calls computes in the dtype of its inputs, forward and
backward, and a training step of a fresh (float32) model stays in float32.
A float64 upcast anywhere (a `bincount` scatter, an `np.zeros` buffer, a
float64 loss target) fails here: `backward` would round such a gradient
back to its input's dtype, so the tests read what each op's backward
returns, not only the gradient buffers."""

import numpy as np
import pytest

from multinet import model, nnops, tasks
from multinet.harness import RunConfig, build_task_config, prepare_scene, scene_loss
from multinet.model import Multinet
from multinet.nnops import Layer, SppGrid
from multinet.synthdata import SceneSpec, generate_dataset
from multinet.tensor import Tape, Tensor, add_rowvec, backward, matmul, reshape, sum_all, take_rows

from conftest import add, forward_boxes, spp_regions

# Region geometry stays float64 whatever the network's dtype.
BOXES = np.array([[0.0, 0.0, 16.0, 16.0], [4.0, 8.0, 30.0, 20.0], [10.0, 2.0, 14.0, 31.0]])
COVERING = model.covering_regions(nnops.feature_footprints(BOXES, 8, 4, 4), 4, 4)
TARGETS = np.linspace(-2.0, 2.0, 24).reshape(3, 8)
MASK = np.zeros((3, 8))
MASK[0, 4:] = MASK[2, :4] = 1.0

# op -> (build(*tensors) -> Tensor, shapes of its differentiable inputs)
CASES = {
    "elementwise:add": (add, [(2, 3), (2, 3)]),
    "matmul": (matmul, [(3, 4), (4, 2)]),
    "matmul:vector": (matmul, [(4,), (4, 2)]),
    "reshape": (lambda a: reshape(a, (3, 2)), [(2, 3)]),
    "take_rows": (lambda a: take_rows(a, [3, 0, 2]), [(4, 2)]),
    "add_rowvec": (add_rowvec, [(3, 2), (2,)]),
    "conv2d": (lambda x, f, b: nnops.conv2d(x, Layer(f, b)),
               [(6, 6, 2), (3, 3, 2, 3), (3,)]),
    "relu": (nnops.relu, [(3, 4)]),
    "sigmoid": (nnops.sigmoid, [(3, 4)]),
    "softmax_rows": (nnops.softmax_rows, [(3, 4)]),
    "max_pool2d": (nnops.max_pool2d, [(6, 6, 2)]),
    "global_max_pool": (nnops.global_max_pool, [(4, 4, 3)]),
    "fully_connected": (lambda x, w, b: nnops.fully_connected(x, Layer(w, b)),
                        [(3, 4), (4, 2), (2,)]),
    "fully_connected:vector": (lambda x, w, b: nnops.fully_connected(x, Layer(w, b)),
                               [(4,), (4, 2), (2,)]),
    "stack_channels": (lambda a, b: nnops.stack_channels([a, b]), [(2, 2, 1), (2, 2, 3)]),
    "spp_pool_regions": (lambda h: spp_regions(h, BOXES, SppGrid(2, 8)), [(4, 4, 3)]),
    "encode_cls": (lambda x: model.encode_cls(x, 4, 4), [(3,)]),
    "encode_det": (lambda x: model.encode_det(x, COVERING, 4, 4), [(3, 4)]),
    # The harness passes the image label as uint8; the box losses also take
    # float64 targets and mask, which they cast to the deltas' dtype.
    "bce_multilabel": (lambda p: tasks.bce_multilabel(p, np.array([1, 0, 1], dtype=np.uint8)),
                       [(3,)]),
    "softmax_ce": (lambda s: tasks.softmax_ce(s, np.array([0, 2, 1])), [(3, 4)]),
    "smooth_l1": (lambda d: tasks.smooth_l1(d, TARGETS, MASK), [(3, 8)]),
}


def record_backward(nodes) -> list:
    """Wrap each tape node's backward to collect the arrays it returns."""
    returned = []
    for node in nodes:
        def bwd(g, f=node.backward_fn):
            grads = tuple(f(g))
            returned.extend(gi for gi in grads if gi is not None)
            return grads

        node.backward_fn = bwd
    return returned


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", sorted(CASES))
def test_op_follows_input_dtype(op, dtype):
    build, shapes = CASES[op]
    r = np.random.default_rng(0)
    inputs = [Tensor(r.uniform(0.1, 1.0, size=s).astype(dtype), requires_grad=True)
              for s in shapes]
    with Tape() as tape:
        out = build(*inputs)
        loss = sum_all(out)
        nodes = list(tape.nodes)
        returned = record_backward(nodes)
        backward(loss, tape)
    want = np.dtype(dtype)
    assert out.data.dtype == want
    assert {n.out.data.dtype for n in nodes} == {want}
    assert returned and {g.dtype for g in returned} == {want}
    assert {t.grad.dtype for t in inputs} == {want}


@pytest.mark.parametrize("mode", ["update1", "update2"])
def test_training_step_stays_float32(mode):
    spec = SceneSpec(canvas=32, max_object_side=20, objects_min=1, objects_max=2, seed=6)
    scenes = generate_dataset(spec, 1)
    config = RunConfig(version=1, mode=mode, iterations=2, proposals=16, channels=8,
                       cls_hidden=16, region_hidden=16, spp_grid=3)
    cfg = build_task_config(config, spec)
    net = Multinet(cfg, seed=0)
    batch = prepare_scene(scenes[0], spec, net, 0)
    with Tape() as tape:
        loss = scene_loss(net, batch, config)
        nodes = list(tape.nodes)
        returned = record_backward(nodes)
        backward(loss, tape)
    f32 = np.dtype(np.float32)
    assert {n.out.data.dtype for n in nodes} == {f32}
    assert {n.out.grad.dtype for n in nodes if n.out.grad is not None} == {f32}
    assert {g.dtype for g in returned} == {f32}
    for name, t, _ in net.params.items():
        assert t.data.dtype == f32 and t.grad.dtype == f32, name
    assert net.dtype == f32
    for target in batch.regions.values():  # loss targets are held in the network's dtype
        assert target.deltas.dtype == target.mask.dtype == f32


def test_grounded_forward_stays_float32():
    # The float64 image and the uint8 ground-truth label are cast to the
    # parameters' dtype.
    spec = SceneSpec(canvas=32, max_object_side=20, objects_min=1, objects_max=2, seed=6)
    scene = generate_dataset(spec, 1)[0]
    net = Multinet(model.TaskConfig(c_cls=spec.n_classes, c_part=spec.n_part_classes, m=16,
                                    canvas=32, channels=8, cls_hidden=16, region_hidden=16,
                                    spp_grid=3), seed=0)
    boxes = BOXES[np.arange(16) % 3]
    outs = forward_boxes(net, scene.image, boxes, ground_cls=scene.img_label)
    tensors = [x for o in outs for x in (o.x_cls, *(t for r in o.regions.values() for t in r))]
    assert {x.data.dtype for x in tensors} == {np.dtype(np.float32)}
