import dataclasses
import hashlib
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from multinet import cli, container, harness, model, nnops, tasks
from multinet.harness import (
    ConfigError,
    RunConfig,
    TrainState,
    TrainingError,
    build_task_config,
    evaluate_model,
    load_checkpoint,
    parse_config,
    prepare_scene,
    recurrence_sweep,
    restore_model,
    save_checkpoint,
    scene_loss,
    train,
    write_csv,
)
from multinet.model import Multinet, TaskConfig, fc1_rows
from multinet.synthdata import SceneSpec, generate_dataset, propose_regions, write_dataset
from multinet.tasks import metrics_to_rows
from multinet.tensor import (
    ParamGroup, Tape, Tensor, TensorError, add_rowvec, backward, matmul, sgd_step, take_rows,
)

from conftest import as_float64, record_grads, reseal
from test_synthdata import (
    WRONG_TYPED_SPEC_FIELDS, label_offset, patched, record_offsets, with_spec_fields,
)


COMMITTED_CKPT = Path(__file__).parent / "_cache" / "bench_27af23a54b4faaee.ckpt"

# A checkpoint run_config value of the wrong JSON type, and the error that
# names it. The first three escaped as a bare AttributeError or TypeError
# before, and a bool was taken as an int.
WRONG_TYPED_RUN_CONFIG = [
    pytest.param({"seeds": 5}, "seeds must be of type str, got 5", id="int-seeds"),
    pytest.param({"lr_phase1": "x"}, "lr_phase1 must be of type float, got 'x'", id="str-lr"),
    pytest.param({"proposals": "8"}, "proposals must be of type int, got '8'", id="str-proposals"),
    pytest.param({"iterations": True}, "iterations must be of type int, got True",
                 id="bool-iterations"),
]

# A checkpoint header's own value that cannot be resumed from, and the error
# that names it. Before, the wrong-typed epoch and rng_state restored and then
# broke `train` with a bare TypeError, a non-list history broke the restore
# with one, and the rest restored and resumed silently.
BAD_HEADER_VALUES = [
    pytest.param({"epoch": "2"}, "epoch must be of type int, got '2'", id="str-epoch"),
    pytest.param({"epoch": -1}, "epoch must be at least 0, got -1", id="negative-epoch"),
    pytest.param({"epoch": True}, "epoch must be of type int, got True", id="bool-epoch"),
    pytest.param({"history": 5}, "history must be a list, got 5", id="int-history"),
    pytest.param({"history": ["x"]}, "history[0] must be of type float, got 'x'",
                 id="str-history-entry"),
    pytest.param({"history": [1.0, float("nan")]},
                 "history[1] must be finite and non-negative, got nan", id="nan-history-entry"),
    pytest.param({"rng_state": 5}, "rng_state is not a PCG64 state: state must be a dict",
                 id="int-rng-state"),
    pytest.param({"rng_state": {"bit_generator": "MT19937"}},
                 "rng_state is not a PCG64 state: state must be for a PCG64 RNG",
                 id="other-rng-state"),
]

# A checkpoint header edit that drops a key `save_checkpoint` writes, or makes
# run_config or task_config another JSON type, and the error that names it.
# Before, a missing run_config field took its default (a seed 2 checkpoint
# restored as seed 0), a missing history or optimizer read as empty, and a
# section of another type escaped as a bare TypeError.
INCOMPLETE_HEADERS = [
    pytest.param(lambda h: h["run_config"].pop("seed"),
                 "the checkpoint's run_config has no 'seed'", id="no-seed"),
    pytest.param(lambda h: h.pop("history"), "the checkpoint header has no 'history'",
                 id="no-history"),
    pytest.param(lambda h: h.pop("optimizer"), "the checkpoint header has no 'optimizer'",
                 id="no-optimizer"),
    pytest.param(lambda h: h.update(run_config=5),
                 "the checkpoint header: run_config must be a JSON object, got 5",
                 id="int-run-config"),
    pytest.param(lambda h: h.update(task_config=[1]),
                 "the checkpoint header: task_config must be a JSON object, got [1]",
                 id="list-task-config"),
]

SMALL_SPEC = SceneSpec(canvas=32, max_object_side=20, objects_min=1, objects_max=2, seed=6)
SMALL_SCENES = generate_dataset(SMALL_SPEC, 8)


def small_config(**kw):
    base = dict(
        version=1, mode="update1", iterations=1, lr_phase1=1e-3, epochs_phase1=2,
        lr_phase2=1e-4, epochs_phase2=0, proposals=16, channels=8,
        cls_hidden=16, region_hidden=16, spp_grid=3, seed=0,
    )
    base.update(kw)
    return RunConfig(**base)


class TestConfigParsing:
    def test_round_trip_with_comments(self):
        cfg = parse_config(
            """
            # training run
            version = 1
            mode = update2   # bottleneck variant
            iterations = 3
            lr_phase1 = 0.01
            truncate_feedback = true
            """
        )
        assert cfg.mode == "update2"
        assert cfg.iterations == 3
        assert cfg.lr_phase1 == 0.01
        assert cfg.truncate_feedback is True

    def test_defaults(self):
        cfg = parse_config("version = 1")
        assert cfg.mode == "update1"
        assert cfg.total_epochs == 24
        assert cfg.seed_list() == [0, 1, 2]

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("version = 1\nlearning_rate = 0.1")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("version = 1\nseed = 1\nseed = 2")

    def test_missing_version(self):
        with pytest.raises(ConfigError, match="version"):
            parse_config("mode = shared")

    def test_wrong_version(self):
        with pytest.raises(ConfigError):
            parse_config("version = 2")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="boolean"):
            parse_config("version = 1\ntruncate_feedback = maybe")

    def test_bad_int(self):
        with pytest.raises(ConfigError):
            parse_config("version = 1\niterations = two")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("version = 1\nnonsense")

    def test_negative_lr_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("version = 1\nlr_phase1 = -0.1")

    @pytest.mark.parametrize("key", ["lr_phase1", "lr_phase2"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_lr_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite and non-negative"):
            parse_config(f"version = 1\n{key} = {value}")

    @pytest.mark.parametrize("key", ["weight_cls", "weight_det", "weight_part", "weight_bbox"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_loss_weight_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite and non-negative"):
            parse_config(f"version = 1\n{key} = {value}")

    @pytest.mark.parametrize("value", ["", " , ", "0,x", "1.5", "0,,two"])
    def test_bad_seeds_rejected(self, value):
        with pytest.raises(ConfigError, match="^seeds must be a comma-separated list of integers"):
            parse_config(f"version = 1\nseeds = {value}")

    @pytest.mark.parametrize("text, message", [
        ("seed = -1", "seed must be at least 0, got -1"),
        ("seeds = 0, -2, 1", "seeds lists negative seed -2: '0, -2, 1'"),
    ], ids=["seed", "seeds"])
    def test_negative_seed_rejected(self, text, message):
        # numpy's seed streams take non-negative seeds only.
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(f"version = 1\n{text}")

    def test_seeds_parse(self):
        assert parse_config("version = 1\nseeds = 3, 1,").seed_list() == [3, 1]

    @pytest.mark.parametrize("value, seed", [("0,0", 0), ("2, 1, 3, 1, 2", 1)])
    def test_repeated_seed_rejected(self, value, seed):
        # compare_modes keys its results by seed, so a repeat would train
        # twice and take medians over fewer seeds than the config lists.
        with pytest.raises(ConfigError,
                           match=f"^seeds lists seed {seed} more than once: {value!r}$"):
            parse_config(f"version = 1\nseeds = {value}")

    @pytest.mark.parametrize("mode", ["independent", "update3", ""])
    def test_unknown_mode_rejected_at_parse(self, mode):
        with pytest.raises(ConfigError, match=f"^mode must be one of shared, update1, update2, got {mode!r}$"):
            parse_config(f"version = 1\nmode = {mode}")

    @pytest.mark.parametrize("key, value, low", [
        ("iterations", -1, 0), ("proposals", 0, 1), ("channels", 0, 1), ("cls_hidden", 0, 1),
        ("region_hidden", 0, 1), ("spp_grid", 0, 1),
    ])
    def test_model_bound_names_the_key(self, key, value, low):
        # The network's bounds, declared once on TaskConfig's fields, under the
        # run config's names.
        with pytest.raises(ConfigError, match=f"^{key} must be at least {low}, got {value}$"):
            parse_config(f"version = 1\n{key} = {value}")

    @pytest.mark.parametrize("fields, message", [
        *WRONG_TYPED_RUN_CONFIG,
        # Config files check it as they parse; a checkpoint's run_config
        # reaches RunConfig directly.
        pytest.param({"version": 2}, "version must be one of 1, got 2", id="version"),
    ])
    def test_header_value_names_the_field(self, fields, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(**fields)

    def test_lr_schedule(self):
        cfg = small_config(epochs_phase1=2, epochs_phase2=3)
        assert [cfg.lr_for_epoch(e) for e in range(5)] == [1e-3, 1e-3, 1e-4, 1e-4, 1e-4]


class TestTraining:
    def test_zero_lr_leaves_parameters_unchanged(self):
        config = small_config(lr_phase1=0.0, epochs_phase1=1)
        cfg = build_task_config(config, SMALL_SPEC)
        before = {
            n: t.data.copy() for n, t, _ in Multinet(cfg, seed=0).params.items()
        }
        state = train(config, SMALL_SPEC, SMALL_SCENES)
        for name, tensor, _ in state.model.params.items():
            np.testing.assert_array_equal(tensor.data, before[name])

    def test_loss_decreases(self):
        # 3-seed median of the first-to-second epoch loss change.
        drops = []
        for seed in (0, 1, 2):
            state = train(small_config(seed=seed), SMALL_SPEC, SMALL_SCENES)
            drops.append(state.history[0] - state.history[-1])
        assert np.median(drops) > 0

    def test_history_length(self):
        state = train(small_config(), SMALL_SPEC, SMALL_SCENES)
        assert len(state.history) == 2

    def test_determinism(self):
        a = train(small_config(), SMALL_SPEC, SMALL_SCENES)
        b = train(small_config(), SMALL_SPEC, SMALL_SCENES)
        assert a.history == b.history
        for (n, ta, _), (_, tb, _) in zip(a.model.params.items(), b.model.params.items()):
            np.testing.assert_array_equal(ta.data, tb.data, err_msg=n)

    def test_part_task_auto_disabled(self):
        spec = dataclasses.replace(SMALL_SPEC, parts_per_class=0)
        scenes = generate_dataset(spec, 4)
        cfg = build_task_config(small_config(), spec)
        assert cfg.c_part == 0
        state = train(small_config(epochs_phase1=1), spec, scenes)
        metrics = evaluate_model(state.model, spec, scenes)
        assert metrics["part_ap"] is None

    def test_object_free_scenes_of_a_parts_spec_train_a_part_head(self):
        # The spec alone sets the heads: scenes that happen to hold no
        # object, and so no part, still build the spec's part head.
        scenes = object_free_scenes()
        assert scenes and not any(len(s.part_classes) for s in scenes)
        state = train(small_config(epochs_phase1=1), OPEN_SPEC, scenes)
        assert state.model.cfg.c_part == OPEN_SPEC.n_part_classes == 10
        assert list(state.model.cfg.region_classes) == ["det", "part"]

    def test_net_trained_with_parts_scores_object_free_scenes(self):
        # Object-free scenes of the spec a net was trained on are its
        # dataset too: evaluation and the sweep score them.
        with_objects = [s for s in generate_dataset(OPEN_SPEC, 8) if len(s.object_classes)]
        state = train(small_config(epochs_phase1=1), OPEN_SPEC, with_objects)
        assert state.model.cfg.c_part == 10
        scenes = object_free_scenes()
        metrics = evaluate_model(state.model, OPEN_SPEC, scenes)
        rows = recurrence_sweep(state, OPEN_SPEC, scenes, t_max=1)
        assert metrics["part_ap"] is not None
        assert [r["t"] for r in rows] == [0, 1]
        assert {k: rows[1][k] for k in tasks.SUMMARY_KEYS} == {
            k: metrics[k] for k in tasks.SUMMARY_KEYS}


class TestTrajectoryPin:
    """Exact loss histories of six tiny training runs, and the SHA-256 of one
    final checkpoint, so that tier-1 fails when training changes.

    Each run trains 8 scenes of criterion 9's canvas-32 spec for 3 epochs (2
    at lr 1e-3, 1 at 1e-4) with 2 recurrent iterations, channels 8, hidden
    16, `spp_grid` 2 and 16 proposals: `shared`, `update1` and `update2`,
    each with `truncate_feedback` off and on. It takes about 0.6 s.

    Training-semantics mutants, each a one-line source change; this test
    fails on all six. Before it, tier-1 caught the first four with the test
    named, and passed on the last two:
      - `lr_for_epoch` always returns `lr_phase1` (`test_lr_schedule`);
      - `sgd_step` ignores the lr multiplier (`TestSgd::test_bias_multiplier`);
      - feedback always detached (`TestSplitFc1Gradient::test_fd_over_all_iterations`);
      - gradients not zeroed between steps (criterion 9);
      - `scene_loss` supervises only the last output;
      - epochs are not shuffled.

    Scope: the values are bit-exact for one machine class, one BLAS build and
    one BLAS thread count. They were recorded on x86-64 with numpy 2.4.6 and
    scipy-openblas 0.3.31, and read the same at one and two threads there.
    Another CPU or BLAS may sum matrix products in another order and move the
    last bits. A change that moves training on purpose re-pins these values
    and says why in CHANGES.md.
    """

    HISTORIES = {
        ("shared", False): [7.684306085109711, 7.651153862476349, 7.6293394565582275],
        ("shared", True): [7.684306085109711, 7.651153862476349, 7.6293394565582275],
        ("update1", False): [22.968812704086304, 22.638390064239502, 22.418598175048828],
        ("update1", True): [22.96893548965454, 22.63805365562439, 22.417946338653564],
        ("update2", False): [23.090429306030273, 22.835932731628418, 22.670726776123047],
        ("update2", True): [23.09043312072754, 22.835944890975952, 22.670736074447632],
    }
    # `save_checkpoint` of the final ("update1", False) state.
    CKPT_SHA256 = "9e30f8cfdbe2e018341003467c10784f8d936710712beff89bde9e63f99709fa"

    def test_loss_histories_and_checkpoint(self, tmp_path):
        spec = SceneSpec(canvas=32, max_object_side=20, objects_max=2, seed=9)
        scenes = generate_dataset(spec, 8)
        histories, path = {}, tmp_path / "update1.ckpt"
        for mode, truncate in self.HISTORIES:
            config = RunConfig(mode=mode, epochs_phase1=2, epochs_phase2=1, proposals=16,
                               channels=8, cls_hidden=16, region_hidden=16, spp_grid=2,
                               truncate_feedback=truncate)
            state = train(config, spec, scenes)
            histories[mode, truncate] = state.history
            if (mode, truncate) == ("update1", False):
                save_checkpoint(state, path)
        assert histories == self.HISTORIES
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.CKPT_SHA256


# SMALL_SPEC with scenes of no object or one.
OPEN_SPEC = dataclasses.replace(SMALL_SPEC, objects_min=0, objects_max=1)


def object_free_scenes():
    """The scenes of OPEN_SPEC's first 8 that hold no object."""
    return [s for s in generate_dataset(OPEN_SPEC, 8) if not len(s.object_classes)]


@pytest.fixture(scope="module")
def small_ckpt(tmp_path_factory):
    """Checkpoint of `small_config()` trained for its 2 epochs."""
    path = tmp_path_factory.mktemp("small") / "small.ckpt"
    save_checkpoint(train(small_config(), SMALL_SPEC, SMALL_SCENES), path)
    return path


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        state = train(small_config(epochs_phase1=1), SMALL_SPEC, SMALL_SCENES)
        path = tmp_path / "c.ckpt"
        save_checkpoint(state, path)
        restored = restore_model(load_checkpoint(path))
        assert restored.epoch == state.epoch
        assert restored.history == state.history
        assert restored.config == state.config
        for (n, ta, ma), (_, tb, mb) in zip(
            state.model.params.items(), restored.model.params.items()
        ):
            np.testing.assert_array_equal(ta.data, tb.data, err_msg=n)
            assert ma == mb

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        config = small_config(epochs_phase1=2, epochs_phase2=2)
        full = train(config, SMALL_SPEC, SMALL_SCENES)

        # The first two epochs of `config`, stopped at the phase boundary.
        partial = train(small_config(epochs_phase1=2, epochs_phase2=0), SMALL_SPEC, SMALL_SCENES)
        path = tmp_path / "mid.ckpt"
        save_checkpoint(partial, path)
        resumed = train(
            config, SMALL_SPEC, SMALL_SCENES, resume=restore_model(load_checkpoint(path))
        )
        assert resumed.history == full.history
        for (n, ta, _), (_, tb, _) in zip(
            full.model.params.items(), resumed.model.params.items()
        ):
            np.testing.assert_array_equal(ta.data, tb.data, err_msg=n)

    @pytest.mark.parametrize("config_kw, spec_kw, message", [
        ({"mode": "update2"}, {}, "mode is 'update2' in the run config and dataset, 'update1'"),
        ({"iterations": 2}, {}, "t is 2 in the run config and dataset, 1 in the model"),
        ({}, {"n_classes": 3}, "c_cls is 3 in the run config and dataset, 5 in the model"),
        ({}, {"parts_per_class": 0}, "c_part is 0 in the run config and dataset, 10 in the model"),
        ({"epochs_phase1": 1}, {}, "epochs_phase1 + epochs_phase2 is 1 in the run config, "
                                   "below the checkpoint's epoch 2"),
    ], ids=["mode", "iterations", "classes", "no-parts", "epochs"])
    def test_resume_refuses_another_network(self, small_ckpt, config_kw, spec_kw, message):
        # The checkpoint holds the update1 net after 2 epochs; epoch counts,
        # rates and weights may change, the network may not.
        spec = dataclasses.replace(SMALL_SPEC, **spec_kw)
        scenes = generate_dataset(spec, 2)
        resume = restore_model(load_checkpoint(small_ckpt))
        with pytest.raises(TrainingError, match=re.escape(message)):
            train(small_config(**config_kw), spec, scenes, resume=resume)

    def test_resume_accepts_new_rates_and_weights(self, small_ckpt):
        config = small_config(epochs_phase2=1, lr_phase2=0.0, weight_part=0.5)
        state = train(config, SMALL_SPEC, SMALL_SCENES[:2],
                      resume=restore_model(load_checkpoint(small_ckpt)))
        assert state.epoch == 3

    def test_empty_training_set_rejected(self):
        with pytest.raises(TrainingError, match="scenes: the training set is empty"):
            train(small_config(), SMALL_SPEC, [])

    def test_scene_with_more_boxes_than_proposals_named(self):
        # Each ground-truth box needs a proposal of its own; train, eval and
        # the sweep name the first scene that has more boxes than proposals.
        boxes = [len(s.object_boxes) + len(s.part_boxes) for s in SMALL_SCENES]
        m = max(boxes) - 1
        first = next(i for i, n in enumerate(boxes) if n > m)
        want = f"^scene {first}: need at least {boxes[first]} proposals, got {m}$"
        config = small_config(proposals=m)
        with pytest.raises(TrainingError, match=want):
            train(config, SMALL_SPEC, SMALL_SCENES)
        state = TrainState(Multinet(build_task_config(config, SMALL_SPEC)),
                           config, 0, {})
        with pytest.raises(TrainingError, match=want):
            evaluate_model(state.model, SMALL_SPEC, SMALL_SCENES)
        with pytest.raises(TrainingError, match=want):
            recurrence_sweep(state, SMALL_SPEC, SMALL_SCENES, t_max=1)

    def test_corrupted_checkpoint_detected(self, tmp_path):
        state = train(small_config(epochs_phase1=1), SMALL_SPEC, SMALL_SCENES)
        path = tmp_path / "c.ckpt"
        save_checkpoint(state, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(TrainingError):
            load_checkpoint(path)

    def test_short_body_with_valid_digest_is_training_error(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(COMMITTED_CKPT.read_bytes())
        reseal(path, lambda body: body[:-8])
        with pytest.raises(TrainingError, match=r"checkpoint .*: truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(COMMITTED_CKPT.read_bytes())
        reseal(path, lambda body: body + bytes(8))
        with pytest.raises(TrainingError, match=r"checkpoint .*: trailing bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.pop("part.delta.bias"), "'part.delta.bias' is missing"),
        (lambda p: p.update({"det.fc3.weight": p["det.fc2.weight"]}),
         "'det.fc3.weight' is not in the model"),
        (lambda p: p.update({"cls.out.bias": (np.zeros(3), 2.0)}), "'cls.out.bias' has wrong shape"),
    ], ids=["missing", "extra", "wrong-shape"])
    def test_restore_refuses_another_record_set(self, small_ckpt, edit, message):
        ckpt = load_checkpoint(small_ckpt)
        edit(ckpt["params"])
        with pytest.raises(TrainingError, match=f"^checkpoint parameter {re.escape(message)}$"):
            restore_model(ckpt)

    @pytest.mark.parametrize("edit, message", [
        (lambda p: np.put(p["det.delta.weight"][0], 0, np.nan),
         "'det.delta.weight' has non-finite values"),
        (lambda p: np.put(p["backbone.conv1.filters"][0], 5, -np.inf),
         "'backbone.conv1.filters' has non-finite values"),
        (lambda p: p.update({"det.delta.weight": (p["det.delta.weight"][0], -3.0)}),
         "'det.delta.weight' has lr multiplier -3.0, the network's is 1.0"),
        (lambda p: p.update({"cls.out.bias": (p["cls.out.bias"][0], 1.0)}),
         "'cls.out.bias' has lr multiplier 1.0, the network's is 2.0"),
    ], ids=["nan-weight", "inf-filter", "negative-lr-mult", "bias-lr-mult"])
    def test_restore_refuses_a_record_it_would_not_train(self, small_ckpt, edit, message):
        # Before, each of these restored silently: the multiplier was dropped,
        # and a NaN surfaced only in the first forward, naming neither the
        # parameter nor the file.
        ckpt = load_checkpoint(small_ckpt)
        edit(ckpt["params"])
        with pytest.raises(TrainingError, match=f"^checkpoint parameter {re.escape(message)}$"):
            restore_model(ckpt)

    @pytest.mark.parametrize("edit, message", [
        # The backbone's three pooling stages fix the stride at 8.
        (lambda h: h["task_config"].update(stride=4),
         "stride is 4 in the checkpoint's task_config, 8 in the network its run_config builds"),
        (lambda h: h["run_config"].update(mode="update2", iterations=5),
         "t is 2 in the checkpoint's task_config, 5 in the network its run_config builds"),
        (lambda h: h["task_config"].pop("canvas"), "the checkpoint's task_config has no 'canvas'"),
        (lambda h: h["task_config"].update(colour=1),
         "colour is 1 in the checkpoint's task_config, None in the network its run_config builds"),
        (lambda h: h.pop("epoch"), "the checkpoint header has no 'epoch'"),
        (lambda h: h.pop("run_config"), "the checkpoint header has no 'run_config'"),
        (lambda h: h["run_config"].update(colour=1),
         "the checkpoint's run_config has an unknown key 'colour'"),
        (lambda h: h["run_config"].update(mode="x"), "the checkpoint's run_config: mode must be "
                                                     "one of shared, update1, update2, got 'x'"),
        (lambda h: h["run_config"].update(version=2),
         "the checkpoint's run_config: version must be one of 1, got 2"),
        (lambda h: h["task_config"].update(c_cls="5"),
         "the checkpoint's task_config: c_cls must be of type int, got '5'"),
        (lambda h: h.update(colour=1), "the checkpoint header has an unknown key 'colour'"),
        # `load_checkpoint` refuses these, naming the file.
        (lambda h: h.update(not_an_object=True),
         "checkpoint {path}: the header is not a JSON object"),
        (lambda h: h.update(params=[]),
         "checkpoint {path}: the header has a 'params' key, which the parameter records fill"),
    ], ids=["stride", "run-config", "no-canvas", "extra-field", "no-epoch", "no-run-config",
            "unknown-run-config-key", "bad-run-config-value", "version", "wrong-typed-task-config",
            "unknown-header-key", "not-an-object", "params-in-header"])
    def test_restore_refuses_a_header_its_run_config_does_not_build(self, tmp_path, edit, message):
        path = edited_checkpoint(tmp_path, edit)
        with pytest.raises(TrainingError, match=f"^{re.escape(message.format(path=path))}$"):
            restore_model(load_checkpoint(path))

    @pytest.mark.parametrize("optimizer", [{"momentum": 0.9}, [], None])
    def test_restore_refuses_optimizer_state(self, tmp_path, optimizer):
        # Plain SGD keeps no state; before, a momentum entry restored and was
        # ignored.
        path = edited_checkpoint(tmp_path, lambda h: h.update(optimizer=optimizer))
        want = f"the checkpoint header: optimizer must be {{}} for plain SGD, got {optimizer!r}"
        with pytest.raises(TrainingError, match=f"^{re.escape(want)}$"):
            restore_model(load_checkpoint(path))

    def test_parameter_name_not_utf8_is_training_error(self, tmp_path):
        path = non_utf8_name_checkpoint(tmp_path)
        want = f"checkpoint {path}: parameter record 0 has a name that is not valid UTF-8"
        with pytest.raises(TrainingError, match=f"^{re.escape(want)}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("fields, message", BAD_HEADER_VALUES)
    def test_restore_names_a_bad_header_value(self, tmp_path, fields, message):
        path = edited_checkpoint(tmp_path, lambda h: h.update(fields))
        want = f"the checkpoint header: {message}"
        with pytest.raises(TrainingError, match=f"^{re.escape(want)}$"):
            restore_model(load_checkpoint(path))

    @pytest.mark.parametrize("edit, message", INCOMPLETE_HEADERS)
    def test_restore_refuses_an_incomplete_header(self, tmp_path, edit, message):
        path = edited_checkpoint(tmp_path, edit)
        with pytest.raises(TrainingError, match=f"^{re.escape(message)}$"):
            restore_model(load_checkpoint(path))

    @pytest.mark.parametrize("fields, message", WRONG_TYPED_RUN_CONFIG)
    def test_restore_names_a_wrong_typed_run_config_value(self, tmp_path, fields, message):
        path = edited_checkpoint(tmp_path, lambda h: h["run_config"].update(fields))
        want = f"the checkpoint's run_config: {message}"
        with pytest.raises(TrainingError, match=f"^{re.escape(want)}$"):
            restore_model(load_checkpoint(path))

    def test_resave_reproduces_committed_bytes(self, tmp_path):
        # The committed checkpoint holds float64 parameters; they load
        # rounded to float32 and are written back as `<f8` again. The
        # re-save is the committed body with each parameter value replaced
        # by its float32 rounding, every other byte kept, and a second
        # load and save is byte-identical.
        r = container.Reader(COMMITTED_CKPT, harness.CKPT_MAGIC, harness.CKPT_VERSION,
                             TrainingError, "checkpoint")
        want = bytearray(r.data)
        r.blob()
        for _ in range(r.u32()):
            r.blob()
            r.unpack("<d")
            shape = r.unpack(f"<{r.u32()}I")
            start = r.pos
            rounded = r.f8(shape).astype(np.float32)
            want[start : r.pos] = container.f8(rounded)
        r.done()
        assert want != r.data
        path = tmp_path / "c.ckpt"
        save_checkpoint(restore_model(load_checkpoint(COMMITTED_CKPT)), path)
        assert path.read_bytes() == bytes(want) + hashlib.sha256(want).digest()
        again = tmp_path / "again.ckpt"
        save_checkpoint(restore_model(load_checkpoint(path)), again)
        assert again.read_bytes() == path.read_bytes()


def edited_checkpoint(tmp_path, edit):
    """A copy of the committed checkpoint, resealed after `edit` changed its
    header dict in place; an `edit` that sets the marker key `not_an_object`
    makes the header a one-element list."""
    path = tmp_path / "c.ckpt"
    path.write_bytes(COMMITTED_CKPT.read_bytes())

    def rewrite(body):
        start = len(harness.CKPT_MAGIC) + 4
        end = start + 4 + struct.unpack_from("<I", body, start)[0]
        header = json.loads(body[start + 4 : end])
        edit(header)
        if header.pop("not_an_object", False):
            header = [header]
        return body[:start] + container.blob(json.dumps(header).encode()) + body[end:]

    reseal(path, rewrite)
    return path


def non_utf8_name_checkpoint(tmp_path):
    """A copy of the committed checkpoint, resealed with the first byte of
    its first parameter record's name set to 0xff."""
    path = tmp_path / "c.ckpt"
    path.write_bytes(COMMITTED_CKPT.read_bytes())

    def spoil_first_name(body):
        start = len(harness.CKPT_MAGIC) + 4
        header_end = start + 4 + struct.unpack_from("<I", body, start)[0]
        return patched(body, header_end + 4 + 4, "<B", 0xFF)  # record count, name length

    reseal(path, spoil_first_name)
    return path


def overflowing_checkpoint(path):
    """The committed checkpoint saved again with `backbone.conv2.filters`
    scaled by 1e37: every parameter is finite in float32, and the region
    deltas of the held-out scenes overflow when decoded."""
    ckpt = load_checkpoint(COMMITTED_CKPT)
    data, mult = ckpt["params"]["backbone.conv2.filters"]
    ckpt["params"]["backbone.conv2.filters"] = (data * 1e37, mult)
    save_checkpoint(restore_model(ckpt), path)
    return path


def held_out_scenes():
    """(spec, scenes): 8 scenes of the committed checkpoint's spec that it
    was not trained on."""
    spec = SceneSpec(seed=100)
    return spec, generate_dataset(spec, 8, offset=10_000)


class TestFixtureEvalPin:
    """`evaluate_model` and `recurrence_sweep(t_max=4)` of the committed
    update1 checkpoint on 8 held-out scenes, equal to the figures recorded
    before each region fc1 was split at its image/task boundary: a change to
    the forward or to scoring that moves a trained model's metrics fails
    here."""

    METRICS = {
        "cls_map": 1.0,
        "cls_ap_per_class": [1.0, 1.0, 1.0, 1.0, 1.0],
        "det_ap": 0.9904761904761905,
        "det_ap_per_class": [1.0, 1.0, 1.0, 1.0, 0.9523809523809523],
        "part_ap": 0.9910714285714286,
        "part_ap_per_class": [1.0, 1.0, 0.9583333333333334, 1.0, 1.0, 1.0, 1.0, 1.0,
                              0.9523809523809523, 1.0],
    }

    @pytest.fixture(scope="class")
    def setup(self):
        return restore_model(load_checkpoint(COMMITTED_CKPT)), *held_out_scenes()

    def test_evaluate_model(self, setup):
        state, spec, scenes = setup
        assert evaluate_model(state.model, spec, scenes) == self.METRICS

    def test_recurrence_sweep(self, setup):
        state, spec, scenes = setup
        row = {k: self.METRICS[k] for k in ("cls_map", "det_ap", "part_ap")}
        assert recurrence_sweep(state, spec, scenes, t_max=4) == [
            {"t": t, **row} for t in range(5)]


def _copy_two_task_weights(src: Multinet, dst: Multinet):
    """Copy a part-free network's weights into the corresponding channel
    positions of a three-task network, zeroing the part-channel rows."""
    dc_src = src.cfg.decoder_channels
    g2 = dst.cfg.spp_grid ** 2
    hid = dst.cfg.region_hidden
    source = {name: data for name, data, _ in src.records()}
    arrays = {}
    for name, data, _ in dst.records():
        if name.startswith("part."):
            arrays[name] = data.copy()
        elif name == "cls.fc1.weight":
            arrays[name] = np.zeros_like(data)
            arrays[name][:dc_src] = source[name]
        elif name in ("det.fc1.weight",):
            w = np.zeros((g2, dst.cfg.decoder_channels, hid), dtype=data.dtype)
            w[:, :dc_src] = source[name].reshape(g2, dc_src, hid)
            arrays[name] = w.reshape(data.shape)
        else:
            arrays[name] = source[name]
    dst.load_records(arrays)


class TestNonFiniteBoxes:
    def test_evaluate_names_the_scene(self, tmp_path):
        # Before, `evaluate_model` returned metrics after only a RuntimeWarning
        # from the overflowing exp, the infinite boxes clipped to the canvas.
        state = restore_model(load_checkpoint(overflowing_checkpoint(tmp_path / "c.ckpt")))
        spec, scenes = held_out_scenes()
        want = "^scene 0: det deltas decode to non-finite boxes$"
        with pytest.raises(TensorError, match=want):
            evaluate_model(state.model, spec, scenes)
        with pytest.raises(TensorError, match=want):
            recurrence_sweep(state, spec, scenes, t_max=2)


class TestTwoTaskGradientMatch:
    def test_zero_part_weight_matches_two_task_gradients(self):
        # Shared mode: zeroing the part loss weight must reproduce the
        # two-task configuration's gradients for the remaining tasks once
        # the shared weights occupy the same channel positions.
        cfg3 = TaskConfig(c_cls=5, c_part=10, m=16, t=0, mode="shared", canvas=32,
                          channels=8, cls_hidden=16, region_hidden=16, spp_grid=3)
        cfg2 = dataclasses.replace(cfg3, c_part=0)
        net3 = Multinet(cfg3, seed=0)
        net2 = Multinet(cfg2, seed=1)  # different init; weights get copied over
        _copy_two_task_weights(net2, net3)

        config3 = small_config(mode="shared", weight_part=0.0)
        config2 = small_config(mode="shared")
        batch3 = prepare_scene(SMALL_SCENES[0], SMALL_SPEC, cfg3, 0)
        batch2 = prepare_scene(SMALL_SCENES[0], SMALL_SPEC, cfg2, 0)

        def grads(net, batch, config):
            net.params.zero_grads()
            with Tape() as tape:
                loss = scene_loss(net, batch, config)
                backward(loss, tape)
            return float(loss.data), record_grads(net)

        loss3, g3 = grads(net3, batch3, config3)
        loss2, g2 = grads(net2, batch2, config2)
        assert abs(loss3 - loss2) < 1e-12
        dc2 = cfg2.decoder_channels
        gsq = cfg3.spp_grid ** 2
        for name, g in g2.items():
            if name == "cls.fc1.weight":
                got = g3[name][:dc2]
            elif name == "det.fc1.weight":
                got = g3[name].reshape(gsq, cfg3.decoder_channels, -1)[:, :dc2].reshape(g.shape)
            else:
                got = g3[name]
            np.testing.assert_allclose(got, g, atol=1e-12, err_msg=name)


class TestGatheredFc1Step:
    """A training step equals one in the earlier layout, where each region
    fc1 of the stacking modes was one parameter, the stacked checkpoint
    record, and every forward gathered its image and task rows with
    `take_rows`: the same loss bytes, block gradients equal to the stacked
    gradient's rows, and the same weight bytes after the SGD step."""

    @pytest.mark.parametrize("mode", ["update1", "shared"])
    def test_step_bit_identical(self, monkeypatch, mode):
        config = small_config(mode=mode, iterations=2)
        cfg = build_task_config(config, SMALL_SPEC)
        batch = prepare_scene(SMALL_SCENES[0], SMALL_SPEC, cfg, 0)

        def step(net, params):
            with Tape() as tape:
                loss = scene_loss(net, batch, config)
                backward(loss, tape)
            sgd_step(params, config.lr_phase1)
            return loss.data.tobytes()

        net = Multinet(cfg, seed=0)
        loss = step(net, net.params)

        # The earlier layout: each stacked fc1 record is a parameter, and
        # the blocks' products read its rows, gathered once per forward.
        old = Multinet(cfg, seed=0)
        stacked = ParamGroup()
        region_fc1 = {f"{task}.fc1.weight" for task in old.region_heads}
        for name, data, mult in old.records():
            stacked.add(name, Tensor(data.copy()) if name in region_fc1 else old.params[name], mult)
        rows = fc1_rows(cfg)
        owner = {}
        for task, hd in old.region_heads.items():
            owner[hd["fc1"].weight] = (stacked[f"{task}.fc1.weight"], "image")
            owner[hd["fc1_task"]] = (stacked[f"{task}.fc1.weight"], "task")
        gathered = {}
        full = nnops.fully_connected

        def gather(block):
            if block not in gathered:
                weight, kind = owner[block]
                gathered[block] = take_rows(weight, rows[kind])
            return gathered[block]

        def fully_connected(x, layer):
            if layer.weight in owner:
                return add_rowvec(matmul(x, gather(layer.weight)), layer.bias)
            return full(x, layer)

        monkeypatch.setattr(nnops, "fully_connected", fully_connected)
        monkeypatch.setattr(model, "matmul", lambda a, b: matmul(a, gather(b)))
        assert step(old, stacked) == loss
        assert len(gathered) == (4 if mode == "update1" else 2)

        for task, hd in net.region_heads.items():
            g = stacked[f"{task}.fc1.weight"].grad
            assert hd["fc1"].weight.grad.tobytes() == g[rows["image"]].tobytes()
            assert hd["fc1_task"].grad.tobytes() == g[rows["task"]].tobytes()
            assert hd["fc1_task"].grad.any() == (mode == "update1")
        for (name, g), (old_name, t, _) in zip(record_grads(net).items(), stacked.items()):
            assert name == old_name and g.tobytes() == t.grad.tobytes(), name
        for (name, data, _), (_, t, _) in zip(net.records(), stacked.items()):
            assert data.tobytes() == t.data.tobytes(), name


class TestRegionTargets:
    def test_delta_matrix_matches_per_region_loop(self):
        cfg = build_task_config(small_config(), SMALL_SPEC)
        for i, scene in enumerate(SMALL_SCENES):
            batch = prepare_scene(scene, SMALL_SPEC, cfg, i)
            for task, k in cfg.region_classes.items():
                classes, gt = tasks.REGION_TASKS[task].ground_truth(scene)
                targets = batch.regions[task]
                want, want_mask = np.zeros((2, cfg.m, 4 * (k + 1)))
                for m, lab in enumerate(targets.labels):
                    if lab >= 1:
                        p = batch.proposals[m]
                        g = tasks.iou_matrix(p, gt)[0].argmax()
                        assert classes[g] == lab
                        want[m, 4 * lab : 4 * lab + 4] = tasks.bbox_encode(p, gt[g])
                        want_mask[m, 4 * lab : 4 * lab + 4] = 1.0
                assert targets.deltas.tobytes() == want.tobytes()
                assert targets.mask.tobytes() == want_mask.tobytes()
                again = tasks.assign_regions(batch.proposals, classes, gt, k)
                np.testing.assert_array_equal(targets.labels, again.labels)
                assert (targets.labels >= 1).any()


class TestIndependentNets:
    def test_each_net_trains_only_its_task(self, monkeypatch):
        # The independent baseline trains one `shared` network per task,
        # with every other task's loss weight at 0.
        configs = {}

        def fake_train(config, spec, scenes, log=None):
            task = next(t for t in ("cls", "det", "part") if getattr(config, f"weight_{t}") > 0)
            configs[task] = config
            return TrainState(None, config, 0, {})

        monkeypatch.setattr(harness, "train", fake_train)
        harness._train_independent(small_config(), SMALL_SPEC, SMALL_SCENES)
        assert set(configs) == {"cls", "det", "part"}
        for task, config in configs.items():
            assert config.mode == "shared"
            weights = {t: getattr(config, f"weight_{t}") for t in configs}
            assert weights == {t: float(t == task) for t in configs}

    @pytest.mark.parametrize("task", ["cls", "det", "part"])
    def test_zero_weight_heads_keep_their_init_parameters(self, task):
        # Every forward decodes every head; a zero loss weight alone keeps
        # a head out of the loss and its parameters at their init bytes.
        others = [t for t in ("cls", "det", "part") if t != task]
        config = small_config(mode="shared", **{f"weight_{t}": 0.0 for t in others})
        cfg = build_task_config(config, SMALL_SPEC)
        init = {name: t.data.copy() for name, t, _ in Multinet(cfg, seed=0).params.items()}
        state = train(config, SMALL_SPEC, SMALL_SCENES)
        moved = {name.split(".")[0] for name, t, _ in state.model.params.items()
                 if t.data.tobytes() != init[name].tobytes()}
        assert moved == {"backbone", task}

        batch = prepare_scene(SMALL_SCENES[0], SMALL_SPEC, cfg, 0)
        loss = scene_loss(state.model, batch, config)
        (out,) = state.model.forward(batch.scene.image, batch.proposals)
        assert set(out.regions) == {"det", "part"}
        if task == "cls":
            want = tasks.bce_multilabel(out.x_cls, batch.scene.img_label).item()
        else:
            scores, deltas = out.regions[task]
            target = batch.regions[task]
            keep = np.nonzero(target.labels >= 0)[0]
            want = (tasks.softmax_ce(take_rows(scores, keep), target.labels[keep])
                    + tasks.smooth_l1(deltas, target.deltas, target.mask)).item()
        assert loss.item() == want

    def test_part_only_loss_has_no_det_term(self):
        config = small_config(mode="shared", weight_cls=0.0, weight_det=0.0)
        cfg = build_task_config(config, SMALL_SPEC)
        net = as_float64(Multinet(cfg, seed=0))
        batch = prepare_scene(SMALL_SCENES[0], SMALL_SPEC, cfg, 0)
        loss = scene_loss(net, batch, config)
        (out,) = net.forward(batch.scene.image, batch.proposals)
        scores, deltas = out.regions["part"]
        target = batch.regions["part"]
        keep = np.nonzero(target.labels >= 0)[0]
        part_only = (tasks.softmax_ce(take_rows(scores, keep), target.labels[keep]).item()
                     + tasks.smooth_l1(deltas, target.deltas, target.mask).item())
        assert loss.item() == pytest.approx(part_only, rel=1e-12)

    def test_zero_task_weight_disables_its_box_loss(self):
        # weight_bbox scales box regression but never trains a task whose
        # own weight is zero.
        config = small_config(mode="shared", weight_cls=0.0, weight_part=0.0, weight_det=0.0)
        cfg = build_task_config(config, SMALL_SPEC)
        batch = prepare_scene(SMALL_SCENES[0], SMALL_SPEC, cfg, 0)
        assert all(target.mask.any() for target in batch.regions.values())
        loss = scene_loss(Multinet(cfg, seed=0), batch, config)
        assert loss.item() == 0.0


class TestExperiments:
    def _trained(self, **kw):
        return train(small_config(**kw), SMALL_SPEC, SMALL_SCENES)

    def test_sweep_t0_equals_shared_eval_on_same_parameters(self):
        state = self._trained(epochs_phase1=1)
        rows = recurrence_sweep(state, SMALL_SPEC, SMALL_SCENES, t_max=1)
        shared = Multinet(
            dataclasses.replace(state.model.cfg, mode="shared"), seed=state.config.seed
        )
        for name, tensor, _ in shared.params.items():
            tensor.data[:] = state.model.params[name].data
        m = evaluate_model(shared, SMALL_SPEC, SMALL_SCENES)
        assert rows[0]["cls_map"] == m["cls_map"]
        assert rows[0]["det_ap"] == m["det_ap"]
        assert rows[0]["part_ap"] == m["part_ap"]

    def test_sweep_is_deterministic(self):
        state = self._trained(epochs_phase1=1)
        a = recurrence_sweep(state, SMALL_SPEC, SMALL_SCENES, t_max=2)
        b = recurrence_sweep(state, SMALL_SPEC, SMALL_SCENES, t_max=2)
        assert a == b

    @pytest.mark.parametrize("mode", ["update1", "update2", "shared"])
    def test_sweep_runs_one_forward_per_scene_and_matches_eval(self, mode, monkeypatch):
        state = self._trained(mode=mode, iterations=2, epochs_phase1=1)
        net = state.model

        def scored_at(t):
            # the last output of a forward to t, scored scene by scene
            records = []
            for i, scene in enumerate(SMALL_SCENES):
                props = propose_regions(scene, SMALL_SPEC, net.cfg.m, seed=i)
                out = net.forward(scene.image, props, n_iters=t)[-1]
                regions = {task: (s.data, d.data) for task, (s, d) in out.regions.items()}
                records.append(
                    tasks.score_scene(out.x_cls.data, regions, props, scene, net.cfg.canvas))
            return tasks.evaluate(records, net.cfg.c_cls)

        by_t = [scored_at(t) for t in range(4)]
        calls = []
        forward = Multinet.forward

        def counted(self, *args, **kwargs):
            calls.append(kwargs.get("n_iters"))
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(Multinet, "forward", counted)
        n = len(SMALL_SCENES)
        rows = recurrence_sweep(state, SMALL_SPEC, SMALL_SCENES, t_max=3)
        assert calls == [3] * n
        assert rows == [{"t": t, **{k: m[k] for k in tasks.SUMMARY_KEYS}}
                        for t, m in enumerate(by_t)]
        calls.clear()
        assert evaluate_model(net, SMALL_SPEC, SMALL_SCENES) == by_t[2]
        assert calls == [2] * n
        if mode != "shared":
            assert rows[1] != rows[0]  # the rows do read different iterations
            calls.clear()
            res = harness.ground_experiment(state, SMALL_SPEC, SMALL_SCENES)
            assert calls == [1] * (2 * n)
            assert res["ungrounded"] == by_t[1]

    def test_ground_experiment_shapes(self):
        state = self._trained(epochs_phase1=1)
        res = harness.ground_experiment(state, SMALL_SPEC, SMALL_SCENES)
        assert set(res) == {"ungrounded", "grounded", "deltas"}
        assert "cls_map" in res["deltas"]

    def test_ground_rejects_shared_checkpoint(self):
        state = train(small_config(mode="shared", epochs_phase1=1), SMALL_SPEC, SMALL_SCENES)
        with pytest.raises(TrainingError):
            harness.ground_experiment(state, SMALL_SPEC, SMALL_SCENES)

    @pytest.mark.parametrize("spec_kw, field", [
        ({"n_classes": 3}, "c_cls"), ({"parts_per_class": 0}, "c_part"), ({"canvas": 64}, "canvas"),
    ], ids=["classes", "no-parts", "canvas"])
    def test_scoring_refuses_a_dataset_of_another_spec(self, small_ckpt, spec_kw, field):
        state = restore_model(load_checkpoint(small_ckpt))
        spec = dataclasses.replace(SMALL_SPEC, **spec_kw)
        scenes = generate_dataset(spec, 2)
        for run in (lambda: evaluate_model(state.model, spec, scenes),
                    lambda: recurrence_sweep(state, spec, scenes, t_max=1),
                    lambda: harness.ground_experiment(state, spec, scenes)):
            with pytest.raises(TrainingError, match=f"^{field} is .* in the dataset, "):
                run()

    def test_metrics_csv_deterministic(self, tmp_path):
        paths = []
        for i in range(2):
            state = self._trained(epochs_phase1=1)
            metrics = evaluate_model(state.model, SMALL_SPEC, SMALL_SCENES)
            rows = metrics_to_rows("run", state.config.mode, 1, 0, metrics)
            p = tmp_path / f"m{i}.csv"
            write_csv(p, tasks.METRIC_CSV_COLUMNS, rows)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


DATASET_CFG = """
version = 1
scenes = 6
canvas = 32
max_object_side = 20
objects_min = 1
objects_max = 2
seed = 5
"""

RUN_CFG = """
version = 1
mode = update1
iterations = 1
epochs_phase1 = 1
epochs_phase2 = 0
proposals = 16
channels = 8
cls_hidden = 16
region_hidden = 16
spp_grid = 3
"""


class TestDatasetConfig:
    def test_defaults_and_rename(self):
        spec, n = cli.parse_dataset_config("version = 1\nclasses = 3  # fewer classes\n")
        assert n == 500
        assert spec == SceneSpec(n_classes=3)

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 3: unknown key 'n_classes'"):
            cli.parse_dataset_config("version = 1\n\nn_classes = 3")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="line 3: duplicate key 'seed'"):
            cli.parse_dataset_config("version = 1\nseed = 1\nseed = 2")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="line 2: bad value for 'noise_std'"):
            cli.parse_dataset_config("version = 1\nnoise_std = loud")

    def test_missing_version(self):
        with pytest.raises(ConfigError, match="version"):
            cli.parse_dataset_config("scenes = 4")

    def test_spec_that_generation_rejects_is_rejected(self):
        # Before `generate` makes any scene.
        with pytest.raises(ConfigError, match="^parts_per_class must be one of 0, 2, got 1$"):
            cli.parse_dataset_config("version = 1\nparts_per_class = 1")

    @pytest.mark.parametrize("n", [0, -3])
    def test_scene_count_below_one_rejected(self, n):
        with pytest.raises(ConfigError, match=f"scenes must be at least 1, got {n}"):
            cli.parse_dataset_config(f"version = 1\nscenes = {n}")


class TestCli:
    @pytest.fixture
    def workdir(self, tmp_path):
        (tmp_path / "data.cfg").write_text(DATASET_CFG)
        (tmp_path / "run.cfg").write_text(RUN_CFG)
        return tmp_path

    def test_generate_train_eval_sweep(self, workdir, capsys):
        ds = workdir / "train.bin"
        assert cli.main(["generate", "--config", str(workdir / "data.cfg"), "--out", str(ds)]) == 0
        ckpt = workdir / "model.ckpt"
        curve = workdir / "loss.csv"
        assert cli.main([
            "train", "--config", str(workdir / "run.cfg"), "--dataset", str(ds),
            "--out", str(ckpt), "--loss-curve", str(curve),
        ]) == 0
        assert ckpt.exists()
        assert curve.read_text().startswith("epoch,mean_loss")
        out_csv = workdir / "metrics.csv"
        assert cli.main([
            "eval", "--checkpoint", str(ckpt), "--dataset", str(ds), "--out", str(out_csv),
        ]) == 0
        header = out_csv.read_text().splitlines()[0]
        assert header == "run_id,mode,T,seed,metric_name,class,value"
        sweep_csv = workdir / "sweep.csv"
        assert cli.main([
            "sweep", "--checkpoint", str(ckpt), "--dataset", str(ds),
            "--t-max", "2", "--out", str(sweep_csv),
        ]) == 0
        assert len(sweep_csv.read_text().splitlines()) == 4
        capsys.readouterr()

    def test_missing_dataset_fails_with_json_error(self, workdir, capsys):
        code = cli.main([
            "train", "--config", str(workdir / "run.cfg"),
            "--dataset", str(workdir / "missing.bin"), "--out", str(workdir / "x.ckpt"),
        ])
        assert code == 1
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)
        assert "error" in payload and "kind" in payload

    def test_corrupt_checkpoint_reports_training_error(self, workdir, capsys):
        ckpt = workdir / "bad.ckpt"
        ckpt.write_bytes(COMMITTED_CKPT.read_bytes())
        reseal(ckpt, lambda body: body[:-8])
        code = cli.main([
            "eval", "--checkpoint", str(ckpt), "--dataset", str(workdir / "missing.bin"),
            "--out", str(workdir / "m.csv"),
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["kind"] == "TrainingError"
        assert "checkpoint" in payload["error"]

    def test_out_of_range_class_reports_dataset_error(self, workdir, capsys):
        ds = workdir / "train.bin"
        cli.main(["generate", "--config", str(workdir / "data.cfg"), "--out", str(ds)])
        reseal(ds, lambda body: patched(body, record_offsets(body)[0], "<I", 9))
        train = ["train", "--config", str(workdir / "run.cfg"), "--out", str(workdir / "x.ckpt")]
        evaluate = ["eval", "--checkpoint", str(COMMITTED_CKPT), "--out", str(workdir / "m.csv")]
        for command in (train, evaluate):
            capsys.readouterr()
            assert cli.main(command + ["--dataset", str(ds)]) == 1
            payload = json.loads(capsys.readouterr().err.strip())
            assert payload["kind"] == "DatasetError"
            assert payload["error"].startswith(f"dataset {ds}: scene 0: object 0 has class 9")

    def test_bad_image_label_reports_dataset_error(self, workdir, capsys):
        ds = workdir / "val.bin"
        cli.main(["generate", "--config", str(workdir / "data.cfg"), "--out", str(ds)])
        reseal(ds, lambda body: patched(body, label_offset(body) + 4, "<5B", 0, 0, 0, 0, 0))
        capsys.readouterr()
        code = cli.main(["eval", "--checkpoint", str(COMMITTED_CKPT), "--dataset", str(ds),
                         "--out", str(workdir / "m.csv")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["kind"] == "DatasetError"
        assert payload["error"].startswith(f"dataset {ds}: scene 0: image label [0, 0, 0, 0, 0]")

    def test_bad_config_fails(self, workdir, capsys):
        (workdir / "bad.cfg").write_text("version = 1\nbogus = 3\n")
        code = cli.main([
            "train", "--config", str(workdir / "bad.cfg"),
            "--dataset", str(workdir / "missing.bin"), "--out", str(workdir / "x.ckpt"),
        ])
        assert code == 1
        assert "unknown key" in capsys.readouterr().err

    def test_negative_sweep_depth_reports_error(self, workdir, capsys):
        ds, ckpt, out = workdir / "d.bin", workdir / "m.ckpt", workdir / "sweep.csv"
        cli.main(["generate", "--config", str(workdir / "data.cfg"), "--out", str(ds)])
        cli.main(["train", "--config", str(workdir / "run.cfg"), "--dataset", str(ds),
                  "--out", str(ckpt)])
        capsys.readouterr()
        code = cli.main(["sweep", "--checkpoint", str(ckpt), "--dataset", str(ds),
                         "--t-max", "-1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "iteration count must be non-negative, got -1" in json.loads(err[0])["error"]
        assert not out.exists()

    def test_compare_writes_table_and_rows(self, workdir, capsys):
        (workdir / "data.cfg").write_text(DATASET_CFG.replace("scenes = 6", "scenes = 8"))
        (workdir / "run.cfg").write_text(RUN_CFG + "seeds = 0\n")
        train_ds, val_ds = workdir / "train.bin", workdir / "val.bin"
        cli.main(["generate", "--config", str(workdir / "data.cfg"), "--out", str(train_ds)])
        cli.main(["generate", "--config", str(workdir / "data.cfg"), "--seed", "6",
                  "--out", str(val_ds)])
        table, out = workdir / "compare.md", workdir / "compare.csv"
        assert cli.main([
            "compare", "--config", str(workdir / "run.cfg"), "--dataset", str(train_ds),
            "--val-dataset", str(val_ds), "--out", str(out), "--table", str(table),
        ]) == 0
        capsys.readouterr()
        lines = table.read_text().splitlines()
        assert lines[0] == "| Method | cls mAP | det AP@0.5 | part AP@0.4 |"
        assert lines[1] == "|---|---|---|---|"
        names = ["Independent", "Multi-task", "Ours (stack)", "Ours (with bottleneck)"]
        assert [line.split(" | ")[0] for line in lines[2:]] == ["| " + n for n in names]
        rows = out.read_text().splitlines()
        assert rows[0].split(",") == tasks.METRIC_CSV_COLUMNS
        modes = [row.split(",")[1] for row in rows[1:]]
        assert list(dict.fromkeys(modes)) == ["independent", "shared", "update1", "update2"]

    def test_compare_rows_equal_eval_of_each_mode(self, workdir, capsys):
        # The validation set has its own spec (seed 6), and with it its own
        # proposal stream: each compare row must score what `eval` scores.
        (workdir / "data.cfg").write_text(DATASET_CFG.replace("scenes = 6", "scenes = 8"))
        (workdir / "run.cfg").write_text(RUN_CFG + "seeds = 0\n")
        train_ds, val_ds = workdir / "train.bin", workdir / "val.bin"
        cli.main(["generate", "--config", str(workdir / "data.cfg"), "--out", str(train_ds)])
        cli.main(["generate", "--config", str(workdir / "data.cfg"), "--seed", "6",
                  "--out", str(val_ds)])
        out = workdir / "compare.csv"
        assert cli.main(["compare", "--config", str(workdir / "run.cfg"), "--dataset",
                         str(train_ds), "--val-dataset", str(val_ds), "--out", str(out)]) == 0
        compared = [row.split(",") for row in out.read_text().splitlines()[1:]]
        for mode in ("shared", "update1", "update2"):
            ckpt, csv_path = workdir / f"{mode}.ckpt", workdir / f"{mode}.csv"
            assert cli.main(["train", "--config", str(workdir / "run.cfg"), "--dataset",
                             str(train_ds), "--mode", mode, "--seed", "0",
                             "--out", str(ckpt)]) == 0
            assert cli.main(["eval", "--checkpoint", str(ckpt), "--dataset", str(val_ds),
                             "--out", str(csv_path)]) == 0
            evaluated = [row.split(",")[4:] for row in csv_path.read_text().splitlines()[1:]]
            assert [row[4:] for row in compared if row[1] == mode] == evaluated, mode
        capsys.readouterr()

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--mode", "shared"]],
                             ids=["seed", "mode"])
    def test_compare_rejects_train_overrides(self, workdir, capsys, flag):
        # compare runs every mode at every seed in `seeds`; these flags
        # would be ignored, so they are refused.
        code = cli.main(["compare", "--config", str(workdir / "run.cfg"), "--dataset", "d.bin",
                         "--val-dataset", "v.bin", "--out", str(workdir / "c.csv"), *flag])
        assert code == 1
        assert self._error(capsys) == {
            "error": f"multinet: unrecognized arguments: {' '.join(flag)}", "kind": "UsageError"}
        assert not (workdir / "c.csv").exists()

    @pytest.mark.parametrize("argv, error", [
        (["eval", "--checkpoint", "m.ckpt"],
         "multinet eval: the following arguments are required: --dataset, --out"),
        (["sweep", "--checkpoint", "m.ckpt", "--dataset", "d.bin", "--t-max", "two",
          "--out", "s.csv"],
         "multinet sweep: argument --t-max: invalid int value: 'two'"),
        ([], "multinet: the following arguments are required: command"),
    ], ids=["missing-flag", "non-integer", "no-command"])
    def test_usage_error_is_one_json_line(self, capsys, argv, error):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": error, "kind": "UsageError"}

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["sweep", "-h"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: multinet sweep [-h]")

    @pytest.mark.parametrize("line, error", [
        ("epochs_phase1 = 0", "epochs_phase1 must be at least 1, got 0"),
        ("epochs_phase2 = -1", "epochs_phase2 must be at least 0, got -1"),
    ], ids=["epochs_phase1", "epochs_phase2"])
    def test_bad_epoch_count_names_field(self, workdir, capsys, line, error):
        field = line.split(" = ")[0]
        run_cfg = re.sub(rf"^{field} = .*$", line, RUN_CFG, flags=re.M)
        (workdir / "run.cfg").write_text(run_cfg)
        code = cli.main(["train", "--config", str(workdir / "run.cfg"),
                         "--dataset", str(workdir / "d.bin"), "--out", str(workdir / "m.ckpt")])
        assert code == 1
        assert self._error(capsys) == {"error": error, "kind": "ConfigError"}
        assert not (workdir / "m.ckpt").exists()

    def test_compare_without_seeds_fails_before_training(self, workdir, capsys):
        (workdir / "run.cfg").write_text(RUN_CFG + "seeds =\n")
        out = workdir / "compare.csv"
        code = cli.main([
            "compare", "--config", str(workdir / "run.cfg"), "--dataset", str(workdir / "d.bin"),
            "--val-dataset", str(workdir / "v.bin"), "--out", str(out),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["kind"] == "ConfigError"
        assert payload["error"].startswith("seeds must be")
        assert not out.exists()

    def test_train_independent_mode_fails_before_reading_dataset(self, workdir, capsys):
        # The dataset does not exist: the mode is refused first.
        code = cli.main([
            "train", "--config", str(workdir / "run.cfg"), "--dataset", str(workdir / "d.bin"),
            "--mode", "independent", "--out", str(workdir / "m.ckpt"),
        ])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload == {
            "error": "mode must be one of shared, update1, update2, got 'independent'",
            "kind": "ConfigError",
        }
        assert not (workdir / "m.ckpt").exists()

    def _error(self, capsys) -> dict:
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        return json.loads(err[0])

    def _trained(self, workdir, capsys):
        ds, ckpt = workdir / "d.bin", workdir / "m.ckpt"
        cli.main(["generate", "--config", str(workdir / "data.cfg"), "--out", str(ds)])
        cli.main(["train", "--config", str(workdir / "run.cfg"), "--dataset", str(ds),
                  "--out", str(ckpt)])
        capsys.readouterr()
        return ds, ckpt

    @pytest.mark.parametrize("dataset_cfg, field", [
        (DATASET_CFG + "classes = 3\n", "c_cls"),
        (DATASET_CFG + "parts_per_class = 0\n", "c_part"),
        (DATASET_CFG.replace("canvas = 32", "canvas = 64"), "canvas"),
    ], ids=["classes", "no-parts", "canvas"])
    def test_scoring_a_dataset_of_another_spec_fails(self, workdir, capsys, dataset_cfg, field):
        _, ckpt = self._trained(workdir, capsys)
        (workdir / "other.cfg").write_text(dataset_cfg)
        other = workdir / "other.bin"
        cli.main(["generate", "--config", str(workdir / "other.cfg"), "--out", str(other)])
        capsys.readouterr()
        out = workdir / "m.csv"
        for command in (["eval"], ["ground"], ["sweep", "--t-max", "1"]):
            code = cli.main(command + ["--checkpoint", str(ckpt), "--dataset", str(other),
                                       "--out", str(out)])
            assert code == 1
            payload = self._error(capsys)
            assert payload["kind"] == "TrainingError"
            assert payload["error"].startswith(f"{field} is ")
            assert not out.exists()

    def test_compare_with_another_val_spec_fails_before_training(self, workdir, capsys):
        train_ds, val_ds = workdir / "train.bin", workdir / "val.bin"
        cli.main(["generate", "--config", str(workdir / "data.cfg"), "--out", str(train_ds)])
        (workdir / "val.cfg").write_text(DATASET_CFG + "classes = 3\n")
        cli.main(["generate", "--config", str(workdir / "val.cfg"), "--out", str(val_ds)])
        capsys.readouterr()
        code = cli.main([
            "compare", "--config", str(workdir / "run.cfg"), "--dataset", str(train_ds),
            "--val-dataset", str(val_ds), "--out", str(workdir / "compare.csv"),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "c_cls is 3 in the dataset, 5 in the model",
                                            "kind": "TrainingError"}
        assert not (workdir / "compare.csv").exists()

    def test_resume_with_another_mode_fails(self, workdir, capsys):
        ds, ckpt = self._trained(workdir, capsys)
        code = cli.main(["train", "--config", str(workdir / "run.cfg"), "--dataset", str(ds),
                         "--resume", str(ckpt), "--mode", "update2",
                         "--out", str(workdir / "r.ckpt")])
        assert code == 1
        payload = self._error(capsys)
        assert payload["kind"] == "TrainingError"
        assert payload["error"].startswith("mode is 'update2' in the run config and dataset")
        assert not (workdir / "r.ckpt").exists()

    @pytest.mark.parametrize("line, error", [
        ("scenes = 0", "scenes must be at least 1, got 0"),
        ("parts_per_class = 1", "parts_per_class must be one of 0, 2, got 1"),
        ("max_object_side = 64", "max_object_side 64 does not fit the canvas 64"),
        # The file's key, not the SceneSpec field it sets (`n_classes`).
        ("classes = 9", "classes must be at most 8, got 9"),
    ], ids=["scenes", "parts", "side", "classes"])
    def test_generate_rejects_a_dataset_config_as_a_config_error(self, workdir, capsys, line,
                                                                error):
        # One kind for every rejection, whether the grammar, the scene count
        # or the SceneSpec made it.
        (workdir / "data.cfg").write_text(f"version = 1\n{line}\n")
        out = workdir / "d.bin"
        assert cli.main(["generate", "--config", str(workdir / "data.cfg"), "--out", str(out)]) == 1
        assert self._error(capsys) == {"error": error, "kind": "ConfigError"}
        assert not out.exists()

    @pytest.mark.parametrize("fields, message", WRONG_TYPED_RUN_CONFIG)
    def test_wrong_typed_checkpoint_value_is_one_json_line(self, workdir, capsys, fields,
                                                           message):
        ckpt = edited_checkpoint(workdir, lambda h: h["run_config"].update(fields))
        code = cli.main(["eval", "--checkpoint", str(ckpt), "--dataset", str(workdir / "d.bin"),
                         "--out", str(workdir / "m.csv")])
        assert code == 1
        assert self._error(capsys) == {"error": f"the checkpoint's run_config: {message}",
                                       "kind": "TrainingError"}

    @pytest.mark.parametrize("edit, message", INCOMPLETE_HEADERS)
    def test_incomplete_checkpoint_header_is_one_json_line(self, workdir, capsys, edit, message):
        ckpt = edited_checkpoint(workdir, edit)
        code = cli.main(["eval", "--checkpoint", str(ckpt), "--dataset", str(workdir / "d.bin"),
                         "--out", str(workdir / "m.csv")])
        assert code == 1
        assert self._error(capsys) == {"error": message, "kind": "TrainingError"}
        assert not (workdir / "m.csv").exists()

    @pytest.mark.parametrize("fields, message", BAD_HEADER_VALUES)
    def test_resume_from_a_bad_header_value_is_one_json_line(self, workdir, capsys, fields,
                                                             message):
        ds, out = workdir / "d.bin", workdir / "r.ckpt"
        cli.main(["generate", "--config", str(workdir / "data.cfg"), "--out", str(ds)])
        capsys.readouterr()
        ckpt = edited_checkpoint(workdir, lambda h: h.update(fields))
        code = cli.main(["train", "--config", str(workdir / "run.cfg"), "--dataset", str(ds),
                         "--resume", str(ckpt), "--out", str(out)])
        assert code == 1
        assert self._error(capsys) == {"error": f"the checkpoint header: {message}",
                                       "kind": "TrainingError"}
        assert not out.exists()

    @pytest.mark.parametrize("field, value, message", WRONG_TYPED_SPEC_FIELDS)
    def test_wrong_typed_spec_header_is_one_json_line(self, workdir, capsys, field, value,
                                                      message):
        (workdir / "data.cfg").write_text("version = 1\nscenes = 2\nseed = 5\n")  # canvas 64
        ds, ckpt = workdir / "d.bin", workdir / "m.ckpt"
        cli.main(["generate", "--config", str(workdir / "data.cfg"), "--out", str(ds)])
        reseal(ds, lambda body: with_spec_fields(body, **{field: value}))
        capsys.readouterr()
        code = cli.main(["train", "--config", str(workdir / "run.cfg"), "--dataset", str(ds),
                         "--out", str(ckpt)])
        assert code == 1
        assert self._error(capsys) == {"error": f"dataset {ds}: bad spec header: {message}",
                                       "kind": "DatasetError"}
        assert not ckpt.exists()

    @pytest.mark.parametrize("n", [0, -3])
    def test_generate_without_scenes_fails(self, workdir, capsys, n):
        (workdir / "data.cfg").write_text(DATASET_CFG.replace("scenes = 6", f"scenes = {n}"))
        out = workdir / "d.bin"
        assert cli.main(["generate", "--config", str(workdir / "data.cfg"), "--out", str(out)]) == 1
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_train_on_an_empty_dataset_fails(self, workdir, capsys):
        ds, ckpt = workdir / "empty.bin", workdir / "m.ckpt"
        spec, _ = cli.parse_dataset_config(DATASET_CFG)
        write_dataset([], spec, ds)
        code = cli.main(["train", "--config", str(workdir / "run.cfg"), "--dataset", str(ds),
                         "--out", str(ckpt)])
        assert code == 1
        assert self._error(capsys) == {"error": "scenes: the training set is empty",
                                       "kind": "TrainingError"}
        assert not ckpt.exists()

    @pytest.mark.parametrize("make, message", [
        (lambda d: edited_checkpoint(d, lambda h: h.update(colour=1)),
         "the checkpoint header has an unknown key 'colour'"),
        (lambda d: edited_checkpoint(d, lambda h: h.update(optimizer={"momentum": 0.9})),
         "the checkpoint header: optimizer must be {} for plain SGD, got {'momentum': 0.9}"),
        (lambda d: edited_checkpoint(d, lambda h: h.update(params={})),
         "checkpoint {path}: the header has a 'params' key, which the parameter records fill"),
        (non_utf8_name_checkpoint,
         "checkpoint {path}: parameter record 0 has a name that is not valid UTF-8"),
    ], ids=["unknown-header-key", "stateful-optimizer", "params-in-header", "non-utf8-name"])
    def test_bad_checkpoint_header_or_name_is_one_json_line(self, workdir, capsys, make,
                                                            message):
        ckpt = make(workdir)
        code = cli.main(["eval", "--checkpoint", str(ckpt), "--dataset", str(workdir / "d.bin"),
                         "--out", str(workdir / "m.csv")])
        assert code == 1
        assert self._error(capsys) == {"error": message.replace("{path}", str(ckpt)),
                                       "kind": "TrainingError"}

    def test_eval_of_a_nan_pixel_is_one_json_line(self, workdir, capsys):
        # Before, eval failed in the forward with "non-finite values produced
        # by Tensor()", naming neither the file nor the scene.
        ds = workdir / "held_out.bin"
        spec, scenes = held_out_scenes()
        scenes[2].image[4, 7, 1] = np.nan
        write_dataset(scenes, spec, ds)
        code = cli.main(["eval", "--checkpoint", str(COMMITTED_CKPT), "--dataset", str(ds),
                         "--out", str(workdir / "m.csv")])
        assert code == 1
        want = f"dataset {ds}: scene 2: pixel (4, 7, 1) is nan, not a finite value in [0, 1]"
        assert self._error(capsys) == {"error": want, "kind": "DatasetError"}

    def test_eval_of_overflowing_boxes_is_one_json_line(self, workdir, capsys):
        ds = workdir / "held_out.bin"
        spec, scenes = held_out_scenes()
        write_dataset(scenes, spec, ds)
        ckpt = overflowing_checkpoint(workdir / "c.ckpt")
        code = cli.main(["eval", "--checkpoint", str(ckpt), "--dataset", str(ds),
                         "--out", str(workdir / "m.csv")])
        assert code == 1
        assert self._error(capsys) == {"error": "scene 0: det deltas decode to non-finite boxes",
                                       "kind": "TensorError"}

    def test_eval_prints_summary_line(self, workdir, capsys):
        # TestFixtureEvalPin's metrics, as eval prints them
        ds = workdir / "held_out.bin"
        spec, scenes = held_out_scenes()
        write_dataset(scenes, spec, ds)
        assert cli.main(["eval", "--checkpoint", str(COMMITTED_CKPT), "--dataset", str(ds),
                         "--out", str(workdir / "m.csv")]) == 0
        assert capsys.readouterr().out == "cls mAP 1.000  det AP 0.990  part AP 0.991\n"

    def test_parts_free_reports(self, workdir, capsys):
        # Without parts every report leaves the part AP out, or marks it empty.
        (workdir / "data.cfg").write_text(DATASET_CFG + "parts_per_class = 0\n")
        (workdir / "run.cfg").write_text(RUN_CFG + "seeds = 0\n")
        ds, ckpt = self._trained(workdir, capsys)
        common = ["--checkpoint", str(ckpt), "--dataset", str(ds)]

        assert cli.main(["eval", *common, "--out", str(workdir / "m.csv")]) == 0
        out = capsys.readouterr().out
        assert re.fullmatch(r"cls mAP \d\.\d{3}  det AP \d\.\d{3}\n", out), out
        assert "part_ap" not in (workdir / "m.csv").read_text()

        assert cli.main(["ground", *common, "--out", str(workdir / "g.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        for cond, line in zip(("ungrounded", "grounded"), lines):
            assert re.fullmatch(rf"{cond}: cls mAP \d\.\d{{3}}  det AP \d\.\d{{3}}", line)
        assert list(json.loads(lines[2].removeprefix("deltas: "))) == ["cls_map", "det_ap"]

        sweep_csv = workdir / "s.csv"
        assert cli.main(["sweep", *common, "--t-max", "2", "--out", str(sweep_csv)]) == 0
        capsys.readouterr()
        rows = [line.split(",") for line in sweep_csv.read_text().splitlines()]
        assert rows[0] == ["t", "cls_map", "det_ap", "part_ap"]
        assert [row[0] for row in rows[1:]] == ["0", "1", "2"]
        assert all(row[3] == "" and row[2] != "" for row in rows[1:])

        table = workdir / "compare.md"
        assert cli.main(["compare", "--config", str(workdir / "run.cfg"), "--dataset", str(ds),
                         "--val-dataset", str(ds), "--out", str(workdir / "c.csv"),
                         "--table", str(table)]) == 0
        capsys.readouterr()
        lines = table.read_text().splitlines()
        assert lines[0] == "| Method | cls mAP | det AP@0.5 | part AP@0.4 |"
        for line in lines[2:]:
            cells = line.split(" | ")
            assert cells[-1] == "- |" and cells[-2] != "-", line

    def test_generate_is_deterministic(self, workdir, capsys):
        a, b = workdir / "a.bin", workdir / "b.bin"
        cli.main(["generate", "--config", str(workdir / "data.cfg"), "--out", str(a)])
        cli.main(["generate", "--config", str(workdir / "data.cfg"), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()
