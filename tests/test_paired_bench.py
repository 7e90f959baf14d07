"""The summary, verdict and claim logic of `paired_bench.py`, on synthetic runs."""

import pytest

import paired_bench

SPEC = {
    "workloads": [{"name": "train"}],
    "end_to_end": [
        {"name": "scenes_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
}


def run(speed, rss=100.0, failed=0, attempted=10, loss=1.0):
    """One run as `run_once` returns it."""
    return {
        "env": {},
        "report": {"metrics": {"train_final_loss": {"value": loss, "unit": "loss"},
                               "setup_s": {"value": 0.5, "unit": "s"}}},
        "result": {"correct": True, "attempted": attempted, "failed": failed,
                   "metrics": {"scenes_per_s": {"value": speed},
                               "peak_rss_mb": {"value": rss}}},
    }


def summary(parent, change):
    """The workload block of `parent` and `change` runs, one per seed."""
    runs = {"train": {"parent": parent, "change": change}}
    return paired_bench.summarize(SPEC, runs, list(range(len(parent))))


def speeds(parent, change, **kw):
    return summary([run(v, **kw) for v in parent], [run(v, **kw) for v in change])


class TestClaim:
    def test_met_on_every_pair_above_the_spread(self):
        block = paired_bench.claim_block(
            speeds([100 + i % 3 for i in range(10)], [110 + i % 3 for i in range(10)]),
            "train:scenes_per_s")
        assert block["met"] and block["change_wins"] == "10/10"
        assert block["median_gain"] == pytest.approx(0.1, rel=0.02)

    def test_eight_wins_in_ten_is_not_enough(self):
        change = [110] * 8 + [90] * 2
        block = paired_bench.claim_block(speeds([100] * 10, change), "train:scenes_per_s")
        assert block["change_wins"] == "8/10" and not block["met"]

    def test_gain_inside_the_parent_spread_is_not_enough(self):
        parent = [90, 95, 100, 105, 110] * 2
        change = [v + 1 for v in parent]
        block = paired_bench.claim_block(speeds(parent, change), "train:scenes_per_s")
        assert block["change_wins"] == "10/10" and not block["met"]

    def test_lower_is_better_counts_a_fall_as_a_gain(self):
        parent = [run(100, rss=100.0) for _ in range(10)]
        change = [run(100, rss=90.0) for _ in range(10)]
        block = paired_bench.claim_block(summary(parent, change), "train:peak_rss_mb")
        assert block["met"] and block["median_gain"] == pytest.approx(0.1)


class TestVerdict:
    def verdict(self, parent, change, metric="scenes_per_s"):
        return speeds(parent, change)["train"]["metrics"][metric]["verdict"]

    def test_small_loss_within_the_bound_is_ok(self):
        assert self.verdict([100] * 10, [90] * 10) == "ok"

    def test_loss_past_the_bound_regresses(self):
        assert self.verdict([100] * 10, [79] * 10) == "regressed"

    def test_lower_is_better_regresses_on_a_rise(self):
        parent = [run(100, rss=100.0) for _ in range(4)]
        change = [run(100, rss=111.0) for _ in range(4)]
        assert summary(parent, change)["train"]["metrics"]["peak_rss_mb"]["verdict"] == "regressed"

    # In these, the parent's quartile spread is 55 % of its median.
    def test_wide_parent_spread_with_a_pair_lost_is_unresolved(self):
        assert self.verdict([50, 80, 120, 150], [150, 79, 121, 151]) == "unresolved"

    def test_wide_parent_spread_with_every_pair_won_is_still_unresolved(self):
        assert self.verdict([50, 80, 120, 150], [51, 81, 121, 151]) == "unresolved"

    def test_wide_parent_spread_is_ok_when_every_change_run_beats_every_parent_run(self):
        assert self.verdict([50, 80, 120, 150], [151, 160, 170, 180]) == "ok"

    def test_lower_is_better_sweep_compares_the_other_way(self):
        parent = [run(100, rss=v) for v in (50.0, 80.0, 120.0, 150.0)]
        change = [run(100, rss=v) for v in (40.0, 45.0, 48.0, 49.0)]
        assert summary(parent, change)["train"]["metrics"]["peak_rss_mb"]["verdict"] == "ok"
        change[0] = run(100, rss=51.0)
        assert summary(parent, change)["train"]["metrics"]["peak_rss_mb"]["verdict"] == "unresolved"

    def test_regressed_outranks_unresolved(self):
        assert self.verdict([50, 80, 120, 150], [10, 20, 30, 40]) == "regressed"


def test_failed_share_per_side():
    parent = [run(100, failed=0, attempted=10)] * 2
    change = [run(100, failed=1, attempted=10), run(100, failed=0, attempted=10)]
    block = summary(parent, change)["train"]
    assert block["failed"] == {"parent": 0, "change": 1}
    assert block["failed_share"] == {"parent": 0.0, "change": 0.05}


def test_quality_compared_per_seed():
    same = summary([run(100, loss=1.0)], [run(120, loss=1.0)])["train"]
    differs = summary([run(100, loss=1.0)], [run(120, loss=1.5)])["train"]
    assert same["quality_equal_per_seed"] and not differs["quality_equal_per_seed"]


def test_per_layer_keeps_every_traced_value():
    assert paired_bench.per_layer(run(3.5)) == {"scenes_per_s": 3.5, "peak_rss_mb": 100.0}
