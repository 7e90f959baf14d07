"""Paired benchmark runs of a parent and a change, written as one BENCH JSON file.

Run from the repository root; pytest does not collect this file:

    python tests/paired_bench.py --parent main --change . --seeds 61-70 \\
        --seconds 40 --title "..." --claim train-update1:scenes_per_s --out BENCH_<n>.json

Each side is a git revision, or `.` for the working tree (tracked and
untracked files that git does not ignore). It is copied into its own
directory under --workdir, so the benchmark builds from those files only;
nothing under `perfbench/` is touched. Pair i runs every workload in turn
at the i-th seed, `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` once per side, with the parent first on
even-numbered pairs (counting from 0) and the change first on odd ones.

For each workload and end-to-end metric of `BENCHMARK.json` the file holds
both sides' runs, their quartiles (linear interpolation), how many pairs
the change won, the change of the median (change / parent - 1) and the
parent's quartile spread (q3 - q1), with a verdict against the metric's
`bound`: "regressed" when the change's median is worse than the parent's
by more than the bound (relative to the parent's median), "unresolved"
when the parent's relative quartile spread is wider than the bound and
not every run of the change reads better than every run of the parent,
"ok" otherwise. It also sums operations attempted and failed per side,
with the failed share, and says whether each seed's quality figures
(final training loss, APs) were equal on both sides. With --claim it states whether the change won at least 9 of the
pairs on that metric by a median change larger than the parent's quartile
spread relative to its median. With --traced-seed S it also runs
`perfbench/run.py --trace 1` once per side and workload at seed S and
keeps their per-layer metrics in a `traced` block.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
QUALITY_UNITS = ("loss", "AP")
TRACED_SECONDS = 3.0  # a traced run's counts repeat exactly; its times are not a claim


def export(side: str, dest: Path) -> str:
    """Copy revision `side`, or the working tree for ".", to `dest`; returns
    what was copied, for the record."""
    dest.mkdir(parents=True)
    if side == ".":
        files = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"], cwd=ROOT,
                               check=True, capture_output=True).stdout.decode().split("\0")
        for name in filter(None, files):
            if (ROOT / name).is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, dest / name)
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
        return f"working tree on {head}"
    rev = subprocess.run(["git", "rev-parse", "--short", side], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tempfile.TemporaryFile() as f:
        f.write(archive)
        f.seek(0)
        with tarfile.open(fileobj=f) as tar:
            tar.extractall(dest, filter="data")
    return rev


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run: its env, report and result lines."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    lines = [json.loads(line) for line in out if line.startswith("{")]
    env = next(x["env"] for x in lines if "env" in x)
    report = next(x["report"] for x in lines if "report" in x)
    return {"env": env, "report": report, "result": lines[-1]}


def seeds_arg(text: str) -> list:
    """"61-70" or "61,62,63"."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def verdict(m: dict) -> str:
    """A metric block's verdict against its bound (see the module doc)."""
    sign = 1.0 if m["better"] == "higher" else -1.0
    if -sign * m["median_rel_change"] > m["bound"]:
        return "regressed"
    wide = m["parent_quartile_spread"] / m["parent"]["median"] > m["bound"]
    if wide and min(sign * v for v in m["change_runs"]) <= max(sign * v for v in m["parent_runs"]):
        return "unresolved"
    return "ok"


def summarize(spec: dict, runs: dict, seeds: list) -> dict:
    """The per-workload block of a BENCH file from `runs[workload][side]`,
    one run per seed, in seed order."""
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        parent, change = runs[name]["parent"], runs[name]["change"]
        metrics = {}
        for m in spec["end_to_end"]:
            key, higher = m["name"], m["better"] == "higher"
            p = [r["result"]["metrics"][key]["value"] for r in parent]
            c = [r["result"]["metrics"][key]["value"] for r in change]
            wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
            pq = quartiles(p)
            metrics[key] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "parent": pq, "change": quartiles(c), "parent_runs": p, "change_runs": c,
                "change_wins": f"{wins}/{len(p)}",
                "median_rel_change": quartiles(c)["median"] / pq["median"] - 1.0,
                "parent_quartile_spread": pq["q3"] - pq["q1"],
            }
            metrics[key]["verdict"] = verdict(metrics[key])

        def quality(run):
            return {k: v["value"] for k, v in run["report"]["metrics"].items()
                    if v["unit"] in QUALITY_UNITS}

        sides = (("parent", parent), ("change", change))
        failed = {side: sum(r["result"]["failed"] for r in rs) for side, rs in sides}
        attempted = {side: sum(r["result"]["attempted"] for r in rs) for side, rs in sides}
        workloads[name] = {
            "seeds": seeds,
            "pairs": len(seeds),
            "metrics": metrics,
            "correct": {side: all(r["result"]["correct"] for r in rs) for side, rs in sides},
            "failed": failed,
            "attempted": attempted,
            "failed_share": {side: failed[side] / attempted[side] if attempted[side] else None
                             for side, _ in sides},
            "quality_equal_per_seed": all(quality(a) == quality(b) for a, b in zip(parent, change)),
        }
    return workloads


def per_layer(run: dict) -> dict:
    """A traced run's per-layer metrics, name -> value."""
    return {k: v["value"] for k, v in run["result"]["metrics"].items()}


def claim_block(workloads: dict, claim: str) -> dict:
    """Whether the change won at least 9 in 10 pairs on `claim`
    ("workload:metric") by a median gain above the parent's relative
    quartile spread."""
    workload, metric = claim.split(":")
    pairs, m = workloads[workload]["pairs"], workloads[workload]["metrics"][metric]
    wins = int(m["change_wins"].split("/")[0])
    gain = m["median_rel_change"] if m["better"] == "higher" else -m["median_rel_change"]
    spread = m["parent_quartile_spread"] / m["parent"]["median"]
    return {"workload": workload, "metric": metric, "change_wins": m["change_wins"],
            "median_gain": gain, "parent_quartile_spread_rel": spread,
            "met": wins >= -(-9 * pairs // 10) and gain > spread}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision, or . for the working tree")
    p.add_argument("--change", required=True, help="git revision, or . for the working tree")
    p.add_argument("--seeds", type=seeds_arg, required=True, help='"61-70" or "61,62"')
    p.add_argument("--seconds", type=float, default=None,
                   help="seconds per run (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--title", default="")
    p.add_argument("--claim", default=None, help="workload:metric the change claims to improve")
    p.add_argument("--traced-seed", type=int, default=None,
                   help="also make one traced run per side and workload at this seed")
    p.add_argument("--workdir", type=Path, default=None,
                   help="where the two copies go (default: a temporary directory)")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    work = args.workdir or Path(tempfile.mkdtemp(prefix="paired-bench-"))
    trees = {side: work / side for side in ("parent", "change")}
    for tree in trees.values():
        if tree.exists():
            shutil.rmtree(tree)
    revs = {side: export(getattr(args, side), tree) for side, tree in trees.items()}

    runs = {w["name"]: {"parent": [], "change": []} for w in spec["workloads"]}
    env = None
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in spec["workloads"]:
            for side in order:
                r = run_once(trees[side], w["name"], seed, seconds)
                env = env or r["env"]
                runs[w["name"]][side].append(r)
                value = r["result"]["metrics"]["scenes_per_s"]["value"]
                print(f"pair {i} seed {seed} {w['name']} {side}: scenes_per_s {value:.2f}",
                      file=sys.stderr, flush=True)

    workloads = summarize(spec, runs, args.seeds)
    out = {"title": args.title, "parent": revs["parent"], "change": revs["change"],
           "workloads": workloads, "env": env,
           "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                      "--trace 0",
           "protocol": f"{len(args.seeds)} alternating parent/change pairs per workload, seeds "
                       f"{args.seeds[0]}-{args.seeds[-1]} (parent first on even-numbered pairs, "
                       "counting from 0; the workloads run in turn within each pair), "
                       f"{seconds:g} s untraced runs, calibrated figures as the runner reports "
                       "them"}
    if args.claim:
        out["claim"] = claim_block(workloads, args.claim)
    if args.traced_seed is not None:
        rows = {}
        for w in spec["workloads"]:
            rows[w["name"]] = {}
            for side in ("parent", "change"):
                r = run_once(trees[side], w["name"], args.traced_seed, TRACED_SECONDS, trace=1)
                rows[w["name"]][side] = per_layer(r)
        out["traced"] = {
            "command": f"python3 perfbench/run.py --workload W --seed {args.traced_seed} "
                       f"--seconds {TRACED_SECONDS:g} --trace 1",
            "note": "one traced run per side and workload: counts repeat exactly, times are "
                    "single traced runs",
            "rows": rows,
        }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    if args.workdir is None:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
