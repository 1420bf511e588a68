#!/usr/bin/env python3
"""The repository benchmark: three alignment workloads, timed from outside.

Run from the repository root:

    python3 eabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds `eabench/` (a Cargo package of its own that uses the repository's
crates by path) into $CARGO_TARGET_DIR (default `.bench_build`), then starts
one fresh `eabench` process per measurement with LARGEEA_THREADS=2.

--trace 0 times whole `align` runs for about --seconds seconds and reports
the end-to-end metrics (medians over the runs). --trace 1 makes one untraced
`align` run and one traced run, and reports the per-layer metrics. Every run
is checked (pinned accuracy, determinism, out-of-core bit-identity, replay
counts); a run that fails a check counts as failed. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
Run records go to `.bench_out/history.jsonl`, keyed by source revision.
See eabench/README.md for the workloads and what each metric is for.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")

THREADS = "2"
SETUP_REPS = 5
# A whole invocation (after the build) must end well inside 180 s.
RUN_BUDGET_S = 165.0

# Lowest acceptable H@1 (%) for a seed without pinned values in pins.json.
# Accuracy on the DBP1M shape swings with the seed (H@1 57-76% over seeds
# 0-10), so the floors only catch a broken run; pinned seeds are exact.
WORKLOADS = {
    "dbp1m-gcn": {"hits1_floor": 40.0},
    "ids100k-rrea": {"hits1_floor": 75.0},
    "dbp1m-ooc": {"hits1_floor": 40.0},
}
OUT_OF_CORE = "dbp1m-ooc"

END_TO_END = [
    ("setup_s", "s"),
    ("align_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
]

# H@1 and MRR are exact per seed (checked against pins.json on every run),
# but their spread over seeds is too wide for an end-to-end bound, so they
# are reported with the traced run.
PER_LAYER = [
    ("hits1", "%"),
    ("mrr", "ratio"),
    ("data.generate_s", "s"),
    ("data.entities", "count"),
    ("data.triples", "count"),
    ("text.encode_s", "s"),
    ("text.stns_s", "s"),
    ("text.lsh_candidates", "count"),
    ("text.levenshtein_pairs", "count"),
    ("text.lsh_useful_ratio", "ratio"),
    ("simsearch.sens_scan_s", "s"),
    ("simsearch.sens_candidates", "count"),
    ("simsearch.sens_pairs_per_s", "1/s"),
    ("simsearch.sens_kept_ratio", "ratio"),
    ("simsearch.sens_cpu_per_wall", "ratio"),
    ("simsearch.topk_s", "s"),
    ("simsearch.topk_pairs", "count"),
    ("tensor.l1_ns", "ns"),
    ("tensor.l1_i8_ns", "ns"),
    ("tensor.dot_ns", "ns"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.sens_efficiency", "ratio"),
    ("partition.cps_s", "s"),
    ("partition.input_triples", "count"),
    ("partition.refine_moves", "count"),
    ("partition.edge_cut_rate", "ratio"),
    ("partition.seed_retention", "ratio"),
    ("models.train_s", "s"),
    ("models.epoch_ms", "ms"),
    ("models.epochs_per_s", "1/s"),
    ("models.cpu_sys_share", "ratio"),
    ("models.minor_faults_per_epoch", "count"),
    ("models.final_loss", "loss"),
    ("core.name_channel_s", "s"),
    ("core.augment_s", "s"),
    ("core.structure_channel_s", "s"),
    ("core.fuse_s", "s"),
    ("core.eval_s", "s"),
    ("core.span_coverage", "ratio"),
    ("core.name_channel_util", "ratio"),
    ("core.structure_channel_util", "ratio"),
    ("core.pseudo_seeds", "count"),
    ("core.pseudo_seed_accuracy", "ratio"),
    ("core.mem_tracked_peak_mb", "MiB"),
    ("core.heap_peak_mb", "MiB"),
    ("core.spill_write_bytes", "bytes"),
    ("core.spill_read_bytes", "bytes"),
    ("core.spill_put_mb_per_s", "MiB/s"),
    ("core.spill_get_mb_per_s", "MiB/s"),
    ("core.ckpt_write_bytes", "bytes"),
    ("core.ckpt_save_s", "s"),
    ("core.retry_attempts", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def die(msg):
    """Exits non-zero without printing a result line."""
    print(f"eabench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not all(os.path.exists(os.path.join(ROOT, p)) for p in ("Cargo.toml", "crates", "src")):
        die("the repository sources (Cargo.toml, crates/, src/) are missing")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        die("building eabench failed")
    return os.path.join(target, "release", "eabench")


def revision():
    """The git revision, or a hash of the sources when there is no git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True, timeout=10)
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    files = []
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "eabench"):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(path)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            files += [os.path.join(dirpath, name) for name in sorted(filenames)]
    h = hashlib.sha1()
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def outputs(r):
    """What must be bit-identical between two runs on the same inputs."""
    return r["hits1"], r["mrr"], r["fused_hash"]


class Runner:
    def __init__(self, exe, workload, seed, deadline):
        self.exe, self.workload, self.seed, self.deadline = exe, workload, seed, deadline
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("LARGEEA_")}
        self.env["LARGEEA_THREADS"] = THREADS
        with open(os.path.join(BENCH_DIR, "pins.json")) as f:
            self.pin = json.load(f).get(workload, {}).get(str(seed))

    def child(self, sub, *extra, keep=None):
        """Runs one `eabench` process; returns its JSON result or None.

        `keep` names a file of the child's work dir to move to .bench_out.
        """
        work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        cmd = [self.exe, sub, "--workload", self.workload, "--seed", str(self.seed),
               "--work-dir", work_dir, *map(str, extra)]
        try:
            timeout = self.deadline - time.monotonic()
            if timeout < 1:
                return None, f"{sub} not started: the {RUN_BUDGET_S:.0f} s budget is spent"
            try:
                # subprocess.run kills the child on timeout and waits for it
                p = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                   timeout=timeout)
            except subprocess.TimeoutExpired:
                return None, f"{sub} ran out of the {RUN_BUDGET_S:.0f} s budget"
            if p.returncode != 0:
                return None, f"{sub} exited {p.returncode}: {p.stderr.strip()[-500:]}"
            if keep:
                shutil.move(os.path.join(work_dir, keep[0]), keep[1])
            return json.loads(p.stdout.strip().splitlines()[-1]), None
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)

    def operation(self, result, problems):
        """Counts one operation; it failed if it has any problem."""
        self.attempted += 1
        if result is None or problems:
            self.failed += 1
            self.problems.extend(problems)
            return False
        return True

    def accuracy_problems(self, r):
        if self.pin is not None:
            if [r["hits1"], r["mrr"]] != self.pin:
                return [f"hits1/mrr {r['hits1']}/{r['mrr']} differ from pinned {self.pin}"]
            return []
        floor = WORKLOADS[self.workload]["hits1_floor"]
        if r["hits1"] < floor:
            return [f"hits1 {r['hits1']} below the floor {floor} (seed not pinned)"]
        return []

    def reference(self):
        """In-RAM run of the out-of-core workload: budget and bit-identity oracle."""
        if self.workload != OUT_OF_CORE:
            return None, []
        ref, err = self.child("align", "--reference")
        self.operation(ref, [err] if err else self.accuracy_problems(ref))
        if ref is None:
            return None, None
        # the memory budget is 3/4 of this input's in-RAM tracked peak
        return ref, ["--budget-bytes", ref["tracked_peak_bytes"] * 3 // 4]

    def align(self, ref, budget_args, first=None):
        r, err = self.child("align", "--setup-reps", SETUP_REPS, *budget_args)
        if r is None:
            self.operation(None, [err])
            return None
        problems = self.accuracy_problems(r)
        if first is not None and outputs(r) != outputs(first):
            problems.append("align is not deterministic across runs of one seed")
        if ref is not None and outputs(r) != outputs(ref):
            problems.append("out-of-core fused matrix differs from the in-RAM run")
        return r if self.operation(r, problems) else None


def timed(runner, seconds):
    ref, budget_args = runner.reference()
    runs = []
    if budget_args is not None:
        start = time.monotonic()
        n = 0
        while True:
            r = runner.align(ref, budget_args, runs[0] if runs else None)
            if r is not None:
                runs.append(r)
            n += 1
            now = time.monotonic()
            per_run = (now - start) / n
            if now - start + per_run > seconds or now + 1.25 * per_run > runner.deadline:
                break
    if not runs:
        return {name: 0.0 for name, _ in END_TO_END}, runs
    metrics = {"setup_s": statistics.median(s for r in runs for s in r["setup_s"])}
    metrics.update((name, statistics.median(r[name] for r in runs))
                   for name, _ in END_TO_END if name != "setup_s")
    return metrics, runs


def traced(runner):
    ref, budget_args = runner.reference()
    if budget_args is None:
        return {name: 0.0 for name, _ in PER_LAYER}, []
    untraced = runner.align(ref, budget_args)
    os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
    spans = os.path.join(OUT_DIR, "spans", f"{runner.workload}-s{runner.seed}-{os.getpid()}.json")
    t, err = runner.child("trace", *budget_args, keep=("spans.json", spans))
    problems = [err] if err else []
    if t is not None:
        problems += [f"replay check {c['name']}: program {c['program']} != replay {c['replay']}"
                     for c in t["checks"] if not c["ok"]]
        problems += runner.accuracy_problems(t)
        if untraced is not None and outputs(t) != outputs(untraced):
            problems.append("the composed pipeline does not reproduce the untraced run")
    if not runner.operation(t, problems) or untraced is None:
        return {name: 0.0 for name, _ in PER_LAYER}, [untraced, t]
    metrics = dict(t["metrics"], hits1=untraced["hits1"], mrr=untraced["mrr"])
    metrics["trace.overhead_s"] = t["pipeline_s"] - untraced["align_s"]
    metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / untraced["align_s"]
    return metrics, [untraced, t]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")

    exe = build()
    runner = Runner(exe, args.workload, args.seed, time.monotonic() + RUN_BUDGET_S)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        values, runs = traced(runner)
        table = PER_LAYER
    else:
        values, runs = timed(runner, args.seconds)
        table = END_TO_END
    for p in runner.problems:
        print(f"eabench: FAILED {p}", file=sys.stderr)

    run = next((r for r in runs if r is not None), {})
    record = {
        "revision": revision(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "pinned": runner.pin is not None,
        "kernel_isa": run.get("kernel_isa"),
        "pool_width": run.get("pool_width"),
        "host_parallelism": run.get("host_parallelism"),
        "runs": len([r for r in runs if r is not None]),
    }
    print("provenance " + json.dumps(record))
    record["time"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    record["metrics"] = values
    record["run_results"] = [r for r in runs if r is not None]
    with open(os.path.join(OUT_DIR, "history.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }))


if __name__ == "__main__":
    main()
