"""The brex benchmark: one command, seeded workloads, checked outputs.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --scaling

A closed loop with one client: each operation (one `brex run` or one
`brex sweep`, through brex.cli.main) runs in a fresh process, one at a time,
until --seconds have passed (at least three operations, four when traced).
With --trace 0 every operation is untraced and the end-to-end metrics are
printed; with --trace 1 untraced and traced operations alternate and the
per-layer metrics are printed. `run_s` and `setup_s` are wall times scaled
to the reference host speed by the pace each operation measured (op.Pacer).
The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import worlds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 165.0       # a run must exit within 180 s
SWEEP = ["--mode", "bree,bret,brej", "--sim", "match,cc-asym,cc-sym1,cc-sym2"]
MODE, MEASURE, DIM = "brej", "cc-asym", worlds.DIM
SCALING_SIZES = (250, 500, 1000, 2000)
OUTPUT_FILES = ("accepted.jsonl", "extractors.jsonl")


def min_ops(trace: bool) -> int:
    # traced: two untraced and two traced, so traced counts can be compared
    return 4 if trace else 3


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def provenance() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        git_sha = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "brex").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": git_sha, "src_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "blas_threads": blas_threads(),
            "python": platform.python_version(), "numpy": np.__version__}


def brex_argv(workload: str, paths: dict, out: Path) -> list[str]:
    base = ["--corpus", str(paths["corpus"]), "--embeddings", str(paths["embeddings"]),
            "--seeds", str(paths["seeds"]), "--out", str(out)]
    if workload == "sweep-grid":
        return ["sweep", *base, *SWEEP, "--gold", str(paths["gold"])]
    return ["run", *base]


def run_op(workload: str, paths: dict, op_dir: Path, trace: bool,
           timeout: float) -> dict:
    """One operation in a child process; returns its result plus checks."""
    op_dir.mkdir(parents=True)
    out = op_dir / "out"
    spec = {
        "src": str(SRC), "argv": brex_argv(workload, paths, out),
        "eval_argv": (None if workload == "sweep-grid" else
                      ["eval", "--run", str(out), "--gold", str(paths["gold"])]),
        "trace": trace, "result": str(op_dir / "result.json"),
        "spans": str(op_dir / "spans.tsv"),
    }
    (op_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    env.pop("PYTHONPATH", None)
    started = perf_counter()
    with open(op_dir / "log.txt", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "op.py"),
                                   str(op_dir / "spec.json")], env=env, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout,
                                  check=False)
            child_code = proc.returncode
        except subprocess.TimeoutExpired:  # run() kills and reaps the child
            child_code = "timeout"
    wall = perf_counter() - started
    result = {"trace": trace, "wall_s": wall, "child_code": child_code}
    if child_code == 0:
        result.update(json.loads((op_dir / "result.json").read_text()))
    result["ok"] = (child_code == 0 and result["exit_code"] == 0
                    and result["eval_exit_code"] == 0)
    if result["ok"]:
        result.update(read_outputs(out))
        if trace:
            result["layers"] = layer_metrics(op_dir / "spans.tsv", result["counts"])
    return result


def print_log_tail(op_dir: Path, lines: int = 20) -> None:
    """Copy the end of a failed operation's log to stderr; the work dir is removed."""
    log = (op_dir / "log.txt").read_text(encoding="utf-8", errors="replace")
    print("\n".join(log.splitlines()[-lines:]), file=sys.stderr)


def read_outputs(out: Path) -> dict:
    """Output digest, mean precision/recall over report files, iteration stats."""
    digest = hashlib.sha256()
    for path in sorted(p for name in OUTPUT_FILES for p in out.rglob(name)):
        digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    reports = [json.loads(p.read_text()) for p in sorted(out.rglob("report.json"))]
    stats = {str(p.parent.relative_to(out)): json.loads(p.read_text())
             for p in sorted(out.rglob("stats.json"))}
    def mean(key):
        return statistics.fmean(r[key] for r in reports) if reports else None

    return {
        "digest": digest.hexdigest(),
        "precision": mean("precision"),
        "recall": mean("recall"),
        "iterations": {
            cell: [(it["hits"], it["accepted_new"], it["yield"]["pos_templates"])
                   for it in s["iterations"]]
            for cell, s in stats.items()},
    }


def layer_metrics(spans_path: Path, counts: dict) -> dict:
    """Per-layer metrics from the span table and the counts of one traced op."""
    names, durations, parents = [], [], []
    with open(spans_path, encoding="utf-8") as fh:
        for line in fh:
            name, start, end, parent = line.rstrip("\n").split("\t")
            names.append(name)
            durations.append(float(end) - float(start))
            parents.append(int(parent))
    total, calls, child = defaultdict(float), Counter(), defaultdict(float)
    under, under_calls = defaultdict(float), Counter()
    for name, dur, parent in zip(names, durations, parents):
        total[name] += dur
        calls[name] += 1
        if parent >= 0:
            child[parent] += dur
            under[(name, names[parent])] += dur
            under_calls[(name, names[parent])] += 1
    self_time = defaultdict(float)
    for idx, (name, dur) in enumerate(zip(names, durations)):
        self_time[name] += dur - child[idx]
    c = Counter(counts)
    scanned = c["similarity.members_scanned"]
    return {
        "corpus.load_embeddings_s": total["corpus.load_embeddings"],
        "corpus.load_corpus_s": total["corpus.load_corpus"],
        "corpus.extract_instances_s": total["corpus.extract_instances"],
        "corpus.reorder_passive_s": total["corpus.reorder_passive"],
        "corpus.embedding_words": c["corpus.embedding_words"],
        "corpus.instances": c["corpus.instances"],
        "corpus.skipped_over_limit": c["corpus.skipped_over_limit"],
        "corpus.rejected_records": c["corpus.rejected_records"],
        "corpus.vocab_used_ratio": c["corpus.vocab_found"] / c["corpus.embedding_words"],
        "similarity.sim_instances_calls": c["similarity.sim_instances_calls"],
        "similarity.above_tau_ratio": (c["similarity.above_tau"]
                                       / max(1, c["similarity.sim_instances_calls"])),
        "similarity.cluster_calls": calls["similarity.sim_instance_cluster"],
        "similarity.templateset_calls": calls["similarity.sim_instance_templateset"],
        "similarity.cache_hit_ratio": ((scanned - c["similarity.cluster_evaluations"])
                                       / max(1, scanned)),
        "engine.bootstrap_s": total["engine.bootstrap"],
        "engine.match_s": total["engine.match_channels"],
        "engine.hop1_s": total["engine.cluster_hop1"],
        "engine.hop2_s": total["engine.grow_hop2"],
        "engine.check_s": total["engine.check_instance"],
        "engine.hop3_cover_s": under[("similarity.sim_instance_cluster",
                                      "engine.bootstrap")],
        "engine.hits": c["engine.hits"],
        "engine.extractors": c["engine.extractors"],
        "engine.candidates": c["engine.candidates"],
        "engine.accepted": c["engine.accepted_new"],
        "engine.accept_ratio": c["engine.accepted_new"] / max(1, c["engine.candidates"]),
        "scoring.score_extractor_s": total["scoring.score_extractor"],
        "scoring.instance_confidence_s": total["scoring.instance_confidence"],
        "scoring.templateset_scans": under_calls[("similarity.sim_instance_templateset",
                                                  "scoring.score_extractor")],
        "model.pos_templates_final": c["model.pos_templates_final"],
        "model.pos_pairs_final": c["model.pos_pairs_final"],
        "cli.ingest_inputs_calls": calls["cli.ingest_inputs"],
        "cli.write_outputs_s": total["cli.write_outputs"],
        "cli.run_pipeline_s": total["cli.run_pipeline"],
        "evaluate.prf1_s": total["evaluate.prf1"],
        "_self_s": dict(self_time),
    }


# counts that must repeat exactly between traced operations of one run
EXACT = ("similarity.sim_instances_calls", "similarity.cluster_calls",
         "similarity.templateset_calls", "engine.hits", "engine.accepted",
         "corpus.instances", "model.pos_templates_final")


def check(ops: list[dict]) -> None:
    """Mark operations failed on any exit error, output drift or count drift."""
    good = [op for op in ops if op["ok"]]
    ref = good[0] if good else None
    ref_traced = next((op for op in good if op["trace"]), None)
    for op in good:
        if op["digest"] != ref["digest"] or (op["precision"], op["recall"]) != (
                ref["precision"], ref["recall"]):
            op["ok"] = False
            op["why"] = "outputs differ from the first operation"
        elif op["trace"] and any(op["layers"][k] != ref_traced["layers"][k]
                                 for k in EXACT):
            op["ok"] = False
            op["why"] = "traced counts differ between traced operations"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(args, work: Path) -> int:
    layout = worlds.LAYOUTS[args.workload]
    started = perf_counter()
    paths = worlds.write(layout, args.seed, work / "inputs")
    gen_s = perf_counter() - started
    print(f"provenance {json.dumps(provenance(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: N={layout.instances} d={DIM} "
          f"mode={MODE if args.workload != 'sweep-grid' else 'bree,bret,brej'} "
          f"measure={MEASURE if args.workload != 'sweep-grid' else 'all four'} "
          f"inputs generated in {gen_s:.2f} s (untimed)")

    ops: list[dict] = []
    loop_start = perf_counter()
    while True:
        trace = bool(args.trace) and len(ops) % 2 == 1
        remaining = DEADLINE_S - (perf_counter() - started)
        op = run_op(args.workload, paths, work / f"op{len(ops):03d}", trace,
                    timeout=max(1.0, remaining))
        ops.append(op)
        print(f"op {len(ops)} {'traced  ' if trace else 'untraced'} "
              f"exit={op['child_code']} "
              + (f"run_s={op['run_s']:.4f} setup_s={op['setup_s']:.4f} "
                 f"peak_rss_mb={op['peak_rss_mb']:.1f}" if op["child_code"] == 0 else ""))
        if not op["ok"]:
            print_log_tail(work / f"op{len(ops) - 1:03d}")
            break
        elapsed = perf_counter() - loop_start
        if len(ops) >= min_ops(args.trace) and elapsed + op["wall_s"] > args.seconds:
            break
        if perf_counter() - started + op["wall_s"] > DEADLINE_S:
            break
    check(ops)
    failed = [op for op in ops if not op["ok"]]
    for op in failed:
        print(f"FAILED op {ops.index(op) + 1}: {op.get('why', 'non-zero exit')}")

    good = [op for op in ops if op["ok"]]
    plain = [op for op in good if not op["trace"]]
    traced = [op for op in good if op["trace"]]
    if good:
        ref = good[0]
        print(f"outputs sha256 {ref['digest']} (information only)")
        for cell, its in ref["iterations"].items():
            print(f"iterations {cell or '.'} (hits, accepted_new, pos_templates): {its}")

    metrics: dict = {}
    if not args.trace and plain:
        pace = statistics.median(op["pace"] for op in plain)
        print(f"pace         {pace:10.4f}       median of {len(plain)} ops: host speed "
              f"over the reference speed while each operation ran")
        for name, unit, pace_key in (("run_s", "s", "pace"), ("setup_s", "s", "setup_pace"),
                                     ("peak_rss_mb", "MB", None)):
            values = [op[name] * (op[pace_key] if pace_key else 1.0) for op in plain]
            q1, _, q3 = quartiles(values)
            med = statistics.median(values)
            metrics[name] = {"value": med, "unit": unit}
            print(f"{name:<12} {med:10.4f} {unit:<5} median of {len(values)} ops "
                  f"(q1 {q1:.4f}, q3 {q3:.4f}, max {max(values):.4f}"
                  + (f"; wall-clock median {statistics.median(op[name] for op in plain):.4f}"
                     if pace_key else "") + ")")
        for name in ("precision", "recall"):
            metrics[name] = {"value": plain[0][name], "unit": "ratio"}
            print(f"{name:<12} {plain[0][name]:10.4f} ratio (cutoff 0.5, "
                  f"{'mean over cells' if args.workload == 'sweep-grid' else 'one run'})")
    elif args.trace and traced and plain:
        units = {spec["name"]: spec["unit"] for spec in per_layer_spec()}
        for name, unit in units.items():
            if name == "trace.overhead_ratio":
                value = (statistics.median(op["run_s"] for op in traced)
                         / statistics.median(op["run_s"] for op in plain))
            else:
                value = statistics.median(op["layers"][name] for op in traced)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<32} {value:14.6f} {unit}")
        base = traced[0]["layers"]["similarity.sim_instances_calls"]
        print(f"(above_tau_ratio base: {base} sim_instances evaluations per operation)")
        print("self time per span (s, first traced op): " + ", ".join(
            f"{k}={v:.4f}" for k, v in sorted(traced[0]["layers"]["_self_s"].items())))
    print(f"failed {len(failed)} of {len(ops)} attempted "
          f"({len(failed) / len(ops):.1%})")
    print(json.dumps({"correct": not failed and bool(metrics), "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def per_layer_spec() -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["per_layer"]


def run_scaling(work: Path) -> int:
    """One traced scale-brej operation per size: the quadratic series."""
    print(f"provenance {json.dumps(provenance(), sort_keys=True)}")
    print(f"{'N':>6} {'engine.bootstrap_s':>20} {'similarity.sim_instances_calls':>32}")
    for size in SCALING_SIZES:
        layout = worlds.scaled_layout(size)
        paths = worlds.write(layout, 1, work / f"inputs{size}")
        op = run_op("scale-brej", paths, work / f"op{size}", True, timeout=600.0)
        if not op["ok"]:
            print(f"N={size}: operation failed")
            print_log_tail(work / f"op{size}")
            return 1
        layers = op["layers"]
        print(f"{layers['corpus.instances']:>6} {layers['engine.bootstrap_s']:>20.3f} "
              f"{layers['similarity.sim_instances_calls']:>32}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(worlds.LAYOUTS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scaling", action="store_true",
                        help="print the one-off scale-brej scaling table instead")
    args = parser.parse_args(argv)
    if not args.scaling and args.workload is None:
        parser.error("--workload is required unless --scaling is given")
    if not (SRC / "brex" / "__init__.py").is_file():
        print(f"error: no brex sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload or 'scaling'}-{args.seed}-{os.getpid()}"
    try:
        return run_scaling(work) if args.scaling else run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


if __name__ == "__main__":
    raise SystemExit(main())
