"""Run one brex operation in a fresh process, optionally traced.

Usage: python3 op.py SPEC.json

SPEC is a JSON object with
  src        directory that holds the `brex` package to import
  argv       arguments for brex.cli.main (the timed operation)
  eval_argv  arguments for brex.cli.main run after the timed operation, or null
  trace      true to wrap every module's public functions
  result     path of the JSON result this process writes
  spans      path of the span table written when tracing

While the operation runs, a Pacer samples the host's speed (see its
docstring), so the runner can report times at the reference speed.

Untraced, only brex.cli.ingest_inputs is wrapped, to time set-up. Traced,
functions are wrapped at the name their caller resolves (patching
brex.scoring.score_extractor would miss the engine's calls), and
brex.similarity.sim_instances is counted without a span so the overhead
stays bounded. Spans are kept in memory and written when the process ends.
"""

from __future__ import annotations

import importlib
import json
import resource
import signal
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute, span name); the attribute is looked up by its caller
TRACED = (
    ("brex.cli", "run_pipeline", "cli.run_pipeline"),
    ("brex.cli", "write_outputs", "cli.write_outputs"),
    ("brex.cli", "prf1", "evaluate.prf1"),
    ("brex.cli", "parse_seed_file", "corpus.parse_seed_file"),
    ("brex.cli", "load_corpus", "corpus.load_corpus"),
    ("brex.cli", "load_embeddings", "corpus.load_embeddings"),
    ("brex.cli", "extract_instances", "corpus.extract_instances"),
    ("brex.cli", "reorder_passive", "corpus.reorder_passive"),
    ("brex.cli", "build_seed_state", "model.build_seed_state"),
    ("brex.cli", "bootstrap", "engine.bootstrap"),
    ("brex.engine", "match_channels", "engine.match_channels"),
    ("brex.engine", "cluster_hop1", "engine.cluster_hop1"),
    ("brex.engine", "grow_hop2", "engine.grow_hop2"),
    ("brex.engine", "check_instance", "engine.check_instance"),
    ("brex.engine", "score_extractor", "scoring.score_extractor"),
    ("brex.engine", "instance_confidence", "scoring.instance_confidence"),
    ("brex.engine", "sim_instance_cluster", "similarity.sim_instance_cluster"),
    ("brex.scoring", "sim_instance_cluster", "similarity.sim_instance_cluster"),
    ("brex.engine", "sim_instance_templateset", "similarity.sim_instance_templateset"),
    ("brex.scoring", "sim_instance_templateset", "similarity.sim_instance_templateset"),
)
CLUSTER_SPAN = "similarity.sim_instance_cluster"


class Tracer:
    """Spans (name, start, end, parent index) in parallel lists, plus counts."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.tau = 1.0
        self.seen: dict = {}  # ingest results awaiting the vocabulary ratio

    def span(self, name, fn, before=None, after=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack)

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def intervals(self, name) -> list[tuple[float, float]]:
        return [(s, e) for n, s, e in zip(self.names, self.starts, self.ends)
                if n == name]

    def total(self, name) -> float:
        return sum(e - s for s, e in self.intervals(name))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write("%s\t%r\t%r\t%d\n" % row)

    # --- hooks that read counts off arguments and results -------------------

    def on_bootstrap_start(self, args, kwargs):
        self.tau = (args[2] if len(args) > 2 else kwargs["cfg"]).tau_sim

    def on_bootstrap(self, args, kwargs, result):
        for row in result.per_iteration_stats:
            for key in ("hits", "extractors", "candidates", "accepted_new"):
                self.counts["engine." + key] += row[key]
        sizes = result.yield_state.sizes()
        self.counts["model.pos_templates_final"] += sizes["pos_templates"]
        self.counts["model.pos_pairs_final"] += sizes["pos_pairs"]

    def on_cluster(self, args, kwargs, result):
        members = args[1] if len(args) > 1 else kwargs["members"]
        self.counts["similarity.members_scanned"] += len(members)

    def on_ingest(self, args, kwargs, result):
        for key in ("instances", "skipped_over_limit", "rejected_records"):
            self.counts["corpus." + key] += result.counters[key]
        emb, tokens = self.seen.pop("emb"), self.seen.pop("tokens")
        tokens |= self.seen.pop("seed_tokens")
        self.counts["corpus.embedding_words"] += len(emb)
        self.counts["corpus.vocab_found"] += sum(1 for t in tokens if t in emb)

    def hooks(self, name):
        seen = self.seen
        return {
            "engine.bootstrap": (self.on_bootstrap_start, self.on_bootstrap),
            CLUSTER_SPAN: (None, self.on_cluster),
            "cli.ingest_inputs": (None, self.on_ingest),
            "corpus.load_embeddings": (
                None, lambda a, k, r: seen.__setitem__("emb", r)),
            "corpus.load_corpus": (None, lambda a, k, r: seen.__setitem__(
                "tokens", {t for s in r.sentences for t in s.tokens})),
            "corpus.parse_seed_file": (None, lambda a, k, r: seen.__setitem__(
                "seed_tokens", {t for text in r.positive_templates
                                + r.negative_templates for t in text.split()})),
        }.get(name, (None, None))

    def count_sim_instances(self, fn):
        """Count scalar evaluations, those >= tau_sim, and those made on a
        cluster-cache miss; no span per call."""
        counts, names, stack = self.counts, self.names, self.stack

        def counted(i, j, measure):
            value = fn(i, j, measure)
            counts["similarity.sim_instances_calls"] += 1
            if value >= self.tau:
                counts["similarity.above_tau"] += 1
            if stack[-1] >= 0 and names[stack[-1]] == CLUSTER_SPAN:
                counts["similarity.cluster_evaluations"] += 1
            return value
        return counted


def install(tracer: Tracer, traced: bool) -> None:
    ingest = ("brex.cli", "ingest_inputs", "cli.ingest_inputs")
    for module_name, attr, name in TRACED + (ingest,) if traced else (ingest,):
        module = importlib.import_module(module_name)
        before, after = tracer.hooks(name) if traced else (None, None)
        setattr(module, attr, tracer.span(name, getattr(module, attr), before, after))
    if traced:
        import brex.similarity
        brex.similarity.sim_instances = tracer.count_sim_instances(
            brex.similarity.sim_instances)


# The pace probe: a fixed piece of work shaped like brex's inner loop (parse
# vector text, then a cached max over small dot products), run every
# PACE_PERIOD_S of wall time on the operation's own thread. PACE_REF_S is its
# typical duration on the reference machine (see README, "Noise and bounds").
PACE_PERIOD_S = 0.025
PACE_REF_S = 0.0006
PACE_ROWS = [" ".join([f"p{k}"] + [f"{((k * 50 + c) * 0.6180339887) % 2 - 1:.6f}"
                                   for c in range(50)]) for k in range(18)]


class Pacer:
    """Samples the host's speed while an operation runs, from a SIGALRM handler.

    The host's speed drifts by tens of percent within seconds and minutes, and
    the operation slows with it. ``pace()`` is the mean over the samples of
    PACE_REF_S / probe seconds: the host's speed over the reference speed,
    averaged over the operation's wall time. Wall time times pace is the time
    the operation would have taken at the reference speed.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end, seconds)

    def probe(self, signum=None, frame=None):
        started = perf_counter()
        contexts = [tuple(np.array([float(x) for x in line.split()[1:]])
                          for line in PACE_ROWS[k:k + 3])
                    for k in range(0, len(PACE_ROWS), 3)]
        cache = {}
        for i, a in enumerate(contexts):
            for j, b in enumerate(contexts):
                if cache.get((i, j)) is None:
                    vb = b[1]
                    value = max(float(a[0] @ vb), float(a[1] @ vb), float(a[2] @ vb))
                    cache[(i, j)] = min(1.0, max(0.0, value))
        ended = perf_counter()
        self.samples.append((ended, ended - started))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PACE_PERIOD_S, PACE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def pace(self, within=None) -> float:
        """Mean pace over the samples, or over those that ended inside one of
        the ``within`` intervals when there are any."""
        samples = [d for t, d in self.samples
                   if within is None or any(s <= t <= e for s, e in within)]
        if not samples:
            return 1.0 if within is None else self.pace()
        return PACE_REF_S * sum(1.0 / d for d in samples) / len(samples)


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import brex.cli
    if Path(brex.__file__).resolve().parent != src / "brex":
        print(f"imported brex from {brex.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = Tracer()
    install(tracer, spec["trace"])

    pacer = Pacer()
    with pacer:
        start = perf_counter()
        code = brex.cli.main(spec["argv"])
        run_s = perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    eval_code = 0
    if spec["eval_argv"] and code == 0:
        eval_code = brex.cli.main(spec["eval_argv"])

    result = {"exit_code": code, "eval_exit_code": eval_code, "run_s": run_s,
              "setup_s": tracer.total("cli.ingest_inputs"), "peak_rss_mb": rss_mb,
              "counts": dict(tracer.counts), "pace": pacer.pace(),
              "setup_pace": pacer.pace(tracer.intervals("cli.ingest_inputs"))}
    if spec["trace"]:
        tracer.write(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
