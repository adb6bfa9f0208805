"""Command-line interface: run, eval, stats, hits, and sweep subcommands.

Exit codes: 0 success, 2 bad input (files, formats, config), 1 unexpected
runtime failure. A run manifest with input digests is written even when the
run fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .corpus import EntityPair, SeedFileSpec, TypedEntity, extract_instances, \
    load_corpus, load_embeddings, parse_seed_file, reorder_passive
from .engine import bootstrap
from .errors import InputError
from .evaluate import ExtractorSummary, GoldKB, extractor_stats, hit_count, \
    load_gold, prf1
from .model import MODES, PAIRINGS, SCORE_AGAINST, BootstrapResult, RunConfig, \
    SeedState, build_seed_state
from .similarity import MEASURE_KINDS, SimilarityGraph, SimilarityMeasure

log = logging.getLogger(__name__)

_CONFIG_KEYS = (
    "mode", "sim", "sim_weights", "tau_sim", "tau_cnf", "wn", "wu", "iters",
    "pairing", "max_before", "max_between", "max_after", "output_threshold",
    "score_against",
)


def _sha256(path) -> str | None:
    try:
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                digest.update(chunk)
        return digest.hexdigest()
    except OSError:
        return None


@contextmanager
def _replace_when_done(path: Path):
    """Open a temp file beside ``path`` for text; once the block exits cleanly
    it replaces ``path``, so a failed or killed process never leaves a
    half-written output. A symlink or an existing non-regular file (a device,
    a pipe) is written through in place instead of being replaced."""
    if path.is_symlink() or (path.exists() and not path.is_file()):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _load_config_file(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON config ({exc.msg})") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: config file must be a JSON object")
    unknown = sorted(set(data) - set(_CONFIG_KEYS))
    if unknown:
        raise InputError(f"{path}: unknown config keys {unknown}")
    return data


def build_config(args, cell: dict | None = None) -> RunConfig:
    """Merge defaults <- config file <- CLI flags <- sweep cell into a RunConfig."""
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(name, default):
        if cell and name in cell:
            return cell[name]
        value = getattr(args, name, None)
        if value is not None:
            return value
        return file_cfg.get(name, default)

    weights = pick("sim_weights", (0.2, 0.6, 0.2))
    measure = SimilarityMeasure(kind=pick("sim", "cc-asym"),
                                weights=tuple(float(w) for w in weights))
    return RunConfig(
        mode=pick("mode", "brej"),
        measure=measure,
        tau_sim=float(pick("tau_sim", 0.7)),
        tau_cnf=float(pick("tau_cnf", 0.7)),
        w_neg=float(pick("wn", 0.5)),
        w_unk=float(pick("wu", 0.0001)),
        iterations=int(pick("iters", 3)),
        pairing=pick("pairing", "ordered"),
        max_before=int(pick("max_before", 2)),
        max_between=int(pick("max_between", 6)),
        max_after=int(pick("max_after", 2)),
        output_threshold=float(pick("output_threshold", 0.5)),
        score_against=pick("score_against", "yield"),
    )


def config_dict(cfg: RunConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["measure"]["weights"] = list(out["measure"]["weights"])
    return out


@dataclass
class Ingested:
    spec: SeedFileSpec
    instances: list
    seed_state: SeedState
    counters: dict


def ingest_inputs(corpus_path, embeddings_path, seeds_path, cfg: RunConfig) -> Ingested:
    spec = parse_seed_file(seeds_path)
    loaded = load_corpus(corpus_path, set(spec.type_pair))
    # context vectors only ever look up corpus tokens and seed-template tokens
    vocab = {tok for sent in loaded.sentences for tok in sent.tokens}
    vocab.update(tok for text in spec.positive_templates + spec.negative_templates
                 for tok in text.split())
    emb = load_embeddings(embeddings_path, vocab)
    extraction = extract_instances(loaded.sentences, emb, cfg.limits, spec.type_pair)
    instances = [
        reorder_passive(inst, loaded.sentences[inst.sentence_ref].pos)
        for inst in extraction.instances
    ]
    state = build_seed_state(spec, emb, cfg.pairing)
    counters = {
        "sentences": len(loaded.sentences),
        "rejected_records": loaded.rejected_records,
        "dropped_entities": loaded.dropped_entities,
        "instances": len(instances),
        "skipped_over_limit": extraction.skipped_over_limit,
    }
    return Ingested(spec=spec, instances=instances, seed_state=state,
                    counters=counters)


def write_outputs(out_dir: Path, relation: str, result: BootstrapResult,
                  counters: dict) -> None:
    with _replace_when_done(out_dir / "accepted.jsonl") as fh:
        for instance, confidence in result.accepted:
            row = {
                "relation": relation,
                "e1": instance.pair.e1.surface,
                "e2": instance.pair.e2.surface,
                "e1_type": instance.pair.e1.etype,
                "e2_type": instance.pair.e2.etype,
                "confidence": confidence,
                "sentence_ref": instance.sentence_ref,
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    with _replace_when_done(out_dir / "extractors.jsonl") as fh:
        for extractor in result.extractors:
            summary = ExtractorSummary.from_extractor(extractor)
            fh.write(json.dumps(summary.to_dict(), sort_keys=True) + "\n")
    stats = {
        "relation": relation,
        "diagnostic": result.diagnostic,
        "iterations": result.per_iteration_stats,
        "accepted_total": len(result.accepted),
        **counters,
    }
    with _replace_when_done(out_dir / "stats.json") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")


class RunInputs:
    """The inputs of `run` or `sweep`: digested once, and ingested once per
    (pairing, window limits), the config fields ingest reads, so the cells of
    a sweep share an ingest and, per (measure, tau_sim), its similarity
    graph; for a sweep, also the gold file and threshold. Only the latest
    graph is kept, so runs that share one must come one after another."""

    def __init__(self, args):
        self.paths = (args.corpus, args.embeddings, args.seeds)
        self.digests = {
            name: {"path": str(path), "sha256": _sha256(path)}
            for name, path in zip(("corpus", "embeddings", "seeds"), self.paths)
        }
        self.gold_path = getattr(args, "gold", None)
        self.threshold = getattr(args, "threshold", None)
        self._ingested: dict[tuple, Ingested] = {}
        self._graph_key: tuple | None = None
        self._graph: SimilarityGraph | None = None

    def ingest(self, cfg: RunConfig) -> Ingested:
        key = (cfg.pairing, cfg.limits)
        if key not in self._ingested:
            self._ingested[key] = ingest_inputs(*self.paths, cfg)
        return self._ingested[key]

    def graph(self, cfg: RunConfig) -> SimilarityGraph:
        """The similarity graph of cfg's ingest under its measure and tau_sim,
        with the exact values the previous runs on it filled in."""
        key = (cfg.pairing, cfg.limits, cfg.measure, cfg.tau_sim)
        if key != self._graph_key:
            self._graph = None  # free the previous graph before building this one
            self._graph_key = key
            self._graph = SimilarityGraph(self.ingest(cfg).instances, cfg.measure,
                                          cfg.tau_sim)
        return self._graph

    def gold(self, relation: str, pairing: str) -> GoldKB | None:
        if self.gold_path:
            return load_gold(self.gold_path, relation, pairing)
        return None


def write_report(path: Path, relation: str, accepted, gold: GoldKB,
                 threshold: float) -> dict:
    """Score (pair or instance, confidence) records against the gold pairs,
    write the report to ``path``, print the P/R/F1 table, return the report."""
    scores = prf1(accepted, gold, threshold=threshold)
    report = {"relation": relation, "threshold": threshold, "gold_size": len(gold),
              **scores._asdict()}
    with _replace_when_done(path) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{'relation':<16}{'#out':>8}{'P':>8}{'R':>8}{'F1':>8}")
    print(f"{relation:<16}{scores.out_count:>8}"
          f"{scores.precision:>8.3f}{scores.recall:>8.3f}{scores.f1:>8.3f}")
    return report


def run_pipeline(cfg: RunConfig, inputs: RunInputs, out_dir: Path,
                 manifest: dict) -> dict | None:
    """Ingest, bootstrap, write the outputs and print the run summary; with a
    gold file, also write report.json and return the report."""
    ingested = inputs.ingest(cfg)
    relation = ingested.spec.relation
    gold = inputs.gold(relation, cfg.pairing)
    result = bootstrap(ingested.instances, ingested.seed_state, cfg, inputs.graph(cfg))
    manifest["iterations"] = result.per_iteration_stats
    write_outputs(out_dir, relation, result, ingested.counters)
    summary = {
        "relation": relation,
        "out": str(out_dir),
        "accepted": len(result.accepted),
        "extractors": len(result.extractors),
        "diagnostic": result.diagnostic,
        **ingested.counters,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    if gold is None:
        return None
    return write_report(out_dir / "report.json", relation, result.accepted, gold,
                        inputs.threshold)


def run_cell(args, out_dir: Path, inputs: RunInputs,
             cell: dict | None = None) -> tuple[int, dict | None]:
    """One run into ``out_dir`` with the config of ``args`` and ``cell``.

    A manifest with the input digests is written even when the run fails.
    Returns the exit code and, when ``inputs`` has a gold file, the report.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool": "brex",
        "version": __version__,
        "status": "failed",
        "error": None,
        "config": None,
        "inputs": inputs.digests,
        "iterations": [],
    }
    code, report = 0, None
    try:
        cfg = build_config(args, cell)
        manifest["config"] = config_dict(cfg)
        report = run_pipeline(cfg, inputs, out_dir, manifest)
        manifest["status"] = "ok"
    except (InputError, OSError, ValueError) as exc:
        manifest["error"] = str(exc)
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except Exception as exc:  # noqa: BLE001 - report, record, and fail distinctly
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        print(f"internal error: {exc}", file=sys.stderr)
        code = 1
    finally:
        with _replace_when_done(out_dir / "manifest.json") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return code, report


def _cmd_run(args) -> int:
    return run_cell(args, Path(args.out), RunInputs(args))[0]


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON ({exc.msg})") from None


def _read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _finished_run(run_dir: Path, output: str) -> dict:
    """The manifest of the run in ``run_dir``, which must hold ``output`` and
    have finished with status ok: a failed run may have left an earlier run's
    outputs behind."""
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists() or not (run_dir / output).exists():
        raise InputError(f"{run_dir}: not a run directory (missing outputs)")
    manifest = _read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise InputError(f"{manifest_path}: manifest must be a JSON object")
    if manifest.get("status") != "ok":
        raise InputError(f"{run_dir}: the run's status is "
                         f"{manifest.get('status')!r}, not 'ok'; nothing to read")
    return manifest


def _cmd_eval(args) -> int:
    try:
        run_dir = Path(args.run)
        manifest = _finished_run(run_dir, "accepted.jsonl")
        rows = _read_jsonl(run_dir / "accepted.jsonl")
        cfg_snapshot = manifest.get("config") or {}
        pairing = cfg_snapshot.get("pairing", "ordered")
        relation = "unknown"
        stats_path = run_dir / "stats.json"
        if stats_path.exists():
            relation = _read_json(stats_path).get("relation", relation)
        elif rows:
            relation = rows[0]["relation"]
        gold = load_gold(args.gold, relation, pairing)
        accepted = [
            (EntityPair(TypedEntity(r["e1"], r["e1_type"]),
                        TypedEntity(r["e2"], r["e2_type"])), r["confidence"])
            for r in rows
        ]
        out_path = Path(args.out) if args.out else run_dir / "report.json"
        write_report(out_path, relation, accepted, gold, args.threshold)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.3f}"


def _cmd_stats(args) -> int:
    try:
        run_dir = Path(args.run)
        _finished_run(run_dir, "extractors.jsonl")
        summaries = [ExtractorSummary.from_dict(row)
                     for row in _read_jsonl(run_dir / "extractors.jsonl")]
        labels = None
        if args.labels:
            raw = _read_json(Path(args.labels))
            if not isinstance(raw, dict):
                raise InputError(f"{args.labels}: labels must be a JSON object "
                                 "mapping extractor signatures to noisy flags")
            labels = {str(k): bool(v) for k, v in raw.items()}
        stats = extractor_stats(summaries, labels)
    except (InputError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    header = ("count", "AIE", "AES", "ANE", "ANNE", "ANNLC", "AP", "AN", "ANP")
    values = (str(stats.count), f"{stats.aie:.1f}", f"{stats.aes:.2f}",
              _fmt(stats.ane), _fmt(stats.anne), _fmt(stats.annlc),
              f"{stats.ap:.1f}", f"{stats.an:.1f}", _fmt(stats.anp))
    print("  ".join(f"{h:>7}" for h in header))
    print("  ".join(f"{v:>7}" for v in values))
    if args.out:
        with _replace_when_done(Path(args.out)) as fh:
            json.dump(dataclasses.asdict(stats), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _cmd_hits(args) -> int:
    try:
        cfg = build_config(args)
        ingested = ingest_inputs(args.corpus, args.embeddings, args.seeds, cfg)
        counts = hit_count(ingested.instances, ingested.seed_state, cfg)
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {
        "relation": ingested.spec.relation,
        "by_pair": counts.by_pair,
        "by_template": counts.by_template,
        "either": counts.either,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        with _replace_when_done(Path(args.out)) as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


_SWEEPABLE = ("mode", "sim", "tau_sim", "tau_cnf", "wn", "wu", "iters", "pairing")


def _parse_sweep_values(name: str, text: str) -> list:
    casts = {
        "mode": str, "sim": str, "pairing": str,
        "tau_sim": float, "tau_cnf": float, "wn": float, "wu": float,
        "iters": int,
    }
    values = [casts[name](part.strip()) for part in text.split(",") if part.strip()]
    if not values:
        raise InputError(f"--{name.replace('_', '-')}: empty value list")
    return values


def _cmd_sweep(args) -> int:
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    try:
        grid = {}
        for name in _SWEEPABLE:
            raw = getattr(args, name)
            if raw is not None:
                grid[name] = _parse_sweep_values(name, raw)
        names = sorted(grid)
        combos = list(itertools.product(*(grid[n] for n in names))) or [()]
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    inputs = RunInputs(args)
    varying = [n for n in names if len(grid[n]) > 1]
    cells = [dict(zip(names, combo)) for combo in combos]
    # The cells that read one similarity graph run one after another, so a
    # single graph is alive at a time; outputs keep the grid's order.
    shared = [n for n in ("pairing", "sim", "tau_sim") if n in grid]
    run_order = sorted(range(len(cells)),
                       key=lambda i: [grid[n].index(cells[i][n]) for n in shared])
    summary_rows = [None] * len(cells)
    worst = 0
    for index in run_order:
        cell = cells[index]
        slug = "_".join(f"{n.replace('_', '-')}-{cell[n]}" for n in varying)
        cell_dir = out_root / (f"cell_{index:03d}" + (f"_{slug}" if slug else ""))
        code, report = run_cell(args, cell_dir, inputs, cell)
        worst = max(worst, code)
        row = {"cell": cell_dir.name, "params": cell, "exit_code": code}
        if report is not None:
            row["scores"] = report
        summary_rows[index] = row

    with _replace_when_done(out_root / "sweep_summary.json") as fh:
        json.dump(summary_rows, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return worst


def _add_config_flags(parser: argparse.ArgumentParser, sweep: bool = False) -> None:
    """Config flags; defaults are None so explicit values can override a config file.

    Under sweep, the sweepable flags accept comma-separated lists and are kept
    as raw strings for later expansion.
    """
    suffix = " (comma list)" if sweep else ""

    def sweepable(flag, dest, kind, choices=None, help=None):
        parser.add_argument(flag, dest=dest, default=None,
                            type=str if sweep else kind,
                            choices=None if sweep else choices,
                            help=(help or dest) + suffix)

    parser.add_argument("--config", default=None,
                        help="JSON config file; CLI flags override it")
    sweepable("--mode", "mode", str, list(MODES), "bootstrapping mode")
    sweepable("--sim", "sim", str, list(MEASURE_KINDS), "similarity measure")
    parser.add_argument("--sim-weights", dest="sim_weights", nargs=3, type=float,
                        default=None, metavar=("W_BEFORE", "W_BETWEEN", "W_AFTER"),
                        help="window weights for --sim match")
    sweepable("--tau-sim", "tau_sim", float, help="similarity threshold")
    sweepable("--tau-cnf", "tau_cnf", float, help="confidence threshold")
    sweepable("--wn", "wn", float, help="weight on negative matches")
    sweepable("--wu", "wu", float, help="weight on unknown matches")
    sweepable("--iters", "iters", int, help="bootstrapping iterations")
    sweepable("--pairing", "pairing", str, list(PAIRINGS), "entity pair matching")
    parser.add_argument("--max-before", dest="max_before", type=int, default=None)
    parser.add_argument("--max-between", dest="max_between", type=int, default=None)
    parser.add_argument("--max-after", dest="max_after", type=int, default=None)
    parser.add_argument("--output-threshold", dest="output_threshold", type=float,
                        default=None)
    parser.add_argument("--score-against", dest="score_against", default=None,
                        choices=list(SCORE_AGAINST),
                        help="score extractor counts against grown or original seeds")


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--embeddings", required=True)
    parser.add_argument("--seeds", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brex",
        description="Bootstrapping relation extraction over a pre-tagged corpus",
    )
    parser.add_argument("--verbose", "-v", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="Run the bootstrap pipeline")
    _add_input_flags(p_run)
    _add_config_flags(p_run)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_eval = sub.add_parser("eval", help="Score a prior run against a gold pair list")
    p_eval.add_argument("--run", required=True, help="run output directory")
    p_eval.add_argument("--gold", required=True, help="gold file, e1<TAB>e2 per line")
    p_eval.add_argument("--threshold", type=float, default=0.5,
                        help="confidence cutoff for evaluated records")
    p_eval.add_argument("--out", default=None, help="report path (default: run dir)")
    p_eval.set_defaults(func=_cmd_eval)

    p_stats = sub.add_parser("stats", help="Extractor attribute table for a prior run")
    p_stats.add_argument("--run", required=True)
    p_stats.add_argument("--labels", default=None,
                         help="JSON file mapping extractor signature -> noisy flag")
    p_stats.add_argument("--out", default=None)
    p_stats.set_defaults(func=_cmd_stats)

    p_hits = sub.add_parser("hits", help="Iteration-1 seed-hit counts per channel")
    _add_input_flags(p_hits)
    _add_config_flags(p_hits)
    p_hits.add_argument("--out", default=None)
    p_hits.set_defaults(func=_cmd_hits)

    p_sweep = sub.add_parser("sweep", help="Grid of runs over list-valued parameters")
    _add_input_flags(p_sweep)
    _add_config_flags(p_sweep, sweep=True)
    p_sweep.add_argument("--out", required=True, help="root output directory")
    p_sweep.add_argument("--gold", default=None,
                         help="optional gold file; adds P/R/F1 per cell")
    p_sweep.add_argument("--threshold", type=float, default=0.5)
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
