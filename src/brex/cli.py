"""Command-line interface: run, eval, stats, hits, and sweep subcommands.

Exit codes: 0 success, 2 bad input (files, formats, config), 1 unexpected
runtime failure. A run manifest with input digests is written even when the
run fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import logging
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

from . import __version__
from .corpus import EmbeddingStore, EntityPair, HashedPath, InstanceTable, SeedFileSpec, \
    TypedEntity, extract_instances, json_kind, json_lines, json_object, json_text, \
    json_value, load_corpus, load_embeddings, parse_seed_file
# Not called here: perfbench/op.py traces this name in this module.
from .corpus import reorder_passive  # noqa: F401
from .engine import bootstrap, match_channels
from .errors import InputError
from .evaluate import ExtractorSummary, GoldKB, extractor_stats, load_gold, prf1
from .model import MODES, PAIRINGS, SCORE_AGAINST, BootstrapResult, RunConfig, \
    build_seed_state
from .similarity import MEASURE_KINDS, SimilarityGraph, SimilarityMeasure


@dataclass(frozen=True)
class Setting:
    """One run setting: its config-file key (the flag is ``--`` and the key
    with hyphens), the RunConfig field it sets (``measure.`` for a field of
    the SimilarityMeasure), the type of its value, and whether `brex sweep`
    takes a comma list of it. ``parts`` names the values of a fixed-length
    list setting. The defaults are those of the dataclasses."""

    name: str
    field: str
    kind: type
    help: str
    choices: tuple | None = None
    sweep: bool = False
    parts: tuple = ()

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def convert(self, value, path=None):
        """A flag's text or a config-file value as this setting's type, read
        by json_value once number text is read as the number it spells, and
        an integral float as the int it equals where the setting is an int
        ("2.0" is 2, as the JSON number 2.0 is). Text with an underscore or a
        character outside ASCII stays text, although int() and float() read
        "1_0" and full-width digits: it spells no JSON number. An error names
        the config file ``path`` of a value read from one."""
        kind = (self.kind,) * len(self.parts) if self.parts else self.kind

        def number(item):
            if self.kind is str or not isinstance(item, (str, float)):
                return item
            if isinstance(item, str):
                if "_" in item or not item.isascii():
                    return item
                try:
                    return int(item)
                except ValueError:
                    item = float(item)
            return int(item) if self.kind is int and item.is_integer() else item

        try:
            return json_value([number(item) for item in value] if isinstance(value, list)
                              else number(value), kind, self.name)
        except (TypeError, ValueError):
            where = f" in {path}" if path else ""
            raise InputError(f"{self.name}: expected {json_kind(kind)}, "
                             f"got {json_text(value)}{where}") from None


SETTINGS = {setting.name: setting for setting in (
    Setting("mode", "mode", str, "bootstrapping mode", MODES, sweep=True),
    Setting("sim", "measure.kind", str, "similarity measure", MEASURE_KINDS,
            sweep=True),
    Setting("sim_weights", "measure.weights", float, "window weights for --sim match",
            parts=("W_BEFORE", "W_BETWEEN", "W_AFTER")),
    Setting("tau_sim", "tau_sim", float, "similarity threshold", sweep=True),
    Setting("tau_cnf", "tau_cnf", float, "confidence threshold", sweep=True),
    Setting("wn", "w_neg", float, "weight on negative matches", sweep=True),
    Setting("wu", "w_unk", float, "weight on unknown matches", sweep=True),
    Setting("iters", "iterations", int, "bootstrapping iterations", sweep=True),
    Setting("pairing", "pairing", str, "entity pair matching", PAIRINGS, sweep=True),
    Setting("max_before", "max_before", int, "tokens kept before the first entity"),
    Setting("max_between", "max_between", int,
            "most tokens between the entities; farther pairs are skipped"),
    Setting("max_after", "max_after", int, "tokens kept after the second entity"),
    Setting("score_against", "score_against", str,
            "score extractor counts against grown or original seeds", SCORE_AGAINST),
)}

# The settings a similarity graph reads beyond the ingest: the runs that agree
# on them share the graph.
GRAPH_SETTINGS = ("sim", "sim_weights", "tau_sim")


def settings_key(cfg: RunConfig, names) -> tuple:
    """The values the named settings have in ``cfg``."""
    return tuple(reduce(getattr, SETTINGS[name].field.split("."), cfg) for name in names)


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


def _write_json(path: Path, data) -> None:
    """Write ``data`` to ``path`` as indented JSON with sorted keys."""
    with _replace_when_done(path) as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _write_jsonl(path: Path, rows) -> None:
    """Write each of ``rows`` to ``path`` as a line of JSON with sorted keys."""
    with _replace_when_done(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def build_config(args, cell: dict | None = None) -> RunConfig:
    """Merge defaults <- config file <- CLI flags <- sweep cell into a RunConfig."""
    config = getattr(args, "config", None)
    file_cfg = json_object(config, InputError) if config else {}
    unknown = sorted(set(file_cfg) - set(SETTINGS))
    if unknown:
        raise InputError(f"{config}: unknown config keys {unknown}")
    fields = {}
    for name, setting in SETTINGS.items():
        if cell and name in cell:
            fields[setting.field] = cell[name]
        elif getattr(args, name, None) is not None:
            fields[setting.field] = setting.convert(getattr(args, name))
        elif name in file_cfg:
            fields[setting.field] = setting.convert(file_cfg[name], config)
    measure = {field.removeprefix("measure."): fields.pop(field)
               for field in list(fields) if field.startswith("measure.")}
    return RunConfig(measure=SimilarityMeasure(**measure), **fields)


def config_dict(cfg: RunConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["measure"]["weights"] = list(out["measure"]["weights"])
    return out


@dataclass
class Ingested:
    """The seed file, the corpus instances and the embeddings of their words."""

    spec: SeedFileSpec
    table: InstanceTable
    emb: EmbeddingStore
    counters: dict


def ingest_inputs(corpus_path, embeddings_path, seeds_path,
                  limits: tuple[int, int, int]) -> Ingested:
    spec = parse_seed_file(seeds_path)
    loaded = load_corpus(corpus_path, set(spec.type_pair))
    # context vectors only ever look up the tokens of the sentences that can
    # yield an instance and those of the seed templates
    vocab = {tok for sent in loaded.sentences for tok in sent.tokens}
    vocab.update(tok for text in spec.positive_templates + spec.negative_templates
                 for tok in text.split())
    emb = load_embeddings(embeddings_path, vocab)
    extraction = extract_instances(loaded.sentences, emb, limits, spec.type_pair)
    counters = {
        "sentences": loaded.accepted_records,
        "rejected_records": loaded.rejected_records,
        "dropped_entities": loaded.dropped_entities,
        "instances": len(extraction.table),
        "skipped_over_limit": extraction.skipped_over_limit,
        "swapped_as_passive": extraction.swapped_as_passive,
        "dropped_by_type_gate": extraction.dropped_by_type_gate,
    }
    return Ingested(spec=spec, table=extraction.table, emb=emb,
                    counters=counters)


def write_outputs(out_dir: Path, relation: str, result: BootstrapResult,
                  counters: dict) -> None:
    _write_jsonl(out_dir / "accepted.jsonl", ({
        "relation": relation,
        "e1": instance.pair.e1.surface,
        "e2": instance.pair.e2.surface,
        "e1_type": instance.pair.e1.etype,
        "e2_type": instance.pair.e2.etype,
        "confidence": confidence,
        "sentence_ref": instance.sentence_ref,
    } for instance, confidence in result.accepted))
    _write_jsonl(out_dir / "extractors.jsonl",
                 (ExtractorSummary.from_extractor(extractor).to_dict()
                  for extractor in result.extractors))
    stats = {
        "relation": relation,
        "diagnostic": result.diagnostic,
        "iterations": result.per_iteration_stats,
        "accepted_total": len(result.accepted),
        **counters,
    }
    _write_json(out_dir / "stats.json", stats)


class RunInputs:
    """The inputs of `run`, `sweep` or `hits`, ingested once: no setting that
    ingest reads (the window limits) is sweepable, so every cell reads one
    ingest and builds its own seed state from it under its pairing. A sweep
    also keeps the gold file and threshold, and reads the gold file once per
    relation and pairing. The cells that agree on GRAPH_SETTINGS share a
    similarity graph; only the latest graph is kept, so the cells that share
    one must run one after another. The inputs are digested only when a
    manifest first asks, before ingest reads them; the digests of the corpus
    and the table then also key their indexes (see load_corpus and
    load_embeddings), so a run hashes each input at most once, and an input
    whose digest memo matches it (see brex.corpus.file_sha256) not at all."""

    def __init__(self, args):
        self.paths = (args.corpus, args.embeddings, args.seeds)
        self.gold_path = getattr(args, "gold", None)
        self.threshold = getattr(args, "threshold", None)
        self._hashed: list[HashedPath] | None = None
        self._ingested: Ingested | None = None
        self._graph_key: tuple | None = None
        self._graph: SimilarityGraph | None = None
        self._gold: dict[tuple[str, str], GoldKB | Exception] = {}

    def digests(self) -> dict:
        if self._hashed is None:
            self._hashed = [HashedPath(path) for path in self.paths]
        return {name: {"path": str(path), "sha256": path.sha256}
                for name, path in zip(("corpus", "embeddings", "seeds"), self._hashed)}

    def ingest(self, cfg: RunConfig) -> Ingested:
        if self._ingested is None:
            self._ingested = ingest_inputs(*(self._hashed or self.paths), cfg.limits)
        return self._ingested

    def graph(self, cfg: RunConfig) -> SimilarityGraph:
        """The similarity graph of cfg's ingest under its measure and tau_sim,
        with the exact values the previous runs on it filled in."""
        key = settings_key(cfg, GRAPH_SETTINGS)
        if key != self._graph_key:
            self._graph = None  # free the previous graph before building this one
            self._graph_key = key
            self._graph = SimilarityGraph(self.ingest(cfg).table, cfg.measure, cfg.tau_sim)
        return self._graph

    def gold(self, relation: str, pairing: str) -> GoldKB | None:
        """The gold pairs of ``relation`` under ``pairing``, None without a
        gold file. A gold file that cannot be read raises the same error for
        every cell that asks."""
        if self.gold_path is None:
            return None
        key = relation, pairing
        if key not in self._gold:
            try:
                self._gold[key] = load_gold(self.gold_path, relation, pairing)
            except (OSError, ValueError) as exc:
                self._gold[key] = exc
        gold = self._gold[key]
        if isinstance(gold, Exception):
            raise gold
        return gold


def write_report(path: Path, relation: str, accepted, gold: GoldKB,
                 threshold: float) -> dict:
    """Score (pair or instance, confidence) records against the gold pairs,
    write the report to ``path``, print the P/R/F1 table, return the report."""
    scores = prf1(accepted, gold, threshold=threshold)
    report = {"relation": relation, "threshold": threshold, "gold_size": len(gold),
              **scores._asdict()}
    _write_json(path, report)
    print(f"{'relation':<16}{'#out':>8}{'P':>8}{'R':>8}{'F1':>8}")
    print(f"{relation:<16}{scores.out_count:>8}"
          f"{scores.precision:>8.3f}{scores.recall:>8.3f}{scores.f1:>8.3f}")
    return report


def run_pipeline(cfg: RunConfig, inputs: RunInputs, out_dir: Path,
                 manifest: dict) -> dict | None:
    """Ingest, bootstrap, write the outputs and print the run summary; with a
    gold file, also write report.json and return the report."""
    ingested = inputs.ingest(cfg)
    seeds = build_seed_state(ingested.spec, ingested.emb, cfg.pairing)
    relation = ingested.spec.relation
    gold = inputs.gold(relation, cfg.pairing)
    result = bootstrap(ingested.table, seeds, cfg, inputs.graph(cfg))
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
        "inputs": inputs.digests(),
        "iterations": [],
    }
    code, report = 0, None
    try:
        cfg = build_config(args, cell)
        manifest["config"] = config_dict(cfg)
        report = run_pipeline(cfg, inputs, out_dir, manifest)
        manifest["status"] = "ok"
    except (OSError, ValueError) as exc:
        manifest["error"] = str(exc)
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except Exception as exc:  # noqa: BLE001 - report, record, and fail distinctly
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        print(f"internal error: {exc}", file=sys.stderr)
        code = 1
    finally:
        _write_json(out_dir / "manifest.json", manifest)
    return code, report


def _cmd_run(args) -> int:
    return run_cell(args, Path(args.out), RunInputs(args))[0]


def _read_jsonl(path: Path, parse) -> list:
    """``parse`` of each row of a JSON-lines run file (see json_lines); a row
    that ``parse`` cannot read raises InputError naming its line."""
    records = []
    for lineno, row in json_lines(path, InputError):
        try:
            records.append(parse(row))
        except (KeyError, TypeError, ValueError) as exc:
            error = f"{type(exc).__name__}: {exc}"
            raise InputError(f"{path}: line {lineno}: {error}") from None
    return records


def _accepted_record(row: dict) -> tuple[str, EntityPair, float]:
    """The relation, entity pair and confidence of an accepted.jsonl row."""
    relation, e1, e1_type, e2, e2_type = (json_value(row[key], str, key) for key in (
        "relation", "e1", "e1_type", "e2", "e2_type"))
    return (relation, EntityPair(TypedEntity(e1, e1_type), TypedEntity(e2, e2_type)),
            json_value(row["confidence"], float, "confidence"))


def _finished_run(run_dir: Path, output: str) -> dict:
    """The manifest of the run in ``run_dir``, which must hold ``output`` and
    have finished with status ok: a failed run may have left an earlier run's
    outputs behind."""
    if not (run_dir / "manifest.json").exists() or not (run_dir / output).exists():
        raise InputError(f"{run_dir}: not a run directory (missing outputs)")
    manifest = json_object(run_dir / "manifest.json", InputError)
    if manifest.get("status") != "ok":
        raise InputError(f"{run_dir}: the run's status is "
                         f"{manifest.get('status')!r}, not 'ok'; nothing to read")
    return manifest


def _cmd_eval(args) -> int:
    run_dir = Path(args.run)
    manifest = _finished_run(run_dir, "accepted.jsonl")
    records = _read_jsonl(run_dir / "accepted.jsonl", _accepted_record)
    config = manifest.get("config", {})
    if not isinstance(config, dict):
        raise InputError(f"{run_dir / 'manifest.json'}: config must be a JSON object")
    pairing = config.get("pairing", RunConfig.pairing)
    if pairing not in PAIRINGS:
        raise InputError(f"{run_dir / 'manifest.json'}: config pairing {pairing!r} "
                         f"is not one of {list(PAIRINGS)}")
    relation = "unknown"
    stats_path = run_dir / "stats.json"
    if stats_path.exists():
        relation = json_object(stats_path, InputError).get("relation", relation)
        try:
            json_value(relation, str, "relation")
        except TypeError:
            raise InputError(f"{stats_path}: relation must be a string") from None
    elif records:
        relation = records[0][0]
    gold = load_gold(args.gold, relation, pairing)
    accepted = [(pair, confidence) for _, pair, confidence in records]
    out_path = Path(args.out) if args.out else run_dir / "report.json"
    write_report(out_path, relation, accepted, gold, args.threshold)
    return 0


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.3f}"


def _cmd_stats(args) -> int:
    run_dir = Path(args.run)
    _finished_run(run_dir, "extractors.jsonl")
    summaries = _read_jsonl(run_dir / "extractors.jsonl", ExtractorSummary.from_dict)
    labels = json_object(args.labels, InputError) if args.labels else {}
    try:
        for signature, noisy in labels.items():
            json_value(noisy, bool, repr(signature))
    except TypeError as exc:
        raise InputError(f"{args.labels}: {exc}") from None
    stats = extractor_stats(summaries, labels)
    header = ("count", "AIE", "AES", "ANE", "ANNE", "ANNLC", "AP", "AN", "ANP")
    values = (str(stats.count), f"{stats.aie:.1f}", f"{stats.aes:.2f}",
              _fmt(stats.ane), _fmt(stats.anne), _fmt(stats.annlc),
              f"{stats.ap:.1f}", f"{stats.an:.1f}", _fmt(stats.anp))
    print("  ".join(f"{h:>7}" for h in header))
    print("  ".join(f"{v:>7}" for v in values))
    if args.out:
        _write_json(Path(args.out), dataclasses.asdict(stats))
    return 0


def _cmd_hits(args) -> int:
    cfg = build_config(args)
    inputs = RunInputs(args)
    ingested = inputs.ingest(cfg)
    seeds = build_seed_state(ingested.spec, ingested.emb, cfg.pairing)
    hits = match_channels(inputs.graph(cfg), seeds)
    payload = {
        "relation": ingested.spec.relation,
        "by_pair": int(hits.pos_pair.sum()),
        "by_template": int(hits.pos_template.sum()),
        "either": int(hits.matched("brej").sum()),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        _write_json(Path(args.out), payload)
    return 0


def _unit_float(text: str) -> float:
    """A flag's text as a float in [0, 1], for argparse: a confidence cutoff."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a float in [0, 1], got {text!r}")
    return value


def _parse_sweep_values(setting: Setting, text: str) -> list:
    values = [setting.convert(part.strip()) for part in text.split(",") if part.strip()]
    if not values:
        raise InputError(f"{setting.flag}: empty value list")
    return values


def _cmd_sweep(args) -> int:
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    grid = {name: _parse_sweep_values(setting, getattr(args, name))
            for name, setting in SETTINGS.items()
            if setting.sweep and getattr(args, name) is not None}
    names = sorted(grid)
    combos = list(itertools.product(*(grid[n] for n in names))) or [()]
    inputs = RunInputs(args)
    varying = [n for n in names if len(grid[n]) > 1]
    cells = [dict(zip(names, combo)) for combo in combos]
    # The cells that read one similarity graph run one after another, so a
    # single graph is alive at a time; outputs keep the grid's order.
    shared = [n for n in GRAPH_SETTINGS if n in grid]
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

    _write_json(out_root / "sweep_summary.json", summary_rows)
    return worst


def _add_config_flags(parser: argparse.ArgumentParser, sweep: bool = False) -> None:
    """One flag per setting, kept as its text (None when not given) for
    build_config to convert, so an explicit value overrides a config file.

    Under sweep, the sweepable flags accept comma-separated lists.
    """
    parser.add_argument("--config", default=None,
                        help="JSON config file; CLI flags override it")
    for name, setting in SETTINGS.items():
        listed = sweep and setting.sweep
        parser.add_argument(setting.flag, dest=name, nargs=len(setting.parts) or None,
                            metavar=setting.parts or None,
                            choices=None if listed else setting.choices,
                            help=setting.help + (" (comma list)" if listed else ""))


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
    p_eval.add_argument("--threshold", type=_unit_float, default=0.5,
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
    p_sweep.add_argument("--threshold", type=_unit_float, default=0.5)
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # bad input: files, formats, config
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
