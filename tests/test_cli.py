"""CLI subcommands: exit codes, outputs, manifest, config precedence, sweep."""

import argparse
import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import brex.cli
import brex.corpus
import brex.engine
import support
from support import INT_DIGITS, needs_int_limit
from brex.cli import SETTINGS, config_dict, main
from brex.model import RunConfig
from brex.similarity import SimilarityGraph
from brex.synth import build_biset_fixture, build_planted_fixture


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    build_planted_fixture(n_sentences=80).write(out)
    return out


def run_args(data_dir, out_dir, *extra):
    return ["run",
            "--corpus", str(data_dir / "corpus.jsonl"),
            "--embeddings", str(data_dir / "embeddings.txt"),
            "--seeds", str(data_dir / "seeds.json"),
            "--out", str(out_dir), *extra]


def hits_args(data_dir, out_path, *extra):
    return ["hits",
            "--corpus", str(data_dir / "corpus.jsonl"),
            "--embeddings", str(data_dir / "embeddings.txt"),
            "--seeds", str(data_dir / "seeds.json"),
            "--out", str(out_path), *extra]


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line]


@contextlib.contextmanager
def fifos(directory, source, names):
    """A FIFO ``directory / name`` for each of ``names``, fed the bytes of
    ``source / name`` by its own writer thread; yields ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    done = threading.Event()
    writers = []
    for name in names:
        os.mkfifo(directory / name)
        writers.append(threading.Thread(target=_feed, args=(
            directory / name, (source / name).read_bytes(), done)))
        writers[-1].start()
    try:
        yield directory
    finally:
        done.set()
        for writer, name in zip(writers, names):
            while writer.is_alive():  # waiting for a reader: be one
                os.close(os.open(directory / name, os.O_RDWR | os.O_NONBLOCK))
                writer.join(timeout=0.1)


def _feed(fifo, data, done):
    """Write ``data`` to the first reader of ``fifo``; then, until ``done``,
    let a reader that opens it again read no bytes within a second rather
    than wait for ever."""
    try:
        fifo.write_bytes(data)
    except BrokenPipeError:  # no reader took the data
        return
    while not done.wait(1):
        os.close(os.open(fifo, os.O_RDWR | os.O_NONBLOCK))


def snapshot_value(config, setting):
    """The value ``setting`` sets in a manifest's config snapshot."""
    for name in setting.field.split("."):
        config = config[name]
    return config


def flag_args(setting, value):
    values = value if isinstance(value, list) else [value]
    return [setting.flag, *map(str, values)]


class TestRun:
    def test_happy_path_writes_outputs(self, data_dir, tmp_path):
        out = tmp_path / "run"
        assert main(run_args(data_dir, out, "--mode", "brej")) == 0
        for name in ("accepted.jsonl", "extractors.jsonl", "stats.json",
                     "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["config"]["mode"] == "brej"
        assert all(v["sha256"] for v in manifest["inputs"].values())
        assert manifest["iterations"]
        rows = read_jsonl(out / "accepted.jsonl")
        assert rows and all(r["confidence"] >= 0.7 for r in rows)

    def test_a_run_does_not_import_numpy_ma(self, data_dir, tmp_path):
        """numpy.ma costs a fresh process ~15 ms to import, and np.isin and a
        plain np.unique (no return_index, return_inverse or return_counts)
        import it. A run, cold and then warm, imports it nowhere."""
        src = str(Path(brex.__file__).resolve().parent.parent)
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for name in ("cold", "warm"):
            code = ("import sys; from brex.cli import main; "
                    f"code = main({run_args(data_dir, tmp_path / name)!r}); "
                    "print(code, 'numpy.ma' in sys.modules)")
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=False)
            assert proc.stdout.splitlines()[-1].split() == ["0", "False"], proc.stderr
        assert len(support.table_indexes(tmp_path / "cache" / "brex")) == 1

    def test_run_builds_instances_of_extractor_members_and_accepted_rows_only(
            self, data_dir, tmp_path, monkeypatch):
        """A run asks its instance table for the Instance of a row only where
        the row is in some extractor (hop 2 holds every hop-1 member) or is
        accepted: the table's cache of built rows is exactly those rows, and
        they are fewer than the rows."""
        ingested, members, results = [], set(), []
        ingest, grow, bootstrap = brex.cli.ingest_inputs, brex.engine.grow_hop2, \
            brex.cli.bootstrap

        def recorded_ingest(*args):
            ingested.append(ingest(*args))
            return ingested[-1]

        def recorded_grow(graph, theta):
            extractors = grow(graph, theta)
            members.update(row for extractor in extractors for row in extractor.rows)
            return extractors

        def recorded_bootstrap(*args):
            results.append(bootstrap(*args))
            return results[-1]

        monkeypatch.setattr(brex.cli, "ingest_inputs", recorded_ingest)
        monkeypatch.setattr(brex.engine, "grow_hop2", recorded_grow)
        monkeypatch.setattr(brex.cli, "bootstrap", recorded_bootstrap)
        assert main(run_args(data_dir, tmp_path / "run")) == 0
        table = ingested[0].table
        accepted = {table.row_of(instance.template) for instance, _ in results[0].accepted}
        assert accepted and None not in accepted
        assert set(table._instances) == members | accepted
        assert len(members | accepted) < len(table)

    def test_type_pair_without_instances_runs_to_empty_outputs(self, data_dir, tmp_path,
                                                                capsys):
        """A type pair no sentence holds yields no instance: the graph has no
        row, and the seed templates match nothing."""
        seeds = json.loads((data_dir / "seeds.json").read_text())
        assert seeds["positive_templates"]
        seeds["type_pair"] = ["LOC", "LOC"]
        (tmp_path / "seeds.json").write_text(json.dumps(seeds))
        out = tmp_path / "run"
        args = run_args(data_dir, out)
        args[args.index("--seeds") + 1] = str(tmp_path / "seeds.json")
        assert main(args) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["instances"] == 0
        assert summary["diagnostic"] == "no instance matched the initial seeds"
        assert (out / "accepted.jsonl").read_text() == ""
        assert (out / "extractors.jsonl").read_text() == ""

    def test_boolean_entity_offset_exits_2(self, data_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text((data_dir / "corpus.jsonl").read_text() + json.dumps(
            {"tokens": ["Acme", "bought", "Bolt"],
             "entities": [{"start": False, "end": True, "type": "ORG"},
                          {"start": 2, "end": 3, "type": "ORG"}]}) + "\n")
        lineno = len(corpus.read_text().splitlines())
        out = tmp_path / "run"
        args = run_args(data_dir, out)
        args[args.index("--corpus") + 1] = str(corpus)
        assert main(args) == 2
        assert f"line {lineno}: " in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"

    def test_missing_embeddings_exits_2_with_manifest(self, data_dir, tmp_path):
        out = tmp_path / "run"
        code = main(["run",
                     "--corpus", str(data_dir / "corpus.jsonl"),
                     "--embeddings", str(data_dir / "nope.txt"),
                     "--seeds", str(data_dir / "seeds.json"),
                     "--out", str(out)])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]
        assert manifest["inputs"]["embeddings"]["sha256"] is None
        assert manifest["inputs"]["corpus"]["sha256"]

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_embedding_exits_2(self, data_dir, tmp_path, bad):
        lines = (data_dir / "embeddings.txt").read_text().splitlines()
        word, *values = lines[1].split()
        lines[1] = " ".join([word, bad, *values[1:]])
        embeddings = tmp_path / "embeddings.txt"
        embeddings.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        code = main(["run",
                     "--corpus", str(data_dir / "corpus.jsonl"),
                     "--embeddings", str(embeddings),
                     "--seeds", str(data_dir / "seeds.json"),
                     "--out", str(out)])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "line 2: non-finite" in manifest["error"]

    def test_overflowing_context_exits_2(self, data_dir, tmp_path):
        """A finite row whose context vectors overflow float64 exits 2 naming
        the tokens, rather than making their similarities silently zero."""
        lines = (data_dir / "embeddings.txt").read_text().splitlines()
        word, *values = lines[0].split()
        lines[0] = " ".join([word, "1e200", *values[1:]])
        embeddings = tmp_path / "embeddings.txt"
        embeddings.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        code = main(["run",
                     "--corpus", str(data_dir / "corpus.jsonl"),
                     "--embeddings", str(embeddings),
                     "--seeds", str(data_dir / "seeds.json"),
                     "--out", str(out)])
        assert code == 2
        error = json.loads((out / "manifest.json").read_text())["error"]
        assert f"'{word}'" in error
        assert "overflows: its sum or norm is not finite" in error

    @pytest.mark.parametrize("last, message", [
        ("0 0", "components, found"),
        ("abc", "non-numeric component"),
        ("inf", "non-finite component"),
    ])
    def test_bad_unused_embedding_row_exits_2(self, data_dir, tmp_path, last,
                                              message):
        lines = (data_dir / "embeddings.txt").read_text().splitlines()
        dim = len(lines[0].split()) - 1
        lines.append(" ".join(["never_in_corpus", *["0"] * (dim - 1), last]))
        embeddings = tmp_path / "embeddings.txt"
        embeddings.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        code = main(["run",
                     "--corpus", str(data_dir / "corpus.jsonl"),
                     "--embeddings", str(embeddings),
                     "--seeds", str(data_dir / "seeds.json"),
                     "--out", str(out)])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert f"line {len(lines)}: " in manifest["error"]
        assert message in manifest["error"]

    def test_crash_while_writing_keeps_previous_file(self, data_dir, tmp_path,
                                                    monkeypatch):
        out = tmp_path / "run"
        assert main(run_args(data_dir, out)) == 0
        before = (out / "extractors.jsonl").read_bytes()

        def crash(extractor):
            raise RuntimeError("crash while writing")

        monkeypatch.setattr(brex.cli.ExtractorSummary, "from_extractor", crash)
        assert main(run_args(data_dir, out)) == 1
        assert (out / "extractors.jsonl").read_bytes() == before
        assert not list(out.glob("*.tmp"))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"

    def test_split_table_gives_the_one_range_outputs(self, data_dir, tmp_path, capsys):
        """The corpus and the table, each cut into three ranges, give the
        outputs and the warnings of one range."""
        one = tmp_path / "one"
        assert main(run_args(data_dir, one)) == 0
        one_err = capsys.readouterr().err
        parse_split = brex.corpus._parse_split
        merged = []

        def spy(*args):
            merged.append(parse_split(*args))
            return merged[-1]

        split = tmp_path / "split"
        # a fresh cache: the first run's indexes would spare both parses
        with support.fresh_cache() as cache, \
                mock.patch.object(brex.corpus, "_MIN_TABLE_RANGE_BYTES", 1), \
                mock.patch.object(brex.corpus, "_MIN_CORPUS_RANGE_BYTES", 1), \
                mock.patch.object(os, "sched_getaffinity", return_value={0, 1, 2}), \
                mock.patch.object(brex.corpus, "_parse_split", spy):
            assert main(run_args(data_dir, split)) == 0
            assert len(list(cache.iterdir())) == 2  # the split parses wrote both indexes
        corpus_parts, table_parts = merged
        # the three ranges of each file were merged
        assert len(corpus_parts) == len(table_parts) == 3
        assert capsys.readouterr().err == one_err
        for name in ("accepted.jsonl", "extractors.jsonl", "stats.json"):
            assert (split / name).read_bytes() == (one / name).read_bytes()

    def test_piped_corpus_and_seeds_give_the_file_outputs(self, data_dir, tmp_path,
                                                          capsys):
        """A corpus and a seed file read from FIFOs give the outputs of the
        regular files, with no digest; a FIFO table exits 2."""
        files = tmp_path / "files"
        assert main(run_args(data_dir, files)) == 0
        piped = tmp_path / "piped"
        with fifos(tmp_path, data_dir, ["corpus.jsonl", "seeds.json"]) as inputs:
            (inputs / "embeddings.txt").symlink_to(data_dir / "embeddings.txt")
            assert main(run_args(inputs, piped)) == 0
        for name in ("accepted.jsonl", "extractors.jsonl", "stats.json"):
            assert (piped / name).read_bytes() == (files / name).read_bytes()
        digests = json.loads((piped / "manifest.json").read_text())["inputs"]
        assert [digests[name]["sha256"] for name in ("corpus", "seeds")] == [None, None]
        assert digests["embeddings"]["sha256"]
        capsys.readouterr()
        with fifos(tmp_path / "table", data_dir, ["embeddings.txt"]) as inputs:
            for name in ("corpus.jsonl", "seeds.json"):
                (inputs / name).symlink_to(data_dir / name)
            assert main(run_args(inputs, tmp_path / "bad")) == 2
        assert (f"{inputs / 'embeddings.txt'}: not a regular file"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key, template, problem", [
        ("positive_templates", "[X] bought", "needs exactly one [X] and one [Y]"),
        ("negative_templates", "[Y] sold [X]", "[X] must precede [Y]"),
    ])
    def test_bad_seed_template_exits_2_before_ingest(self, data_dir, tmp_path, capsys,
                                                     monkeypatch, key, template, problem):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for other in ("corpus.jsonl", "embeddings.txt"):
            (inputs / other).symlink_to(data_dir / other)
        seeds = json.loads((data_dir / "seeds.json").read_text())
        seeds[key] = [template]
        (inputs / "seeds.json").write_text(json.dumps(seeds))
        loads = []
        monkeypatch.setattr(brex.cli, "load_corpus", lambda *args: loads.append(args))
        assert main(run_args(inputs, tmp_path / "run")) == 2
        assert loads == []
        assert (f"error: {inputs / 'seeds.json'}: '{key}' entry {template!r}: {problem}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("name, lineno", [
        ("corpus.jsonl", 3), ("embeddings.txt", 2), ("seeds.json", 1),
        ("config.json", 2), ("gold.tsv", 4), ("manifest.json", 3), ("stats.json", 2),
        ("accepted.jsonl", 2), ("labels.json", 1), ("extractors.jsonl", 1),
    ])
    def test_non_utf8_input_names_file_and_line(self, data_dir, tmp_path, capsys,
                                                 name, lineno):
        """A byte that is not UTF-8 exits 2 naming the file and its line: in an
        input of `brex run`, or in a file that `brex eval` or `brex stats`
        reads."""
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for other in ("corpus.jsonl", "embeddings.txt", "seeds.json", "gold.tsv"):
            (inputs / other).symlink_to(data_dir / other)
        (inputs / "config.json").write_text('{\n  "mode": "brej"\n}\n')
        (inputs / "labels.json").write_text("{}\n")
        out = tmp_path / "run"
        args = run_args(inputs, out, "--config", str(inputs / "config.json"))
        evaluate = ["eval", "--run", str(out), "--gold", str(inputs / "gold.tsv")]
        stats = ["stats", "--run", str(out), "--labels", str(inputs / "labels.json")]
        reader = {"gold.tsv": evaluate, "manifest.json": evaluate,
                  "stats.json": evaluate, "accepted.jsonl": evaluate,
                  "labels.json": stats, "extractors.jsonl": stats}.get(name)
        if reader:
            assert main(args) == 0
            args = reader
        named = inputs / name if (inputs / name).exists() else out / name
        lines = named.read_bytes().splitlines(keepends=True)
        lines[lineno - 1] = b"\xff" + lines[lineno - 1]
        named.unlink()  # an input is a symlink into the shared fixture
        named.write_bytes(b"".join(lines))
        capsys.readouterr()
        assert main(args) == 2
        assert (f"error: {named}: line {lineno}: not UTF-8 (byte 0xff"
                in capsys.readouterr().err)

    def test_out_of_range_threshold_exits_2(self, data_dir, tmp_path):
        assert main(run_args(data_dir, tmp_path / "r", "--tau-sim", "1.5")) == 2

    def test_non_finite_weight_flag_exits_2(self, data_dir, tmp_path, capsys):
        assert main(run_args(data_dir, tmp_path / "r", "--wn", "nan")) == 2
        assert "error: wn: expected finite float, got 'nan'" in capsys.readouterr().err

    def test_unknown_mode_is_usage_error(self, data_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(run_args(data_dir, tmp_path / "r", "--mode", "nope"))
        assert exc.value.code == 2
        assert "bree" in capsys.readouterr().err

    def test_config_file_and_cli_precedence(self, data_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tau_sim": 0.8, "tau_cnf": 0.75,
                                      "mode": "bree"}))
        out = tmp_path / "run"
        code = main(run_args(data_dir, out, "--config", str(config),
                             "--tau-cnf", "0.6"))
        assert code == 0
        snapshot = json.loads((out / "manifest.json").read_text())["config"]
        assert snapshot["tau_sim"] == 0.8      # from the config file
        assert snapshot["tau_cnf"] == 0.6      # CLI overrides the file
        assert snapshot["mode"] == "bree"      # from the config file
        assert snapshot["w_neg"] == 0.5        # untouched default

    @pytest.mark.parametrize("value, problem", [
        ("[" * 100_000, "nested too deeply"),
        pytest.param("7" * (INT_DIGITS + 1), f"Exceeds the limit ({INT_DIGITS} digits)",
                     marks=needs_int_limit),
    ], ids=["deep", "long-int"])
    def test_unreadable_json_config_exits_2(self, data_dir, tmp_path, capsys, value,
                                            problem):
        config = tmp_path / "config.json"
        config.write_text('{"iters": ' + value + "}")
        assert main(run_args(data_dir, tmp_path / "r", "--config", str(config))) == 2
        assert f"error: {config}: invalid JSON ({problem}" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, data_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tau": 0.8}))
        assert main(run_args(data_dir, tmp_path / "r",
                             "--config", str(config))) == 2

    def test_simple_weight_preset_flags(self, data_dir, tmp_path):
        out = tmp_path / "run"
        assert main(run_args(data_dir, out, "--wn", "1.0", "--wu", "0.0")) == 0
        snapshot = json.loads((out / "manifest.json").read_text())["config"]
        assert snapshot["w_neg"] == 1.0 and snapshot["w_unk"] == 0.0


# Per setting, a value for the config file, which is not the default, and
# another for its flag.
SETTING_VALUES = {
    "mode": ("bree", "bret"),
    "sim": ("match", "cc-sym1"),
    "sim_weights": ([0.5, 0.3, 0.2], [0.1, 0.8, 0.1]),
    "tau_sim": (0.8, 0.6),
    "tau_cnf": (0.75, 0.6),
    "wn": (1.0, 0.25),
    "wu": (0.0, 0.01),
    "iters": (2, 1),
    "pairing": ("biset", "ordered"),
    "max_before": (1, 3),
    "max_between": (4, 5),
    "max_after": (1, 3),
    "score_against": ("original", "yield"),
}


@pytest.fixture(scope="module")
def default_snapshot(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("default_run")
    assert main(run_args(data_dir, out)) == 0
    return json.loads((out / "manifest.json").read_text())["config"]


class TestSettings:
    def test_settings_cover_every_config_field(self):
        defaults = config_dict(RunConfig())
        fields = {name for name in defaults if name != "measure"}
        fields |= {f"measure.{name}" for name in defaults["measure"]}
        assert sorted(setting.field for setting in SETTINGS.values()) == sorted(fields)
        assert set(SETTING_VALUES) == set(SETTINGS)

    @pytest.mark.parametrize("name", sorted(SETTINGS))
    def test_setting_reaches_the_manifest(self, data_dir, tmp_path, default_snapshot,
                                          name):
        setting, (file_value, flag_value) = SETTINGS[name], SETTING_VALUES[name]
        assert default_snapshot == config_dict(RunConfig())
        assert snapshot_value(default_snapshot, setting) not in (file_value, None)
        assert flag_value != file_value
        config = tmp_path / "config.json"
        config.write_text(json.dumps({name: file_value}))
        for out, flags, expected in (("file", [], file_value),
                                     ("flag", flag_args(setting, flag_value), flag_value)):
            assert main(run_args(data_dir, tmp_path / out, "--config", str(config),
                                 *flags)) == 0
            snapshot = json.loads((tmp_path / out / "manifest.json").read_text())["config"]
            assert snapshot_value(snapshot, setting) == expected
        if not setting.sweep:
            return
        out = tmp_path / "sweep"
        run = run_args(data_dir, out)
        assert main(["sweep", *run[1:], setting.flag,
                     f"{file_value},{flag_value}"]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert [row["params"] for row in summary] == [{name: file_value},
                                                      {name: flag_value}]
        assert [snapshot_value(json.loads((out / row["cell"] / "manifest.json")
                                          .read_text())["config"], setting)
                for row in summary] == [file_value, flag_value]

    @pytest.mark.parametrize("value", [{"sim_weights": 5}, {"iters": None},
                                       {"tau_sim": [0.8]}, {"iters": True},
                                       {"tau_sim": True}, {"max_between": False},
                                       {"sim_weights": [1, True, 1]},
                                       {"iters": 1.9}, {"iters": math.inf},
                                       {"wn": math.nan}, {"wu": math.inf},
                                       {"sim_weights": [math.nan, 0.5, 0.5]},
                                       {"iters": "1_0"}, {"tau_sim": "０.７"},
                                       {"max_after": "٣"}])
    def test_wrong_type_config_value_exits_2(self, data_dir, tmp_path, capsys, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(value))
        out = tmp_path / "run"
        assert main(run_args(data_dir, out, "--config", str(config))) == 2
        [name] = value
        assert f"error: {name}: " in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["error"].startswith(name)

    def test_config_value_text_is_converted(self, data_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tau_sim": "0.8", "iters": "2"}))
        out = tmp_path / "run"
        assert main(run_args(data_dir, out, "--config", str(config))) == 0
        snapshot = json.loads((out / "manifest.json").read_text())["config"]
        assert snapshot["tau_sim"] == 0.8 and snapshot["iterations"] == 2

    def test_integral_float_text_is_an_int(self, data_dir, tmp_path):
        """--iters 2.0 reads as the JSON number 2.0 does: 2 iterations."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_after": "1.0"}))
        out = tmp_path / "run"
        assert main(run_args(data_dir, out, "--iters", "2.0", "--config", str(config))) == 0
        snapshot = json.loads((out / "manifest.json").read_text())["config"]
        assert snapshot["iterations"] == 2 and snapshot["max_after"] == 1
        assert len(json.loads((out / "stats.json").read_text())["iterations"]) == 2
        run = run_args(data_dir, tmp_path / "sweep")
        assert main(["sweep", *run[1:], "--iters", "1.0,2"]) == 0
        summary = json.loads((tmp_path / "sweep" / "sweep_summary.json").read_text())
        assert [row["params"] for row in summary] == [{"iters": 1}, {"iters": 2}]

    @pytest.mark.parametrize("text", ["1.9", "1e400"])
    def test_non_integral_int_text_exits_2(self, data_dir, tmp_path, capsys, text):
        out = tmp_path / "run"
        assert main(run_args(data_dir, out, "--iters", text)) == 2
        assert f"error: iters: expected int, got '{text}'" in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"

    @pytest.mark.parametrize("name, text, kind", [
        ("iters", "1_0", "int"), ("tau_sim", "０.７", "finite float"),
        ("wn", "1_000.5", "finite float"), ("max_after", "٣", "int")])
    def test_number_text_json_cannot_spell_exits_2(self, data_dir, tmp_path, capsys,
                                                    name, text, kind):
        """int() and float() read "1_0" and non-ASCII digits; brex does not."""
        assert main(run_args(data_dir, tmp_path / "run", SETTINGS[name].flag, text)) == 2
        assert f"error: {name}: expected {kind}, got '{text}'\n" in capsys.readouterr().err

    def test_bad_sweep_value_exits_2(self, data_dir, tmp_path, capsys):
        run = run_args(data_dir, tmp_path / "sweep")
        assert main(["sweep", *run[1:], "--tau-sim", "0.7,high"]) == 2
        assert "error: tau_sim: " in capsys.readouterr().err


@pytest.fixture(scope="module")
def evaluated_run(data_dir, tmp_path_factory):
    """A finished default run with its report.json."""
    out = tmp_path_factory.mktemp("evaluated") / "run"
    assert main(run_args(data_dir, out)) == 0
    assert main(["eval", "--run", str(out), "--gold", str(data_dir / "gold.tsv")]) == 0
    return out


class TestEval:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_accepted_rows_read_as_json_loads_reads_them(self, data_dir, evaluated_run,
                                                         tmp_path, capsys, data):
        """The rows of accepted.jsonl spelled any way (see
        support.json_spelling), among lines of whitespace and maybe a line
        that is not an object, with any line ends: eval gives the report of
        the rows as written, or the error line json.loads leads to."""
        rows = (evaluated_run / "accepted.jsonl").read_text().splitlines()
        lines = [data.draw(support.json_spelling(json.loads(row))) for row in rows]
        for _ in range(data.draw(st.integers(0, 3))):
            lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(
                ["", " ", "\t", "\u3000", "\x1c", "\ufeff" + rows[0], rows[0] + " x",
                 "[1, 2]", "NaN", "-3"])))
        text = "".join(line + data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
                       for line in lines)
        run = tempfile.mkdtemp(dir=tmp_path)
        for name in ("manifest.json", "stats.json"):
            shutil.copy(evaluated_run / name, run)
        accepted = os.path.join(run, "accepted.jsonl")
        with open(accepted, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        expected = support.reference_json_lines(accepted, text)
        capsys.readouterr()
        code = main(["eval", "--run", run, "--gold", str(data_dir / "gold.tsv")])
        if isinstance(expected, str):
            assert (code, capsys.readouterr().err) == (2, f"error: {expected}\n")
        else:
            assert code == 0
            with open(os.path.join(run, "report.json"), "rb") as fh:
                assert fh.read() == (evaluated_run / "report.json").read_bytes()

    def test_round_trip(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(run_args(data_dir, out, "--mode", "brej")) == 0
        assert main(["eval", "--run", str(out),
                     "--gold", str(data_dir / "gold.tsv")]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["precision"] == 1.0
        assert report["recall"] == 1.0
        assert report["gold_size"] == 10
        table = capsys.readouterr().out
        assert "acquired" in table and "F1" in table

    def test_symlinked_out_is_written_through(self, data_dir, tmp_path):
        out = tmp_path / "run"
        assert main(run_args(data_dir, out)) == 0
        target = tmp_path / "target.json"
        target.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert main(["eval", "--run", str(out), "--gold", str(data_dir / "gold.tsv"),
                     "--out", str(link)]) == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())["gold_size"] == 10
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_non_finite_threshold_exits_2(self, data_dir, tmp_path, capsys, command):
        """A confidence cutoff must lie in [0, 1]: outside it, nothing or
        everything passes."""
        out = tmp_path / "run"
        assert main(run_args(data_dir, out)) == 0
        for text in ("nan", "7", "-0.1"):
            gold = ["--gold", str(data_dir / "gold.tsv"), "--threshold", text]
            args = (["eval", "--run", str(out), *gold] if command == "eval"
                    else ["sweep", *run_args(data_dir, tmp_path / "sweep")[1:], *gold])
            with pytest.raises(SystemExit) as exc:
                main(args)
            assert exc.value.code == 2
            assert (f"--threshold: expected a float in [0, 1], got '{text}'"
                    in capsys.readouterr().err)
            assert not (out / "report.json").exists()
            assert not (tmp_path / "sweep").exists()

    def test_missing_run_dir_exits_2(self, tmp_path, data_dir):
        assert main(["eval", "--run", str(tmp_path / "nope"),
                     "--gold", str(data_dir / "gold.tsv")]) == 2

    def test_missing_gold_exits_2(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(run_args(data_dir, out)) == 0
        assert main(["eval", "--run", str(out),
                     "--gold", str(tmp_path / "nope.tsv")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_corrupt_manifest_exits_2(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(run_args(data_dir, out)) == 0
        (out / "manifest.json").write_text('{"status": "ok", ')
        assert main(["eval", "--run", str(out),
                     "--gold", str(data_dir / "gold.tsv")]) == 2
        assert "manifest.json: invalid JSON" in capsys.readouterr().err

    def test_failed_run_is_not_scored(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(run_args(data_dir, out)) == 0
        code = main(["run",
                     "--corpus", str(data_dir / "corpus.jsonl"),
                     "--embeddings", str(data_dir / "nope.txt"),
                     "--seeds", str(data_dir / "seeds.json"),
                     "--out", str(out)])
        assert code == 2
        assert (out / "accepted.jsonl").exists()  # left over from the first run
        capsys.readouterr()
        assert main(["eval", "--run", str(out),
                     "--gold", str(data_dir / "gold.tsv")]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "'failed'" in captured.err
        assert "F1" not in captured.out
        assert not (out / "report.json").exists()

    def test_non_object_accepted_row_exits_2(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(run_args(data_dir, out)) == 0
        with open(out / "accepted.jsonl", "a") as fh:
            fh.write("[1, 2]\n")
        capsys.readouterr()
        assert main(["eval", "--run", str(out),
                     "--gold", str(data_dir / "gold.tsv")]) == 2
        assert "error: " in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("field, value", [
        ("confidence", True), ("confidence", "0.9"), ("confidence", None),
        ("confidence", math.nan), ("confidence", 10 ** 400), ("e2_type", 1),
    ], ids=["boolean-confidence", "text-confidence", "null-confidence", "nan-confidence",
            "overflowing-confidence", "number-e2-type"])
    def test_mistyped_accepted_row_exits_2(self, data_dir, tmp_path, capsys, field,
                                           value):
        """A field is read with the type its writer gives it: a JSON true is
        no confidence of 1.0."""
        out = tmp_path / "run"
        assert main(run_args(data_dir, out)) == 0
        rows = read_jsonl(out / "accepted.jsonl")
        rows[1][field] = value
        (out / "accepted.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
        capsys.readouterr()
        assert main(["eval", "--run", str(out),
                     "--gold", str(data_dir / "gold.tsv")]) == 2
        captured = capsys.readouterr()
        assert f"error: {out / 'accepted.jsonl'}: line 2: " in captured.err
        assert f"Error: {field}: expected " in captured.err
        assert "F1" not in captured.out
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("name, edit, message", [
        ("manifest.json", lambda m: m.update(config=["pairing", "ordered"]),
         "config must be a JSON object"),
        ("manifest.json", lambda m: m["config"].update(pairing=["ordered"]),
         "config pairing ['ordered'] is not one of"),
        ("stats.json", lambda s: s.update(relation=["acquired"]),
         "relation must be a string"),
    ], ids=["config", "pairing", "relation"])
    def test_mistyped_run_field_exits_2(self, data_dir, tmp_path, capsys, name, edit,
                                        message):
        out = tmp_path / "run"
        assert main(run_args(data_dir, out)) == 0
        data = json.loads((out / name).read_text())
        edit(data)
        (out / name).write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["eval", "--run", str(out),
                     "--gold", str(data_dir / "gold.tsv")]) == 2
        assert f"error: {out / name}: {message}" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_filter_rule_threshold(self, data_dir, tmp_path):
        out = tmp_path / "run"
        assert main(run_args(data_dir, out, "--mode", "brej")) == 0
        assert main(["eval", "--run", str(out),
                     "--gold", str(data_dir / "gold.tsv"),
                     "--threshold", "0.99999"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["threshold"] == 0.99999


# One row per mistyped JSON value, for each file whose values json_value
# reads: the file, an edit of its object (of the first row of a JSON-lines
# file) and what the error must say after the file: the key or field, by its
# index path in a list, and the value, cut to 80 characters.
MISTYPED_VALUES = {
    "seed-null-entity": ("seeds.json", {"positive_pairs": [["Aerodyne", None]]},
                         "positive_pairs[0][1]: expected str, got None"),
    "seed-object-relation": ("seeds.json", {"relation": {"x": 1}},
                             "relation: expected str, got {'x': 1}"),
    "seed-null-pair-list": ("seeds.json", {"negative_pairs": None},
                            "negative_pairs: expected [[str, str], ...], got None"),
    "seed-number-type": ("seeds.json", {"type_pair": ["ORG", 5]},
                         "type_pair[1]: expected str, got 5"),
    "seed-number-template": ("seeds.json", {"positive_templates": ["[X] of [Y]", 5]},
                             "positive_templates[1]: expected str, got 5"),
    "config-overflowing-wn": ("config.json", {"wn": 10 ** 400},
                              f"wn: expected finite float, got 1{'0' * 76}..."),
    "config-text-weights": ("config.json", {"sim_weights": "123"},
                            "sim_weights: expected [finite float, finite float, finite float], "
                            "got '123'"),
    "accepted-null-entity": ("accepted.jsonl", {"e1": None}, "e1: expected str, got None"),
    "extractors-null-samples": ("extractors.jsonl", {"sample_between_contexts": None},
                                "sample_between_contexts: expected [str, ...], got None"),
    "labels-text-flag": ("labels.json", {"sig-x": "false"},
                         "'sig-x': expected bool, got 'false'"),
}


class TestJsonValues:
    @pytest.mark.parametrize("name, edit, message", MISTYPED_VALUES.values(),
                             ids=MISTYPED_VALUES.keys())
    def test_mistyped_value_exits_2(self, data_dir, tmp_path, capsys, name, edit,
                                    message):
        """Each JSON value is read with its field's type: another type exits 2
        with an error line that names the file, the key and the value."""
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        for other in ("corpus.jsonl", "embeddings.txt", "seeds.json", "gold.tsv"):
            (inputs / other).symlink_to(data_dir / other)
        for other in ("config.json", "labels.json"):
            (inputs / other).write_text("{}\n")
        out = tmp_path / "run"
        args = run_args(inputs, out, "--config", str(inputs / "config.json"))
        reader = {
            "accepted.jsonl": ["eval", "--run", str(out), "--gold", str(inputs / "gold.tsv")],
            "extractors.jsonl": ["stats", "--run", str(out)],
            "labels.json": ["stats", "--run", str(out), "--labels", str(inputs / "labels.json")],
        }.get(name)
        if reader:
            assert main(args) == 0
            args = reader
        path = inputs / name if (inputs / name).exists() else out / name
        if name.endswith(".jsonl"):
            rows = read_jsonl(path)
            rows[0].update(edit)
            text = "".join(json.dumps(row) + "\n" for row in rows)
        else:
            text = json.dumps({**json.loads(path.read_text()), **edit})
        path.unlink()  # an input is a symlink into the shared fixture
        path.write_text(text)
        capsys.readouterr()
        assert main(args) == 2
        [error] = [line for line in capsys.readouterr().err.splitlines()
                   if line.startswith("error: ")]
        assert str(path) in error and message in error


class TestStatsAndHits:
    def test_stats_table(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(run_args(data_dir, out, "--mode", "brej")) == 0
        assert main(["stats", "--run", str(out)]) == 0
        table = capsys.readouterr().out
        assert "AIE" in table and "ANP" in table

    def test_stats_with_labels(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(run_args(data_dir, out, "--mode", "brej")) == 0
        rows = read_jsonl(out / "extractors.jsonl")
        labels_path = tmp_path / "labels.json"
        labels_path.write_text(json.dumps({r["signature"]: False for r in rows}))
        stats_out = tmp_path / "stats.json"
        assert main(["stats", "--run", str(out), "--labels", str(labels_path),
                     "--out", str(stats_out)]) == 0
        stats = json.loads(stats_out.read_text())
        assert stats["anne"] == 1.0 and stats["ane"] == 0.0

    def test_stats_refuses_a_failed_run(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(run_args(data_dir, out)) == 0
        code = main(["run",
                     "--corpus", str(data_dir / "corpus.jsonl"),
                     "--embeddings", str(data_dir / "nope.txt"),
                     "--seeds", str(data_dir / "seeds.json"),
                     "--out", str(out)])
        assert code == 2
        assert (out / "extractors.jsonl").exists()  # left over from the first run
        capsys.readouterr()
        assert main(["stats", "--run", str(out)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "'failed', not 'ok'" in captured.err
        assert "AIE" not in captured.out

    @pytest.mark.parametrize("text", ["[1, 2]", '"noisy"', "{", '{"sig-x": "false"}',
                                      '{"sig-x": 0}', '{"sig-x": null}'])
    def test_stats_labels_not_an_object_exits_2(self, data_dir, tmp_path, capsys,
                                                text):
        """--labels must be a JSON object of booleans: "false" is no false."""
        out = tmp_path / "run"
        assert main(run_args(data_dir, out)) == 0
        labels_path = tmp_path / "labels.json"
        labels_path.write_text(text)
        capsys.readouterr()
        assert main(["stats", "--run", str(out), "--labels", str(labels_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {labels_path}: " in err
        assert ("'sig-x'" in err) == ("sig-x" in text)

    @pytest.mark.parametrize("corrupt", [
        lambda rows: [{**rows[0], "id": "x"}] + rows[1:],
        lambda rows: rows + [["not", "an", "object"]],
        lambda rows: [{**rows[0], "id": 1.5}] + rows[1:],
        lambda rows: [{**rows[0], "size": 2.0}] + rows[1:],
        lambda rows: [{**rows[0], "n_pos": True}] + rows[1:],
        lambda rows: [{**rows[0], "n_neg": "0"}] + rows[1:],
        lambda rows: [{**rows[0], "n_unknown": False}] + rows[1:],
        lambda rows: [{**rows[0], "confidence": True}] + rows[1:],
        lambda rows: [{**rows[0], "signature": 7}] + rows[1:],
        lambda rows: [{**rows[0], "sample_between_contexts": "abc"}] + rows[1:],
        lambda rows: [{**rows[0], "sample_between_contexts": ["ok", 1]}] + rows[1:],
        lambda rows: [{**rows[0], "n_pos": math.inf}] + rows[1:],
    ], ids=["non-integer-id", "non-object-row", "fractional-id", "float-size",
            "boolean-n-pos", "text-n-neg", "boolean-n-unknown", "boolean-confidence",
            "number-signature", "text-samples", "non-string-sample", "infinite-n-pos"])
    def test_corrupt_extractors_file_exits_2(self, data_dir, tmp_path, capsys, corrupt):
        out = tmp_path / "run"
        assert main(run_args(data_dir, out)) == 0
        rows = corrupt(read_jsonl(out / "extractors.jsonl"))
        (out / "extractors.jsonl").write_text(
            "".join(json.dumps(row) + "\n" for row in rows))
        capsys.readouterr()
        assert main(["stats", "--run", str(out)]) == 2
        captured = capsys.readouterr()
        assert "error: " in captured.err and "extractors.jsonl: line " in captured.err
        assert "AIE" not in captured.out

    def test_hits_counts(self, data_dir, tmp_path, capsys):
        hits_out = tmp_path / "hits.json"
        code = main(hits_args(data_dir, hits_out))
        assert code == 0
        payload = json.loads(hits_out.read_text())
        assert payload["by_pair"] == 4
        assert payload["by_template"] == 20
        assert payload["either"] == 20
        assert payload["either"] <= payload["by_pair"] + payload["by_template"]

    @pytest.mark.parametrize("pairing", ["ordered", "biset"])
    def test_hits_equal_a_brej_runs_first_iteration(self, data_dir, tmp_path, pairing):
        hits_out = tmp_path / "hits.json"
        assert main(hits_args(data_dir, hits_out, "--pairing", pairing)) == 0
        assert main(run_args(data_dir, tmp_path / "run", "--mode", "brej",
                             "--pairing", pairing)) == 0
        stats = json.loads((tmp_path / "run" / "stats.json").read_text())
        first = stats["iterations"][0]
        payload = json.loads(hits_out.read_text())
        assert [payload[key] for key in ("by_pair", "by_template", "either")] == \
            [first[key] for key in ("hits_by_pair", "hits_by_template", "hits")]

    def test_each_input_is_hashed_once(self, data_dir, tmp_path, table_cache):
        """The manifest's digests of the corpus and the table also key their
        indexes: a run hashes each input once, cold or warm, and `brex hits`,
        which writes no manifest, hashes only the corpus and the table, for
        their indexes."""
        sha256, hashed = brex.corpus.file_sha256, []

        def spy(path):
            hashed.append(str(path))
            return sha256(path)

        inputs = [str(data_dir / name) for name in ("corpus.jsonl", "embeddings.txt",
                                                    "seeds.json")]
        with mock.patch.object(brex.corpus, "file_sha256", spy):
            for name in ("cold", "warm"):
                assert main(run_args(data_dir, tmp_path / name)) == 0
                assert sorted(hashed) == sorted(inputs)
                hashed.clear()
            assert main(hits_args(data_dir, tmp_path / "hits.json")) == 0
            assert hashed == inputs[:2]
        digests = json.loads((tmp_path / "warm" / "manifest.json").read_text())["inputs"]
        assert support.table_indexes(table_cache) == [digests["embeddings"]["sha256"]]
        [corpus_index] = set(table_cache.iterdir()) - {
            table_cache / (digests["embeddings"]["sha256"] + ".npz")}
        assert corpus_index.name.startswith(digests["corpus"]["sha256"] + "-")

    def test_table_replaced_after_its_digest_is_not_indexed(self, data_dir, tmp_path,
                                                            table_cache):
        """A table replaced between the manifest's digest and ingest is read as
        it is then, and its row offsets are not filed under the digest of the
        bytes it replaced."""
        table = tmp_path / "embeddings.txt"
        table.write_bytes((data_dir / "embeddings.txt").read_bytes())
        moved = tmp_path / "moved.txt"
        moved.write_bytes(b"\n" + table.read_bytes())  # each row one byte later
        digests = brex.cli.RunInputs.digests

        def digest_then_replace(inputs):
            found = digests(inputs)
            if moved.exists():
                os.replace(moved, table)
            return found

        args = run_args(data_dir, tmp_path / "run")
        args[args.index("--embeddings") + 1] = str(table)
        with mock.patch.object(brex.cli.RunInputs, "digests", digest_then_replace):
            assert main(args) == 0
            manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
            assert manifest["inputs"]["embeddings"]["sha256"] == \
                brex.corpus.file_sha256(data_dir / "embeddings.txt")
            assert support.table_indexes(table_cache) == []
            assert main(args) == 0  # the replacement, digested as it is now
        assert support.table_indexes(table_cache) == [brex.corpus.file_sha256(table)]


class TestSweep:
    def test_grid_of_two_cells(self, data_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep",
                     "--corpus", str(data_dir / "corpus.jsonl"),
                     "--embeddings", str(data_dir / "embeddings.txt"),
                     "--seeds", str(data_dir / "seeds.json"),
                     "--mode", "bree,brej",
                     "--gold", str(data_dir / "gold.tsv"),
                     "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert len(summary) == 2
        assert all(row["exit_code"] == 0 for row in summary)
        scores = {row["params"]["mode"]: row["scores"] for row in summary}
        assert scores["brej"]["recall"] >= scores["bree"]["recall"]
        cell_dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert len(cell_dirs) == 2
        for name in cell_dirs:
            assert (out / name / "accepted.jsonl").exists()

    @pytest.mark.parametrize("gold", ["missing", "malformed"])
    def test_bad_gold_exits_2_and_writes_summary(self, data_dir, tmp_path, capsys, gold,
                                                 monkeypatch):
        gold_path = tmp_path / "gold.tsv"
        if gold == "malformed":
            gold_path.write_text("Acme Corp without a tab\n")
        reads = []
        load_gold = brex.cli.load_gold
        monkeypatch.setattr(brex.cli, "load_gold",
                            lambda *args: reads.append(args) or load_gold(*args))
        out = tmp_path / "sweep"
        code = main(["sweep",
                     "--corpus", str(data_dir / "corpus.jsonl"),
                     "--embeddings", str(data_dir / "embeddings.txt"),
                     "--seeds", str(data_dir / "seeds.json"),
                     "--mode", "bree,brej", "--gold", str(gold_path),
                     "--out", str(out)])
        assert code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 2 and errors[0] == errors[1]
        assert len(reads) == 1  # the second cell fails with the first one's error
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert [row["exit_code"] for row in summary] == [2, 2]
        manifests = [json.loads((out / row["cell"] / "manifest.json").read_text())
                     for row in summary]
        for manifest in manifests:
            assert manifest["status"] == "failed"
            assert str(gold_path) in manifest["error"]
            assert manifest["error"] == manifests[0]["error"]

    def test_gold_is_read_once_per_pairing(self, tmp_path, monkeypatch):
        inputs, gold = self.biset_inputs(tmp_path)
        reads = []
        load_gold = brex.cli.load_gold
        monkeypatch.setattr(brex.cli, "load_gold",
                            lambda *args: reads.append(args) or load_gold(*args))
        out = tmp_path / "sweep"
        assert main(["sweep", *inputs, "--mode", "bree,bret,brej",
                     "--pairing", "ordered,biset", "--gold", gold,
                     "--out", str(out)]) == 0
        assert sorted(pairing for _, _, pairing in reads) == ["biset", "ordered"]
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert len(summary) == 6 and all("scores" in row for row in summary)

    def test_gold_is_kept_per_relation_and_pairing(self, tmp_path):
        _, gold = self.biset_inputs(tmp_path)
        inputs = brex.cli.RunInputs(argparse.Namespace(
            corpus=None, embeddings=None, seeds=None, gold=gold, threshold=0.5))
        first = inputs.gold("acquired", "ordered")
        assert inputs.gold("acquired", "ordered") is first
        other = inputs.gold("founded", "ordered")
        assert (other.relation, other.pairing) == ("founded", "ordered")
        assert other.facts == first.facts
        biset = inputs.gold("acquired", "biset")
        assert (biset.relation, biset.pairing) == ("acquired", "biset")

    @staticmethod
    def biset_inputs(tmp_path):
        """Input flags and gold path of the biset fixture."""
        data = tmp_path / "data"
        build_biset_fixture().write(data)
        return (["--corpus", str(data / "corpus.jsonl"),
                 "--embeddings", str(data / "embeddings.txt"),
                 "--seeds", str(data / "seeds.json")], str(data / "gold.tsv"))

    def test_cells_equal_standalone_run_and_eval(self, tmp_path, monkeypatch):
        inputs, gold = self.biset_inputs(tmp_path)
        ingest = brex.cli.ingest_inputs
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return ingest(*args, **kwargs)

        monkeypatch.setattr(brex.cli, "ingest_inputs", counted)
        out = tmp_path / "sweep"
        assert main(["sweep", *inputs, "--mode", "bree,brej",
                     "--pairing", "ordered,biset", "--gold", gold,
                     "--out", str(out)]) == 0
        assert len(calls) == 1  # the pairings share one ingest
        self.assert_cells_equal_standalone_runs(out, inputs, gold, tmp_path)

    def test_pairings_share_the_ingest_and_graphs(self, tmp_path, monkeypatch):
        inputs, gold = self.biset_inputs(tmp_path)
        ingest, init = brex.cli.ingest_inputs, SimilarityGraph.__init__
        ingests, graphs = [], []

        def counted_ingest(*args):
            ingests.append(args)
            return ingest(*args)

        def counted_init(graph, table, measure, tau_sim):
            graphs.append((measure.kind, tau_sim))
            init(graph, table, measure, tau_sim)

        monkeypatch.setattr(brex.cli, "ingest_inputs", counted_ingest)
        monkeypatch.setattr(SimilarityGraph, "__init__", counted_init)
        out = tmp_path / "sweep"
        assert main(["sweep", *inputs, "--pairing", "ordered,biset",
                     "--sim", "match,cc-sym1", "--gold", gold, "--out", str(out)]) == 0
        assert len(ingests) == 1
        assert graphs == [("match", 0.7), ("cc-sym1", 0.7)]  # in the grid's order
        self.assert_cells_equal_standalone_runs(out, inputs, gold, tmp_path)

    def test_cells_share_one_graph_per_measure(self, tmp_path, monkeypatch):
        inputs, gold = self.biset_inputs(tmp_path)
        init = SimilarityGraph.__init__
        built, alive = [], []

        def counted(graph, table, measure, tau_sim):
            # graphs built before this one that are still referenced
            alive.append(sum(ref() is not None for _, ref in built))
            built.append((measure.kind, weakref.ref(graph)))
            init(graph, table, measure, tau_sim)

        monkeypatch.setattr(SimilarityGraph, "__init__", counted)
        out = tmp_path / "sweep"
        assert main(["sweep", *inputs, "--mode", "bree,brej", "--sim", "match,cc-sym1",
                     "--gold", gold, "--out", str(out)]) == 0
        assert sorted(kind for kind, _ in built) == ["cc-sym1", "match"]
        assert alive == [0, 0]  # one graph alive at a time
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert [row["cell"] for row in summary] == \
            sorted(p.name for p in out.iterdir() if p.is_dir())
        self.assert_cells_equal_standalone_runs(out, inputs, gold, tmp_path)

    @staticmethod
    def assert_cells_equal_standalone_runs(out, inputs, gold, tmp_path):

        summary = json.loads((out / "sweep_summary.json").read_text())
        assert len(summary) == 4
        for row in summary:
            flags = [arg for name, value in row["params"].items()
                     for arg in (f"--{name}", str(value))]
            solo = tmp_path / "solo" / row["cell"]
            assert main(["run", *inputs, *flags, "--out", str(solo)]) == 0
            assert main(["eval", "--run", str(solo), "--gold", gold]) == 0
            for name in ("accepted.jsonl", "extractors.jsonl", "stats.json",
                         "manifest.json", "report.json"):
                assert (out / row["cell"] / name).read_bytes() == \
                    (solo / name).read_bytes(), (row["cell"], name)
            assert row["scores"] == json.loads((solo / "report.json").read_text())


class TestBisetFixtureViaCli:
    def test_pairing_switch(self, tmp_path):
        data = tmp_path / "data"
        build_biset_fixture().write(data)
        collected = {}
        for pairing in ("ordered", "biset"):
            out = tmp_path / pairing
            assert main(["run",
                         "--corpus", str(data / "corpus.jsonl"),
                         "--embeddings", str(data / "embeddings.txt"),
                         "--seeds", str(data / "seeds.json"),
                         "--mode", "bree", "--pairing", pairing,
                         "--out", str(out)]) == 0
            collected[pairing] = {(r["e1"], r["e2"])
                                  for r in read_jsonl(out / "accepted.jsonl")}
        assert ("Brightport", "Aerodyne") not in collected["ordered"]
        assert ("Brightport", "Aerodyne") in collected["biset"]
