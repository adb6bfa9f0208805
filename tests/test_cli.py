"""CLI subcommands: exit codes, outputs, manifest, config precedence, sweep."""

import json

import pytest

from brex.cli import main
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


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line]


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

    def test_out_of_range_threshold_exits_2(self, data_dir, tmp_path):
        assert main(run_args(data_dir, tmp_path / "r", "--tau-sim", "1.5")) == 2

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


class TestEval:
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

    def test_missing_run_dir_exits_2(self, tmp_path, data_dir):
        assert main(["eval", "--run", str(tmp_path / "nope"),
                     "--gold", str(data_dir / "gold.tsv")]) == 2

    def test_filter_rule_threshold(self, data_dir, tmp_path):
        out = tmp_path / "run"
        assert main(run_args(data_dir, out, "--mode", "brej")) == 0
        assert main(["eval", "--run", str(out),
                     "--gold", str(data_dir / "gold.tsv"),
                     "--threshold", "0.99999"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["threshold"] == 0.99999


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

    def test_hits_counts(self, data_dir, tmp_path, capsys):
        hits_out = tmp_path / "hits.json"
        code = main(["hits",
                     "--corpus", str(data_dir / "corpus.jsonl"),
                     "--embeddings", str(data_dir / "embeddings.txt"),
                     "--seeds", str(data_dir / "seeds.json"),
                     "--out", str(hits_out)])
        assert code == 0
        payload = json.loads(hits_out.read_text())
        assert payload["by_pair"] == 4
        assert payload["by_template"] == 20
        assert payload["either"] == 20
        assert payload["either"] <= payload["by_pair"] + payload["by_template"]


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
