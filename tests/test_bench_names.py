"""The names and shapes of brex that the benchmark tracer (perfbench/op.py)
wraps and reads; a traced benchmark run fails if one goes away."""

import importlib
import importlib.util
from pathlib import Path

import brex.cli
from brex.synth import build_planted_fixture

OP_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "op.py"


def load_op():
    spec = importlib.util.spec_from_file_location("perfbench_op", OP_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    names = [(module, attr) for module, attr, _ in load_op().TRACED]
    for module_name, attr in names + [("brex.cli", "ingest_inputs")]:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_load_corpus_sentences_have_tokens(tmp_path):
    paths = build_planted_fixture(n_sentences=40).write(tmp_path)
    loaded = brex.cli.load_corpus(paths["corpus"], {"ORG"})
    assert isinstance(loaded.sentences, list) and loaded.sentences
    assert all(isinstance(sent.tokens, tuple) for sent in loaded.sentences)
