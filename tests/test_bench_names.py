"""The names and shapes of brex that the benchmark tracer (perfbench/op.py)
wraps and reads; a traced benchmark run fails if one goes away."""

import contextlib
import importlib
import importlib.util
from pathlib import Path
from unittest import mock

import brex.cli
import brex.corpus
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


@contextlib.contextmanager
def restored(op):
    """Undo, on exit, what op.install wraps."""
    names = [(module, attr) for module, attr, _ in op.TRACED]
    names += [("brex.cli", "ingest_inputs"), ("brex.similarity", "sim_instances")]
    with contextlib.ExitStack() as stack:
        for module_name, attr in names:
            module = importlib.import_module(module_name)
            stack.enter_context(mock.patch.object(module, attr, getattr(module, attr)))
        yield


def test_traced_warm_run_loads_through_the_traced_name(tmp_path, table_cache):
    """A run that reads the table's and the corpus's indexes still calls the
    traced brex.cli.load_embeddings and brex.cli.load_corpus, whose store and
    sentences the tracer counts."""
    op = load_op()
    paths = build_planted_fixture(n_sentences=40).write(tmp_path)
    runs = []
    for name in ("cold", "warm"):
        tracer = op.Tracer()
        with restored(op), mock.patch.object(brex.corpus, "_parse_split",
                                             wraps=brex.corpus._parse_split) as parse_split:
            op.install(tracer, True)
            assert brex.cli.main([
                "run", "--corpus", str(paths["corpus"]), "--embeddings",
                str(paths["embeddings"]), "--seeds", str(paths["seeds"]),
                "--out", str(tmp_path / name)]) == 0
        runs.append((tracer.counts["corpus.embedding_words"], tracer.counts["corpus.instances"],
                     len(tracer.intervals("corpus.load_embeddings")),
                     len(tracer.intervals("corpus.load_corpus")), parse_split.call_count))
    (cold_words, cold_instances, *cold_spans, cold_parses), \
        (warm_words, warm_instances, *warm_spans, warm_parses) = runs
    assert cold_words == warm_words > 0
    assert cold_instances == warm_instances > 0
    assert cold_spans == warm_spans == [1, 1]
    assert (cold_parses, warm_parses) == (2, 0)  # the warm run parses neither file
    assert len(list(table_cache.glob("*.npz"))) == 2
