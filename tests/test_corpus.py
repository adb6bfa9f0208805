"""Ingestion: corpus parsing, embeddings, windowing, passive reordering, seeds."""

import contextlib
import dataclasses
import itertools
import json
import logging
import os
import re
import stat
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import brex.cli
import brex.corpus
from brex.cli import ingest_inputs
from brex.corpus import (
    EntitySpan,
    LoadedCorpus,
    TaggedSentence,
    TypedEntity,
    extract_instances,
    load_corpus,
    load_embeddings,
    parse_seed_file,
    parse_seed_templates,
)
from brex.errors import CorpusFormatError, EmbeddingFormatError, SeedFormatError
from brex.model import RunConfig, build_seed_state
from brex.synth import build_planted_fixture

import support
from support import INT_DIGITS, needs_int_limit, reference_context


@pytest.fixture
def emb4(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text(
        "acquire 1 0 0 0\n"
        "merger 0 1 0 0\n"
        "with 0 0 1 0\n"
        "bought 0.6 0.8 0 0\n"
    )
    return load_table(path)


def load_table(path):
    """load_embeddings keeping every word of the table at ``path``."""
    words = {line.split()[0] for line in Path(path).read_text(encoding="utf-8").splitlines()
             if line.split()}
    return load_embeddings(path, words)


def write_corpus(tmp_path, lines):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def record(tokens, entities, pos=None):
    row = {"tokens": tokens, "entities": entities}
    if pos is not None:
        row["pos"] = pos
    return json.dumps(row)


def sentence(tokens, spans, sid=0, pos=None):
    return TaggedSentence(sid=sid, tokens=tuple(tokens),
                          entities=tuple(EntitySpan(*s) for s in spans),
                          pos=tuple(pos) if pos else None)


ORG = lambda start, end: {"start": start, "end": end, "type": "ORG"}  # noqa: E731
PER = lambda start, end: {"start": start, "end": end, "type": "PER"}  # noqa: E731


def sentence_order(instance, tokens):
    """The instance's entity surfaces in the order its sentence states them,
    as its id gives the spans."""
    _, a_start, a_end, b_start, b_end = map(int, re.findall(r"\d+", instance.id))
    return " ".join(tokens[a_start:a_end]), " ".join(tokens[b_start:b_end])


class TestLoadCorpus:
    def test_basic_parse(self, tmp_path):
        path = write_corpus(tmp_path, [
            record(["Google", "acquired", "DoubleClick"], [ORG(0, 1), ORG(2, 3)]),
        ])
        loaded = load_corpus(path, {"ORG"})
        assert len(loaded.sentences) == 1
        assert len(loaded.sentences[0].entities) == 2
        assert loaded.sentences[0].tokens == ("Google", "acquired", "DoubleClick")

    def test_bad_span_rejected_and_counted(self, tmp_path):
        path = write_corpus(tmp_path, [
            record(["a", "b", "c"], [{"start": 5, "end": 4, "type": "ORG"}]),
            record(["ok"], []),
        ])
        loaded = load_corpus(path, {"ORG"})
        assert loaded.rejected_records == 1
        assert loaded.accepted_records == 1

    def test_overlapping_spans_rejected(self, tmp_path):
        path = write_corpus(tmp_path, [
            record(["a", "b", "c"], [ORG(0, 2), ORG(1, 3)]),
        ])
        loaded = load_corpus(path, {"ORG"})
        assert loaded.rejected_records == 1
        assert not loaded.sentences

    def test_malformed_line_names_line_number(self, tmp_path):
        path = write_corpus(tmp_path, [
            record(["a"], []),
            record(["b"], []),
            record(["c"], []),
            "{not json",
        ])
        with pytest.raises(CorpusFormatError,
                           match=re.escape(f"{path}: line 4: invalid JSON (")):
            load_corpus(path, {"ORG"})

    def test_unknown_type_dropped_with_count(self, tmp_path):
        path = write_corpus(tmp_path, [
            record(["Maria", "joined", "Acme", "from", "Bolt"],
                   [{"start": 0, "end": 1, "type": "PER"}, ORG(2, 3), ORG(4, 5)]),
        ])
        loaded = load_corpus(path, {"ORG"})
        assert loaded.dropped_entities == 1
        assert [e.etype for e in loaded.sentences[0].entities] == ["ORG", "ORG"]

    def test_misaligned_pos_raises(self, tmp_path):
        path = write_corpus(tmp_path, [
            record(["a", "b"], [], pos=["NN"]),
        ])
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_corpus(path, {"ORG"})

    def test_deterministic(self, tmp_path):
        lines = [
            record(["Google", "acquired", "DoubleClick", "in", "2007"],
                   [ORG(0, 1), ORG(2, 3)]),
            record(["Acme", "sued", "Bolt"], [ORG(0, 1), ORG(2, 3)]),
        ]
        path = write_corpus(tmp_path, lines)
        first = load_corpus(path, {"ORG"})
        second = load_corpus(path, {"ORG"})
        assert first.sentences == second.sentences


    @pytest.mark.parametrize("offsets", [(False, True), (0, True), (False, 1)])
    def test_boolean_offsets_rejected(self, tmp_path, offsets):
        start, end = offsets
        path = write_corpus(tmp_path, [
            record(["Acme", "bought", "Bolt"], [ORG(0, 1), ORG(2, 3)]),
            record(["Acme", "bought", "Bolt"], [ORG(start, end), ORG(2, 3)]),
        ])
        with pytest.raises(CorpusFormatError, match="line 2: each entity needs integer"):
            load_corpus(path, {"ORG"})


class TestCandidateSentences:
    """load_corpus keeps only the records that can yield an instance; every
    accepted record still takes a sid."""

    LINES = [
        record(["Acme", "bought", "Bolt"], [ORG(0, 1), ORG(2, 3)]),
        record(["just", "words"], []),
        record(["a", "b", "c"], [ORG(5, 4)]),
        record(["Acme", "rose"], [ORG(0, 1)]),
        record(["Maria", "met", "Bob"], [PER(0, 1), PER(2, 3)]),
        record(["Maria", "joined", "Acme"], [PER(0, 1), ORG(2, 3)]),
        record(["Bolt", "was", "acquired", "by", "Acme"], [ORG(0, 1), ORG(4, 5)],
               pos=["NNP", "VBD", "VBN", "IN", "NNP"]),
        "",
        record(["Cog", "merged", "with", "Dyn"], [ORG(0, 1), ORG(3, 4)]),
    ]

    def test_hand_trace(self, tmp_path):
        loaded = load_corpus(write_corpus(tmp_path, self.LINES), {"ORG"})
        assert [sent.sid for sent in loaded.sentences] == [0, 5, 6]
        assert (loaded.accepted_records, loaded.rejected_records,
                loaded.dropped_entities) == (7, 1, 3)

    def test_ingest_hand_trace(self, tmp_path):
        corpus = write_corpus(tmp_path, self.LINES)
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps({"relation": "acquired", "type_pair": ["ORG", "ORG"],
                                     "positive_templates": ["[X] bought [Y]"]}))
        table = write_lines(tmp_path / "emb.txt", ["bought 1 0", "acquired 0 1"])
        ingested = ingest_inputs(corpus, table, seeds, RunConfig().limits)
        assert [(i.id, i.sentence_ref, i.pair.e1.surface, i.pair.e2.surface)
                for i in ingested.instances] == [
            ("s0:0.1-2.3", 0, "Acme", "Bolt"),
            ("s5:0.1-4.5", 5, "Acme", "Bolt"),  # "Bolt was acquired by Acme"
            ("s6:0.1-3.4", 6, "Cog", "Dyn"),
        ]
        assert ingested.counters == {"sentences": 7, "rejected_records": 1,
                                     "dropped_entities": 3, "instances": 3,
                                     "skipped_over_limit": 0}

    def test_interleaved_records_only_shift_sids(self, tmp_path):
        fixture = build_planted_fixture(n_sentences=80)
        plain = fixture.write(tmp_path / "plain")
        fillers = [record(["no", "entities"], []), record(["Acme", "rose"], [ORG(0, 1)]),
                   record(["Maria", "met", "Bob"], [PER(0, 1), PER(2, 3)])]
        lines = plain["corpus"].read_text(encoding="utf-8").splitlines()
        mixed = dict(plain, corpus=write_corpus(tmp_path, [
            row for k, line in enumerate(lines) for row in (line, fillers[k % 3])]))

        def ingest(paths):
            return ingest_inputs(paths["corpus"], paths["embeddings"], paths["seeds"],
                                 RunConfig().limits)

        def snapshot(ingested, sid_of):
            return [(re.sub(r"^s\d+", f"s{sid_of(i.sentence_ref)}", i.id),
                     sid_of(i.sentence_ref), i.pair, i.template.key())
                    for i in ingested.instances]

        before, after = ingest(plain), ingest(mixed)
        tokens = [json.loads(line)["tokens"] for line in lines]  # every record has a sid
        assert any(sentence_order(i, tokens[i.sentence_ref]) != (i.pair.e1.surface,
                                                                 i.pair.e2.surface)
                   for i in before.instances)  # some pair was swapped as passive
        assert snapshot(after, lambda sid: sid) == snapshot(before, lambda sid: 2 * sid)
        assert after.counters == dict(before.counters,
                                      sentences=2 * before.counters["sentences"],
                                      dropped_entities=before.counters["dropped_entities"]
                                      + 2 * (len(lines) // 3))


class TestLoadEmbeddings:
    def test_basic(self, emb4):
        assert emb4.dimension == 4
        assert len(emb4) == 4
        np.testing.assert_array_equal(emb4.lookup("acquire"), [1, 0, 0, 0])

    def test_absent_word_is_zero(self, emb4):
        np.testing.assert_array_equal(emb4.lookup("zzz"), np.zeros(4))

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a 1 0 0 0\nb 1 0 0\n")
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_table(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_component_names_line(self, tmp_path, bad):
        path = tmp_path / "bad.txt"
        path.write_text(f"a 1 0 0\nb 0 {bad} 0\n")
        with pytest.raises(EmbeddingFormatError, match="line 2: non-finite"):
            load_table(path)

    def test_huge_finite_components_accepted(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("a 1e308 1e308 -1e308\n")
        np.testing.assert_array_equal(load_table(path).lookup("a"),
                                      [1e308, 1e308, -1e308])

    def test_pipe_is_refused(self):
        # read twice, a pipe would give the rows to the first read only
        read_fd, write_fd = os.pipe()
        os.write(write_fd, b"a 1 0\n")
        os.close(write_fd)
        try:
            with pytest.raises(EmbeddingFormatError, match="not a regular file"):
                load_embeddings(f"/dev/fd/{read_fd}", {"a"})
        finally:
            os.close(read_fd)

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(EmbeddingFormatError):
            load_table(path)

    def test_duplicates_keep_first(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("a 1 0\na 0 1\n")
        emb = load_table(path)
        np.testing.assert_array_equal(emb.lookup("a"), [1, 0])

    def test_context_vector_is_normalized_sum(self, emb4):
        rows = [emb4.context_row(tokens)
                for tokens in (["merger", "with"], [], ["zzz", "yyy"])]
        v, empty, unknown = (emb4.context_rows()[row] for row in rows)
        np.testing.assert_allclose(v, np.array([0, 1, 1, 0]) / np.sqrt(2))
        assert empty.tolist() == [0, 0, 0, 0]
        assert unknown.tolist() == [0, 0, 0, 0]

    @given(st.lists(st.sampled_from(["acquire", "merger", "with", "bought", "oov"]),
                    min_size=1, max_size=6),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_context_vector_permutation_invariant(self, tokens, pyrandom):
        emb = _memory_emb()
        shuffled = list(tokens)
        pyrandom.shuffle(shuffled)
        rows = [emb.context_row(tokens), emb.context_row(shuffled)]
        a, b = (emb.context_rows()[row] for row in rows)
        assert a.tobytes() == b.tobytes()

    @given(st.lists(st.lists(st.sampled_from(["w0", "w1", "w2", "w3", "oov"]),
                             max_size=6), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_memoized_context_vector_equals_sorted_sum(self, calls):
        rng = np.random.default_rng(0)
        vectors = {f"w{k}": rng.normal(size=5) for k in range(4)}
        emb = brex.corpus.EmbeddingStore(5, vectors)
        for tokens in calls:
            expected = reference_context(vectors, tokens, 5)
            row = emb.context_row(tokens)
            got = emb.context_rows()[row]
            assert got.tobytes() == expected.tobytes()
            assert not got.flags.writeable


class TestContextTable:
    """EmbeddingStore's table of distinct contexts, built in batches."""

    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 3, 50]),
           windows=st.lists(st.lists(st.sampled_from(["w0", "w1", "w2", "w3", "w4", "oov"]),
                                     max_size=8), min_size=1, max_size=30),
           chunk=st.sampled_from([1, 2, 3, 7, 256]))
    @settings(max_examples=200, deadline=None)
    def test_batch_equals_scalar_reference(self, seed, dim, windows, chunk):
        """Each window's vector has the bits of the scalar reference, in
        chunks of any number of windows, with repeated and
        out-of-vocabulary tokens, empty windows, -0.0 components and rows of
        any scale short of overflow (tiny ones give the zero vector). It is
        a C-contiguous read-only array, shared by every window of its
        multiset and by no other window, also in a later batch."""
        rng = np.random.default_rng(seed)
        vectors = {}
        for k in range(5):
            row = rng.normal(size=dim) * 10.0 ** rng.uniform(-170.0, 150.0)
            row[rng.random(dim) < 0.3] = -0.0
            vectors[f"w{k}"] = row
        emb = brex.corpus.EmbeddingStore(dim, vectors)
        with mock.patch.object(brex.corpus, "_CONTEXT_WINDOWS", chunk):
            rows = [emb.context_row(window) for window in windows]
            contexts = emb.context_rows()
            got = [contexts[row] for row in rows]
            for window, vector in zip(windows, got):
                assert vector.tobytes() == reference_context(vectors, window, dim).tobytes()
                assert vector.flags.c_contiguous and not vector.flags.writeable
            for (a, u), (b, v) in itertools.combinations(zip(windows, got), 2):
                assert (u is v) == (sorted(a) == sorted(b))
            again = [emb.context_row(window[::-1]) for window in windows]
            assert all(emb.context_rows()[row] is vector for row, vector in zip(again, got))

    def test_ingest_shares_one_row_per_multiset(self, emb4):
        """The windows of instances and seed templates with one token
        multiset share one array; windows of two multisets never do."""
        sents = [sentence(["merger", "A", "with", "acquire", "B", "with"],
                          [(1, 2, "ORG"), (4, 5, "ORG")]),
                 sentence(["with", "A", "acquire", "with", "B", "merger"],
                          [(1, 2, "ORG"), (4, 5, "ORG")], sid=1)]
        first, second = extract_instances(sents, emb4, (2, 6, 2), ("ORG", "ORG")).instances
        (seed,) = parse_seed_templates(["merger [X] acquire with [Y] with"], emb4,
                                       ("ORG", "ORG"))
        assert (first.template.v_between is second.template.v_between
                is seed.v_between)
        assert first.template.v_before is second.template.v_after is seed.v_before
        assert first.template.v_after is second.template.v_before is seed.v_after
        arrays = {id(v): v for t in (first.template, second.template, seed)
                  for v in (t.v_before, t.v_between, t.v_after)}
        assert len(arrays) == 3
        assert all(v.flags.c_contiguous and not v.flags.writeable for v in arrays.values())

    @pytest.mark.parametrize("vectors, window", [
        ({"big": np.full(4, 1e308)}, ["big", "big"]),  # the sum overflows
        ({"huge": np.array([1e200, 0.0, 0.0, 0.0])}, ["huge"]),  # only the norm does
    ], ids=["sum", "norm"])
    def test_overflowing_context_raises_naming_its_tokens(self, vectors, window):
        emb = brex.corpus.EmbeddingStore(4, vectors)
        with pytest.raises(EmbeddingFormatError, match=re.escape(
                f"the context vector of the tokens {window} overflows: "
                f"its sum or norm is not finite")):
            emb.context_row(window)
            emb.context_rows()

    def test_overflow_names_the_window_in_its_chunk(self):
        emb = brex.corpus.EmbeddingStore(2, {"ok": np.array([1.0, 0.0]),
                                             "big": np.array([1e200, 0.0])})
        with mock.patch.object(brex.corpus, "_CONTEXT_WINDOWS", 2):
            for window in (["ok"], [], ["ok", "ok"], ["ok", "big"], ["big"]):
                emb.context_row(window)
            with pytest.raises(EmbeddingFormatError, match=re.escape("['big', 'ok'] ")):
                emb.context_rows()

    def test_ingest_of_an_overflowing_table_raises(self, tmp_path):
        """A run whose corpus windows reach a row near float64's limit stops
        with an input error (exit 2 from the CLI), not zero similarities."""
        paths = build_planted_fixture(n_sentences=40).write(tmp_path / "data")
        table = paths["embeddings"]
        lines = table.read_text().splitlines()
        word, *values = lines[0].split()
        lines[0] = " ".join([word, "1e200", *values[1:]])
        table.write_text("\n".join(lines) + "\n")
        with pytest.raises(EmbeddingFormatError, match=f"'{word}'.* overflows"):
            ingest_inputs(paths["corpus"], table, paths["seeds"], RunConfig().limits)


BLOCK = brex.corpus._EMBEDDING_BLOCK
WORDS = ("a", "b", "c", "d")
# float() takes all of these; numpy's block parse rejects "1_0" and "１２"
GOOD_TOKENS = ("0", "-0", "1.5", "-2e-3", "+.5", "1e308", "4.9e-325", "1_0", "１２")
BAD_TOKENS = ("nan", "-inf", "Infinity", "1e400", "abc", "1,0", "0x1", "")


def filler(n):
    """``n`` valid two-component rows of the words u0, u1, ..."""
    return [f"u{k} 0.25 0.5" for k in range(n)]


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def split_load(path, vocab, cpus=2):
    """load_embeddings with ranges of one byte or more on ``cpus`` CPUs, in a
    fresh cache, so that the table is parsed even when it was loaded before."""
    return split_loads(path, vocab, cpus, warm=False)[0][0]


def split_loads(path, vocab, cpus=2, warm=True):
    """split_load, and then, if ``warm``, a load that reads the row index the
    first one wrote, if it wrote one, instead of parsing the table; the
    stores, and whether the first load wrote an index."""
    with support.fresh_cache() as cache, \
            mock.patch.object(brex.corpus, "_MIN_TABLE_RANGE_BYTES", 1), \
            mock.patch.object(os, "sched_getaffinity", return_value=set(range(cpus))):
        stores = [load_embeddings(path, vocab)]
        indexed = bool(indexes(cache))
        if warm:
            with mock.patch.object(brex.corpus, "_parse_split",
                                   wraps=brex.corpus._parse_split) as parse_split:
                stores.append(load_embeddings(path, vocab))
            assert parse_split.called != indexed
    return stores, indexed


def cuts(path, count):
    with open(path, "rb") as fh:
        return brex.corpus._cuts(fh, path.stat().st_size, count)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_same_rows(emb, expected, vocab):
    assert emb.dimension == expected.dimension
    zero = np.zeros(expected.dimension)
    for word in vocab:
        want = expected.lookup(word) if word in expected else zero
        assert (word in emb) == (word in expected)
        assert emb.lookup(word).tobytes() == want.tobytes()
    assert len(emb) == sum(word in emb for word in vocab)


@st.composite
def tables(draw):
    """Lines of a random table over WORDS: valid or bad tokens, blank lines,
    duplicate words and, unless ``clean``, short and long rows."""
    dim = draw(st.integers(1, 3))
    clean = draw(st.booleans())
    number = st.floats(allow_nan=False).map(repr) | st.sampled_from(GOOD_TOKENS)
    if not clean:
        number = number | st.sampled_from(BAD_TOKENS)
    kinds = ["row"] * 6 + ["blank"] + ([] if clean else ["short", "long"])
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        count = dim + {"row": 0, "short": -1, "long": 1}[kind]
        tokens = [draw(st.sampled_from(WORDS))] + [draw(number) for _ in range(count)]
        lines.append(draw(st.sampled_from([" ", "\t", "  ", "\xa0"])).join(tokens))
    return lines


class TestVocabularyLoad:
    """load_embeddings(path, vocab) keeps only vocabulary words and still
    validates every row."""

    @given(tables(), st.data(), st.integers(1, 4),
           st.just(set(WORDS)) | st.sets(st.sampled_from(WORDS)), st.integers(1, 4))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_reference_loader(self, tmp_path, lines, data, block, vocab, cpus):
        """Against the one-pass reference, for any block size and any split
        into up to ``cpus`` byte ranges, with mixed line ends; a later load
        that reads the row index gives the same store. A table is indexed
        unless its line ends mix "\\r\\n" with another kind."""
        ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                                  min_size=len(lines), max_size=len(lines)))
        path = tmp_path / "emb.txt"
        path.write_bytes("".join(map("".join, zip(lines, ends))).encode("utf-8"))
        with mock.patch.object(brex.corpus, "_EMBEDDING_BLOCK", block):
            try:
                expected = support.reference_load_embeddings(path)
            except EmbeddingFormatError as exc:
                with pytest.raises(EmbeddingFormatError) as got:
                    split_load(path, vocab, cpus)
                assert str(got.value) == str(exc)
                return
            (emb, warm), indexed = split_loads(path, vocab, cpus)
        assert store_rows(warm) == store_rows(emb)
        data = path.read_bytes()
        if b"\r\n" not in data or not re.search(rb"[\r\n]", data.replace(b"\r\n", b"")):
            assert indexed
        assert emb.dimension == expected.dimension
        zero = np.zeros(expected.dimension)
        for word in WORDS:
            wanted = word in vocab
            assert (word in emb) == (wanted and word in expected)
            want = expected.lookup(word) if wanted else zero
            assert emb.lookup(word).tobytes() == want.tobytes()
        assert len(emb) == sum(word in emb for word in WORDS)

    @pytest.mark.parametrize("bad, message", [
        ("zz 1", "expected 2 components, found 1"),
        ("zz 1 2 3", "expected 2 components, found 3"),
        ("zz", "expected 2 components, found 0"),
        ("zz 1 abc", "non-numeric component"),
        ("zz 1 1_0x", "non-numeric component"),
        ("zz nan 1", "non-finite component"),
        ("zz 1 1e400", "non-finite component"),
    ])
    def test_bad_unused_row_names_its_line(self, tmp_path, bad, message):
        lines = filler(BLOCK + 10)
        lines.insert(BLOCK + 4, bad)  # in the second block
        path = write_lines(tmp_path / "emb.txt", lines)
        with pytest.raises(EmbeddingFormatError,
                           match=re.escape(f"line {BLOCK + 5}: {message}")):
            load_embeddings(path, {"u0"})

    def test_unused_first_row_without_components_names_line_1(self, tmp_path):
        path = write_lines(tmp_path / "emb.txt", ["zz"] + filler(3))
        with pytest.raises(EmbeddingFormatError,
                           match="line 1: entry has no vector components"):
            load_embeddings(path, {"u0"})

    @pytest.mark.parametrize("second", ["a 0 1", "a 0 1_0", "a 0 abc"])
    def test_duplicate_across_block_boundary_keeps_first(self, tmp_path, second):
        # lines BLOCK and BLOCK + 1; later rows of a word are only counted
        path = write_lines(tmp_path / "emb.txt", filler(BLOCK - 1) + ["a 1 0", second])
        emb = load_embeddings(path, {"a"})
        assert len(emb) == 1
        assert emb.lookup("a").tolist() == [1, 0]

    def test_seed_template_word_is_loaded(self, tmp_path, monkeypatch):
        corpus = write_corpus(tmp_path, [
            record(["Acme", "bought", "Bolt"], [ORG(0, 1), ORG(2, 3)]),
        ])
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps({"relation": "acquired", "type_pair": ["ORG", "ORG"],
                                     "positive_templates": ["[X] purchased [Y]"]}))
        table = write_lines(tmp_path / "emb.txt",
                            ["bought 1 0", "purchased 0 1", "unused 1 1"])
        stores = []

        def spy(*args):
            stores.append(load_embeddings(*args))
            return stores[-1]

        monkeypatch.setattr(brex.cli, "load_embeddings", spy)
        ingested = ingest_inputs(corpus, table, seeds, RunConfig().limits)
        [emb] = stores
        assert "purchased" in emb and "bought" in emb and "unused" not in emb
        [template] = build_seed_state(ingested.spec, ingested.emb, "ordered").pos_templates
        assert template.v_between.tolist() == [0, 1]

    def test_ingest_ignores_unused_rows(self, tmp_path):
        fixture = build_planted_fixture(n_sentences=80)
        plain = fixture.write(tmp_path / "plain")
        padded = fixture.write(tmp_path / "padded")
        rows = padded["embeddings"].read_text().splitlines()
        rng = np.random.default_rng(0)
        dim = len(rows[0].split()) - 1
        pad = [f"pad{k} " + " ".join(map(repr, rng.normal(size=dim).tolist()))
               for k in range(10_000)]
        half = len(rows) // 2
        # the fixture's rows straddle the first block boundary
        write_lines(padded["embeddings"], pad[:BLOCK - 3] + rows[:half]
                    + pad[BLOCK - 3:5000] + rows[half:] + pad[5000:])

        def snapshot(paths):
            ingested = ingest_inputs(paths["corpus"], paths["embeddings"], paths["seeds"],
                                     RunConfig().limits)
            state = build_seed_state(ingested.spec, ingested.emb, "ordered")
            return ([(i.id, i.pair, i.template.key()) for i in ingested.instances],
                    [list(state.pos_pairs.keys()), list(state.neg_pairs.keys()),
                     [key for key, _ in state.pos_templates.items()],
                     [key for key, _ in state.neg_templates.items()]],
                    ingested.counters)

        instances, state, counters = snapshot(plain)
        assert instances and state[2]
        assert snapshot(padded) == (instances, state, counters)


def table_pad(n):
    """One n-byte table row, n >= 8."""
    return b"pad" + b" " * (n - 7) + b"0 0\n"


def record_pad(n):
    """One n-byte corpus record without entities, n >= 34."""
    return b'{"tokens": ["' + b"p" * (n - 33) + b'"], "entities": []}\n'


def halves(first, second, pad=table_pad, least=8):
    """The file ``first + second`` (text or bytes), with a ``pad`` line of at
    least ``least`` bytes before ``first`` and after ``second`` so that both
    halves have the same byte count: a cut into two ranges falls between
    them. Returns the file and the cut."""
    a, b = (x.encode() if isinstance(x, str) else x for x in (first, second))
    x = max(least, least + len(b) - len(a))
    data = pad(x) + a + b + pad(x + len(a) - len(b))
    return data, x + len(a)


@contextlib.contextmanager
def failing_workers(failure):
    """Make each worker of _parse_split raise or exit 3; yields the list of
    _parse_split's results, its lists of parts."""
    parent = os.getpid()
    parse_split = brex.corpus._parse_split
    results = []

    def spy(path, floor, parse):
        def flaky(start, end):
            if os.getpid() != parent:
                if failure == "raise":
                    raise RuntimeError("worker failure")
                os._exit(3)
            return parse(start, end)

        results.append(parse_split(path, floor, flaky))
        return results[-1]

    with mock.patch.object(brex.corpus, "_parse_split", spy):
        yield results


class TestRangeSplit:
    """load_embeddings over several byte ranges gives the one-pass table or
    error."""

    @pytest.fixture
    def table(self, tmp_path):
        def write(first, second):
            data, cut = halves(first, second)
            path = tmp_path / "emb.txt"
            path.write_bytes(data)
            assert cuts(path, 2) == [0, cut, len(data)]
            return path
        return write

    def test_bad_duplicate_in_a_later_range_loads(self, table):
        emb = split_load(table("a 1 0\n", "a 0 abc\n"), {"a"})
        assert len(emb) == 1
        assert emb.lookup("a").tolist() == [1, 0]

    def test_bad_first_row_in_a_later_range_names_its_line(self, table):
        path = table("a 1 0\nb 0 1\n", "c 1 x\n")
        with pytest.raises(EmbeddingFormatError) as reference:
            support.reference_load_embeddings(path)
        assert "line 4: non-numeric component" in str(reference.value)
        with pytest.raises(EmbeddingFormatError) as got:
            split_load(path, {"a"})
        assert str(got.value) == str(reference.value)
        assert_no_child_left()

    @pytest.mark.parametrize("first, second", [
        ("a 1 0\r\n", "b 0 1\r\n"),
        ("a 1 0\rb 0 1\n", "\rc 1 1\rd 0 0\r"),
        ("a 1 0\n", "\n  \nb 0 1\n"),
        ("a 1 0\n", "a 0 1\rb 0\r"),
    ], ids=["crlf", "lone-cr", "blank", "bad-after-cr"])
    def test_line_ends_at_a_cut(self, table, first, second):
        path = table(first, second)
        vocab = {"a", "b", "c", "d"}
        try:
            expected = support.reference_load_embeddings(path)
        except EmbeddingFormatError as exc:
            with pytest.raises(EmbeddingFormatError, match=re.escape(str(exc))):
                split_load(path, vocab)
            return
        assert_same_rows(split_load(path, vocab), expected, vocab)

    def test_empty_last_range(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"a 1 0\nb" + b" " * 100 + b"0 1\n")
        assert cuts(path, 2) == [0, path.stat().st_size, path.stat().st_size]
        assert_same_rows(split_load(path, {"a", "b"}),
                         support.reference_load_embeddings(path), {"a", "b"})

    @pytest.mark.parametrize("failure", ["raise", "exit"])
    def test_failed_worker_gives_the_one_range_table(self, tmp_path, failure):
        path = write_lines(tmp_path / "emb.txt", filler(40) + ["u0 1 1", "a 1 0"])
        parse_range = brex.corpus._parse_range
        calls = []

        def recorded(table, start, end, *args):
            calls.append((start, end))
            return parse_range(table, start, end, *args)

        vocab = {"u0", "u39", "a"}
        with failing_workers(failure) as results, \
                mock.patch.object(brex.corpus, "_parse_range", recorded):
            emb = split_load(path, vocab, cpus=3)
        assert [len(parts) for parts in results] == [1]
        assert calls == [(0, cuts(path, 3)[1]), (0, None)]
        assert_same_rows(emb, support.reference_load_embeddings(path), vocab)
        assert emb.lookup("u0").tolist() == [0.25, 0.5]
        assert_no_child_left()

    def test_fork_failure_gives_the_one_range_table(self, tmp_path):
        path = write_lines(tmp_path / "emb.txt", filler(40) + ["a 1 0"])
        fds = len(os.listdir("/dev/fd"))
        with mock.patch.object(os, "fork", side_effect=BlockingIOError(11, "no process")):
            emb = split_load(path, {"a", "u3"})
        assert_same_rows(emb, support.reference_load_embeddings(path), {"a", "u3"})
        assert len(os.listdir("/dev/fd")) == fds


class TestTableSplitFloor:
    """On 2 CPUs a table splits in two from 1 MiB on, about where two ranges
    began to beat one in fresh processes, and a smaller one is one range."""

    SPLIT = 1 << 20

    @staticmethod
    def table(path, size):
        """A table of distinct rows w0, w1, ... whose size is within a row of
        ``size`` bytes."""
        rows, total = [], 0
        for k in itertools.count():
            row = f"w{k} {k / 7!r} {-k / 3!r}\n"
            if total + len(row) > size:
                break
            rows.append(row)
            total += len(row)
        path.write_text("".join(rows), encoding="utf-8")
        return path, {f"w{k}" for k in range(0, len(rows), 97)} | {f"w{len(rows) - 1}"}

    @staticmethod
    def load(path, vocab, cpus):
        """load_embeddings on ``cpus`` CPUs in a fresh cache, so that the
        table is parsed each time; the store and the count of forks."""
        with support.fresh_cache(), \
                mock.patch.object(os, "sched_getaffinity", return_value=set(range(cpus))), \
                mock.patch.object(os, "fork", wraps=os.fork) as fork, \
                mock.patch.object(brex.corpus, "_parse_split",
                                  wraps=brex.corpus._parse_split) as parse_split:
            emb = load_embeddings(path, vocab)
        assert parse_split.call_count == 1  # parsed, not read from an index
        return emb, fork.call_count

    def test_table_from_1_mib_forks_once(self, tmp_path):
        path, vocab = self.table(tmp_path / "emb.txt", self.SPLIT + 64)
        assert path.stat().st_size >= self.SPLIT
        emb, forks = self.load(path, vocab, cpus=2)
        assert forks == 1
        one, forks = self.load(path, vocab, cpus=1)
        assert forks == 0
        assert len(emb) == len(vocab)
        assert_same_rows(emb, one, vocab)
        assert_no_child_left()

    def test_table_under_1_mib_is_one_range(self, tmp_path):
        path, vocab = self.table(tmp_path / "emb.txt", self.SPLIT - 1)
        emb, forks = self.load(path, vocab, cpus=2)
        assert forks == 0
        assert len(emb) == len(vocab)


# Rows with blank lines, words outside ASCII, a duplicate word and a
# component that only float() reads ("1_0"); "b" and "c" are not in INDEXED.
INDEXED_ROWS = ["a 1 0.5", "", "b 0.25 -1", "café 1_0 2", "  ", "日本 3 4", "a 9 9",
                "c 0 0", "d 1e308 -2e-3"]
INDEXED = {"a", "café", "日本", "d", "zz"}


def indexes(cache):
    """The row indexes in the cache directory ``cache`` (see conftest.py)."""
    return sorted(cache.glob("*")) if cache.exists() else []


def store_rows(emb):
    """The words of ``emb`` in its order, each with its vector's bytes."""
    return [(word, vec.tobytes()) for word, vec in emb._vectors.items()]


def reference_rows(path, vocab):
    """store_rows of the one-pass reference load of ``path`` kept to ``vocab``."""
    return [row for row in store_rows(support.reference_load_embeddings(path))
            if row[0] in vocab]


def rewrite_index(index, **arrays):
    """Replace arrays of the npz row index at ``index``."""
    with np.load(index, allow_pickle=False) as data:
        arrays = {**{name: data[name] for name in data.files}, **arrays}
    with open(index, "wb") as fh:
        np.savez(fh, **arrays)


class TestTableIndex:
    """The first load of a table that validates in full writes its row index
    under its sha256; a later load reads only the vocabulary's rows there and
    gives the same store, and any doubt about the index means a parse."""

    @staticmethod
    def table(path, end="\n"):
        path.write_bytes("".join(row + end for row in INDEXED_ROWS).encode("utf-8"))
        return path

    @staticmethod
    def load(path, vocab=INDEXED, cpus=2):
        """load_embeddings over ranges of one byte or more on ``cpus`` CPUs;
        the store and whether the table was parsed."""
        with mock.patch.object(brex.corpus, "_MIN_TABLE_RANGE_BYTES", 1), \
                mock.patch.object(os, "sched_getaffinity", return_value=set(range(cpus))), \
                mock.patch.object(brex.corpus, "_parse_split",
                                  wraps=brex.corpus._parse_split) as parse_split:
            emb = load_embeddings(path, vocab)
        return emb, parse_split.call_count == 1

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_warm_load_gives_the_cold_store(self, tmp_path, table_cache, end):
        path = self.table(tmp_path / "emb.txt", end)
        cold, parsed = self.load(path)
        assert parsed
        assert [index.name for index in indexes(table_cache)] == [
            brex.corpus.file_sha256(path) + ".npz"]
        warm, parsed = self.load(path)
        assert not parsed
        assert store_rows(cold) == store_rows(warm) == reference_rows(path, INDEXED)
        assert [word for word, _ in store_rows(warm)] == ["a", "café", "日本", "d"]
        assert warm.lookup("a").tolist() == [1, 0.5]  # the first row wins
        assert not warm.lookup("d").flags.writeable

    def test_a_table_mixing_crlf_with_lf_is_parsed_each_time(self, tmp_path,
                                                             table_cache):
        path = tmp_path / "emb.txt"
        path.write_bytes("".join(row + ("\r\n" if k % 2 else "\n")
                                 for k, row in enumerate(INDEXED_ROWS)).encode("utf-8"))
        for _ in range(2):
            emb, parsed = self.load(path, cpus=1)
            assert parsed
            assert store_rows(emb) == reference_rows(path, INDEXED)
            assert indexes(table_cache) == []

    def test_a_table_replaced_since_its_digest_is_parsed_and_not_indexed(
            self, tmp_path, table_cache):
        path = self.table(tmp_path / "emb.txt")
        self.load(path)
        [index] = indexes(table_cache)
        written = index.read_bytes()
        hashed = brex.corpus.HashedPath(path)
        other = tmp_path / "other.txt"  # same size and row offsets, other bits
        other.write_bytes(path.read_bytes().replace(b"a 1 0.5", b"a 1 0.7"))
        os.replace(other, path)
        emb, parsed = self.load(hashed)
        assert parsed
        assert store_rows(emb) == reference_rows(path, INDEXED)
        assert emb.lookup("a").tolist() == [1, 0.7]
        assert indexes(table_cache) == [index] and index.read_bytes() == written

    def test_the_index_is_written_whole_in_a_private_directory(self, tmp_path,
                                                               table_cache):
        path = self.table(tmp_path / "emb.txt")
        with mock.patch.object(os, "replace", wraps=os.replace) as replace:
            self.load(path)
        [index] = indexes(table_cache)
        [(tmp, target)] = [call.args for call in replace.call_args_list]
        assert (Path(tmp).parent, target) == (table_cache, str(index))
        assert stat.S_IMODE(table_cache.stat().st_mode) == 0o700

    # a doubtful index is closed as it is found doubtful, not left to the collector
    @pytest.mark.filterwarnings("error::ResourceWarning",
                                "error::pytest.PytestUnraisableExceptionWarning")
    @pytest.mark.parametrize("damage", ["table-rewritten", "truncated", "corrupt",
                                        "other-word", "unordered-offsets", "pickled",
                                        "other-version"])
    def test_a_doubtful_index_means_a_parse_that_rewrites_it(self, tmp_path, table_cache,
                                                             damage):
        path = self.table(tmp_path / "emb.txt")
        self.load(path)
        [index] = indexes(table_cache)
        if damage == "table-rewritten":  # same size and mtime, other bits
            before = path.stat()
            path.write_bytes(path.read_bytes().replace(b"a 1 0.5", b"a 1 0.7"))
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
            assert (path.stat().st_size, path.stat().st_mtime_ns) == (
                before.st_size, before.st_mtime_ns)
        elif damage == "truncated":
            index.write_bytes(index.read_bytes()[:-100])
        elif damage == "corrupt":
            data = bytearray(index.read_bytes())
            data[len(data) // 2] ^= 1
            index.write_bytes(bytes(data))
        elif damage == "other-word":  # the offset of "a" is that of the row of "b"
            with np.load(index) as data:
                words = data["words"].tobytes().split(b"\n")
            words[:2] = words[1::-1]
            rewrite_index(index, words=np.frombuffer(b"\n".join(words), dtype=np.uint8))
        elif damage == "unordered-offsets":
            with np.load(index) as data:
                offsets = data["offsets"][::-1].copy()
            rewrite_index(index, offsets=offsets)
        elif damage == "pickled":  # an object array, which only a pickle holds
            with np.load(index) as data:
                words = data["words"].tobytes().decode("utf-8").split("\n")
            rewrite_index(index, words=np.array(words, dtype=object))
        else:
            version = brex.corpus._INDEX_VERSION + 1
            rewrite_index(index, key=np.array(f"{index.stem} {version}"))
        emb, parsed = self.load(path)
        assert parsed
        assert store_rows(emb) == reference_rows(path, INDEXED)
        [rewritten] = [entry for entry in indexes(table_cache)
                       if entry.stem == brex.corpus.file_sha256(path)]
        warm, parsed = self.load(path)  # the rewritten entry is read
        assert not parsed
        assert store_rows(warm) == store_rows(emb)

    def test_a_table_with_a_bad_row_is_never_indexed(self, tmp_path, table_cache):
        path = write_lines(tmp_path / "emb.txt", ["a 1 0", "b 1 x", "c 0 1"])
        for _ in range(2):
            with pytest.raises(EmbeddingFormatError,
                               match="line 2: non-numeric component"):
                self.load(path, {"a"})
            assert indexes(table_cache) == []

    def test_an_unwritable_cache_means_a_parse_each_time(self, tmp_path, monkeypatch,
                                                         caplog):
        blocker = tmp_path / "cache"
        blocker.write_text("")  # a file: no directory can be made under it
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        path = self.table(tmp_path / "emb.txt")
        for _ in range(2):
            emb, parsed = self.load(path)
            assert parsed
            assert store_rows(emb) == reference_rows(path, INDEXED)
        assert [rec for rec in caplog.records if rec.levelno >= logging.WARNING] == []

    def test_a_warm_load_parses_only_the_vocabulary_rows(self, tmp_path):
        rows = [f"u{k} {k} {-k}" for k in range(3 * BLOCK)]
        path = write_lines(tmp_path / "emb.txt", rows)
        vocab = {"u5", f"u{2 * BLOCK}", "zz"}
        cold, parsed = self.load(path, vocab)
        assert parsed
        with mock.patch.object(brex.corpus, "_parse_block",
                               wraps=brex.corpus._parse_block) as parse_block, \
                mock.patch.object(os, "fork", wraps=os.fork) as fork:
            warm, parsed = self.load(path, vocab)
        assert not parsed and fork.call_count == 0
        [(lines, _)] = [call.args for call in parse_block.call_args_list]
        assert lines == [rows[5] + "\n", rows[2 * BLOCK] + "\n"]
        assert store_rows(warm) == store_rows(cold) == reference_rows(path, vocab)


OK = record(["Acme", "bought", "Bolt"], [ORG(0, 1), ORG(2, 3)])
MIXED = record(["Maria", "left", "Acme", "for", "Bolt"], [PER(0, 1), ORG(2, 3), ORG(4, 5)])
OVERLAP = record(["a", "b", "c"], [ORG(0, 2), ORG(1, 3)])
BAD_SPAN = record(["a", "b"], [ORG(1, 5)])


class TestCorpusSplit:
    """load_corpus over several byte ranges gives the one-pass corpus, the
    one-pass warnings in order, or the one-pass error."""

    @pytest.fixture(autouse=True)
    def warnings(self, caplog):
        caplog.set_level(logging.WARNING, logger="brex.corpus")

        def take():
            messages = [rec.getMessage() for rec in caplog.records]
            caplog.clear()
            return messages
        return take

    @pytest.fixture
    def corpus(self, tmp_path):
        def write(first, second):
            data, cut = halves(first, second, pad=record_pad, least=34)
            path = tmp_path / "corpus.jsonl"
            path.write_bytes(data)
            assert cuts(path, 2) == [0, cut, len(data)]
            return path
        return write

    @staticmethod
    def split_corpus(path, cpus=2):
        """load_corpus with ranges of one byte or more on ``cpus`` CPUs, in a
        fresh cache, so that the corpus is parsed even when it was loaded
        before, and the results of _parse_split, its lists of parts."""
        parse_split = brex.corpus._parse_split
        results = []

        def spy(*args):
            results.append(parse_split(*args))
            return results[-1]

        with support.fresh_cache(), \
                mock.patch.object(brex.corpus, "_MIN_CORPUS_RANGE_BYTES", 1), \
                mock.patch.object(os, "sched_getaffinity", return_value=set(range(cpus))), \
                mock.patch.object(brex.corpus, "_parse_split", spy):
            return load_corpus(path, {"ORG"}), results

    def assert_one_pass(self, path, warnings):
        """The split load of ``path`` merged its two ranges into the one-pass
        corpus, with the one-pass warnings; returns those warnings."""
        expected = load_corpus(path, {"ORG"})  # far below the floor: one range
        logged = warnings()
        loaded, [parts] = self.split_corpus(path)
        assert len(parts) == 2
        assert loaded == expected
        assert warnings() == logged
        return logged

    def test_blank_lines_end_a_range(self, corpus, warnings):
        path = corpus(f"{OK}\n{MIXED}\n\n  \n\t\n", f"{OVERLAP}\n{OK}\n{BAD_SPAN}\n")
        logged = self.assert_one_pass(path, warnings)
        assert logged == [
            f"{path}: line 7: overlapping entity spans, record rejected",
            f"{path}: line 9: bad entity span (1, 5), record rejected",
            "dropped 1 entities with types outside ['ORG']",
        ]

    @pytest.mark.parametrize("first, second, lineno", [
        (f"{OK}\r\n{OVERLAP}\r\n", f"{MIXED}\r\n{BAD_SPAN}\r\n", 5),
        (f"{OK}\r{OVERLAP}\n", f"\r{MIXED}\r{BAD_SPAN}\r", 6),
        (f"{OK}\r\r\n", f"{OVERLAP}\r\n\r{BAD_SPAN}\n", 6),
    ], ids=["crlf", "lone-cr", "cr-before-crlf"])
    def test_line_ends_at_a_cut(self, corpus, warnings, first, second, lineno):
        path = corpus(first, second)
        logged = self.assert_one_pass(path, warnings)
        assert f"{path}: line {lineno}: bad entity span (1, 5), record rejected" in logged

    def test_rejected_record_in_a_later_range(self, corpus, warnings):
        path = corpus(f"{OK}\n{MIXED}\n", f"{OK}\n{OVERLAP}\n{MIXED}\n")
        logged = self.assert_one_pass(path, warnings)
        assert logged == [f"{path}: line 5: overlapping entity spans, record rejected",
                          "dropped 2 entities with types outside ['ORG']"]
        loaded = load_corpus(path, {"ORG"})
        assert [sent.sid for sent in loaded.sentences] == [1, 2, 3, 4]
        assert (loaded.accepted_records, loaded.rejected_records) == (6, 1)

    def test_empty_last_range(self, tmp_path, warnings):
        path = tmp_path / "corpus.jsonl"
        long = record(["x" * 200, "bought", "Bolt"], [ORG(0, 1), ORG(2, 3)])
        path.write_text(f"{OVERLAP}\n{long}\n")
        assert cuts(path, 2) == [0, path.stat().st_size, path.stat().st_size]
        assert self.assert_one_pass(path, warnings) == [
            f"{path}: line 1: overlapping entity spans, record rejected"]

    # the decoder reads ahead, so a byte that is not UTF-8 fails the read
    # before the rejected record before it is parsed
    @pytest.mark.parametrize("bad, message, rejected", [
        (b"{not json\n", "line 6: invalid JSON (", [3]),
        (b'{"tokens": ["\xff"], "entities": []}\n', "line 6: not UTF-8 (byte 0xff", []),
        (b"[" * 100_000 + b"\n", "line 6: invalid JSON (nested too deeply)", [3]),
        (pytest.param(b'{"tokens": [], "entities": [], "n": ' + b"7" * (INT_DIGITS + 1)
                      + b"}\n", f"line 6: invalid JSON (Exceeds the limit ({INT_DIGITS} digits)",
                      [3], marks=needs_int_limit)),
    ], ids=["json", "utf-8", "deep", "long-int"])
    def test_bad_record_in_a_later_range_names_its_line(self, corpus, warnings,
                                                        bad, message, rejected):
        path = corpus(f"{OK}\n{OVERLAP}\n", f"{MIXED}\n\n".encode() + bad)
        with pytest.raises(CorpusFormatError) as reference:
            load_corpus(path, {"ORG"})
        assert f"{path}: {message}" in str(reference.value)
        logged = warnings()
        assert logged == [f"{path}: line {lineno}: overlapping entity spans, record rejected"
                          for lineno in rejected]
        with pytest.raises(CorpusFormatError) as got:
            self.split_corpus(path)
        assert str(got.value) == str(reference.value)
        assert warnings() == logged
        assert_no_child_left()

    @pytest.mark.parametrize("failure", ["raise", "exit"])
    def test_failed_worker_gives_the_one_pass_corpus(self, corpus, warnings, failure):
        path = corpus(f"{OK}\n{OVERLAP}\n", f"{MIXED}\n{BAD_SPAN}\n")
        expected = load_corpus(path, {"ORG"})
        logged = warnings()
        with failing_workers(failure) as results:
            loaded, _ = self.split_corpus(path, cpus=3)
        assert [len(parts) for parts in results] == [1]
        assert loaded == expected
        assert warnings() == logged
        assert_no_child_left()

    def test_fork_failure_gives_the_one_pass_corpus(self, corpus, warnings):
        path = corpus(f"{OK}\n{OVERLAP}\n", f"{MIXED}\n{BAD_SPAN}\n")
        expected = load_corpus(path, {"ORG"})
        logged = warnings()
        fds = len(os.listdir("/dev/fd"))
        with mock.patch.object(os, "fork", side_effect=BlockingIOError(11, "no process")):
            loaded, results = self.split_corpus(path)
        assert [len(parts) for parts in results] == [1]
        assert loaded == expected
        assert warnings() == logged
        assert len(os.listdir("/dev/fd")) == fds

    def test_fifo_is_read_in_one_pass(self, tmp_path, warnings):
        data = f"{OK}\n{OVERLAP}\n{MIXED}\n".encode()
        regular = tmp_path / "corpus.jsonl"
        regular.write_bytes(data)
        expected = load_corpus(regular, {"ORG"})
        logged = warnings()
        fifo = tmp_path / "corpus.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,))
        writer.start()
        try:
            loaded, results = self.split_corpus(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert [len(parts) for parts in results] == [1]
        assert loaded == expected
        assert warnings() == [line.replace(str(regular), str(fifo)) for line in logged]


# Records with blank lines, two rejected records and entities of a type
# outside {"ORG"}; MIXED and PER_ONLY give sentences only under {"ORG", "PER"}.
PER_ONLY = record(["Maria", "met", "Ann"], [PER(0, 1), PER(2, 3)])
INDEXED_RECORDS = [OK, "", MIXED, OVERLAP, "  ", BAD_SPAN, PER_ONLY, OK, "\t", MIXED]


class TestCorpusIndex:
    """The first load of a corpus that parses without error writes its index
    under its sha256 and type vocabulary; a later load decodes only the lines
    of its sentences and gives the same corpus and warnings, and any doubt
    about the index means a parse."""

    @pytest.fixture(autouse=True)
    def warnings(self, caplog):
        caplog.set_level(logging.WARNING, logger="brex.corpus")

        def take():
            messages = [rec.getMessage() for rec in caplog.records]
            caplog.clear()
            return messages
        return take

    @staticmethod
    def corpus(path, end="\n", rows=INDEXED_RECORDS):
        path.write_bytes("".join(row + end for row in rows).encode("utf-8"))
        return path

    @staticmethod
    def load(path, vocab=frozenset({"ORG"}), cpus=2):
        """load_corpus over ranges of one byte or more on ``cpus`` CPUs; the
        corpus and whether it was parsed."""
        with mock.patch.object(brex.corpus, "_MIN_CORPUS_RANGE_BYTES", 1), \
                mock.patch.object(os, "sched_getaffinity", return_value=set(range(cpus))), \
                mock.patch.object(brex.corpus, "_parse_split",
                                  wraps=brex.corpus._parse_split) as parse_split:
            loaded = load_corpus(path, set(vocab))
        return loaded, parse_split.call_count == 1

    @staticmethod
    def reference(path, vocab=frozenset({"ORG"})):
        """The one-range parse of ``path`` in a fresh cache."""
        with support.fresh_cache():
            return load_corpus(path, set(vocab))

    @staticmethod
    def corpus_indexes(cache, path):
        """The indexes in ``cache`` of the corpus at ``path`` as it is now."""
        return [index for index in indexes(cache)
                if index.name.startswith(brex.corpus.file_sha256(path) + "-")]

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_warm_load_gives_the_cold_corpus(self, tmp_path, table_cache, warnings, end):
        path = self.corpus(tmp_path / "corpus.jsonl", end)
        cold, parsed = self.load(path)
        logged = warnings()
        assert parsed
        assert [index.name for index in indexes(table_cache)] == [
            index.name for index in self.corpus_indexes(table_cache, path)]
        assert len(indexes(table_cache)) == 1
        warm, parsed = self.load(path)
        assert not parsed
        assert warnings() == logged
        assert warm == cold == self.reference(path)
        assert logged == [f"{path}: line 4: overlapping entity spans, record rejected",
                          f"{path}: line 6: bad entity span (1, 5), record rejected",
                          "dropped 4 entities with types outside ['ORG']"]
        assert [sent.sid for sent in warm.sentences] == [0, 1, 3, 4]
        assert (warm.accepted_records, warm.rejected_records, warm.dropped_entities) == (
            5, 2, 4)

    def test_each_type_vocabulary_has_its_own_index(self, tmp_path, table_cache, warnings):
        path = self.corpus(tmp_path / "corpus.jsonl")
        loads = {}
        for vocab in ({"ORG"}, {"PER", "ORG"}):
            loads[frozenset(vocab)], parsed = self.load(path, vocab)
            assert parsed
        assert len(self.corpus_indexes(table_cache, path)) == 2
        wide = loads[frozenset({"ORG", "PER"})]
        assert len(wide.sentences) == 5 and wide.dropped_entities == 0
        for vocab, cold in loads.items():
            warnings()
            warm, parsed = self.load(path, vocab)
            assert not parsed
            assert warm == cold == self.reference(path, vocab)

    def test_a_corpus_replaced_since_its_digest_is_parsed_and_not_indexed(
            self, tmp_path, table_cache):
        path = self.corpus(tmp_path / "corpus.jsonl")
        self.load(path)
        [index] = indexes(table_cache)
        written = index.read_bytes()
        hashed = brex.corpus.HashedPath(path)
        # the indexed lines still give their sentences; line 7 gives one more
        rows = [row.replace("PER", "ORG") if row == PER_ONLY else row
                for row in INDEXED_RECORDS]
        other = self.corpus(tmp_path / "other.jsonl", rows=rows)
        os.replace(other, path)
        loaded, parsed = self.load(hashed)
        assert parsed
        assert loaded == self.reference(path)
        assert [sent.sid for sent in loaded.sentences] == [0, 1, 2, 3, 4]
        assert indexes(table_cache) == [index] and index.read_bytes() == written

    # a doubtful index is closed as it is found doubtful, not left to the collector
    @pytest.mark.filterwarnings("error::ResourceWarning",
                                "error::pytest.PytestUnraisableExceptionWarning")
    @pytest.mark.parametrize("damage", ["corpus-rewritten", "truncated", "corrupt",
                                        "other-line", "line-count", "scalar", "pickled",
                                        "other-version"])
    def test_a_doubtful_index_means_a_parse_that_rewrites_it(self, tmp_path, table_cache,
                                                             warnings, damage):
        path = self.corpus(tmp_path / "corpus.jsonl")
        self.load(path)
        [index] = indexes(table_cache)
        if damage == "corpus-rewritten":  # same size and mtime: a PER becomes an ORG
            before = path.stat()
            with open(path, "r+b") as fh:
                data = fh.read()
                fh.seek(data.index(b'"PER"'))
                fh.write(b'"ORG"')
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
            assert (path.stat().st_ino, path.stat().st_size, path.stat().st_mtime_ns) == (
                before.st_ino, before.st_size, before.st_mtime_ns)
        elif damage == "truncated":
            index.write_bytes(index.read_bytes()[:-100])
        elif damage == "corrupt":  # a bit of the first sentence line flipped
            data = bytearray(index.read_bytes())
            data[data.index(b"\x93NUMPY", data.index(b"sentence_lines")) + 128] ^= 1
            index.write_bytes(bytes(data))
        elif damage == "other-line":  # the first sentence's line is a rejected record's
            with np.load(index) as data:
                lines = data["sentence_lines"].copy()
            lines[0] = 4
            rewrite_index(index, sentence_lines=lines)
        elif damage == "line-count":  # one text line more than the corpus has
            with np.load(index) as data:
                counts = data["counts"] + [0, 0, 1]
            rewrite_index(index, counts=counts)
        elif damage == "scalar":  # an array of no length
            rewrite_index(index, rejected_lines=np.array(4))
        elif damage == "pickled":  # an object array, which only a pickle holds
            with np.load(index) as data:
                reasons = data["reasons"].tobytes().decode("utf-8").split("\n")
            rewrite_index(index, reasons=np.array(reasons, dtype=object))
        else:
            with np.load(index) as data:
                digest, version, vocab = data["key"].item().split(" ", 2)
            rewrite_index(index, key=np.array(f"{digest} {int(version) + 1} {vocab}"))
        warnings()
        loaded, parsed = self.load(path)
        logged = warnings()
        assert parsed
        assert loaded == self.reference(path)
        if damage == "corpus-rewritten":
            assert loaded.sentences[0].entities[0] == EntitySpan(0, 1, "ORG")
        [rewritten] = self.corpus_indexes(table_cache, path)
        assert (damage == "corpus-rewritten") == (rewritten != index)
        warnings()
        warm, parsed = self.load(path)  # the rewritten entry is read
        assert not parsed
        assert warm == loaded
        assert warnings() == logged

    def test_a_corpus_with_a_bad_record_is_never_indexed(self, tmp_path, table_cache,
                                                        warnings):
        path = self.corpus(tmp_path / "corpus.jsonl",
                           rows=INDEXED_RECORDS[:5] + ["{not json"] + INDEXED_RECORDS[5:])
        errors = []
        for _ in range(2):
            with pytest.raises(CorpusFormatError, match="line 6: invalid JSON") as got:
                self.load(path)
            errors.append((str(got.value), warnings()))
            assert indexes(table_cache) == []
        assert errors[0] == errors[1]
        assert errors[0][1] == [f"{path}: line 4: overlapping entity spans, record rejected"]

    def test_an_unwritable_cache_means_a_parse_each_time(self, tmp_path, monkeypatch,
                                                         warnings):
        blocker = tmp_path / "cache"
        blocker.write_text("")  # a file: no directory can be made under it
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        path = self.corpus(tmp_path / "corpus.jsonl")
        for _ in range(2):
            loaded, parsed = self.load(path)
            assert parsed
            assert loaded == self.reference(path)

    def test_a_warm_load_decodes_only_the_sentences_and_forks_nothing(self, tmp_path):
        path = self.corpus(tmp_path / "corpus.jsonl", rows=INDEXED_RECORDS * 5)
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            cold, parsed = self.load(path)
        assert parsed and fork.call_count == 1
        with mock.patch.object(brex.corpus, "_as_object",
                               wraps=brex.corpus._as_object) as as_object, \
                mock.patch.object(os, "fork", wraps=os.fork) as fork:
            warm, parsed = self.load(path)
        assert not parsed and fork.call_count == 0
        decoded_lines = [call.args[3] for call in as_object.call_args_list]
        assert decoded_lines == [k * 10 + n for k in range(5) for n in (1, 3, 8, 10)]
        assert warm == cold

    def test_one_range_and_split_loads_write_the_same_index(self, tmp_path):
        path = self.corpus(tmp_path / "corpus.jsonl", rows=INDEXED_RECORDS * 5)
        written = []
        for cpus in (1, 2, 3):
            with support.fresh_cache() as cache, \
                    mock.patch.object(os, "fork", wraps=os.fork) as fork:
                loaded, parsed = self.load(path, cpus=cpus)
                [index] = indexes(cache)
                written.append((index.name, index.read_bytes(), loaded))
            assert parsed and fork.call_count == cpus - 1
        assert written[0] == written[1] == written[2]


FUZZ_WORDS = ("Acme", "bought", "Bolt", "was", "by", "Maria")
FUZZ_TYPES = ("ORG", "PER")  # the relation's type pair
FUZZ_TAGS = ("NNP", "VBD", "VBN", "IN")
TO_BE = {"be", "am", "is", "are", "was", "were", "been", "being"}


def is_passive(sent, a_end, b_start):
    """The passive rule, stated on its own: the sentence has POS tags, the
    tokens between the entities end in "by", and one of them is a form of
    "to be" whose next token is tagged VBD or VBN."""
    between = sent.tokens[a_end:b_start]
    if sent.pos is None or len(between) < 3 or between[-1].lower() != "by":
        return False
    return any(between[k].lower() in TO_BE and sent.pos[a_end + k + 1] in ("VBD", "VBN")
               for k in range(len(between) - 1))


@st.composite
def fuzzed_records(draw):
    """A corpus record with spans laid out free, touching the previous span
    (end to start), overlapping it, nested in it or out of bounds, of the
    relation's types or another, maybe after a pair of spans of the
    relation's types, in either order, around a passive-shaped window, with
    POS tags missing, null or drawn, spelled any way (see
    support.json_spelling); and what load_corpus makes of it: why it is
    rejected, else its sentence (sid 0, None when it yields none) and its
    dropped-entity count."""
    n = draw(st.integers(1, 8))
    tokens = [draw(st.sampled_from(FUZZ_WORDS)) for _ in range(n)]
    spans = []
    if n >= 5 and draw(st.booleans()):  # a pair of either order around "was bought by"
        k = draw(st.integers(1, n - 4))
        tokens[k:k + 3] = [draw(st.sampled_from(["was", "Were"])), "bought",
                           draw(st.sampled_from(["by", "BY"]))]
        first, second = draw(st.sampled_from([FUZZ_TYPES, FUZZ_TYPES[::-1]]))
        spans += [(k - 1, k, first), (k + 3, k + 4, second)]
    for _ in range(draw(st.integers(0, 4 - len(spans)))):
        layout = draw(st.sampled_from(["free", "touching", "overlapping", "nested", "out"]))
        if layout == "out":
            start, end = draw(st.sampled_from([(-1, 1), (1, 1), (2, 1), (n - 1, n + 1)]))
        elif not spans or layout == "free":
            start = draw(st.integers(0, n - 1))
            end = draw(st.integers(start + 1, n))
        else:
            prev_start, prev_end = spans[-1][:2]
            start = {"touching": prev_end, "overlapping": prev_end - 1,
                     "nested": prev_start}[layout]
            end = start + 1 if layout == "nested" else start + draw(st.integers(1, 2))
        spans.append((start, end, draw(st.sampled_from(FUZZ_TYPES + ("LOC",)))))
    pos = draw(st.sampled_from(["missing", "null", "tagged"]))
    tags = [draw(st.sampled_from(FUZZ_TAGS)) for _ in tokens] if pos == "tagged" else None
    row = {"tokens": tokens, "entities": [{"start": s, "end": e, "type": t}
                                          for s, e, t in spans]}
    if pos != "missing":
        row["pos"] = tags
    line = draw(support.json_spelling(row))
    for s, e, _ in spans:
        if not 0 <= s < e <= n:
            return line, f"bad entity span ({s}, {e})"
    ordered = sorted(spans)
    if any(b[0] < a[1] for a, b in zip(ordered, ordered[1:])):
        return line, "overlapping entity spans"
    kept = [EntitySpan(*span) for span in ordered if span[2] in FUZZ_TYPES]
    sent = sentence(tokens, [(s.start, s.end, s.etype) for s in kept], pos=tags)
    return line, (sent if len(kept) >= 2 else None, len(spans) - len(kept))


def passive_row(first, second):
    """A row of the fuzz test's corpus, as fuzzed_records and its line ends
    give one: the tagged passive "Acme was bought by Maria", its entities
    typed ``first`` and ``second``."""
    tokens, tags = ["Acme", "was", "bought", "by", "Maria"], ["NNP", "VBD", "VBN", "IN", "NNP"]
    spans = [(0, 1, first), (4, 5, second)]
    line = record(tokens, [{"start": s, "end": e, "type": t} for s, e, t in spans], tags)
    return (line, (sentence(tokens, spans, pos=tags), 0)), "\n", ""


class TestFuzzedCorpus:
    """Random records and span layouts through load_corpus, the table and
    extract_instances, each file read in one part, in two, and through the
    indexes the first read wrote."""

    @given(st.lists(st.tuples(fuzzed_records(), st.sampled_from(["\n", "\r\n"]),
                              st.sampled_from(["", "", "\n", "  \r\n"])), max_size=10))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    # the passive of each orientation: one kept, swapped, and one dropped
    @example(rows=[passive_row(*FUZZ_TYPES[::-1]), passive_row(*FUZZ_TYPES)])
    def test_invariants_and_split_load(self, tmp_path, caplog, rows):
        caplog.set_level(logging.WARNING, logger="brex.corpus")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes("".join(line + end + blank
                                   for (line, _), end, blank in rows).encode())
        rng = np.random.default_rng(0)
        table = write_lines(tmp_path / "emb.txt", [
            " ".join([word, *map(repr, rng.normal(size=3).tolist())])
            for word in FUZZ_WORDS])

        def ingest():
            caplog.clear()
            loaded = load_corpus(corpus, set(FUZZ_TYPES))
            emb = load_embeddings(table, set(FUZZ_WORDS))
            result = extract_instances(loaded.sentences, emb, RunConfig().limits,
                                       FUZZ_TYPES)
            # the condition under which exact_values equals sim_instances
            assert all(v.flags.c_contiguous and not v.flags.writeable
                       for i in result.instances
                       for v in (i.template.v_before, i.template.v_between,
                                 i.template.v_after))
            return (loaded, [emb.lookup(word).tobytes() for word in FUZZ_WORDS],
                    [(i.id, i.pair, i.template.key()) for i in result.instances],
                    [rec.getMessage() for rec in caplog.records])

        one = ingest()
        with support.fresh_cache(), \
                mock.patch.object(brex.corpus, "_MIN_CORPUS_RANGE_BYTES", 1), \
                mock.patch.object(brex.corpus, "_MIN_TABLE_RANGE_BYTES", 1), \
                mock.patch.object(os, "sched_getaffinity", return_value={0, 1}):
            split = ingest()
        with mock.patch.object(brex.corpus, "_parse_split") as parse_split:
            warm = ingest()  # through the indexes the first ingest wrote
        assert not parse_split.called
        assert split == warm == one
        for loaded, _, instances, _ in (one, split):
            sentences = {sent.sid: sent for sent in loaded.sentences}
            for iid, pair, key in instances:
                sid, a_start, a_end, b_start, b_end = map(int, re.findall(r"\d+", iid))
                sent = sentences[sid]
                etype = {(s.start, s.end): s.etype for s in sent.entities}
                a, b = (TypedEntity(" ".join(sent.tokens[start:end]), etype[start, end])
                        for start, end in ((a_start, a_end), (b_start, b_end)))
                expected = (b, a) if is_passive(sent, a_end, b_start) else (a, b)
                assert (pair.e1, pair.e2) == expected
                assert key[0] == pair.types == FUZZ_TYPES  # the gate reads the swapped pair
        loaded, _, instances, logged = one
        accepted = [outcome for (_, outcome), _, _ in rows if not isinstance(outcome, str)]
        assert loaded.sentences == [dataclasses.replace(sent, sid=sid)
                                    for sid, (sent, _) in enumerate(accepted) if sent]
        dropped = sum(dropped for _, dropped in accepted)
        assert (loaded.accepted_records, loaded.rejected_records,
                loaded.dropped_entities) == (len(accepted), len(rows) - len(accepted), dropped)
        linenos = itertools.accumulate(1 + bool(blank) for _, _, blank in rows)
        assert logged == [
            f"{corpus}: line {lineno - bool(blank)}: {outcome}, record rejected"
            for lineno, ((_, outcome), _, blank) in zip(linenos, rows)
            if isinstance(outcome, str)
        ] + [f"dropped {dropped} entities with types outside {sorted(FUZZ_TYPES)}"] * bool(dropped)
        ids = [iid for iid, _, _ in instances]
        assert len(set(ids)) == len(ids)
        # every pair of the relation's types after the swap, within the
        # between limit, is an instance
        wanted = set()
        for sent in loaded.sentences:
            for a, b in itertools.combinations(sent.entities, 2):
                types = (a.etype, b.etype)
                if is_passive(sent, a.end, b.start):
                    types = types[::-1]
                if types == FUZZ_TYPES and b.start - a.end <= RunConfig().max_between:
                    wanted.add(f"s{sent.sid}:{a.start}.{a.end}-{b.start}.{b.end}")
        assert set(ids) == wanted
        spans = {sent.sid: {(s.start, s.end) for s in sent.entities}
                 for sent in loaded.sentences}
        for iid in ids:
            sid, a_start, a_end, b_start, b_end = map(int, re.findall(r"\d+", iid))
            assert {(a_start, a_end), (b_start, b_end)} <= spans[sid]
            assert a_end <= b_start  # never from nested or overlapping spans


DECODE_WORDS = ("Acme", "bought", "Zoë", "été", "😀")
BLANKS = ("", " ", "\t", "\u3000", "\x1c", " \u3000\x1c\t")  # str.isspace, not JSON


@st.composite
def json_lines_line(draw):
    """A line without its line end, as a JSON-lines file may hold one: a
    corpus record of ORG spans spelled any way (see support.json_spelling),
    that record after a BOM or before trailing data, an array, a number, a
    constant such as NaN, or a line of whitespace."""
    kind = draw(st.sampled_from(["record", "record", "bom", "trailing", "array",
                                 "number", "constant", "blank"]))
    if kind == "blank":
        return draw(st.sampled_from(BLANKS))
    if kind == "array":
        return draw(support.json_spelling(["Acme", 1, None, {}]))
    if kind == "number":
        return draw(support.json_spelling(draw(st.sampled_from([3, -0.5, 1e300]))))
    if kind == "constant":
        return draw(st.sampled_from(["NaN", "-Infinity", "null", "true", '"Acme"']))
    n = draw(st.integers(1, 4))
    tokens = [draw(st.sampled_from(DECODE_WORDS)) for _ in range(n)]
    entities = draw(st.sampled_from([[], [ORG(0, 1)]] + [[ORG(0, 1), ORG(n - 1, n)]] * (n > 1)))
    line = draw(support.json_spelling({"tokens": tokens, "entities": entities}))
    if kind == "bom":
        return "\ufeff" + line
    if kind == "trailing":
        return line + draw(st.sampled_from(["{}", "x", " 1", ",", "]"]))
    return line


def decoded(line):
    """What _as_object makes of the line ``line`` of a file "f": the object,
    or the error line."""
    try:
        return brex.corpus._as_object(line, CorpusFormatError, "f", 1)
    except CorpusFormatError as exc:
        return str(exc)


class TestJsonDecode:
    """Each line of a JSON-lines file reads as json.loads reads it: the same
    object, or the same error line; a line of whitespace is blank."""

    @given(st.lists(st.tuples(json_lines_line(), st.sampled_from(["\n", "\r\n", "\r"])),
                    min_size=1, max_size=8))
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(rows=[(" " + OK, "\n"), ("\u3000", "\r"), ("\x1c", "\r\n"), (OK + "\t", "\n")])
    def test_lines_read_as_json_loads_reads_them(self, tmp_path, rows):
        for line in (line + "\n" for line, _ in rows):
            if not line.isspace():
                expected = support.reference_json_lines("f", line)
                got = decoded(line)
                if isinstance(expected, str):
                    assert got == expected
                else:
                    [(_, value)] = expected
                    assert got == value and list(got) == list(value)
        text = "".join(line + end for line, end in rows)
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(text.encode())
        expected = support.reference_json_lines(path, text)
        if isinstance(expected, str):
            for load in (lambda: load_corpus(path, {"ORG"}),
                         lambda: TestCorpusSplit.split_corpus(path)):
                with pytest.raises(CorpusFormatError) as exc:
                    load()
                assert str(exc.value) == expected
            return
        sentences = [sentence(row["tokens"], [(e["start"], e["end"], e["type"])
                                              for e in row["entities"]], sid=sid)
                     for sid, (_, row) in enumerate(expected) if len(row["entities"]) == 2]
        corpus = LoadedCorpus(sentences, accepted_records=len(expected))
        assert load_corpus(path, {"ORG"}) == corpus
        assert TestCorpusSplit.split_corpus(path)[0] == corpus

    @needs_int_limit
    def test_long_integer_is_invalid_json(self):
        assert decoded('{"n": ' + "7" * (INT_DIGITS + 1) + "}") == (
            f"f: line 1: invalid JSON (Exceeds the limit ({INT_DIGITS} digits) for integer "
            f"string conversion: value has {INT_DIGITS + 1} digits)")
        assert decoded('{"n": ' + "7" * INT_DIGITS + "}") == {"n": int("7" * INT_DIGITS)}


def _memory_emb():
    from brex.corpus import EmbeddingStore
    vectors = {
        "acquire": np.array([1.0, 0.0, 0.0, 0.0]),
        "merger": np.array([0.0, 1.0, 0.0, 0.0]),
        "with": np.array([0.0, 0.0, 1.0, 0.0]),
        "bought": np.array([0.6, 0.8, 0.0, 0.0]),
    }
    return EmbeddingStore(4, vectors)


class TestExtractInstances:
    def test_windows_hand_trace(self, emb4):
        sent = sentence(["Google", "acquired", "DoubleClick", "in", "2007"],
                        [(0, 1, "ORG"), (2, 3, "ORG")])
        result = extract_instances([sent], emb4, (2, 6, 2), ("ORG", "ORG"))
        assert len(result.instances) == 1
        inst = result.instances[0]
        assert inst.tokens_between == ("acquired",)
        assert inst.pair.e1.surface == "Google"
        assert inst.pair.e2.surface == "DoubleClick"
        # after window is ["in", "2007"], both OOV, so the vector is zero
        assert inst.template.v_after.tolist() == [0, 0, 0, 0]
        assert inst.template.v_before.tolist() == [0, 0, 0, 0]

    def test_between_limit_skips_and_counts(self, emb4):
        tokens = ["A"] + ["w"] * 7 + ["B"]
        sent = sentence(tokens, [(0, 1, "ORG"), (8, 9, "ORG")])
        result = extract_instances([sent], emb4, (2, 6, 2), ("ORG", "ORG"))
        assert not result.instances
        assert result.skipped_over_limit == 1

    def test_pair_at_sentence_start_has_zero_before(self, emb4):
        sent = sentence(["A", "acquire", "B", "x"], [(0, 1, "ORG"), (2, 3, "ORG")])
        result = extract_instances([sent], emb4, (2, 6, 2), ("ORG", "ORG"))
        assert result.instances[0].template.v_before.tolist() == [0, 0, 0, 0]

    def test_type_pair_filter(self, emb4):
        sent = sentence(["A", "met", "B"], [(0, 1, "ORG"), (2, 3, "PER")])
        result = extract_instances([sent], emb4, (2, 6, 2), ("ORG", "ORG"))
        assert not result.instances
        result = extract_instances([sent], emb4, (2, 6, 2), ("ORG", "PER"))
        assert len(result.instances) == 1

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_window_limits_and_type_invariant(self, data):
        emb = _memory_emb()
        n_tokens = data.draw(st.integers(4, 14))
        tokens = [f"w{k}" for k in range(n_tokens)]
        a = data.draw(st.integers(0, n_tokens - 2))
        b = data.draw(st.integers(a + 1, n_tokens - 1))
        limits = (data.draw(st.integers(0, 3)), data.draw(st.integers(0, 8)),
                  data.draw(st.integers(0, 3)))
        sent = sentence(tokens, [(a, a + 1, "ORG"), (b, b + 1, "ORG")])
        result = extract_instances([sent], emb, limits, ("ORG", "ORG"))
        for inst in result.instances:
            assert len(inst.tokens_between) <= limits[1]
            assert inst.template.type_pair == inst.pair.types
        again = extract_instances([sent], emb, limits, ("ORG", "ORG"))
        assert [i.id for i in again.instances] == [i.id for i in result.instances]
        for first, second in zip(result.instances, again.instances):
            assert first.template.key() == second.template.key()  # bit-equal vectors


class TestReorderPassive:
    """extract_instances orients each pair once, through reorder_passive."""

    PASSIVE = (["Reebok", "was", "acquired", "by", "Adidas"],
               [(0, 1, "ORG"), (4, 5, "ORG")])

    @staticmethod
    def extract(emb4, tokens, spans, pos):
        [inst] = extract_instances([sentence(tokens, spans, pos=pos)], emb4, (2, 6, 2),
                                   ("ORG", "ORG")).instances
        return inst

    def test_passive_swaps_pair(self, emb4):
        inst = self.extract(emb4, *self.PASSIVE, pos=["NNP", "VBD", "VBN", "IN", "NNP"])
        assert (inst.pair.e1.surface, inst.pair.e2.surface) == ("Adidas", "Reebok")
        assert inst.template.type_pair == ("ORG", "ORG")
        # the id and the windows keep sentence order
        assert inst.id == "s0:0.1-4.5"
        assert inst.tokens_between == ("was", "acquired", "by")

    def test_swap_orients_the_type_pair(self, emb4):
        """The type gate reads the pair after the swap: an (ORG, PER) passive
        is a (PER, ORG) instance, and no (ORG, PER) one."""
        sent = sentence(["Bolt", "was", "founded", "by", "Maria"],
                        [(0, 1, "ORG"), (4, 5, "PER")],
                        pos=["NNP", "VBD", "VBN", "IN", "NNP"])
        [inst] = extract_instances([sent], emb4, (2, 6, 2), ("PER", "ORG")).instances
        assert inst.pair.types == inst.template.type_pair == ("PER", "ORG")
        assert (inst.pair.e1.surface, inst.pair.e2.surface) == ("Maria", "Bolt")
        assert inst.id == "s0:0.1-4.5"
        assert not extract_instances([sent], emb4, (2, 6, 2), ("ORG", "PER")).instances
        # without the passive, the sentence order is the pair's
        active = dataclasses.replace(sent, pos=None)
        assert not extract_instances([active], emb4, (2, 6, 2), ("PER", "ORG")).instances
        [inst] = extract_instances([active], emb4, (2, 6, 2), ("ORG", "PER")).instances
        assert inst.pair.types == inst.template.type_pair == ("ORG", "PER")

    def test_active_unchanged(self, emb4):
        inst = self.extract(emb4, ["Adidas", "acquired", "Reebok"],
                            [(0, 1, "ORG"), (2, 3, "ORG")], pos=["NNP", "VBD", "NNP"])
        assert (inst.pair.e1.surface, inst.pair.e2.surface) == ("Adidas", "Reebok")

    def test_between_not_ending_in_by_unchanged(self, emb4):
        inst = self.extract(emb4, ["X", "is", "located", "nearby", "Y"],
                            [(0, 1, "ORG"), (4, 5, "ORG")],
                            pos=["NNP", "VBZ", "VBN", "RB", "NNP"])
        assert (inst.pair.e1.surface, inst.pair.e2.surface) == ("X", "Y")

    def test_missing_pos_disables(self, emb4):
        inst = self.extract(emb4, *self.PASSIVE, pos=None)
        assert (inst.pair.e1.surface, inst.pair.e2.surface) == ("Reebok", "Adidas")


class TestSeedTemplates:
    def test_between_only_template(self, emb4):
        (template,) = parse_seed_templates(["[X] acquire [Y]"], emb4, ("ORG", "ORG"))
        np.testing.assert_array_equal(template.v_between, [1, 0, 0, 0])
        assert template.v_before.tolist() == [0, 0, 0, 0]
        assert template.v_after.tolist() == [0, 0, 0, 0]

    def test_multiword_between(self, emb4):
        (template,) = parse_seed_templates(["[X] merger with [Y]"], emb4,
                                           ("ORG", "ORG"))
        np.testing.assert_allclose(template.v_between,
                                   np.array([0, 1, 1, 0]) / np.sqrt(2))

    def test_before_and_after_context_supported(self, emb4):
        (template,) = parse_seed_templates(["acquire [X] merger [Y] with"],
                                           emb4, ("ORG", "ORG"))
        np.testing.assert_array_equal(template.v_before, [1, 0, 0, 0])
        np.testing.assert_array_equal(template.v_between, [0, 1, 0, 0])
        np.testing.assert_array_equal(template.v_after, [0, 0, 1, 0])

    def test_missing_placeholder_errors(self, tmp_path):
        path = write_seeds(tmp_path, positive_templates=["acquire [Y]"])
        with pytest.raises(SeedFormatError, match="acquire"):
            parse_seed_file(path)

    def test_reversed_placeholders_error(self, tmp_path):
        path = write_seeds(tmp_path, negative_templates=["[Y] acquire [X]"])
        with pytest.raises(SeedFormatError):
            parse_seed_file(path)


def write_seeds(tmp_path, **fields):
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps({"relation": "acquired", "type_pair": ["ORG", "ORG"],
                                **fields}))
    return path


class TestSeedFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps({
            "relation": "acquired",
            "type_pair": ["ORG", "ORG"],
            "positive_pairs": [["Adidas", "Reebok"], ["Google", "DoubleClick"]],
            "negative_pairs": [["A", "B"]],
            "positive_templates": ["[X] acquire [Y]"],
            "negative_templates": [],
        }))
        spec = parse_seed_file(path)
        assert spec.relation == "acquired"
        assert spec.type_pair == ("ORG", "ORG")
        assert ("Adidas", "Reebok") in spec.positive_pairs
        assert spec.negative_pairs == [("A", "B")]

    def test_missing_key_errors(self, tmp_path):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps({"relation": "r"}))
        with pytest.raises(SeedFormatError):
            parse_seed_file(path)

    @pytest.mark.parametrize("value, problem", [
        ("[" * 100_000, "nested too deeply"),
        pytest.param("7" * (INT_DIGITS + 1), f"Exceeds the limit ({INT_DIGITS} digits)",
                     marks=needs_int_limit),
    ], ids=["deep", "long-int"])
    def test_unreadable_json_errors(self, tmp_path, value, problem):
        path = tmp_path / "seeds.json"
        path.write_text('{"relation": "r", "type_pair": ' + value + "}")
        with pytest.raises(SeedFormatError,
                           match=re.escape(f"{path}: invalid JSON ({problem}")):
            parse_seed_file(path)
