"""Ingestion: corpus parsing, embeddings, windowing, passive reordering, seeds."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brex.corpus import (
    EntitySpan,
    TaggedSentence,
    extract_instances,
    load_corpus,
    load_embeddings,
    parse_seed_file,
    parse_seed_templates,
    reorder_passive,
)
from brex.errors import CorpusFormatError, EmbeddingFormatError, SeedFormatError

import support


@pytest.fixture
def emb4(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text(
        "acquire 1 0 0 0\n"
        "merger 0 1 0 0\n"
        "with 0 0 1 0\n"
        "bought 0.6 0.8 0 0\n"
    )
    return load_embeddings(path)


def write_corpus(tmp_path, lines):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def record(tokens, entities, pos=None):
    row = {"tokens": tokens, "entities": entities}
    if pos is not None:
        row["pos"] = pos
    return json.dumps(row)


ORG = lambda start, end: {"start": start, "end": end, "type": "ORG"}  # noqa: E731


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
        assert len(loaded.sentences) == 1

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
        with pytest.raises(CorpusFormatError, match="line 4"):
            load_corpus(path, {"ORG"})

    def test_unknown_type_dropped_with_count(self, tmp_path):
        path = write_corpus(tmp_path, [
            record(["Maria", "joined", "Acme"],
                   [{"start": 0, "end": 1, "type": "PER"}, ORG(2, 3)]),
        ])
        loaded = load_corpus(path, {"ORG"})
        assert loaded.dropped_entities == 1
        assert [e.etype for e in loaded.sentences[0].entities] == ["ORG"]

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
            load_embeddings(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_component_names_line(self, tmp_path, bad):
        path = tmp_path / "bad.txt"
        path.write_text(f"a 1 0 0\nb 0 {bad} 0\n")
        with pytest.raises(EmbeddingFormatError, match="line 2: non-finite"):
            load_embeddings(path)

    def test_huge_finite_components_accepted(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("a 1e308 1e308 -1e308\n")
        np.testing.assert_array_equal(load_embeddings(path).lookup("a"),
                                      [1e308, 1e308, -1e308])

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(EmbeddingFormatError):
            load_embeddings(path)

    def test_duplicates_keep_first(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("a 1 0\na 0 1\n")
        emb = load_embeddings(path)
        np.testing.assert_array_equal(emb.lookup("a"), [1, 0])

    def test_context_vector_is_normalized_sum(self, emb4):
        v = emb4.context_vector(["merger", "with"])
        np.testing.assert_allclose(v, np.array([0, 1, 1, 0]) / np.sqrt(2))
        assert emb4.context_vector([]).tolist() == [0, 0, 0, 0]
        assert emb4.context_vector(["zzz", "yyy"]).tolist() == [0, 0, 0, 0]

    @given(st.lists(st.sampled_from(["acquire", "merger", "with", "bought", "oov"]),
                    min_size=1, max_size=6),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_context_vector_permutation_invariant(self, tokens, pyrandom):
        emb = _memory_emb()
        shuffled = list(tokens)
        pyrandom.shuffle(shuffled)
        a = emb.context_vector(tokens)
        b = emb.context_vector(shuffled)
        assert a.tobytes() == b.tobytes()


def _memory_emb():
    from brex.corpus import EmbeddingStore
    vectors = {
        "acquire": np.array([1.0, 0.0, 0.0, 0.0]),
        "merger": np.array([0.0, 1.0, 0.0, 0.0]),
        "with": np.array([0.0, 0.0, 1.0, 0.0]),
        "bought": np.array([0.6, 0.8, 0.0, 0.0]),
    }
    return EmbeddingStore(4, vectors)


def sentence(tokens, spans, sid=0, pos=None):
    return TaggedSentence(sid=sid, tokens=tuple(tokens),
                          entities=tuple(EntitySpan(*s) for s in spans),
                          pos=tuple(pos) if pos else None)


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
    def _passive_instance(self, emb4):
        sent = sentence(
            ["Reebok", "was", "acquired", "by", "Adidas"],
            [(0, 1, "ORG"), (4, 5, "ORG")],
            pos=["NNP", "VBD", "VBN", "IN", "NNP"],
        )
        result = extract_instances([sent], emb4, (2, 6, 2), ("ORG", "ORG"))
        return result.instances[0], sent

    def test_passive_swaps_pair(self, emb4):
        inst, sent = self._passive_instance(emb4)
        swapped = reorder_passive(inst, sent.pos)
        assert swapped.pair.e1.surface == "Adidas"
        assert swapped.pair.e2.surface == "Reebok"
        assert swapped.template.type_pair == ("ORG", "ORG")

    def test_active_unchanged(self, emb4):
        sent = sentence(["Adidas", "acquired", "Reebok"],
                        [(0, 1, "ORG"), (2, 3, "ORG")],
                        pos=["NNP", "VBD", "NNP"])
        inst = extract_instances([sent], emb4, (2, 6, 2), ("ORG", "ORG")).instances[0]
        assert reorder_passive(inst, sent.pos) is inst

    def test_between_not_ending_in_by_unchanged(self, emb4):
        sent = sentence(["X", "is", "located", "nearby", "Y"],
                        [(0, 1, "ORG"), (4, 5, "ORG")],
                        pos=["NNP", "VBZ", "VBN", "RB", "NNP"])
        inst = extract_instances([sent], emb4, (2, 6, 2), ("ORG", "ORG")).instances[0]
        assert reorder_passive(inst, sent.pos) is inst

    def test_missing_pos_disables(self, emb4):
        inst, _ = self._passive_instance(emb4)
        assert reorder_passive(inst, None) is inst

    def test_idempotent(self, emb4):
        inst, sent = self._passive_instance(emb4)
        once = reorder_passive(inst, sent.pos)
        twice = reorder_passive(once, sent.pos)
        assert twice is once

    @given(st.lists(st.sampled_from(["was", "acquired", "by", "the", "firm"]),
                    min_size=1, max_size=5),
           st.lists(st.sampled_from(["VBD", "VBN", "IN", "DT", "NN"]),
                    min_size=5, max_size=9))
    @settings(max_examples=80, deadline=None)
    def test_idempotent_random(self, between, pos):
        template = support.make_template(v_between=support.axis(0))
        inst = dataclasses.replace(
            support.make_instance(template=template),
            tokens_between=tuple(between), between_start=1,
        )
        pos_tags = tuple(pos) + ("NN",) * 5
        once = reorder_passive(inst, pos_tags)
        twice = reorder_passive(once, pos_tags)
        assert twice.pair == once.pair
        assert twice.passive_swapped == once.passive_swapped


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

    def test_missing_placeholder_errors(self, emb4):
        with pytest.raises(SeedFormatError, match="acquire"):
            parse_seed_templates(["acquire [Y]"], emb4, ("ORG", "ORG"))

    def test_reversed_placeholders_error(self, emb4):
        with pytest.raises(SeedFormatError):
            parse_seed_templates(["[Y] acquire [X]"], emb4, ("ORG", "ORG"))


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
