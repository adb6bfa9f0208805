"""Gold-set scoring, the iteration-1 seed-hit counts `brex hits` reports, and
extractor attribute aggregation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brex.engine import match_channels
from brex.errors import GoldFormatError
from brex.evaluate import (
    ExtractorSummary,
    GoldKB,
    extractor_stats,
    load_gold,
    prf1,
)
from brex.model import RunConfig, SeedState
from brex.similarity import SimilarityMeasure

from support import axis, graph_for, make_instance, make_template


def gold_of(pairs, pairing="ordered"):
    gold = GoldKB(relation="acquired", pairing=pairing)
    for e1, e2 in pairs:
        gold.add(e1, e2)
    return gold


def accepted_of(pairs, confidence=0.9):
    return [(make_instance(e1, e2).pair, confidence) for e1, e2 in pairs]


class TestPRF1:
    def test_exact_match_is_perfect(self):
        pairs = [("A", "B"), ("C", "D"), ("E", "F")]
        scores = prf1(accepted_of(pairs), gold_of(pairs))
        assert scores == (1.0, 1.0, 1.0, 3)

    def test_harmonic_mean_arithmetic(self):
        gold = gold_of([(f"G{k}", f"H{k}") for k in range(16)])
        extracted = [(f"G{k}", f"H{k}") for k in range(8)] + \
            [(f"X{k}", f"Y{k}") for k in range(2)]
        scores = prf1(accepted_of(extracted), gold)
        assert scores.precision == pytest.approx(0.8)
        assert scores.recall == pytest.approx(0.5)
        assert scores.f1 == pytest.approx(0.6154, abs=1e-4)
        assert scores.out_count == 10

    def test_nothing_above_threshold(self):
        gold = gold_of([("A", "B")])
        scores = prf1(accepted_of([("A", "B")], confidence=0.4), gold, threshold=0.5)
        assert scores == (0.0, 0.0, 0.0, 0)

    def test_empty_gold_errors(self):
        with pytest.raises(GoldFormatError):
            prf1(accepted_of([("A", "B")]), gold_of([]))

    def test_dedup_is_pair_level(self):
        gold = gold_of([("A", "B")])
        accepted = accepted_of([("A", "B"), ("A", "B"), ("a", "b")])
        scores = prf1(accepted, gold)
        assert scores.out_count == 1
        assert scores.precision == 1.0

    def test_biset_gold_matching(self):
        gold = gold_of([("A", "B")], pairing="biset")
        scores = prf1(accepted_of([("B", "A")]), gold)
        assert scores.precision == 1.0 and scores.recall == 1.0

    def test_instances_accepted_directly(self):
        gold = gold_of([("A", "B")])
        scores = prf1([(make_instance("A", "B"), 0.9)], gold)
        assert scores.precision == 1.0

    @given(st.integers(0, 12), st.integers(0, 12), st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, correct, spurious, missing):
        correct_pairs = [(f"C{k}", f"D{k}") for k in range(correct)]
        gold = gold_of(correct_pairs + [(f"M{k}", f"N{k}") for k in range(missing)])
        extracted = correct_pairs + [(f"S{k}", f"T{k}") for k in range(spurious)]
        scores = prf1(accepted_of(extracted), gold)
        assert 0.0 <= scores.precision <= 1.0
        assert 0.0 <= scores.recall <= 1.0
        assert scores.f1 <= min(2 * scores.precision, 2 * scores.recall) + 1e-12
        assert (scores.f1 == 0.0) == (correct == 0)


class TestGoldFile:
    def test_load(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("A\tB\nC\tD\n")
        gold = load_gold(path, "acquired")
        assert len(gold) == 2

    def test_bad_line_errors(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("A B no tab\n")
        with pytest.raises(GoldFormatError, match="line 1"):
            load_gold(path, "acquired")

    def test_empty_errors(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("\n")
        with pytest.raises(GoldFormatError):
            load_gold(path, "acquired")


def hit_count(instances, seeds, cfg):
    """(by_pair, by_template, either) as `brex hits` counts them."""
    hits = match_channels(graph_for(instances, cfg), seeds)
    return tuple(int(mask.sum())
                 for mask in (hits.pos_pair, hits.pos_template, hits.matched("brej")))


class TestHitCount:
    def test_no_matches(self):
        instances = [make_instance("X", "Y")]
        counts = hit_count(instances, SeedState.empty("ordered"),
                           RunConfig(mode="brej"))
        assert counts == (0, 0, 0)

    def test_inclusion_exclusion(self):
        template_hit = make_template(v_between=axis(0))
        template_miss = make_template(v_between=axis(1))
        state = SeedState.empty("ordered")
        state.pos_templates.add(template_hit)
        instances = []
        # 3 pair-only hits, 5 template-only hits, 2 hits on both channels
        for k in range(3):
            inst = make_instance(f"P{k}", f"Q{k}", template_miss)
            state.pos_pairs.add(inst.pair)
            instances.append(inst)
        for k in range(5):
            instances.append(make_instance(f"T{k}", f"U{k}", template_hit))
        for k in range(2):
            inst = make_instance(f"B{k}", f"C{k}", template_hit)
            state.pos_pairs.add(inst.pair)
            instances.append(inst)
        instances.append(make_instance("No", "Hit", template_miss))
        by_pair, by_template, either = hit_count(instances, state, RunConfig(mode="brej"))
        assert by_pair == 5
        assert by_template == 7
        assert either == 10
        assert either == by_pair + by_template - 2
        assert either >= max(by_pair, by_template)

    def test_channels_reported_in_every_mode(self):
        template_hit = make_template(v_between=axis(0))
        state = SeedState.empty("ordered")
        state.pos_templates.add(template_hit)
        instances = [make_instance("A", "B", template_hit)]
        for mode in ("bree", "bret", "brej"):
            _, by_template, _ = hit_count(instances, state, RunConfig(mode=mode))
            assert by_template == 1


def summary(id=0, size=1, n_pos=0.0, n_neg=0.0, confidence=1.0, signature="sig"):
    return ExtractorSummary(id=id, size=size, n_pos=n_pos, n_neg=n_neg,
                            n_unknown=0, confidence=confidence,
                            signature=signature)


class TestExtractorStats:
    def test_mean_member_count(self):
        stats = extractor_stats([summary(size=4), summary(id=1, size=6)])
        assert stats.aie == 5.0

    def test_mean_confidence(self):
        stats = extractor_stats([summary(confidence=1.0),
                                 summary(id=1, confidence=0.5)])
        assert stats.aes == 0.75

    def test_negative_positive_ratio_matches_reported_magnitudes(self):
        stats = extractor_stats([summary(n_pos=313.2, n_neg=44.8)])
        assert stats.ap == pytest.approx(313.2)
        assert stats.an == pytest.approx(44.8)
        assert stats.anp == pytest.approx(0.143, abs=1e-3)

    def test_anp_absent_when_no_positives(self):
        stats = extractor_stats([summary(n_pos=0.0, n_neg=3.0)])
        assert stats.anp is None

    def test_label_fractions(self):
        rows = [summary(id=0, signature="a", confidence=0.9),
                summary(id=1, signature="b", confidence=0.4),
                summary(id=2, signature="c", confidence=0.3),
                summary(id=3, signature="unlabeled", confidence=0.2)]
        labels = {"a": True, "b": False, "c": False}
        stats = extractor_stats(rows, labels)
        assert stats.ane == pytest.approx(1 / 3)
        assert stats.anne == pytest.approx(2 / 3)
        assert stats.ane + stats.anne == pytest.approx(1.0)
        assert stats.annlc == pytest.approx(2 / 3)  # b and c sit below 0.5

    def test_labels_absent_leaves_fields_none(self):
        stats = extractor_stats([summary()])
        assert stats.ane is None and stats.anne is None and stats.annlc is None

    def test_means_match_brute_force_recomputation(self):
        rows = [summary(id=k, size=k + 1, n_pos=float(2 * k), n_neg=float(k % 3),
                        confidence=k / 10) for k in range(10)]
        stats = extractor_stats(rows)
        assert stats.aie == sum(r.size for r in rows) / 10
        assert stats.aes == pytest.approx(sum(r.confidence for r in rows) / 10)
        assert stats.ap == sum(r.n_pos for r in rows) / 10
        assert stats.an == sum(r.n_neg for r in rows) / 10
        assert stats.anp == pytest.approx(stats.an / stats.ap)

    def test_round_trip_dict(self):
        row = summary(size=3, n_pos=2.0, confidence=0.5)
        assert ExtractorSummary.from_dict(row.to_dict()) == row
