"""Reliability formula, mode-dependent counts, soft-or combination, taxonomy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brex.engine import cover_hop3, match_channels
from brex.model import RunConfig, SeedState
from brex.scoring import (
    categorize_extractor,
    count_positives,
    count_unknown,
    extractor_signature,
    instance_confidence,
    reliability,
    score_extractor,
    soft_or,
)
from brex.similarity import SimilarityMeasure, sim_instance_cluster

from support import axis, extractor_of, graph_for, make_instance, make_template, \
    rand_template

ASYM = SimilarityMeasure("cc-asym")


def cfg_for(mode, **kwargs):
    kwargs.setdefault("measure", ASYM)
    return RunConfig(mode=mode, **kwargs)


class TestReliability:
    def test_hand_arithmetic(self):
        assert reliability(2, 1, 0, 1.0, 0.0) == pytest.approx(2 / 3, abs=1e-12)
        assert reliability(4, 1, 10, 0.5, 0.0001) == pytest.approx(
            4000 / 4501, abs=1e-12)

    def test_no_negatives_no_unknowns_is_one(self):
        assert reliability(5, 0, 0, 0.5, 0.0001) == 1.0

    def test_zero_positives_is_zero(self):
        assert reliability(0, 3, 7, 1.0, 1.0) == 0.0

    def test_weights_zero_gives_one_for_any_counts(self):
        assert reliability(1, 99, 1000, 0.0, 0.0) == 1.0

    @given(st.floats(0.5, 500), st.floats(0, 500), st.floats(0, 500),
           st.floats(0, 5), st.floats(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_range(self, p, n, u, wn, wu):
        assert 0.0 <= reliability(p, n, u, wn, wu) <= 1.0

    @given(st.integers(1, 50), st.integers(1, 50), st.integers(0, 50),
           st.integers(0, 50))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_positives(self, p, extra, n, u):
        lo = reliability(p, n, u, 0.5, 0.0001)
        hi = reliability(p + extra, n, u, 0.5, 0.0001)
        if n + u > 0:
            assert hi > lo
        else:
            assert hi == lo == 1.0


def build_seeded_world():
    """Six instances: m1/m2 pair-positives, m3 pair-negative, m1/m4/m5/m6 match
    the positive seed template (between cosine 1), m2/m3 do not."""
    u, w = axis(0), axis(1)
    on_template = make_template(v_between=u)
    off_template = make_template(v_between=w)
    members = [
        make_instance("SeedCo", "TargetCo", on_template, iid="m1"),
        make_instance("OtherCo", "WonCo", off_template, iid="m2"),
        make_instance("BadCo", "WrongCo", off_template, iid="m3"),
        make_instance("NewCo1", "NewCo2", on_template, iid="m4"),
        make_instance("NewCo3", "NewCo4", on_template, iid="m5"),
        make_instance("NewCo5", "NewCo6", on_template, iid="m6"),
    ]
    state = SeedState.empty("ordered")
    state.pos_pairs.add(members[0].pair)
    state.pos_pairs.add(members[1].pair)
    state.neg_pairs.add(members[2].pair)
    state.pos_templates.add(on_template)
    return extractor_of(members), state


def positives(extractor, state, cfg):
    """count_positives over the state's positive seed hits."""
    hits = match_channels(graph_for(extractor.members, cfg), state)
    return count_positives(extractor, hits.pos_pair, hits.pos_template, cfg)


def unknowns(extractor, state, cfg=None):
    hits = match_channels(graph_for(extractor.members, cfg or cfg_for("bree")), state)
    return count_unknown(extractor, hits)


def scored(extractor, state, cfg):
    score_extractor(extractor, match_channels(graph_for(extractor.members, cfg), state), cfg)
    return extractor


class TestCounts:
    def test_bree_counts_pairs(self):
        extractor, state = build_seeded_world()
        cfg = cfg_for("bree")
        assert positives(extractor, state, cfg) == 2.0

    def test_bret_counts_templates(self):
        extractor, state = build_seeded_world()
        cfg = cfg_for("bret")
        assert positives(extractor, state, cfg) == 4.0

    def test_brej_is_additive_with_double_counting(self):
        extractor, state = build_seeded_world()
        cfg = cfg_for("brej")
        # m1 matches both channels and contributes 2
        assert positives(extractor, state, cfg) == 6.0

    def test_bret_empty_template_set_is_zero(self):
        extractor, state = build_seeded_world()
        cfg = cfg_for("bret")
        no_templates = SeedState.empty("ordered")
        for pair in state.pos_pairs:
            no_templates.pos_pairs.add(pair)
        assert positives(extractor, no_templates, cfg) == 0.0

    def test_additivity_law_on_random_worlds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            members = [make_instance(f"E{rng.integers(6)}", f"F{rng.integers(6)}",
                                     rand_template(rng))
                       for _ in range(int(rng.integers(1, 12)))]
            extractor = extractor_of(members)
            state = SeedState.empty("ordered")
            for inst in members[:int(rng.integers(0, len(members) + 1))]:
                state.pos_pairs.add(inst.pair)
            state.pos_templates.add(rand_template(rng))
            counts = {mode: positives(extractor, state, cfg_for(mode))
                      for mode in ("bree", "bret", "brej")}
            assert counts["brej"] == counts["bree"] + counts["bret"]

    def test_count_unknown(self):
        extractor, state = build_seeded_world()
        # m1, m2 positive; m3 negative; m4..m6 unknown
        assert unknowns(extractor, state) == 3

    def test_count_unknown_empty_seeds_counts_all(self):
        extractor, _ = build_seeded_world()
        assert unknowns(extractor, SeedState.empty("ordered")) == 6


class TestExtractorConfidence:
    def test_spec_arithmetic_via_counts(self):
        extractor, state = build_seeded_world()
        cfg = cfg_for("bree", w_neg=1.0, w_unk=1e-9)
        # p=2, n=1, u=3: 2 / (2 + 1 + ~0)
        assert scored(extractor, state, cfg).confidence == pytest.approx(
            2 / 3, rel=1e-6)

    def test_score_extractor_fills_fields(self):
        extractor, state = build_seeded_world()
        cfg = cfg_for("brej", w_neg=1.0, w_unk=0.0)
        scored(extractor, state, cfg)
        assert extractor.n_pos == 6.0
        assert extractor.n_neg == 1.0
        assert extractor.n_unknown == 3
        assert extractor.confidence == 6 / 7

    @pytest.mark.parametrize("weights", [{"w_neg": -0.5}, {"w_neg": math.nan},
                                         {"w_unk": math.nan}, {"w_unk": math.inf}])
    def test_weights_must_be_finite_and_nonnegative(self, weights):
        with pytest.raises(ValueError, match="w_neg and w_unk"):
            cfg_for("bree", **weights)


class TestSoftOr:
    def test_empty_is_zero(self):
        assert soft_or([]) == 0.0

    def test_single_factor(self):
        assert soft_or([0.54]) == pytest.approx(0.54, abs=1e-12)

    def test_two_halves(self):
        assert soft_or([0.5, 0.5]) == pytest.approx(0.75, abs=1e-12)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_dominates_max(self, values):
        combined = soft_or(values)
        assert combined >= max(values) - 1e-12
        assert combined <= 1.0 + 1e-12


def probe_confidence(probe, groups, confidences, cfg):
    """instance_confidence of ``probe`` over extractors holding the member
    groups with the given confidences, covered as bootstrap covers it."""
    instances = [probe] + [m for members in groups for m in members]
    extractors, start = [], 1
    for k, (members, confidence) in enumerate(zip(groups, confidences)):
        extractor = extractor_of(instances, range(start, start + len(members)), k=k)
        extractor.confidence = confidence
        extractors.append(extractor)
        start += len(members)
    covering = cover_hop3(graph_for(instances, cfg), extractors).get(0, [])
    return instance_confidence(covering)


class TestInstanceConfidence:
    def test_product_of_confidence_and_similarity(self):
        member = make_instance(template=make_template(v_between=axis(0)))
        probe = make_instance(
            template=make_template(v_between=0.75 * axis(0) + 0.6614 * axis(1)))
        value = probe_confidence(probe, [[member]], [0.8], cfg_for("bree"))
        assert value == pytest.approx(0.8 * 0.75, abs=1e-4)

    def test_zero_similarity_annihilates(self):
        member = make_instance(template=make_template(v_between=axis(0)))
        probe = make_instance(template=make_template(v_between=axis(1)))
        assert probe_confidence(probe, [[member]], [1.0], cfg_for("bree")) == 0.0

    def test_no_covering_extractor_gives_zero(self):
        member = make_instance(template=make_template(v_between=axis(0)))
        probe = make_instance(template=make_template(v_between=axis(1)))
        assert instance_confidence([]) == 0.0
        assert probe_confidence(probe, [[member]], [1.0], cfg_for("bree")) == 0.0

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(11)
        cfg = cfg_for("bree", tau_sim=0.6)
        for _ in range(25):
            groups = [[make_instance(template=rand_template(rng))
                       for _ in range(int(rng.integers(1, 5)))]
                      for _ in range(int(rng.integers(1, 8)))]
            confidences = [float(rng.uniform(0, 1)) for _ in groups]
            probe = make_instance(template=rand_template(rng))
            expected = 1.0
            for members, confidence in zip(groups, confidences):
                sim = sim_instance_cluster(probe, members, cfg.measure)
                if sim >= cfg.tau_sim:
                    expected *= 1.0 - confidence * sim
            expected = 1.0 - expected
            assert probe_confidence(probe, groups, confidences, cfg) == expected


class TestTaxonomy:
    def test_four_way_mapping(self):
        cfg = cfg_for("bree")
        extractor = extractor_of([make_instance()])
        extractor.confidence = 0.85
        assert categorize_extractor(extractor, noisy=False, cfg=cfg) == "NNHC"
        assert categorize_extractor(extractor, noisy=True, cfg=cfg) == "NHC"
        extractor.confidence = 0.6667
        assert categorize_extractor(extractor, noisy=False, cfg=cfg) == "NNLC"
        assert categorize_extractor(extractor, noisy=True, cfg=cfg) == "NLC"

    def test_joint_counting_flips_category(self):
        extractor, state = build_seeded_world()
        cfg_pairs = cfg_for("bree", w_neg=1.0, w_unk=0.0)
        scored(extractor, state, cfg_pairs)
        assert extractor.confidence == 2 / 3
        assert categorize_extractor(extractor, noisy=False, cfg=cfg_pairs) == "NNLC"
        cfg_joint = cfg_for("brej", w_neg=1.0, w_unk=0.0)
        scored(extractor, state, cfg_joint)
        assert extractor.confidence == 6 / 7
        assert categorize_extractor(extractor, noisy=False, cfg=cfg_joint) == "NNHC"


def test_signature_is_order_insensitive():
    a, b = make_instance(iid="x1"), make_instance(iid="x2")
    assert extractor_signature(extractor_of([a, b], k=0)) == \
        extractor_signature(extractor_of([b, a], k=1))
