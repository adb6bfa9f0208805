"""Engine: matching, clustering, growth, coverage, checking, and the full loop."""

import math

import numpy as np
import pytest

from brex.engine import (
    add_to_cache,
    bootstrap,
    check_instance,
    cluster_hop1,
    cover_hop3,
    grow_hop2,
    match_channels,
)
from brex.model import RunConfig, SeedState
from brex.scoring import score_extractor
from brex.similarity import SimilarityMeasure

from support import axis, extractor_of, graph_for, make_instance, make_template, \
    random_world, unit, vec

ASYM = SimilarityMeasure("cc-asym")


def cfg_for(mode="bree", **kwargs):
    kwargs.setdefault("measure", ASYM)
    return RunConfig(mode=mode, **kwargs)


def between(v):
    return make_template(v_between=v)


def match_instance(instance, state, cfg):
    """Hop-1 seed match of one instance, as bootstrap computes it."""
    return bool(match_channels(graph_for([instance], cfg), state).matched(cfg.mode)[0])


def hop1(hits, cfg):
    """cluster_hop1 over a graph of the hits alone, as member-id lists."""
    return [[m.id for m in ex.members] for ex in cluster_hop1(graph_for(hits, cfg),
                                                             list(range(len(hits))))]


class TestMatchInstance:
    def _state_with(self, pos_pair=None, pos_template=None, pairing="ordered"):
        state = SeedState.empty(pairing)
        if pos_pair is not None:
            state.pos_pairs.add(pos_pair)
        if pos_template is not None:
            state.pos_templates.add(pos_template)
        return state

    def test_bree_pair_membership(self):
        inst = make_instance("Adidas", "Reebok")
        state = self._state_with(pos_pair=inst.pair)
        assert match_instance(inst, state, cfg_for("bree"))
        assert not match_instance(make_instance("X", "Y"), state, cfg_for("bree"))

    def test_bree_matching_is_case_insensitive(self):
        inst = make_instance("ADIDAS", "reebok")
        state = self._state_with(pos_pair=make_instance("Adidas", "Reebok").pair)
        assert match_instance(inst, state, cfg_for("bree"))

    def test_bret_threshold(self):
        seed = between(axis(0))
        probe = make_instance(
            template=between(0.72 * axis(0) + math.sqrt(1 - 0.72**2) * axis(1)))
        state = self._state_with(pos_template=seed)
        assert match_instance(probe, state, cfg_for("bret", tau_sim=0.7))
        assert not match_instance(probe, state, cfg_for("bret", tau_sim=0.73))

    def test_bret_ignores_pair_seeds(self):
        inst = make_instance("Adidas", "Reebok", template=between(axis(0)))
        state = self._state_with(pos_pair=inst.pair)
        assert not match_instance(inst, state, cfg_for("bret"))

    def test_brej_disjunction(self):
        seed_template = between(axis(0))
        state = self._state_with(
            pos_pair=make_instance("Adidas", "Reebok").pair,
            pos_template=seed_template,
        )
        by_pair_only = make_instance("Adidas", "Reebok", template=between(axis(1)))
        by_template_only = make_instance("New", "Pair", template=between(axis(0)))
        neither = make_instance("New", "Pair", template=between(axis(1)))
        cfg = cfg_for("brej")
        assert match_instance(by_pair_only, state, cfg)
        assert match_instance(by_template_only, state, cfg)
        assert not match_instance(neither, state, cfg)

    def test_biset_accepts_reversed_pair(self):
        seed = make_instance("Adidas", "Reebok")
        reversed_inst = make_instance("Reebok", "Adidas")
        ordered = self._state_with(pos_pair=seed.pair, pairing="ordered")
        biset = self._state_with(pos_pair=seed.pair, pairing="biset")
        assert not match_instance(reversed_inst, ordered, cfg_for("bree"))
        assert match_instance(reversed_inst, biset, cfg_for("bree", pairing="biset"))


class TestClusterHop1:
    def test_mutually_similar_hits_form_one_cluster(self):
        hits = [make_instance(template=between(axis(0))) for _ in range(3)]
        clusters = hop1(hits, cfg_for())
        assert len(clusters) == 1
        assert len(clusters[0]) == 3

    def test_dissimilar_hits_form_singletons(self):
        hits = [make_instance(template=between(axis(0))),
                make_instance(template=between(axis(1)))]
        clusters = hop1(hits, cfg_for())
        assert [len(c) for c in clusters] == [1, 1]

    def test_empty_hits(self):
        assert hop1([], cfg_for()) == []

    def test_first_fit_in_corpus_order(self):
        u, w = axis(0), axis(1)
        bridge = unit(u + w)  # cos ~0.707 to both axes
        hits = [make_instance(template=between(u), iid="h0"),
                make_instance(template=between(w), iid="h1"),
                make_instance(template=between(bridge), iid="h2")]
        clusters = hop1(hits, cfg_for(tau_sim=0.7))
        # the bridge joins the first cluster it reaches, not the closest
        assert clusters[0] == ["h0", "h2"]


class TestGrowHop2:
    def _grow(self, probes, cfg):
        """Two singleton hop-1 clusters c0 (axis 0) and c1 (axis 1), grown over
        themselves plus the probes; returns member-id lists."""
        centres = [make_instance(template=between(axis(0)), iid="c0"),
                   make_instance(template=between(axis(1)), iid="c1")]
        graph = graph_for(centres + probes, cfg)
        theta = [extractor_of(graph.instances, [0], k=0),
                 extractor_of(graph.instances, [1], k=1)]
        return [[m.id for m in ex.members] for ex in grow_hop2(graph, theta)]

    def test_argmax_assignment_is_exclusive(self):
        probe = make_instance(template=between(vec(0.9, 0.75)), iid="p")
        grown = self._grow([probe], cfg_for(tau_sim=0.7))
        assert grown[0] == ["c0", "p"]
        assert grown[1] == ["c1"]

    def test_below_threshold_joins_nothing(self):
        probe = make_instance(template=between(vec(0.69, 0.0)), iid="p")
        grown = self._grow([probe], cfg_for(tau_sim=0.7))
        assert all(len(members) == 1 for members in grown)

    def test_tie_breaks_to_lowest_cluster_id(self):
        probe = make_instance(template=between(vec(0.8, 0.8)), iid="p")
        grown = self._grow([probe], cfg_for(tau_sim=0.7))
        assert "p" in grown[0]
        assert "p" not in grown[1]

    def test_hop1_members_stay_put(self):
        grown = self._grow([], cfg_for(tau_sim=0.7))
        assert grown[0] == ["c0"]
        assert grown[1] == ["c1"]

    def test_partition_invariant_random(self):
        for seed in range(15):
            instances, state, cfg = random_world(seed, max_instances=30)
            graph = graph_for(instances, cfg)
            hit_rows = np.flatnonzero(match_channels(graph, state).matched(cfg.mode))
            hits = [instances[row] for row in hit_rows]
            grown = grow_hop2(graph, cluster_hop1(graph, hit_rows.tolist()))
            seen = [m.id for ex in grown for m in ex.members]
            assert len(seen) == len(set(seen))
            hit_ids = {h.id for h in hits}
            assert hit_ids <= set(seen)


def covered(instances, cfg):
    """Rows cover_hop3 reports for one extractor holding row 0."""
    graph = graph_for(instances, cfg)
    return [graph.instances[row] for row in cover_hop3(graph, [extractor_of(instances, [0])])]


class TestExpandAndCheck:
    def _check(self, instances, state, cfg, row=0):
        """Score an extractor holding row 0 and check ``row`` against it."""
        graph = graph_for(instances, cfg)
        hits = match_channels(graph, state)
        extractor = extractor_of(instances, [0])
        score_extractor(extractor, hits, cfg)
        covering = cover_hop3(graph, [extractor]).get(row, [])
        return check_instance(covering, hits.pos_template[row], cfg)

    def test_members_always_included(self):
        member = make_instance(template=between(axis(0)))
        assert covered([member], cfg_for()) == [member]

    def test_near_threshold_inclusion(self):
        member = make_instance(template=between(axis(0)))
        near = make_instance(
            template=between(0.71 * axis(0) + math.sqrt(1 - 0.71**2) * axis(1)))
        far = make_instance(
            template=between(0.69 * axis(0) + math.sqrt(1 - 0.69**2) * axis(1)))
        cfg = cfg_for(tau_sim=0.7)
        out = covered([member, near, far], cfg)
        assert near in out and far not in out

    def test_type_incompatible_excluded(self):
        member = make_instance(template=between(axis(0)))
        alien = make_instance(types=("ORG", "PER"),
                              template=make_template(v_between=axis(0),
                                                     types=("ORG", "PER")))
        assert alien not in covered([member, alien], cfg_for())

    def test_check_accepts_above_threshold(self):
        member = make_instance(template=between(axis(0)))
        state = SeedState.empty("ordered")
        state.pos_pairs.add(member.pair)
        cfg = cfg_for("bree", tau_cnf=0.7)
        ok, confidence = self._check([member], state, cfg)
        assert ok and confidence == pytest.approx(1.0)

    def test_brej_check_requires_template_similarity(self):
        member = make_instance(template=between(axis(0)))
        state = SeedState.empty("ordered")
        state.pos_pairs.add(member.pair)
        cfg = cfg_for("brej", tau_cnf=0.5)
        ok, confidence = self._check([member], state, cfg)
        assert confidence >= 0.5 and not ok  # empty template set: conjunct fails
        state.pos_templates.add(between(axis(0)))
        ok, _ = self._check([member], state, cfg)
        assert ok

    def test_uncovered_instance_rejected_with_zero(self):
        member = make_instance(template=between(axis(0)))
        state = SeedState.empty("ordered")
        cfg = cfg_for("bree")
        probe = make_instance(template=between(axis(1)))
        ok, confidence = self._check([member, probe], state, cfg, row=1)
        assert (ok, confidence) == (False, 0.0)


class TestAddToCache:
    def test_mode_routing(self):
        inst = make_instance()
        for mode, pairs, templates in (("bree", 1, 0), ("bret", 0, 1),
                                       ("brej", 1, 1)):
            cache = SeedState.empty("ordered")
            add_to_cache(inst, cache, cfg_for(mode))
            assert (len(cache.pos_pairs), len(cache.pos_templates)) == \
                (pairs, templates)

    def test_duplicate_add_is_idempotent(self):
        cache = SeedState.empty("ordered")
        inst = make_instance()
        add_to_cache(inst, cache, cfg_for("brej"))
        add_to_cache(inst, cache, cfg_for("brej"))
        assert len(cache.pos_pairs) == 1
        assert len(cache.pos_templates) == 1


class TestBootstrap:
    def _seed_only_world(self):
        seed_template = between(axis(0))
        seeded = [make_instance("Acme", "Bolt", seed_template, iid="s0", sid=0),
                  make_instance("Acme", "Bolt", seed_template, iid="s1", sid=1)]
        strangers = [make_instance(f"O{k}", f"P{k}", between(axis(k % 3 + 1)),
                                   iid=f"o{k}", sid=2 + k)
                     for k in range(4)]
        state = SeedState.empty("ordered")
        state.pos_pairs.add(seeded[0].pair)
        return seeded + strangers, state

    def test_only_seed_occurrences_accepted(self):
        instances, state = self._seed_only_world()
        result = bootstrap(instances, state, cfg_for("bree", iterations=1))
        assert sorted(i.id for i, _ in result.accepted) == ["s0", "s1"]
        assert len(result.yield_state.pos_pairs) == 1

    def test_extreme_threshold_yields_seeds_only(self):
        rng = np.random.default_rng(23)
        instances, state = self._seed_only_world()
        noisy = [make_instance(f"N{k}", f"M{k}",
                               between(unit(rng.normal(size=6))), iid=f"n{k}")
                 for k in range(10)]
        result = bootstrap(instances + noisy, state,
                           cfg_for("bree", iterations=3, tau_sim=0.99))
        accepted_pairs = {(i.pair.e1.surface, i.pair.e2.surface)
                          for i, _ in result.accepted}
        assert accepted_pairs <= {("Acme", "Bolt")}
        assert len(result.yield_state.pos_pairs) == 1

    def test_no_hits_produces_diagnostic(self):
        instances, _ = self._seed_only_world()
        state = SeedState.empty("ordered")
        state.pos_pairs.add(make_instance("Nowhere", "ToBe").pair)
        result = bootstrap(instances, state, cfg_for("bree", iterations=2))
        assert result.extractors == []
        assert result.accepted == []
        assert result.diagnostic is not None

    def test_monotone_yield_and_stats(self):
        for seed in range(10):
            instances, state, cfg = random_world(seed, max_instances=25)
            result = bootstrap(instances, state, cfg)
            sizes = [s["yield"] for s in result.per_iteration_stats]
            for prev, cur in zip(sizes, sizes[1:]):
                for key in prev:
                    assert cur[key] >= prev[key]
            for pair in state.pos_pairs:
                assert pair in result.yield_state.pos_pairs

    def test_accepted_items_appear_in_yield(self):
        for seed in range(10):
            instances, state, cfg = random_world(seed, max_instances=25)
            result = bootstrap(instances, state, cfg)
            for inst, confidence in result.accepted:
                assert confidence >= cfg.tau_cnf
                if cfg.mode in ("bree", "brej"):
                    assert inst.pair in result.yield_state.pos_pairs
                if cfg.mode in ("bret", "brej"):
                    assert inst.template in result.yield_state.pos_templates

    def test_deterministic(self):
        instances, state, cfg = random_world(7, max_instances=30)
        first = bootstrap(instances, state.copy(), cfg)
        second = bootstrap(instances, state.copy(), cfg)
        assert [(i.id, c) for i, c in first.accepted] == \
            [(i.id, c) for i, c in second.accepted]
        assert [[m.id for m in ex.members] for ex in first.extractors] == \
            [[m.id for m in ex.members] for ex in second.extractors]
        assert first.per_iteration_stats == second.per_iteration_stats
