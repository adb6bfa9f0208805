"""The tau-graph against the scalar sim_instances: edges, thresholds, and the
whole bootstrap loop against the per-pair reference loop."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brex.engine import bootstrap
from brex.model import MODES, PAIRINGS, SCORE_AGAINST, RunConfig, SeedState, TemplateSet
from brex.similarity import MEASURE_KINDS, SimilarityGraph, SimilarityMeasure, \
    sim_instances

from support import make_instance, make_template, mixed_world, rand_template, \
    reference_bootstrap

MEASURES = [SimilarityMeasure("match", (0.3, 0.5, 0.2))] + [
    SimilarityMeasure(kind) for kind in MEASURE_KINDS if kind != "match"]


def all_edges(graph):
    rows, cols, values = graph.edges_into(np.ones(len(graph), dtype=bool))
    return {(r, c): v for r, c, v in zip(rows.tolist(), cols.tolist(), values.tolist())}


def scalar_edges(instances, measure, tau_sim):
    return {(i, j): value
            for i, a in enumerate(instances) for j, b in enumerate(instances)
            if (value := sim_instances(a, b, measure)) >= tau_sim}


@given(seed=st.integers(0, 2**32 - 1), measure=st.sampled_from(MEASURES),
       log_scale=st.floats(-150.0, 160.0), pick=st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_edges_equal_scalar_edges(seed, measure, log_scale, pick):
    """Any finite scale, up to dot products that overflow; tau_sim set to one
    pair's own similarity, so that pair sits exactly on the threshold."""
    rng = np.random.default_rng(seed)
    instances = []
    for k in range(int(rng.integers(2, 25))):
        t = rand_template(rng, types=[("ORG", "ORG"), ("ORG", "PER")][k % 2], dim=50)
        scale = 10.0 ** (log_scale + rng.uniform(-1.0, 1.0))
        instances.append(make_instance(template=dataclasses.replace(
            t, v_before=t.v_before * scale, v_between=t.v_between * scale,
            v_after=t.v_after * rng.uniform(0.5, 2.0) * scale)))
    values = sorted({sim_instances(a, b, measure) for a in instances for b in instances} - {0.0})
    tau_sim = values[int(pick * (len(values) - 1))] if values else 0.5
    graph = SimilarityGraph(instances, measure, tau_sim)
    assert all_edges(graph) == scalar_edges(instances, measure, tau_sim)


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.kind)
def test_pair_at_tau_is_an_edge_and_accepted(measure):
    """tau_sim equal to the pair's scalar similarity: edge, hop-2 member and
    accepted. One ulp above it: none of the three."""
    rng = np.random.default_rng(17)
    windows = [rng.normal(size=50) for _ in range(3)]
    member = make_instance("Seed", "Pair", make_template(
        *(0.8 * w / np.linalg.norm(w) for w in windows), dim=50), iid="m")
    probe = make_instance("New", "Pair", make_template(
        *(0.9 * (w / np.linalg.norm(w) + 0.3 * rng.normal(size=50) / np.sqrt(50))
          for w in windows), dim=50), iid="p")
    at = sim_instances(probe, member, measure)
    assert 0.5 < at < 1.0
    seeds = SeedState.empty("ordered")
    seeds.pos_pairs.add(member.pair)
    for tau_sim, expected in ((at, True), (float(np.nextafter(at, 2.0)), False)):
        graph = SimilarityGraph([member, probe], measure, tau_sim)
        edge = all_edges(graph).get((1, 0))
        cfg = RunConfig(mode="bree", measure=measure, tau_sim=tau_sim, tau_cnf=0.5,
                        iterations=1)
        result = bootstrap([member, probe], seeds, cfg)
        members = [m.id for m in result.extractors[0].members]
        accepted = [i.id for i, _ in result.accepted]
        assert (edge == at, "p" in members, "p" in accepted) == (expected,) * 3


def test_template_hits_equal_scalar_hits():
    rng = np.random.default_rng(29)
    measure = SimilarityMeasure("cc-sym1")
    instances = [make_instance(template=rand_template(rng)) for _ in range(30)]
    templates = TemplateSet()
    for t in [rand_template(rng) for _ in range(3)] + [instances[4].template]:
        templates.add(t)
    graph = SimilarityGraph(instances, measure, 0.6)
    expected = [max(sim_instances(i, t, measure) for t in templates) >= 0.6
                for i in instances]
    assert graph.template_hits(templates).tolist() == expected
    assert graph.template_hits(TemplateSet()).tolist() == [False] * 30


def test_dimension_mismatch_raises():
    a = make_instance(template=make_template(v_between=np.ones(6)))
    b = make_instance(template=make_template(v_between=np.ones(7), dim=7))
    graph = SimilarityGraph([a, b], SimilarityMeasure("cc-asym"), 0.7)
    with pytest.raises(ValueError, match="dimension"):
        all_edges(graph)


@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(MODES),
       measure=st.sampled_from(MEASURES), pairing=st.sampled_from(PAIRINGS),
       score_against=st.sampled_from(SCORE_AGAINST),
       tau_sim=st.floats(0.05, 1.0), tau_cnf=st.floats(0.05, 1.0))
@settings(max_examples=120, deadline=None)
def test_bootstrap_equals_scalar_reference(seed, mode, measure, pairing, score_against,
                                           tau_sim, tau_cnf):
    instances, seeds = mixed_world(seed, pairing)
    cfg = RunConfig(mode=mode, measure=measure, tau_sim=tau_sim, tau_cnf=tau_cnf,
                    pairing=pairing, score_against=score_against)
    result = bootstrap(instances, seeds.copy(), cfg)
    accepted, extractors, stats = reference_bootstrap(instances, seeds, cfg)
    assert [(i.id, c) for i, c in result.accepted] == accepted
    assert [([m.id for m in ex.members], ex.n_pos, ex.n_neg, ex.n_unknown, ex.confidence)
            for ex in result.extractors] == extractors
    assert [(s["hits"], s["hits_by_pair"], s["hits_by_template"], s["extractors"],
             s["candidates"], s["accepted_new"]) for s in result.per_iteration_stats] == stats
