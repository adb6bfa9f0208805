"""The tau-graph against the scalar sim_instances: edges, thresholds, and the
whole bootstrap loop against the per-pair reference loop."""

import dataclasses
import itertools
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brex.similarity
from brex.cli import ingest_inputs
from brex.engine import bootstrap, cluster_hop1, match_channels
from brex.model import MODES, PAIRINGS, SCORE_AGAINST, RunConfig, SeedState, TemplateSet, \
    build_seed_state
from brex.similarity import MEASURE_KINDS, SimilarityGraph, SimilarityMeasure, \
    sim_instances
from brex.synth import build_planted_fixture

from support import graph_for, make_instance, make_template, mixed_world, \
    rand_template, random_world, reference_bootstrap, unit

MEASURES = [SimilarityMeasure("match", (0.3, 0.5, 0.2))] + [
    SimilarityMeasure(kind) for kind in MEASURE_KINDS if kind != "match"]


def all_edges(graph):
    """Every edge with its exact value: each column is its own group."""
    rows, cols, values = graph.max_into(np.arange(len(graph)))
    return {(r, c): v for r, c, v in zip(rows.tolist(), cols.tolist(), values.tolist())}


def scalar_edges(instances, measure, tau_sim):
    return {(i, j): value
            for i, a in enumerate(instances) for j, b in enumerate(instances)
            if (value := sim_instances(a, b, measure)) >= tau_sim}


@contextmanager
def skewed_scores(sign):
    """Every dot product a . b of the scoring products moved by sign * (d + 4)
    u |a| |b|, so a score moves by at most (d + 4) u R_i R_j, half the
    rounding error the margins allow: a BLAS that rounds every product one
    way. Yields the number of target columns of each scoring call, in call
    order."""
    exact = brex.similarity._product
    scoring = SimilarityGraph._candidates_against
    scored = []

    def skewed(rows, targets):
        skew = (rows.shape[1] + 4) * 2.0 ** -53 * np.outer(
            np.linalg.norm(rows, axis=1), np.linalg.norm(targets, axis=1))
        return exact(rows, targets) + sign * skew

    def counted(graph, targets, at, target_types):
        scored.append(len(at))
        return scoring(graph, targets, at, target_types)

    with (mock.patch.object(brex.similarity, "_product", skewed),
          mock.patch.object(SimilarityGraph, "_candidates_against", counted)):
        yield scored


@given(seed=st.integers(0, 2**32 - 1), measure=st.sampled_from(MEASURES),
       log_scale=st.floats(-150.0, 160.0), pick=st.floats(0.0, 1.0),
       above=st.booleans(), skew=st.sampled_from([-1, 0, 1]))
@settings(max_examples=150, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_edges_equal_scalar_edges(seed, measure, log_scale, pick, above, skew):
    """Any finite scale, up to dot products that overflow; tau_sim set to one
    pair's own similarity, so that pair sits exactly on the threshold, or one
    ulp above it; matrix scores rounded either way within the margin."""
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
    if above:
        tau_sim = min(1.0, float(np.nextafter(tau_sim, 2.0)))
    expected = scalar_edges(instances, measure, tau_sim)
    with skewed_scores(skew):
        graph = SimilarityGraph(instances, measure, tau_sim)
        rows, cols = graph.edges_into(np.ones(len(graph), dtype=bool))
        assert set(zip(rows.tolist(), cols.tolist())) == set(expected)
        assert all_edges(graph) == expected


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.kind)
def test_pair_at_tau_is_an_edge_and_accepted(measure):
    """tau_sim equal to the pair's scalar similarity: edge, hop-1 and hop-2
    member, template hit (from an instance's template and from any other),
    and accepted. One ulp above it: none of these. Matrix scores rounded
    either way within the margin change nothing."""
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
    templates = TemplateSet()
    templates.add(member.template)
    for (tau_sim, expected), skew in itertools.product(
            ((at, True), (float(np.nextafter(at, 2.0)), False)), (-1, 0, 1)):
        with skewed_scores(skew):
            graph = SimilarityGraph([member, probe], measure, tau_sim)
            edge = all_edges(graph).get((1, 0))
            hop1 = [len(ex) for ex in cluster_hop1(graph, [0, 1])]
            hit = graph.template_hits(templates)[1]
            foreign_hit = SimilarityGraph([probe], measure, tau_sim).template_hits(
                templates)[0]
            cfg = RunConfig(mode="bree", measure=measure, tau_sim=tau_sim, tau_cnf=0.5,
                            iterations=1)
            world = [member, probe]
            result = bootstrap(world, seeds, cfg, SimilarityGraph(world, measure, tau_sim))
        members = [m.id for m in result.extractors[0].members]
        accepted = [i.id for i, _ in result.accepted]
        assert (edge == at, hop1 == [2], hit, foreign_hit, "p" in members,
                "p" in accepted) == (expected,) * 6, skew


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


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_pair_hits_equal_pair_set_membership(seed):
    instances, _, cfg = random_world(seed)
    rng = np.random.default_rng(seed)
    # mixed-case surfaces: pair keys are case-insensitive
    instances = [dataclasses.replace(i, pair=dataclasses.replace(
        i.pair, e1=dataclasses.replace(i.pair.e1, surface=i.pair.e1.surface.upper())))
        if rng.random() < 0.3 else i for i in instances]
    graph = graph_for(instances, cfg)
    for pairing in PAIRINGS + PAIRINGS:  # one graph serves both pairings, read twice
        pairs = SeedState.empty(pairing).pos_pairs
        assert graph.pair_hits(pairs).tolist() == [False] * len(instances)
        for k in rng.choice(len(instances), size=4).tolist():
            pair = instances[k].pair
            pairs.add(dataclasses.replace(pair, e1=pair.e2, e2=pair.e1)
                      if rng.random() < 0.5 else pair)
            assert graph.pair_hits(pairs).tolist() == [i.pair in pairs for i in instances]


def clustered_template(v):
    """Half of the unit vector ``v`` in the side windows and ``v`` between:
    every measure gives x = v . v' against another such template, match
    gives 0.625 x."""
    return make_template(0.5 * v, v, 0.5 * v, dim=len(v))


def clustered_world(rng, measure):
    """Eight tight clusters around orthogonal centres, and a tau_sim that
    every similarity misses by more than 0.2."""
    dim = 50
    instances = [make_instance(f"E{k}", "B", template=clustered_template(unit(
        np.eye(dim)[k % 8] + 0.1 * rng.normal(size=dim) / np.sqrt(dim))))
        for k in range(48)]
    tau_sim = 0.375 if measure.kind == "match" else 0.6
    values = [sim_instances(a, b, measure) for a in instances for b in instances]
    assert not any(abs(v - tau_sim) < 0.2 for v in values)
    return instances, tau_sim


@pytest.fixture
def exact_pairs(monkeypatch):
    """The (probe, target) stack positions of every pair whose exact value
    the graph computes, one entry per pair."""
    pairs = []
    batched = brex.similarity.exact_values

    def counted(measure, probes, p_at, targets, t_at):
        pairs.extend(zip(p_at.tolist(), t_at.tolist()))
        return batched(measure, probes, p_at, targets, t_at)

    monkeypatch.setattr(brex.similarity, "exact_values", counted)
    return pairs


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.kind)
def test_membership_reads_far_from_tau_make_no_scalar_calls(measure, exact_pairs):
    rng = np.random.default_rng(5)
    instances, tau_sim = clustered_world(rng, measure)
    seeds = SeedState.empty("ordered")
    seeds.pos_pairs.add(instances[0].pair)
    seeds.pos_templates.add(instances[9].template)
    seeds.pos_templates.add(clustered_template(unit(np.eye(50)[2] + 0.01)))
    graph = SimilarityGraph(instances, measure, tau_sim)
    exact_pairs.clear()
    hits = match_channels(graph, seeds)
    hit_rows = np.flatnonzero(hits.matched("brej")).tolist()
    clusters = cluster_hop1(graph, hit_rows)
    assert exact_pairs == []
    assert hits.pos_template.sum() == 12  # clusters 1 and 2
    assert [len(ex) for ex in clusters] == [1, 6, 6]  # row 0 by its pair, clusters 1, 2


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.kind)
def test_max_into_calls_once_per_row_and_group(measure, exact_pairs):
    rng = np.random.default_rng(6)
    instances, tau_sim = clustered_world(rng, measure)
    graph = SimilarityGraph(instances, measure, tau_sim)
    owner = np.array([k % 8 if k % 8 < 3 else -1 for k in range(len(instances))])
    exact_pairs.clear()
    rows, owners, values = graph.max_into(owner)
    # no edge lies within any margin of tau_sim, so one value per (row, group)
    assert len(exact_pairs) <= len(rows)
    expected = {}
    for i, a in enumerate(instances):
        for j, b in enumerate(instances):
            value = sim_instances(a, b, measure)
            if owner[j] >= 0 and value >= tau_sim:
                key = (i, int(owner[j]))
                expected[key] = max(expected.get(key, 0.0), value)
    assert list(zip(rows.tolist(), owners.tolist())) == sorted(expected)
    assert values.tolist() == [expected[key] for key in sorted(expected)]


def test_intervals_capped_at_one_need_no_scalar_call(exact_pairs):
    """cc-sym2 scores (v_bef + v_aft)(i) . v_bet(j): with before = after =
    between, near pairs score about 2, so the cap closes their intervals at
    1, which is their sim_instances value."""
    rng = np.random.default_rng(11)
    centre = unit(rng.normal(size=50))
    vectors = [unit(centre + 0.1 * rng.normal(size=50) / np.sqrt(50)) for _ in range(5)]
    instances = [make_instance(template=make_template(v, v, v, dim=50)) for v in vectors]
    measure = SimilarityMeasure("cc-sym2")
    assert all(sim_instances(a, b, measure) == 1.0 for a in instances for b in instances)
    graph = SimilarityGraph(instances, measure, 0.7)
    exact_pairs.clear()
    rows, owners, values = graph.max_into(np.array([0, 0, 1, -1, -1]))
    assert exact_pairs == []
    assert list(zip(rows.tolist(), owners.tolist())) == [(r, k) for r in range(5)
                                                         for k in (0, 1)]
    assert values.tolist() == [1.0] * 10


def test_graph_for_other_inputs_raises():
    rng = np.random.default_rng(8)
    instances = [make_instance(template=rand_template(rng)) for _ in range(6)]
    cfg = RunConfig(mode="bree", measure=SimilarityMeasure("cc-asym"), tau_sim=0.7)
    seeds = SeedState.empty("ordered")
    seeds.pos_pairs.add(instances[0].pair)
    for graph in (SimilarityGraph(list(instances), cfg.measure, 0.7),
                  SimilarityGraph(instances, SimilarityMeasure("cc-sym1"), 0.7),
                  SimilarityGraph(instances, cfg.measure, 0.75)):
        with pytest.raises(ValueError, match="another instance list"):
            bootstrap(instances, seeds, cfg, graph)
    graph = SimilarityGraph(instances, cfg.measure, 0.7)
    bootstrap(instances, seeds.copy(), cfg, graph)
    assert bootstrap(instances, seeds.copy(), cfg, graph).accepted == \
        bootstrap(instances, seeds.copy(), cfg, graph_for(instances, cfg)).accepted


def test_dimension_mismatch_raises():
    """Contexts of two dimensions fail the first read, also when each type
    pair's own rows share one dimension."""
    for types in (("ORG", "ORG"), ("ORG", "PER")):
        a = make_instance(template=make_template(v_between=np.ones(6)))
        b = make_instance(template=make_template(v_between=np.ones(7), dim=7, types=types),
                          types=types)
        graph = SimilarityGraph([a, b], SimilarityMeasure("cc-asym"), 0.7)
        with pytest.raises(ValueError, match="context dimension mismatch"):
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
    result = bootstrap(instances, seeds.copy(), cfg, graph_for(instances, cfg))
    accepted, extractors, stats = reference_bootstrap(instances, seeds, cfg)
    assert [(i.id, c) for i, c in result.accepted] == accepted
    assert [([m.id for m in ex.members], ex.n_pos, ex.n_neg, ex.n_unknown, ex.confidence)
            for ex in result.extractors] == extractors
    assert [(s["hits"], s["hits_by_pair"], s["hits_by_template"], s["extractors"],
             s["candidates"], s["accepted_new"]) for s in result.per_iteration_stats] == stats


def two_type_world(rng, n=40):
    """Instances with distinct random templates over two entity-type pairs."""
    return [make_instance(template=rand_template(
        rng, types=[("ORG", "ORG"), ("ORG", "PER")][k % 3 == 0])) for k in range(n)]


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.kind)
def test_reads_score_only_unscored_columns(measure):
    """Each column is scored against every row on its first read and never
    again; a foreign seed template is one column, scored once."""
    rng = np.random.default_rng(3)
    instances = two_type_world(rng)
    graph = SimilarityGraph(instances, measure, 0.5)
    first = rng.random(len(graph)) < 0.3
    owner = np.where(rng.random(len(graph)) < 0.4, rng.integers(0, 3, len(graph)), -1)
    templates = TemplateSet()
    templates.add(rand_template(rng))
    with skewed_scores(0) as scored:
        graph.edges_into(first)
        assert sum(scored) == first.sum()
        scored.clear()
        graph.edges_into(first)
        assert scored == []
        graph.max_into(owner)
        assert sum(scored) == np.count_nonzero((owner >= 0) & ~first)
        scored.clear()
        graph.max_into(owner)
        graph.edges_into(first | (owner >= 0))
        assert scored == []
        graph.template_hits(templates)
        graph.template_hits(templates)
        assert scored == [1]


@pytest.mark.parametrize("skew", [-1, 1])
def test_skewed_scores_reach_every_lazy_read(skew):
    """The margin tests' skewed scores are the scores the lazy reads use:
    edge reads, max-linkage reads and foreign template columns, each with
    only its unscored columns."""
    rng = np.random.default_rng(31)
    instances = [make_instance(template=rand_template(rng)) for _ in range(12)]
    graph = SimilarityGraph(instances, SimilarityMeasure("cc-asym"), 0.5)
    templates = TemplateSet()
    templates.add(rand_template(rng))
    with skewed_scores(skew) as scored:
        graph.edges_into(np.arange(12) < 4)
        graph.max_into(np.arange(12) % 3 - 1)  # owners -1, 0, 1, -1, 0, 1, ...
        graph.template_hits(templates)
    assert scored == [4, 6, 1]  # columns 0-3; 4, 5, 7, 8, 10, 11; the template


def test_shared_graph_scores_no_column_twice():
    rng = np.random.default_rng(37)
    instances = two_type_world(rng, 60)
    seeds = SeedState.empty("ordered")
    for k in (0, 1, 3):
        seeds.pos_pairs.add(instances[k].pair)
    seeds.pos_templates.add(rand_template(rng))
    seeds.pos_templates.add(instances[5].template)
    measure = SimilarityMeasure("cc-sym1")
    graph = SimilarityGraph(instances, measure, 0.3)
    targets = []
    scoring = SimilarityGraph._candidates_against

    def recorded(graph, contexts, at, target_types):
        windows = contexts.table[contexts.ids[at][:, :3]]
        targets.extend(window.tobytes() for window in windows)
        return scoring(graph, contexts, at, target_types)

    with mock.patch.object(SimilarityGraph, "_candidates_against", recorded):
        for mode in ("bree", "brej"):
            cfg = RunConfig(mode=mode, measure=measure, tau_sim=0.3, tau_cnf=0.3)
            bootstrap(instances, seeds.copy(), cfg, graph)
    assert len({i.template.key() for i in instances}) == len(instances)
    assert len(targets) > 10
    assert len(set(targets)) == len(targets)


def test_scoring_memory_follows_the_candidates():
    """Scoring 20 columns of 6,000 rows whose windows share 12 read-only
    arrays, as ingest shares them, allocates at most 2 MB beyond the
    candidates it keeps: no array of a vector per row, and block
    temporaries of bounded size."""
    rng = np.random.default_rng(41)
    basis = np.eye(50)[:12]
    basis.flags.writeable = False
    arrays = list(basis)
    instances = [make_instance(template=make_template(*(arrays[k] for k in picks), dim=50))
                 for picks in rng.integers(0, len(arrays), size=(6000, 3)).tolist()]
    graph = SimilarityGraph(instances, SimilarityMeasure("cc-asym"), 0.7)
    columns = np.arange(len(graph)) < 20
    tracemalloc.start()
    try:
        graph._score_columns(columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    store = sum(a.nbytes for a in (graph._rows, graph._cols, graph._lo, graph._hi))
    assert len(graph._rows) > 20_000  # about a quarter of the pairs are edges
    assert peak - store <= 2 << 20, (peak, store)


READS = st.lists(st.tuples(st.booleans(), st.integers(0, 2**32 - 1)),
                 min_size=1, max_size=5)


@given(seed=st.integers(0, 2**32 - 1), measure=st.sampled_from(MEASURES),
       tau_sim=st.floats(0.05, 1.0), reads=READS)
@settings(max_examples=100, deadline=None)
def test_read_sequences_equal_fresh_reads(seed, measure, tau_sim, reads):
    """Any sequence of edge and max-linkage reads on one graph returns, at
    each read, what the same read returns on a fresh graph."""
    instances, _ = mixed_world(seed, "ordered")
    graph = SimilarityGraph(instances, measure, tau_sim)
    for edges, read_seed in reads:
        rng = np.random.default_rng(read_seed)
        picked = rng.random(len(graph)) < rng.random()
        fresh = SimilarityGraph(instances, measure, tau_sim)
        if edges:
            got, expected = graph.edges_into(picked), fresh.edges_into(picked)
        else:
            owner = np.where(picked, rng.integers(0, 4, len(graph)), -1)
            got, expected = graph.max_into(owner), fresh.max_into(owner)
        assert [a.tolist() for a in got] == [a.tolist() for a in expected]


def _own_arrays(template):
    """``template`` with each window its own copy of its array."""
    return dataclasses.replace(template, v_before=template.v_before.copy(),
                               v_between=template.v_between.copy(),
                               v_after=template.v_after.copy())


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.kind)
def test_shared_context_arrays_give_the_outputs_of_copied_ones(measure, tmp_path):
    """Ingest gives all windows of one token multiset one array, and the
    graph stacks each distinct array once: the ingested planted world gives,
    in every mode, the outputs it gives with every window its own array."""
    paths = build_planted_fixture(n_sentences=200).write(tmp_path)
    cfg = RunConfig(measure=measure)
    ingested = ingest_inputs(paths["corpus"], paths["embeddings"], paths["seeds"],
                             cfg.limits)
    shared = ingested.instances
    assert len({id(i.template.v_between) for i in shared}) < len(shared) / 2
    seeds = build_seed_state(ingested.spec, ingested.emb, cfg.pairing)
    own = [dataclasses.replace(i, template=_own_arrays(i.template)) for i in shared]
    own_seeds = SeedState(seeds.pos_pairs.copy(), seeds.neg_pairs.copy(),
                          TemplateSet(), TemplateSet())
    for name in ("pos_templates", "neg_templates"):
        for template in getattr(seeds, name):
            getattr(own_seeds, name).add(_own_arrays(template))
    for mode in MODES:
        cfg = RunConfig(mode=mode, measure=measure)
        outputs = []
        for instances, state in ((shared, seeds), (own, own_seeds)):
            result = bootstrap(instances, state.copy(), cfg, graph_for(instances, cfg))
            outputs.append(repr((
                [(i.id, c) for i, c in result.accepted],
                [([m.id for m in ex.members], ex.n_pos, ex.n_neg, ex.n_unknown,
                  ex.confidence) for ex in result.extractors],
                result.per_iteration_stats)))
        assert outputs[0] == outputs[1]
