"""The bootstrap loop: seed matching, threshold clustering, cluster growth,
candidate coverage, instance checking, and seed augmentation.

Each iteration over the frozen instance set:

  1. hop 1: collect instances matching the grown seeds (mode-dependent) and
     cluster them single-pass in corpus order (first cluster within tau_sim,
     else a new singleton),
  2. hop 2: assign every remaining instance within tau_sim of a hop-1 cluster
     to its single closest cluster (ties to the lowest cluster id); the grown
     clusters are the extractors,
  3. hop 3: for every instance within tau_sim of an extractor, combine the
     covering extractors' confidences and accept it when the check passes,
  4. merge the iteration's accepted items into the yield.

Extractors are rebuilt from scratch every iteration; the yield only grows.
Every similarity is read from one SimilarityGraph per bootstrap call, whose
edges are the pairs at or above tau_sim with their exact values. Cluster
similarity is max-linkage, and each instance belongs to at most one
extractor, so a row's edges grouped by the extractor owning their column give
its similarity to every extractor within reach.
"""

from __future__ import annotations

import logging

import numpy as np

from .corpus import Instance
from .model import BootstrapResult, Extractor, RunConfig, SeedHits, SeedState
from .scoring import instance_confidence, score_extractor
from .similarity import SimilarityGraph
# Not called here: perfbench/op.py traces these names in this module.
from .similarity import sim_instance_cluster, sim_instance_templateset  # noqa: F401

log = logging.getLogger(__name__)


def match_channels(graph: SimilarityGraph, state: SeedState) -> SeedHits:
    """Per-row pair and template hits against the state's positive and
    negative seeds."""
    instances = graph.instances

    def pair_hits(pairs):
        return np.fromiter((instance.pair in pairs for instance in instances),
                           dtype=bool, count=len(instances))

    return SeedHits(pos_pair=pair_hits(state.pos_pairs),
                    pos_template=graph.template_hits(state.pos_templates),
                    neg_pair=pair_hits(state.neg_pairs),
                    neg_template=graph.template_hits(state.neg_templates))


def _extractors(graph: SimilarityGraph, clusters: list[list[int]]) -> list[Extractor]:
    return [Extractor(id=k, members=[graph.instances[row] for row in rows], rows=rows)
            for k, rows in enumerate(clusters)]


def _owners(graph: SimilarityGraph, extractors: list[Extractor]) -> np.ndarray:
    """Per row, the index of the extractor holding it, or -1."""
    owner = np.full(len(graph), -1, dtype=np.int64)
    for k, extractor in enumerate(extractors):
        owner[extractor.rows] = k
    return owner


def cluster_hop1(graph: SimilarityGraph, hits: list[int]) -> list[Extractor]:
    """Single-pass threshold clustering of the hit rows in corpus order: each
    hit joins the first cluster with a member within tau_sim of it."""
    is_hit = np.zeros(len(graph), dtype=bool)
    is_hit[hits] = True
    rows, cols, _ = graph.edges_into(is_hit)
    owner = np.full(len(graph), -1, dtype=np.int64)
    starts = np.searchsorted(rows, hits, side="left").tolist()
    ends = np.searchsorted(rows, hits, side="right").tolist()
    clusters: list[list[int]] = []
    for row, lo, hi in zip(hits, starts, ends):
        near = owner[cols[lo:hi]]
        near = near[near >= 0]
        if near.size:
            k = int(near.min())
        else:
            k = len(clusters)
            clusters.append([])
        clusters[k].append(row)
        owner[row] = k
    return _extractors(graph, clusters)


def grow_hop2(graph: SimilarityGraph, theta: list[Extractor]) -> list[Extractor]:
    """Add every instance within tau_sim of a hop-1 cluster to its closest one.

    Similarities are evaluated against the original hop-1 members, ties break
    toward the lowest cluster id, and hop-1 members stay where they are.
    """
    owner = _owners(graph, theta)
    rows, cols, values = graph.edges_into(owner >= 0)
    reach = owner[rows] < 0
    rows, values, owners = rows[reach], values[reach], owner[cols[reach]]
    # per row: the highest similarity first, then the lowest cluster id
    order = np.lexsort((owners, -values, rows))
    rows, owners = rows[order], owners[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    best = np.full(len(graph), -1, dtype=np.int64)
    best[rows[first]] = owners[first]
    clusters = [list(ex.rows) for ex in theta]
    for row in np.flatnonzero(best >= 0).tolist():
        clusters[best[row]].append(row)
    return _extractors(graph, clusters)


def cover_hop3(graph: SimilarityGraph,
               extractors: list[Extractor]) -> dict[int, list[tuple[Extractor, float]]]:
    """Every row within tau_sim of some extractor, in corpus order, mapped to
    its covering extractors (in extractor order) with the max-linkage
    similarity to each; may overlap several extractors."""
    owner = _owners(graph, extractors)
    rows, cols, values = graph.edges_into(owner >= 0)
    owners = owner[cols]
    order = np.lexsort((-values, owners, rows))
    rows, values, owners = rows[order], values[order], owners[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (owners[1:] != owners[:-1])
    cover: dict[int, list[tuple[Extractor, float]]] = {}
    for row, k, sim in zip(rows[first].tolist(), owners[first].tolist(),
                           values[first].tolist()):
        cover.setdefault(row, []).append((extractors[k], sim))
    return cover


def check_instance(covering: list[tuple[Extractor, float]], template_hit: bool,
                   cfg: RunConfig) -> tuple[bool, float]:
    """Confidence-check one candidate against the scored extractors covering it.

    BREE/BRET accept when the combined confidence reaches tau_cnf; BREJ
    additionally requires template-set similarity at tau_sim
    (``template_hit``). An instance covered by no extractor is rejected with
    confidence 0.
    """
    confidence = instance_confidence(covering)
    accept = confidence >= cfg.tau_cnf
    if accept and cfg.mode == "brej":
        accept = bool(template_hit)
    return accept, confidence


def add_to_cache(instance: Instance, cache: SeedState, cfg: RunConfig) -> None:
    """Store the accepted instance's items: its pair (BREE), template (BRET), or both."""
    if cfg.mode in ("bree", "brej"):
        cache.pos_pairs.add(instance.pair)
    if cfg.mode in ("bret", "brej"):
        cache.pos_templates.add(instance.template)


def bootstrap(instances: list[Instance], seeds: SeedState,
              cfg: RunConfig) -> BootstrapResult:
    """Run the full loop for cfg.iterations and return yield, extractors,
    accepted instances with confidences, and per-iteration statistics."""
    graph = SimilarityGraph(instances, cfg.measure, cfg.tau_sim)
    grown = seeds.copy()
    original_hits = (match_channels(graph, seeds)
                     if cfg.score_against == "original" else None)
    accepted: list[tuple[Instance, float]] = []
    accepted_index: dict[str, int] = {}
    stats: list[dict] = []
    extractors: list[Extractor] = []
    diagnostic = None

    for iteration in range(1, cfg.iterations + 1):
        cache = SeedState.empty(cfg.pairing)
        hits = match_channels(graph, grown)
        hit_rows = np.flatnonzero(hits.matched(cfg.mode)).tolist()
        hits_by_pair = int(np.count_nonzero(hits.pos_pair))
        hits_by_template = int(np.count_nonzero(hits.pos_template))

        if not hit_rows:
            stats.append({
                "iteration": iteration, "hits": 0,
                "hits_by_pair": hits_by_pair, "hits_by_template": hits_by_template,
                "extractors": 0, "candidates": 0,
                "accepted_new": 0, "accepted_total": len(accepted),
                "yield": grown.sizes(),
            })
            if iteration == 1:
                diagnostic = "no instance matched the initial seeds"
            break  # the yield cannot change, later iterations are identical

        extractors = grow_hop2(graph, cluster_hop1(graph, hit_rows))
        scoring_hits = hits if original_hits is None else original_hits
        for extractor in extractors:
            score_extractor(extractor, scoring_hits, cfg)

        covered = cover_hop3(graph, extractors)
        accepted_new = 0
        for row, covering in covered.items():
            ok, confidence = check_instance(covering, scoring_hits.pos_template[row], cfg)
            if not ok:
                continue
            instance = instances[row]
            add_to_cache(instance, cache, cfg)
            slot = accepted_index.get(instance.id)
            if slot is None:
                accepted_index[instance.id] = len(accepted)
                accepted.append((instance, confidence))
                accepted_new += 1
            elif confidence > accepted[slot][1]:
                accepted[slot] = (instance, confidence)

        grown.merge(cache)
        stats.append({
            "iteration": iteration, "hits": len(hit_rows),
            "hits_by_pair": hits_by_pair, "hits_by_template": hits_by_template,
            "extractors": len(extractors), "candidates": len(covered),
            "accepted_new": accepted_new, "accepted_total": len(accepted),
            "yield": grown.sizes(),
        })
        log.info("iteration %d: %d hits, %d extractors, %d candidates, %d accepted",
                 iteration, len(hit_rows), len(extractors), len(covered), accepted_new)

    return BootstrapResult(
        yield_state=grown,
        extractors=extractors,
        accepted=accepted,
        per_iteration_stats=stats,
        diagnostic=diagnostic,
    )
