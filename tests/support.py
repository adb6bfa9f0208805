"""Shared builders for tests: hand-built instances and randomized worlds."""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from brex.corpus import EmbeddingStore, EntityPair, Instance, Template, TypedEntity
from brex.errors import EmbeddingFormatError
from brex.model import Extractor, RunConfig, SeedState
from brex.scoring import reliability, soft_or
from brex.similarity import MEASURE_KINDS, SimilarityGraph, SimilarityMeasure, \
    sim_instances

DIM = 6


@contextlib.contextmanager
def fresh_cache():
    """Point the cache (see conftest.py) at a new empty directory for the
    block, so that its loads parse the table instead of reading the row
    index an earlier load wrote; yields the directory that holds the
    indexes."""
    with tempfile.TemporaryDirectory() as root, \
            mock.patch.dict(os.environ, {"XDG_CACHE_HOME": root}):
        yield Path(root) / "brex"


def vec(*components, dim=DIM):
    out = np.zeros(dim, dtype=np.float64)
    out[:len(components)] = components
    return out


def unit(v):
    norm = np.linalg.norm(v)
    return v / norm if norm > 0 else v


def axis(k, dim=DIM):
    out = np.zeros(dim, dtype=np.float64)
    out[k] = 1.0
    return out


def make_template(v_before=None, v_between=None, v_after=None,
                  types=("ORG", "ORG"), dim=DIM):
    zero = np.zeros(dim, dtype=np.float64)
    return Template(
        v_before=zero if v_before is None else np.asarray(v_before, dtype=np.float64),
        v_between=zero if v_between is None else np.asarray(v_between, dtype=np.float64),
        v_after=zero if v_after is None else np.asarray(v_after, dtype=np.float64),
        type_pair=types,
    )


_COUNTER = [0]


def make_instance(e1="A", e2="B", template=None, iid=None, types=("ORG", "ORG"),
                  sid=0, tokens_between=("ctx",)):
    if template is None:
        template = make_template(v_between=axis(0), types=types)
    if iid is None:
        _COUNTER[0] += 1
        iid = f"t{_COUNTER[0]}"
    pair = EntityPair(TypedEntity(e1, types[0]), TypedEntity(e2, types[1]))
    return Instance(id=iid, pair=pair, template=template, sentence_ref=sid,
                    tokens_between=tuple(tokens_between))


def rand_window(rng, dim=DIM, p_zero=0.3):
    if rng.random() < p_zero:
        return np.zeros(dim, dtype=np.float64)
    return unit(rng.normal(size=dim))


def rand_template(rng, types=("ORG", "ORG"), dim=DIM):
    return Template(
        v_before=rand_window(rng, dim),
        v_between=rand_window(rng, dim),
        v_after=rand_window(rng, dim),
        type_pair=types,
    )


def random_world(seed, max_instances=50):
    """A random instance set, seed state, and config for engine law tests."""
    rng = np.random.default_rng(seed)
    entity_pool = [("Acme", "ORG"), ("Bolt", "ORG"), ("Crow", "PER"),
                   ("Dune", "ORG"), ("Echo", "PER"), ("Flux", "ORG")]
    n = int(rng.integers(8, max_instances + 1))
    instances = []
    for k in range(n):
        i1, i2 = rng.choice(len(entity_pool), size=2, replace=False)
        s1, t1 = entity_pool[i1]
        s2, t2 = entity_pool[i2]
        template = rand_template(rng, types=(t1, t2))
        instances.append(
            Instance(id=f"r{k}",
                     pair=EntityPair(TypedEntity(s1, t1), TypedEntity(s2, t2)),
                     template=template, sentence_ref=k, tokens_between=("w",))
        )
    pairing = ("ordered", "biset")[int(rng.integers(2))]
    state = SeedState.empty(pairing)
    for idx in rng.choice(n, size=int(rng.integers(1, 4)), replace=False):
        state.pos_pairs.add(instances[idx].pair)
    for idx in rng.choice(n, size=int(rng.integers(0, 3)), replace=False):
        if instances[idx].pair not in state.pos_pairs:
            state.neg_pairs.add(instances[idx].pair)
    for idx in rng.choice(n, size=int(rng.integers(0, 3)), replace=False):
        state.pos_templates.add(instances[idx].template)
    if rng.random() < 0.3:
        state.neg_templates.add(rand_template(rng))
    cfg = RunConfig(
        mode=("bree", "bret", "brej")[int(rng.integers(3))],
        measure=SimilarityMeasure(kind=MEASURE_KINDS[int(rng.integers(4))]),
        tau_sim=float(rng.uniform(0.55, 0.9)),
        tau_cnf=float(rng.uniform(0.5, 0.9)),
        pairing=pairing,
    )
    return instances, state, cfg


def graph_for(instances: list, cfg):
    """The similarity graph over the list ``instances`` itself under ``cfg``,
    as bootstrap takes it."""
    return SimilarityGraph(instances, cfg.measure, cfg.tau_sim)


def extractor_of(instances, rows=None, k=0):
    """An extractor over the given rows (default: all) of ``instances``."""
    rows = list(range(len(instances))) if rows is None else list(rows)
    return Extractor(id=k, members=[instances[r] for r in rows], rows=rows)


def fold_in(state, other):
    """Add each item of the SeedState ``other`` to ``state``, set by set in
    insertion order."""
    for name in ("pos_pairs", "neg_pairs", "pos_templates", "neg_templates"):
        for item in getattr(other, name):
            getattr(state, name).add(item)


def mixed_world(seed, pairing, max_instances=40):
    """random_world with non-unit context vectors, instances sharing one
    template, and seed templates both from instances and from elsewhere;
    the seed pairs are keyed under ``pairing``."""
    instances, state, _ = random_world(seed, max_instances)
    rng = np.random.default_rng(seed + 1_000_003)
    mixed = []
    for k, inst in enumerate(instances):
        earlier = [m for m in mixed if m.template.type_pair == inst.template.type_pair]
        if earlier and rng.random() < 0.15:
            template = earlier[int(rng.integers(len(earlier)))].template
        else:
            t = inst.template
            template = dataclasses.replace(
                t, v_before=t.v_before * rng.uniform(0.2, 3.0),
                v_between=t.v_between * rng.uniform(0.2, 3.0),
                v_after=t.v_after * rng.uniform(0.2, 3.0))
        mixed.append(dataclasses.replace(inst, template=template))
    seeds = SeedState.empty(pairing)
    fold_in(seeds, state)  # re-keys the pairs; its templates are the unscaled ones
    for idx in rng.choice(len(mixed), size=int(rng.integers(0, 3)), replace=False):
        seeds.pos_templates.add(mixed[idx].template)
    return mixed, seeds


def reference_bootstrap(instances, seeds, cfg):
    """The per-pair bootstrap loop, calling sim_instances for every
    comparison: the oracle for the graph-based engine.

    Returns (accepted [(id, confidence)], extractors [(member ids, n_pos,
    n_neg, n_unknown, confidence)], per-iteration (hits, hits_by_pair,
    hits_by_template, extractors, candidates, accepted_new)).
    """
    def sim(a, b):
        return sim_instances(a, b, cfg.measure)

    def cluster_sim(inst, members):
        return max(sim(inst, m) for m in members)

    def template_hit(inst, templates):
        return max((sim(inst, t) for t in templates), default=0.0) >= cfg.tau_sim

    def count(members, pairs, templates):
        by_pair = sum(m.pair in pairs for m in members)
        by_template = sum(template_hit(m, templates) for m in members)
        return float({"bree": by_pair, "bret": by_template,
                      "brej": by_pair + by_template}[cfg.mode])

    original, grown = seeds.copy(), seeds.copy()
    accepted, slots, stats, extractors = [], {}, [], []
    for _ in range(cfg.iterations):
        by_pair = [i.pair in grown.pos_pairs for i in instances]
        by_template = [template_hit(i, grown.pos_templates) for i in instances]
        matched = {"bree": by_pair, "bret": by_template,
                   "brej": [p or t for p, t in zip(by_pair, by_template)]}[cfg.mode]
        hits = [i for i, m in zip(instances, matched) if m]
        if not hits:
            stats.append((0, sum(by_pair), sum(by_template), 0, 0, 0))
            break
        clusters = []
        for hit in hits:
            for members in clusters:
                if cluster_sim(hit, members) >= cfg.tau_sim:
                    members.append(hit)
                    break
            else:
                clusters.append([hit])
        grown_clusters = [list(members) for members in clusters]
        hop1 = {m.id for members in clusters for m in members}
        for inst in instances:
            if inst.id in hop1:
                continue
            best_idx, best_sim = -1, 0.0
            for idx, members in enumerate(clusters):
                value = cluster_sim(inst, members)
                if value > best_sim:
                    best_idx, best_sim = idx, value
            if best_idx >= 0 and best_sim >= cfg.tau_sim:
                grown_clusters[best_idx].append(inst)
        state = grown if cfg.score_against == "yield" else original
        extractors = []
        for members in grown_clusters:
            n_pos = count(members, state.pos_pairs, state.pos_templates)
            n_neg = count(members, state.neg_pairs, state.neg_templates)
            n_unknown = sum(m.pair not in state.pos_pairs and m.pair not in state.neg_pairs
                            for m in members)
            extractors.append(([m.id for m in members], n_pos, n_neg, n_unknown,
                               reliability(n_pos, n_neg, n_unknown, cfg.w_neg, cfg.w_unk)))
        cache = SeedState.empty(cfg.pairing)
        candidates = accepted_new = 0
        for inst in instances:
            parts = []
            for members, (*_, confidence) in zip(grown_clusters, extractors):
                value = cluster_sim(inst, members)
                if value >= cfg.tau_sim:
                    parts.append(confidence * value)
            if not parts:
                continue
            candidates += 1
            confidence = soft_or(parts)
            if confidence < cfg.tau_cnf or (
                    cfg.mode == "brej" and not template_hit(inst, state.pos_templates)):
                continue
            if cfg.mode in ("bree", "brej"):
                cache.pos_pairs.add(inst.pair)
            if cfg.mode in ("bret", "brej"):
                cache.pos_templates.add(inst.template)
            if inst.id not in slots:
                slots[inst.id] = len(accepted)
                accepted.append((inst.id, confidence))
                accepted_new += 1
            elif confidence > accepted[slots[inst.id]][1]:
                accepted[slots[inst.id]] = (inst.id, confidence)
        fold_in(grown, cache)
        stats.append((len(hits), sum(by_pair), sum(by_template), len(extractors),
                      candidates, accepted_new))
    return accepted, extractors, stats


def reference_load_embeddings(path) -> EmbeddingStore:
    """The per-line embedding loader that keeps every word: the oracle for
    ``brex.corpus.load_embeddings``'s rows and error messages."""
    vectors: dict[str, np.ndarray] = {}
    dimension = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            word, values = parts[0], parts[1:]
            if dimension is None:
                if not values:
                    raise EmbeddingFormatError(
                        f"{path}: line {lineno}: entry has no vector components"
                    )
                dimension = len(values)
            elif len(values) != dimension:
                raise EmbeddingFormatError(
                    f"{path}: line {lineno}: expected {dimension} components, "
                    f"found {len(values)}"
                )
            if word in vectors:
                continue  # keep first occurrence
            try:
                floats = [float(x) for x in values]
            except ValueError as exc:
                raise EmbeddingFormatError(
                    f"{path}: line {lineno}: non-numeric component ({exc})"
                ) from None
            # the sum is NaN or infinite whenever a component is; it can also
            # overflow on huge finite components, which the exact test clears
            if not math.isfinite(sum(floats)) and not all(map(math.isfinite, floats)):
                raise EmbeddingFormatError(
                    f"{path}: line {lineno}: non-finite component (nan or inf)")
            vec = np.array(floats, dtype=np.float64)
            vec.setflags(write=False)
            vectors[word] = vec
    if dimension is None:
        raise EmbeddingFormatError(f"{path}: no embedding entries found")
    return EmbeddingStore(dimension, vectors)
