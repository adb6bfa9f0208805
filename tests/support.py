"""Shared builders for tests: hand-built instances and randomized worlds."""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import os
import re
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

import brex.corpus
from brex.corpus import EmbeddingStore, EntityPair, Instance, InstanceTable, Template, \
    TypedEntity
from brex.errors import EmbeddingFormatError
from brex.engine import bootstrap
from brex.model import Extractor, RunConfig, SeedState
from brex.scoring import reliability, soft_or
from brex.similarity import MEASURE_KINDS, SimilarityGraph, SimilarityMeasure, \
    sim_instances

DIM = 6


@contextlib.contextmanager
def fresh_cache():
    """Point the cache (see conftest.py) at a new empty directory for the
    block, so that its loads parse the table and the corpus instead of
    reading the indexes an earlier load wrote; yields the directory that
    holds the indexes."""
    with tempfile.TemporaryDirectory() as root, \
            mock.patch.dict(os.environ, {"XDG_CACHE_HOME": root}):
        yield Path(root) / "brex"


def table_indexes(cache):
    """The sorted digests of the tables whose row index is in the cache
    directory ``cache``; the name of a corpus index also holds a tag of its
    type vocabulary, after a hyphen."""
    return sorted(index.stem for index in cache.glob("*.npz") if "-" not in index.stem)


@contextlib.contextmanager
def memo_clock(ahead=True):
    """Run the block with the wall clock (time.time_ns) that
    brex.corpus.file_sha256 reads before it hashes a file moved ahead by
    twice the digest memo margin, so that files written just before count
    as old enough for a memo; the clock as it is when ``ahead`` is false."""
    now = time.time_ns() + (2 * brex.corpus._MEMO_MARGIN_NS if ahead else 0)
    with mock.patch.object(time, "time_ns", return_value=now):
        yield


@contextlib.contextmanager
def counted_hashes():
    """Count the files brex.corpus hashes in the block: yields the list of
    the names of the files whose bytes its sha256 read loop read."""
    sha256, hashed = brex.corpus._sha256, []

    def spy(fh):
        hashed.append(fh.name)
        return sha256(fh)

    with mock.patch.object(brex.corpus, "_sha256", spy):
        yield hashed


def rewrite_in_place(path, data: bytes):
    """Write ``data``, as long as the file ``path``, over its bytes in place
    and restore its mtime; repeated until its ctime has moved (at most for
    5 s), since a file system may keep coarse timestamps."""
    before = os.stat(path)
    assert len(data) == before.st_size
    deadline = time.monotonic() + 5
    while True:
        with open(path, "r+b") as fh:
            fh.write(data)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        if os.stat(path).st_ctime_ns != before.st_ctime_ns:
            return
        assert time.monotonic() < deadline, f"{path}: the ctime did not move"
        time.sleep(0.01)


def vec(*components, dim=DIM):
    out = np.zeros(dim, dtype=np.float64)
    out[:len(components)] = components
    return out


def unit(v):
    norm = np.linalg.norm(v)
    return v / norm if norm > 0 else v


def reference_context(vectors: dict, tokens, dim: int) -> np.ndarray:
    """The scalar reference of a context vector: each token's row of
    ``vectors`` (zeros for a word not in it) added in sorted order to zeros,
    then divided by np.linalg.norm of the sum, or the zero vector where that
    norm is below 1e-12."""
    total = np.zeros(dim, dtype=np.float64)
    for tok in sorted(tokens):
        total += vectors.get(tok, np.zeros(dim))
    norm = float(np.linalg.norm(total))
    return np.zeros(dim) if norm < 1e-12 else total / norm


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


def reference_instances(sentences, vectors: dict, dim: int, limits, type_pair):
    """The per-pair instance builder: an Instance for each entity pair of a
    sentence, in span order, whose type pair after the passive swap
    (is_passive) is ``type_pair`` and whose between window holds at most
    max_between tokens, with the context vectors of reference_context; and
    the counts of extract_instances' result: the pairs of the type pair
    skipped over that limit, the instances swapped as passive and the pairs
    of another type pair. The oracle for the instance table of
    brex.corpus.extract_instances."""
    max_before, max_between, max_after = limits
    instances = []
    counts = dict.fromkeys(("skipped_over_limit", "swapped_as_passive",
                            "dropped_by_type_gate"), 0)
    for sent in sentences:
        tokens = sent.tokens
        spans = sorted(sent.entities, key=lambda s: (s.start, s.end))
        for a, b in itertools.combinations(spans, 2):
            swapped = is_passive(sent, a.end, b.start)
            e1, e2 = (b, a) if swapped else (a, b)
            if (e1.etype, e2.etype) != tuple(type_pair):
                counts["dropped_by_type_gate"] += 1
                continue
            between = tokens[a.end:b.start]
            if len(between) > max_between:
                counts["skipped_over_limit"] += 1
                continue
            counts["swapped_as_passive"] += swapped
            windows = (tokens[max(0, a.start - max_before):a.start], between,
                       tokens[b.end:b.end + max_after])
            pair = EntityPair(*(TypedEntity(" ".join(tokens[e.start:e.end]), e.etype)
                                for e in (e1, e2)))
            instances.append(Instance(
                id=f"s{sent.sid}:{a.start}.{a.end}-{b.start}.{b.end}", pair=pair,
                template=Template(*(reference_context(vectors, w, dim) for w in windows),
                                  type_pair=pair.types),
                sentence_ref=sent.sid, tokens_between=tuple(between)))
    return instances, counts


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


def graph_of(instances, measure, tau_sim):
    """The similarity graph of the InstanceTable ``instances``, or of the
    table of the list ``instances`` (InstanceTable.from_instances)."""
    if not isinstance(instances, InstanceTable):
        instances = InstanceTable.from_instances(instances)
    return SimilarityGraph(instances, measure, tau_sim)


def graph_for(instances, cfg):
    """graph_of ``instances`` under cfg's measure and tau_sim, as bootstrap
    takes it."""
    return graph_of(instances, cfg.measure, cfg.tau_sim)


def run_bootstrap(instances, seeds, cfg):
    """bootstrap over ``instances`` (an InstanceTable or a list), with the
    graph_for of them."""
    graph = graph_for(instances, cfg)
    return bootstrap(graph.table, seeds, cfg, graph)


def instances_of(table) -> list:
    """Every row's Instance of the InstanceTable ``table``, in row order."""
    return [table[row] for row in range(len(table))]


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


# int refuses text of more digits than this (0: no limit, or an older Python)
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_limit = pytest.mark.skipif(INT_DIGITS == 0, reason="int converts any digit count")

JSON_SPACE = st.sampled_from(["", " ", "\t", "  ", " \t"])


@st.composite
def json_spelling(draw, value, space=JSON_SPACE):
    """``value`` as JSON text, spelled one of many ways that json.loads reads
    as ``value``: ``space`` (JSON whitespace) before and after it and around
    each bracket, comma and colon, the keys of each object in any order, and
    each character of a string as itself or escaped (``\\u0041``)."""
    def spell(item):
        if isinstance(item, dict):
            keys = draw(st.permutations(list(item)))
            return "{" + ",".join(
                draw(space) + spell(key) + draw(space) + ":" + draw(space)
                + spell(item[key]) + draw(space) for key in keys) + draw(space) + "}"
        if isinstance(item, list):
            return "[" + ",".join(draw(space) + spell(x) + draw(space)
                                  for x in item) + draw(space) + "]"
        if isinstance(item, str):
            return '"' + "".join(json.dumps(ch, ensure_ascii=draw(st.booleans()))[1:-1]
                                 for ch in item) + '"'
        return json.dumps(item)

    return draw(space) + spell(value) + draw(space)


def text_lines(text: str) -> list[str]:
    """The lines of ``text`` as a text file read with universal newlines
    gives them, each ending in "\\n" except maybe the last: a line ends at
    LF, CR LF or a lone CR, and at nothing else (str.splitlines also ends
    one at "\\x1c", "\\u2028" and others)."""
    lines = re.split(r"\r\n|\r|\n", text)
    return [line + "\n" for line in lines[:-1]] + [lines[-1]] * bool(lines[-1])


def reference_json_lines(path, text: str):
    """The objects of the JSON-lines ``text`` of the file ``path``, as
    (line number, object) pairs read by json.loads, with blank lines (all
    whitespace as str.isspace has it) skipped; or the error line that
    brex.corpus.json_lines raises for the first line that is not JSON or not
    an object."""
    rows = []
    for lineno, line in enumerate(text_lines(text), start=1):
        if line.isspace():
            continue
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            return f"{path}: line {lineno}: invalid JSON ({exc.msg})"
        if not isinstance(value, dict):
            return f"{path}: line {lineno}: expected a JSON object"
        rows.append((lineno, value))
    return rows
