"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import brex
from brex.cli import main
from brex.engine import bootstrap, cluster_hop1, cover_hop3, grow_hop2, \
    match_channels
from brex.evaluate import load_gold, prf1
from brex.model import RunConfig, SeedState
from brex.scoring import categorize_extractor, count_positives, reliability, \
    score_extractor, soft_or
from brex.similarity import SimilarityMeasure, sim_instances
from brex.synth import build_biset_fixture, build_planted_fixture

from support import axis, extractor_of, graph_for, make_instance, make_template, \
    rand_template, random_world

ASYM = SimilarityMeasure("cc-asym")
MATCH = SimilarityMeasure("match", (0.2, 0.6, 0.2))


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    out = tmp_path_factory.mktemp("planted")
    fixture = build_planted_fixture(n_sentences=200)
    paths = fixture.write(out)
    return fixture, paths


def test_criterion_1_formula_exactness():
    started = time.perf_counter()
    first = reliability(2, 1, 0, 1.0, 0.0)
    second = reliability(4, 1, 10, 0.5, 0.0001)
    # exact targets from hand arithmetic: 2/(2+1) and 4/(4+0.5+0.001)
    ok_first = abs(first - 2 / 3) <= 1e-9
    ok_second = abs(second - 4000 / 4501) <= 1e-6

    # the same values must come out of a real extractor
    u = axis(0)
    members = [make_instance(f"E{k}", f"F{k}", make_template(v_between=u))
               for k in range(3)]
    state = SeedState.empty("ordered")
    state.pos_pairs.add(members[0].pair)
    state.pos_pairs.add(members[1].pair)
    state.neg_pairs.add(members[2].pair)
    extractor = extractor_of(members)
    cfg = RunConfig(mode="bree", measure=ASYM, w_neg=1.0, w_unk=0.0)
    score_extractor(extractor, match_channels(graph_for(members, cfg), state), cfg)
    via_extractor = extractor.confidence
    ok_extractor = abs(via_extractor - 2 / 3) <= 1e-9
    elapsed = time.perf_counter() - started
    report(1, ok_first and ok_second and ok_extractor and elapsed < 1.0,
           f"reliability(2,1,0,1,0)={first:.9f}, "
           f"reliability(4,1,10,0.5,1e-4)={second:.9f}, {elapsed:.3f}s")


def test_criterion_2_soft_max_law():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        values = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 9)))
        combined = soft_or(values)
        worst = max(worst, float(values.max()) - combined)
        if len(values) == 1:
            worst = max(worst, abs(combined - float(values[0])))
    report(2, worst <= 1e-12,
           f"1-prod(1-c) >= max(c) over 1000 random sets, worst gap {worst:.2e}")


def test_criterion_3_joint_scaling_flip():
    u, w = axis(0), axis(1)
    on_template, off_template = make_template(v_between=u), make_template(v_between=w)
    members = [
        make_instance("S1", "T1", on_template),    # pair positive + template match
        make_instance("S2", "T2", off_template),   # pair positive only
        make_instance("N1", "N2", off_template),   # pair negative
        make_instance("U1", "U2", on_template),    # template matches (3 more)
        make_instance("U3", "U4", on_template),
        make_instance("U5", "U6", on_template),
    ]
    state = SeedState.empty("ordered")
    state.pos_pairs.add(members[0].pair)
    state.pos_pairs.add(members[1].pair)
    state.neg_pairs.add(members[2].pair)
    state.pos_templates.add(on_template)
    extractor = extractor_of(members)

    cfg_pairs = RunConfig(mode="bree", measure=ASYM, w_neg=1.0, w_unk=0.0,
                          tau_cnf=0.70)
    hits = match_channels(graph_for(members, cfg_pairs), state)
    score_extractor(extractor, hits, cfg_pairs)
    pair_conf = extractor.confidence
    pair_cat = categorize_extractor(extractor, noisy=False, cfg=cfg_pairs)

    cfg_joint = RunConfig(mode="brej", measure=ASYM, w_neg=1.0, w_unk=0.0,
                          tau_cnf=0.70)
    score_extractor(extractor, hits, cfg_joint)
    joint_conf = extractor.confidence
    joint_cat = categorize_extractor(extractor, noisy=False, cfg=cfg_joint)

    ok = (pair_conf == 2 / 3 and pair_cat == "NNLC"
          and joint_conf == 6 / 7 and joint_cat == "NNHC")
    report(3, ok, f"pair counting {pair_conf:.4f} ({pair_cat}), "
                  f"joint counting {joint_conf:.4f} ({joint_cat}), exact rationals")


def test_criterion_4_disjunction_law():
    failures = 0
    for seed in range(100):
        instances, state, cfg = random_world(seed, max_instances=30)
        cfgs = {mode: RunConfig(mode=mode, measure=cfg.measure,
                                tau_sim=cfg.tau_sim, tau_cnf=cfg.tau_cnf,
                                pairing=cfg.pairing)
                for mode in ("bree", "bret", "brej")}
        seed_hits = match_channels(graph_for(instances, cfg), state)
        hits = {mode: set(np.flatnonzero(seed_hits.matched(mode)).tolist())
                for mode in cfgs}
        if hits["brej"] != hits["bree"] | hits["bret"]:
            failures += 1
            continue
        if hits["brej"]:
            extractor = extractor_of(instances, sorted(hits["brej"]))
            counts = {mode: count_positives(extractor, seed_hits.pos_pair,
                                            seed_hits.pos_template, c)
                      for mode, c in cfgs.items()}
            if counts["brej"] != counts["bree"] + counts["bret"]:
                failures += 1
    report(4, failures == 0,
           f"hits(BREJ) == hits(BREE) | hits(BRET) and N+ additivity, "
           f"100 random fixtures, {failures} failures")


def brute_candidates(instances, state, cfg):
    """Literal 3-hop reachability, independent of the engine's clustering."""
    def sim(a, b):
        return sim_instances(a, b, cfg.measure)

    def matches(inst):
        if cfg.mode == "bree":
            return inst.pair in state.pos_pairs
        by_template = any(sim(inst, t) >= cfg.tau_sim
                          for t in state.pos_templates)
        if cfg.mode == "bret":
            return by_template
        return inst.pair in state.pos_pairs or by_template

    hop1 = [i for i in instances if matches(i)]
    hop1_ids = {i.id for i in hop1}
    hop2 = list(hop1)
    for inst in instances:
        if inst.id not in hop1_ids and any(sim(inst, h) >= cfg.tau_sim
                                           for h in hop1):
            hop2.append(inst)
    return {i.id for i in instances
            if any(sim(i, m) >= cfg.tau_sim for m in hop2)}


def test_criterion_5_hop_oracle():
    started = time.perf_counter()
    failures = 0
    for seed in range(100):
        instances, state, cfg = random_world(seed, max_instances=50)
        graph = graph_for(instances, cfg)
        hits = np.flatnonzero(match_channels(graph, state).matched(cfg.mode))
        extractors = grow_hop2(graph, cluster_hop1(graph, hits.tolist()))
        engine_ids = {instances[row].id for row in cover_hop3(graph, extractors)}
        if engine_ids != brute_candidates(instances, state, cfg):
            failures += 1
    elapsed = time.perf_counter() - started
    report(5, failures == 0 and elapsed < 10.0,
           f"engine candidates == brute-force 3-hop set on 100 corpora, "
           f"{failures} failures, {elapsed:.2f}s")


def test_criterion_6_similarity_properties():
    rng = np.random.default_rng(7)
    sym1 = SimilarityMeasure("cc-sym1")
    sym2 = SimilarityMeasure("cc-sym2")
    worst_sym = worst_dom = worst_gate = worst_self = 0.0
    trials = 10_000
    for _ in range(trials):
        a, b = rand_template(rng), rand_template(rng)
        worst_sym = max(worst_sym,
                        abs(sim_instances(a, b, sym1) - sim_instances(b, a, sym1)),
                        abs(sim_instances(a, b, sym2) - sim_instances(b, a, sym2)))
        worst_dom = max(worst_dom,
                        sim_instances(a, b, ASYM) - sim_instances(a, b, sym1))
    for _ in range(trials):
        a = rand_template(rng, types=("ORG", "ORG"))
        b = rand_template(rng, types=("ORG", "PER"))
        for measure in (MATCH, ASYM, sym1, sym2):
            worst_gate = max(worst_gate, abs(sim_instances(a, b, measure)))
    for _ in range(trials):
        raw = rng.uniform(0.05, 1.0, size=3)
        weights = tuple(raw / raw.sum())
        mask = rng.integers(0, 2, size=3)
        while not mask.any():
            mask = rng.integers(0, 2, size=3)
        t = make_template(
            v_before=_unit_or_zero(rng, mask[0]),
            v_between=_unit_or_zero(rng, mask[1]),
            v_after=_unit_or_zero(rng, mask[2]),
        )
        measure = SimilarityMeasure("match", weights)
        expected = float(weights @ mask)  # sum of weights over nonzero windows
        worst_self = max(worst_self,
                         abs(sim_instances(t, t, measure) - expected))
    worst = max(worst_sym, worst_dom, worst_gate, worst_self)
    report(6, worst <= 1e-9,
           f"symmetry {worst_sym:.2e}, dominance {worst_dom:.2e}, "
           f"type gate {worst_gate:.2e}, self-similarity {worst_self:.2e} "
           f"({trials} trials each)")


def _unit_or_zero(rng, active):
    if not active:
        return np.zeros(6)
    v = rng.normal(size=6)
    return v / np.linalg.norm(v)


def test_criterion_7_planted_recovery(planted):
    from brex.cli import build_config, ingest_inputs
    import argparse

    started = time.perf_counter()
    fixture, paths = planted
    base = build_config(argparse.Namespace())
    ingested = ingest_inputs(paths["corpus"], paths["embeddings"],
                             paths["seeds"], base)
    gold = load_gold(paths["gold"], "acquired", "ordered")

    joint = bootstrap(ingested.instances, ingested.seed_state,
                      RunConfig(mode="brej"))
    joint_scores = prf1(joint.accepted, gold, threshold=0.5)
    recovered_joint = round(joint_scores.recall * len(gold))

    pair_only = bootstrap(ingested.instances, ingested.seed_state,
                          RunConfig(mode="bree"))
    pair_scores = prf1(pair_only.accepted, gold, threshold=0.5)
    recovered_pair = round(pair_scores.recall * len(gold))

    elapsed = time.perf_counter() - started
    ok = (recovered_joint >= 9 and joint_scores.precision == 1.0
          and recovered_pair < recovered_joint and elapsed < 30.0)
    report(7, ok,
           f"BREJ {recovered_joint}/10 planted at precision "
           f"{joint_scores.precision:.2f}, BREE {recovered_pair}/10, "
           f"{elapsed:.1f}s")


def test_criterion_8_determinism(planted, tmp_path):
    _, paths = planted
    argv = ["run", "--corpus", str(paths["corpus"]),
            "--embeddings", str(paths["embeddings"]),
            "--seeds", str(paths["seeds"]), "--mode", "brej"]
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(argv + ["--out", str(out)])
        assert code == 0
        outputs.append(((out / "accepted.jsonl").read_bytes(),
                        (out / "extractors.jsonl").read_bytes()))
    # fresh processes with one BLAS thread and with the default thread count
    src = str(Path(brex.__file__).resolve().parent.parent)
    for threads in ("1", None):
        out = tmp_path / f"threads-{threads or 'default'}"
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-m", "brex.cli", *argv, "--out", str(out)],
                              env=env, capture_output=True, check=False)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(((out / "accepted.jsonl").read_bytes(),
                        (out / "extractors.jsonl").read_bytes()))
    ok = all(output == outputs[0] for output in outputs)
    report(8, ok, "two in-process runs and two subprocess runs (OPENBLAS_NUM_THREADS=1 "
                  "and default) produced byte-identical accepted.jsonl and "
                  "extractors.jsonl")


def test_criterion_9_ablation_switches(planted, tmp_path):
    _, paths = planted
    out = tmp_path / "no_weights"
    code = main(["run",
                 "--corpus", str(paths["corpus"]),
                 "--embeddings", str(paths["embeddings"]),
                 "--seeds", str(paths["seeds"]),
                 "--mode", "brej", "--wn", "0", "--wu", "0",
                 "--out", str(out)])
    assert code == 0
    rows = [json.loads(line)
            for line in (out / "extractors.jsonl").read_text().splitlines()]
    scaling_only_ok = bool(rows) and all(
        row["confidence"] == 1.0 for row in rows if row["n_pos"] > 0)

    data = tmp_path / "biset_data"
    fixture = build_biset_fixture()
    fixture.write(data)
    from brex.cli import ingest_inputs
    accepted = {}
    for pairing in ("ordered", "biset"):
        cfg = RunConfig(mode="bree", pairing=pairing)
        ingested = ingest_inputs(data / "corpus.jsonl", data / "embeddings.txt",
                                 data / "seeds.json", cfg)
        result = bootstrap(ingested.instances, ingested.seed_state, cfg)
        accepted[pairing] = {(i.pair.e1.surface, i.pair.e2.surface)
                             for i, _ in result.accepted}
    reversed_pair = ("Brightport", "Aerodyne")
    biset_ok = (reversed_pair in accepted["biset"]
                and reversed_pair not in accepted["ordered"])
    report(9, scaling_only_ok and biset_ok,
           f"wn=wu=0 gives confidence 1.0 on {len(rows)} extractors; "
           f"biset accepts the reversed pair, ordered does not")
