"""Deterministic synthetic corpus with planted relation pairs.

The generated world contains ten planted "acquired"-style ORG pairs expressed
through five paraphrase clusters of relation verbs, built on 8-d toy
embeddings: words inside a cluster share a direction (cosine 1.0), clusters
sit on two planes so that adjacent clusters meet at cosine 0.75 while far
clusters fall to 0.125, and distractor verbs occupy orthogonal axes
(cosine 0.0 to everything relational).

Cluster layout:
  plane (0,1): c1 acquired/acquires, c2 bought/buys, c3 purchased/purchases
  plane (2,3): c4 absorbed/absorbs,  c5 swallowed/swallows

Pairs seven pairs are phrased inside the first family, three only inside the
second. The seed entity pairs live in the first family and the two seed
templates cover one phrasing from each family, so pair-only bootstrapping can
never cross the plane gap while joint bootstrapping can.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from .cli import _write_json, _write_jsonl

_BETA = math.acos(0.75)

_CLUSTER_WORDS = {
    "c1": ("acquired", "acquires"),
    "c2": ("bought", "buys"),
    "c3": ("purchased", "purchases"),
    "c4": ("absorbed", "absorbs"),
    "c5": ("swallowed", "swallows"),
}

_DISTRACTOR_WORDS = {
    "sued": 4, "sues": 4,
    "visited": 5, "visits": 5,
    "praised": 6, "praises": 6,
}

# embedded but unused by any instance context
_DECOY_WORDS = {"synergy": 7, "quarterly": 7}

PLANTED_PAIRS = [
    ("Aerodyne", "Brightport"),        # P1, seed pair, phrased c1 twice
    ("Cobaltix", "Dunmore"),           # P2, seed pair, phrased c2 twice
    ("Eastgate", "Fernwald"),          # c1 + c2
    ("Gravitron", "Halcyon"),          # c3 + passive c1
    ("Ironvale", "Jadeworks"),         # c2 + c3
    ("Kestrelco", "Lumentic"),         # c1 + c3
    ("Midlandia", "Northfield"),       # c2 + c1
    ("Oakenshaw", "Pinnatech"),        # c4 twice (second family)
    ("Quantum Dynamics", "Riverbend"), # c5 + c4
    ("Solquest", "Tundravale"),        # c5 twice
]

_MENTION_PLAN = [
    (0, "c1", "c1"), (1, "c2", "c2"), (2, "c1", "c2"), (3, "c3", None),
    (4, "c2", "c3"), (5, "c1", "c3"), (6, "c2", "c1"),
    (7, "c4", "c4"), (8, "c5", "c4"), (9, "c5", "c5"),
]

_DISTRACTOR_ORGS = [
    "Vexcorp", "Wundermart", "Xylotech", "Yarrowind", "Zephyrline",
    "Grumblex", "Hollowpine", "Ivorygate", "Junipero", "Klaxonix",
]

_FILLER_WORDS = [
    "meanwhile", "analysts", "said", "the", "market", "reacted", "swiftly",
    "while", "regulators", "reviewed", "terms", "of", "a", "broader",
    "agreement", "over", "coming", "months", "without", "further", "comment",
]


def _vec8(plane: tuple[int, int], angle: float) -> list[float]:
    v = [0.0] * 8
    v[plane[0]] = math.cos(angle)
    v[plane[1]] = math.sin(angle)
    return v


def _axis8(axis: int) -> list[float]:
    v = [0.0] * 8
    v[axis] = 1.0
    return v


def embedding_table() -> dict[str, list[float]]:
    directions = {
        "c1": _vec8((0, 1), 0.0),
        "c2": _vec8((0, 1), _BETA),
        "c3": _vec8((0, 1), 2 * _BETA),
        "c4": _vec8((2, 3), 0.0),
        "c5": _vec8((2, 3), _BETA),
    }
    table: dict[str, list[float]] = {}
    for cluster, words in _CLUSTER_WORDS.items():
        for word in words:
            table[word] = directions[cluster]
    for word, axis in {**_DISTRACTOR_WORDS, **_DECOY_WORDS}.items():
        table[word] = _axis8(axis)
    return table


def _entity_tokens(name: str) -> list[str]:
    return name.split()


def _active_record(e1: str, verb: str, e2: str, tail: list[str]) -> dict:
    t1, t2 = _entity_tokens(e1), _entity_tokens(e2)
    tokens = t1 + [verb] + t2 + tail
    return {
        "tokens": tokens,
        "entities": [
            {"start": 0, "end": len(t1), "type": "ORG"},
            {"start": len(t1) + 1, "end": len(t1) + 1 + len(t2), "type": "ORG"},
        ],
    }


def _passive_record(e1: str, verb_past: str, e2: str) -> dict:
    # "<e2> was <verb> by <e1> this year", POS-tagged so the passive rule fires
    t2, t1 = _entity_tokens(e2), _entity_tokens(e1)
    tokens = t2 + ["was", verb_past, "by"] + t1 + ["this", "year"]
    pos = (["NNP"] * len(t2) + ["VBD", "VBN", "IN"] + ["NNP"] * len(t1)
           + ["DT", "NN"])
    return {
        "tokens": tokens,
        "entities": [
            {"start": 0, "end": len(t2), "type": "ORG"},
            {"start": len(t2) + 3, "end": len(t2) + 3 + len(t1), "type": "ORG"},
        ],
        "pos": pos,
    }


@dataclass
class Fixture:
    corpus_records: list[dict]
    embeddings: dict[str, list[float]]
    seed_spec: dict
    gold_pairs: list[tuple[str, str]]

    def write(self, out_dir) -> dict[str, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "corpus": out / "corpus.jsonl",
            "embeddings": out / "embeddings.txt",
            "seeds": out / "seeds.json",
            "gold": out / "gold.tsv",
        }
        _write_jsonl(paths["corpus"], self.corpus_records)
        with open(paths["embeddings"], "w", encoding="utf-8") as fh:
            for word, vec in self.embeddings.items():
                fh.write(word + " " + " ".join(f"{x:.17g}" for x in vec) + "\n")
        _write_json(paths["seeds"], self.seed_spec)
        with open(paths["gold"], "w", encoding="utf-8") as fh:
            for e1, e2 in self.gold_pairs:
                fh.write(f"{e1}\t{e2}\n")
        return paths


def build_planted_fixture(n_sentences: int = 200, rng_seed: int = 13) -> Fixture:
    """Build the planted corpus; deterministic for a given seed."""
    rng = random.Random(rng_seed)
    tails = [[], ["today"], ["this", "week"], ["for", "cash"], ["."]]
    records: list[dict] = []

    for idx, first, second in _MENTION_PLAN:
        e1, e2 = PLANTED_PAIRS[idx]
        forms = _CLUSTER_WORDS[first]
        records.append(_active_record(e1, forms[idx % 2], e2, tails[idx % len(tails)]))
        if second is None:
            records.append(_passive_record(e1, "acquired", e2))
        else:
            forms = _CLUSTER_WORDS[second]
            records.append(
                _active_record(e1, forms[(idx + 1) % 2], e2, tails[(idx + 2) % len(tails)])
            )

    distractor_verbs = sorted(_DISTRACTOR_WORDS)
    for k in range(30):
        d1 = _DISTRACTOR_ORGS[k % len(_DISTRACTOR_ORGS)]
        d2 = _DISTRACTOR_ORGS[(k + 3) % len(_DISTRACTOR_ORGS)]
        verb = distractor_verbs[k % len(distractor_verbs)]
        records.append(_active_record(d1, verb, d2, tails[k % len(tails)]))

    # edge cases: over-limit between window, out-of-vocabulary entity type,
    # single-entity sentences
    wide = ["Vexcorp"] + rng.sample(_FILLER_WORDS, 8) + ["Wundermart"]
    records.append({
        "tokens": wide,
        "entities": [
            {"start": 0, "end": 1, "type": "ORG"},
            {"start": 9, "end": 10, "type": "ORG"},
        ],
    })
    records.append({
        "tokens": ["Maria", "Lopez", "joined", "Vexcorp", "yesterday"],
        "entities": [
            {"start": 0, "end": 2, "type": "PER"},
            {"start": 3, "end": 4, "type": "ORG"},
        ],
    })
    for name in ("Zephyrline", "Grumblex", "Hollowpine", "Ivorygate"):
        records.append({
            "tokens": [name, "declined", "to", "comment"],
            "entities": [{"start": 0, "end": 1, "type": "ORG"}],
        })

    while len(records) < n_sentences:
        count = rng.randint(4, 10)
        tokens = [rng.choice(_FILLER_WORDS) for _ in range(count)]
        if rng.random() < 0.1:
            tokens.append(rng.choice(sorted(_DECOY_WORDS)))
        records.append({"tokens": tokens, "entities": []})

    rng.shuffle(records)

    seed_spec = {
        "relation": "acquired",
        "type_pair": ["ORG", "ORG"],
        "positive_pairs": [list(PLANTED_PAIRS[0]), list(PLANTED_PAIRS[1])],
        "negative_pairs": [["Vexcorp", "Wundermart"], ["Xylotech", "Yarrowind"]],
        "positive_templates": ["[X] bought [Y]", "[X] swallowed [Y]"],
        "negative_templates": [],
    }
    return Fixture(
        corpus_records=records,
        embeddings=embedding_table(),
        seed_spec=seed_spec,
        gold_pairs=list(PLANTED_PAIRS),
    )


def build_biset_fixture() -> Fixture:
    """Two sentences stating the same pair in opposite orders with unrelated
    contexts; only biset pairing can seed-match the reversed one."""
    records = [
        _active_record("Aerodyne", "acquired", "Brightport", ["today"]),
        _active_record("Brightport", "sued", "Aerodyne", ["today"]),
    ]
    seed_spec = {
        "relation": "acquired",
        "type_pair": ["ORG", "ORG"],
        "positive_pairs": [["Aerodyne", "Brightport"]],
        "negative_pairs": [],
        "positive_templates": [],
        "negative_templates": [],
    }
    return Fixture(
        corpus_records=records,
        embeddings=embedding_table(),
        seed_spec=seed_spec,
        gold_pairs=[("Aerodyne", "Brightport")],
    )
