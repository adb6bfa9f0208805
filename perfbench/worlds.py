"""Seeded workload generator: corpus, embeddings, seeds and gold in brex's file formats.

A world is a set of context clusters in a 50-d embedding space, laid out on a
random orthonormal basis drawn from the seed:

  chain  R1..R5 in one plane. Adjacent clusters meet at cosine 0.82, above the
         default tau_sim of 0.7; clusters two apart meet at 0.34. Each
         bootstrapping iteration therefore reaches one cluster further along
         the chain, so all three default iterations add to the yield.
  gold   one cluster orthogonal to the chain: true facts that only bridge
         sentences lead to, and only under the symmetric measures.
  noise  24 distractor clusters orthogonal to the chain and to each other.

R1..R3 state the relation and carry the gold pairs; R4..R5 are semantic
drift. Before/after windows are filler words that share one direction, so the
`match` measure (which weighs the side windows) separates the clusters too.
A few gold pairs are stated in side, bridge and split form (see
`_World.mention`), which each measure sees differently, so the four measures
give four different precision/recall results.

The seed picks only surface choices: the basis, word and entity-name
spellings, window fill, sentence order and small vector noise. How many
instances each cluster holds and which pairs they carry is fixed per layout,
so the work per operation and precision/recall stay the same across seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIM = 50
ADJ_COS = 0.82          # cosine between adjacent chain clusters
WORD_NOISE = 0.1        # norm of the per-word offset from its cluster direction
FILLER_NOISE = 0.6      # filler words share one direction more loosely
N_CHAIN = 5
N_NOISE = 24
WORDS_PER_CLUSTER = 6
N_FILLER = 40
RELATION = "acquired"
SYLLABLES = ("ka", "lo", "mir", "ven", "tor", "qua", "zel", "bri", "dun", "fex",
             "gal", "hol", "ish", "jor", "kel", "lum", "nox", "orb", "pim", "ras",
             "sol", "tan", "ul", "vor", "wex", "yan", "zor", "cre", "dra", "eno")


@dataclass(frozen=True)
class Layout:
    """Fixed instance counts of a world; the seed never changes these."""

    chain: int        # instances per chain cluster (even)
    gold_only: int    # instances (one per pair) in the unreachable gold cluster
    noise: int        # instances per distractor cluster
    restated: int     # distractor clusters that restate one true pair each
    side: int         # gold pairs stated once in side form
    bridge: int       # gold pairs stated once in bridge form
    split: int        # gold pairs stated once in split form
    background: int   # sentences without an ORG pair
    background_vocab: int
    table_words: int  # rows of the embedding table, padded with unused words

    @property
    def instances(self) -> int:
        return (N_CHAIN * self.chain + self.gold_only + self.side + self.bridge
                + self.split + N_NOISE * self.noise)


LAYOUTS = {
    "scale-brej": Layout(chain=20, gold_only=20, noise=57, restated=2, side=10,
                         bridge=4, split=4, background=400,
                         background_vocab=200, table_words=0),
    "ingest-heavy": Layout(chain=20, gold_only=20, noise=12, restated=2, side=4,
                           bridge=2, split=2, background=39600,
                           background_vocab=800, table_words=150_000),
    "sweep-grid": Layout(chain=12, gold_only=10, noise=6, restated=2, side=6,
                         bridge=4, split=4, background=300,
                         background_vocab=200, table_words=16_000),
}


def scaled_layout(n_instances: int) -> Layout:
    """The scale-brej world resized to about ``n_instances`` instances."""
    base = LAYOUTS["scale-brej"]
    f = n_instances / base.instances
    return Layout(chain=max(2, 2 * round(base.chain * f / 2)),
                  gold_only=max(1, round(base.gold_only * f)),
                  noise=max(1, round(base.noise * f)), restated=base.restated,
                  side=base.side, bridge=base.bridge, split=base.split,
                  background=base.background,
                  background_vocab=base.background_vocab, table_words=0)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


class _World:
    def __init__(self, layout: Layout, seed: int):
        self.layout = layout
        self.rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(self.rng.standard_normal((DIM, DIM)))
        self.basis = basis.T  # rows are orthonormal directions
        self.vectors: dict[str, np.ndarray] = {}
        self.names = self._entity_names(2 * layout.instances + 40)
        self.name_at = 0
        alpha = math.acos(ADJ_COS)
        e0, e1 = self.basis[0], self.basis[1]
        dirs = [math.cos(k * alpha) * e0 + math.sin(k * alpha) * e1
                for k in range(N_CHAIN)]
        dirs.append(self.basis[2])                       # unreachable gold
        dirs += [self.basis[4 + k] for k in range(N_NOISE)]
        self.cluster_words = []
        for c, direction in enumerate(dirs):
            words = []
            for k in range(WORDS_PER_CLUSTER):
                word = f"v{c:02d}{self._syllables(2)}{k}"
                self.vectors[word] = _unit(direction + WORD_NOISE * _unit(
                    self.rng.standard_normal(DIM)))
                words.append(word)
            self.cluster_words.append(words)
        filler_dir = self.basis[3]
        self.fillers = []
        for k in range(N_FILLER):
            word = f"f{self._syllables(2)}{k}"
            self.vectors[word] = _unit(filler_dir + FILLER_NOISE * _unit(
                self.rng.standard_normal(DIM)))
            self.fillers.append(word)
        # halves of an R1 verb: each alone meets R1 at cosine 0.5, their sum at ~1
        self.halves = []
        for k, axis in enumerate((28, 29)):
            word = f"h{self._syllables(2)}{k}"
            self.vectors[word] = 0.5 * dirs[0] + math.sqrt(0.75) * self.basis[axis]
            self.halves.append(word)
        # short function words barely move a context vector
        for word in ("was", "by"):
            self.vectors[word] = 0.05 * filler_dir
        self.background_words = []
        for k in range(layout.background_vocab):
            word = f"b{self._syllables(2)}{k}"
            self.vectors[word] = _unit(self.rng.standard_normal(DIM))
            self.background_words.append(word)

    def _syllables(self, n: int) -> str:
        return "".join(SYLLABLES[i] for i in self.rng.integers(len(SYLLABLES), size=n))

    def _entity_names(self, count: int) -> list[str]:
        names: list[str] = []
        seen = set()
        while len(names) < count:
            name = self._syllables(3).capitalize()
            if name not in seen:
                seen.add(name)
                names.append(name)
        return names

    def entity(self) -> list[str]:
        """A fresh ORG name; every fifth one has two tokens."""
        name = self.names[self.name_at]
        self.name_at += 1
        return [name, "Holdings"] if self.name_at % 5 == 0 else [name]

    def pick(self, words, n):
        return [words[i] for i in self.rng.integers(len(words), size=n)]

    def fill(self):
        return self.pick(self.fillers, int(self.rng.integers(1, 3)))

    def mention(self, e1, e2, cluster: int, form: str = "active") -> dict:
        """One sentence stating (e1, e2) with a word of ``cluster``.

        active   "<fill> E1 <verb> E2 <fill>"
        passive  "<fill> E2 was <verb> by E1 <fill>", POS-tagged for the swap
        side     "<fill> E1 and E2 <verb>": the between window is out of
                 vocabulary, so only the side-window measures (cc-*) see it
        bridge   "<gold-word> E1 <verb> E2 <fill>": the before window points
                 at the unreachable gold cluster, which only the symmetric
                 measures (cc-sym1, cc-sym2) then reach
        split    "<half> E1 and E2 <half>": only cc-sym2, which sums the side
                 windows, sees the R1 verb that the two halves make up
        """
        before, after = self.fill(), self.fill()
        verb = self.pick(self.cluster_words[cluster], 1)
        left, right = e1, e2
        if form == "passive":
            left, right = e2, e1
            between, between_pos = ["was", verb[0], "by"], ["VBD", "VBN", "IN"]
        elif form == "side":
            between, between_pos, after = ["and"], ["CC"], verb
        elif form == "split":
            before, after = self.halves[:1], self.halves[1:]
            between, between_pos = ["and"], ["CC"]
        else:
            between = self.pick(self.cluster_words[cluster],
                                int(self.rng.integers(1, 3)))
            between_pos = ["VBD"] * len(between)
            if form == "bridge":
                before = self.pick(self.cluster_words[N_CHAIN], 1)
        tokens = before + left + between + right + after
        start2 = len(before) + len(left) + len(between)
        return {
            "tokens": tokens,
            "entities": [
                {"start": len(before), "end": len(before) + len(left), "type": "ORG"},
                {"start": start2, "end": start2 + len(right), "type": "ORG"},
            ],
            "pos": (["DT"] * len(before) + ["NNP"] * len(left) + between_pos
                    + ["NNP"] * len(right) + ["NN"] * len(after)),
        }


def build(layout: Layout, seed: int) -> dict:
    """Generate one world; returns the corpus records, table, seed spec and gold."""
    w = _World(layout, seed)
    records: list[dict] = []
    gold: list[tuple[list[str], list[str]]] = []

    # R1..R3: each true pair is stated twice, in two different chain clusters
    slots = [c for _ in range(layout.chain) for c in range(3)]
    true_pairs = []
    for k in range(0, len(slots), 2):
        pair = (w.entity(), w.entity())
        true_pairs.append(pair)
        for slot in (k, k + 1):
            records.append(w.mention(*pair, slots[slot],
                                     "passive" if slot % 8 == 7 else "active"))
    gold += true_pairs
    # R4..R5: drift pairs stated once in each drift cluster
    drift_pairs = []
    for k in range(layout.chain):
        pair = (w.entity(), w.entity())
        drift_pairs.append(pair)
        records.append(w.mention(*pair, 3, "passive" if k % 8 == 7 else "active"))
        records.append(w.mention(*pair, 4))
    for _ in range(layout.gold_only):
        pair = (w.entity(), w.entity())
        gold.append(pair)
        records.append(w.mention(*pair, N_CHAIN))
    # gold pairs stated once in side, bridge or split form, with an R1 verb
    for form, count in (("side", layout.side), ("bridge", layout.bridge),
                        ("split", layout.split)):
        for _ in range(count):
            pair = (w.entity(), w.entity())
            gold.append(pair)
            records.append(w.mention(*pair, 0, form))
    # distractors; the first few clusters each restate one true pair in an
    # unrelated context, which pulls that whole cluster into the extractors
    for k in range(N_NOISE):
        for j in range(layout.noise):
            if j == 0 and k < layout.restated:
                pair = true_pairs[1 + k]
            else:
                pair = (w.entity(), w.entity())
            records.append(w.mention(*pair, N_CHAIN + 1 + k))

    # ingest edge cases: pairs over the between-window limit, overlapping
    # spans (record rejected), and entity types outside the relation's
    for _ in range(10):
        e1, e2 = w.entity(), w.entity()
        tokens = e1 + w.pick(w.fillers, 8) + e2
        records.append({"tokens": tokens, "entities": [
            {"start": 0, "end": len(e1), "type": "ORG"},
            {"start": len(tokens) - len(e2), "end": len(tokens), "type": "ORG"}]})
    for _ in range(5):
        e1 = w.entity()
        records.append({"tokens": e1 + ["said"], "entities": [
            {"start": 0, "end": len(e1), "type": "ORG"},
            {"start": 0, "end": 1, "type": "PER"}]})
    types = ("PER", "LOC", "ORG", None, None)
    for k in range(layout.background):
        tokens = w.pick(w.background_words, int(w.rng.integers(6, 15)))
        etype = types[k % len(types)]
        entities = []
        if etype is not None:
            name = w.pick(w.names, 1)
            tokens = name + tokens
            entities.append({"start": 0, "end": len(name), "type": etype})
        records.append({"tokens": tokens, "entities": entities})

    order = w.rng.permutation(len(records))
    records = [records[i] for i in order]

    seed_spec = {
        "relation": RELATION,
        "type_pair": ["ORG", "ORG"],
        "positive_pairs": [[" ".join(a), " ".join(b)] for a, b in true_pairs[0:15:3]],
        "negative_pairs": [[" ".join(a), " ".join(b)] for a, b in drift_pairs[:3]],
        "positive_templates": [" ".join(w.pick(w.fillers, 2) + ["[X]"]
                                        + w.pick(w.cluster_words[0], 1) + ["[Y]"]
                                        + w.pick(w.fillers, 2))],
        "negative_templates": [],
    }
    return {"records": records, "vectors": w.vectors, "seed_spec": seed_spec,
            "gold": [(" ".join(a), " ".join(b)) for a, b in gold], "rng": w.rng}


def _write_padding(fh, rng, count: int) -> None:
    """Append ``count`` unused random rows, formatted as fixed-width bytes."""
    chunk = 20_000
    for lo in range(0, count, chunk):
        n = min(chunk, count - lo)
        vals = rng.integers(-9999, 10000, size=(n, DIM))
        field = np.empty((n, DIM, 8), dtype=np.uint8)
        field[:, :, 0] = ord(" ")
        field[:, :, 1] = np.where(vals < 0, ord("-"), ord(" "))
        field[:, :, 2] = ord("0")
        field[:, :, 3] = ord(".")
        mag = np.abs(vals)
        for pos, div in enumerate((1000, 100, 10, 1)):
            field[:, :, 4 + pos] = ord("0") + (mag // div) % 10
        head = np.frombuffer(
            "".join(f"u{lo + i:07d}" for i in range(n)).encode(), dtype=np.uint8
        ).reshape(n, 8)
        line = np.concatenate(
            [head, field.reshape(n, DIM * 8), np.full((n, 1), ord("\n"), np.uint8)],
            axis=1)
        fh.write(line.tobytes())


def write(layout: Layout, seed: int, out_dir: Path) -> dict[str, Path]:
    """Generate the world for ``seed`` and write it; returns the four input paths."""
    world = build(layout, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: out_dir / file for name, file in (
        ("corpus", "corpus.jsonl"), ("embeddings", "embeddings.txt"),
        ("seeds", "seeds.json"), ("gold", "gold.tsv"))}
    with open(paths["corpus"], "w", encoding="utf-8") as fh:
        for record in world["records"]:
            fh.write(json.dumps(record) + "\n")
    with open(paths["embeddings"], "w", encoding="utf-8") as fh:
        for word, vec in world["vectors"].items():
            fh.write(word + " " + " ".join(f"{x:.6f}" for x in vec) + "\n")
    with open(paths["embeddings"], "ab") as fh:
        _write_padding(fh, world["rng"],
                       max(0, layout.table_words - len(world["vectors"])))
    with open(paths["seeds"], "w", encoding="utf-8") as fh:
        json.dump(world["seed_spec"], fh, indent=2)
    with open(paths["gold"], "w", encoding="utf-8") as fh:
        for e1, e2 in world["gold"]:
            fh.write(f"{e1}\t{e2}\n")
    return paths
