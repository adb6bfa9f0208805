"""Scoring accepted output against a gold pair list, plus extractor analytics."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .corpus import EntityPair, Instance, text_lines
from .engine import match_channels
from .errors import GoldFormatError
from .model import Extractor, RunConfig, SeedState
from .scoring import extractor_signature
from .similarity import SimilarityGraph


def _surface_key(e1: str, e2: str, pairing: str) -> tuple:
    a, b = e1.lower(), e2.lower()
    if pairing == "biset":
        return tuple(sorted((a, b)))
    return (a, b)


@dataclass
class GoldKB:
    """Gold facts for one relation, matched on (case-insensitive) surfaces."""

    relation: str
    pairing: str = "ordered"
    facts: set[tuple] = field(default_factory=set)

    def add(self, e1: str, e2: str) -> None:
        self.facts.add(_surface_key(e1, e2, self.pairing))

    def __len__(self) -> int:
        return len(self.facts)


def load_gold(path, relation: str, pairing: str = "ordered") -> GoldKB:
    """Read a flat gold file: one ``e1<TAB>e2`` pair per line."""
    gold = GoldKB(relation=relation, pairing=pairing)
    for lineno, line in text_lines(path, GoldFormatError):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise GoldFormatError(f"{path}: line {lineno}: expected 'e1<TAB>e2'")
        gold.add(parts[0], parts[1])
    if not gold.facts:
        raise GoldFormatError(f"{path}: gold file contains no pairs")
    return gold


class PRF1(NamedTuple):
    precision: float
    recall: float
    f1: float
    out_count: int


def prf1(accepted, gold: GoldKB, threshold: float = 0.5) -> PRF1:
    """Pair-level precision/recall/F1 over records at or above the threshold.

    ``accepted`` yields (instance-or-pair, confidence) tuples; pairs are
    deduplicated after the confidence filter. Raises on an empty gold set.
    """
    if not gold.facts:
        raise GoldFormatError("cannot evaluate against an empty gold set")
    extracted: set[tuple] = set()
    for item, confidence in accepted:
        if confidence < threshold:
            continue
        pair: EntityPair = item.pair if isinstance(item, Instance) else item
        extracted.add(_surface_key(pair.e1.surface, pair.e2.surface, gold.pairing))
    correct = len(extracted & gold.facts)
    precision = correct / len(extracted) if extracted else 0.0
    recall = correct / len(gold.facts)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return PRF1(precision, recall, f1, len(extracted))


class HitCount(NamedTuple):
    by_pair: int
    by_template: int
    either: int


def hit_count(instances, seeds: SeedState, cfg: RunConfig) -> HitCount:
    """Iteration-1 seed-hit counts per matching channel plus the disjunction."""
    hits = match_channels(SimilarityGraph(instances, cfg.measure, cfg.tau_sim), seeds)
    return HitCount(int(np.count_nonzero(hits.pos_pair)),
                    int(np.count_nonzero(hits.pos_template)),
                    int(np.count_nonzero(hits.matched("brej"))))


@dataclass
class ExtractorSummary:
    """Flat extractor record, round-trippable through extractors.jsonl."""

    id: int
    size: int
    n_pos: float
    n_neg: float
    n_unknown: int
    confidence: float
    signature: str
    sample_between_contexts: list[str] = field(default_factory=list)

    @classmethod
    def from_extractor(cls, extractor: Extractor,
                       max_samples: int = 3) -> "ExtractorSummary":
        samples: list[str] = []
        for member in extractor.members:
            text = " ".join(member.tokens_between)
            if text and text not in samples:
                samples.append(text)
            if len(samples) >= max_samples:
                break
        return cls(
            id=extractor.id,
            size=len(extractor.members),
            n_pos=extractor.n_pos,
            n_neg=extractor.n_neg,
            n_unknown=extractor.n_unknown,
            confidence=extractor.confidence,
            signature=extractor_signature(extractor),
            sample_between_contexts=samples,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, row: dict) -> "ExtractorSummary":
        return cls(
            id=int(row["id"]), size=int(row["size"]),
            n_pos=float(row["n_pos"]), n_neg=float(row["n_neg"]),
            n_unknown=int(row["n_unknown"]), confidence=float(row["confidence"]),
            signature=str(row["signature"]),
            sample_between_contexts=list(row.get("sample_between_contexts", [])),
        )


@dataclass
class ExtractorStats:
    """Aggregate extractor attributes.

    count   number of extractors
    aie     mean member count
    aes     mean confidence
    ap, an  mean positive / negative match counts
    anp     an / ap, absent when ap == 0
    ane / anne    fraction of labeled extractors judged noisy / non-noisy
    annlc   fraction of labeled extractors that are non-noisy with
            confidence below 0.5
    The label-dependent fields are absent when no labels are supplied.
    """

    count: int
    aie: float
    aes: float
    ap: float
    an: float
    anp: float | None
    ane: float | None = None
    anne: float | None = None
    annlc: float | None = None


def extractor_stats(summaries, labels=None) -> ExtractorStats:
    """Aggregate a list of ExtractorSummary; labels map signature -> noisy flag."""
    summaries = list(summaries)
    if not summaries:
        return ExtractorStats(0, 0.0, 0.0, 0.0, 0.0, None)
    count = len(summaries)
    aie = sum(s.size for s in summaries) / count
    aes = sum(s.confidence for s in summaries) / count
    ap = sum(s.n_pos for s in summaries) / count
    an = sum(s.n_neg for s in summaries) / count
    anp = an / ap if ap > 0 else None
    ane = anne = annlc = None
    if labels:
        labeled = [s for s in summaries if s.signature in labels]
        if labeled:
            noisy = [s for s in labeled if labels[s.signature]]
            clean = [s for s in labeled if not labels[s.signature]]
            ane = len(noisy) / len(labeled)
            anne = len(clean) / len(labeled)
            annlc = sum(1 for s in clean if s.confidence < 0.5) / len(labeled)
    return ExtractorStats(count=count, aie=aie, aes=aes, ap=ap, an=an, anp=anp,
                          ane=ane, anne=anne, annlc=annlc)
