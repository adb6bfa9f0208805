"""Run configuration and the mutable bootstrap state (seed sets, extractors)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import EmbeddingStore, EntityPair, Instance, SeedFileSpec, Template, \
    TypedEntity, parse_seed_templates
from .errors import SeedFormatError
from .similarity import SimilarityMeasure

MODES = ("bree", "bret", "brej")
PAIRINGS = ("ordered", "biset")
SCORE_AGAINST = ("yield", "original")


class PairSet:
    """Entity-pair set keyed case-insensitively, honoring the pairing mode.

    Under "biset" the key is orderless, so (a, b) and (b, a) collide.
    Insertion order is preserved for deterministic iteration.
    """

    def __init__(self, pairing: str):
        if pairing not in PAIRINGS:
            raise ValueError(f"unknown pairing mode {pairing!r}")
        self.pairing = pairing
        self._items: dict[tuple, EntityPair] = {}

    def add(self, pair: EntityPair) -> bool:
        key = pair.key(self.pairing)
        if key in self._items:
            return False
        self._items[key] = pair
        return True

    def __contains__(self, pair: EntityPair) -> bool:
        return pair.key(self.pairing) in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items.values())

    def keys(self):
        return self._items.keys()

    def copy(self) -> "PairSet":
        out = PairSet(self.pairing)
        out._items = dict(self._items)
        return out

    def merge(self, other: "PairSet") -> None:
        for pair in other:
            self.add(pair)


class TemplateSet:
    """Template set deduplicated by exact vector bytes, insertion-ordered."""

    def __init__(self):
        self._items: dict[tuple, Template] = {}

    def add(self, template: Template) -> bool:
        key = template.key()
        if key in self._items:
            return False
        self._items[key] = template
        return True

    def __contains__(self, template: Template) -> bool:
        return template.key() in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items.values())

    def items(self):
        """(key, template) pairs in insertion order."""
        return self._items.items()

    def copy(self) -> "TemplateSet":
        out = TemplateSet()
        out._items = dict(self._items)
        return out

    def merge(self, other: "TemplateSet") -> None:
        for template in other:
            self.add(template)


@dataclass
class SeedState:
    """The four seed sets grown across iterations."""

    pos_pairs: PairSet
    neg_pairs: PairSet
    pos_templates: TemplateSet
    neg_templates: TemplateSet

    @classmethod
    def empty(cls, pairing: str) -> "SeedState":
        return cls(PairSet(pairing), PairSet(pairing), TemplateSet(), TemplateSet())

    def copy(self) -> "SeedState":
        return SeedState(self.pos_pairs.copy(), self.neg_pairs.copy(),
                         self.pos_templates.copy(), self.neg_templates.copy())

    def merge(self, other: "SeedState") -> None:
        self.pos_pairs.merge(other.pos_pairs)
        self.neg_pairs.merge(other.neg_pairs)
        self.pos_templates.merge(other.pos_templates)
        self.neg_templates.merge(other.neg_templates)

    def sizes(self) -> dict[str, int]:
        return {
            "pos_pairs": len(self.pos_pairs),
            "neg_pairs": len(self.neg_pairs),
            "pos_templates": len(self.pos_templates),
            "neg_templates": len(self.neg_templates),
        }


def build_seed_state(spec: SeedFileSpec, emb: EmbeddingStore,
                     pairing: str) -> SeedState:
    """Materialize a parsed seed file into a SeedState for one relation."""
    t1, t2 = spec.type_pair
    state = SeedState.empty(pairing)
    for e1, e2 in spec.positive_pairs:
        state.pos_pairs.add(EntityPair(TypedEntity(e1, t1), TypedEntity(e2, t2)))
    for e1, e2 in spec.negative_pairs:
        pair = EntityPair(TypedEntity(e1, t1), TypedEntity(e2, t2))
        if pair in state.pos_pairs:
            raise SeedFormatError(
                f"pair ({e1}, {e2}) appears in both positive and negative seeds"
            )
        state.neg_pairs.add(pair)
    for template in parse_seed_templates(spec.positive_templates, emb, spec.type_pair):
        state.pos_templates.add(template)
    for template in parse_seed_templates(spec.negative_templates, emb, spec.type_pair):
        state.neg_templates.add(template)
    return state


@dataclass
class SeedHits:
    """Which instances match one seed state, per channel and polarity.

    Each field holds one bool per row of the bootstrap's instance list.
    """

    pos_pair: np.ndarray
    pos_template: np.ndarray
    neg_pair: np.ndarray
    neg_template: np.ndarray

    def matched(self, mode: str) -> np.ndarray:
        """Hop-1 seed match: pair membership (BREE), template similarity
        (BRET), or their disjunction (BREJ)."""
        if mode == "bree":
            return self.pos_pair
        if mode == "bret":
            return self.pos_template
        return self.pos_pair | self.pos_template


@dataclass
class Extractor:
    """A cluster of instances acting as an extraction pattern.

    ``rows`` are the members' positions in the bootstrap's instance list.
    """

    id: int
    members: list[Instance]
    rows: list[int]
    n_pos: float = 0.0
    n_neg: float = 0.0
    n_unknown: int = 0
    confidence: float = 0.0

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class RunConfig:
    mode: str = "brej"
    measure: SimilarityMeasure = field(default_factory=SimilarityMeasure)
    tau_sim: float = 0.7
    tau_cnf: float = 0.7
    w_neg: float = 0.5
    w_unk: float = 0.0001
    iterations: int = 3
    pairing: str = "ordered"
    max_before: int = 2
    max_between: int = 6
    max_after: int = 2
    output_threshold: float = 0.5
    score_against: str = "yield"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; pick one of {MODES}")
        if self.pairing not in PAIRINGS:
            raise ValueError(f"unknown pairing {self.pairing!r}; pick one of {PAIRINGS}")
        if self.score_against not in SCORE_AGAINST:
            raise ValueError(
                f"unknown score-against {self.score_against!r}; pick one of {SCORE_AGAINST}"
            )
        for name in ("tau_sim", "tau_cnf", "output_threshold"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")
        if self.w_neg < 0 or self.w_unk < 0:
            raise ValueError("w_neg and w_unk must be nonnegative")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if min(self.max_before, self.max_between, self.max_after) < 0:
            raise ValueError("window limits must be nonnegative")

    @property
    def limits(self) -> tuple[int, int, int]:
        return (self.max_before, self.max_between, self.max_after)


@dataclass
class BootstrapResult:
    yield_state: SeedState
    extractors: list[Extractor]
    accepted: list[tuple[Instance, float]]
    per_iteration_stats: list[dict]
    diagnostic: str | None = None
