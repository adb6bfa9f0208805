"""Corpus, embedding, and seed-file ingestion.

File formats:
  corpus      line-delimited JSON, one sentence per line:
                {"tokens": ["Google", "acquired", ...],
                 "entities": [{"start": 0, "end": 1, "type": "ORG"}, ...],
                 "pos": ["NNP", "VBD", ...]}        # optional, aligned to tokens
              entity spans use the exclusive-end convention
  embeddings  GloVe text format: "word x1 x2 ... xd", one entry per line
  seeds       a single JSON object, see parse_seed_file

Every produced context vector is either the zero vector (empty window, or all
tokens out of vocabulary) or unit-normalized, so downstream dot products are
bounded cosines. Window sums run over tokens in sorted order, which makes the
vectors bit-identical for any two windows with the same token multiset.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CorpusFormatError, EmbeddingFormatError, SeedFormatError

log = logging.getLogger(__name__)

_ZERO_NORM = 1e-12


@dataclass(frozen=True)
class TypedEntity:
    surface: str
    etype: str

    def key(self) -> tuple[str, str]:
        # surface comparison is case-insensitive throughout
        return (self.surface.lower(), self.etype)


@dataclass(frozen=True)
class EntityPair:
    e1: TypedEntity
    e2: TypedEntity

    @property
    def types(self) -> tuple[str, str]:
        return (self.e1.etype, self.e2.etype)

    def key(self, pairing: str = "ordered") -> tuple:
        a, b = self.e1.key(), self.e2.key()
        if pairing == "biset":
            return tuple(sorted((a, b)))
        return (a, b)


@dataclass(frozen=True, eq=False)
class Template:
    """Context-vector triple (before, between, after) plus the entity-type pair."""

    v_before: np.ndarray
    v_between: np.ndarray
    v_after: np.ndarray
    type_pair: tuple[str, str]

    def key(self) -> tuple:
        return (
            self.type_pair,
            self.v_before.tobytes(),
            self.v_between.tobytes(),
            self.v_after.tobytes(),
        )


@dataclass(frozen=True, eq=False)
class Instance:
    """One sentence-level co-occurrence of a typed entity pair with its contexts."""

    id: str
    pair: EntityPair
    template: Template
    sentence_ref: int
    tokens_between: tuple[str, ...]
    between_start: int = 0  # token index of the first between-window token
    passive_swapped: bool = False


@dataclass(frozen=True)
class EntitySpan:
    start: int
    end: int
    etype: str


@dataclass(frozen=True)
class TaggedSentence:
    sid: int
    tokens: tuple[str, ...]
    entities: tuple[EntitySpan, ...]
    pos: tuple[str, ...] | None = None


@dataclass
class LoadedCorpus:
    sentences: list[TaggedSentence]
    dropped_entities: int = 0  # entity type outside the configured vocabulary
    rejected_records: int = 0  # bad or overlapping spans


@dataclass
class ExtractionResult:
    instances: list[Instance]
    skipped_over_limit: int = 0


class EmbeddingStore:
    """Immutable word-vector table; unknown words map to the zero vector."""

    def __init__(self, dimension: int, vectors: dict[str, np.ndarray]):
        self.dimension = dimension
        self._vectors = vectors
        self._zero = np.zeros(dimension, dtype=np.float64)
        self._zero.setflags(write=False)

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, word: str) -> bool:
        return word in self._vectors

    def lookup(self, word: str) -> np.ndarray:
        return self._vectors.get(word, self._zero)

    def context_vector(self, tokens) -> np.ndarray:
        """Unit-normalized sum of the token embeddings (zero if nothing embeds).

        Tokens are summed in sorted order so that equal multisets give
        bit-equal vectors.
        """
        total = np.zeros(self.dimension, dtype=np.float64)
        for tok in sorted(tokens):
            total += self.lookup(tok)
        return unit(total)


def unit(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm < _ZERO_NORM:
        out = np.zeros_like(v)
    else:
        out = v / norm
    out.setflags(write=False)
    return out


def load_embeddings(path) -> EmbeddingStore:
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


def _parse_record(raw: str, lineno: int) -> dict:
    try:
        record = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(record, dict) or "tokens" not in record or "entities" not in record:
        raise CorpusFormatError(
            f"line {lineno}: record must be an object with 'tokens' and 'entities'"
        )
    tokens = record["tokens"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise CorpusFormatError(f"line {lineno}: 'tokens' must be a list of strings")
    entities = record["entities"]
    if not isinstance(entities, list):
        raise CorpusFormatError(f"line {lineno}: 'entities' must be a list")
    for ent in entities:
        if (
            not isinstance(ent, dict)
            or not isinstance(ent.get("start"), int)
            or not isinstance(ent.get("end"), int)
            or not isinstance(ent.get("type"), str)
        ):
            raise CorpusFormatError(
                f"line {lineno}: each entity needs integer 'start'/'end' and string 'type'"
            )
    pos = record.get("pos")
    if pos is not None:
        if not isinstance(pos, list) or not all(isinstance(p, str) for p in pos):
            raise CorpusFormatError(f"line {lineno}: 'pos' must be a list of strings")
        if len(pos) != len(tokens):
            raise CorpusFormatError(
                f"line {lineno}: 'pos' length {len(pos)} != token count {len(tokens)}"
            )
    return record


def load_corpus(path, type_vocab: set[str]) -> LoadedCorpus:
    """Parse a line-delimited corpus file in file order.

    Malformed records raise CorpusFormatError naming the line; records whose
    entity spans are invalid or overlap are skipped and counted. Entities with
    a type outside ``type_vocab`` are dropped and counted.
    """
    sentences: list[TaggedSentence] = []
    dropped = 0
    rejected = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            record = _parse_record(raw, lineno)
            tokens = tuple(record["tokens"])
            spans = []
            ok = True
            for ent in record["entities"]:
                if not (0 <= ent["start"] < ent["end"] <= len(tokens)):
                    log.warning("line %d: bad entity span (%d, %d), record rejected",
                                lineno, ent["start"], ent["end"])
                    ok = False
                    break
                spans.append(EntitySpan(ent["start"], ent["end"], ent["type"]))
            if ok:
                spans.sort(key=lambda s: (s.start, s.end))
                for prev, cur in zip(spans, spans[1:]):
                    if cur.start < prev.end:
                        log.warning("line %d: overlapping entity spans, record rejected",
                                    lineno)
                        ok = False
                        break
            if not ok:
                rejected += 1
                continue
            kept = []
            for span in spans:
                if span.etype in type_vocab:
                    kept.append(span)
                else:
                    dropped += 1
            pos = tuple(record["pos"]) if record.get("pos") is not None else None
            sentences.append(
                TaggedSentence(sid=len(sentences), tokens=tokens,
                               entities=tuple(kept), pos=pos)
            )
    if dropped:
        log.warning("dropped %d entities with types outside %s", dropped, sorted(type_vocab))
    return LoadedCorpus(sentences=sentences, dropped_entities=dropped,
                        rejected_records=rejected)


def extract_instances(
    sentences,
    emb: EmbeddingStore,
    limits: tuple[int, int, int] = (2, 6, 2),
    type_pair: tuple[str, str] = ("ORG", "ORG"),
) -> ExtractionResult:
    """Build one instance per in-sentence ordered entity pair matching type_pair.

    ``limits`` is (max_before, max_between, max_after). Pairs separated by more
    than max_between tokens are skipped and counted; the before/after windows
    are truncated to their limits. Empty windows yield zero vectors.
    """
    max_before, max_between, max_after = limits
    instances: list[Instance] = []
    seen: set[str] = set()
    skipped = 0
    for sent in sentences:
        ents = sorted(sent.entities, key=lambda s: (s.start, s.end))
        for a_idx in range(len(ents)):
            for b_idx in range(a_idx + 1, len(ents)):
                ea, eb = ents[a_idx], ents[b_idx]
                if eb.start < ea.end:
                    continue  # nested or touching spans never form a pair
                if (ea.etype, eb.etype) != type_pair:
                    continue
                between = sent.tokens[ea.end:eb.start]
                if len(between) > max_between:
                    skipped += 1
                    continue
                before = sent.tokens[max(0, ea.start - max_before):ea.start]
                after = sent.tokens[eb.end:eb.end + max_after]
                iid = f"s{sent.sid}:{ea.start}.{ea.end}-{eb.start}.{eb.end}"
                if iid in seen:
                    continue
                seen.add(iid)
                pair = EntityPair(
                    TypedEntity(" ".join(sent.tokens[ea.start:ea.end]), ea.etype),
                    TypedEntity(" ".join(sent.tokens[eb.start:eb.end]), eb.etype),
                )
                template = Template(
                    v_before=emb.context_vector(before),
                    v_between=emb.context_vector(between),
                    v_after=emb.context_vector(after),
                    type_pair=(ea.etype, eb.etype),
                )
                instances.append(
                    Instance(id=iid, pair=pair, template=template,
                             sentence_ref=sent.sid, tokens_between=tuple(between),
                             between_start=ea.end)
                )
    if skipped:
        log.info("skipped %d entity pairs over the between-window limit", skipped)
    return ExtractionResult(instances=instances, skipped_over_limit=skipped)


_TO_BE = {"be", "am", "is", "are", "was", "were", "been", "being"}
_PAST_TAGS = {"VBD", "VBN"}  # Penn Treebank past tense / past participle


def reorder_passive(instance: Instance, pos_tags) -> Instance:
    """Swap the entity pair when the between context is a passive construction.

    The pattern: some form of "to be" directly followed by a verb tagged past
    tense or past participle, with the final between token being "by". Without
    POS tags the heuristic is disabled and the instance returned unchanged.
    Swapped instances are flagged so the operation is idempotent.
    """
    if instance.passive_swapped or not pos_tags:
        return instance
    toks = instance.tokens_between
    if len(toks) < 3 or toks[-1].lower() != "by":
        return instance
    lo = instance.between_start
    pos = tuple(pos_tags[lo:lo + len(toks)])
    if len(pos) != len(toks):
        return instance
    matched = any(
        tok.lower() in _TO_BE and pos[k + 1] in _PAST_TAGS
        for k, tok in enumerate(toks[:-1])
    )
    if not matched:
        return instance
    swapped_pair = EntityPair(instance.pair.e2, instance.pair.e1)
    swapped_template = dataclasses.replace(
        instance.template,
        type_pair=(instance.template.type_pair[1], instance.template.type_pair[0]),
    )
    return dataclasses.replace(
        instance, pair=swapped_pair, template=swapped_template, passive_swapped=True
    )


def parse_seed_templates(raw, emb: EmbeddingStore,
                         type_pair: tuple[str, str]) -> list[Template]:
    """Turn "[X] acquire [Y]"-style strings into context-vector templates."""
    templates = []
    for text in raw:
        tokens = text.split()
        if tokens.count("[X]") != 1 or tokens.count("[Y]") != 1:
            raise SeedFormatError(
                f"seed template {text!r}: needs exactly one [X] and one [Y]"
            )
        ix, iy = tokens.index("[X]"), tokens.index("[Y]")
        if ix > iy:
            raise SeedFormatError(f"seed template {text!r}: [X] must precede [Y]")
        templates.append(
            Template(
                v_before=emb.context_vector(tokens[:ix]),
                v_between=emb.context_vector(tokens[ix + 1:iy]),
                v_after=emb.context_vector(tokens[iy + 1:]),
                type_pair=type_pair,
            )
        )
    return templates


@dataclass
class SeedFileSpec:
    """Parsed seed file: a relation with its pair and template seed lists."""

    relation: str
    type_pair: tuple[str, str]
    positive_pairs: list[tuple[str, str]] = field(default_factory=list)
    negative_pairs: list[tuple[str, str]] = field(default_factory=list)
    positive_templates: list[str] = field(default_factory=list)
    negative_templates: list[str] = field(default_factory=list)


def parse_seed_file(path) -> SeedFileSpec:
    """Read the JSON seed file.

    Expected shape:
      {"relation": "acquired", "type_pair": ["ORG", "ORG"],
       "positive_pairs": [["Adidas", "Reebok"], ...],
       "negative_pairs": [...],
       "positive_templates": ["[X] acquire [Y]", ...],
       "negative_templates": [...]}
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SeedFormatError(f"{path}: invalid JSON ({exc.msg})") from None
    if not isinstance(data, dict):
        raise SeedFormatError(f"{path}: seed file must be a JSON object")
    try:
        relation = data["relation"]
        tp = data["type_pair"]
    except KeyError as exc:
        raise SeedFormatError(f"{path}: missing required key {exc}") from None
    if not isinstance(tp, list) or len(tp) != 2:
        raise SeedFormatError(f"{path}: 'type_pair' must be a two-element list")

    def pair_list(key):
        out = []
        for item in data.get(key, []):
            if not isinstance(item, list) or len(item) != 2:
                raise SeedFormatError(f"{path}: '{key}' entries must be [e1, e2]")
            out.append((str(item[0]), str(item[1])))
        return out

    def template_list(key):
        return [str(t) for t in data.get(key, [])]

    return SeedFileSpec(
        relation=str(relation),
        type_pair=(str(tp[0]), str(tp[1])),
        positive_pairs=pair_list("positive_pairs"),
        negative_pairs=pair_list("negative_pairs"),
        positive_templates=template_list("positive_templates"),
        negative_templates=template_list("negative_templates"),
    )
