"""Corpus, embedding, and seed-file ingestion.

File formats:
  corpus      line-delimited JSON, one sentence per line:
                {"tokens": ["Google", "acquired", ...],
                 "entities": [{"start": 0, "end": 1, "type": "ORG"}, ...],
                 "pos": ["NNP", "VBD", ...]}        # optional, aligned to tokens
              entity spans use the exclusive-end convention
  embeddings  GloVe text format: "word x1 x2 ... xd", one entry per line
  seeds       a single JSON object, see parse_seed_file

json_object and json_lines read every JSON file of the package: the seed
file and the corpus here, and in brex.cli the --config and --labels files
and the run files that `brex eval` and `brex stats` read back (manifest.json,
stats.json, accepted.jsonl, extractors.jsonl). Each text goes through one
decode rule, _as_object: each value and each error text is the one
json.loads gives, and an object that starts at the text's first character
is read by the C decoder alone; text nested too deeply or an integer too
long for int is invalid JSON too. Each error they raise names the file, and
the line where there is one. json_value gives each value read from them the
type its field needs; only the corpus records, read by the ten thousand,
keep their own checks on the decoded values (_record_problem,
_span_problem), and only a record kept as a sentence is built into one.

The corpus and the embedding table are each read by one reader
(_parse_split) and merged in file order. It cuts a regular file at line
starts into byte ranges parsed at the same time, one per CPU this process
may run on, at most one per 2 MiB of corpus or per 512 KiB of table: on 2
CPUs a corpus splits from 4 MiB on, a table from 1 MiB on. A smaller file
or a pipe is one range, read once. The results, warnings and errors are
those of one pass over the file.

A table is validated in full once: its parse writes a row index (the key of
each row's word and the row's byte range) in the user's cache directory,
keyed by the table's sha256, and a later load of a table with that digest
looks up the keys of its vocabulary there and reads only their rows (see
load_embeddings). The index holds no vectors and no words, and the store it
gives is the one a parse gives. A corpus is validated once per type
vocabulary the same way: its index holds the columns of the sentences a
parse kept (see SentenceColumns), the counts and the rejected records, and
a later load takes the columns from it and never opens the corpus (see
load_corpus). Both
indexes go through one path rule, writer and reader (_index_path,
_write_index, _read_index), and both are read only while the file is the
one the digest was taken of (HashedPath.unchanged). Each file is hashed
once per version: file_sha256 keeps a digest memo in that directory, one
small file per inode, and a later call on a file whose device, inode, size,
mtime and ctime are the memo's reads the digest there instead of the file.

Every produced context vector is either the zero vector (empty window, or all
tokens out of vocabulary) or unit-normalized, so downstream dot products are
bounded cosines. The EmbeddingStore keeps one table of distinct contexts, a
row per sorted token multiset: extract_instances gives its distinct windows
their rows in one batch (window_rows), parse_seed_templates each of its
windows (context_row), new rows are built as one read-only matrix per
batch, and every window of a multiset shares its row's array. Window sums
run over tokens in sorted order, which makes the vectors bit-identical for
any two windows with the same token multiset. A window whose sum or norm
overflows float64 raises EmbeddingFormatError naming its tokens (exit 2),
where it would otherwise give a NaN or zero vector and silently zero
similarities.

extract_instances runs over the columns of the kept sentences: an int32 id
per token, into the sorted table of the distinct tokens, and the spans as
int32 rows. It gives its instances as an InstanceTable: each row's three
context rows, type-pair id, entity-key ids, sentence and spans. It builds
no Instance and no sentence tuple: a row's Instance is built, from the
columns, when a caller first reads it (``table[row]``) and kept, so a run
builds those of its extractors' members and accepted rows only.
InstanceTable.from_instances gives the table of a list of instances, for
tests and API callers.
"""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import json
import logging
import math
import operator
import os
import pickle
import re
import signal
import stat
import tempfile
import time
import zipfile
import zlib
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CorpusFormatError, EmbeddingFormatError, InputError, SeedFormatError

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


class EntitySpan(NamedTuple):
    start: int
    end: int
    etype: str


class TaggedSentence(NamedTuple):
    """One corpus record that can yield an instance, as plain tuples:
    SentenceColumns.sentence builds one from the columns when a reader asks,
    and SentenceColumns.of turns a list of them into columns."""

    sid: int
    tokens: tuple[str, ...]
    entities: tuple[EntitySpan, ...]
    pos: tuple[str, ...] | None = None


@dataclass(eq=False)
class SentenceColumns:
    """The sentences of a corpus that can yield an instance, as columns;
    ``n`` sentences, ``T`` tokens and ``S`` spans in all:

    - ``sids``: each sentence's sid;
    - ``token_ids``: the tokens, sentence after sentence, each as its
      position in ``words``, an int32 array of T; ``words`` holds the
      distinct tokens sorted as sorted() sorts str, so that sorting ids
      sorts the tokens as sorted() does;
    - ``token_starts``: the offsets of each sentence's tokens, n + 1 of them;
    - ``spans``: the entity spans as (start, end, type id) rows of int32,
      each sentence's sorted, with offsets ``span_starts``; a type id is a
      position in ``types``;
    - ``tagged``: whether each sentence has POS tags, and ``tags``, the tags
      of the tagged sentences, one after another.
    """

    sids: np.ndarray
    token_ids: np.ndarray
    words: list[str]
    token_starts: np.ndarray
    spans: np.ndarray
    span_starts: np.ndarray
    tagged: np.ndarray
    tags: list[str]
    types: list[str]

    @classmethod
    def build(cls, sids: list[int], tokens: list[str], sizes: list[int], spans: list[int],
              span_counts: list[int], tagged: list[bool], tags: list[str],
              types: list[str]) -> "SentenceColumns":
        """The columns of sentences given as flat lists: their sids, all
        their tokens and each one's token count, all their spans (start, end
        and type id, one after another) and each one's span count, and each
        one's tagged flag and the tags of the tagged ones."""
        words = sorted(set(tokens))
        ids = dict(zip(words, range(len(words))))
        return cls(np.array(sids, np.int64),
                   np.fromiter(map(ids.__getitem__, tokens), np.int32, len(tokens)), words,
                   _starts(sizes), np.array(spans, np.int32).reshape(-1, 3),
                   _starts(span_counts), np.array(tagged, bool).reshape(-1), tags, types)

    @classmethod
    def of(cls, sentences) -> "SentenceColumns":
        """The columns of the TaggedSentences ``sentences`` (as tests and
        API callers give them to extract_instances), each one's spans
        sorted; their types are the spans' types, sorted."""
        sentences = list(sentences)
        types = sorted({span.etype for sent in sentences for span in sent.entities})
        type_ids = dict(zip(types, range(len(types))))
        spans = [sorted(sent.entities) for sent in sentences]
        return cls.build([sent.sid for sent in sentences],
                         [tok for sent in sentences for tok in sent.tokens],
                         [len(sent.tokens) for sent in sentences],
                         [value for entities in spans for start, end, etype in entities
                          for value in (start, end, type_ids[etype])],
                         list(map(len, spans)), [sent.pos is not None for sent in sentences],
                         [tag for sent in sentences for tag in sent.pos or ()], types)

    def __len__(self) -> int:
        return len(self.sids)

    @functools.cached_property
    def tag_starts(self) -> np.ndarray:
        """The offsets of each sentence's tags in ``tags``; an untagged
        sentence has none."""
        return _starts(np.diff(self.token_starts) * self.tagged)

    def tokens(self, k: int) -> tuple[str, ...]:
        """Sentence ``k``'s tokens."""
        start, end = self.token_starts[k:k + 2].tolist()
        return tuple(map(self.words.__getitem__, self.token_ids[start:end].tolist()))

    def sentence(self, k: int) -> TaggedSentence:
        """Sentence ``k`` as a TaggedSentence."""
        tokens = self.tokens(k)
        first, last = self.span_starts[k:k + 2].tolist()
        tags = self.tag_starts[k].item()
        return TaggedSentence(
            self.sids[k].item(), tokens,
            tuple(EntitySpan(a, b, self.types[etype])
                  for a, b, etype in self.spans[first:last].tolist()),
            tuple(self.tags[tags:tags + len(tokens)]) if self.tagged[k] else None)


class _SentenceView(Sequence):
    """The sentences ``at`` of ``columns``, each built when it is read."""

    def __init__(self, columns: SentenceColumns, at: np.ndarray):
        self._columns = columns
        self._at = at

    def __len__(self) -> int:
        return len(self._at)

    def __getitem__(self, k: int) -> TaggedSentence:
        return self._columns.sentence(self._at[k])

    def sid_tokens(self, k: int) -> tuple[int, tuple[str, ...]]:
        """The sid and the tokens of sentence ``k``, all that an Instance
        reads of it."""
        return self._columns.sids[self._at[k]].item(), self._columns.tokens(self._at[k])


@dataclass(eq=False)
class LoadedCorpus:
    """What load_corpus gives: the accepted records that can yield an
    instance, as columns, and the counts. Two compare equal when their
    sentences and counts do."""

    columns: SentenceColumns
    accepted_records: int = 0  # every record not rejected; sids count these
    dropped_entities: int = 0  # entity type outside the configured vocabulary
    rejected_records: int = 0  # bad or overlapping spans

    @functools.cached_property
    def sentences(self) -> list[TaggedSentence]:
        """The sentences as TaggedSentences, built on the first read."""
        return [self.columns.sentence(k) for k in range(len(self.columns))]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LoadedCorpus):
            return NotImplemented
        return (self.sentences, self.accepted_records, self.dropped_entities,
                self.rejected_records) == (other.sentences, other.accepted_records,
                                           other.dropped_entities, other.rejected_records)


def distinct_windows(templates) -> tuple[list[np.ndarray], np.ndarray]:
    """The distinct window arrays of ``templates``, told apart by identity,
    and each template's (before, between, after) positions among them as an
    (N, 3) int32 array. Ingest gives all windows of one token multiset one
    array, so its windows come out once each."""
    windows = [window for t in templates for window in (t.v_before, t.v_between, t.v_after)]
    keys, at = np.unique(np.fromiter(map(id, windows), dtype=np.uint64, count=len(windows)),
                         return_inverse=True)
    pick = np.empty(len(keys), dtype=np.intp)
    pick[at] = np.arange(len(windows))  # any window of an id is its array
    return [windows[k] for k in pick.tolist()], at.reshape(-1, 3).astype(np.int32)


class InstanceTable:
    """A frozen instance list as columns, one row per instance.

    - ``contexts``: context vectors, and ``ids``, each row's (before,
      between, after) positions among them as an (N, 3) int32 array;
    - ``type_pairs``: the entity-type pairs of the rows, and ``type_ids``,
      each row's position among them;
    - ``entities``: an id per distinct entity key (TypedEntity.key) of the
      rows, in the order first seen, and ``entity_ids``, each row's (e1, e2)
      ids as an (N, 2) int32 array, from which pair_ids gives each row's
      pair id under a pairing;
    - of a table from extract_instances, ``sentences``, the sentences it
      read that have a row, each built as a TaggedSentence when it is read,
      and ``spans``, each row's sentence (its index there), its two entity
      spans in sentence order (start, end, start, end) and whether the pair
      was swapped as passive (1) or not (0), as an (N, 6) int64 array.

    ``table[row]`` is row's Instance, built on the first read and kept: the
    same object on every read, whose template holds the arrays of
    ``contexts``. A table from extract_instances builds it from its
    sentences and spans, so only the rows read get one; a table
    from_instances holds the instances it was given, and no spans.
    """

    def __init__(self, contexts: list[np.ndarray], ids: np.ndarray, type_pairs: list,
                 type_ids: np.ndarray, entities: dict[tuple, int], entity_ids: np.ndarray,
                 sentences=(), spans: np.ndarray | None = None):
        self.contexts = contexts
        self.ids = ids
        self.type_pairs = type_pairs
        self.type_ids = type_ids
        self.entities = entities
        self.entity_ids = entity_ids
        self.sentences = sentences
        self.spans = spans
        self._instances: dict[int, Instance] = {}
        self._row_of_template: dict[Template, int] = {}

    @classmethod
    def from_instances(cls, instances: list[Instance]) -> "InstanceTable":
        """The table of ``instances``, whose windows become its contexts once
        per array (see distinct_windows). Rows of several type pairs and
        contexts of several shapes are allowed here; a similarity graph
        raises on the shapes."""
        contexts, ids = distinct_windows([instance.template for instance in instances])
        types: dict[tuple, int] = {}
        type_ids = np.fromiter((types.setdefault(instance.template.type_pair, len(types))
                                for instance in instances), dtype=np.int32,
                               count=len(instances))
        entities: dict[tuple, int] = {}
        entity_ids = np.fromiter((entities.setdefault(key, len(entities))
                                  for instance in instances
                                  for key in (instance.pair.e1.key(), instance.pair.e2.key())),
                                 dtype=np.int32, count=2 * len(instances)).reshape(-1, 2)
        table = cls(contexts, ids, list(types), type_ids, entities, entity_ids)
        table._instances = dict(enumerate(instances))
        table._row_of_template = {instance.template: row
                                  for row, instance in enumerate(instances)}
        return table

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, row) -> Instance:
        row = operator.index(row)
        instance = self._instances.get(row)
        if instance is None:
            if not 0 <= row < len(self):
                raise IndexError(f"row {row} of a table of {len(self)}")
            instance = self._instances[row] = self._instance(row)
            self._row_of_template[instance.template] = row
        return instance

    def _instance(self, row: int) -> Instance:
        index, a_start, a_end, b_start, b_end, swapped = self.spans[row].tolist()
        sid, tokens = self.sentences.sid_tokens(index)
        surfaces = " ".join(tokens[a_start:a_end]), " ".join(tokens[b_start:b_end])
        first, second = surfaces[::-1] if swapped else surfaces
        t1, t2 = self.type_pairs[self.type_ids[row]]
        pair = EntityPair(TypedEntity(first, t1), TypedEntity(second, t2))
        before, between, after = (self.contexts[k] for k in self.ids[row].tolist())
        return Instance(id=f"s{sid}:{a_start}.{a_end}-{b_start}.{b_end}", pair=pair,
                        template=Template(v_before=before, v_between=between,
                                          v_after=after, type_pair=pair.types),
                        sentence_ref=sid, tokens_between=tokens[a_end:b_start])

    def row_of(self, template: Template) -> int | None:
        """The row whose built or given Instance holds ``template`` (the last
        such row), or None. Templates compare by identity."""
        return self._row_of_template.get(template)

    def pair_ids(self, pairing: str) -> np.ndarray:
        """Each row's pair id under ``pairing`` (see _pair_codes)."""
        return self._pair_codes(self.entity_ids, pairing)

    def key_pair_ids(self, keys, pairing: str) -> np.ndarray:
        """The pair id under ``pairing`` of each EntityPair key in ``keys``
        whose two entities are in some row; keys of other entities have
        none."""
        ids = [(self.entities.get(a), self.entities.get(b)) for a, b in keys]
        known = [pair for pair in ids if None not in pair]
        return self._pair_codes(np.array(known, dtype=np.int32).reshape(-1, 2), pairing)

    def _pair_codes(self, entity_ids: np.ndarray, pairing: str) -> np.ndarray:
        """The pair id of each (e1, e2) row of entity ids: e1's id * E +
        e2's id, E the count of entities; under "biset" the smaller id comes
        first, so that (a, b) and (b, a) share one id."""
        first, second = entity_ids.astype(np.int64).T
        if pairing == "biset":
            first, second = np.minimum(first, second), np.maximum(first, second)
        return first * len(self.entities) + second


@dataclass
class ExtractionResult:
    table: InstanceTable
    skipped_over_limit: int = 0
    swapped_as_passive: int = 0  # instances whose pair was swapped as passive
    dropped_by_type_gate: int = 0  # pairs whose final type pair is not the relation's


class EmbeddingStore:
    """Immutable word-vector table; unknown words map to the zero vector.

    The store also holds the table of distinct context vectors: each sorted
    token multiset has one row, given by context_row to a window of tokens
    and by window_rows to windows of token ids. context_rows builds the rows
    context_row added since its last call, and window_rows its own at once,
    each batch one read-only matrix. Every window of a multiset shares that
    row's array, a C-contiguous view of its matrix.
    """

    def __init__(self, dimension: int, vectors: dict[str, np.ndarray]):
        self.dimension = dimension
        self._vectors = vectors
        self._zero = np.zeros(dimension, dtype=np.float64)
        self._zero.setflags(write=False)
        self._rows: dict[tuple[str, ...], int] = {}
        self._contexts: list[np.ndarray] = []  # the built rows, by row
        self._pending: list[tuple[str, ...]] = []  # the multisets of the rows not built yet

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, word: str) -> bool:
        return word in self._vectors

    def lookup(self, word: str) -> np.ndarray:
        return self._vectors.get(word, self._zero)

    def context_row(self, tokens) -> int:
        """The row of the context table that holds the context vector of
        ``tokens``; a multiset not seen before gets the next row, which the
        next context_rows call builds."""
        key = tuple(sorted(tokens))
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = len(self._rows)
            self._pending.append(key)
        return row

    def context_rows(self) -> list[np.ndarray]:
        """The context vector of every row of the context table, by row,
        after building those added since the last call (see _extend)."""
        if self._pending:
            keys, self._pending = self._pending, []
            words = sorted({word for key in keys for word in key})
            ids = dict(zip(words, range(len(words))))
            windows = np.full((len(keys), max(1, max(map(len, keys)))), len(words), np.int32)
            for window, key in zip(windows, keys):
                window[:len(key)] = list(map(ids.__getitem__, key))
            self._extend(windows, words)
        return self._contexts

    def window_rows(self, windows: np.ndarray, words: list[str]) -> np.ndarray:
        """The row of the context table of each window of ``windows``: rows
        of ids into ``words`` (sorted as sorted() sorts str), each row
        sorted, then padded with len(words). The distinct windows (one
        np.unique) are looked up as context_row looks up a multiset, in the
        order first seen, and those not seen before get the next rows,
        built here at once (see _extend)."""
        self.context_rows()  # the rows context_row added come first
        distinct, window = _first_seen(windows)
        windows, pad = windows[distinct], len(words)
        sizes = (windows < pad).sum(1)
        keys: list = [None] * len(windows)
        vocabulary = np.array(words + [None], dtype=object)
        for size in set(sizes.tolist()):
            at = np.flatnonzero(sizes == size)
            for k, key in zip(at.tolist(), map(tuple, vocabulary[windows[at, :size]].tolist())):
                keys[k] = key
        rows = self._rows
        new = [k for k, row in enumerate(map(rows.get, keys)) if row is None]
        rows.update(zip(map(keys.__getitem__, new), itertools.count(len(rows))))
        if new:
            self._extend(windows[new], words)
        return np.fromiter(map(rows.__getitem__, keys), np.int64, len(keys))[window]

    def _extend(self, windows: np.ndarray, words: list[str]) -> None:
        """Append to the context table the read-only (len(windows), d)
        matrix of the context vectors of ``windows``, rows of ids into
        ``words``, sorted, then padded with len(words); built
        _CONTEXT_WINDOWS windows at a time.

        A chunk's sums start from zeros and add the rows of each window's
        first tokens, then of its second ones, and so on, each column one
        gather from a table of the rows of the words used: each window's sum
        has the bits of ``total += lookup(tok)`` over its sorted tokens, and
        equal multisets give bit-equal vectors. (The padding adds zeros,
        which leave a sum from zeros unchanged: such a sum is never -0.0.
        np.add.reduce and reduceat would sum a window's rows pairwise where
        numpy's loop order puts them innermost.) The norm is
        sqrt(np.vecdot(s, s)), the dot kernel of np.linalg.norm's
        ``s.dot(s)``; a norm below _ZERO_NORM gives the zero vector, any
        other divides the sum. A sum or norm that is not finite (the tokens'
        rows overflow float64) raises EmbeddingFormatError naming the
        tokens: such a context would make every similarity it enters NaN or
        0."""
        used, ids = np.unique(windows, return_inverse=True)
        ids = ids.reshape(windows.shape)
        table = np.array([self.lookup(words[k]) if k < len(words) else self._zero
                          for k in used.tolist()], dtype=np.float64)
        out = np.empty((len(windows), self.dimension), dtype=np.float64)
        for start in range(0, len(windows), _CONTEXT_WINDOWS):
            chunk = ids[start:start + _CONTEXT_WINDOWS]
            sums = np.zeros((len(chunk), self.dimension), dtype=np.float64)
            with np.errstate(over="ignore", invalid="ignore"):
                for column in chunk.T:
                    sums += table[column]
                norms = np.sqrt(np.vecdot(sums, sums))
            # a sum that is not finite has no finite norm
            bad = np.flatnonzero(~np.isfinite(norms))
            if len(bad):
                tokens = [words[k] for k in windows[start + bad[0]].tolist() if k < len(words)]
                raise EmbeddingFormatError(f"the context vector of the tokens {tokens} "
                                           f"overflows: its sum or norm is not finite")
            zero = norms < _ZERO_NORM
            block = out[start:start + len(chunk)]
            np.divide(sums, norms[:, None], out=block, where=~zero[:, None])
            block[zero] = 0.0
        out.setflags(write=False)
        self._contexts.extend(out)


# Windows per chunk of the context builder (EmbeddingStore._extend): at d = 50
# a chunk's sums take 100 KB.
_CONTEXT_WINDOWS = 256


# Lines per block of the embedding table: numpy parses a block's components in
# one call, and a block that call rejects is checked line by line.
_EMBEDDING_BLOCK = 1024

# The fewest table bytes per parse range. Measured on 2 CPUs in fresh
# processes, 10 alternating pairs per prefix of a 61 MB table, load_embeddings
# took (median seconds; pairs that two ranges won):
#   table   0.25 MB  0.5 MB  0.75 MB  1 MB   2 MB   4 MB   6.5 MB
#   one      0.004   0.007   0.014   0.016  0.034  0.048  0.085
#   two      0.007   0.009   0.011   0.013  0.022  0.037  0.052
#   won      0/10    0/10    7/10    9/10  10/10  10/10  10/10
# At 0.75 MB another 10 pairs gave two ranges 4/10. So a table splits from
# 1 MiB on, and a 0.2 MB table stays one range.
_MIN_TABLE_RANGE_BYTES = 512 << 10


class HashedPath(str):
    """A path to a file, with the sha256 of the file's bytes and the file's
    identity (see _identity) from just before they were hashed or their
    digest memo was read (see file_sha256). A caller that digests its inputs
    anyway (brex.cli, for the run's manifest) hands these to load_embeddings
    and load_corpus, which then need no second digest to find the table's
    row index or the corpus's record index, and tell by the identity (see
    unchanged) a file replaced or rewritten since it was digested."""

    def __new__(cls, path):
        self = super().__new__(cls, path)
        self.identity = _identity(path)
        self.sha256 = file_sha256(path) if self.identity else None
        return self

    def unchanged(self, file=None) -> bool:
        """Whether the file at this path, or the open file descriptor
        ``file``, still has the identity it had when it was digested."""
        return _identity(self if file is None else file) == self.identity


def _identity(path):
    """The device, inode, size, mtime and ctime (both in ns) of the file
    ``path`` (or of the open file descriptor ``path``); None when it cannot
    be read. Every write to a file and every change of its mtime moves its
    ctime, so a file rewritten in place with its size and mtime restored has
    another identity."""
    try:
        return _stat_identity(os.stat(path))
    except OSError:
        return None


def _stat_identity(st: os.stat_result) -> tuple:
    """The identity (see _identity) that the stat result ``st`` gives."""
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


# A digest memo is written only for a file whose mtime and ctime are both at
# least this much older than the clock just before the hash (git's rule for
# racily clean files): a file rewritten within one timestamp tick of the hash
# may keep its identity, and its memo would then hold the old bytes' digest.
_MEMO_MARGIN_NS = 2_000_000_000

# The format of the digest memos; a memo of another format is rewritten.
_MEMO_VERSION = 1

# A memo ends in the digest: 64 lowercase hex digits and a line end.
_MEMO_DIGEST = re.compile(rb"[0-9a-f]{64}\n")


def file_sha256(path) -> str | None:
    """The hex sha256 of the regular file ``path``; None for an unreadable
    file or anything else, such as a pipe, which its reader must read first.

    Each version of a file is hashed once: the digest is kept in a memo in
    the cache directory (see _cache_dir), ``DEVICE-INODE.sha256``, which
    holds the file's identity (see _identity), the memo format and the
    digest, and a file whose identity is the memo's is not read again. A
    memo is written only when the file kept its identity while it was
    hashed, and its mtime and ctime are older than the clock just before the
    hash by ``_MEMO_MARGIN_NS`` (2 s). A missing, unreadable, malformed or
    mismatched memo means a hash, which rewrites it; a cache directory that
    cannot be written means a hash every time."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    if not stat.S_ISREG(st.st_mode):
        return None
    identity = _stat_identity(st)
    directory = _cache_dir()
    memo = directory and os.path.join(directory, "%d-%d.sha256" % identity[:2])
    digest = memo and _memo_digest(memo, identity)
    if digest:
        return digest
    started = time.time_ns()
    try:
        with open(path, "rb") as fh:
            digest = _sha256(fh)
            hashed = _stat_identity(os.fstat(fh.fileno()))
    except OSError:
        return None
    if memo and hashed == identity and \
            max(st.st_mtime_ns, st.st_ctime_ns) < started - _MEMO_MARGIN_NS:
        line = _memo_head(identity) + digest.encode() + b"\n"
        _write_cache(memo, lambda fh: fh.write(line))
    return digest


def _sha256(fh) -> str:
    """The hex sha256 of the bytes the binary file ``fh`` has left."""
    digest = hashlib.sha256()
    for chunk in iter(lambda: fh.read(1 << 16), b""):
        digest.update(chunk)
    return digest.hexdigest()


def _memo_head(identity: tuple) -> bytes:
    """A memo's text before the digest: its format and the file's identity."""
    return " ".join(map(str, (_MEMO_VERSION, *identity))).encode() + b" "


def _memo_digest(memo: str, identity: tuple) -> str | None:
    """The digest the memo at ``memo`` holds for the file of ``identity``;
    None when the memo is missing, unreadable or malformed, or is another
    format's or another identity's."""
    try:
        with open(memo, "rb") as fh:
            text = fh.read(512)
    except OSError:
        return None
    head = _memo_head(identity)
    if text.startswith(head) and _MEMO_DIGEST.fullmatch(text, len(head)):
        return text[len(head):-1].decode()
    return None


def load_embeddings(path, vocab) -> EmbeddingStore:
    """Load a GloVe text table, keeping the words in ``vocab``; the first row
    of a word wins.

    Every row is validated, kept or not: each needs the dimension of the first
    row, and the first row of each word needs numeric, finite components; a
    bad row raises EmbeddingFormatError naming its line, and so does a byte
    that is not UTF-8. The table is read more than once, so it must be a
    regular file.

    The table is read as parts of at least ``_MIN_TABLE_RANGE_BYTES`` bytes
    (512 KiB), one per CPU, or as one part (see _parse_split): on 2 CPUs a
    table of 1 MiB or more is two parts. A word's row from the
    earliest part wins, so the rows and their bits are those of one pass;
    a later part may reject a duplicate row of a word seen in an earlier one,
    and then the one pass reads the table.

    A table is validated once: after a parse in which every row validated,
    a row index is stored in the cache directory, keyed by the table's sha256
    (that of a HashedPath, else computed here; see _index_path). It holds,
    for each row, the CRC-32 of its word and the row's byte range, sorted by
    that key (see _row_index), and no words. A later load of a table with
    that digest looks up the keys of ``vocab`` there and reads only the rows
    they name, in file order, through the same row parser (see
    _indexed_part): its work grows with the vocabulary, not with the table.
    It gives the same store. A missing, unreadable, corrupt or mismatched
    index, a row read there that is not the valid row of a word of its key,
    or a table replaced since it was digested means the parse above, which
    rewrites the index unless the table was replaced; a cache directory that
    cannot be written means a parse every time. A part of a table whose line
    ends mix "\\r\\n" with another kind has no offsets (see _parse_range), so
    such a table is parsed every time.
    """
    if not stat.S_ISREG(os.stat(path).st_mode):  # a pipe could not be read more than once
        raise EmbeddingFormatError(f"{path}: not a regular file")
    hashed = path if isinstance(path, HashedPath) else HashedPath(path)
    index = _index_path(hashed.sha256)
    try:
        dimension = _dimension(path)
        part = index and _indexed_part(hashed, index, dimension, vocab)
        parts = [part] if part else _parse_split(
            path, _MIN_TABLE_RANGE_BYTES,
            lambda start, end: _parse_range(path, start, end, dimension, vocab))
    except UnicodeDecodeError:
        raise _not_utf8(path, EmbeddingFormatError) from None
    rows = [part_rows for _, _, part_rows in parts]
    # a part without rows has no offsets (see _parse_range), and the offsets
    # of a table replaced since it was digested are not the digest's
    if index and not part and all(r is not None for r in rows) and hashed.unchanged():
        _write_index(index, _index_key(hashed.sha256, _INDEX_VERSION),
                     rows=_row_index(rows, hashed.identity[2]))
    vectors = {}
    for words, values, _ in parts:
        values.setflags(write=False)  # a part unpickled from a worker is writable
        for word, vec in zip(words, values):
            vectors.setdefault(word, vec)
    return EmbeddingStore(dimension, vectors)


# The formats of the table and of the corpus indexes; an index of another
# format is rewritten.
_INDEX_VERSION = 2
_CORPUS_INDEX_VERSION = 3


def _cache_dir() -> str | None:
    """The directory of the indexes and the digest memos:
    ``$XDG_CACHE_HOME/brex``, or ``~/.cache/brex`` when that variable is
    unset or not an absolute path; None without a home directory."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(root, "brex") if os.path.isabs(root) else None


def _index_path(digest: str | None, name: str = "") -> str | None:
    """Where the index of the file with sha256 ``digest`` lives:
    ``DIGEST.npz`` in the cache directory (see _cache_dir) for a table,
    ``DIGEST-NAME.npz`` for a corpus read under the type vocabulary that
    ``name`` stands for; None without a digest or a cache directory."""
    directory = _cache_dir()
    if digest is None or directory is None:
        return None
    return os.path.join(directory, digest + (name and "-" + name) + ".npz")


def _index_key(digest: str, version: int, *rest: str) -> str:
    """The key an index stores and is read under: the digest of its file,
    the index format ``version`` and ``rest``, what else the index depends
    on (the type vocabulary a corpus was read under)."""
    return " ".join([digest, str(version), *rest])


def _write_index(index: str, key: str, **arrays) -> None:
    """Store ``key`` and ``arrays`` as the index at ``index``, an
    uncompressed npz (see _write_cache)."""
    _write_cache(index, lambda fh: np.savez(fh, key=np.array(key), **arrays))


def _write_cache(path: str, write) -> None:
    """Make ``path`` in the cache directory the file that ``write`` writes
    to a binary file object: a temporary file in that directory, made
    private (0700) if it is new, that then replaces ``path``. A cache
    directory that cannot be written is left as it is."""
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                write(fh)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        log.debug("cache file not written: %s", exc)


def _read_index(index: str, key: str, *names: str) -> list | None:
    """The arrays ``names`` of the index at ``index``, read without
    unpickling; None when the index is missing, unreadable or corrupt, lacks
    one of them or holds another key. A zip member whose bytes changed fails
    its CRC check as it is read."""
    try:
        # np.load leaves a file it opened open when it fails on a corrupt
        # index; one opened here is closed whatever happens
        with open(index, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            if data["key"].item() != key:
                return None
            return [data[name] for name in names]
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        return None


def _word_keys(words, count: int) -> np.ndarray:
    """The row index key of each of the ``count`` ``words`` as an int64
    array: the CRC-32 of its UTF-8 bytes. A lone surrogate, which a corpus
    token may hold and no table word does, is encoded as it is
    ("surrogatepass")."""
    try:
        return np.fromiter(map(zlib.crc32, map(str.encode, words)), np.int64, count)
    except UnicodeEncodeError:
        utf8 = map(str.encode, words, itertools.repeat("utf-8"),
                   itertools.repeat("surrogatepass"))
        return np.fromiter(map(zlib.crc32, utf8), np.int64, count)


def _row_index(rows: list, size: int) -> np.ndarray:
    """The row index of a table of ``size`` bytes whose parts gave ``rows``
    (see _parse_range): for each non-blank row, the key of its word (see
    _word_keys), its byte offset and its end (the next row's offset, or
    ``size``), as a (3, rows) int64 array sorted by key, then offset."""
    offsets = np.concatenate([part_offsets for part_offsets, _ in rows])
    keys = np.concatenate([part_keys for _, part_keys in rows])
    # one sort of key * 2**32 + row is a stable sort by key
    cells = np.sort(keys.astype(np.uint64) << 32 | np.arange(len(keys), dtype=np.uint64))
    order = (cells & 0xFFFFFFFF).astype(np.intp)
    return np.stack([(cells >> 32).astype(np.int64), offsets[order],
                     np.append(offsets[1:], size)[order]])


def _indexed_part(path: HashedPath, index: str, dimension: int, vocab):
    """The part (see _parse_range) of the ``vocab`` rows of the table at
    ``path``, read in the index at ``index`` (see _row_index); None when the
    index is missing or doubtful (see _read_index), its keys are not sorted,
    a row it names does not lie in the table or is cut short, a row read is
    not a valid row of a word that hashes to its entry's key, or the table
    is not the file ``path`` digested.

    The vocabulary's keys are looked up by binary search, so the load reads
    the index's keys once and the table's rows of the vocabulary, not the
    table's words. The rows are read in file order and only those of
    ``vocab`` words are parsed, the others being words whose CRC-32 collide
    with a vocabulary word's; as in a parse, the later rows of a word are
    not parsed, so an index that holds only each word's first row gives the
    same part. The bytes from a row's offset to its end are the row and the
    blank lines after it."""
    arrays = _read_index(index, _index_key(path.sha256, _INDEX_VERSION), "rows")
    if arrays is None:
        return None
    [rows] = arrays
    if rows.dtype != np.int64 or rows.ndim != 2 or len(rows) != 3:
        return None
    keys, offsets, ends = rows
    if not (keys[1:] >= keys[:-1]).all():  # a binary search would miss keys
        return None
    wanted = np.sort(_word_keys(vocab, len(vocab)))  # equal keys side by side
    lo, hi = np.searchsorted(keys, wanted, "left"), np.searchsorted(keys, wanted, "right")
    count = hi - lo
    count[1:][hi[1:] == hi[:-1]] = 0  # words of one key share its entries
    at = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
    at = at[np.argsort(offsets[at])]
    starts, stops = offsets[at], ends[at]
    if not ((starts >= 0) & (starts < stops) & (stops <= path.identity[2])).all():
        return None
    try:
        with open(path, "rb", buffering=0) as fh:
            data = b"".join([os.pread(fh.fileno(), stop - start, start)
                             for start, stop in zip(starts.tolist(), stops.tolist())])
            if not path.unchanged(fh.fileno()):
                return None
        # lines as _open_text reads them
        lines = [line for line in io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
                 if not line.isspace()]
    except UnicodeDecodeError:
        return None
    words = [line.split(None, 1)[0] for line in lines]
    if len(words) != len(at) or (_word_keys(words, len(words)) != keys[at]).any():
        return None
    # a row cut short has no line end; an earlier one runs into the next row
    if lines and not lines[-1].endswith("\n") and stops[-1] < path.identity[2]:
        return None
    # the other words only share a key with a vocabulary word
    lines = [line for line, word in zip(lines, words) if word in vocab]
    vectors: dict[str, np.ndarray] = {}
    seen: set[str] = set()  # as in a parse, a word's later rows are not parsed
    try:
        for k in range(0, len(lines), _EMBEDDING_BLOCK):
            _parse_lines(path, lines[k:k + _EMBEDDING_BLOCK], 1, dimension, seen, vocab,
                         vectors)
    except EmbeddingFormatError:
        return None
    return *_packed(vectors, dimension), None


def _dimension(path) -> int:
    """The component count of the table's first non-blank row."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if len(parts) == 1:
                raise EmbeddingFormatError(
                    f"{path}: line {lineno}: entry has no vector components")
            if parts:
                return len(parts) - 1
    raise EmbeddingFormatError(f"{path}: no embedding entries found")


def _range_count(size: int, floor: int) -> int:
    """How many ranges a file of ``size`` bytes is parsed in: one per CPU
    this process may run on, at most one per ``floor`` bytes."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux: one range
        cpus = 1
    return max(1, min(cpus, size // floor))


def _cuts(fh, size: int, count: int) -> list[int]:
    """The offsets 0, ..., ``size`` cutting the binary file ``fh`` into
    ``count`` ranges of about equal size, each starting at a line start (just
    after a newline byte); a range is empty when a long line spans its share."""
    cuts = [0]
    for k in range(1, count):
        fh.seek(k * size // count - 1)
        fh.readline()
        cuts.append(fh.tell())
    return cuts + [size]


class _ByteRange(io.RawIOBase):
    """Bytes [start, end) of the file at ``path``."""

    def __init__(self, path, start: int, end: int):
        self._raw = open(path, "rb", buffering=0)
        self._raw.seek(start)
        self._left = end - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._raw.readinto(memoryview(buffer)[:self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._raw.close()
        super().close()


def _open_text(path, start: int, end: int | None):
    """Bytes [start, end) of the file at ``path``, a range that starts at a
    line start, as UTF-8 text with universal newlines; the whole file, which
    may be a pipe, when ``end`` is None."""
    if end is None:
        return open(path, encoding="utf-8")
    return io.TextIOWrapper(io.BufferedReader(_ByteRange(path, start, end)),
                            encoding="utf-8")


def _parse_range(path, start: int, end: int | None, dimension: int, vocab):
    """The words of ``vocab`` in bytes [start, end) of the table (see
    _open_text) and their first rows as one read-only (words, dimension)
    array, which pickles several times faster than one array per word, plus
    the rows for the index (see _row_index): the byte offset of each of the
    range's non-blank lines in the file and the key of its word (see
    _word_keys). The range is validated as if it were the whole table (its
    first line is line 1), read as text in blocks of ``_EMBEDDING_BLOCK``
    lines.

    A line read ends in "\\n" where the range has "\\n", "\\r" or "\\r\\n", so
    a line's byte length is its length as UTF-8, plus one if the range's line
    ends are all "\\r\\n". A range whose line ends mix "\\r\\n" with another
    kind gives no rows (None), since the lines read do not show which of
    them ended in two bytes."""
    vectors: dict[str, np.ndarray] = {}
    seen: set[str] = set()  # every word so far; later rows of a word are not parsed
    row_words: list[str] = []
    starts = []  # of each line, counting each line end as one byte
    blank: list[int] = []  # the lines of the range that hold no row
    offset = start
    with _open_text(path, start, end) as fh:
        lineno = 1
        while lines := list(itertools.islice(fh, _EMBEDDING_BLOCK)):
            words = _parse_lines(path, lines, lineno, dimension, seen, vocab, vectors)
            sizes = (np.fromiter(map(len, lines), np.int64, len(lines))
                     if all(map(str.isascii, lines))
                     else np.array([len(line.encode("utf-8")) for line in lines], np.int64))
            ends = offset + np.cumsum(sizes)
            starts.append(ends - sizes)
            offset = int(ends[-1])
            if len(words) < len(lines):
                blank += [lineno - 1 + i for i, line in enumerate(lines) if line.isspace()]
            row_words += words
            lineno += len(lines)
        line_ends = fh.newlines
    if isinstance(line_ends, tuple) and "\r\n" in line_ends:
        return *_packed(vectors, dimension), None
    offsets = np.concatenate(starts or [np.zeros(0, np.int64)])
    if line_ends == "\r\n":  # each line end before a line is two bytes, read as one
        offsets += np.arange(len(offsets))
    rows = np.delete(offsets, blank), _word_keys(row_words, len(row_words))
    return *_packed(vectors, dimension), rows


def _packed(vectors: dict, dimension: int):
    """The words of ``vectors`` and their rows as one read-only array."""
    values = np.array(list(vectors.values()), dtype=np.float64)
    values = values.reshape(len(vectors), dimension)
    values.setflags(write=False)
    return list(vectors), values


def _parse_split(path, floor: int, parse) -> list:
    """The parts of the file ``path`` in file order, each what ``parse(start,
    end)`` gives of bytes [start, end) (see _open_text) as if they were the
    whole file: one part per range of _cuts, at most one range per ``floor``
    bytes (see _range_count). A file of one range, or one that is not regular
    (a pipe), is one part, ``parse(0, None)``, whose error is raised as is.
    Of several ranges, the first is parsed here and each other one at the
    same time in a forked worker that sends its part back pickled through a
    pipe; when a range raises, a worker fails or no worker can be started,
    the file is read again as one part, which raises the error of its first
    bad line.

    fork is safe here although the parent may hold BLAS threads: a worker runs
    only Python, json decoding, numpy's text parse and elementwise checks (no
    BLAS, no lock another thread may hold, no logging), and it leaves through
    os._exit, 0 only on success, which skips atexit handlers and the flush of
    stdio buffers copied from the parent.
    """
    count = 1
    if os.path.isfile(path):
        size = os.stat(path).st_size
        count = _range_count(size, floor)
    if count == 1:
        return [parse(0, None)]
    with open(path, "rb") as fh:
        cuts = _cuts(fh, size, count)
    parts = []
    workers: list[tuple[int, io.BufferedReader]] = []  # not yet reaped
    try:
        for start, end in zip(cuts[1:-1], cuts[2:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # at a process limit
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                code = 1
                try:
                    payload = pickle.dumps(parse(start, end))
                    with open(write_fd, "wb") as pipe:
                        pipe.write(payload)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            workers.append((pid, open(read_fd, "rb")))
        else:
            try:
                parts.append(parse(0, cuts[1]))
            except (InputError, UnicodeDecodeError):  # the one pass below raises it
                pass
            while parts and workers:  # parts is empty when the first range raised
                pid, pipe = workers[0]
                with pipe:
                    payload = pipe.read()
                status = os.waitpid(pid, 0)[1]
                workers.pop(0)
                if status != 0:
                    break
                parts.append(pickle.loads(payload))
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if len(parts) == count:
        return parts
    return [parse(0, None)]


def _parse_block(lines, dimension):
    """The words and the (rows, dimension) values of a block's non-blank lines,
    parsed in one numpy call; None when the block has no such line, a row has
    another component count, or numpy rejects or overflows a component.

    numpy accepts a subset of what ``float`` accepts (not ``1_0`` or non-ASCII
    digits) and gives the same bits for it, so a None only means the block
    needs the per-line check.
    """
    parts = [p for p in (line.split(None, 1) for line in lines) if p]
    if not parts:
        return None
    try:
        values = np.loadtxt([p[1] for p in parts], dtype=np.float64, comments=None,
                            ndmin=2)
    except (IndexError, ValueError):
        return None
    if (values.shape != (len(parts), dimension)
            or not np.isfinite(values).all()):
        return None
    return [p[0] for p in parts], values


def _parse_lines(path, lines, lineno: int, dimension: int, seen: set, vocab,
                 vectors: dict) -> list[str]:
    """Validate a block of table lines starting at line ``lineno``, as
    _parse_block or else _check_lines does, storing in ``vectors`` the first
    row of each word of ``vocab`` not in ``seen``, and adding its words to
    ``seen``; return the words of its non-blank lines."""
    parsed = _parse_block(lines, dimension)
    if parsed is None:
        _check_lines(path, lines, lineno, dimension, seen, vocab, vectors)
        return [line.split(None, 1)[0] for line in lines if not line.isspace()]
    words, values = parsed
    rows: dict[str, int] = {}
    for i, word in enumerate(words):
        if word in vocab and word not in vectors:
            rows.setdefault(word, i)
    vectors.update(zip(rows, values[list(rows.values())]))
    seen.update(words)
    return words


def _check_lines(path, lines, lineno, dimension, seen, vocab, vectors):
    """The per-line check of a block starting at ``lineno``: raise the error of
    its first bad line, else store its kept rows as ``float`` parses them."""
    for lineno, line in enumerate(lines, start=lineno):
        parts = line.split()
        if not parts:
            continue
        word, values = parts[0], parts[1:]
        if len(values) != dimension:
            raise EmbeddingFormatError(
                f"{path}: line {lineno}: expected {dimension} components, "
                f"found {len(values)}"
            )
        if word in seen:
            continue  # keep first occurrence
        seen.add(word)
        try:
            floats = [float(x) for x in values]
        except ValueError as exc:
            raise EmbeddingFormatError(
                f"{path}: line {lineno}: non-numeric component ({exc})"
            ) from None
        if not all(map(math.isfinite, floats)):
            raise EmbeddingFormatError(
                f"{path}: line {lineno}: non-finite component (nan or inf)")
        if word in vocab:
            vectors[word] = floats


def text_lines(path, error: type[InputError]):
    """(line number, line) of the UTF-8 text file ``path``; a byte that is not
    UTF-8 raises ``error`` naming its line."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError:
            raise _not_utf8(path, error) from None


def json_object(path, error: type[InputError]) -> dict:
    """The JSON object in the UTF-8 file ``path``; a byte that is not UTF-8,
    text that is not JSON or a value that is no object raises ``error``."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise _not_utf8(path, error) from None
    return _as_object(text, error, path)


def json_lines(path, error: type[InputError], start: int = 0, end: int | None = None):
    """(line number, object) of each non-blank line of the JSON-lines file
    ``path``, or of its bytes [start, end) (see _open_text) counted from line
    1, raising ``error`` as json_object does, with the line; the generator
    returns the count of text lines, blank ones included. A line is blank when
    every character is whitespace, as str.isspace has it. It reads the file
    itself and makes one call per line, _as_object: load_corpus spends most
    of its time in this loop, where another generator layer or call per line
    shows."""
    lineno = 0
    with _open_text(path, start, end) as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.isspace():  # a line read is never empty
                    yield lineno, _as_object(line, error, path, lineno)
        except UnicodeDecodeError:
            raise _not_utf8(path, error) from None
    return lineno


_DECODER = json.JSONDecoder()
_JSON_SPACE = " \t\n\r"


def _as_object(text: str, error: type[InputError], path, lineno=None) -> dict:
    """The JSON object ``text``, as json.loads reads it; text that is not JSON
    or a value that is no object raises ``error`` naming ``path`` and, when
    given, the line ``lineno``.

    The decoder's raw_decode at index 0 reads most objects at once: when it
    gives a dict followed by JSON whitespace only, json.loads gives that
    dict, since it is raw_decode at the first character that is not JSON
    whitespace, a check that the rest is JSON whitespace, and a check for a
    leading BOM that a value read at index 0 cannot have. Any other text is
    read by json.loads, for its value or its error. Text nested too deeply
    for the decoder (RecursionError), or an integer with more digits than
    int converts (sys.get_int_max_str_digits), is invalid JSON too."""
    try:
        try:
            value, end = _DECODER.raw_decode(text)
            if type(value) is dict and not text[end:].strip(_JSON_SPACE):
                return value
        except ValueError:
            pass
        value = json.loads(text)
        if isinstance(value, dict):
            return value
        problem = "expected a JSON object"
    except json.JSONDecodeError as exc:
        problem = f"invalid JSON ({exc.msg})"
    except RecursionError:
        problem = "invalid JSON (nested too deeply)"
    except ValueError as exc:  # int's digit limit, without its advice to callers
        problem = f"invalid JSON ({str(exc).split(';')[0]})"
    where = f"{path}: line {lineno}" if lineno else path
    raise error(f"{where}: {problem}")


def _not_utf8(path, error: type[InputError]) -> InputError:
    """``error`` naming ``path`` and the line of its first byte that is not
    UTF-8, counting lines as text-mode reading does: a line ends at LF, CR LF
    or a lone CR."""
    lineno = 1
    with open(path, "rb") as fh:
        for raw in fh:  # binary lines end at b"\n" only
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                lineno += raw.count(b"\r", 0, exc.start)
                return error(f"{path}: line {lineno}: not UTF-8 "
                             f"(byte 0x{raw[exc.start]:02x}: {exc.reason})")
            lineno += 1 + raw.count(b"\r") - raw.endswith(b"\r\n")
    return error(f"{path}: not UTF-8")


def _is_int(value) -> bool:
    # JSON true/false load as bool, which is an int subclass
    return isinstance(value, int) and not isinstance(value, bool)


def json_value(value, kind, name: str):
    """``value``, read from JSON, as ``kind``: ``str``, ``bool``, ``int``,
    ``float`` (a finite number, returned as a float), ``[kind]`` for a list of
    that kind, or a tuple of kinds for a list of exactly that many values,
    returned as a tuple. A JSON true or false is a bool and no number. Any
    other value raises TypeError naming ``name`` and the kind (see json_kind)
    and showing the value (see json_text); in a list of the right shape, the
    first bad item is named by its index (``positive_pairs[0][1]``).
    """
    try:
        if isinstance(kind, list) and isinstance(value, list):
            return [json_value(item, kind[0], f"{name}[{i}]") for i, item in enumerate(value)]
        if isinstance(kind, tuple) and isinstance(value, list) and len(value) == len(kind):
            return tuple(json_value(item, part, f"{name}[{i}]")
                         for i, (item, part) in enumerate(zip(value, kind)))
        if kind is float and (_is_int(value) or isinstance(value, float)):
            number = float(value)  # an integer beyond the float range overflows
            if math.isfinite(number):
                return number
        elif (_is_int(value) if kind is int
              else kind in (str, bool) and isinstance(value, kind)):
            return value
    except OverflowError:
        pass
    raise TypeError(f"{name}: expected {json_kind(kind)}, got {json_text(value)}")


def json_text(value, limit: int = 80) -> str:
    """``repr(value)`` for an error line, cut to ``limit`` characters."""
    text = repr(value)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def json_kind(kind) -> str:
    """How an error names a json_value kind: ``[str, ...]`` for a list of
    strings, ``[str, str]`` for a pair of them."""
    if isinstance(kind, list):
        return f"[{json_kind(kind[0])}, ...]"
    if isinstance(kind, tuple):
        return f"[{', '.join(map(json_kind, kind))}]"
    return "finite float" if kind is float else kind.__name__


def _strings(items: list) -> bool:
    """Whether every item of ``items`` is a str; str.join checks each one in
    C, about twice as fast per corpus record as a generator of isinstance."""
    try:
        "".join(items)
    except TypeError:
        return False
    return True


def _record_problem(record: dict) -> str | None:
    """What keeps a corpus record, as JSON decodes it, from the format's
    fields and field types, or None. Decoded JSON holds no subclass of dict,
    int or str, and a JSON true or false is a bool, so an entity's fields are
    checked by their exact type, which is cheaper than isinstance."""
    if "tokens" not in record or "entities" not in record:
        return "record must be an object with 'tokens' and 'entities'"
    tokens = record["tokens"]
    if not isinstance(tokens, list) or not _strings(tokens):
        return "'tokens' must be a list of strings"
    entities = record["entities"]
    if not isinstance(entities, list):
        return "'entities' must be a list"
    for ent in entities:
        if (
            type(ent) is not dict
            or type(ent.get("start")) is not int
            or type(ent.get("end")) is not int
            or type(ent.get("type")) is not str
        ):
            return "each entity needs integer 'start'/'end' and string 'type'"
    pos = record.get("pos")
    if pos is not None:
        if not isinstance(pos, list) or not _strings(pos):
            return "'pos' must be a list of strings"
        if len(pos) != len(tokens):
            return f"'pos' length {len(pos)} != token count {len(tokens)}"
    return None


# The fewest corpus bytes per parse range. Measured on 2 CPUs in fresh
# processes, alternating pairs, load_corpus took (median seconds; pairs that
# two ranges won) on prefixes of a sparse corpus, where 1% of the records
# are kept as sentences (the ingest-heavy benchmark's):
#   sparse   1 MiB  1.5 MiB  2 MiB  3 MiB  4 MiB  6 MiB  7.5 MiB
#   one      0.031  0.038    0.035  0.054  0.127  0.159  0.230
#   two      0.022  0.029    0.023  0.041  0.075  0.111  0.134
#   won      13/16  12/16    16/16  14/16  16/16  16/16  16/16
# (each size at its own time; compare within a column). On a dense corpus,
# where 79% are (scale-brej's, repeated), two ranges took 0.21 s against
# 0.19 s for one at 4.3 MiB and 0.46 s against 0.47 s at 8.6 MiB (medians
# of 10 pairs, cold; two ranges won 5 and 6), neither clearly faster. The
# floor stays, so that a corpus splits from 4 MiB on.
_MIN_CORPUS_RANGE_BYTES = 2 << 20


@dataclass
class _CorpusPart:
    """What bytes of the corpus give, with sids and line numbers counted from
    their first record and their first line. The parse gives the kept
    sentences as flat lists (see SentenceColumns.build): each one's sid,
    token count, span count and tagged flag, and all their tokens, spans
    (start, end and type id, one after another) and tags, in sentence order;
    ``columns`` holds them as SentenceColumns once the parts are merged, or
    as an index holds them."""

    sids: list[int] = field(default_factory=list)
    tokens: list[str] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    spans: list[int] = field(default_factory=list)
    span_counts: list[int] = field(default_factory=list)
    tagged: list[bool] = field(default_factory=list)
    tags: list[str] = field(default_factory=list)
    accepted: int = 0
    dropped: int = 0
    rejected: list[tuple[int, str]] = field(default_factory=list)  # (line, why)
    lines: int = 0  # text lines, blank ones included
    columns: SentenceColumns | None = None


def load_corpus(path, type_vocab: set[str]) -> LoadedCorpus:
    """Parse a line-delimited corpus file in file order.

    Malformed records raise CorpusFormatError naming the line; records whose
    entity spans are invalid or overlap are skipped, counted and logged with
    the file and the line. Entities with a type outside ``type_vocab`` are
    dropped and counted. Each accepted record gets the next sid, but only
    those with at least two entities left can yield an instance, so only they
    are kept as sentences, given as SentenceColumns.

    The corpus is read as parts of at least ``_MIN_CORPUS_RANGE_BYTES`` bytes,
    one per CPU, or as one part (see _parse_split); each part counts its sids
    and lines from its start, and the parts are merged in file order, so the
    sentences, counts and warnings are those of one pass.

    A corpus is validated once per type vocabulary: after a parse that raised
    no error, its columns, the counts and the line and reason of each
    rejected record are stored in an index in the cache directory (see
    _corpus_arrays), keyed by the corpus's sha256 (that of a HashedPath, else
    computed here) and the sorted ``type_vocab`` (see _index_path). A later
    load with that key takes the columns from the index, after checks on
    whole arrays, logs the stored warnings and never opens the corpus, so it
    gives what the parse gave. A missing, corrupt or mismatched index,
    columns that no parse gives (see _indexed_corpus), or a corpus replaced
    since it was digested means the parse, which rewrites the index unless
    the corpus was replaced. A pipe has no digest, and a corpus whose kept
    tokens or tags hold a NUL no index; each is parsed every time.
    """
    hashed = path if isinstance(path, HashedPath) else HashedPath(path)
    types = sorted(type_vocab)
    tag = json.dumps(types)
    index = _index_path(hashed.sha256, hashlib.sha256(tag.encode()).hexdigest()[:16])
    key = index and _index_key(hashed.sha256, _CORPUS_INDEX_VERSION, tag)
    corpus = index and _indexed_corpus(hashed, index, key, types)
    if not corpus:
        try:
            corpus = _merged(_parse_split(
                path, _MIN_CORPUS_RANGE_BYTES,
                lambda start, end: _parse_corpus(path, types, start, end)))
        except CorpusFormatError as exc:
            _log_rejected(path, exc.part.rejected)  # those before the bad record
            raise
        corpus.columns = SentenceColumns.build(
            corpus.sids, corpus.tokens, corpus.sizes, corpus.spans, corpus.span_counts,
            corpus.tagged, corpus.tags, types)
        arrays = index and hashed.unchanged() and _corpus_arrays(corpus)
        if arrays:
            _write_index(index, key, **arrays)
    _log_rejected(path, corpus.rejected)
    if corpus.dropped:
        log.warning("dropped %d entities with types outside %s", corpus.dropped, types)
    return LoadedCorpus(corpus.columns, accepted_records=corpus.accepted,
                        dropped_entities=corpus.dropped,
                        rejected_records=len(corpus.rejected))


def _merged(parts: list[_CorpusPart]) -> _CorpusPart:
    """The parts of consecutive bytes of the corpus as one part, with sids
    and line numbers counted from the first part's start."""
    whole = parts[0]
    for part in parts[1:]:
        whole.sids += [whole.accepted + sid for sid in part.sids]
        for name in ("tokens", "sizes", "spans", "span_counts", "tagged", "tags"):
            getattr(whole, name).extend(getattr(part, name))
        whole.rejected += [(whole.lines + n, why) for n, why in part.rejected]
        whole.accepted += part.accepted
        whole.dropped += part.dropped
        whole.lines += part.lines
    return whole


def _log_rejected(path, rejected: list[tuple[int, str]]) -> None:
    """Log each rejected record, given as (line, why), at its line."""
    for lineno, why in rejected:
        log.warning("%s: line %d: %s, record rejected", path, lineno, why)


def _corpus_arrays(corpus: _CorpusPart) -> dict | None:
    """The arrays of a corpus's index (see _write_index): the counts, the
    rejected records and the columns (see SentenceColumns) as int32, the
    distinct tokens (``words``) and the tags each as one UTF-8 blob
    ("surrogatepass") with a NUL between each two. None, so that no index is
    written, when a token or a tag holds a NUL or a count is past int32:
    every value is at most the line count or the token count."""
    columns = corpus.columns
    if max(corpus.lines, len(columns.token_ids)) >= 1 << 31:
        return None
    words = _joined(columns.words, len(columns.words))
    tags = _joined(columns.tags, len(columns.tags))
    if words is None or tags is None:
        return None
    return {"counts": np.array([corpus.accepted, corpus.dropped, corpus.lines], np.int64),
            "rejected_lines": np.array([n for n, _ in corpus.rejected], np.int32),
            "reasons": np.frombuffer("\n".join(why for _, why in corpus.rejected).encode(),
                                     np.uint8),
            "sids": columns.sids.astype(np.int32),
            "token_starts": columns.token_starts.astype(np.int32),
            "span_starts": columns.span_starts.astype(np.int32), "spans": columns.spans,
            "tagged": columns.tagged, "token_ids": columns.token_ids, "words": words,
            "tags": tags}


def _joined(strings, count: int) -> np.ndarray | None:
    """The ``count`` ``strings`` as one UTF-8 blob ("surrogatepass") with a
    NUL between each two, or None when one of them holds a NUL (see
    _split)."""
    blob = np.frombuffer("\0".join(strings).encode("utf-8", "surrogatepass"), np.uint8)
    # no other character's UTF-8 holds a 0 byte
    return blob if np.count_nonzero(blob == 0) == max(count - 1, 0) else None


def _split(blob: np.ndarray, count: int) -> list[str] | None:
    """The ``count`` strings of a blob that _joined wrote, or None when the
    blob is not UTF-8 or holds another number of strings."""
    if blob.dtype != np.uint8 or blob.ndim != 1:
        return None
    try:
        text = blob.tobytes().decode("utf-8", "surrogatepass")
    except UnicodeDecodeError:
        return None
    strings = text.split("\0") if count or text else []
    return strings if len(strings) == count else None


def _starts(counts) -> np.ndarray:
    """The offsets 0, c0, c0 + c1, ... of runs of ``counts`` items."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def _offsets(values: np.ndarray, count: int, end: int | None = None) -> bool:
    """Whether ``values`` are ``count`` + 1 int32 offsets that rise from 0,
    none below the one before, to ``end`` (to any end when None)."""
    return (values.dtype == np.int32 and values.shape == (count + 1,) and values[0] == 0
            and (end is None or values[-1] == end) and not (values[1:] < values[:-1]).any())


def _ascending(values: np.ndarray, low: int, high: int) -> bool:
    """Whether ``values`` are int32s rising strictly from ``low`` on, below
    ``high``."""
    return values.dtype == np.int32 and values.ndim == 1 and (
        not values.size or (values[0] >= low and values[-1] < high
                            and (np.diff(values) > 0).all()))


def _indexed_corpus(path: HashedPath, index: str, key: str,
                    types: list[str]) -> _CorpusPart | None:
    """What the corpus at ``path`` gives (see load_corpus) under the sorted
    type vocabulary ``types``, read from the index at ``index`` (see
    _corpus_arrays) alone: its counts, rejected records and columns. None
    when the index is missing or doubtful (see _read_index), the corpus is
    not the file ``path`` digested, or the columns are not ones a parse
    writes: each sentence needs two spans or more, sorted without overlap,
    each non-empty and inside it, and a tagged one a tag per token; each
    token id names a word, the words rise strictly and each is some token's."""
    arrays = _read_index(index, key, "counts", "rejected_lines", "reasons", "sids",
                         "token_starts", "span_starts", "spans", "tagged", "token_ids",
                         "words", "tags")
    if arrays is None or not path.unchanged():
        return None
    (counts, rejected, reasons, sids, token_starts, span_starts, spans, tagged, token_ids,
     words, tags) = arrays
    try:
        reasons = reasons.tobytes().decode("utf-8").split("\n") if reasons.size else []
    except UnicodeDecodeError:
        return None
    if counts.dtype != np.int64 or counts.shape != (3,) or (counts < 0).any():
        return None
    accepted, dropped, lines = counts.tolist()
    n = sids.size  # sentences
    if not (_ascending(sids, 0, accepted) and _ascending(rejected, 1, lines + 1)
            and len(reasons) == len(rejected) and _offsets(token_starts, n)
            and spans.dtype == np.int32 and spans.ndim == 2 and spans.shape[1] == 3
            and _offsets(span_starts, n, len(spans)) and tagged.dtype == bool
            and tagged.shape == (n,) and token_ids.dtype == np.int32
            and token_ids.shape == (token_starts[-1],) and words.dtype == np.uint8):
        return None
    sizes, span_counts = np.diff(token_starts), np.diff(span_starts)
    owner = np.repeat(np.arange(n), span_counts)  # each span's sentence
    starts, ends, type_ids = spans.T
    if not ((span_counts >= 2).all() and (starts >= 0).all()
            and (starts < ends).all() and (ends <= sizes[owner]).all()
            and ((starts[1:] >= ends[:-1]) | (owner[1:] != owner[:-1])).all()
            and not ((type_ids < 0) | (type_ids >= len(types))).any()):
        return None
    # a parse writes the words of the tokens, so some when there are tokens
    words = _split(words, token_ids.size and np.count_nonzero(words == 0) + 1)
    tags = _split(tags, int(np.dot(sizes, tagged)))
    if (words is None or tags is None or not all(map(operator.lt, words, words[1:]))
            or ((token_ids < 0) | (token_ids >= len(words))).any()
            or not np.bincount(token_ids, minlength=len(words)).all()):
        return None
    return _CorpusPart(accepted=accepted, dropped=dropped,
                       rejected=list(zip(rejected.tolist(), reasons)), lines=lines,
                       columns=SentenceColumns(sids, token_ids, words, token_starts, spans,
                                               span_starts, tagged, tags, types))


def _parse_corpus(path, types: list[str], start: int, end: int | None) -> _CorpusPart:
    """What bytes [start, end) of the corpus give (see _open_text) as if they
    were the whole file, under the sorted type vocabulary ``types``. A
    malformed record raises CorpusFormatError naming its line, whose ``part``
    holds what the records before it gave.

    Spans are checked and types counted on the decoded values; the tokens,
    tags and spans join the columns only for a record left with two entities
    or more, which are few in a large corpus."""
    part = _CorpusPart()
    type_ids = {etype: k for k, etype in enumerate(types)}
    accepted = 0
    dropped = 0
    records = json_lines(path, CorpusFormatError, start, end)
    try:
        while True:
            lineno, record = next(records)
            problem = _record_problem(record)
            if problem:
                raise CorpusFormatError(f"{path}: line {lineno}: {problem}")
            entities = record["entities"]
            if entities:
                tokens = record["tokens"]
                problem = _span_problem(entities, len(tokens))
                if problem:
                    part.rejected.append((lineno, problem))
                    continue
                kept = [ent for ent in entities if ent["type"] in type_ids]
                dropped += len(entities) - len(kept)
                if len(kept) >= 2:
                    pos = record.get("pos")
                    part.sids.append(accepted)
                    part.tokens += tokens
                    part.sizes.append(len(tokens))
                    part.spans += itertools.chain.from_iterable(sorted(
                        [(ent["start"], ent["end"], type_ids[ent["type"]]) for ent in kept]))
                    part.span_counts.append(len(kept))
                    part.tagged.append(pos is not None)
                    if pos is not None:
                        part.tags += pos
            accepted += 1
    except StopIteration as stop:
        part.lines = stop.value
    except CorpusFormatError as exc:
        exc.part = part
        raise
    part.accepted = accepted
    part.dropped = dropped
    return part


def _span_problem(entities: list, count: int) -> str | None:
    """Why the spans of a record's ``entities``, checked by _record_problem,
    over ``count`` tokens reject the record, or None: the first span in
    record order that is empty or out of bounds, else any two spans that
    overlap. Many records have one entity, which overlaps nothing, so the
    spans are sorted only when there are more."""
    for ent in entities:
        start, end = ent["start"], ent["end"]
        if not 0 <= start < end <= count:
            return f"bad entity span ({start}, {end})"
    if len(entities) > 1:
        spans = sorted([(ent["start"], ent["end"]) for ent in entities])
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            if start < prev_end:
                return "overlapping entity spans"
    return None


def extract_instances(
    sentences,
    emb: EmbeddingStore,
    limits: tuple[int, int, int],
    type_pair: tuple[str, str],
) -> ExtractionResult:
    """The InstanceTable of one instance per in-sentence entity pair whose
    type pair, in its final orientation, is ``type_pair``, in sentence
    order, then span order, of ``sentences``: SentenceColumns, or
    TaggedSentences, which SentenceColumns.of turns into columns. No
    Instance is built here (see InstanceTable).

    ``limits`` is (max_before, max_between, max_after). Pairs of the type pair
    separated by more than max_between tokens are skipped and counted; the
    before/after windows are truncated to their limits. Empty windows yield
    zero vectors.

    Each pair takes its final orientation here, once: _passive decides
    which entity is e1, as reorder_passive does, and the type gate, the pair
    and the template's type pair follow it. So under ``("PER", "ORG")`` the
    passive "Bolt was founded by Maria" is kept as (Maria, Bolt), and under
    ``("ORG", "PER")`` the passive "Bolt was hired by Maria" is dropped. The
    windows and the instance id stay in sentence order. The result counts
    the instances kept after a passive swap and the pairs the type gate
    dropped.

    The pass runs over the columns' arrays. The span pairs of each sentence
    are enumerated at once, and the gate and the between limit are masks.
    Each window is its token ids sorted and padded with an id past every
    word's, and the store gives the distinct ones their rows of its context
    table in the order first seen, the order of a pass window by window
    (see EmbeddingStore.window_rows); equal token multisets share a row.
    Entity keys get their ids in the order first seen over the spans of the
    sentences with a row.

    The entity spans of each sentence must not overlap, and sids must be
    unique, as load_corpus ensures: then no instance id repeats. Spans that
    touch form a pair with an empty between window.
    """
    columns = (sentences if isinstance(sentences, SentenceColumns)
               else SentenceColumns.of(sentences))
    spans, starts, token_ids, words = (columns.spans, columns.token_starts,
                                       columns.token_ids, columns.words)
    # no window is longer than the corpus, and no limit sum overflows int64
    max_before, max_between, max_after = (min(limit, len(token_ids)) for limit in limits)
    # every pair of spans of a sentence: span a, and each later span b of its sentence
    span_counts = np.diff(columns.span_starts)
    owner = np.repeat(np.arange(len(columns)), span_counts)  # each span's sentence
    later = np.repeat(columns.span_starts[1:], span_counts) - np.arange(len(spans)) - 1
    a = np.repeat(np.arange(len(spans)), later)
    b = _ranges(np.arange(1, len(spans) + 1), later)
    sent = owner[a]
    (a_start, a_end, a_type), (b_start, b_end, b_type) = (spans[x].astype(np.int64).T
                                                          for x in (a, b))
    swapped = _passive_pairs(columns, sent, a_end, b_start)
    first, second = (columns.types.index(t) if t in columns.types else -1 for t in type_pair)
    gate = ((np.where(swapped, b_type, a_type) == first)
            & (np.where(swapped, a_type, b_type) == second))
    over = b_start - a_end > max_between
    keep = np.flatnonzero(gate & ~over)
    a, b, sent, swapped = a[keep], b[keep], sent[keep], swapped[keep]
    a_start, a_end, b_start, b_end = a_start[keep], a_end[keep], b_start[keep], b_end[keep]
    # each kept pair's windows (before, between, after), from token lo to hi
    lo = starts[sent, None] + np.stack([np.maximum(a_start - max_before, 0), a_end, b_end], 1)
    hi = starts[sent, None] + np.stack([a_start, b_start, b_end + max_after], 1)
    hi[:, 2] = np.minimum(hi[:, 2], starts[sent + 1])
    pad = len(words)
    windows = emb.window_rows(
        np.sort(_padded(token_ids, lo.ravel(), (hi - lo).ravel(), pad), axis=1), words)
    # the spans of the sentences with a row, and the id of each one's entity key
    kept = sent[np.flatnonzero(np.diff(sent, prepend=-1))]  # sent does not fall
    on = _ranges(columns.span_starts[kept], span_counts[kept])
    sizes = spans[on, 1] - spans[on, 0]
    entities, keys = _entity_keys(_padded(token_ids, starts[owner[on]] + spans[on, 0], sizes, pad),
                                  sizes, spans[on, 2], words, columns.types)
    at = np.empty(len(spans), np.intp)
    at[on] = np.arange(len(on))
    entity_a, entity_b = (keys[at[x]] for x in (a, b))
    entity_ids = np.stack([np.where(swapped, entity_b, entity_a),
                           np.where(swapped, entity_a, entity_b)], 1).astype(np.int32)
    table = InstanceTable(
        list(emb.context_rows()), windows.astype(np.int32).reshape(-1, 3),
        [type_pair] if len(keep) else [], np.zeros(len(keep), dtype=np.int32), entities,
        entity_ids, _SentenceView(columns, kept),
        np.stack([np.searchsorted(kept, sent), a_start, a_end, b_start, b_end, swapped],
                 1).astype(np.int64))
    skipped = int(np.count_nonzero(gate & over))
    if skipped:
        log.info("skipped %d entity pairs over the between-window limit", skipped)
    return ExtractionResult(table=table, skipped_over_limit=skipped,
                            swapped_as_passive=int(np.count_nonzero(swapped)),
                            dropped_by_type_gate=int(np.count_nonzero(~gate)))


def _entity_keys(surfaces: np.ndarray, sizes: np.ndarray, type_ids: np.ndarray,
                 words: list[str], types: list[str]) -> tuple[dict[tuple[str, str], int],
                                                              np.ndarray]:
    """The ids of the entity keys (TypedEntity.key) of spans whose tokens
    are the first ``sizes`` ids into ``words`` of the rows of ``surfaces``
    and whose types are the ``type_ids`` into ``types``: each distinct
    key's id, in the order first seen, and each span's. A surface is
    lowercased word by word, which is how str.lower treats the whole: no
    character it maps by its context (a final sigma) sees past the space
    between two words."""
    used, ids = np.unique(surfaces, return_inverse=True)
    ids = ids.reshape(surfaces.shape)
    lowered = np.array([words[k].lower() for k in used[used < len(words)].tolist()] + [None],
                       dtype=object)  # the padding's is None
    text = lowered[ids[:, 0]]
    for column in range(1, ids.shape[1]):
        more = np.flatnonzero(sizes > column)
        text[more] = text[more] + " " + lowered[ids[more, column]]
    keys = list(zip(text.tolist(), map(types.__getitem__, type_ids.tolist())))
    entities = dict(zip(dict.fromkeys(keys), itertools.count()))
    return entities, np.fromiter(map(entities.__getitem__, keys), np.int64, len(keys))


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[k], ..., starts[k] + counts[k] - 1, one after
    another."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _padded(ids: np.ndarray, starts: np.ndarray, sizes: np.ndarray, pad: int) -> np.ndarray:
    """The int32 matrix whose row r holds ids[starts[r]:starts[r] + sizes[r]]
    and then ``pad``, as wide as the longest row (one column at least)."""
    out = np.full((len(starts), max(1, int(sizes.max(initial=0)))), pad, np.int32)
    for at in range(out.shape[1]):
        rows = np.flatnonzero(sizes > at)
        out[rows, at] = ids[starts[rows] + at]
    return out


def _first_seen(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct row of the matrix ``rows``, in the
    order first seen, and each row's position among them: one np.unique
    over the rows' bytes."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def _passive_pairs(columns: SentenceColumns, sent: np.ndarray, a_end: np.ndarray,
                   b_start: np.ndarray) -> np.ndarray:
    """Whether the tokens a_end[k]:b_start[k] of sentence sent[k] are a
    passive construction (see _passive), for each k. Only those of a tagged
    sentence, more than two, the last lowercasing to "by", can be: they go
    through _passive, and the rule has that one implementation."""
    swapped = np.zeros(len(sent), bool)
    maybe = np.flatnonzero(columns.tagged[sent] & (b_start - a_end > 2))
    starts = columns.token_starts[sent[maybe]]
    final, which = np.unique(columns.token_ids[starts + b_start[maybe] - 1],
                             return_inverse=True)
    by = np.array([columns.words[k].lower() == "by" for k in final.tolist()], bool)[which]
    maybe, starts = maybe[by], starts[by]
    words, tags = columns.words, columns.tags
    for pair, start, tag, first, last in zip(
            maybe.tolist(), starts.tolist(), columns.tag_starts[sent[maybe]].tolist(),
            a_end[maybe].tolist(), b_start[maybe].tolist()):
        between = list(map(words.__getitem__, columns.token_ids[start + first:start + last]
                           .tolist()))
        swapped[pair] = _passive(between, tags[tag + first + 1:tag + last])
    return swapped


_TO_BE = {"be", "am", "is", "are", "was", "were", "been", "being"}
_PAST_TAGS = {"VBD", "VBN"}  # Penn Treebank past tense / past participle


def reorder_passive(ea: EntitySpan, eb: EntitySpan,
                    sent: TaggedSentence) -> tuple[EntitySpan, EntitySpan]:
    """The spans ``ea`` and ``eb`` of ``sent``, in sentence order, as (e1, e2):
    swapped when the tokens between them are a passive construction (see
    _passive). Without POS tags the heuristic is disabled and the spans keep
    their order.
    """
    if sent.pos and _passive(sent.tokens[ea.end:eb.start], sent.pos[ea.end + 1:eb.start]):
        return eb, ea
    return ea, eb


def _passive(between, tags) -> bool:
    """Whether the tokens ``between`` two entities are a passive
    construction: some form of "to be" directly followed by a verb tagged
    past tense or past participle, with the final between token being "by".
    ``tags`` holds the tag of the token after each between token but the
    last ("by", whose next token is the second entity's)."""
    return len(between) > 2 and between[-1].lower() == "by" and any(
        tok.lower() in _TO_BE and tag in _PAST_TAGS for tok, tag in zip(between, tags))


def parse_seed_templates(raw, emb: EmbeddingStore,
                         type_pair: tuple[str, str]) -> list[Template]:
    """Turn "[X] acquire [Y]"-style strings, as parse_seed_file checked them,
    into context-vector templates."""
    rows = []
    for text in raw:
        tokens = text.split()
        ix, iy = tokens.index("[X]"), tokens.index("[Y]")
        rows.append([emb.context_row(window)
                     for window in (tokens[:ix], tokens[ix + 1:iy], tokens[iy + 1:])])
    contexts = emb.context_rows()
    return [Template(v_before=contexts[b], v_between=contexts[w], v_after=contexts[a],
                     type_pair=type_pair) for b, w, a in rows]


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

    ``relation`` and ``type_pair`` are required; an absent list is empty.
    Each value is read with json_value: the relation is a string, the type
    pair and each seed pair a list of two strings, each template a string.
    A value of another type, a missing key, a template without exactly one
    [X] before exactly one [Y], or a positive template whose whitespace tokens
    are those of a negative one raises SeedFormatError naming the file.
    """
    data = json_object(path, SeedFormatError)
    try:
        spec = SeedFileSpec(
            relation=json_value(data["relation"], str, "relation"),
            type_pair=json_value(data["type_pair"], (str, str), "type_pair"),
            **{key: json_value(data.get(key, []), [(str, str)], key)
               for key in ("positive_pairs", "negative_pairs")},
            **{key: json_value(data.get(key, []), [str], key)
               for key in ("positive_templates", "negative_templates")})
    except KeyError as exc:
        raise SeedFormatError(f"{path}: missing required key {exc}") from None
    except TypeError as exc:
        raise SeedFormatError(f"{path}: {exc}") from None
    for key in ("positive_templates", "negative_templates"):
        for text in getattr(spec, key):
            tokens = text.split()
            where = f"{path}: '{key}' entry {text!r}"
            if tokens.count("[X]") != 1 or tokens.count("[Y]") != 1:
                raise SeedFormatError(f"{where}: needs exactly one [X] and one [Y]")
            if tokens.index("[X]") > tokens.index("[Y]"):
                raise SeedFormatError(f"{where}: [X] must precede [Y]")
    negatives = {tuple(text.split()) for text in spec.negative_templates}
    for text in spec.positive_templates:
        if tuple(text.split()) in negatives:
            raise SeedFormatError(f"{path}: 'positive_templates' entry {text!r}: appears in "
                                  "both positive and negative templates")
    return spec
