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
vocabulary the same way: its index holds the sentences a parse kept, as
columns, the counts and the rejected records, and a later load builds the
sentences from them and never opens the corpus (see load_corpus). Both
indexes go through one path rule, writer and reader (_index_path,
_write_index, _read_index), and both are read only while the file is the
one the digest was taken of (HashedPath.unchanged). Each file is hashed
once per version: file_sha256 keeps a digest memo in that directory, one
small file per inode, and a later call on a file whose device, inode, size,
mtime and ctime are the memo's reads the digest there instead of the file.

Every produced context vector is either the zero vector (empty window, or all
tokens out of vocabulary) or unit-normalized, so downstream dot products are
bounded cosines. The EmbeddingStore keeps one table of distinct contexts, a
row per sorted token multiset: extract_instances and parse_seed_templates
give each window its row (context_row), then build the new rows in one
batch, as one read-only matrix (a corpus's contexts are one matrix), and
every window of a multiset shares its row's array. Window sums run over
tokens in sorted order, which makes the vectors bit-identical for any two
windows with the same token multiset. A window whose sum or norm overflows
float64 raises EmbeddingFormatError naming its tokens (exit 2), where it
would otherwise give a NaN or zero vector and silently zero similarities.

extract_instances gives its instances as an InstanceTable, columns made in
the pass that gives each window its context row: each row's three context
rows, type-pair id, entity-key ids, sentence and spans. It builds no
Instance: a row's Instance is built when a caller first reads it
(``table[row]``) and kept, so a run builds those of its extractors' members
and accepted rows only. InstanceTable.from_instances gives the table of a
list of instances, for tests and API callers.
"""

from __future__ import annotations

import contextlib
import functools
import gc
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
    """One corpus record that can yield an instance. Sentences and spans are
    plain tuples: load_corpus makes one per kept record, and
    extract_instances unpacks them."""

    sid: int
    tokens: tuple[str, ...]
    entities: tuple[EntitySpan, ...]
    pos: tuple[str, ...] | None = None


@dataclass
class LoadedCorpus:
    sentences: list[TaggedSentence]  # the accepted records that can yield an instance
    accepted_records: int = 0  # every record not rejected; sids count these
    dropped_entities: int = 0  # entity type outside the configured vocabulary
    rejected_records: int = 0  # bad or overlapping spans


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
      read that have a row, and ``spans``, each row's sentence (its index there), its two
      entity spans in sentence order (start, end, start, end) and whether the
      pair was swapped as passive (1) or not (0), as an (N, 6) int64 array.

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
        sent = self.sentences[index]
        tokens = sent.tokens
        surfaces = " ".join(tokens[a_start:a_end]), " ".join(tokens[b_start:b_end])
        first, second = surfaces[::-1] if swapped else surfaces
        t1, t2 = self.type_pairs[self.type_ids[row]]
        pair = EntityPair(TypedEntity(first, t1), TypedEntity(second, t2))
        before, between, after = (self.contexts[k] for k in self.ids[row].tolist())
        return Instance(id=f"s{sent.sid}:{a_start}.{a_end}-{b_start}.{b_end}", pair=pair,
                        template=Template(v_before=before, v_between=between,
                                          v_after=after, type_pair=pair.types),
                        sentence_ref=sent.sid, tokens_between=tuple(tokens[a_end:b_start]))

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
    token multiset has one row (context_row), and context_rows builds the
    rows added since its last call as one read-only matrix. Every window of
    a multiset shares that row's array, a C-contiguous view of its matrix.
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
        after building those added since the last call (see _build)."""
        if self._pending:
            self._contexts.extend(self._build(self._pending))
            self._pending = []
        return self._contexts

    def _build(self, keys: list[tuple[str, ...]]) -> np.ndarray:
        """The read-only (len(keys), d) matrix of the context vectors of the
        sorted token multisets ``keys``, built _CONTEXT_WINDOWS windows at a
        time.

        A chunk's sums start from zeros and add the rows of each window's
        first tokens, then of its second ones, and so on: each window's sum
        has the bits of ``total += lookup(tok)`` over its sorted tokens, and
        equal multisets give bit-equal vectors. (A window that has run out
        of tokens adds zeros, which leave a sum from zeros unchanged: such a
        sum is never -0.0. np.add.reduce and reduceat would sum a window's
        rows pairwise where numpy's loop order puts them innermost.) The
        norm is sqrt(np.vecdot(s, s)), the dot kernel of np.linalg.norm's
        ``s.dot(s)``; a norm below _ZERO_NORM gives the zero vector, any
        other divides the sum. A sum or norm that is not finite (the tokens'
        rows overflow float64) raises EmbeddingFormatError naming the
        tokens: such a context would make every similarity it enters NaN or
        0."""
        out = np.empty((len(keys), self.dimension), dtype=np.float64)
        for start in range(0, len(keys), _CONTEXT_WINDOWS):
            chunk = keys[start:start + _CONTEXT_WINDOWS]
            sums = np.zeros((len(chunk), self.dimension), dtype=np.float64)
            with np.errstate(over="ignore", invalid="ignore"):
                for at in range(max(map(len, chunk))):
                    sums += np.array([self.lookup(key[at]) if at < len(key) else self._zero
                                      for key in chunk], dtype=np.float64)
                norms = np.sqrt(np.vecdot(sums, sums))
            # a sum that is not finite has no finite norm
            bad = np.flatnonzero(~np.isfinite(norms))
            if len(bad):
                raise EmbeddingFormatError(
                    f"the context vector of the tokens {list(chunk[bad[0]])} "
                    f"overflows: its sum or norm is not finite")
            zero = norms < _ZERO_NORM
            block = out[start:start + len(chunk)]
            np.divide(sums, norms[:, None], out=block, where=~zero[:, None])
            block[zero] = 0.0
        out.setflags(write=False)
        return out


# Windows per chunk of the context builder (EmbeddingStore._build): at d = 50
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
    their first record and their first line. The kept sentences are columns
    (see _sentences): each one's sid, tokens, POS tags (None when it has
    none) and span count, then all their spans (start, end and type id, one
    after another), in sentence order."""

    sids: list[int] = field(default_factory=list)
    tokens: list[tuple[str, ...]] = field(default_factory=list)
    tags: list[tuple[str, ...] | None] = field(default_factory=list)
    span_counts: list[int] = field(default_factory=list)
    spans: list[int] = field(default_factory=list)
    accepted: int = 0
    dropped: int = 0
    rejected: list[tuple[int, str]] = field(default_factory=list)  # (line, why)
    lines: int = 0  # text lines, blank ones included


def load_corpus(path, type_vocab: set[str]) -> LoadedCorpus:
    """Parse a line-delimited corpus file in file order.

    Malformed records raise CorpusFormatError naming the line; records whose
    entity spans are invalid or overlap are skipped, counted and logged with
    the file and the line. Entities with a type outside ``type_vocab`` are
    dropped and counted. Each accepted record gets the next sid, but only
    those with at least two entities left can yield an instance, so only they
    are kept as sentences.

    The corpus is read as parts of at least ``_MIN_CORPUS_RANGE_BYTES`` bytes,
    one per CPU, or as one part (see _parse_split); each part counts its sids
    and lines from its start, and the parts are merged in file order, so the
    sentences, counts and warnings are those of one pass.

    A corpus is validated once per type vocabulary: after a parse that raised
    no error, its sentences as columns, the counts and the line and reason of
    each rejected record are stored in an index in the cache directory (see
    _corpus_arrays), keyed by the corpus's sha256 (that of a HashedPath, else
    computed here) and the sorted ``type_vocab`` (see _index_path). A later
    load with that key builds the sentences from the columns, after checks
    on whole arrays, logs the stored warnings and never opens the corpus, so
    it gives what the parse gave. A missing, corrupt or mismatched index,
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
    with _gc_paused():
        corpus = index and _indexed_corpus(hashed, index, key, len(types))
        if not corpus:
            try:
                corpus = _merged(_parse_split(
                    path, _MIN_CORPUS_RANGE_BYTES,
                    lambda start, end: _parse_corpus(path, types, start, end)))
            except CorpusFormatError as exc:
                _log_rejected(path, exc.part.rejected)  # those before the bad record
                raise
            arrays = index and hashed.unchanged() and _corpus_arrays(corpus)
            if arrays:
                _write_index(index, key, **arrays)
        sentences = _sentences(corpus, types)
    _log_rejected(path, corpus.rejected)
    if corpus.dropped:
        log.warning("dropped %d entities with types outside %s", corpus.dropped, types)
    return LoadedCorpus(sentences=sentences, accepted_records=corpus.accepted,
                        dropped_entities=corpus.dropped,
                        rejected_records=len(corpus.rejected))


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector in the block, whose tuples (none in
    a cycle) set it off again and again: building 30,320 sentences with it
    on took twice as long. The pause moves a collection later, but does not
    avoid it: the first one after the block goes over all that it built."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _merged(parts: list[_CorpusPart]) -> _CorpusPart:
    """The parts of consecutive bytes of the corpus as one part, with sids
    and line numbers counted from the first part's start."""
    whole = parts[0]
    for part in parts[1:]:
        whole.sids += [whole.accepted + sid for sid in part.sids]
        for name in ("tokens", "tags", "span_counts", "spans"):
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
    rejected records and the sentences' columns (see _CorpusPart) as int32,
    with offsets for counts and the spans as (start, end, type id) rows, and
    the tokens and the tags each as one UTF-8 blob ("surrogatepass") with a
    NUL between each two. None, so that no index is written, when a token or
    a tag holds a NUL or a count is past int32: every value is at most the
    line count or the token count."""
    sizes = np.fromiter(map(len, corpus.tokens), np.int64, len(corpus.tokens))
    tagged = np.fromiter(map(operator.is_not, corpus.tags, itertools.repeat(None)), bool,
                         len(corpus.tags))
    if max(corpus.lines, sizes.sum()) >= 1 << 31:
        return None
    tokens = _joined(itertools.chain.from_iterable(corpus.tokens), int(sizes.sum()))
    tags = _joined(itertools.chain.from_iterable(filter(None, corpus.tags)),
                   int(sizes[tagged].sum()))
    if tokens is None or tags is None:
        return None
    return {"counts": np.array([corpus.accepted, corpus.dropped, corpus.lines], np.int64),
            "rejected_lines": np.array([n for n, _ in corpus.rejected], np.int32),
            "reasons": np.frombuffer("\n".join(why for _, why in corpus.rejected).encode(),
                                     np.uint8),
            "sids": np.array(corpus.sids, np.int32),
            "token_starts": _starts(sizes), "span_starts": _starts(corpus.span_counts),
            "spans": np.array(corpus.spans, np.int32).reshape(-1, 3),
            "tagged": tagged, "tokens": tokens, "tags": tags}


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
    """The offsets 0, c0, c0 + c1, ... of runs of ``counts`` items, as int32."""
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)


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
                    type_count: int) -> _CorpusPart | None:
    """What the corpus at ``path`` gives (see load_corpus), read from the
    index at ``index`` (see _corpus_arrays) alone, under a vocabulary of
    ``type_count`` types. None when the index is missing or doubtful (see
    _read_index), the corpus is not the file ``path`` digested, or the
    columns are not ones a parse writes: each sentence needs two spans or
    more, sorted without overlap, each non-empty and inside it, and a tagged
    one a tag per token."""
    arrays = _read_index(index, key, "counts", "rejected_lines", "reasons", "sids",
                         "token_starts", "span_starts", "spans", "tagged", "tokens", "tags")
    if arrays is None or not path.unchanged():
        return None
    (counts, rejected, reasons, sids, token_starts, span_starts, spans, tagged, tokens,
     tags) = arrays
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
            and tagged.shape == (n,)):
        return None
    sizes, span_counts = np.diff(token_starts), np.diff(span_starts)
    owner = np.repeat(np.arange(n), span_counts)  # each span's sentence
    starts, ends, type_ids = spans.T
    if not ((span_counts >= 2).all() and (starts >= 0).all()
            and (starts < ends).all() and (ends <= sizes[owner]).all()
            and ((starts[1:] >= ends[:-1]) | (owner[1:] != owner[:-1])).all()
            and not ((type_ids < 0) | (type_ids >= type_count)).any()):
        return None
    tag_starts = _starts(sizes * tagged)
    tokens, tags = _split(tokens, int(token_starts[-1])), _split(tags, int(tag_starts[-1]))
    if tokens is None or tags is None:
        return None
    tokens, tags, t, p = tuple(tokens), tuple(tags), token_starts.tolist(), tag_starts.tolist()
    return _CorpusPart(sids.tolist(), list(map(tokens.__getitem__, map(slice, t, t[1:]))),
                       [tags[a:b] if is_tagged else None
                        for a, b, is_tagged in zip(p, p[1:], tagged.tolist())],
                       span_counts.tolist(), spans.ravel().tolist(), accepted, dropped,
                       list(zip(rejected.tolist(), reasons)), lines)


def _sentences(corpus: _CorpusPart, types: list[str]) -> list[TaggedSentence]:
    """The sentences of the columns of ``corpus`` (see _CorpusPart), whose
    type ids are places in ``types``."""
    spans = corpus.spans
    entities = tuple(map(_new_span, zip(spans[::3], spans[1::3],
                                        map(types.__getitem__, spans[2::3]))))
    s = list(itertools.accumulate(corpus.span_counts, initial=0))
    return list(map(_new_sentence, zip(corpus.sids, corpus.tokens,
                                       map(entities.__getitem__, map(slice, s, s[1:])),
                                       corpus.tags)))


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
                    part.tokens.append(tuple(tokens))
                    part.tags.append(None if pos is None else tuple(pos))
                    part.span_counts.append(len(kept))
                    part.spans += itertools.chain.from_iterable(sorted(
                        [(ent["start"], ent["end"], type_ids[ent["type"]]) for ent in kept]))
            accepted += 1
    except StopIteration as stop:
        part.lines = stop.value
    except CorpusFormatError as exc:
        exc.part = part
        raise
    part.accepted = accepted
    part.dropped = dropped
    return part


# _sentences' makers: tuple.__new__ runs in C, where a named tuple's own
# __new__ is a Python function; on scale-brej's 1,516 kept records that saves
# ~1 ms of a warm load
_new_span = functools.partial(tuple.__new__, EntitySpan)
_new_sentence = functools.partial(tuple.__new__, TaggedSentence)


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
    order, then span order. Its rows are made in the pass that gives each
    window its row of the store's context table, and no Instance is built
    here (see InstanceTable).

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

    The entity spans of each sentence must not overlap, and sids must be
    unique, as load_corpus ensures: then no instance id repeats. Spans that
    touch form a pair with an empty between window.
    """
    max_before, max_between, max_after = limits
    context_row = emb.context_row
    # the sentences with a pair (kept), and per pair, flat in one list: its
    # sentence's index in kept, its spans in sentence order, whether it was
    # swapped, the ids of its entities' keys (in the order first seen) and
    # its windows' rows of the context table, whose rows are built in one
    # batch once every window has its row
    columns: list[int] = []
    entities: dict[tuple[str, str], int] = {}
    skipped = dropped = 0
    kept = []
    for sent in sentences:
        _, tokens, spans, pos = sent
        spans = sorted(spans)
        keys = None
        for a_idx, (a_start, a_end, a_type) in enumerate(spans):
            for b_idx in range(a_idx + 1, len(spans)):
                b_start, b_end, b_type = spans[b_idx]
                between = tokens[a_end:b_start]
                swapped = pos is not None and _passive(between, pos[a_end + 1:b_start])
                if ((b_type, a_type) if swapped else (a_type, b_type)) != type_pair:
                    dropped += 1
                    continue
                if len(between) > max_between:
                    skipped += 1
                    continue
                if keys is None:
                    kept.append(sent)
                    keys = [entities.setdefault((" ".join(tokens[start:end]).lower(), etype),
                                                len(entities))
                            for start, end, etype in spans]
                first, second = (b_idx, a_idx) if swapped else (a_idx, b_idx)
                columns += (len(kept) - 1, a_start, a_end, b_start, b_end, swapped,
                            keys[first], keys[second],
                            context_row(tokens[max(0, a_start - max_before):a_start]),
                            context_row(between),
                            context_row(tokens[b_end:b_end + max_after]))
    columns = np.array(columns, dtype=np.int64).reshape(-1, 11)
    table = InstanceTable(list(emb.context_rows()), columns[:, 8:].astype(np.int32),
                          [type_pair] if len(columns) else [],
                          np.zeros(len(columns), dtype=np.int32), entities,
                          columns[:, 6:8].astype(np.int32), kept, columns[:, :6])
    if skipped:
        log.info("skipped %d entity pairs over the between-window limit", skipped)
    return ExtractionResult(table=table, skipped_over_limit=skipped,
                            swapped_as_passive=int(columns[:, 5].sum()),
                            dropped_by_type_gate=dropped)


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
