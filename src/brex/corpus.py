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

A table is validated in full once: its parse writes a row index (the words
of its rows and the byte offset of each) in the user's cache directory,
keyed by the table's sha256, and a later load of a table with that digest
reads only the rows of its vocabulary there (see load_embeddings). The index
holds no vectors, and the store it gives is the one a parse gives. A corpus
is validated once per type vocabulary the same way: its index holds the line
and the sid of each sentence, the counts and the rejected records, and a
later load decodes only the lines of the sentences (see load_corpus). Both
indexes go through one path rule, writer and reader (_index_path,
_write_index, _read_index), and both are read only while the file is the
one the digest was taken of (HashedPath.unchanged).

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
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import json
import logging
import math
import os
import pickle
import signal
import stat
import tempfile
import zipfile
from dataclasses import dataclass, field

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
    sentences: list[TaggedSentence]  # the accepted records that can yield an instance
    accepted_records: int = 0  # every record not rejected; sids count these
    dropped_entities: int = 0  # entity type outside the configured vocabulary
    rejected_records: int = 0  # bad or overlapping spans


@dataclass
class ExtractionResult:
    instances: list[Instance]
    skipped_over_limit: int = 0


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
    identity (see _identity) from just before they were read. A caller that
    digests its inputs anyway (brex.cli, for the run's manifest) hands these
    to load_embeddings and load_corpus, which then need no second read to
    find the table's row index or the corpus's record index, and tell by the
    identity (see unchanged) a file replaced since it was digested."""

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
    """The inode, size and mtime of the file ``path`` (or of the open file
    descriptor ``path``); None when it cannot be read."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns


def file_sha256(path) -> str | None:
    """The hex sha256 of the regular file ``path``; None for an unreadable
    file or anything else, such as a pipe, which its reader must read first."""
    if not os.path.isfile(path):
        return None
    try:
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                digest.update(chunk)
        return digest.hexdigest()
    except OSError:
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
    the word and the byte offset of each row are stored in a row index in the
    cache directory, keyed by the table's sha256 (that of a HashedPath, else
    computed here; see _index_path). A later load of a table with that digest
    reads only the rows of ``vocab`` at their offsets, in file order, through
    the same row parser, and gives the same store. A missing, unreadable,
    corrupt or mismatched index, a row read there that is not its word's
    valid row, or a table replaced since it was digested means the parse
    above, which rewrites the index unless the table was replaced; a cache
    directory that cannot be written means a parse every time. A part of a
    table whose line ends mix "\\r\\n" with another kind has no offsets (see
    _parse_range), so such a table is parsed every time.
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
        _write_index(index, _index_key(hashed.sha256),
                     words=np.frombuffer(b"\n".join(w for w, _ in rows if w), dtype=np.uint8),
                     offsets=np.concatenate([offsets for _, offsets in rows]))
    vectors = {}
    for words, values, _ in parts:
        values.setflags(write=False)  # a part unpickled from a worker is writable
        for word, vec in zip(words, values):
            vectors.setdefault(word, vec)
    return EmbeddingStore(dimension, vectors)


# The format of the indexes; an index of another version is rewritten.
_INDEX_VERSION = 1


def _index_path(digest: str | None, name: str = "") -> str | None:
    """Where the index of the file with sha256 ``digest`` lives:
    ``$XDG_CACHE_HOME/brex/DIGEST.npz`` for a table, ``DIGEST-NAME.npz`` for
    a corpus read under the type vocabulary that ``name`` stands for, or
    under ``~/.cache`` when that variable is unset or not an absolute path;
    None without a digest or a home directory."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    if digest is None or not os.path.isabs(root):
        return None
    return os.path.join(root, "brex", digest + (name and "-" + name) + ".npz")


def _index_key(digest: str, *rest: str) -> str:
    """The key an index stores and is read under: the digest of its file,
    the index format and ``rest``, what else the index depends on (the type
    vocabulary a corpus was read under)."""
    return " ".join([digest, str(_INDEX_VERSION), *rest])


def _write_index(index: str, key: str, **arrays) -> None:
    """Store ``key`` and ``arrays`` as the index at ``index``: an uncompressed
    npz written to a temporary file in the cache directory, made private
    (0700) if it is new, that then replaces ``index``. A cache directory that
    cannot be written is left as it is."""
    directory = os.path.dirname(index)
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, key=np.array(key), **arrays)
            os.replace(tmp, index)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        log.debug("index not written: %s", exc)


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


def _indexed_part(path: HashedPath, index: str, dimension: int, vocab):
    """The part (see _parse_range) of the ``vocab`` rows of the table at
    ``path``, read at their offsets in the index at ``index``: the words of
    the table's rows and the byte offset of each (see _write_index); None
    when the index is missing or doubtful (see _read_index), a row read is
    not the valid first row of the word the index names, or the table is not
    the file ``path`` digested.

    A row's bytes run from its offset to the next row's, or to the end of the
    table, and end at its first line end; the rest are blank lines."""
    arrays = _read_index(index, _index_key(path.sha256), "words", "offsets")
    if arrays is None:
        return None
    words, offsets = arrays
    try:
        words = words.tobytes().decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return None
    if offsets.dtype != np.int64 or offsets.shape != (len(words),) or offsets[0] < 0:
        return None
    ends = np.append(offsets[1:], path.identity[1])
    if not (offsets < ends).all():
        return None
    first: dict[str, int] = {}
    for i in itertools.compress(range(len(words)), map(vocab.__contains__, words)):
        first.setdefault(words[i], i)
    vectors: dict[str, np.ndarray] = {}
    try:
        with open(path, "rb") as fh:
            lines = []
            for i in first.values():
                fh.seek(offsets[i])
                line = fh.read(ends[i] - offsets[i]).splitlines(keepends=True)[0]
                lines.append(line.decode("utf-8"))
            if not path.unchanged(fh.fileno()):
                return None
        seen: set[str] = set()
        for k in range(0, len(lines), _EMBEDDING_BLOCK):
            _parse_lines(path, lines[k:k + _EMBEDDING_BLOCK], 1, dimension, seen, vocab,
                         vectors)
    except (EmbeddingFormatError, UnicodeDecodeError):
        return None
    if list(vectors) != list(first):
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
    the rows for the index (see _write_index): the words of the range's
    non-blank lines as UTF-8 bytes joined by newlines, and the byte offset of
    each in the file. The range is validated as if it were the whole table
    (its first line is line 1), read as text in blocks of ``_EMBEDDING_BLOCK``
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
    rows = "\n".join(row_words).encode("utf-8"), np.delete(offsets, blank)
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
# and on a dense corpus, where 79% are (scale-brej's, repeated):
#   dense    1.3 MiB  2.2 MiB  3.9 MiB  8.6 MiB
#   one      0.062    0.118    0.234    0.636
#   two      0.079    0.163    0.271    0.750
#   won      1/10     1/10     2/10     1/10
# (Each size was measured at its own time; compare within a column.) A
# worker pickles its kept sentences back, so a sparse corpus gains from
# the split at every size and a dense one loses at every size. The floor
# does not tell them apart; it stays, so that a corpus splits from 4 MiB on.
_MIN_CORPUS_RANGE_BYTES = 2 << 20


@dataclass
class _CorpusPart:
    """What bytes of the corpus give, with sids and line numbers counted from
    their first record and their first line."""

    sentences: list[TaggedSentence] = field(default_factory=list)
    sentence_lines: list[int] = field(default_factory=list)  # the line of each sentence
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
    no error, the line and the sid of each sentence, the counts and the line
    and reason of each rejected record are stored in an index in the cache
    directory, keyed by the corpus's sha256 (that of a HashedPath, else
    computed here) and the sorted ``type_vocab`` (see _index_path). A later
    load with that key reads the corpus's text lines, sends only the lines of
    the sentences through the record checks, and logs the stored warnings,
    so it gives what the parse gave. A missing, corrupt or mismatched index,
    an indexed line that no longer gives its sentence, or a corpus replaced
    since it was digested means the parse, which rewrites the index unless
    the corpus was replaced. A pipe has no digest and is parsed every time.
    """
    hashed = path if isinstance(path, HashedPath) else HashedPath(path)
    types = json.dumps(sorted(type_vocab))
    index = _index_path(hashed.sha256, hashlib.sha256(types.encode()).hexdigest()[:16])
    key = index and _index_key(hashed.sha256, types)
    corpus = index and _indexed_corpus(hashed, index, key, type_vocab)
    if not corpus:
        try:
            corpus = _merged(_parse_split(
                path, _MIN_CORPUS_RANGE_BYTES,
                lambda start, end: _parse_corpus(path, type_vocab, start, end)))
        except CorpusFormatError as exc:
            _log_rejected(path, exc.part.rejected)  # those before the bad record
            raise
        if index and hashed.unchanged():
            _write_index(index, key, **_corpus_arrays(corpus))
    _log_rejected(path, corpus.rejected)
    if corpus.dropped:
        log.warning("dropped %d entities with types outside %s", corpus.dropped,
                    sorted(type_vocab))
    return LoadedCorpus(sentences=corpus.sentences, accepted_records=corpus.accepted,
                        dropped_entities=corpus.dropped,
                        rejected_records=len(corpus.rejected))


def _merged(parts: list[_CorpusPart]) -> _CorpusPart:
    """The parts of consecutive bytes of the corpus as one part, with sids
    and line numbers counted from the first part's start."""
    whole = parts[0]
    for part in parts[1:]:
        whole.sentences += [dataclasses.replace(sent, sid=whole.accepted + sent.sid)
                            for sent in part.sentences]
        whole.sentence_lines += [whole.lines + n for n in part.sentence_lines]
        whole.rejected += [(whole.lines + n, why) for n, why in part.rejected]
        whole.accepted += part.accepted
        whole.dropped += part.dropped
        whole.lines += part.lines
    return whole


def _log_rejected(path, rejected: list[tuple[int, str]]) -> None:
    """Log each rejected record, given as (line, why), at its line."""
    for lineno, why in rejected:
        log.warning("%s: line %d: %s, record rejected", path, lineno, why)


def _corpus_arrays(corpus: _CorpusPart) -> dict:
    """The arrays of a corpus's index (see _write_index): the line and the
    sid of each sentence, the accepted and dropped counts and the text-line
    count, and the line and the reason of each rejected record."""
    return {"sentence_lines": np.array(corpus.sentence_lines, np.int64),
            "sids": np.array([sent.sid for sent in corpus.sentences], np.int64),
            "counts": np.array([corpus.accepted, corpus.dropped, corpus.lines], np.int64),
            "rejected_lines": np.array([n for n, _ in corpus.rejected], np.int64),
            "reasons": np.frombuffer("\n".join(why for _, why in corpus.rejected).encode(),
                                     np.uint8)}


def _ascending(values: np.ndarray, low: int, high: int) -> bool:
    """Whether ``values`` are int64s rising strictly from ``low`` on, below
    ``high``."""
    return values.dtype == np.int64 and values.ndim == 1 and (
        not values.size or (values[0] >= low and values[-1] < high
                            and (np.diff(values) > 0).all()))


def _indexed_corpus(path: HashedPath, index: str, key: str, type_vocab) -> _CorpusPart | None:
    """What the corpus at ``path`` gives (see load_corpus), read with the
    index at ``index`` (see _corpus_arrays): its text lines are read as
    json_lines reads them, and only the line of each sentence is decoded and
    checked as _parse_corpus checks it. None when the index is missing or
    doubtful (see _read_index), such a line does not give a sentence, the
    line count differs, or the corpus is not the file ``path`` digested."""
    arrays = _read_index(index, key, "sentence_lines", "sids", "counts", "rejected_lines",
                         "reasons")
    if arrays is None:
        return None
    lines, sids, counts, rejected, reasons = arrays
    try:
        reasons = reasons.tobytes().decode("utf-8").split("\n") if reasons.size else []
    except UnicodeDecodeError:
        return None
    if counts.dtype != np.int64 or counts.shape != (3,) or (counts < 0).any():
        return None
    corpus = _CorpusPart(accepted=int(counts[0]), dropped=int(counts[1]),
                         lines=int(counts[2]))
    if not (_ascending(lines, 1, corpus.lines + 1) and _ascending(sids, 0, corpus.accepted)
            and _ascending(rejected, 1, corpus.lines + 1)
            and len(sids) == len(lines) and len(reasons) == len(rejected)):
        return None
    corpus.rejected = list(zip(rejected.tolist(), reasons))
    corpus.sentence_lines = lines.tolist()
    lineno = 0
    try:
        with _open_text(path, 0, None) as fh:
            for target, sid in zip(corpus.sentence_lines, sids.tolist()):
                # the lines before it are read in C, and not decoded as JSON
                line = next(itertools.islice(fh, target - lineno - 1, None), "")
                lineno = target
                record = _as_object(line, CorpusFormatError, path, lineno)
                if _record_problem(record) or _span_problem(record["entities"],
                                                            len(record["tokens"])):
                    return None
                kept = [ent for ent in record["entities"] if ent["type"] in type_vocab]
                if len(kept) < 2:
                    return None
                corpus.sentences.append(_sentence(record, kept, sid))
            lineno += sum(1 for _ in fh)
            if not path.unchanged(fh.fileno()):
                return None
    except (CorpusFormatError, UnicodeDecodeError):
        return None
    return corpus if lineno == corpus.lines else None


def _parse_corpus(path, type_vocab: set[str], start: int, end: int | None) -> _CorpusPart:
    """What bytes [start, end) of the corpus give (see _open_text), as if they
    were the whole file. A malformed record raises CorpusFormatError naming
    its line, whose ``part`` holds what the records before it gave.

    Spans are checked and types counted on the decoded values; the tokens,
    tags and spans are copied into a TaggedSentence only for a record left
    with two entities or more, which are few in a large corpus."""
    part = _CorpusPart()
    sentences = part.sentences
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
                problem = _span_problem(entities, len(record["tokens"]))
                if problem:
                    part.rejected.append((lineno, problem))
                    continue
                kept = [ent for ent in entities if ent["type"] in type_vocab]
                dropped += len(entities) - len(kept)
                if len(kept) >= 2:
                    sentences.append(_sentence(record, kept, accepted))
                    part.sentence_lines.append(lineno)
            accepted += 1
    except StopIteration as stop:
        part.lines = stop.value
    except CorpusFormatError as exc:
        exc.part = part
        raise
    part.accepted = accepted
    part.dropped = dropped
    return part


def _sentence(record: dict, kept: list, sid: int) -> TaggedSentence:
    """The sentence ``sid`` of a record that passed _record_problem and
    _span_problem, with the entities ``kept`` in span order."""
    spans = sorted((ent["start"], ent["end"], ent["type"]) for ent in kept)
    pos = record.get("pos")
    return TaggedSentence(sid=sid, tokens=tuple(record["tokens"]),
                          entities=tuple(EntitySpan(*span) for span in spans),
                          pos=None if pos is None else tuple(pos))


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
    """Build one instance per in-sentence entity pair whose type pair, in its
    final orientation, is ``type_pair``.

    ``limits`` is (max_before, max_between, max_after). Pairs of the type pair
    separated by more than max_between tokens are skipped and counted; the
    before/after windows are truncated to their limits. Empty windows yield
    zero vectors.

    Each pair takes its final orientation here, once: reorder_passive decides
    which entity is e1, and the type gate, the pair and the template's type
    pair follow it. So under ``("PER", "ORG")`` the passive "Bolt was founded
    by Maria" is kept as (Maria, Bolt), and under ``("ORG", "PER")`` the
    passive "Bolt was hired by Maria" is dropped. The windows and the
    instance id stay in sentence order.

    The entity spans of each sentence must not overlap, and sids must be
    unique, as load_corpus ensures: then no instance id repeats. Spans that
    touch form a pair with an empty between window.
    """
    max_before, max_between, max_after = limits
    # each pair's fields and its windows' rows of the context table, whose
    # rows are built in one batch once every window has its row
    drafts = []
    skipped = 0
    for sent in sentences:
        ents = sorted(sent.entities, key=lambda s: (s.start, s.end))
        for a_idx in range(len(ents)):
            for b_idx in range(a_idx + 1, len(ents)):
                ea, eb = ents[a_idx], ents[b_idx]
                e1, e2 = reorder_passive(ea, eb, sent)
                if (e1.etype, e2.etype) != type_pair:
                    continue
                between = sent.tokens[ea.end:eb.start]
                if len(between) > max_between:
                    skipped += 1
                    continue
                before = sent.tokens[max(0, ea.start - max_before):ea.start]
                after = sent.tokens[eb.end:eb.end + max_after]
                iid = f"s{sent.sid}:{ea.start}.{ea.end}-{eb.start}.{eb.end}"
                pair = EntityPair(
                    TypedEntity(" ".join(sent.tokens[e1.start:e1.end]), e1.etype),
                    TypedEntity(" ".join(sent.tokens[e2.start:e2.end]), e2.etype),
                )
                drafts.append((iid, pair, sent.sid, between, emb.context_row(before),
                               emb.context_row(between), emb.context_row(after)))
    contexts = emb.context_rows()
    instances = [
        Instance(id=iid, pair=pair, sentence_ref=sid, tokens_between=tuple(between),
                 template=Template(v_before=contexts[b], v_between=contexts[w],
                                   v_after=contexts[a], type_pair=pair.types))
        for iid, pair, sid, between, b, w, a in drafts]
    if skipped:
        log.info("skipped %d entity pairs over the between-window limit", skipped)
    return ExtractionResult(instances=instances, skipped_over_limit=skipped)


_TO_BE = {"be", "am", "is", "are", "was", "were", "been", "being"}
_PAST_TAGS = {"VBD", "VBN"}  # Penn Treebank past tense / past participle


def reorder_passive(ea: EntitySpan, eb: EntitySpan,
                    sent: TaggedSentence) -> tuple[EntitySpan, EntitySpan]:
    """The spans ``ea`` and ``eb`` of ``sent``, in sentence order, as (e1, e2):
    swapped when the tokens between them are a passive construction.

    The pattern: some form of "to be" directly followed by a verb tagged past
    tense or past participle, with the final between token being "by". Without
    POS tags the heuristic is disabled and the spans keep their order.
    """
    toks = sent.tokens[ea.end:eb.start]
    if not sent.pos or len(toks) < 3 or toks[-1].lower() != "by":
        return ea, eb
    tags = sent.pos[ea.end + 1:eb.start]  # the tag of the token after each of toks
    if any(tok.lower() in _TO_BE and tag in _PAST_TAGS for tok, tag in zip(toks, tags)):
        return eb, ea
    return ea, eb


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
    A value of another type, a missing key or a template without exactly one
    [X] before exactly one [Y] raises SeedFormatError naming the file.
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
    return spec
