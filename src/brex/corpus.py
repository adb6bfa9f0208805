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
stats.json, accepted.jsonl, extractors.jsonl). Each error they raise names
the file, and the line where there is one. json_value gives each value read
from them the type its field needs; only the corpus records, read by the
ten thousand, keep their own checks (_record_problem).

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
holds no vectors, and the store it gives is the one a parse gives.

Every produced context vector is either the zero vector (empty window, or all
tokens out of vocabulary) or unit-normalized, so downstream dot products are
bounded cosines. Window sums run over tokens in sorted order, which makes the
vectors bit-identical for any two windows with the same token multiset.
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
    """Immutable word-vector table; unknown words map to the zero vector."""

    def __init__(self, dimension: int, vectors: dict[str, np.ndarray]):
        self.dimension = dimension
        self._vectors = vectors
        self._zero = np.zeros(dimension, dtype=np.float64)
        self._zero.setflags(write=False)
        self._contexts: dict[tuple[str, ...], np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, word: str) -> bool:
        return word in self._vectors

    def lookup(self, word: str) -> np.ndarray:
        return self._vectors.get(word, self._zero)

    def context_vector(self, tokens) -> np.ndarray:
        """Unit-normalized sum of the token embeddings (zero if nothing embeds).

        Tokens are summed in sorted order so that equal multisets give
        bit-equal vectors; the read-only vector of each multiset is built
        once and shared.
        """
        key = tuple(sorted(tokens))
        vector = self._contexts.get(key)
        if vector is None:
            total = np.zeros(self.dimension, dtype=np.float64)
            for tok in key:
                total += self.lookup(tok)
            vector = self._contexts[key] = unit(total)
        return vector


def unit(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm < _ZERO_NORM:
        out = np.zeros_like(v)
    else:
        out = v / norm
    out.setflags(write=False)
    return out


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
    digests a table anyway (brex.cli, for the run's manifest) hands this to
    load_embeddings, which then needs no second read to find the row index,
    and tells by the identity a table replaced since it was digested."""

    def __new__(cls, path):
        self = super().__new__(cls, path)
        self.identity = _identity(path)
        self.sha256 = file_sha256(path) if self.identity else None
        return self


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
    if (index and not part and all(r is not None for r in rows)
            and _identity(path) == hashed.identity):
        _write_index(index, hashed.sha256, rows)
    vectors = {}
    for words, values, _ in parts:
        values.setflags(write=False)  # a part unpickled from a worker is writable
        for word, vec in zip(words, values):
            vectors.setdefault(word, vec)
    return EmbeddingStore(dimension, vectors)


# The format of the row index; an index of another version is rewritten.
_INDEX_VERSION = 1


def _index_path(digest: str | None) -> str | None:
    """Where the row index of the table with sha256 ``digest`` lives:
    ``$XDG_CACHE_HOME/brex/DIGEST.npz``, or under ``~/.cache`` when that
    variable is unset or not an absolute path; None without a digest or a
    home directory."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    if digest is None or not os.path.isabs(root):
        return None
    return os.path.join(root, "brex", digest + ".npz")


def _index_key(digest: str) -> str:
    return f"{digest} {_INDEX_VERSION}"


def _write_index(index: str, digest: str, parts) -> None:
    """Store the rows of a table that validated in full, given as the
    ``(words, offsets)`` of its parts in file order (see _parse_range), as the
    index at ``index``: an uncompressed npz of the key, the words joined by
    newlines as UTF-8 bytes, and the offsets, written to a temporary file that
    then replaces ``index``. A cache directory that cannot be written is left
    as it is."""
    directory = os.path.dirname(index)
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, key=np.array(_index_key(digest)),
                         words=np.frombuffer(b"\n".join(w for w, _ in parts if w),
                                             dtype=np.uint8),
                         offsets=np.concatenate([offsets for _, offsets in parts]))
            os.replace(tmp, index)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        log.debug("table index not written: %s", exc)


def _indexed_part(path: HashedPath, index: str, dimension: int, vocab):
    """The part (see _parse_range) of the ``vocab`` rows of the table at
    ``path``, read at their offsets in the index at ``index``; None when the
    index is missing, unreadable, corrupt or of another table or format, a
    row read is not the valid first row of the word the index names, or the
    table is not the file ``path`` digested. A zip member whose bytes changed
    fails its CRC check as it is read.

    A row's bytes run from its offset to the next row's, or to the end of the
    table, and end at its first line end; the rest are blank lines."""
    try:
        with np.load(index, allow_pickle=False) as data:
            if data["key"].item() != _index_key(path.sha256):
                return None
            words = data["words"].tobytes().decode("utf-8").split("\n")
            offsets = data["offsets"]
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
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
            if _identity(fh.fileno()) != path.identity:
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
    returns the count of text lines, blank ones included. It reads the file
    itself: a second generator layer per line slows load_corpus."""
    lineno = 0
    with _open_text(path, start, end) as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    yield lineno, _as_object(line, error, path, lineno)
        except UnicodeDecodeError:
            raise _not_utf8(path, error) from None
    return lineno


def _as_object(text: str, error: type[InputError], path, lineno=None) -> dict:
    try:
        value = json.loads(text)
        if isinstance(value, dict):
            return value
        problem = "expected a JSON object"
    except json.JSONDecodeError as exc:
        problem = f"invalid JSON ({exc.msg})"
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
    """What keeps a corpus record from the format's fields and field types,
    or None."""
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
            not isinstance(ent, dict)
            or not _is_int(ent.get("start"))
            or not _is_int(ent.get("end"))
            or not isinstance(ent.get("type"), str)
        ):
            return "each entity needs integer 'start'/'end' and string 'type'"
    pos = record.get("pos")
    if pos is not None:
        if not isinstance(pos, list) or not _strings(pos):
            return "'pos' must be a list of strings"
        if len(pos) != len(tokens):
            return f"'pos' length {len(pos)} != token count {len(tokens)}"
    return None


# The fewest corpus bytes per parse range; a corpus costs about 2.5 times the
# table per byte. Measured on 2 CPUs in fresh processes, 8 pairs per size, two
# ranges were slower than one at 2 and 3 MiB (136 against 124 ms, 200 against
# 187 ms) and faster at 4 MiB (152 against 245 ms, 6 of 8 pairs) and 6 MiB
# (215 against 350 ms, 8 of 8). So a corpus splits from 4 MiB on.
_MIN_CORPUS_RANGE_BYTES = 2 << 20


@dataclass
class _CorpusPart:
    """What bytes of the corpus give, with sids and line numbers counted from
    their first record and their first line."""

    sentences: list[TaggedSentence] = field(default_factory=list)
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
    """
    try:
        parts = _parse_split(path, _MIN_CORPUS_RANGE_BYTES, lambda start, end: _parse_corpus(
            path, type_vocab, start, end))
    except CorpusFormatError as exc:
        _log_rejected(path, [exc.part])  # the records rejected before the bad one
        raise
    _log_rejected(path, parts)
    sentences: list[TaggedSentence] = []
    accepted = 0
    for part in parts:
        sentences.extend(dataclasses.replace(sent, sid=accepted + sent.sid)
                         if accepted else sent for sent in part.sentences)
        accepted += part.accepted
    dropped = sum(part.dropped for part in parts)
    if dropped:
        log.warning("dropped %d entities with types outside %s", dropped, sorted(type_vocab))
    return LoadedCorpus(sentences=sentences, accepted_records=accepted,
                        dropped_entities=dropped,
                        rejected_records=sum(len(part.rejected) for part in parts))


def _log_rejected(path, parts: list[_CorpusPart]) -> None:
    """Log each rejected record of ``parts``, consecutive in the file, at its
    line in the file."""
    offset = 0
    for part in parts:
        for lineno, why in part.rejected:
            log.warning("%s: line %d: %s, record rejected", path, offset + lineno, why)
        offset += part.lines


def _parse_corpus(path, type_vocab: set[str], start: int, end: int | None) -> _CorpusPart:
    """What bytes [start, end) of the corpus give (see _open_text), as if they
    were the whole file. A malformed record raises CorpusFormatError naming
    its line, whose ``part`` holds what the records before it gave."""
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
            tokens = tuple(record["tokens"])
            spans = []
            ok = True
            for ent in record["entities"]:
                if not (0 <= ent["start"] < ent["end"] <= len(tokens)):
                    part.rejected.append(
                        (lineno, f"bad entity span ({ent['start']}, {ent['end']})"))
                    ok = False
                    break
                spans.append(EntitySpan(ent["start"], ent["end"], ent["type"]))
            if ok:
                spans.sort(key=lambda s: (s.start, s.end))
                for prev, cur in zip(spans, spans[1:]):
                    if cur.start < prev.end:
                        part.rejected.append((lineno, "overlapping entity spans"))
                        ok = False
                        break
            if not ok:
                continue
            kept = []
            for span in spans:
                if span.etype in type_vocab:
                    kept.append(span)
                else:
                    dropped += 1
            if len(kept) >= 2:
                pos = tuple(record["pos"]) if record.get("pos") is not None else None
                sentences.append(TaggedSentence(sid=accepted, tokens=tokens,
                                                entities=tuple(kept), pos=pos))
            accepted += 1
    except StopIteration as stop:
        part.lines = stop.value
    except CorpusFormatError as exc:
        exc.part = part
        raise
    part.accepted = accepted
    part.dropped = dropped
    return part


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
    instances: list[Instance] = []
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
                template = Template(
                    v_before=emb.context_vector(before),
                    v_between=emb.context_vector(between),
                    v_after=emb.context_vector(after),
                    type_pair=(e1.etype, e2.etype),
                )
                instances.append(
                    Instance(id=iid, pair=pair, template=template,
                             sentence_ref=sent.sid, tokens_between=tuple(between))
                )
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
    templates = []
    for text in raw:
        tokens = text.split()
        ix, iy = tokens.index("[X]"), tokens.index("[Y]")
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
