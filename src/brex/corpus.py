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
the file, and the line where there is one.

The corpus and the embedding table are each parsed in byte ranges cut at
line starts, one per CPU this process may run on, through one forked reader
(_parse_split): a corpus from 4 MiB on, a table from 10 MiB on. The results,
warnings and errors are those of one pass over the file.

Every produced context vector is either the zero vector (empty window, or all
tokens out of vocabulary) or unit-normalized, so downstream dot products are
bounded cosines. Window sums run over tokens in sorted order, which makes the
vectors bit-identical for any two windows with the same token multiset.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import logging
import math
import os
import pickle
import signal
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
# processes, two ranges were slower than one at 7 MB, even or faster at 10 MB
# and faster in every pair from 11 MB on (0.12-0.15 s against 0.22-0.27 s).
# So a table splits from 10 MiB on, and a 6.5 MB table stays one range.
_MIN_TABLE_RANGE_BYTES = 5 << 20


def load_embeddings(path, vocab) -> EmbeddingStore:
    """Load a GloVe text table, keeping the words in ``vocab``; the first row
    of a word wins.

    Every row is validated, kept or not: each needs the dimension of the first
    row, and the first row of each word needs numeric, finite components; a
    bad row raises EmbeddingFormatError naming its line, and so does a byte
    that is not UTF-8. The table is read more than once, so it must be a
    regular file.

    A table of at least twice ``_MIN_TABLE_RANGE_BYTES`` is parsed in byte ranges,
    one per CPU (see _parse_split). A word's row from the earliest range wins,
    so the rows and their bits are those of one pass. When any range raises
    or a worker fails, the table is read again in one pass, which raises the
    error of its first bad line; that pass also reads a table whose later
    range rejects a duplicate row of a word seen in an earlier range.
    """
    size = os.stat(path).st_size
    if not os.path.isfile(path):  # a pipe could not be read more than once
        raise EmbeddingFormatError(f"{path}: not a regular file")
    try:
        dimension = _dimension(path)
        count = _range_count(size, _MIN_TABLE_RANGE_BYTES)
        parts = _parse_split(path, size, count, lambda start, end: _packed_range(
            path, start, end, dimension, vocab)) if count > 1 else None
        if parts is None:
            vectors = _parse_range(path, 0, size, dimension, vocab)
        else:
            vectors = {}
            for words, values in parts:
                values.setflags(write=False)
                for word, vec in zip(words, values):
                    vectors.setdefault(word, vec)
    except UnicodeDecodeError:
        raise _not_utf8(path, EmbeddingFormatError) from None
    return EmbeddingStore(dimension, vectors)


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


def _parse_range(path, start: int, end: int, dimension: int, vocab) -> dict:
    """The rows of ``vocab`` words in bytes [start, end) of the table, a range
    that starts at a line start, validated as if it were the whole table (its
    first line is line 1), read as text in blocks of ``_EMBEDDING_BLOCK``
    lines."""
    vectors: dict[str, np.ndarray] = {}
    seen: set[str] = set()  # every word so far; later rows of a word are not parsed
    with _open_text(path, start, end) as fh:
        lineno = 1
        while lines := list(itertools.islice(fh, _EMBEDDING_BLOCK)):
            parsed = _parse_block(lines, dimension)
            if parsed is None:
                _check_lines(path, lines, lineno, dimension, seen, vocab, vectors)
            else:
                words, values = parsed
                rows: dict[str, int] = {}
                for i, word in enumerate(words):
                    if word in vocab and word not in vectors:
                        rows.setdefault(word, i)
                kept = values[list(rows.values())]
                kept.setflags(write=False)
                vectors.update(zip(rows, kept))
                seen.update(words)
            lineno += len(lines)
    return vectors


def _packed_range(path, start: int, end: int, dimension: int, vocab):
    """_parse_range's rows as their words and one (words, dimension) array,
    which pickles several times faster than one array per word."""
    vectors = _parse_range(path, start, end, dimension, vocab)
    values = np.array(list(vectors.values()), dtype=np.float64)
    return list(vectors), values.reshape(len(vectors), dimension)


def _parse_split(path, size: int, count: int, parse) -> list | None:
    """``parse(start, end)`` of each of the ``count`` byte ranges that cut the
    regular file ``path`` at line starts (see _cuts), in file order: the first
    range parsed here, each other one at the same time in a forked worker that
    sends its part back pickled through a pipe. None when a range raises, a
    worker fails or no worker can be started: the caller then parses the file
    in one pass, which raises the error of its first bad line.

    fork is safe here although the parent may hold BLAS threads: a worker runs
    only Python, json decoding, numpy's text parse and elementwise checks (no
    BLAS, no lock another thread may hold, no logging), and it leaves through
    os._exit, 0 only on success, which skips atexit handlers and the flush of
    stdio buffers copied from the parent.
    """
    with open(path, "rb") as fh:
        cuts = _cuts(fh, size, count)
    workers: list[tuple[int, io.BufferedReader]] = []  # not yet reaped
    try:
        for start, end in zip(cuts[1:-1], cuts[2:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # at a process limit: parse in one range
                os.close(read_fd)
                os.close(write_fd)
                return None
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
        try:
            parts = [parse(0, cuts[1])]
        except (InputError, UnicodeDecodeError):
            return None
        while workers:
            pid, pipe = workers[0]
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            workers.pop(0)
            if status != 0:
                return None
            parts.append(pickle.loads(payload))
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return parts


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
            vec = np.array(floats, dtype=np.float64)
            vec.setflags(write=False)
            vectors[word] = vec


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


def _record_problem(record: dict) -> str | None:
    """What keeps a corpus record from the format's fields and field types,
    or None."""
    if "tokens" not in record or "entities" not in record:
        return "record must be an object with 'tokens' and 'entities'"
    tokens = record["tokens"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
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
        if not isinstance(pos, list) or not all(isinstance(p, str) for p in pos):
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

    A regular file of at least twice ``_MIN_CORPUS_RANGE_BYTES`` is parsed in
    byte ranges, one per CPU (see _parse_split); each range counts its sids
    and lines from its start, and the parts are merged in file order, so the
    sentences, counts and warnings are those of one pass. When any range
    raises or a worker fails, the file is read again in one pass, which
    raises the error of its first bad line. A pipe is read in one pass.
    """
    parts = None
    if os.path.isfile(path):
        size = os.stat(path).st_size
        count = _range_count(size, _MIN_CORPUS_RANGE_BYTES)
        if count > 1:
            parts = _parse_split(path, size, count, lambda start, end: _parse_corpus(
                path, type_vocab, _CorpusPart(), start, end))
    if parts is None:
        parts = [_CorpusPart()]
        try:
            _parse_corpus(path, type_vocab, parts[0])
        except CorpusFormatError:
            _log_rejected(path, parts)  # the records rejected before the bad one
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


def _parse_corpus(path, type_vocab: set[str], part: _CorpusPart,
                  start: int = 0, end: int | None = None) -> _CorpusPart:
    """Fill ``part`` from bytes [start, end) of the corpus, or from the whole
    file when ``end`` is None, as if they were the whole file. A malformed
    record raises CorpusFormatError naming its line, after ``part.rejected``
    has taken the records rejected before it."""
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
    part.accepted = accepted
    part.dropped = dropped
    return part


def extract_instances(
    sentences,
    emb: EmbeddingStore,
    limits: tuple[int, int, int],
    type_pair: tuple[str, str],
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
    """
    data = json_object(path, SeedFormatError)
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
        texts = [str(t) for t in data.get(key, [])]
        for text in texts:
            tokens = text.split()
            where = f"{path}: '{key}' entry {text!r}"
            if tokens.count("[X]") != 1 or tokens.count("[Y]") != 1:
                raise SeedFormatError(f"{where}: needs exactly one [X] and one [Y]")
            if tokens.index("[X]") > tokens.index("[Y]"):
                raise SeedFormatError(f"{where}: [X] must precede [Y]")
        return texts

    return SeedFileSpec(
        relation=str(relation),
        type_pair=(str(tp[0]), str(tp[1])),
        positive_pairs=pair_list("positive_pairs"),
        negative_pairs=pair_list("negative_pairs"),
        positive_templates=template_list("positive_templates"),
        negative_templates=template_list("negative_templates"),
    )
