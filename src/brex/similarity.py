"""Context similarity between instances and templates, and the tau-graph.

Four measures over the (before, between, after) context vectors:

  match     weighted sum of per-window dot products
  cc-asym   max over windows p of  v_p(i) . v_between(j)
  cc-sym1   symmetrized cc-asym: max of both directions
  cc-sym2   max of (v_bef + v_aft)(i) . v_bet(j), the mirrored term,
            and v_bet(i) . v_bet(j)

All measures return 0 when the two type pairs differ. Results are clamped to
[0, 1]: negative dot products would otherwise leak into threshold checks and
confidence products, and the cc-sym2 side-window sum can exceed unit norm.

``sim_instances`` is the definition of every similarity value the engine
reads, and the test oracle. ``SimilarityGraph`` finds which pairs of the
rows of an instance table (brex.corpus.InstanceTable) reach tau_sim, from
the table's context, type and entity ids alone. The engine only asks for
the in-edges of selected columns, so a column is scored when it is first
read: one matrix product of the table's contexts against the column's
distinct rows scores every row against it, and only pairs of one
entity-type pair are kept. A pair's score decides whether it is an edge
unless it lies within its rounding margin of tau_sim, where its exact value
decides. Exact values come from one batched path, ``exact_values``, equal
to ``sim_instances`` bit for bit: both take their dot products from the
same kernel and combine them in the same order. A value the engine reads
(a max-linkage similarity) is always an exact value; the scores only rule
out the pairs that cannot be the maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from .corpus import Instance, InstanceTable, Template, distinct_windows

MEASURE_KINDS = ("match", "cc-asym", "cc-sym1", "cc-sym2")


@dataclass(frozen=True)
class SimilarityMeasure:
    """Measure selector; weights apply to kind="match" only and must sum to 1."""

    kind: str = "cc-asym"
    weights: tuple[float, float, float] = (0.2, 0.6, 0.2)

    def __post_init__(self):
        kind = self.kind.replace("_", "-")
        object.__setattr__(self, "kind", kind)
        if kind not in MEASURE_KINDS:
            raise ValueError(
                f"unknown similarity measure {self.kind!r}; pick one of {MEASURE_KINDS}"
            )
        if kind == "match":
            if not all(w >= 0 for w in self.weights):
                raise ValueError("match weights must be nonnegative")
            if abs(sum(self.weights) - 1.0) > 1e-9:
                raise ValueError("match weights must sum to 1")


def _context(obj) -> Template:
    return obj.template if isinstance(obj, Instance) else obj


def _asym(a: Template, b: Template) -> float:
    vb = b.v_between
    return max(
        float(a.v_before @ vb), float(a.v_between @ vb), float(a.v_after @ vb)
    )


def sim_instances(i, j, measure: SimilarityMeasure) -> float:
    """Similarity between two instances or templates under ``measure``, in [0, 1]."""
    a, b = _context(i), _context(j)
    if a.type_pair != b.type_pair:
        return 0.0
    if a.v_between.shape != b.v_between.shape:
        raise ValueError(
            f"context dimension mismatch: {a.v_between.shape} vs {b.v_between.shape}"
        )
    kind = measure.kind
    if kind == "match":
        w_before, w_between, w_after = measure.weights
        value = (
            w_before * float(a.v_before @ b.v_before)
            + w_between * float(a.v_between @ b.v_between)
            + w_after * float(a.v_after @ b.v_after)
        )
    elif kind == "cc-asym":
        value = _asym(a, b)
    elif kind == "cc-sym1":
        value = max(_asym(a, b), _asym(b, a))
    else:  # cc-sym2
        value = max(
            float((a.v_before + a.v_after) @ b.v_between),
            float((b.v_before + b.v_after) @ a.v_between),
            float(a.v_between @ b.v_between),
        )
    return min(1.0, max(0.0, value))


def sim_instance_cluster(i, members, measure: SimilarityMeasure) -> float:
    """Max similarity of ``i`` to any member of a cluster (max-linkage).

    ``members`` is a non-empty iterable of instances, or an object with a
    ``members`` attribute. The engine reads the same maximum off the graph;
    this is its scalar reference.
    """
    if hasattr(members, "members"):
        members = members.members
    best = None
    for member in members:
        value = sim_instances(i, member, measure)
        if best is None or value > best:
            best = value
    if best is None:
        raise ValueError("similarity against an empty cluster")
    return best


def sim_instance_templateset(i, templates, measure: SimilarityMeasure) -> float:
    """Max similarity of ``i`` to a set of templates; empty set gives 0."""
    best = 0.0
    for template in templates:
        value = sim_instances(i, template, measure)
        if value > best:
            best = value
    return best


# Candidate pairs come from matrix products, whose summation order differs
# from the scalar ``@``. Two float64 dot products of length d, summed in any
# order, differ by at most 2*d*u*|a|*|b| (to first order, u = 2**-53; Higham,
# "Accuracy and Stability of Numerical Algorithms", 3.1). The weighted sum of
# `match` adds at most 6*u*|a|*|b|; max and clamp add nothing. With R the
# largest norm among an instance's before, between, after and before+after
# vectors, the margin _MARGIN_ULPS * (d + 4) * u * R_i * R_j is four times
# that bound. A pair is a candidate unless its matrix score is below tau_sim
# by more than the margin, so every pair whose scalar similarity reaches
# tau_sim is a candidate; a candidate whose score clears tau_sim by more
# than the margin is an edge. The spare factor covers the rounding of the
# margin and of the score's difference from it.
_UNIT_ROUNDOFF = 2.0 ** -53
_MARGIN_ULPS = 8.0
# A column batch is scored from one matrix product of the distinct contexts
# against the targets' distinct rows per chunk of targets (see _product).
# Each product holds about _BLOCK_CELLS float64 values, as does each chunk
# of exact values per window. Row blocks only gather their scores from the
# product, about _GATHER_CELLS per block, so their size sets no product.
# The before+after sums of _stack are built in chunks of that size too.
_BLOCK_CELLS = 1 << 17
_GATHER_CELLS = 1 << 15
# The (probe window, target window) dot products of each measure, in the
# order sim_instances combines them. Windows 0, 1 and 2 are before, between
# and after; window 3 is before+after.
_TERMS = {"match": ((0, 0), (1, 1), (2, 2)),
          "cc-asym": ((0, 1), (1, 1), (2, 1)),
          "cc-sym1": ((0, 1), (1, 1), (2, 1), (1, 0), (1, 2)),
          "cc-sym2": ((3, 1), (1, 3), (1, 1))}


class _Contexts(NamedTuple):
    """The context vectors of a list of templates as a table of distinct rows.

    ``table`` holds each distinct window array once, then, with sides, each
    distinct before+after sum once. Row k's window w (see _TERMS) is
    ``table[ids[k, w]]``; ``ids`` has the fourth column only with sides.
    ``bound`` is each row's norm bound R, the largest norm among its before,
    between, after and before+after vectors, and ``slack`` is _MARGIN_ULPS *
    (d + 4) * u * R: a pair's margin is the probe's R times the target's
    slack."""

    table: np.ndarray
    ids: np.ndarray
    bound: np.ndarray
    slack: np.ndarray


def _stack(windows: list[np.ndarray], ids: np.ndarray, sides: bool = True) -> _Contexts:
    """The _Contexts of rows whose window w (before, between, after) is
    ``windows[ids[k, w]]``, whatever their type pairs: an instance table's
    contexts and ids, or those of distinct_windows. Without ``sides`` the
    table holds no before+after sums (only cc-sym2 reads them), but R still
    covers their norms.

    The window arrays are copied once into the table, and their norms are
    taken once. A before+after sum is built once per distinct (before,
    after) pair of ids, in chunks of about _GATHER_CELLS values, for its
    norm and, with sides, its table row: no array of a vector per row is
    built. Windows of more than one shape raise ValueError, also across type
    pairs."""
    shapes = sorted({window.shape for window in windows})
    if len(shapes) > 1:
        raise ValueError(f"context dimension mismatch: {shapes[0]} vs {shapes[1]}")
    n = len(windows)
    pairs, pair_ids = np.unique(ids[:, 0].astype(np.int64) * n + ids[:, 2],
                                return_inverse=True)
    table = np.empty((n + (len(pairs) if sides else 0),) + shapes[0])
    np.stack(windows, out=table[:n])
    bound = np.linalg.norm(table[:n], axis=1)[ids].max(axis=1)
    pair_norms = np.empty(len(pairs))
    step = max(1, _GATHER_CELLS // max(1, table.shape[1]))
    for start in range(0, len(pairs), step):
        pair = pairs[start:start + step]
        summed = table[pair // n] + table[pair % n]
        pair_norms[start:start + step] = np.linalg.norm(summed, axis=1)
        if sides:
            table[n + start:n + start + len(pair)] = summed
    np.maximum(bound, pair_norms[pair_ids], out=bound)
    slack = _MARGIN_ULPS * (table.shape[1] + 4) * _UNIT_ROUNDOFF * bound
    if sides:
        ids = np.column_stack((ids, n + pair_ids)).astype(np.int32)
    return _Contexts(table, ids, bound, slack)


def _first_max(first, *rest):
    """Python's max of arrays, element by element: a later value replaces the
    one kept only if it is greater, so a NaN kept first stays and a NaN that
    comes later is skipped."""
    for value in rest:
        first = np.where(value > first, value, first)
    return first


def exact_values(measure: SimilarityMeasure, probes: _Contexts, p_at: np.ndarray,
                 targets: _Contexts, t_at: np.ndarray) -> np.ndarray:
    """sim_instances of probe row ``p_at[k]`` of ``probes`` against target
    row ``t_at[k]`` of ``targets`` (both _Contexts), for every k, bit for
    bit. Contexts hold no type pairs: the two rows of each pair must share
    theirs.

    Each pair's vectors are gathered from the tables by id. Table rows are
    copies of the arrays the templates hold, and a before+after row is
    their sum, so each keeps its bits. np.vecdot runs the same dot kernel as
    the 1-D ``@`` of sim_instances on contiguous rows (every gathered row is
    one), and the terms are combined in its order: match's weighted sum left
    to right, each max as Python's, then max(0.0, v) and min(1.0, v), which
    map NaN and -0.0 to 0.0 as Python's max and min do (np.maximum and
    np.clip would keep them). Pairs are gathered in chunks of about
    _BLOCK_CELLS values per window."""
    values = np.empty(len(p_at))
    step = max(1, _BLOCK_CELLS // max(1, probes.table.shape[1]))
    kind = measure.kind
    # overflowing dot products give inf or NaN, as they do in sim_instances
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(p_at), step):
            p = probes.ids[p_at[start:start + step]].T
            t = targets.ids[t_at[start:start + step]].T
            p_between, t_between = probes.table[p[1]], targets.table[t[1]]
            if kind == "match":
                w_before, w_between, w_after = measure.weights
                value = (w_before * np.vecdot(probes.table[p[0]], targets.table[t[0]])
                         + w_between * np.vecdot(p_between, t_between)
                         + w_after * np.vecdot(probes.table[p[2]], targets.table[t[2]]))
            elif kind == "cc-sym2":
                value = _first_max(np.vecdot(probes.table[p[3]], t_between),
                                   np.vecdot(targets.table[t[3]], p_between),
                                   np.vecdot(p_between, t_between))
            else:
                value = _first_max(np.vecdot(probes.table[p[0]], t_between),
                                   np.vecdot(p_between, t_between),
                                   np.vecdot(probes.table[p[2]], t_between))
                if kind == "cc-sym1":
                    value = _first_max(value, _first_max(
                        np.vecdot(targets.table[t[0]], p_between),
                        np.vecdot(t_between, p_between),
                        np.vecdot(targets.table[t[2]], p_between)))
            value = np.where(value > 0.0, value, 0.0)
            values[start:start + step] = np.where(value < 1.0, value, 1.0)
    return values


def _product(rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The dot product of every row of ``rows`` with every row of
    ``targets``: the one matrix product (BLAS) that scoring makes."""
    return rows @ targets.T


def _scores(measure: SimilarityMeasure, product: np.ndarray, p_ids: np.ndarray,
            t_pos: np.ndarray) -> np.ndarray:
    """sim_instances before clamping, for every probe of a row block against
    every target, gathered from ``product`` (see _product): probe k's
    window w is row ``p_ids[k, w]`` of it, and target j's window w is
    column ``t_pos[j, w]``. Each term is one dot product of length d. The
    max measures take the max over the probe windows met by one target
    window before gathering that window's columns."""
    kind = measure.kind
    rows = {p: product[p_ids[:, p]] for p in {p for p, _ in _TERMS[kind]}}
    if kind == "match":
        w_before, w_between, w_after = measure.weights
        return (w_before * rows[0][:, t_pos[:, 0]] + w_between * rows[1][:, t_pos[:, 1]]
                + w_after * rows[2][:, t_pos[:, 2]])
    score = None
    for t in {t for _, t in _TERMS[kind]}:
        best = reduce(np.maximum, (rows[p] for p, target in _TERMS[kind] if target == t))
        if score is None:
            score = best[:, t_pos[:, t]]
        else:
            np.maximum(score, best[:, t_pos[:, t]], out=score)
    return score


class SimilarityGraph:
    """The tau-graph of an instance table (brex.corpus.InstanceTable) under
    one measure.

    Row i has an edge to every instance j with sim_instances(i, j) >=
    tau_sim; the probe comes first, as in every engine comparison. Every
    read asks about the in-edges of selected columns, and a column is scored
    when it is first read against every row, and the pairs of one
    entity-type pair that may reach tau_sim (the candidates) are kept; pairs
    across type pairs are 0 and never candidates. Memory follows the
    candidates in the columns read, not N^2, and a graph shared by several
    bootstrap runs scores each column once.

    The rows' contexts are the instance table's: its context vectors,
    stacked once, plus each row's ids into them (_Contexts), never a vector
    per row, and the graph builds no Instance. A batch of
    columns is scored by one matrix product of the table against the
    columns' distinct rows per chunk of targets (_product), and blocks of
    rows only gather their scores from it (_scores), so the block size sets
    neither the number of products nor more than a bounded temporary.

    The graph keeps one interval [lo, hi] per candidate that holds its
    sim_instances value: the score minus and plus its margin, capped at 1.
    The interval decides an edge unless tau_sim lies inside it. Only those
    candidates and the values a caller reads get exact values, in batches
    from ``exact_values`` (equal to sim_instances bit for bit, since both use
    one dot kernel), and each closes its interval at its value. A value is
    known when lo == hi. Without an exact value, that happens only where the
    cap closes the interval at 1 (score - margin >= 1), and there
    sim_instances is exactly 1.0. This
    needs every other candidate's margin to exceed the rounding of its
    score: the margin is at least 40 u R_i R_j and |score| about R_i R_j at
    most, so it holds unless the margin underflows. Contexts of unit or zero
    vectors have R = 0 or R >= 1, and a pair with R_i R_j = 0 scores 0 and is
    no candidate, since tau_sim > 0.

    Template-set hits read the edges for templates of the table's built
    instances (InstanceTable.row_of) and compute, once per template, a
    column of hits for any other. Pair-set hits compare the table's pair
    ids, one array per pairing, with the ids of the set's keys.
    """

    def __init__(self, table: InstanceTable, measure: SimilarityMeasure, tau_sim: float):
        self.table = table
        self.measure = measure
        self.tau_sim = tau_sim
        self._template_columns: dict[tuple, np.ndarray] = {}
        # per pairing: an index per distinct pair id, and each row's index
        self._pair_ids: dict[str, tuple[dict[int, int], np.ndarray]] = {}
        # The candidates of the scored columns, in the order they were scored:
        # row, column, and the interval [lo, hi] holding the value.
        self._scored = np.zeros(len(table), dtype=bool)
        self._rows = self._cols = np.zeros(0, dtype=np.int32)
        self._lo = self._hi = np.zeros(0)

    def __len__(self) -> int:
        return len(self.table)

    @cached_property
    def _contexts(self) -> _Contexts:
        """Every row's contexts as the table's context vectors plus ids, norm
        bound R and slack (see _stack), in row order, built on the first
        read. The table holds before+after sums only under cc-sym2, the one
        measure that reads them."""
        return _stack(self.table.contexts, self.table.ids, self.measure.kind == "cc-sym2")

    def _candidates_against(self, targets: _Contexts, at: np.ndarray,
                            target_types: np.ndarray):
        """(rows, targets, lo, hi) of the pairs of a row and a target ``at[k]``
        of ``targets`` whose similarity may reach tau_sim: those of one type
        pair (``target_types[k]`` holds target k's type id in the table) whose
        score is not below tau_sim by more than the pair's margin. [lo, hi]
        bounds each pair's sim_instances value, and is unbounded where the
        score or the margin is not finite.

        Targets are taken in chunks whose product of the graph's table with
        their distinct rows (see _product) holds about _BLOCK_CELLS values.
        Rows are scored in blocks of about _GATHER_CELLS scores gathered from
        that product (see _scores). A block's scores are first tested against
        the block's widest margin; only the pairs that pass get their own,
        bound[row] * slack[target], so no margin matrix is built."""
        table, ids, bound, _ = self._contexts
        row_types = self.table.type_ids
        reads = sorted({t for _, t in _TERMS[self.measure.kind]})
        found = []
        width = max(1, _BLOCK_CELLS // (len(table) * len(reads)))
        # an overflowing or NaN score is a candidate; its exact value decides it
        with np.errstate(over="ignore", invalid="ignore"):
            for first in range(0, len(at), width):
                chunk = at[first:first + width]
                keys, pos = np.unique(targets.ids[chunk][:, reads], return_inverse=True)
                t_pos = np.zeros((len(chunk), targets.ids.shape[1]), dtype=np.intp)
                t_pos[:, reads] = pos.reshape(len(chunk), len(reads))
                product = _product(table, targets.table[keys])
                slack, types = targets.slack[chunk], target_types[first:first + width]
                widest = slack.max()
                step = max(1, _GATHER_CELLS // len(chunk))
                for start in range(0, len(self), step):
                    block = slice(start, start + step)
                    scores = _scores(self.measure, product, ids[block], t_pos)
                    rows, cols = np.nonzero(
                        ~(scores < self.tau_sim - bound[block].max() * widest))
                    score = scores[rows, cols]
                    del scores  # free this block's matrix before the next is gathered
                    rows += start
                    margin = bound[rows] * slack[cols]
                    near = np.flatnonzero(~(score < self.tau_sim - margin)
                                          & (row_types[rows] == types[cols]))
                    rows, cols, score, margin = rows[near], cols[near], score[near], margin[near]
                    sure = np.isfinite(score) & np.isfinite(margin)
                    found.append((rows.astype(np.int32), chunk[cols],
                                  np.where(sure, np.minimum(score - margin, 1.0), -np.inf),
                                  np.where(sure, np.minimum(score + margin, 1.0), np.inf)))
        return tuple(map(np.concatenate, zip(*found)))

    def _score_columns(self, columns: np.ndarray) -> None:
        """Add the candidates of the columns selected by the bool mask
        ``columns`` that are not scored yet to the store."""
        new = columns & ~self._scored
        at = np.flatnonzero(new).astype(np.int32)
        if len(at):
            found = self._candidates_against(self._contexts, at, self.table.type_ids[at])
            self._rows, self._cols, self._lo, self._hi = map(np.concatenate, zip(
                (self._rows, self._cols, self._lo, self._hi), found))
        self._scored |= new

    def _fill(self, idx: np.ndarray) -> np.ndarray:
        """Close the intervals of candidates ``idx`` at their sim_instances
        values and return them."""
        if not len(idx):  # a graph of no rows has no table to build
            return np.zeros(0)
        contexts = self._contexts
        values = exact_values(self.measure, contexts, self._rows[idx], contexts,
                              self._cols[idx])
        self._lo[idx] = self._hi[idx] = values
        return values

    def edges_into(self, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the edges whose column is selected by the bool
        mask ``columns``, sorted by row, then column: one stable sort of
        their cells, row * N + col, as max_into sorts its cells (np.lexsort
        of (col, row) took twice as long)."""
        self._score_columns(columns)
        rows, cols = self._rows, self._cols
        idx = np.flatnonzero(columns[cols])
        # close the intervals that hold tau_sim at their values
        self._fill(idx[(self._lo[idx] < self.tau_sim) & (self._hi[idx] >= self.tau_sim)])
        idx = idx[self._lo[idx] >= self.tau_sim]
        idx = idx[np.argsort(rows[idx].astype(np.int64) * len(self) + cols[idx], kind="stable")]
        return rows[idx], cols[idx]

    def max_into(self, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, owners, values), sorted by row, then owner: for each row and
        each group of columns sharing an owner id >= 0 in ``owner``, the
        row's max similarity to the group (max-linkage) where it reaches
        tau_sim.

        The candidates of the selected columns are grouped by one stable
        sort of their cells, row * K + owner with K the count of owner ids.
        Each scored batch of columns adds its candidates in runs of rising
        rows, which the stable sort merges; it is faster than np.lexsort of
        (owner, row) or np.unique with its inverse."""
        self._score_columns(owner >= 0)
        groups = owner[self._cols]
        idx = np.flatnonzero(groups >= 0)
        count = int(owner.max(initial=-1)) + 1
        cells = self._rows[idx].astype(np.int64) * count + groups[idx]
        order = np.argsort(cells, kind="stable")
        idx, cells = idx[order], cells[order]
        start = np.ones(len(idx), dtype=bool)
        start[1:] = cells[1:] != cells[:-1]
        starts = np.flatnonzero(start)
        r, g = self._rows[idx[starts]], groups[idx[starts]]
        if not len(starts):
            return r, g, np.zeros(0)
        lo, hi = self._lo[idx], self._hi[idx]
        # The group's max is at least its best lower bound, and below tau_sim
        # it is no edge: only candidates whose upper bound reaches both can be
        # the max that counts.
        floor = np.maximum(np.maximum.reduceat(lo, starts), self.tau_sim)
        need = (lo != hi) & (hi >= floor[np.cumsum(start) - 1])
        lo[need] = hi[need] = self._fill(idx[need])
        best = np.maximum.reduceat(np.where(lo == hi, lo, -np.inf), starts)
        keep = best >= self.tau_sim
        return r[keep], g[keep], best[keep]

    def pair_hits(self, pairs) -> np.ndarray:
        """Bool per row: the row's entity pair is in the PairSet ``pairs``:
        its pair id (InstanceTable.pair_ids, read once per pairing) is that
        of one of the set's keys (InstanceTable.key_pair_ids). (np.isin would import numpy.ma on its
        first call, ~37 ms of a fresh process.)"""
        if pairs.pairing not in self._pair_ids:
            codes, row_ids = np.unique(self.table.pair_ids(pairs.pairing), return_inverse=True)
            self._pair_ids[pairs.pairing] = dict(zip(codes.tolist(), range(len(codes)))), row_ids
        ids, row_ids = self._pair_ids[pairs.pairing]
        member = np.zeros(len(ids), dtype=bool)
        codes = self.table.key_pair_ids(pairs.keys(), pairs.pairing).tolist()
        member[[ids[code] for code in codes if code in ids]] = True
        return member[row_ids]

    def template_hits(self, templates) -> np.ndarray:
        """Bool per row: similarity to some template of the TemplateSet
        ``templates`` reaches tau_sim."""
        hit = np.zeros(len(self), dtype=bool)
        target = np.zeros(len(self), dtype=bool)
        for key, template in templates.items():
            row = self.table.row_of(template)
            if row is not None:
                target[row] = True
            else:
                hit |= self._template_column(key, template)
        if target.any():
            hit[self.edges_into(target)[0]] = True
        return hit

    def _template_column(self, key: tuple, template: Template) -> np.ndarray:
        column = self._template_columns.get(key)
        if column is None:
            column = np.zeros(len(self), dtype=bool)
            if template.type_pair in self.table.type_pairs:
                contexts = self._contexts
                shapes = sorted({contexts.table.shape[1:], template.v_between.shape})
                if len(shapes) > 1:
                    raise ValueError(
                        f"context dimension mismatch: {shapes[0]} vs {shapes[1]}")
                # the template as a one-row table
                targets = _stack(*distinct_windows([template]), self.measure.kind == "cc-sym2")
                type_id = self.table.type_pairs.index(template.type_pair)
                rows, _, lo, hi = self._candidates_against(
                    targets, np.zeros(1, dtype=np.int32), np.array([type_id], dtype=np.int32))
                unsure = np.flatnonzero((lo < self.tau_sim) & (hi >= self.tau_sim))
                lo[unsure] = exact_values(self.measure, contexts, rows[unsure], targets,
                                          np.zeros(len(unsure), dtype=np.intp))
                column[rows[lo >= self.tau_sim]] = True
            self._template_columns[key] = column
        return column
