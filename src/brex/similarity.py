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
reads, and the test oracle. ``SimilarityGraph`` finds which pairs of a frozen
instance list reach tau_sim. The engine only asks for the in-edges of
selected columns, so a column is scored when it is first read: row-blocked
matrix products score every row against it, and only pairs of one
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
from functools import cached_property

import numpy as np

from .corpus import Instance, Template

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
# A block of rows is scored against all targets at once; each score matrix
# of a block holds about this many float64 values.
_BLOCK_CELLS = 1 << 17


def _stack(contexts: list[Template], sides: bool = True):
    """The before, between, after and before+after stack of ``contexts``
    (row k is contexts[k], whatever its type pair), each row's norm bound R,
    and its slack _MARGIN_ULPS * (d + 4) * u * R: a pair's margin is the
    probe's R times the target's slack. Without ``sides`` the before+after
    stack is None (only cc-sym2 reads it), but R still covers its norms.

    Ingest gives all windows of one token multiset one array, so the
    distinct window arrays, told apart by identity, are copied once into a
    table; the three window stacks are gathered from it, and norms are taken
    once per distinct array. Only before+after is summed and normed per
    context. Windows of more than one shape raise ValueError, also across
    type pairs."""
    windows = [window for t in contexts for window in (t.v_before, t.v_between, t.v_after)]
    ids, at = np.unique(np.fromiter(map(id, windows), dtype=np.uint64, count=len(windows)),
                        return_inverse=True)
    pick = np.empty(len(ids), dtype=np.intp)
    pick[at] = np.arange(len(windows))  # any window of an id is its array
    distinct = [windows[k] for k in pick.tolist()]
    shapes = sorted({window.shape for window in distinct})
    if len(shapes) > 1:
        raise ValueError(f"context dimension mismatch: {shapes[0]} vs {shapes[1]}")
    table = np.array(distinct, dtype=np.float64)
    at = at.reshape(-1, 3).T
    bound = np.linalg.norm(table, axis=1)[at].max(axis=0)
    before, between, after = np.take(table, at, axis=0)
    del table  # before the sum allocates one more N-row stack
    summed = before + after
    np.maximum(bound, np.linalg.norm(summed, axis=1), out=bound)
    slack = _MARGIN_ULPS * (between.shape[1] + 4) * _UNIT_ROUNDOFF * bound
    return (before, between, after, summed if sides else None), bound, slack


def _take(stack: tuple, at) -> tuple:
    """The rows ``at`` (an index array or a slice) of each array of a
    (before, between, after, before+after) ``stack``; an absent before+after
    stack stays absent."""
    return tuple(None if rows is None else rows[at] for rows in stack)


def _first_max(first, *rest):
    """Python's max of arrays, element by element: a later value replaces the
    one kept only if it is greater, so a NaN kept first stays and a NaN that
    comes later is skipped."""
    for value in rest:
        first = np.where(value > first, value, first)
    return first


def exact_values(measure: SimilarityMeasure, probes: tuple, p_at: np.ndarray,
                 targets: tuple, t_at: np.ndarray) -> np.ndarray:
    """sim_instances of probe row ``p_at[k]`` of the stack ``probes`` against
    target row ``t_at[k]`` of ``targets`` (both (before, between, after,
    sides) stacks), for every k, bit for bit. Stacks hold no type pairs: the
    two rows of each pair must share theirs.

    np.vecdot runs the same dot kernel as the 1-D ``@`` of sim_instances on
    contiguous rows (every vector ingest builds is one), and the terms are
    combined in its order: match's weighted sum left to right, each max as
    Python's, then max(0.0, v) and min(1.0, v), which map NaN and -0.0 to
    0.0 as Python's max and min do (np.maximum and np.clip would keep them).
    Pairs are gathered in chunks of about _BLOCK_CELLS values per window."""
    values = np.empty(len(p_at))
    step = max(1, _BLOCK_CELLS // max(1, probes[1].shape[1]))
    kind = measure.kind
    # overflowing dot products give inf or NaN, as they do in sim_instances
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(p_at), step):
            p, t = p_at[start:start + step], t_at[start:start + step]
            p_between, t_between = probes[1][p], targets[1][t]
            if kind == "match":
                w_before, w_between, w_after = measure.weights
                value = (w_before * np.vecdot(probes[0][p], targets[0][t])
                         + w_between * np.vecdot(p_between, t_between)
                         + w_after * np.vecdot(probes[2][p], targets[2][t]))
            elif kind == "cc-sym2":
                value = _first_max(np.vecdot(probes[3][p], t_between),
                                   np.vecdot(targets[3][t], p_between),
                                   np.vecdot(p_between, t_between))
            else:
                value = _first_max(np.vecdot(probes[0][p], t_between),
                                   np.vecdot(p_between, t_between),
                                   np.vecdot(probes[2][p], t_between))
                if kind == "cc-sym1":
                    value = _first_max(value, _first_max(
                        np.vecdot(targets[0][t], p_between),
                        np.vecdot(t_between, p_between),
                        np.vecdot(targets[2][t], p_between)))
            value = np.where(value > 0.0, value, 0.0)
            values[start:start + step] = np.where(value < 1.0, value, 1.0)
    return values


def _scores(measure: SimilarityMeasure, p, t) -> np.ndarray:
    """sim_instances before clamping, for every probe row of ``p`` against
    every target row of ``t`` (both (before, between, after, sides) stacks)."""
    p_before, p_between, p_after, p_sides = p
    t_before, t_between, t_after, t_sides = t
    kind = measure.kind
    if kind == "match":
        w_before, w_between, w_after = measure.weights
        return (w_before * (p_before @ t_before.T)
                + w_between * (p_between @ t_between.T)
                + w_after * (p_after @ t_after.T))
    if kind == "cc-sym2":
        score = p_sides @ t_between.T
        np.maximum(score, p_between @ t_sides.T, out=score)
        np.maximum(score, p_between @ t_between.T, out=score)
        return score
    score = p_before @ t_between.T
    for term in (p_between @ t_between.T, p_after @ t_between.T):
        np.maximum(score, term, out=score)
    if kind == "cc-sym1":
        # the mirrored cc-asym: the target's windows against the probe's between
        for term in (p_between @ t_before.T, p_between @ t_after.T):
            np.maximum(score, term, out=score)
    return score


class SimilarityGraph:
    """The tau-graph of a frozen instance list under one measure.

    Row i has an edge to every instance j with sim_instances(i, j) >=
    tau_sim; the probe comes first, as in every engine comparison. Every
    read asks about the in-edges of selected columns, and a column is scored
    when it is first read: row-blocked matrix products score every row
    against it, and the pairs of one entity-type pair that may reach tau_sim
    (the candidates) are kept; pairs across type pairs are 0 and never
    candidates. Memory follows the candidates in the columns read, not N^2,
    and a graph shared by several bootstrap runs scores each column once.

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

    Template-set hits read the edges for templates of instances in the list
    and compute, once per template, a column of hits for any other.
    Pair-set hits key each row's entity pair once per pairing.
    """

    def __init__(self, instances: list[Instance], measure: SimilarityMeasure,
                 tau_sim: float):
        self.instances = instances
        self.measure = measure
        self.tau_sim = tau_sim
        self._template_columns: dict[tuple, np.ndarray] = {}
        # per pairing: an id per distinct pair key, and each row's key id
        self._pair_ids: dict[str, tuple[dict[tuple, int], np.ndarray]] = {}
        # The candidates of the scored columns, in the order they were scored:
        # row, column, and the interval [lo, hi] holding the value.
        self._scored = np.zeros(len(instances), dtype=bool)
        self._rows = self._cols = np.zeros(0, dtype=np.int32)
        self._lo = self._hi = np.zeros(0)

    def __len__(self) -> int:
        return len(self.instances)

    @cached_property
    def _contexts(self) -> tuple[tuple, np.ndarray, np.ndarray]:
        """Every row's before, between, after and before+after stack (the
        last one only under cc-sym2, the one measure that reads it), norm
        bound R and slack (see _stack), in row order, built on the first
        read."""
        return _stack([instance.template for instance in self.instances],
                      self.measure.kind == "cc-sym2")

    @cached_property
    def _type_ids(self) -> tuple[dict[tuple, int], np.ndarray]:
        """An id per entity-type pair of the rows, and each row's id."""
        ids: dict[tuple, int] = {}
        row_ids = np.fromiter((ids.setdefault(instance.template.type_pair, len(ids))
                               for instance in self.instances), dtype=np.int32,
                              count=len(self))
        return ids, row_ids

    def _candidates_against(self, targets: tuple, target_slack: np.ndarray,
                            target_types: np.ndarray):
        """(rows, target positions, lo, hi) of the pairs of a row and a
        target of the ``targets`` stack whose similarity may reach tau_sim:
        those of one type pair (``target_types`` holds each target's id in
        _type_ids) whose score is not below tau_sim by more than the pair's
        margin. [lo, hi] bounds each pair's sim_instances value, and is
        unbounded where the score or the margin is not finite. Rows are
        scored in blocks of about _BLOCK_CELLS scores."""
        stack, bound, _ = self._contexts
        row_types = self._type_ids[1]
        found = []
        step = max(1, _BLOCK_CELLS // len(target_slack))
        # an overflowing or NaN score is a candidate; its exact value decides it
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(self), step):
                block = slice(start, start + step)
                scores = _scores(self.measure, _take(stack, block), targets)
                margin = np.outer(bound[block], target_slack)
                near = ~(scores < self.tau_sim - margin)
                near &= np.equal.outer(row_types[block], target_types)
                rows, cols = np.nonzero(near)
                score, margin = scores[rows, cols], margin[rows, cols]
                sure = np.isfinite(score) & np.isfinite(margin)
                rows += start
                found.append((rows.astype(np.int32), cols,
                              np.where(sure, np.minimum(score - margin, 1.0), -np.inf),
                              np.where(sure, np.minimum(score + margin, 1.0), np.inf)))
                del scores  # free this block's matrices before scoring the next
        return tuple(map(np.concatenate, zip(*found)))

    def _score_columns(self, columns: np.ndarray) -> None:
        """Add the candidates of the columns selected by the bool mask
        ``columns`` that are not scored yet to the store."""
        new = columns & ~self._scored
        at = np.flatnonzero(new).astype(np.int32)
        if len(at):
            stack, _, slack = self._contexts
            rows, k, lo, hi = self._candidates_against(
                _take(stack, at), slack[at], self._type_ids[1][at])
            self._rows, self._cols, self._lo, self._hi = map(np.concatenate, zip(
                (self._rows, self._cols, self._lo, self._hi), (rows, at[k], lo, hi)))
        self._scored |= new

    def _fill(self, idx: np.ndarray) -> np.ndarray:
        """Close the intervals of candidates ``idx`` at their sim_instances
        values and return them."""
        if not len(idx):  # a graph of no rows has no stack to build
            return np.zeros(0)
        stack = self._contexts[0]
        values = exact_values(self.measure, stack, self._rows[idx], stack, self._cols[idx])
        self._lo[idx] = self._hi[idx] = values
        return values

    def edges_into(self, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the edges whose column is selected by the bool
        mask ``columns``, sorted by row, then column."""
        self._score_columns(columns)
        rows, cols = self._rows, self._cols
        idx = np.flatnonzero(columns[cols])
        # close the intervals that hold tau_sim at their values
        self._fill(idx[(self._lo[idx] < self.tau_sim) & (self._hi[idx] >= self.tau_sim)])
        idx = idx[self._lo[idx] >= self.tau_sim]
        idx = idx[np.lexsort((cols[idx], rows[idx]))]
        return rows[idx], cols[idx]

    def max_into(self, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, owners, values), sorted by row, then owner: for each row and
        each group of columns sharing an owner id >= 0 in ``owner``, the
        row's max similarity to the group (max-linkage) where it reaches
        tau_sim."""
        self._score_columns(owner >= 0)
        rows = self._rows
        groups = owner[self._cols]
        idx = np.flatnonzero(groups >= 0)
        idx = idx[np.lexsort((groups[idx], rows[idx]))]
        r, g = rows[idx], groups[idx]
        start = np.ones(len(idx), dtype=bool)
        start[1:] = (r[1:] != r[:-1]) | (g[1:] != g[:-1])
        starts = np.flatnonzero(start)
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
        return r[starts[keep]], g[starts[keep]], best[keep]

    @cached_property
    def _row_of_template(self) -> dict[Template, int]:
        """Each instance's own template and its row. Templates compare by
        identity, so this holds no vector bytes."""
        return {instance.template: row for row, instance in enumerate(self.instances)}

    def pair_hits(self, pairs) -> np.ndarray:
        """Bool per row: the row's entity pair is in the PairSet ``pairs``.
        Each row's pair is keyed once per pairing."""
        if pairs.pairing not in self._pair_ids:
            ids: dict[tuple, int] = {}
            row_ids = np.fromiter(
                (ids.setdefault(instance.pair.key(pairs.pairing), len(ids))
                 for instance in self.instances), dtype=np.int64, count=len(self))
            self._pair_ids[pairs.pairing] = ids, row_ids
        ids, row_ids = self._pair_ids[pairs.pairing]
        member = np.zeros(len(ids), dtype=bool)
        member[[ids[key] for key in pairs.keys() if key in ids]] = True
        return member[row_ids]

    def template_hits(self, templates) -> np.ndarray:
        """Bool per row: similarity to some template of the TemplateSet
        ``templates`` reaches tau_sim."""
        hit = np.zeros(len(self), dtype=bool)
        target = np.zeros(len(self), dtype=bool)
        for key, template in templates.items():
            row = self._row_of_template.get(template)
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
            type_id = self._type_ids[0].get(template.type_pair)
            if type_id is not None:
                stack = self._contexts[0]
                shapes = sorted({stack[1].shape[1:], template.v_between.shape})
                if len(shapes) > 1:
                    raise ValueError(
                        f"context dimension mismatch: {shapes[0]} vs {shapes[1]}")
                targets, _, target_slack = _stack([template])
                rows, _, lo, hi = self._candidates_against(
                    targets, target_slack, np.array([type_id], dtype=np.int32))
                unsure = np.flatnonzero((lo < self.tau_sim) & (hi >= self.tau_sim))
                lo[unsure] = exact_values(self.measure, stack, rows[unsure], targets,
                                          np.zeros(len(unsure), dtype=np.intp))
                column[rows[lo >= self.tau_sim]] = True
            self._template_columns[key] = column
        return column
