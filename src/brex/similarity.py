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

``sim_instances`` is the definition and the source of every similarity value
the engine reads. ``SimilarityGraph`` finds which pairs of a frozen instance
list reach tau_sim: row-blocked matrix products propose candidate pairs, and
each candidate is evaluated again with ``sim_instances``.
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
            if any(w < 0 for w in self.weights):
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
# vectors, a pair is a candidate unless its matrix score is below tau_sim by
# more than _MARGIN_ULPS * (d + 4) * u * R_i * R_j, four times that bound, so
# every pair whose scalar similarity reaches tau_sim is a candidate.
_UNIT_ROUNDOFF = 2.0 ** -53
_MARGIN_ULPS = 8.0
# A block of rows is scored against all targets at once; each score matrix
# of a block holds about this many float64 values.
_BLOCK_CELLS = 1 << 17


def _stack(contexts: list[Template]):
    """Before, between, after and before+after rows, plus each row's norm bound R."""
    before = np.array([t.v_before for t in contexts], dtype=np.float64)
    between = np.array([t.v_between for t in contexts], dtype=np.float64)
    after = np.array([t.v_after for t in contexts], dtype=np.float64)
    sides = before + after
    bound = np.linalg.norm(np.stack([before, between, after, sides]), axis=2).max(axis=0)
    return (before, between, after, sides), bound


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


def _candidate_pairs(probes: list[Template], targets: list[Template],
                    measure: SimilarityMeasure, tau_sim: float):
    """(probe index, target index) arrays, row-major, of every pair whose
    scalar similarity may reach tau_sim; pairs with differing type pairs
    never qualify. Peak memory is a few blocks of _BLOCK_CELLS scores."""
    by_type: dict[tuple, tuple[list[int], list[int]]] = {}
    for k, context in enumerate(probes):
        by_type.setdefault(context.type_pair, ([], []))[0].append(k)
    for k, context in enumerate(targets):
        if context.type_pair in by_type:
            by_type[context.type_pair][1].append(k)
    found_rows, found_cols = [], []
    # an overflowing or NaN score is a candidate; sim_instances decides it
    with np.errstate(over="ignore", invalid="ignore"):
        for p_idx, t_idx in by_type.values():
            if not t_idx:
                continue
            shapes = sorted({probes[k].v_between.shape for k in p_idx}
                            | {targets[k].v_between.shape for k in t_idx})
            if len(shapes) > 1:
                raise ValueError(
                    f"context dimension mismatch: {shapes[0]} vs {shapes[1]}")
            p_stack, p_bound = _stack([probes[k] for k in p_idx])
            t_stack, t_bound = _stack([targets[k] for k in t_idx])
            slack = _MARGIN_ULPS * (shapes[0][0] + 4) * _UNIT_ROUNDOFF * t_bound
            p_idx, t_idx = np.asarray(p_idx), np.asarray(t_idx)
            step = max(1, _BLOCK_CELLS // len(t_idx))
            for lo in range(0, len(p_idx), step):
                block = tuple(m[lo:lo + step] for m in p_stack)
                cut = tau_sim - np.outer(p_bound[lo:lo + step], slack)
                rows, cols = np.nonzero(~(_scores(measure, block, t_stack) < cut))
                found_rows.append(p_idx[lo + rows])
                found_cols.append(t_idx[cols])
    if not found_rows:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(found_rows), np.concatenate(found_cols)


class SimilarityGraph:
    """The tau-graph of a frozen instance list under one measure.

    Row i has an edge to every instance j with sim_instances(i, j) >=
    tau_sim, carrying that exact value; the probe comes first, as in every
    engine comparison. The candidate pairs are found on first use; a
    candidate's exact value is computed the first time a caller reads its
    column, so unread parts of the graph cost one matrix product only.
    Template-set hits read the edges for templates of instances in the list
    and compute, once per template, a column of exact hits for any other.
    """

    def __init__(self, instances: list[Instance], measure: SimilarityMeasure,
                 tau_sim: float):
        self.instances = instances
        self.measure = measure
        self.tau_sim = tau_sim
        self._row_of_template: dict[tuple, int] = {}
        for row, instance in enumerate(instances):
            self._row_of_template.setdefault(instance.template.key(), row)
        self._template_columns: dict[tuple, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.instances)

    @cached_property
    def _candidates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidate (rows, cols) sorted by row, then column, and their exact
        values, NaN until read (sim_instances never returns NaN)."""
        contexts = [instance.template for instance in self.instances]
        rows, cols = _candidate_pairs(contexts, contexts, self.measure, self.tau_sim)
        order = np.lexsort((cols, rows))
        values = np.full(len(order), np.nan)
        return rows[order].astype(np.int32), cols[order].astype(np.int32), values

    def edges_into(self, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the edges whose column is selected by the
        bool mask ``columns``, sorted by row, then column."""
        rows, cols, values = self._candidates
        idx = np.flatnonzero(columns[cols])
        unread = idx[np.isnan(values[idx])]
        instances, measure = self.instances, self.measure
        values[unread] = [sim_instances(instances[i], instances[j], measure)
                          for i, j in zip(rows[unread].tolist(), cols[unread].tolist())]
        idx = idx[values[idx] >= self.tau_sim]
        return rows[idx], cols[idx], values[idx]

    def template_hits(self, templates) -> np.ndarray:
        """Bool per row: similarity to some template of the TemplateSet
        ``templates`` reaches tau_sim."""
        hit = np.zeros(len(self), dtype=bool)
        target = np.zeros(len(self), dtype=bool)
        for key, template in templates.items():
            row = self._row_of_template.get(key)
            if row is None:
                hit |= self._template_column(key, template)
            else:
                target[row] = True  # same vectors and types: same similarities
        if target.any():
            hit[self.edges_into(target)[0]] = True
        return hit

    def _template_column(self, key: tuple, template: Template) -> np.ndarray:
        column = self._template_columns.get(key)
        if column is None:
            contexts = [instance.template for instance in self.instances]
            rows, _ = _candidate_pairs(contexts, [template], self.measure, self.tau_sim)
            column = np.zeros(len(self), dtype=bool)
            for row in rows.tolist():
                column[row] = (sim_instances(self.instances[row], template, self.measure)
                               >= self.tau_sim)
            self._template_columns[key] = column
        return column
