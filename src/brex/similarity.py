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
list reach tau_sim: row-blocked matrix products score every pair, and a
pair's score decides whether it is an edge unless it lies within its
rounding margin of tau_sim, where ``sim_instances`` decides. A value the
engine reads (a max-linkage similarity) is always a ``sim_instances`` value;
the scores only rule out the pairs that cannot be the maximum.
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
    """Every pair whose scalar similarity may reach tau_sim, with its matrix
    score; pairs with differing type pairs never qualify.

    Returns (probe index, target index, score) arrays, row-major, plus a per
    probe bound R and a per target slack _MARGIN_ULPS * (d + 4) * u * R: a
    pair's margin is bound[probe] * slack[target]. Peak memory is a few
    blocks of _BLOCK_CELLS scores.
    """
    bound, slack = np.zeros(len(probes)), np.zeros(len(targets))
    by_type: dict[tuple, tuple[list[int], list[int]]] = {}
    for k, context in enumerate(probes):
        by_type.setdefault(context.type_pair, ([], []))[0].append(k)
    for k, context in enumerate(targets):
        if context.type_pair in by_type:
            by_type[context.type_pair][1].append(k)
    found_rows, found_cols, found_scores = [], [], []
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
            t_slack = _MARGIN_ULPS * (shapes[0][0] + 4) * _UNIT_ROUNDOFF * t_bound
            p_idx = np.asarray(p_idx, dtype=np.int32)
            t_idx = np.asarray(t_idx, dtype=np.int32)
            bound[p_idx], slack[t_idx] = p_bound, t_slack
            step = max(1, _BLOCK_CELLS // len(t_idx))
            for lo in range(0, len(p_idx), step):
                block = tuple(m[lo:lo + step] for m in p_stack)
                scores = _scores(measure, block, t_stack)
                cut = tau_sim - np.outer(p_bound[lo:lo + step], t_slack)
                rows, cols = np.nonzero(~(scores < cut))
                found_rows.append(p_idx[lo + rows])
                found_cols.append(t_idx[cols])
                found_scores.append(scores[rows, cols])
                del scores, cut  # free this block's matrices before scoring the next
    if not found_rows:
        empty = np.zeros(0, dtype=np.int32)
        return empty, empty, np.zeros(0), bound, slack
    return (np.concatenate(found_rows), np.concatenate(found_cols),
            np.concatenate(found_scores), bound, slack)


def _interval(score: np.ndarray, margin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds [lo, hi] on sim_instances of pairs with these matrix scores and
    margins; unbounded where the score or the margin is not finite."""
    sure = np.isfinite(score) & np.isfinite(margin)
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.where(sure, np.minimum(score - margin, 1.0), -np.inf)
        hi = np.where(sure, np.minimum(score + margin, 1.0), np.inf)
    return lo, hi


def _decide(lo: np.ndarray, hi: np.ndarray, tau_sim: float, exact) -> np.ndarray:
    """Bool per pair: its similarity reaches tau_sim. Bounds [lo, hi] decide
    a pair unless tau_sim lies inside them; ``exact(unsure)`` returns the
    sim_instances values of the pairs at the indices ``unsure``."""
    unsure = np.flatnonzero((lo < tau_sim) & (hi >= tau_sim))
    reached = lo >= tau_sim
    reached[unsure] = np.asarray(exact(unsure)) >= tau_sim
    return reached


class SimilarityGraph:
    """The tau-graph of a frozen instance list under one measure.

    Row i has an edge to every instance j with sim_instances(i, j) >=
    tau_sim; the probe comes first, as in every engine comparison. The
    candidate pairs and their matrix scores are found on first use. A
    score decides an edge when it clears tau_sim by more than its margin;
    sim_instances is called only for the candidates inside that margin and
    for the values a caller reads, and each exact value is kept, so a graph
    shared by several bootstrap runs computes it once. Template-set hits
    read the edges for templates of instances in the list and compute, once
    per template, a column of hits for any other.
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
    def _contexts(self) -> list[Template]:
        return [instance.template for instance in self.instances]

    @cached_property
    def _candidates(self):
        """Candidate (rows, cols) sorted by row, then column; per candidate
        its matrix score, replaced by the exact value once ``exact`` is set;
        and per row the bound R and slack whose product is a pair's margin."""
        rows, cols, scores, bound, slack = _candidate_pairs(
            self._contexts, self._contexts, self.measure, self.tau_sim)
        order = np.lexsort((cols, rows))
        return (rows[order], cols[order], scores[order],
                np.zeros(len(order), dtype=bool), bound, slack)

    def _bounds(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bounds [lo, hi] on the values of candidates ``idx``; lo == hi ==
        the value once it is exact."""
        rows, cols, values, exact, bound, slack = self._candidates
        known = exact[idx]
        lo, hi = _interval(values[idx], bound[rows[idx]] * slack[cols[idx]])
        lo[known] = hi[known] = values[idx[known]]
        return lo, hi

    def _fill(self, idx: np.ndarray) -> np.ndarray:
        """Compute the exact values of candidates ``idx`` (none of them
        exact yet) and return them."""
        rows, cols, values, exact, _, _ = self._candidates
        instances, measure = self.instances, self.measure
        values[idx] = [sim_instances(instances[i], instances[j], measure)
                       for i, j in zip(rows[idx].tolist(), cols[idx].tolist())]
        exact[idx] = True
        return values[idx]

    def edges_into(self, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the edges whose column is selected by the bool
        mask ``columns``, sorted by row, then column."""
        rows, cols = self._candidates[:2]
        idx = np.flatnonzero(columns[cols])
        lo, hi = self._bounds(idx)
        idx = idx[_decide(lo, hi, self.tau_sim, lambda unsure: self._fill(idx[unsure]))]
        return rows[idx], cols[idx]

    def max_into(self, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, owners, values), sorted by row, then owner: for each row and
        each group of columns sharing an owner id >= 0 in ``owner``, the
        row's max similarity to the group (max-linkage) where it reaches
        tau_sim."""
        rows, cols, values, exact = self._candidates[:4]
        groups = owner[cols]
        idx = np.flatnonzero(groups >= 0)
        idx = idx[np.lexsort((groups[idx], rows[idx]))]
        r, g = rows[idx], groups[idx]
        start = np.ones(len(idx), dtype=bool)
        start[1:] = (r[1:] != r[:-1]) | (g[1:] != g[:-1])
        starts = np.flatnonzero(start)
        if not len(starts):
            return r, g, np.zeros(0)
        lo, hi = self._bounds(idx)
        # The group's max is at least its best lower bound, and below tau_sim
        # it is no edge: only candidates whose upper bound reaches both can be
        # the max that counts.
        floor = np.maximum(np.maximum.reduceat(lo, starts), self.tau_sim)
        need = ~exact[idx] & (hi >= floor[np.cumsum(start) - 1])
        self._fill(idx[need])
        best = np.maximum.reduceat(np.where(exact[idx], values[idx], -np.inf), starts)
        keep = best >= self.tau_sim
        return r[starts[keep]], g[starts[keep]], best[keep]

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
            rows, _, scores, bound, slack = _candidate_pairs(
                self._contexts, [template], self.measure, self.tau_sim)
            lo, hi = _interval(scores, bound[rows] * slack[0])

            def exact(unsure):
                return [sim_instances(self.instances[row], template, self.measure)
                        for row in rows[unsure].tolist()]

            column = np.zeros(len(self), dtype=bool)
            column[rows[_decide(lo, hi, self.tau_sim, exact)]] = True
            self._template_columns[key] = column
        return column
