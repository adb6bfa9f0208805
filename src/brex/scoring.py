"""Extractor reliability, instance confidence, and the extractor taxonomy.

Reliability of a cluster with p positive, n negative, and u unknown matches:

    p / (p + w_neg * n + w_unk * u)        (0 when p == 0)

which is the same ratio as 1 / (1 + w_neg*n/p + w_unk*u/p) but stays exact for
small integer counts. Positive/negative counts are mode-dependent: entity-pair
membership for BREE, template-set similarity for BRET, and their sum for BREJ
(an instance matching both channels counts twice). Unknown counts are always
entity-pair based. Counts read the per-row seed hits the engine computes once
per iteration (SeedHits).
"""

from __future__ import annotations

import hashlib

import numpy as np

from .model import MODE_CHANNELS, Extractor, RunConfig, SeedHits
# Not called here: perfbench/op.py traces these names in this module.
from .similarity import sim_instance_cluster, sim_instance_templateset  # noqa: F401


def reliability(n_pos: float, n_neg: float, n_unknown: float,
                w_neg: float, w_unk: float) -> float:
    if n_pos <= 0:
        return 0.0
    return n_pos / (n_pos + w_neg * n_neg + w_unk * n_unknown)


def count_positives(extractor: Extractor, by_pair: np.ndarray,
                    by_template: np.ndarray, cfg: RunConfig) -> float:
    """Count members matching seeds under the mode's channels, given the
    per-row pair and template hits of one polarity (see SeedHits)."""
    pairs, templates = MODE_CHANNELS[cfg.mode]
    rows = extractor.rows
    count = 0
    if pairs:
        count += int(np.count_nonzero(by_pair[rows]))
    if templates:
        count += int(np.count_nonzero(by_template[rows]))
    return float(count)


def count_unknown(extractor: Extractor, hits: SeedHits) -> int:
    """Members whose entity pair is in neither the positive nor negative pair set."""
    rows = extractor.rows
    return int(np.count_nonzero(~(hits.pos_pair[rows] | hits.neg_pair[rows])))


def score_extractor(extractor: Extractor, hits: SeedHits, cfg: RunConfig) -> None:
    """Fill the extractor's count and confidence fields in place."""
    extractor.n_pos = count_positives(extractor, hits.pos_pair, hits.pos_template, cfg)
    extractor.n_neg = count_positives(extractor, hits.neg_pair, hits.neg_template, cfg)
    extractor.n_unknown = count_unknown(extractor, hits)
    extractor.confidence = reliability(extractor.n_pos, extractor.n_neg,
                                       extractor.n_unknown, cfg.w_neg, cfg.w_unk)


def soft_or(values) -> float:
    """1 - prod(1 - v): the soft maximum; empty input gives 0."""
    remainder = 1.0
    for value in values:
        remainder *= 1.0 - value
    return 1.0 - remainder


def instance_confidence(covering) -> float:
    """Soft-or of confidence times similarity over the extractors covering an
    instance, given as (scored extractor, similarity) pairs in extractor
    order; with no covering extractor the confidence is 0."""
    return soft_or(extractor.confidence * sim for extractor, sim in covering)


def categorize_extractor(extractor: Extractor, noisy: bool, cfg: RunConfig) -> str:
    """Cross the human noisiness label with the tau_cnf confidence split."""
    high = extractor.confidence >= cfg.tau_cnf
    if noisy:
        return "NHC" if high else "NLC"
    return "NNHC" if high else "NNLC"


def extractor_signature(extractor: Extractor) -> str:
    """Stable content address: hash of the sorted member ids."""
    joined = ",".join(sorted(m.id for m in extractor.members))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]
