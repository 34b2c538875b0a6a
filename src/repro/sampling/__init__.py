"""Sampling module of the modular compression pipeline.

Takes only the points and the CTree (never the kernel or accuracy — this is
what makes it reusable across kernel/accuracy changes, Section 5 of the
paper) and produces, per tree node, the list of far-field sample points used
to cheapen interpolative decomposition:

1. a k-nearest-neighbour list per point: exact from a k-d tree query up to
   ``exact_threshold`` points, else approximate, built greedily with
   random-projection trees (Dasgupta-Freund style),
2. per-node neighbour lists, merging member points' neighbours and dropping
   the node's own points,
3. importance sampling selecting the final per-node sample set.
"""

from repro.sampling.importance import importance_sample
from repro.sampling.neighbors import exact_knn, node_neighbor_lists
from repro.sampling.rptree import rptree_knn
from repro.sampling.plan import SamplingPlan, build_sampling_plan

__all__ = [
    "exact_knn",
    "rptree_knn",
    "node_neighbor_lists",
    "importance_sample",
    "SamplingPlan",
    "build_sampling_plan",
]
