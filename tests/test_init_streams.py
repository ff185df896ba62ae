"""Model seeds give independent initial weights.

``VehicleDetector`` draws its VFE, segmentation, detection and head weights
from four ``default_rng`` streams. If two of those streams share a seed, one
weight tensor starts as a scaled copy of another's leading draws, within one
model or between two ``model_seed`` values, and seed comparisons stop being
independent.
"""

import itertools

import numpy as np

from voxeldet.config import toy_config
from voxeldet.model import VehicleDetector


def test_no_two_weight_tensors_share_draws():
    weights = [(f"model_seed {s}: {name}", t.data.ravel())
               for s in (0, 1)
               for name, t in VehicleDetector(toy_config(model_seed=s)).named_parameters().items()
               if name.endswith("weight")]
    correlated = []
    for (name_a, a), (name_b, b) in itertools.combinations(weights, 2):
        n = min(a.size, b.size)
        r = np.corrcoef(a[:n], b[:n])[0, 1]
        if abs(r) > 0.5:
            correlated.append(f"{name_a} ~ {name_b}: r = {r:.3f} over {n} entries")
    assert correlated == []
