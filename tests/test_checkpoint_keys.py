"""The checkpoint contract: the names and shapes of the model's saved tensors."""

import hashlib

import pytest

from voxeldet.config import RunConfig, toy_config
from voxeldet.model import VehicleDetector


def key_set_digest(cfg) -> str:
    """sha256 prefix of the sorted ``name shape`` lines of the model's state dict."""
    lines = sorted(f"{name} {value.shape}" for name, value in
                   VehicleDetector(cfg).state_dict().items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize("make_cfg", [RunConfig, toy_config], ids=["default", "toy"])
def test_state_dict_names_and_shapes_are_pinned(make_cfg):
    """A change that moves either digest breaks every saved checkpoint, because
    a checkpoint loads only into a model with exactly its names and shapes;
    such a change must say so in CHANGES.md. The toy config differs from the
    default only in grid extent, which no weight shape depends on, so both
    pin the same digest."""
    assert key_set_digest(make_cfg()) == "2b7ee2a3da4cb468"
