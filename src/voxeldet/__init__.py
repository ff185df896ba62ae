"""Voxel-based LiDAR 3D vehicle detection pipeline.

Submodules:
    config        run configuration, key = value files, validation
    kitti_io      point cloud / label / calibration / result files
    voxel_grid    point cloud voxelization and per-voxel features
    nn_core       dense tensor engine with reverse-mode differentiation
    sparse_conv   submanifold and strided sparse 3D convolution, VFE blocks
    seg_context   BEV semantic masks, segmentation/detection branches, fusion
    depth_head    depth-partitioned detection head along the forward axis
    model         the assembled detector and its decoding
    box_geom      oriented boxes, residual codec, rotated IoU, NMS
    synthetic     synthetic toy scenes
    augment       ground-plane fitting and ground-truth-sampling augmentation
    train         target assignment, losses, toy training
    eval_metrics  AP / AOS under the KITTI protocol
    cli           command-line front end
"""

__version__ = "0.1.0"
