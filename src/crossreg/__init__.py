"""Image-to-point-cloud registration with geometry-grounded features.

The package covers the full verifiable surface of the approach: normal
estimation on clouds and depth maps, graph-attention feature refinement,
distribution-consistency losses, coarse-to-fine matching, PnP-RANSAC
pose recovery, the standard metric suite, a synthetic scene generator
standing in for trained backbones, and a CLI over all of it.
"""

from .errors import (
    BundleError,
    ChannelMismatchError,
    ConfigError,
    CrossregError,
    DegenerateConfigurationError,
    DegenerateNeighborhoodError,
    EmptyCorrespondencesError,
    EmptyOverlapError,
    EmptyPatchError,
    EmptySampleError,
    EmptyVisibleSetError,
    InsufficientPointsError,
    InvalidRotationError,
    LengthMismatchError,
    MissingDepthError,
    NoConsensusError,
    NonPositiveDepthError,
    NotNormalizedError,
)
from .geometry import (
    CameraIntrinsics,
    RigidTransform,
    backproject_pixels,
    project_points,
    rotation_from_axis_angle,
)
from .graph import (
    GraphAttentionParams,
    KnnGraph,
    PARAM_LAYOUT,
    build_knn_graph,
    gated_fusion,
    knn_indices,
    light_gat_forward,
)
from .losses import (
    CircleLossConfig,
    LossWeights,
    WarmupSchedule,
    circle_loss,
    gdc_loss,
    median_heuristic_bandwidth,
    mmd,
    normal_consistency_loss,
    self_similarity,
    total_loss,
    warmup_weight,
)
from .matching import (
    CorrespondenceSet,
    PatchPair,
    coarse_match,
    cosine_score_map,
    fine_match,
    patch_overlap,
)
from .metrics import (
    SceneEvaluation,
    euler_xyz,
    feature_matching_recall,
    inlier_ratio,
    patch_inlier_ratio,
    registration_recall,
    registration_rmse,
    relative_rotation_error,
    relative_translation_error,
)
from .normals import (
    DepthMap,
    NormalField,
    depth_to_normals,
    estimate_point_normals,
    estimate_point_normals_adaptive,
    metric_normals_from_depth,
    normal_agreement,
)
from .pipeline import (
    PipelineConfig,
    RegistrationResult,
    SWEEP_DEFAULTS,
    ScenePrep,
    ablation_rows,
    apply_sweep_setting,
    evaluate_scene,
    evaluation_report,
    lifted_pixel_normals,
    prepare_scene,
    register_scene,
)
from .pose import PoseEstimate, RansacConfig, pnp_ransac, pnp_solve
from .synth import (
    Box,
    CorruptionConfig,
    Plane,
    SceneSpec,
    Sphere,
    SyntheticScene,
    corrupt_depth,
    generate_scene,
    render_depth,
    synthesize_features,
)

__version__ = "0.1.0"
