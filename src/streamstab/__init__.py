"""Streaming trajectory stabilization and 3D reconstruction evaluation toolkit."""

from .frame_scoring import (ScoreConfig, ScoreTerms, adaptive_update_weight,
                            dft2_magnitude_centered, highfreq_ratio,
                            motion_score, quality_score, score_frame,
                            score_terms, to_grayscale)
from .geometry import (DepthMap, GrayImage, PointSet, Pose, Quaternion,
                       Trajectory, quat_geodesic_angle, quat_normalize,
                       relative_pose, slerp)
from .losses import (LossWeights, grad_pose_translations, loss_acc, loss_ate,
                     loss_conf, loss_pose, loss_rgb, loss_rpe, loss_total,
                     scale_normalizer)
from .metrics import (DepthEvalMode, Similarity3, metric_ate, metric_depth,
                      metric_recon, metric_rpe, umeyama_align)
from .simulate import stream_step
from .spatial import (BilateralConfig, Intrinsics, bilateral_depth,
                      depth_to_points, refine_cloud)
from .stabilization import (FilterState, OneEuroConfig, cutoff_freq,
                            filter_step, smoothing_alpha,
                            stabilize_trajectory)
from .state_update import (MemoryState, Observation, apply_update,
                           associative_gradient, recall_error)

__version__ = "0.1.0"
