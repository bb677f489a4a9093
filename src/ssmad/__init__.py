"""Scan-curve schedules, state-space scan kernels, block forwards, and a
seven-metric anomaly-detection evaluation protocol."""

from .tensor import (
    BinaryMask,
    Rng,
    Tensor,
    bilinear_resize,
    read_mask_pgm,
    read_tensor,
    write_tensor,
)
from .scans import (
    ScanDirection,
    ScanMethod,
    ScanSchedule,
    base_schedule,
    hilbert_matrix,
    make_schedule,
)
from .ssm import scan_recurrent
from .blocks import (
    ConvBParams,
    HssParams,
    LssParams,
    conv_block,
    dwconv2d,
    hss_forward,
    lss_forward,
)
from .pipeline import (
    AnomalyScoreMap,
    DecoderConfig,
    DecoderParams,
    FeaturePyramid,
    anomaly_map,
    decoder_forward,
    hfpn_fuse,
    init_block_params,
    init_decoder_params,
    mse_loss,
    pipeline_forward,
)
from .metrics import (
    LabeledScores,
    MetricsReport,
    RegionSet,
    aupro,
    auroc,
    average_precision,
    connected_components,
    evaluate,
    f1_max,
    mad,
)

__version__ = "0.1.0"
