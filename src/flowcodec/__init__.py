"""Experimental P-frame codec harness for comparing motion estimators:
internal block search, dense optic-flow fields reduced to block vectors,
and hybrid RD-based candidate selection."""

from .blockmatch import (
    SearchConfig,
    diamond_search,
    hex_search,
    median_predictor,
    mv_rate_bits,
    rd_cost,
    sad,
)
from .codec import (
    MOTION_MODES,
    BitstreamInfo,
    CodecConfig,
    EncodeResult,
    FrameStats,
    decode_sequence,
    encode_sequence,
    motion_compensate,
    read_bitstream_info,
    select_block_vector,
)
from .flowadapt import block_mean, block_vector_median, downsample_flow, expand_block_field
from .flowprovider import PROVENANCE_MODES, FlowProvider, FlowProviderError
from .metrics import bd_psnr, bd_rate, epe, frame_psnr, median_aggregate, psnr
from .model import (
    DEFAULT_MV_BOUND,
    QPEL,
    ZERO_MV,
    BlockMotionField,
    Frame,
    MotionVector,
    RDPoint,
    ReferencePlane,
    block_grid,
    chroma_vector,
    quantize_to_quarter_pel,
    reference_planes,
)

__version__ = "0.1.0"
