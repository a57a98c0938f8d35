"""rawbench: physics-based RAW noise synthesis, denoising, metrics, and ranking.

The package mirrors a low-light RAW denoising benchmark end to end:

* :mod:`rawbench.core`         - Bayer data model, RGGB packing, RAWB I/O
* :mod:`rawbench.calibration`  - dark-frame statistics and sensor profiles
* :mod:`rawbench.synth`        - noisy/clean training-pair synthesis
* :mod:`rawbench.transforms`   - kSigma and generalized Anscombe transforms
* :mod:`rawbench.denoise`      - VST + sliding-DCT baseline denoiser
* :mod:`rawbench.isp`          - minimal RAW -> sRGB pipeline
* :mod:`rawbench.metrics`      - RAW-domain PSNR/SSIM and the crop protocol
* :mod:`rawbench.ranking`      - per-metric ranks, category scores, tie-breaks
* :mod:`rawbench.budget`       - parameter/MAC accounting vs efficiency limits
* :mod:`rawbench.harness`      - manifests, batch evaluation, CSV outputs
"""

from .calibration import (
    NoiseParams,
    SensorProfile,
    build_profile,
    correct_dark_frame,
    estimate_dark_shading,
    estimate_read_noise,
    estimate_system_gain,
    load_profile,
    save_profile,
)
from .core import (
    PackedImage,
    RawFrame,
    Roi,
    SPACE_DN,
    SPACE_DN_ABOVE_BLACK,
    SPACE_NORMALIZED,
    crop_frame,
    denormalize,
    normalize,
    pack_rggb,
    read_frame,
    read_packed,
    unpack_rggb,
    write_frame,
    write_packed,
)
from .denoise import DenoiseConfig, dct8_shrink, denoise_raw, effective_pg_params
from .isp import IspConfig, run_isp, srgb_gamma, write_ppm16
from .metrics import EvalResult, evaluate_pair, psnr, ssim
from .ranking import (
    MetricRecord,
    RankTable,
    final_table,
    majority_tiebreak,
    rank_metric,
)
from .budget import (
    BudgetReport,
    LayerSpec,
    build_report,
    check_constraints,
    count_macs,
    count_params,
)
from .harness import Manifest, ingest_external_scores, load_manifest, run_benchmark
from .synth import BatchConfig, SynthConfig, make_pair_batch, synthesize_noisy
from .transforms import PgParams, gat_forward, gat_inverse, ksigma_forward, ksigma_inverse

__version__ = "0.1.0"
