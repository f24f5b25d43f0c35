"""gjcodec: context-model image codec with loss concealment and channel
simulation experiments.

One trained count model serves two roles: as the prior of an arithmetic
entropy coder and, turned around, as the predictor that fills in missing
regions after packet loss.  The package also ships a classic separate
digital chain and a linear analog chain so the three design points can be
compared under matched channel budgets.
"""

from .analog import AnalogCode, jscc_decode, jscc_encode, jscc_fit
from .channel import ChannelTrace, awgn, gilbert_elliott
from .concealment import TokenGrid, conceal, marginal_fill, strided_assignment
from .context import (CausalContextModel, NeighborhoodModel, cross_entropy,
                      load_model, quantize_pmf, train)
from .entropy import Bitstream, ac_decode, ac_encode
from .errors import (ConfigError, CorruptStreamError, FecDecodeError,
                     FormatError, GjcError, ModelMismatchError, ParameterError)
from .fec import Packet, fec_decode, fec_encode
from .metrics import MetricsRow, compute_metrics, detect_cliff, psnr_from_mse
from .pipelines import records_to_csv, sweep
from .scenario import validate_scenario
from .sources import ImageGrid, ar1_field, load_pgm, save_pgm
from .transform import (dct2, idct2, sq_dequantize, sq_quantize,
                        zigzag_scan, zigzag_unscan)
from .vq import Codebook, load_codebook, save_codebook, vq_decode, vq_encode, vq_train

__version__ = "0.1.0"

__all__ = [
    "AnalogCode", "jscc_decode", "jscc_encode", "jscc_fit",
    "ChannelTrace", "awgn", "gilbert_elliott",
    "TokenGrid", "conceal", "marginal_fill", "strided_assignment",
    "CausalContextModel", "NeighborhoodModel", "cross_entropy", "load_model",
    "quantize_pmf", "train",
    "Bitstream", "ac_decode", "ac_encode",
    "ConfigError", "CorruptStreamError", "FecDecodeError", "FormatError",
    "GjcError", "ModelMismatchError", "ParameterError",
    "Packet", "fec_decode", "fec_encode",
    "MetricsRow", "compute_metrics", "detect_cliff", "psnr_from_mse",
    "records_to_csv", "sweep", "validate_scenario",
    "ImageGrid", "ar1_field", "load_pgm", "save_pgm",
    "dct2", "idct2", "sq_dequantize", "sq_quantize", "zigzag_scan",
    "zigzag_unscan",
    "Codebook", "load_codebook", "save_codebook", "vq_decode", "vq_encode",
    "vq_train",
    "__version__",
]
