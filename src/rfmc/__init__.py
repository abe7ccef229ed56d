"""RF modulation classifier: synthesis, training, and 16-bit inference."""

from .channel import DEFAULT_SNR_GRID
from .data import Dataset, DatasetSpec, build_dataset, load_dataset, save_dataset, split
from .nn import ARCH, NetworkParams, train
from .quant import QuantizedNetwork, quantize_network, quantized_logits
from .sigsynth import FRAME_LEN, FRAME_SAMPLES, LABEL_NAMES, ModulationLabel

__version__ = "0.1.0"

__all__ = [
    "ARCH",
    "DEFAULT_SNR_GRID",
    "Dataset",
    "DatasetSpec",
    "FRAME_LEN",
    "FRAME_SAMPLES",
    "LABEL_NAMES",
    "ModulationLabel",
    "NetworkParams",
    "QuantizedNetwork",
    "build_dataset",
    "load_dataset",
    "quantize_network",
    "quantized_logits",
    "save_dataset",
    "split",
    "train",
    "__version__",
]
