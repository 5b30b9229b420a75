"""The paper's contribution: Segment-of-Interest (SOI) FFT."""

from repro.core.convolution import (
    ConvStrategy,
    conv_time_model,
    convolve,
    convolve_reference,
)
from repro.core.demodulate import demod_ledger, demodulate, fused_demod_diagonal
from repro.core.design import SoiDesign, design_parameters, required_b
from repro.core.error_model import AliasAnalysis, alias_analysis, tone_response
from repro.core.params import DEFAULT_B, SoiParams
from repro.core.segments import balance_segments, segments_for_machines
from repro.core.soi_dist import (
    DEFAULT_CONV_EFFICIENCY,
    DEFAULT_FFT_EFFICIENCY,
    DistributedSoiFFT,
    Ownership,
    soi_rank_program,
    stage_costs,
)
from repro.core.soi_hetero import HeterogeneousSoiFFT
from repro.core.soi_offload import OffloadSoiFFT
from repro.core.soi_single import SoiFFT, soi_fft, soi_ifft
from repro.core.soi_spmd import spmd_soi_fft
from repro.core.streaming import SoiStft, hann_window
from repro.core.window import (
    GaussianSincWindow,
    KaiserSincWindow,
    SoiTables,
    build_tables,
    kaiser_attenuation_db,
)

__all__ = [
    "AliasAnalysis",
    "ConvStrategy",
    "SoiDesign",
    "alias_analysis",
    "design_parameters",
    "required_b",
    "tone_response",
    "DEFAULT_B",
    "DEFAULT_CONV_EFFICIENCY",
    "DEFAULT_FFT_EFFICIENCY",
    "DistributedSoiFFT",
    "GaussianSincWindow",
    "HeterogeneousSoiFFT",
    "KaiserSincWindow",
    "OffloadSoiFFT",
    "Ownership",
    "SoiFFT",
    "SoiParams",
    "SoiStft",
    "SoiTables",
    "balance_segments",
    "hann_window",
    "build_tables",
    "conv_time_model",
    "convolve",
    "convolve_reference",
    "demod_ledger",
    "demodulate",
    "fused_demod_diagonal",
    "kaiser_attenuation_db",
    "segments_for_machines",
    "soi_fft",
    "soi_ifft",
    "soi_rank_program",
    "spmd_soi_fft",
    "stage_costs",
]
