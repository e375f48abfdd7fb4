"""Gauge zoo: polyhedral and spectral regularizers with face models.

Everything specific to a kind lives on its class here (see ``base`` for the
hooks); ``KINDS`` registers the classes and ``from_spec`` is the one way to
build a gauge from a problem-file style record.
"""

from .base import Gauge, SubdiffFace, VertexCapExceeded
from .matrix import NuclearGauge, SdpTraceGauge, sym_basis
from .vector import (
    AnalysisL1Gauge,
    GroupL12Gauge,
    L1Gauge,
    NonnegL1Gauge,
    SortedWeightedL1Gauge,
)

KINDS = {
    "l1": L1Gauge,
    "analysis_l1": AnalysisL1Gauge,
    "wsl1": SortedWeightedL1Gauge,
    "group_l12": GroupL12Gauge,
    "nonneg_l1": NonnegL1Gauge,
    "nuclear": NuclearGauge,
    "sdp_trace": SdpTraceGauge,
}


def from_spec(spec):
    """Build the gauge that ``spec["kind"]`` names from the remaining fields
    (``n`` or ``shape``, and the kind's ``param_field``).  ValueError messages
    name the offending field."""
    kind = spec.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown gauge kind {kind!r}")
    return KINDS[kind].from_spec(spec)

__all__ = [
    "Gauge",
    "SubdiffFace",
    "VertexCapExceeded",
    "L1Gauge",
    "AnalysisL1Gauge",
    "SortedWeightedL1Gauge",
    "GroupL12Gauge",
    "NonnegL1Gauge",
    "NuclearGauge",
    "SdpTraceGauge",
    "sym_basis",
    "KINDS",
    "from_spec",
]
