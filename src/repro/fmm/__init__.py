"""Fast Multipole Method communication model (near field + far field)."""

from repro.fmm.events import CommunicationEvents, PairHistogram
from repro.fmm.ffi import FfiEvents, ffi_events, interaction_events, interpolation_events
from repro.fmm.ffi3d import FfiEvents3D, ffi_events3d
from repro.fmm.model import FmmCommunicationModel, FmmReport
from repro.fmm.model3d import FmmCommunicationModel3D
from repro.fmm.nfi3d import nfi_events3d
from repro.fmm.nfi import nfi_events
from repro.fmm.quadrant_tree import arity_tree_edges, quadrant_tree_events
from repro.fmm.volume import weighted_ffi_events

__all__ = [
    "CommunicationEvents",
    "PairHistogram",
    "nfi_events",
    "FfiEvents",
    "ffi_events",
    "interpolation_events",
    "interaction_events",
    "FmmCommunicationModel",
    "FmmReport",
    "FfiEvents3D",
    "ffi_events3d",
    "nfi_events3d",
    "FmmCommunicationModel3D",
    "quadrant_tree_events",
    "arity_tree_edges",
    "weighted_ffi_events",
]
