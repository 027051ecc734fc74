"""Dimensionality reduction methods: SAPLA and the seven paper baselines."""

from .apca import APCA
from .apla import APLA, error_matrix
from .auto import SelectionReport, select_method
from .base import Reducer, SegmentReducer, equal_length_bounds, reduce_rows
from .cheby import CHEBY, ChebyshevRepresentation
from .error_bounded import ErrorBoundedPLA
from .one_d_sax import OneDSAX, OneDSAXRepresentation
from .paa import PAA
from .paalm import PAALM, lagrangian_smooth
from .pla import PLA
from .sapla_reducer import SAPLAReducer
from .sax import SAX, SAXRepresentation, gaussian_breakpoints

#: every reducer class keyed by its paper name
REDUCERS = {
    cls.name: cls
    for cls in (SAPLAReducer, APLA, APCA, PLA, PAA, PAALM, CHEBY, SAX)
}

__all__ = [
    "Reducer",
    "SegmentReducer",
    "equal_length_bounds",
    "reduce_rows",
    "SAPLAReducer",
    "APLA",
    "error_matrix",
    "APCA",
    "PLA",
    "PAA",
    "PAALM",
    "lagrangian_smooth",
    "CHEBY",
    "ChebyshevRepresentation",
    "SAX",
    "SAXRepresentation",
    "OneDSAX",
    "OneDSAXRepresentation",
    "gaussian_breakpoints",
    "ErrorBoundedPLA",
    "SelectionReport",
    "select_method",
    "REDUCERS",
]
