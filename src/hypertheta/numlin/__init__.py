"""Self-contained numerical layer: symmetric eigendecomposition, dense LP
with an exact-rational mode, and a block-diagonal SDP solver."""

from .eig import as_symmetric, eig_sym
from .lp import LpResult, solve_lp
from .sdp import SdpProblem, SdpSolution, border_rows, solve_sdp

__all__ = [
    "as_symmetric",
    "eig_sym",
    "LpResult",
    "solve_lp",
    "SdpProblem",
    "SdpSolution",
    "border_rows",
    "solve_sdp",
]
