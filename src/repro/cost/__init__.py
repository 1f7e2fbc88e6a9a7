"""Cost models: depreciation, TCO, and server expansion (Figs. 16-17)."""

from repro.cost.depreciation import annual_depreciation_usd, DepreciationModel
from repro.cost.tco import TCOModel, CostBreakdown
from repro.cost.expansion import ExpansionModel, expansion_at_constant_tco

__all__ = [
    "annual_depreciation_usd",
    "DepreciationModel",
    "TCOModel",
    "CostBreakdown",
    "ExpansionModel",
    "expansion_at_constant_tco",
]
