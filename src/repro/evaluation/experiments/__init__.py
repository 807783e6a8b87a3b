"""One module per reproduced table / figure of the paper's evaluation."""

from . import (
    fig3_cafes,
    fig4_wnut,
    fig5_descriptors,
    fig6_index_construction,
    index_performance,
    nell_comparison,
    odin_comparison,
    table1_gsp,
    table2_scaleup,
)

__all__ = [
    "fig3_cafes",
    "fig4_wnut",
    "fig5_descriptors",
    "fig6_index_construction",
    "index_performance",
    "nell_comparison",
    "odin_comparison",
    "table1_gsp",
    "table2_scaleup",
]
