"""One-command regeneration of the paper's full evaluation.

:func:`reproduce_all` runs every table and figure with a shared harness and
returns their rendered forms; the CLI exposes it as
``repro-power reproduce [-o report.txt]``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from ..core.characterize import CHARACTERIZATION_VERSION
from .concepts import render_figure5, render_figure7, render_figure8
from .figures import figure1, figure2, figure3_complexity, figure4, figure6, figure9
from .harness import ExperimentConfig, Harness
from .report import (
    render_figure1,
    render_figure2,
    render_figure6,
    render_figure9,
    render_table1,
    render_table2,
    render_table3,
)
from .tables import table1, table2, table3


def scale_settings(
    scale: str = "full", seed: int = 1999
) -> Tuple[ExperimentConfig, int, int]:
    """``(config, prototype patterns, Figure-9 samples)`` of a report scale.

    Args:
        scale: ``"full"`` (paper-scale pattern counts) or ``"small"``.
        seed: Base seed for the experiment harness.
    """
    if scale == "small":
        config = ExperimentConfig(
            n_characterization=1500, n_eval=1500, seed=seed
        )
        return config, 1200, 3000
    config = ExperimentConfig(
        n_characterization=5000, n_eval=5000, seed=seed
    )
    return config, 4000, 10000


def reproduce_all(
    scale: str = "full", seed: int = 1999
) -> Dict[str, str]:
    """Regenerate every table and figure; returns rendered text per id.

    Args:
        scale: ``"full"`` (paper-scale pattern counts) or ``"small"``.
        seed: Base seed for the experiment harness.
    """
    config, n_protos, n_fig9 = scale_settings(scale, seed)
    harness = Harness(config)

    sections: Dict[str, str] = {}
    sections["table1"] = render_table1(table1(harness))
    sections["table2"] = render_table2(table2(harness))
    sections["table3"] = render_table3(
        table3(harness, n_prototype_patterns=n_protos)
    )
    sections["figure1"] = render_figure1(figure1(harness))
    sections["figure2"] = render_figure2(figure2(harness))

    fig3_lines = ["Figure 3: csa-multiplier structural complexity"]
    for row in figure3_complexity():
        fig3_lines.append(
            f"  {row.width_a:2d}x{row.width_b:<2d}: {row.n_gates:4d} gates, "
            f"{row.n_full_adders_equivalent:4d} FA-equiv "
            f"(m1*m0 = {row.predicted_complexity:.0f})"
        )
    sections["figure3"] = "\n".join(fig3_lines)

    fig4_lines = ["Figure 4: instance vs regressed coefficients"]
    for series in figure4(harness, n_prototype_patterns=n_protos):
        fig4_lines.append(f"  {series.kind} p_{series.class_index}")
        fig4_lines.append(f"    instance: {_values(series.instance)}")
        for subset, values in series.regression.items():
            fig4_lines.append(f"    {subset:3s}     : {_values(values)}")
    sections["figure4"] = "\n".join(fig4_lines)

    fig9 = figure9(n=n_fig9, seed=seed)
    sections["figure5"] = render_figure5(fig9.dbt)
    sections["figure6"] = render_figure6(figure6(harness))
    sections["figure7"] = render_figure7(fig9.dbt)
    sections["figure8"] = render_figure8(fig9.dbt)
    sections["figure9"] = render_figure9(fig9)
    return sections


def _values(values: Iterable[float]) -> str:
    """``[98.1, 186.5, ...]``: one decimal, no numpy scalar reprs."""
    return "[" + ", ".join(f"{float(v):.1f}" for v in values) + "]"


def render_report(sections: Dict[str, str]) -> str:
    """Join rendered sections into one report document."""
    order = [
        "table1", "table2", "table3",
        "figure1", "figure2", "figure3", "figure4",
        "figure5", "figure6", "figure7", "figure8", "figure9",
    ]
    banner = (
        "Reproduction report: 'A New Parameterizable Power Macro-Model "
        "for Datapath Components' (DATE 1999)"
    )
    parts = [
        banner, "=" * len(banner),
        f"characterization version {CHARACTERIZATION_VERSION}",
    ]
    for key in order:
        if key in sections:
            parts.append("")
            parts.append(sections[key])
    return "\n".join(parts) + "\n"
