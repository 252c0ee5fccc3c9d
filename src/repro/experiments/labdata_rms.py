"""Section 7.3's LabData numbers: Sum RMS error on the lab deployment.

The paper: "We find the RMS error in evaluating the Sum aggregate on
LabData to be 0.5 for TAG and 0.12 for SD. Both TD and TD-Coarse are able
to reduce the error to 0.1 by running synopsis diffusion over most of the
nodes." Reproduction target: the ordering TAG >> SD >= TD(-Coarse), with
TAG several times worse and TD at or slightly below SD.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.api import EXPERIMENT_CONFIGS, Session
from repro.experiments.fig_count_rms import SCHEMES
from repro.plotting import format_table


@dataclass
class LabDataRMSResult:
    """RMS per scheme plus the delta sizes the adaptive schemes settled on.

    ``delta_sizes`` is read off the run's last recorded epoch
    (``extra["delta_size"]``), adaptive schemes only.
    """

    rms: Dict[str, float] = field(default_factory=dict)
    delta_sizes: Dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["scheme", "RMS error", "delta size"]
        rows = [
            [name, f"{self.rms[name]:.3f}", str(self.delta_sizes.get(name, 0))]
            for name in self.rms
        ]
        return format_table(headers, rows)


def run_labdata_rms(
    quick: bool = False, seed: int = 0, epochs: int = 100
) -> LabDataRMSResult:
    """Run all four schemes over the lab scenario's lossy links.

    The lab is a fixed floor plan whose dataset seed is the named config's
    ``scenario_seed``; ``seed`` moves the measurement draws only.
    """
    sizes = (
        {"epochs": 30, "converge_epochs": 80} if quick else {"epochs": epochs}
    )
    base = EXPERIMENT_CONFIGS["labdata"].replace(seed=seed + 1, **sizes)
    report = Session().sweep({"scheme": list(SCHEMES)}, base)
    result = LabDataRMSResult()
    for config, run in report.rows():
        result.rms[config.scheme] = run.rms_error()
        extra = run.epochs[-1].extra
        if "delta_size" in extra:
            result.delta_sizes[config.scheme] = int(extra["delta_size"])
    return result
