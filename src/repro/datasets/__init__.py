"""Workloads and scenarios used by the paper's evaluation (Section 7.1).

* :mod:`repro.datasets.streams` — reading workloads (constant, uniform,
  diurnal light) and item streams for frequent items (Zipf,
  disjoint-uniform, quantized light).
* :mod:`repro.datasets.synthetic` — the 600-node 20x20 ``Synthetic``
  scenario plus the density/width sweep deployments of Figure 7.
* :mod:`repro.datasets.labdata` — the 54-node Intel-lab-like ``LabData``
  reconstruction (its module docstring lists the substitutions).
"""

from repro.datasets.streams import (
    ConstantReadings,
    DiurnalLightReadings,
    DisjointUniformItemStream,
    LightItemStream,
    UniformReadings,
    ZipfItemStream,
)
from repro.datasets.synthetic import (
    density_sweep_deployment,
    grid_jitter_placement,
    make_synthetic_deployment,
    make_synthetic_scenario,
    width_sweep_deployment,
)
from repro.datasets.labdata import LabDataScenario

__all__ = [
    "ConstantReadings",
    "DiurnalLightReadings",
    "DisjointUniformItemStream",
    "LightItemStream",
    "UniformReadings",
    "ZipfItemStream",
    "density_sweep_deployment",
    "grid_jitter_placement",
    "make_synthetic_deployment",
    "make_synthetic_scenario",
    "width_sweep_deployment",
    "LabDataScenario",
]
