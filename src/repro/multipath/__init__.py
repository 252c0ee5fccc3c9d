"""Multi-path (synopsis diffusion) substrate.

* :mod:`repro.multipath.fm` — Flajolet-Martin / PCSA duplicate-insensitive
  counting sketches (the paper's [7], used "as in [5]").
* :mod:`repro.multipath.kmv` — k-minimum-values distinct-count sketches, our
  stand-in for the accuracy-preserving duplicate-insensitive sum operator of
  Bar-Yossef et al. (the paper's [3], Definition 1).
"""

from repro.multipath.fm import FMSketch
from repro.multipath.kmv import KMVSketch

__all__ = ["FMSketch", "KMVSketch"]
