"""Digests of the topology state, its trees and its churn re-ringings.

Everything here reads the *public* surface only (``position``, ``level``,
the three neighbour queries, ``tree.parents``, ``membership.updates``), so
the same code recorded ``topology_goldens.json`` on the commit that still
had the dict/networkx tier and checks the array-backed classes against it::

    PYTHONPATH=src python tests/topology_goldens.py > tests/topology_goldens.json
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import numpy as np

GOLDENS_PATH = pathlib.Path(__file__).with_suffix(".json")


def load() -> dict:
    """The recorded goldens: ``topology`` / ``runs`` / ``churn`` sections."""
    return json.loads(GOLDENS_PATH.read_text())


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _repr_sha(value) -> str:
    return _sha(repr(value).encode())


def topology_digests(deployment, rings, tree_seed: int) -> dict:
    """Coordinates, ring levels, CSR adjacency and the bushy tree."""
    from repro.tree.construction import build_bushy_tree

    nodes = list(deployment.node_ids)
    assert nodes == list(range(len(nodes)))
    coords = np.array(
        [deployment.position(node) for node in nodes], dtype=np.float64
    )
    levels = np.array([rings.level(node) for node in nodes], dtype=np.int32)
    runs = [
        sorted(
            rings.upstream_neighbors(node)
            + rings.same_level_neighbors(node)
            + rings.downstream_neighbors(node)
        )
        for node in nodes
    ]
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum([len(run) for run in runs], out=indptr[1:])
    neighbors = np.array(
        [other for run in runs for other in run], dtype=np.int32
    )
    tree = build_bushy_tree(rings, seed=tree_seed)
    return {
        "coords": _sha(coords.tobytes()),
        "level_of": _sha(levels.tobytes()),
        "indptr": _sha(indptr.tobytes()),
        "neighbors": _sha(neighbors.tobytes()),
        "tree": _repr_sha(sorted(tree.parents.items())),
    }


def registered_topology(name: str, num_sensors: int, seed: int) -> dict:
    from repro.registry import TOPOLOGIES

    topology = TOPOLOGIES.resolve(name)(num_sensors=num_sensors, seed=seed)
    return topology_digests(topology.deployment, topology.rings, seed)


def sweep_topology(kind: str, seed: int) -> dict:
    """One deployment of each grid-jitter family (Figure 7a / 7b / raw)."""
    from repro.datasets.synthetic import (
        SWEEP_RADIO_RANGE,
        density_sweep_deployment,
        grid_jitter_placement,
        width_sweep_deployment,
    )
    from repro.network.radio import DiscRadio
    from repro.network.rings import RingsTopology

    if kind == "density":
        deployment, radio = density_sweep_deployment(0.6, seed=seed)
    elif kind == "width":
        deployment, radio = width_sweep_deployment(40.0, seed=seed)
    else:
        deployment = grid_jitter_placement(0.8, 25.0, 15.0, seed=seed)
        radio = DiscRadio(SWEEP_RADIO_RANGE)
    rings = RingsTopology.build(deployment, radio.connectivity(deployment))
    return topology_digests(deployment, rings, seed)


def run_digest(config) -> str:
    """SHA-256 of one run's full serialised :class:`RunResult`."""
    from repro.api import run_config_result
    from repro.serialization import to_jsonable

    result = run_config_result(config)
    return _sha(json.dumps(to_jsonable(result), sort_keys=True).encode())


def churn_digests(config) -> dict:
    """Every churn boundary of one run: re-rung levels, stranded set, tree.

    Returns ``{"boundaries": [...], "result": <run digest>}``; a boundary is
    ``[epoch, digest of (died, joined, stranded, levels, tree parents)]``.
    """
    from repro.api import build_scenario
    from repro.registry import build_aggregate
    from repro.serialization import to_jsonable

    scenario = build_scenario(config)
    scheme = scenario.build_scheme(build_aggregate(config.aggregate))
    scenario.converge(scheme, scenario.source)
    simulator = scenario.build_simulator(scheme)
    run = simulator.run(
        config.epochs, scenario.source, start_epoch=config.start_epoch
    )
    boundaries = [
        [
            update.epoch,
            _repr_sha(
                (
                    update.died,
                    update.joined,
                    update.stranded,
                    sorted(
                        (node, update.rings.level(node))
                        for node in update.rings.levels
                    ),
                    sorted(update.tree.parents.items()),
                )
            ),
        ]
        for update in simulator.membership.updates
    ]
    return {
        "boundaries": boundaries,
        "result": _sha(
            json.dumps(to_jsonable(run), sort_keys=True).encode()
        ),
    }


SYNTHETIC_SIZES = (60, 150, 600)
SYNTHETIC_SEEDS = (0, 7, 11)
SCALE_RUNS = [
    (scheme, failure)
    for scheme in ("TAG", "SD", "TD")
    for failure in ("none", "global:0.3")
]


def scale_run_config(scheme: str, failure: str, **overrides):
    """The 600-node 3-epoch run ``tests/test_scale.py`` pins per scheme."""
    from repro.api import RunConfig

    fields = dict(
        scheme=scheme, failure=failure, num_sensors=600, epochs=3,
        aggregate="sum", reading="uniform:10:100:0", converge_epochs=0, seed=0,
    )
    fields.update(overrides)
    return RunConfig(**fields)


def churn_configs() -> dict:
    """The churn runs whose every boundary is pinned."""
    from repro.api import EXPERIMENT_CONFIGS
    from repro.experiments.fig_churn import QUICK_SIZES

    timeline = EXPERIMENT_CONFIGS["churn_timeline"].replace(
        adapt_interval=10, churn_interval=10, **QUICK_SIZES
    )
    steady = timeline.replace(
        num_sensors=120, epochs=60, churn="birthdeath:0.08:0.3:1"
    )
    # Turnover heavy enough that most boundaries strand a few live nodes.
    heavy = timeline.replace(
        num_sensors=200, epochs=60, churn="birthdeath:0.45:0.15:1"
    )
    # A dead band across the field strands everything west of it (60 live
    # nodes) until the band rejoins and the dark subtrees snap back.
    band = timeline.replace(
        num_sensors=400, epochs=40, churn="blackout:10:3:0:6.5:20:30"
    )
    return {
        "churn_timeline/TAG": timeline.replace(scheme="TAG"),
        "churn_timeline/TD": timeline,
        "birthdeath/SD": steady.replace(scheme="SD"),
        "birthdeath/TD": steady,
        "birthdeath-heavy/TAG": heavy.replace(scheme="TAG"),
        "birthdeath-heavy/TD": heavy,
        "band-blackout/TAG": band.replace(scheme="TAG"),
        "band-blackout/TD": band,
        "deaths/SD": timeline.replace(
            scheme="SD", num_sensors=100, epochs=40, churn="deaths:10:80:3"
        ),
    }


def record() -> dict:
    goldens = {"topology": {}, "runs": {}, "churn": {}}
    for size in SYNTHETIC_SIZES:
        for seed in SYNTHETIC_SEEDS:
            goldens["topology"][f"synthetic/{size}/{seed}"] = (
                registered_topology("synthetic", size, seed)
            )
    goldens["topology"]["synthetic-scale/20000/0"] = registered_topology(
        "synthetic-scale", 20_000, 0
    )
    for seed in (0, 7):
        goldens["topology"][f"labdata/54/{seed}"] = registered_topology(
            "labdata", 54, seed
        )
    for kind in ("density", "width", "grid-jitter"):
        goldens["topology"][f"{kind}/0"] = sweep_topology(kind, 0)
    for scheme, failure in SCALE_RUNS:
        goldens["runs"][f"synthetic/{scheme}/{failure}"] = run_digest(
            scale_run_config(scheme, failure)
        )
    goldens["runs"]["labdata/TAG/global:0.2"] = run_digest(
        scale_run_config(
            "TAG", "global:0.2", topology="labdata", num_sensors=54
        )
    )
    for name, config in churn_configs().items():
        goldens["churn"][name] = churn_digests(config)
    return goldens


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
