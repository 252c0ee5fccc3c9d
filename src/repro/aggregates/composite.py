"""Multiple concurrent queries over one topology (Section 4.1's design aim).

The paper's adaptation design deliberately avoids query-specific feedback:

    "Because this design does not rely on the specifics of any one query,
    the resulting delta region is effective for a variety of concurrently
    running queries."

:class:`CompositeAggregate` makes that concrete: it bundles several
aggregates into a single :class:`~repro.aggregates.base.Aggregate`, so any
scheme (TAG, SD, or Tributary-Delta) runs them all in *one* message sweep —
one transmission per node per epoch carrying every query's partial result,
with the delta region and the contributing-count feedback shared. Message
sizes add up component-wise, exactly what concatenating payloads in one
TinyDB packet train costs.

Per-component answers are exposed through :attr:`last_evaluations`, stashed
at each base-station evaluation (schemes evaluate once per epoch, and the
library is single-threaded, so the stash is always the current epoch's).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.aggregates.base import Aggregate, zip_blocks
from repro.errors import ConfigurationError

#: Component-wise tuples of partials / synopses.
CompositePartial = Tuple[object, ...]
CompositeSynopsis = Tuple[object, ...]


def dedupe_names(names: Sequence[str]) -> List[str]:
    """Disambiguate duplicate names with ``#k`` suffixes (first stays bare).

    The one naming convention shared by composite component names and
    workload query handles: ``["count", "count"]`` -> ``["count",
    "count#2"]``.
    """
    result: List[str] = []
    seen: Dict[str, int] = {}
    for name in names:
        count = seen.get(name, 0)
        seen[name] = count + 1
        result.append(name if count == 0 else f"{name}#{count + 1}")
    return result


class CompositeAggregate(Aggregate[CompositePartial, CompositeSynopsis]):
    """Several aggregates computed in one shared aggregation wave.

    Args:
        aggregates: the component queries, in a fixed order.
        primary: index of the component whose scalar answer the scheme
            interfaces report (and whose truth drives RMS metrics). Pick the
            component the experiment tracks; all components remain readable
            via :attr:`last_evaluations`.
    """

    def __init__(
        self, aggregates: Sequence[Aggregate], primary: int = 0
    ) -> None:
        if not aggregates:
            raise ConfigurationError("composite needs at least one aggregate")
        if not 0 <= primary < len(aggregates):
            raise ConfigurationError(
                f"primary index {primary} out of range for "
                f"{len(aggregates)} aggregates"
            )
        self._aggregates: Tuple[Aggregate, ...] = tuple(aggregates)
        self._primary = primary
        self.name = "composite(" + "+".join(a.name for a in aggregates) + ")"
        #: Per-component answers from the most recent base-station
        #: evaluation, in component order; ``None`` before the first epoch.
        self.last_evaluations: Optional[Tuple[float, ...]] = None

    @property
    def components(self) -> Tuple[Aggregate, ...]:
        """The bundled aggregates, in order."""
        return self._aggregates

    @property
    def primary(self) -> Aggregate:
        """The component whose answer the scheme interfaces report."""
        return self._aggregates[self._primary]

    def component_names(self) -> List[str]:
        """Component names, disambiguated when duplicated."""
        return dedupe_names([aggregate.name for aggregate in self._aggregates])

    def evaluations_by_name(self) -> Dict[str, float]:
        """The latest per-component answers keyed by component name."""
        if self.last_evaluations is None:
            raise ConfigurationError(
                "no evaluation has happened yet: run an epoch first"
            )
        return dict(zip(self.component_names(), self.last_evaluations))

    def _stash(self, values: Sequence[float]) -> float:
        self.last_evaluations = tuple(values)
        return values[self._primary]

    # -- per-slot dispatch: every component sees the same reading here; a
    # workload overrides these two hooks to split a reading tuple per slot.

    def _slot_readings(self, reading) -> Sequence:
        """One cell's reading as seen by each component, in slot order."""
        return (reading,) * len(self._aggregates)

    def _slot_rows(self, reading_rows: Sequence[Sequence]) -> Sequence:
        """A block's ``reading_rows`` as seen by each component."""
        return (reading_rows,) * len(self._aggregates)

    # -- tree ------------------------------------------------------------

    def tree_local(self, node: int, epoch: int, reading) -> CompositePartial:
        return tuple(
            aggregate.tree_local(node, epoch, value)
            for aggregate, value in zip(
                self._aggregates, self._slot_readings(reading)
            )
        )

    def tree_local_block(
        self, nodes, epochs, reading_rows
    ) -> List[List[CompositePartial]]:
        return zip_blocks(
            [
                aggregate.tree_local_block(nodes, epochs, rows)
                for aggregate, rows in zip(
                    self._aggregates, self._slot_rows(reading_rows)
                )
            ]
        )

    def tree_merge(self, a: CompositePartial, b: CompositePartial) -> CompositePartial:
        return tuple(
            aggregate.tree_merge(pa, pb)
            for aggregate, pa, pb in zip(self._aggregates, a, b)
        )

    def tree_eval(self, partial: CompositePartial) -> float:
        return self._stash(
            [
                aggregate.tree_eval(component)
                for aggregate, component in zip(self._aggregates, partial)
            ]
        )

    def tree_words(self, partial: CompositePartial) -> int:
        return sum(
            aggregate.tree_words(component)
            for aggregate, component in zip(self._aggregates, partial)
        )

    # -- multi-path ----------------------------------------------------------

    def synopsis_local(
        self, node: int, epoch: int, reading
    ) -> CompositeSynopsis:
        return tuple(
            aggregate.synopsis_local(node, epoch, value)
            for aggregate, value in zip(
                self._aggregates, self._slot_readings(reading)
            )
        )

    def synopsis_local_block(
        self, nodes, epochs, reading_rows
    ) -> List[List[CompositeSynopsis]]:
        return zip_blocks(
            [
                aggregate.synopsis_local_block(nodes, epochs, rows)
                for aggregate, rows in zip(
                    self._aggregates, self._slot_rows(reading_rows)
                )
            ]
        )

    def synopsis_fuse(
        self, a: CompositeSynopsis, b: CompositeSynopsis
    ) -> CompositeSynopsis:
        return tuple(
            aggregate.synopsis_fuse(sa, sb)
            for aggregate, sa, sb in zip(self._aggregates, a, b)
        )

    def synopsis_fuse_many(
        self, synopses: Sequence[CompositeSynopsis]
    ) -> CompositeSynopsis:
        """One transpose, then each component fuses its own column."""
        return tuple(
            aggregate.synopsis_fuse_many(column)
            for aggregate, column in zip(self._aggregates, zip(*synopses))
        )

    def synopsis_eval(self, synopsis: CompositeSynopsis) -> float:
        return self._stash(
            [
                aggregate.synopsis_eval(component)
                for aggregate, component in zip(self._aggregates, synopsis)
            ]
        )

    def synopsis_words(self, synopsis: CompositeSynopsis) -> int:
        return sum(
            aggregate.synopsis_words(component)
            for aggregate, component in zip(self._aggregates, synopsis)
        )

    def synopsis_words_batch(self, synopses) -> List[int]:
        """Combined wire sizes, each component's vectorized sizing kept."""
        totals = [0] * len(synopses)
        for i, aggregate in enumerate(self._aggregates):
            for j, words in enumerate(
                aggregate.synopsis_words_batch(
                    [synopsis[i] for synopsis in synopses]
                )
            ):
                totals[j] += words
        return totals

    # -- neutral elements ----------------------------------------------------

    def tree_empty(self) -> CompositePartial:
        return tuple(aggregate.tree_empty() for aggregate in self._aggregates)

    def synopsis_empty(self) -> CompositeSynopsis:
        return tuple(
            aggregate.synopsis_empty() for aggregate in self._aggregates
        )

    # -- conversion --------------------------------------------------------------

    def convert(
        self, partial: CompositePartial, sender: int, epoch: int
    ) -> CompositeSynopsis:
        return tuple(
            aggregate.convert(component, sender, epoch)
            for aggregate, component in zip(self._aggregates, partial)
        )

    def convert_block(self, partials, senders, epochs) -> List[CompositeSynopsis]:
        columns = [
            aggregate.convert_block(
                [partial[i] for partial in partials], senders, epochs
            )
            for i, aggregate in enumerate(self._aggregates)
        ]
        return list(zip(*columns))

    # -- mixed evaluation --------------------------------------------------------

    def mixed_eval(
        self,
        partials: Sequence[CompositePartial],
        fused: Optional[CompositeSynopsis],
    ) -> float:
        values = []
        for index, aggregate in enumerate(self._aggregates):
            component_partials = [partial[index] for partial in partials]
            component_fused = fused[index] if fused is not None else None
            values.append(aggregate.mixed_eval(component_partials, component_fused))
        return self._stash(values)

    # -- truth ---------------------------------------------------------------------

    def exact(self, readings: Sequence[float]) -> float:
        return self.primary.exact(readings)

    def exact_all(self, readings: Sequence[float]) -> List[float]:
        """Loss-free answers for every component."""
        return [aggregate.exact(readings) for aggregate in self._aggregates]

    def synopsis_counts_contributors(self) -> bool:
        """Always ``False``: the piggyback contributing sketch travels.

        A Count component *could* double as the contributing count (its own
        flag is True), but letting the scheme read it through this
        composite's ``synopsis_eval`` would re-stash component answers after
        ``mixed_eval`` already stashed the authoritative mixed ones. The few
        extra RLE-encoded words of the piggyback sketch buy unambiguous
        per-component answers; multi-query deployments keep the paper's
        adaptation feedback either way.
        """
        return False
