"""Design spaces for adaptive (non-grid) search.

A :class:`~repro.search.grid.DesignGrid` is an *enumeration*: every axis
is a finite tuple and every point will be visited.  The adaptive
optimizers of :mod:`repro.search.optimize` need the complementary
abstraction — a :class:`SearchSpace` that can *draw* and *perturb*
candidates without ever enumerating the space, so fine DVFS ladders and
wide cluster-size ranges (the regime where the paper's cluster-design
question gets interesting, and where Schall & Härder-style wimpy scaling
studies live) stay searchable after exhaustive sweeps stop scaling.

A space is described by axes:

* :class:`ChoiceAxis` — a finite set of values (what a grid axis is);
* :class:`RangeAxis` — a continuous interval (``integer=True`` for
  integer-valued ranges like cluster size), which no grid could
  enumerate.

and three constructors:

* :meth:`SearchSpace.from_grid` — the discrete space of exactly one
  :class:`DesignGrid`; sampled candidates are grid points (identical
  :meth:`~repro.search.grid.DesignCandidate.key`), so optimizer runs and
  grid sweeps share evaluation-cache rows;
* the direct constructor — open spaces mixing :class:`ChoiceAxis` and
  :class:`RangeAxis` per dimension (node pair x cluster size x
  Beefy-fraction x DVFS states x mode);
* :meth:`SearchSpace.from_candidates` — an explicit candidate list
  (uniform sampling, unstructured mutation).

:meth:`SearchSpace.sample` draws one candidate, :meth:`SearchSpace.mutate`
perturbs one axis of an existing candidate (the evolutionary refiner's
neighborhood move), and finite spaces still offer
:meth:`SearchSpace.candidate_list` so exhaustive baselines stay
available.  All randomness flows through a caller-provided
:class:`random.Random`, so seeded optimizer runs are reproducible.

``policies=`` adds one more axis, the control policy: every candidate
the space enumerates, samples or mutates then carries one of them
(:meth:`~repro.search.grid.DesignCandidate.with_policy`), and a policy
step is one more neighborhood move.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.hardware.node import NodeSpec
from repro.policy.policies import ControlPolicy
from repro.pstore.plans import ExecutionMode
from repro.search.grid import DesignCandidate, DesignGrid, candidate_label

__all__ = ["ChoiceAxis", "RangeAxis", "SearchSpace"]


@dataclass(frozen=True)
class ChoiceAxis:
    """A finite, ordered set of values for one search dimension."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigurationError(f"axis {self.name!r} has no values")

    @property
    def is_varied(self) -> bool:
        return len(self.values) > 1

    def sample(self, rng: random.Random):
        return self.values[rng.randrange(len(self.values))]

    def mutate(self, value, rng: random.Random):
        """Move to a neighboring value (the axis order defines adjacency)."""
        if len(self.values) == 1:
            return self.values[0]
        try:
            index = self.values.index(value)
        except ValueError:
            # A value from outside the axis (hand-built candidate): restart
            # from the nearest axis value when comparable, else anywhere.
            try:
                index = min(
                    range(len(self.values)),
                    key=lambda i: abs(self.values[i] - value),
                )
            except TypeError:
                index = rng.randrange(len(self.values))
        neighbors = [i for i in (index - 1, index + 1) if 0 <= i < len(self.values)]
        return self.values[neighbors[rng.randrange(len(neighbors))]]


@dataclass(frozen=True)
class RangeAxis:
    """A continuous interval — the axis kind no grid can enumerate.

    ``integer=True`` restricts draws to whole numbers (cluster sizes);
    mutation is a Gaussian step of ``mutation_scale`` times the span,
    clipped back into the interval.
    """

    name: str
    low: float
    high: float
    integer: bool = False
    mutation_scale: float = 0.25

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ConfigurationError(
                f"axis {self.name!r}: need low < high, got [{self.low}, {self.high}]"
            )
        if not 0.0 < self.mutation_scale <= 1.0:
            raise ConfigurationError(
                f"axis {self.name!r}: mutation_scale must be in (0, 1], "
                f"got {self.mutation_scale}"
            )
        if self.integer and (
            self.low != int(self.low) or self.high != int(self.high)
        ):
            raise ConfigurationError(
                f"axis {self.name!r}: integer range bounds must be whole, "
                f"got [{self.low}, {self.high}]"
            )

    @property
    def is_varied(self) -> bool:
        return True

    def sample(self, rng: random.Random):
        if self.integer:
            return rng.randrange(int(self.low), int(self.high) + 1)
        return rng.uniform(self.low, self.high)

    def mutate(self, value, rng: random.Random):
        span = self.high - self.low
        moved = value + rng.gauss(0.0, self.mutation_scale * span)
        moved = min(self.high, max(self.low, moved))
        if self.integer:
            moved = int(round(moved))
            if moved == value:  # a zero-step integer move is no mutation
                moved = value + 1 if value < self.high else value - 1
            moved = int(min(self.high, max(self.low, moved)))
        return moved


def _as_axis(name: str, spec) -> ChoiceAxis | RangeAxis:
    """Coerce a plain tuple/list (or a bare value) into a ChoiceAxis."""
    if isinstance(spec, (ChoiceAxis, RangeAxis)):
        return spec
    if isinstance(spec, (tuple, list)):
        return ChoiceAxis(name, tuple(spec))
    return ChoiceAxis(name, (spec,))


class SearchSpace:
    """Sampleable, mutable design space over `DesignCandidate`s.

    Dimensions mirror :class:`~repro.search.grid.DesignGrid` — node pair,
    cluster size, Beefy/Wimpy mix, cluster-wide and per-type DVFS states,
    execution mode — but each numeric dimension may be a finite
    :class:`ChoiceAxis` *or* an open :class:`RangeAxis`.  The mix
    dimension is expressed as ``beefy_fractions`` (the fraction of nodes
    that are Beefy, mapped to a whole node count per sampled size);
    grid-backed spaces instead reproduce the grid's exact per-size split
    enumeration so every sampled candidate is a grid point.

    ``policies`` adds a control-policy dimension: every enumerated,
    sampled, or mutated design carries one of them
    (:meth:`~repro.search.grid.DesignCandidate.with_policy`, at this
    space's ``control_interval_s``), making autoscaling thresholds part
    of the searched object alongside node mix and DVFS.
    """

    def __init__(
        self,
        node_pairs: Sequence[tuple[NodeSpec, NodeSpec]],
        cluster_sizes,
        *,
        beefy_fractions=None,
        frequency_factors=(1.0,),
        beefy_frequency_factors=None,
        wimpy_frequency_factors=None,
        modes: Sequence[ExecutionMode | None] = (None,),
        grid: DesignGrid | None = None,
        candidates: Sequence[DesignCandidate] | None = None,
        policies=None,
        control_interval_s: float = 1.0,
    ):
        self.node_pairs = tuple(node_pairs)
        if not self.node_pairs:
            raise ConfigurationError("a search space needs at least one node pair")
        self.cluster_sizes = _as_axis("cluster_size", cluster_sizes)
        self._validate_size_axis(self.cluster_sizes)
        if beefy_fractions is None and grid is None:
            beefy_fractions = RangeAxis("beefy_fraction", 0.0, 1.0)
        self.beefy_fractions = (
            None if beefy_fractions is None else _as_axis("beefy_fraction", beefy_fractions)
        )
        if self.beefy_fractions is not None:
            self._validate_unit_axis(self.beefy_fractions, closed_low=True)
        self.frequency_factors = _as_axis("frequency_factor", frequency_factors)
        self._validate_unit_axis(self.frequency_factors)
        self.beefy_frequency_factors = (
            None
            if beefy_frequency_factors is None
            else _as_axis("beefy_frequency_factor", beefy_frequency_factors)
        )
        self.wimpy_frequency_factors = (
            None
            if wimpy_frequency_factors is None
            else _as_axis("wimpy_frequency_factor", wimpy_frequency_factors)
        )
        for axis in (self.beefy_frequency_factors, self.wimpy_frequency_factors):
            if axis is not None:
                self._validate_unit_axis(axis)
        self.modes = tuple(modes)
        if not self.modes:
            raise ConfigurationError("a search space needs at least one mode entry")
        self._grid = grid
        self._candidates = None if candidates is None else list(candidates)
        if self._candidates is not None and not self._candidates:
            raise ConfigurationError("the candidate list is empty")
        self.policy_axis = self._policy_axis(policies)
        if not (math.isfinite(control_interval_s) and control_interval_s > 0):
            raise ConfigurationError(
                "control interval must be finite and > 0, got "
                f"{control_interval_s}"
            )
        self.control_interval_s = control_interval_s
        self._enumerated: list[DesignCandidate] | None = None

    @staticmethod
    def _policy_axis(policies) -> ChoiceAxis | None:
        """Validated policy dimension (``None`` for design-only spaces)."""
        if policies is None:
            return None
        values = tuple(policies)
        for policy in values:
            if not isinstance(policy, ControlPolicy):
                raise ConfigurationError(f"not a control policy: {policy!r}")
        labels = [policy.label for policy in values]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"duplicate policy labels: {labels}")
        return ChoiceAxis("policy", values)

    # -------------------------------------------------------------- builders
    @classmethod
    def from_grid(
        cls,
        grid: DesignGrid,
        policies=None,
        control_interval_s: float = 1.0,
    ) -> "SearchSpace":
        """The discrete space of exactly one grid's points.

        Samples and mutants are grid points — same values, same
        :meth:`~repro.search.grid.DesignCandidate.key`, same labels — so
        an optimizer run over this space warms the evaluation cache for a
        later exhaustive sweep of ``grid`` (and vice versa).

        ``policies`` crosses the grid with a policy dimension: every
        point comes once per policy, as a (design x policy) candidate.
        """
        return cls(
            policies=policies,
            control_interval_s=control_interval_s,
            node_pairs=grid.node_pairs,
            cluster_sizes=ChoiceAxis("cluster_size", grid.cluster_sizes),
            frequency_factors=ChoiceAxis("frequency_factor", grid.frequency_factors),
            beefy_frequency_factors=(
                None
                if grid.beefy_frequency_factors is None
                else ChoiceAxis("beefy_frequency_factor", grid.beefy_frequency_factors)
            ),
            wimpy_frequency_factors=(
                None
                if grid.wimpy_frequency_factors is None
                else ChoiceAxis("wimpy_frequency_factor", grid.wimpy_frequency_factors)
            ),
            modes=grid.modes,
            grid=grid,
        )

    @classmethod
    def from_candidates(
        cls, candidates: Iterable[DesignCandidate]
    ) -> "SearchSpace":
        """An explicit candidate list as a (finite) search space.

        Sampling is uniform over the list; mutation degrades to
        resampling, since an arbitrary list carries no axis structure to
        take neighborhood steps in.
        """
        candidates = list(candidates)
        if not candidates:
            raise ConfigurationError("the candidate list is empty")
        first = candidates[0]
        return cls(
            node_pairs=((first.beefy, first.wimpy),),
            cluster_sizes=ChoiceAxis("cluster_size", (first.num_nodes,)),
            beefy_fractions=ChoiceAxis("beefy_fraction", (1.0,)),
            candidates=candidates,
        )

    # -------------------------------------------------------------- geometry
    @property
    def finite(self) -> bool:
        """Whether every point of the space could be enumerated."""
        if self._candidates is not None or self._grid is not None:
            return True
        return all(
            isinstance(axis, ChoiceAxis)
            for axis in self._axes()
            if axis is not None
        )

    def _axes(self):
        return (
            self.cluster_sizes,
            self.beefy_fractions,
            self.frequency_factors,
            self.beefy_frequency_factors,
            self.wimpy_frequency_factors,
        )

    def candidate_list(self) -> list[DesignCandidate]:
        """Every point of a finite space, in deterministic order."""
        if self._enumerated is None:
            self._enumerated = self._enumerate()
        return list(self._enumerated)

    def __len__(self) -> int:
        return len(self.candidate_list())

    def _enumerate(self) -> list[DesignCandidate]:
        designs = self._enumerate_designs()
        if self.policy_axis is None:
            return designs
        # Design-major order: all policies of one design are adjacent, so
        # policy effects read off consecutive rows of an exported sweep.
        return [
            self._wrap(design, policy)
            for design in designs
            for policy in self.policy_axis.values
        ]

    def _enumerate_designs(self) -> list[DesignCandidate]:
        if self._candidates is not None:
            return list(self._candidates)
        if self._grid is not None:
            return self._grid.candidate_list()
        if not self.finite:
            raise ConfigurationError(
                "this search space has open RangeAxis dimensions and cannot "
                "be enumerated; use sample()/mutate() through an optimizer"
            )
        points: list[DesignCandidate] = []
        seen: set[tuple] = set()
        for pair_index in range(len(self.node_pairs)):
            for size in self.cluster_sizes.values:
                for num_beefy in self._mix_counts(size):
                    for phi in self.frequency_factors.values:
                        for bphi in self._per_type_values(
                            self.beefy_frequency_factors
                        ):
                            for wphi in self._per_type_values(
                                self.wimpy_frequency_factors
                            ):
                                for mode in self.modes:
                                    point = self._build(
                                        pair_index, size, num_beefy,
                                        phi, bphi, wphi, mode,
                                    )
                                    if point.key() in seen:
                                        continue  # two fractions, one split
                                    seen.add(point.key())
                                    points.append(point)
        return points

    @staticmethod
    def _per_type_values(axis: ChoiceAxis | None) -> tuple:
        return (None,) if axis is None else axis.values

    def _mix_counts(self, size: int) -> list[int]:
        """The Beefy counts the mix dimension allows at one cluster size."""
        if self._grid is not None:
            return self._grid._beefy_counts(size)
        axis = self.beefy_fractions
        if isinstance(axis, RangeAxis):
            return list(range(size, -1, -1))
        counts = {int(round(fraction * size)) for fraction in axis.values}
        return sorted(counts, reverse=True)

    # -------------------------------------------------------------- sampling
    def sample(self, rng: random.Random) -> DesignCandidate:
        """Draw one candidate uniformly along each axis.

        The policy (when the space has that dimension) is drawn *after*
        the design axes, so design-only spaces consume the rng exactly as
        before — seeded optimizer runs without policies reproduce their
        historical trajectories bit for bit.
        """
        design = self._sample_design(rng)
        if self.policy_axis is None:
            return design
        return self._wrap(design, self.policy_axis.sample(rng))

    def _sample_design(self, rng: random.Random) -> DesignCandidate:
        if self._candidates is not None:
            return self._candidates[rng.randrange(len(self._candidates))]
        pair_index = rng.randrange(len(self.node_pairs))
        size = int(self.cluster_sizes.sample(rng))
        counts = self._mix_counts(size)
        num_beefy = counts[rng.randrange(len(counts))]
        phi = self.frequency_factors.sample(rng)
        bphi = (
            None
            if self.beefy_frequency_factors is None
            else self.beefy_frequency_factors.sample(rng)
        )
        wphi = (
            None
            if self.wimpy_frequency_factors is None
            else self.wimpy_frequency_factors.sample(rng)
        )
        mode = self.modes[rng.randrange(len(self.modes))]
        return self._build(pair_index, size, num_beefy, phi, bphi, wphi, mode)

    def mutate(
        self, candidate: DesignCandidate, rng: random.Random
    ) -> DesignCandidate:
        """Perturb one axis of ``candidate`` (a neighborhood move).

        The mutated axis is drawn uniformly from the dimensions that can
        actually vary; when nothing can (a single-point space), the
        candidate comes back unchanged and the caller's dedupe decides
        what to do.  List-backed spaces resample instead — an arbitrary
        candidate list has no axis structure to step along.
        """
        if self._candidates is not None:
            return self.sample(rng)
        design = _without_policy(candidate)
        dimensions = self._mutable_dimensions(design)
        if self.policy_axis is not None and self.policy_axis.is_varied:
            dimensions.append("policy")
        if not dimensions:
            return self._rewrap(design, candidate)
        dimension = dimensions[rng.randrange(len(dimensions))]
        if dimension == "policy":
            current = candidate.policy
            if current is None:  # a bare design entering a policy space
                current = self.policy_axis.values[0]
            return self._wrap(design, self.policy_axis.mutate(current, rng))
        return self._rewrap(
            self._mutate_design(design, dimension, rng), candidate
        )

    def _mutate_design(
        self, candidate: DesignCandidate, dimension: str, rng: random.Random
    ) -> DesignCandidate:
        """Step one design axis of a bare design candidate."""
        pair_index = self._pair_index(candidate)
        size = candidate.num_nodes
        num_beefy = candidate.num_beefy
        phi = candidate.frequency_factor
        bphi = candidate.beefy_frequency_factor
        wphi = candidate.wimpy_frequency_factor
        mode = candidate.mode
        if dimension == "pair":
            others = [i for i in range(len(self.node_pairs)) if i != pair_index]
            pair_index = others[rng.randrange(len(others))]
        elif dimension == "size":
            new_size = int(self.cluster_sizes.mutate(size, rng))
            # keep the Beefy share, snapped to an allowed split
            fraction = num_beefy / size
            num_beefy = self._snap_count(
                int(round(fraction * new_size)), new_size
            )
            size = new_size
        elif dimension == "mix":
            counts = self._mix_counts(size)
            axis = ChoiceAxis("mix", tuple(counts))
            num_beefy = axis.mutate(num_beefy, rng)
        elif dimension == "frequency":
            phi = self.frequency_factors.mutate(phi, rng)
        elif dimension == "beefy_frequency":
            current = candidate.effective_beefy_frequency
            bphi = self.beefy_frequency_factors.mutate(current, rng)
        elif dimension == "wimpy_frequency":
            current = candidate.effective_wimpy_frequency
            wphi = self.wimpy_frequency_factors.mutate(current, rng)
        else:  # mode
            others = [m for m in self.modes if m is not candidate.mode]
            mode = others[rng.randrange(len(others))]
        return self._build(pair_index, size, num_beefy, phi, bphi, wphi, mode)

    def _mutable_dimensions(self, candidate: DesignCandidate) -> list[str]:
        dimensions = []
        if len(self.node_pairs) > 1:
            dimensions.append("pair")
        if self.cluster_sizes.is_varied:
            dimensions.append("size")
        if len(self._mix_counts(candidate.num_nodes)) > 1:
            dimensions.append("mix")
        if self.frequency_factors.is_varied:
            dimensions.append("frequency")
        if (
            self.beefy_frequency_factors is not None
            and self.beefy_frequency_factors.is_varied
        ):
            dimensions.append("beefy_frequency")
        if (
            self.wimpy_frequency_factors is not None
            and self.wimpy_frequency_factors.is_varied
        ):
            dimensions.append("wimpy_frequency")
        if len(self.modes) > 1:
            dimensions.append("mode")
        return dimensions

    def _pair_index(self, candidate: DesignCandidate) -> int:
        for index, (beefy, wimpy) in enumerate(self.node_pairs):
            if beefy is candidate.beefy and wimpy is candidate.wimpy:
                return index
        for index, (beefy, wimpy) in enumerate(self.node_pairs):
            if (
                beefy.name == candidate.beefy.name
                and wimpy.name == candidate.wimpy.name
            ):
                return index
        return 0  # foreign candidate: mutate within the space's first pair

    def _snap_count(self, num_beefy: int, size: int) -> int:
        counts = self._mix_counts(size)
        return min(counts, key=lambda count: (abs(count - num_beefy), count))

    # ------------------------------------------------------------ candidates
    def _build(
        self,
        pair_index: int,
        size: int,
        num_beefy: int,
        phi: float,
        bphi: float | None,
        wphi: float | None,
        mode: ExecutionMode | None,
    ) -> DesignCandidate:
        beefy, wimpy = self.node_pairs[pair_index]
        num_wimpy = size - num_beefy
        # One label builder shared with DesignGrid.candidates(), so a
        # sampled grid point and its enumerated twin never diverge.  A
        # per-type factor with no matching axis (a foreign candidate
        # being mutated) keeps the grid's single-value policy: labeled
        # only when it differs from nominal clock.
        label = candidate_label(
            beefy,
            wimpy,
            num_beefy,
            num_wimpy,
            multi_pair=len(self.node_pairs) > 1,
            multi_size=self.cluster_sizes.is_varied,
            multi_freq=self.frequency_factors.is_varied,
            multi_beefy=(
                self.beefy_frequency_factors is not None
                and self.beefy_frequency_factors.is_varied
            ),
            multi_wimpy=(
                self.wimpy_frequency_factors is not None
                and self.wimpy_frequency_factors.is_varied
            ),
            multi_mode=len(self.modes) > 1,
            frequency_factor=phi,
            beefy_factor=bphi,
            wimpy_factor=wphi,
            mode=mode,
        )
        return DesignCandidate(
            label=label,
            beefy=beefy,
            wimpy=wimpy,
            num_beefy=num_beefy,
            num_wimpy=num_wimpy,
            frequency_factor=phi,
            mode=mode,
            beefy_frequency_factor=bphi,
            wimpy_frequency_factor=wphi,
        )

    def _wrap(
        self, design: DesignCandidate, policy: ControlPolicy
    ) -> DesignCandidate:
        """One (design x policy) candidate at this space's tick interval."""
        return design.with_policy(policy, self.control_interval_s)

    def _rewrap(
        self, design: DesignCandidate, original: DesignCandidate
    ) -> DesignCandidate:
        """Re-attach ``original``'s policy after a design-axis move."""
        if self.policy_axis is None:
            return design
        policy = original.policy
        if policy is None:  # a bare design entering a policy space
            policy = self.policy_axis.values[0]
        return self._wrap(design, policy)

    def with_mode(self, mode: ExecutionMode | None) -> "SearchSpace":
        """This space with one execution mode forced on every candidate."""
        space = SearchSpace(
            node_pairs=self.node_pairs,
            cluster_sizes=self.cluster_sizes,
            beefy_fractions=self.beefy_fractions,
            frequency_factors=self.frequency_factors,
            beefy_frequency_factors=self.beefy_frequency_factors,
            wimpy_frequency_factors=self.wimpy_frequency_factors,
            modes=(mode,),
            grid=None if self._grid is None else replace(self._grid, modes=(mode,)),
            candidates=(
                None
                if self._candidates is None
                else [replace(c, mode=mode) for c in self._candidates]
            ),
            policies=None if self.policy_axis is None else self.policy_axis.values,
            control_interval_s=self.control_interval_s,
        )
        return space

    # ------------------------------------------------------------ validation
    @staticmethod
    def _validate_size_axis(axis: ChoiceAxis | RangeAxis) -> None:
        if isinstance(axis, ChoiceAxis):
            for size in axis.values:
                if not isinstance(size, int) or size <= 0:
                    raise ConfigurationError(
                        f"cluster sizes must be positive integers: {axis.values}"
                    )
        elif not axis.integer or axis.low < 1:
            raise ConfigurationError(
                "a cluster-size RangeAxis must be integer with low >= 1"
            )

    @staticmethod
    def _validate_unit_axis(
        axis: ChoiceAxis | RangeAxis, closed_low: bool = False
    ) -> None:
        if isinstance(axis, ChoiceAxis):
            for value in axis.values:
                ok = (0.0 <= value <= 1.0) if closed_low else (0.0 < value <= 1.0)
                if not ok:
                    raise ConfigurationError(
                        f"axis {axis.name!r} values must be in "
                        f"{'[0, 1]' if closed_low else '(0, 1]'}: {axis.values}"
                    )
        else:
            low_ok = axis.low >= 0.0 if closed_low else axis.low > 0.0
            if not (low_ok and axis.high <= 1.0):
                raise ConfigurationError(
                    f"axis {axis.name!r} range must lie in "
                    f"{'[0, 1]' if closed_low else '(0, 1]'}: "
                    f"[{axis.low}, {axis.high}]"
                )


def _without_policy(candidate: DesignCandidate) -> DesignCandidate:
    """The design a policy-bearing candidate was built from.

    Undoes :meth:`~repro.search.grid.DesignCandidate.with_policy`: the
    policy goes, and the label loses its ``|{policy}`` part along with
    any collision suffix the engine appended after it.
    """
    if candidate.policy is None:
        return candidate
    design_label, separator, _ = candidate.label.rpartition(
        f"|{candidate.policy.label}"
    )
    return replace(
        candidate,
        label=design_label if separator else candidate.label,
        policy=None,
        control_interval_s=1.0,
    )
