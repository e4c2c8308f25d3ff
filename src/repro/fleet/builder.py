"""Build a concrete :class:`~repro.fleet.fleet.Fleet` from a spec.

Construction is deterministic given a :class:`~repro.rng.RandomSource`:
each system draws its shelf model, primary disk model, path
configuration, deployment date, RAID type, shelf count and disk serials
from its own keyed stream ``("fleet", class, index)``.  Everything else
— shelf and bay numbering, RAID group layout, the initial disk of every
bay — follows from those draws and is computed for all systems at once
as arrays.  No shelf, bay or disk object is created; replacement disks
are added to the lifetime table later by the failure injector.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.fleet import catalog
from repro.fleet.fleet import RAID_TYPES, Fleet, offsets
from repro.fleet.spec import FleetSpec
from repro.rng import RandomSource
from repro.topology.classes import SYSTEM_CLASS_ORDER, SystemClass
from repro.topology.layout import group_layout
from repro.topology.raidgroup import RaidType


def system_id_for(system_class: SystemClass, index: int) -> str:
    """The deterministic id of the ``index``-th system of a class.

    Ids are a pure function of (class, global index), which is what lets
    a sharded run name — and therefore partition — the systems of a
    fleet spec without building them.
    """
    return _ID_FORMAT % (_CLASS_TAGS[system_class], index)


def build_fleet(
    spec: FleetSpec,
    random_source: RandomSource,
    selection: Optional[Mapping[SystemClass, Sequence[int]]] = None,
) -> Fleet:
    """Materialize the fleet a spec describes.

    Args:
        spec: population shapes per class, scale, and layout policy.
        random_source: root of the deterministic random streams.
        selection: optional subset to build — per class, the *global*
            system indices to include (``None`` builds everything).
            Because each system draws from a stream keyed by its global
            index, a selected system is byte-identical to the same
            system in the full build; this is how shards reproduce
            exactly their slice of the unsharded fleet.

    Returns:
        A fleet whose bays hold their initial disks (installed at each
        system's deployment time) and whose RAID groups are laid out per
        the spec's policy.
    """
    with obs.span("fleet.build", scale=spec.scale):
        draws: List[_ClassDraws] = []
        for system_class in SYSTEM_CLASS_ORDER:
            if system_class not in spec.class_specs:
                continue
            count = spec.scaled_systems(system_class)
            if selection is None:
                indices: Sequence[int] = range(count)
            else:
                indices = sorted(selection.get(system_class, ()))
                if indices and not (0 <= indices[0] <= indices[-1] < count):
                    raise ValueError(
                        "selection indices for %s out of range [0, %d)"
                        % (system_class.value, count)
                    )
            draws.append(_draw_class(spec, system_class, indices, random_source))
            obs.inc(
                "fleet.systems", len(indices), system_class=system_class.value
            )
        fleet = _assemble(spec, draws)
    obs.set_gauge("fleet.disks", fleet.slot_count)
    return fleet


_ID_FORMAT = "%s-%05d"
_CLASS_TAGS = {
    SystemClass.NEARLINE: "nl",
    SystemClass.LOW_END: "le",
    SystemClass.MID_RANGE: "mr",
    SystemClass.HIGH_END: "he",
}


class _ClassDraws:
    """One class's per-system draws, in selection order."""

    def __init__(self, system_class: SystemClass, n: int) -> None:
        self.system_class = system_class
        self.ids: List[str] = []
        self.shelf_models: List[str] = []
        self.disk_models: List[str] = []
        # Per system: shelf, disk, [path,] deploy and RAID uniforms.
        self.uniforms = np.empty((n, 5 if system_class.supports_dual_path else 4))
        self.shelves = np.empty(n, dtype=np.int64)
        self.serials: List[np.ndarray] = []


def _cdf(pairs) -> Tuple[List[str], np.ndarray]:
    """Names and the cumulative weights ``Generator.choice`` samples by."""
    names = [name for name, _ in pairs]
    weights = np.array([weight for _, weight in pairs], dtype=float)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return names, cdf


def _draw_class(
    spec: FleetSpec,
    system_class: SystemClass,
    indices: Sequence[int],
    random_source: RandomSource,
) -> _ClassDraws:
    """Every selected system's draws from its own stream.

    The draws are the ones ``rng.choice(names, p=weights)`` (twice),
    ``rng.random()`` (path, when the class supports dual paths),
    ``rng.uniform(0, spread)`` and ``rng.random()`` (RAID type) make,
    taken as one vector of uniforms, then the Poisson shelf count and
    one 32-bit serial per bay.  Only the draws run per system; the
    model choices are one search per class (shelf) and per shelf model
    (disk) over the uniforms.
    """
    class_spec = spec.class_specs[system_class]
    bays_per_shelf = class_spec.slots_per_shelf
    shelves_mean = class_spec.shelves_mean
    out = _ClassDraws(system_class, len(indices))
    streams = random_source.streams("fleet", system_class.value, indices=indices)
    n_uniforms = out.uniforms.shape[1]
    for row, rng in enumerate(streams):
        out.uniforms[row] = rng.random(n_uniforms)
        shelves = max(1, int(rng.poisson(shelves_mean)))
        out.shelves[row] = shelves
        out.serials.append(rng.integers(0, 2**32, size=shelves * bays_per_shelf))

    shelf_names, shelf_cdf = _cdf(
        list(catalog.shelf_models_for_class(system_class).items())
    )
    shelf_codes = shelf_cdf.searchsorted(out.uniforms[:, 0], side="right")
    disk_codes = np.empty(len(indices), dtype=np.int64)
    disk_names: List[List[str]] = []
    for code, shelf_model in enumerate(shelf_names):
        names, disk_cdf = _cdf(catalog.disk_models_for(system_class, shelf_model))
        rows = shelf_codes == code
        disk_codes[rows] = disk_cdf.searchsorted(out.uniforms[rows, 1], side="right")
        disk_names.append(names)
    out.shelf_models = [shelf_names[code] for code in shelf_codes.tolist()]
    out.disk_models = [
        disk_names[shelf][disk]
        for shelf, disk in zip(shelf_codes.tolist(), disk_codes.tolist())
    ]
    tag = _CLASS_TAGS[system_class]
    out.ids = [_ID_FORMAT % (tag, index) for index in indices]
    return out


def _assemble(spec: FleetSpec, draws: List[_ClassDraws]) -> Fleet:
    """Turn the per-system draws into the fleet's arrays."""
    classes: List[SystemClass] = []
    dual: List[np.ndarray] = []
    deploy: List[np.ndarray] = []
    raid6: List[np.ndarray] = []
    bays_per_shelf: List[np.ndarray] = []
    group_size: List[np.ndarray] = []
    for part in draws:
        class_spec = spec.class_specs[part.system_class]
        n = len(part.ids)
        classes.extend([part.system_class] * n)
        if part.system_class.supports_dual_path:
            dual.append(part.uniforms[:, 2] < class_spec.dual_path_fraction)
        else:
            dual.append(np.zeros(n, dtype=bool))
        deploy.append(spec.deployment_spread_seconds * part.uniforms[:, -2])
        raid6.append(~(part.uniforms[:, -1] < class_spec.raid4_fraction))
        bays_per_shelf.append(np.full(n, class_spec.slots_per_shelf, dtype=np.int64))
        group_size.append(np.full(n, class_spec.raid_group_size, dtype=np.int64))
    shelves = _concat([part.shelves for part in draws], np.int64)
    per_shelf = _concat(bays_per_shelf, np.int64)
    slot_group, groups = group_layout(
        shelves, per_shelf, _concat(group_size, np.int64),
        spec.layout_policy, spec.span_width,
    )
    system_group_start = offsets(groups)
    bays = shelves * per_shelf
    slot_system = np.repeat(np.arange(shelves.size), bays)
    deploy_time = _concat(deploy, np.float64)
    raid_codes = np.where(_concat(raid6, bool), RAID_TYPES.index(RaidType.RAID6), 0)
    n_bays = int(bays.sum())
    serials = [serial for part in draws for serial in part.serials]
    return Fleet.from_columns(
        spec.duration_seconds,
        system_ids=[system_id for part in draws for system_id in part.ids],
        system_classes=classes,
        shelf_models=[model for part in draws for model in part.shelf_models],
        disk_models=[model for part in draws for model in part.disk_models],
        dual_path=_concat(dual, bool),
        deploy_time=deploy_time,
        system_shelf_start=offsets(shelves),
        shelf_slot_start=offsets(np.repeat(per_shelf, shelves)),
        system_group_start=system_group_start,
        group_raid_type=np.repeat(raid_codes, groups),
        slot_group=slot_group + system_group_start[slot_system],
        disk_slot=np.arange(n_bays),
        disk_gen=np.zeros(n_bays, dtype=np.int32),
        disk_install=deploy_time[slot_system],
        disk_remove=np.full(n_bays, np.inf),
        disk_serial=np.concatenate(serials) if serials else np.zeros(0, np.int64),
    )


def _concat(parts: List[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)
