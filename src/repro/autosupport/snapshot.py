"""Configuration snapshots: serializing a fleet to text and back.

The real AutoSupport feed copies system configuration weekly (§2.5):
which disks sit in which shelves, which disks form each RAID group,
disk and shelf models.  The analyses need exactly that metadata, so the
snapshot format captures the fleet's full topology (plus per-disk
install/remove times, which the paper derives from the replacement
history) in a line-oriented INI-like text that round-trips losslessly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import LogFormatError, TopologyError
from repro.fleet.fleet import RAID_TYPES, Fleet, offsets, serial_value
from repro.topology.classes import SystemClass
from repro.topology.components import MAX_DISKS_PER_SHELF
from repro.topology.raidgroup import RaidType

_FORMAT_VERSION = "1"


def write_snapshot(fleet: Fleet) -> str:
    """Serialize a fleet (topology + disk lifetimes) to snapshot text.

    Every section ends in a blank line.  The sections of each kind are
    rendered in one pass over their arrays, then laid out per system:
    the system, each shelf followed by its disks (the lifetime table is
    in system, shelf, bay and generation order), then its RAID groups.
    """
    all_slots = np.arange(fleet.slot_count)
    slot_keys = fleet.slot_keys(all_slots)
    slot_groups = fleet.slot_group_ids(all_slots)
    slot_local = (all_slots - fleet.shelf_slot_start[fleet.slot_shelf]).tolist()
    system_ids = fleet.system_ids
    disk_models = fleet.disk_models
    shelf_models = fleet.shelf_models

    systems = [
        "[system %s]\nclass = %s\nshelf_model = %s\ndisk_model = %s\n"
        "dual_path = %s\ndeploy_time = %r\n\n"
        % (
            system_id,
            system_class.value,
            shelf_model,
            disk_model,
            "true" if dual else "false",
            deploy,
        )
        for system_id, system_class, shelf_model, disk_model, dual, deploy in zip(
            system_ids,
            fleet.system_classes,
            shelf_models,
            disk_models,
            fleet.dual_path.tolist(),
            fleet.deploy_time.tolist(),
        )
    ]
    slot_starts = fleet.shelf_slot_start.tolist()
    shelves = [
        "[shelf %s]\nsystem = %s\nmodel = %s\nslots = %d\nslot_groups = %s\n\n"
        % (
            shelf_id,
            system_ids[system],
            shelf_models[system],
            last - first,
            ",".join(slot_groups[first:last]),
        )
        for shelf_id, system, first, last in zip(
            fleet.shelf_ids, fleet.shelf_system.tolist(), slot_starts, slot_starts[1:]
        )
    ]
    disks = [
        "[disk %s#%d]\nmodel = %s\nslot = %d\nserial = %s\n"
        "install_time = %s\nremove_time = %s\n\n"
        % (slot_keys[slot], gen, disk_models[system], slot_local[slot], serial, install, remove)
        for slot, gen, system, serial, install, remove in zip(
            fleet.disk_slot.tolist(),
            fleet.disk_gen.tolist(),
            fleet.slot_system[fleet.disk_slot].tolist(),
            # serial_text, inlined
            ["S%08X" % value if value >= 0 else "" for value in fleet.disk_serial.tolist()],
            _reprs(fleet.disk_install, "inf"),
            _reprs(fleet.disk_remove, "none"),
        )
    ]
    layout = fleet.group_layout(all_slots)
    member_starts = np.searchsorted(
        fleet.slot_group[layout], np.arange(fleet.raid_group_count + 1)
    ).tolist()
    members = [slot_keys[slot] for slot in layout.tolist()]
    groups = [
        "[raidgroup %s]\nsystem = %s\nraid_type = %s\nslot_keys = %s\n\n"
        % (
            group_id,
            system_ids[system],
            RAID_TYPES[raid_type].value,
            ",".join(members[first:last]),
        )
        for group_id, system, raid_type, first, last in zip(
            fleet.group_ids,
            np.repeat(
                np.arange(fleet.system_count), np.diff(fleet.system_group_start)
            ).tolist(),
            fleet.group_raid_type.tolist(),
            member_starts,
            member_starts[1:],
        )
    ]

    sections = [
        "[meta]\nversion = %s\nduration_seconds = %r\n\n"
        % (_FORMAT_VERSION, fleet.duration_seconds)
    ]
    shelf_starts = fleet.system_shelf_start.tolist()
    group_starts = fleet.system_group_start.tolist()
    disk_starts = fleet.slot_disk_start[fleet.shelf_slot_start].tolist()
    for index, system in enumerate(systems):
        sections.append(system)
        for shelf in range(shelf_starts[index], shelf_starts[index + 1]):
            sections.append(shelves[shelf])
            sections.extend(disks[disk_starts[shelf] : disk_starts[shelf + 1]])
        sections.extend(groups[group_starts[index] : group_starts[index + 1]])
    return "".join(sections)


def _reprs(values: np.ndarray, infinity: str) -> List[str]:
    """``repr`` of every value (``infinity`` for +inf), rendered once per
    distinct bit pattern."""
    bits, codes = np.unique(values.view(np.int64), return_inverse=True)
    texts = [
        infinity if value == np.inf else repr(value)
        for value in bits.view(np.float64).tolist()
    ]
    return [texts[code] for code in codes.tolist()]


def parse_snapshot(text: str) -> Fleet:
    """Rebuild a fleet from snapshot text.

    A RAID group's members are the bays whose shelf names it in
    ``slot_groups``; its ``slot_keys`` line is informational.

    Raises:
        LogFormatError: on malformed sections, dangling references, or
            content a fleet cannot hold (a shelf or disk model other
            than its system's, a malformed serial).
    """
    sections = _split_sections(text)
    meta = _take_unique(sections, "meta")
    duration = float(meta.get("duration_seconds", "0"))
    if duration <= 0.0:
        raise LogFormatError("snapshot meta lacks a positive duration")

    systems: Dict[str, int] = {}
    rows: List[Tuple[str, SystemClass, str, str, bool, float]] = []
    for name, fields in sections:
        if not name.startswith("system "):
            continue
        system_id = name.split(" ", 1)[1]
        try:
            row = (
                system_id,
                SystemClass(fields["class"]),
                fields["shelf_model"],
                fields["disk_model"],
                fields["dual_path"] == "true",
                float(fields["deploy_time"]),
            )
        except (KeyError, ValueError) as exc:
            raise LogFormatError("bad system section %r: %s" % (system_id, exc)) from None
        if row[4] and not row[1].supports_dual_path:
            raise TopologyError(
                "system class %s does not support dual-path FC" % row[1].value
            )
        systems[system_id] = len(rows)
        rows.append(row)

    # Groups first (per system, in section order): shelves name them.
    groups: List[List[Tuple[str, int]]] = [[] for _ in rows]
    for name, fields in sections:
        if not name.startswith("raidgroup "):
            continue
        group_id = name.split(" ", 1)[1]
        owner = _owner(systems, fields, group_id)
        groups[owner].append((group_id, RAID_TYPES.index(RaidType(fields["raid_type"]))))
    group_ids = [group_id for per in groups for group_id, _ in per]
    group_owners = [owner for owner, per in enumerate(groups) for _ in per]
    group_index = {
        (owner, group_id): index
        for index, (owner, group_id) in enumerate(zip(group_owners, group_ids))
    }

    shelves: List[List[Tuple[str, List[str]]]] = [[] for _ in rows]
    for name, fields in sections:
        if not name.startswith("shelf "):
            continue
        shelf_id = name.split(" ", 1)[1]
        owner = _owner(systems, fields, shelf_id)
        _same_model(shelf_id, fields["model"], rows[owner][2], "shelf")
        slot_groups = fields.get("slot_groups", "")
        bay_groups = slot_groups.split(",") if slot_groups else []
        n_slots = int(fields["slots"])
        if bay_groups and len(bay_groups) != n_slots:
            raise LogFormatError("shelf %s slot_groups mismatch" % shelf_id)
        if n_slots > MAX_DISKS_PER_SHELF:
            raise TopologyError(
                "shelf %s cannot host %d disks (max %d)"
                % (shelf_id, n_slots, MAX_DISKS_PER_SHELF)
            )
        shelves[owner].append((shelf_id, bay_groups or [""] * n_slots))
    shelf_ids = [shelf_id for per in shelves for shelf_id, _ in per]
    shelf_slots = [len(bays) for per in shelves for _, bays in per]
    shelf_slot_start = offsets(shelf_slots)
    shelf_index = {shelf_id: index for index, shelf_id in enumerate(shelf_ids)}
    shelf_owner = [owner for owner, per in enumerate(shelves) for _ in per]
    slot_group: List[int] = []
    for owner, per in enumerate(shelves):
        for shelf_id, bays in per:
            for group_id in bays:
                if group_id and (owner, group_id) not in group_index:
                    raise LogFormatError(
                        "shelf %s names RAID group %r, not one of its system's"
                        % (shelf_id, group_id)
                    )
                slot_group.append(group_index.get((owner, group_id), -1))

    disks: List[Tuple[int, int, float, float, int]] = []
    for name, fields in sections:
        if not name.startswith("disk "):
            continue
        disk_id = name.split(" ", 1)[1]
        slot_key, _, gen = disk_id.rpartition("#")
        shelf_id, _, local = slot_key.rpartition("/")
        shelf = shelf_index.get(shelf_id)
        if shelf is None:
            raise LogFormatError(
                "%s references unknown shelf %r" % (disk_id, shelf_id)
            )
        owner = rows[shelf_owner[shelf]]
        if not (
            local.isdigit()
            and "%02d" % int(local) == local
            and int(local) < shelf_slots[shelf]
        ):
            raise TopologyError("system %s has no slot %s" % (owner[0], slot_key))
        if not (gen.isdigit() and "%d" % int(gen) == gen):
            raise LogFormatError("disk id %r lacks a #<generation>" % disk_id)
        _same_model(disk_id, fields["model"], owner[3], "disk")
        remove_raw = fields["remove_time"]
        try:
            serial = serial_value(fields.get("serial", ""))
        except TopologyError as exc:
            raise LogFormatError("disk %s: %s" % (disk_id, exc)) from None
        disks.append(
            (
                int(shelf_slot_start[shelf]) + int(local),
                int(gen),
                float(fields["install_time"]),
                np.inf if remove_raw == "none" else float(remove_raw),
                serial,
            )
        )
    # The lifetime table runs by bay, then generation.
    disks.sort(key=lambda disk: disk[:2])
    columns = list(zip(*disks)) if disks else [()] * 5
    return Fleet.from_columns(
        duration,
        system_ids=[row[0] for row in rows],
        system_classes=[row[1] for row in rows],
        shelf_models=[row[2] for row in rows],
        disk_models=[row[3] for row in rows],
        dual_path=[row[4] for row in rows],
        deploy_time=[row[5] for row in rows],
        system_shelf_start=offsets([len(per) for per in shelves]),
        shelf_slot_start=shelf_slot_start,
        system_group_start=offsets([len(per) for per in groups]),
        group_raid_type=[code for per in groups for _, code in per],
        slot_group=slot_group,
        disk_slot=columns[0],
        disk_gen=columns[1],
        disk_install=columns[2],
        disk_remove=columns[3],
        disk_serial=columns[4],
        shelf_ids=shelf_ids,
        group_ids=group_ids,
    )


def _same_model(what: str, model: str, expected: str, kind: str) -> None:
    if model != expected:
        raise LogFormatError(
            "%s %s has model %r, its system's %s model is %r"
            % (kind, what, model, kind, expected)
        )


def _split_sections(text: str) -> List[Tuple[str, Dict[str, str]]]:
    sections: List[Tuple[str, Dict[str, str]]] = []
    current: Optional[Tuple[str, Dict[str, str]]] = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = (line[1:-1], {})
            sections.append(current)
            continue
        if current is None or "=" not in line:
            raise LogFormatError("stray snapshot line: %r" % line[:80])
        key, _, value = line.partition("=")
        current[1][key.strip()] = value.strip()
    return sections


def _take_unique(
    sections: List[Tuple[str, Dict[str, str]]], name: str
) -> Dict[str, str]:
    matches = [fields for section, fields in sections if section == name]
    if len(matches) != 1:
        raise LogFormatError("expected exactly one [%s] section" % name)
    return matches[0]


def _owner(systems: Dict[str, int], fields: Dict[str, str], child: str) -> int:
    system_id = fields.get("system", "")
    if system_id not in systems:
        raise LogFormatError("%s references unknown system %r" % (child, system_id))
    return systems[system_id]
