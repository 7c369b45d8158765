"""Declarative cluster scenarios: JSON in, validated spec out.

A scenario file under ``configs/cluster/`` describes one reproducible
fabric run — how many primaries, the backup pool and its per-host
shadow capacity, the ST-TCP tunables, the per-pair client workload, and
the mid-run crash — in the style of the districting repo's
``config-tableN.json`` grids: the file *is* the experiment's identity.
The harness content-hashes the parsed spec (not the file path), so the
same JSON always lands on the same result-store cell.

Schema (all keys optional unless noted)::

    {
      "name": "smoke",                # required
      "primaries": 2,                 # required, >= 1
      "backups": 2,                   # required, >= 1
      "capacity": 2,                  # shadows per pool host, default 1
      "assignment": {"pool0": ["s0"]} # optional explicit plan (else least-loaded)
      "profile": "fast_lan",          # or "paper_testbed"
      "sttcp": {"hb_interval": 0.05, ...},   # STTCPConfig field subset
      "workload": {"exchanges": 30, "response_size": 0, "service_time": 0.0},
      "crash": {"primary": 0, "at": 0.6},    # which primary, absolute sim time
      "arbiter": {"actuation_delay": 0.01, "sabotaged": false},
      "deadline": 60.0,
      "seed": 7
    }

Unknown keys anywhere are rejected, and so is a value of the wrong type
(``"primaries": "two"``) — a typo must fail loudly, as a
:class:`~repro.errors.ConfigurationError` naming the key, not run a
subtly different scenario.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.harness.calibrate import FAST_LAN, PAPER_TESTBED, NetworkProfile
from repro.sttcp.config import STTCPConfig

PROFILES: Dict[str, NetworkProfile] = {
    "fast_lan": FAST_LAN,
    "paper_testbed": PAPER_TESTBED,
}

#: First UDP channel port; service *i* uses ``CHANNEL_PORT_BASE + i`` so
#: one pool host can run one engine (one socket) per shadowed primary.
CHANNEL_PORT_BASE = 39000

_TOP_KEYS = {
    "name",
    "primaries",
    "backups",
    "capacity",
    "assignment",
    "profile",
    "sttcp",
    "workload",
    "crash",
    "arbiter",
    "deadline",
    "seed",
}
_WORKLOAD_KEYS = {"exchanges", "response_size", "service_time"}
_CRASH_KEYS = {"primary", "at"}
_ARBITER_KEYS = {"actuation_delay", "sabotaged"}
_STTCP_KEYS = {field.name for field in dataclasses.fields(STTCPConfig)} - {
    "channel_port",  # per-service, owned by the spec — not scriptable
    "stonith_delay",  # the arbiter section owns the actuation delay
}
#: STTCPConfig field → its annotation (``float``, ``Optional[int]``, …).
_STTCP_TYPES = typing.get_type_hints(STTCPConfig)


@dataclasses.dataclass(frozen=True)
class ClusterSpec:
    """One validated cluster scenario (pure data, JSON-able)."""

    name: str
    primaries: int
    backups: int
    capacity: int = 1
    assignment: Optional[Dict[str, List[str]]] = None
    profile: str = "fast_lan"
    sttcp: Dict[str, Any] = dataclasses.field(default_factory=dict)
    exchanges: int = 30
    #: 0 → the Echo application; > 0 → Interactive-style sized responses.
    response_size: int = 0
    service_time: float = 0.0
    crash_primary: int = 0
    crash_at: float = 0.6
    arbiter_delay: float = 0.010
    arbiter_sabotaged: bool = False
    deadline: float = 60.0
    seed: int = 7

    # Derived naming ----------------------------------------------------------------
    def service_names(self) -> List[str]:
        return [f"s{i}" for i in range(self.primaries)]

    def backup_names(self) -> List[str]:
        return [f"pool{j}" for j in range(self.backups)]

    def network_profile(self) -> NetworkProfile:
        return PROFILES[self.profile]

    def workload(self) -> Any:
        """The per-pair client application (Echo, or sized responses)."""
        from repro.apps.workload import AppWorkload, echo_workload

        if self.response_size <= 0:
            return echo_workload(self.exchanges)
        return AppWorkload(
            "interactive",
            exchanges=self.exchanges,
            response_size=self.response_size,
            service_time=self.service_time,
        )

    def sttcp_config(self, service_index: int) -> STTCPConfig:
        """The per-service config: shared tunables, private channel port."""
        return STTCPConfig(
            channel_port=CHANNEL_PORT_BASE + service_index,
            stonith_delay=self.arbiter_delay,
            **self.sttcp,
        )

    def params(self) -> Dict[str, Any]:
        """JSON-able identity for the result store's content hash."""
        return dataclasses.asdict(self)


def _section(raw: Dict[str, Any], key: str, allowed: set) -> Dict[str, Any]:
    """The sub-object ``raw[key]`` (empty when absent), holding only ``allowed`` keys."""
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigurationError(f"{key} must be an object, got {section!r}")
    _require_keys(section, allowed, key)
    return dict(section)


def _require_keys(section: Dict[str, Any], allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown {where} key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _typed(section: Dict[str, Any], key: str, default: Any, kind: type, where: str = "") -> Any:
    """``section[key]`` (``default`` when absent) as a ``kind``: an int
    passes for a float, a bool never passes for a number."""
    value = section.get(key, default)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigurationError(f"{where}{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    return kind(value)


def _check_sttcp(sttcp: Dict[str, Any]) -> None:
    """Each tunable has its STTCPConfig field's type (None where Optional)."""
    for key, value in sttcp.items():
        hint = _STTCP_TYPES[key]
        kinds = typing.get_args(hint) or (hint,)
        if value is not None or type(None) not in kinds:
            _typed(sttcp, key, None, kinds[0], "sttcp.")


def spec_from_dict(raw: Dict[str, Any]) -> ClusterSpec:
    """Validate a parsed scenario document into a :class:`ClusterSpec`."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"scenario must be a JSON object, got {type(raw).__name__}")
    _require_keys(raw, _TOP_KEYS, "scenario")
    for key in ("name", "primaries", "backups"):
        if key not in raw:
            raise ConfigurationError(f"scenario is missing required key {key!r}")
    primaries = _typed(raw, "primaries", None, int)
    backups = _typed(raw, "backups", None, int)
    capacity = _typed(raw, "capacity", 1, int)
    if primaries < 1:
        raise ConfigurationError(f"primaries must be >= 1, got {primaries}")
    if backups < 1:
        raise ConfigurationError(f"backups must be >= 1, got {backups}")
    if capacity < 1:
        raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
    if primaries > backups * capacity:
        raise ConfigurationError(
            f"{primaries} primaries do not fit {backups} backups x capacity {capacity}"
        )
    profile = _typed(raw, "profile", "fast_lan", str)
    if profile not in PROFILES:
        raise ConfigurationError(
            f"unknown profile {profile!r}; known: {sorted(PROFILES)}"
        )
    sttcp = _section(raw, "sttcp", _STTCP_KEYS)
    _check_sttcp(sttcp)
    workload = _section(raw, "workload", _WORKLOAD_KEYS)
    crash = _section(raw, "crash", _CRASH_KEYS)
    arbiter = _section(raw, "arbiter", _ARBITER_KEYS)
    crash_primary = _typed(crash, "primary", 0, int, "crash.")
    if not 0 <= crash_primary < primaries:
        raise ConfigurationError(
            f"crash.primary must name a primary in [0, {primaries}), got {crash_primary}"
        )
    assignment = raw.get("assignment")
    if assignment is not None:
        if not isinstance(assignment, dict) or not all(
            isinstance(v, list) and all(isinstance(s, str) for s in v)
            for v in assignment.values()
        ):
            raise ConfigurationError(
                f"assignment must map each backup to a list of service names, "
                f"got {assignment!r}"
            )
        assignment = {k: list(v) for k, v in assignment.items()}
        _validate_assignment(assignment, primaries, backups, capacity)
    spec = ClusterSpec(
        name=_typed(raw, "name", None, str),
        primaries=primaries,
        backups=backups,
        capacity=capacity,
        assignment=assignment,
        profile=profile,
        sttcp=sttcp,
        exchanges=_typed(workload, "exchanges", 30, int, "workload."),
        response_size=_typed(workload, "response_size", 0, int, "workload."),
        service_time=_typed(workload, "service_time", 0.0, float, "workload."),
        crash_primary=crash_primary,
        crash_at=_typed(crash, "at", 0.6, float, "crash."),
        arbiter_delay=_typed(arbiter, "actuation_delay", 0.010, float, "arbiter."),
        arbiter_sabotaged=_typed(arbiter, "sabotaged", False, bool, "arbiter."),
        deadline=_typed(raw, "deadline", 60.0, float),
        seed=_typed(raw, "seed", 7, int),
    )
    # Fail at load time, not mid-run, if the tunables are inconsistent.
    try:
        spec.sttcp_config(0).validate()
    except ValueError as exc:
        raise ConfigurationError(f"sttcp: {exc}") from None
    return spec


def _validate_assignment(
    assignment: Dict[str, List[str]], primaries: int, backups: int, capacity: int
) -> None:
    services = {f"s{i}" for i in range(primaries)}
    pool = {f"pool{j}" for j in range(backups)}
    unknown_backups = set(assignment) - pool
    if unknown_backups:
        raise ConfigurationError(f"assignment names unknown backup(s) {sorted(unknown_backups)}")
    seen: set = set()
    for backup, assigned in assignment.items():
        if len(assigned) > capacity:
            raise ConfigurationError(
                f"assignment overloads {backup!r}: {len(assigned)} services, capacity {capacity}"
            )
        for service in assigned:
            if service not in services:
                raise ConfigurationError(f"assignment names unknown service {service!r}")
            if service in seen:
                raise ConfigurationError(f"service {service!r} assigned twice")
            seen.add(service)
    missing = services - seen
    if missing:
        raise ConfigurationError(f"assignment leaves service(s) {sorted(missing)} unshadowed")


def spec_from_params(params: Dict[str, Any]) -> ClusterSpec:
    """Rebuild a spec from :meth:`ClusterSpec.params` output (grid cells)."""
    return ClusterSpec(**params)


def load_scenario(path: Any) -> ClusterSpec:
    """Load and validate one scenario JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"{path}: {exc.strerror}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from None
    try:
        return spec_from_dict(raw)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
