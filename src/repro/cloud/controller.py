"""The CellFusion controller: control and management plane (§6.1).

The paper lists five responsibilities; three are modelled here: (1) CPE
authentication, (3) high availability — monitoring proxy health and
failing over, and (4) orchestration — pointing a CPE at candidate servers
by availability and load (the CPE then measures delay and picks the
minimum).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .pop import PopNode

__all__ = [
    "HEARTBEAT_TIMEOUT",
    "Controller",
]

#: A proxy missing heartbeats for this long is considered down.
HEARTBEAT_TIMEOUT = 10.0


class AuthError(Exception):
    """Device authentication failure."""


@dataclass
class DeviceRecord:
    device_id: str
    secret: bytes
    revoked: bool = False
    assigned_pop: Optional[str] = None


class Controller:
    """Central-cloud control plane."""

    def __init__(self, secret_key: bytes = b"cellfusion-controller"):
        self._key = secret_key
        self._devices: Dict[str, DeviceRecord] = {}
        self._pops: Dict[str, PopNode] = {}
        self.failovers = 0

    # -- device lifecycle ------------------------------------------------------

    def register_device(self, device_id: str) -> str:
        """Provision a CPE; returns its auth token (kept on the device)."""
        if device_id in self._devices and not self._devices[device_id].revoked:
            raise ValueError("device %s already registered" % device_id)
        secret = hmac.new(self._key, device_id.encode(), hashlib.sha256).digest()
        self._devices[device_id] = DeviceRecord(device_id, secret)
        return secret.hex()

    def authenticate(self, device_id: str, token: str) -> bool:
        """Only legal users may access the service (§6.1 function 1)."""
        record = self._devices.get(device_id)
        if record is None or record.revoked:
            return False
        try:
            presented = bytes.fromhex(token)
        except ValueError:
            return False
        return hmac.compare_digest(record.secret, presented)

    # -- proxy fleet / health ----------------------------------------------------

    def register_pop(self, pop: PopNode) -> None:
        self._pops[pop.pop_id] = pop

    def pops(self) -> List[PopNode]:
        return list(self._pops.values())

    def heartbeat(self, pop_id: str, active_sessions: int, now: float) -> None:
        pop = self._pops.get(pop_id)
        if pop is None:
            return
        pop.active_sessions = active_sessions
        pop.last_heartbeat = now
        pop.healthy = True

    def check_health(self, now: float) -> List[str]:
        """Mark PoPs with stale heartbeats unhealthy (§6.1 function 3)."""
        failed = []
        for pop in self._pops.values():
            if pop.healthy and now - pop.last_heartbeat > HEARTBEAT_TIMEOUT:
                pop.healthy = False
                failed.append(pop.pop_id)
        return failed

    def drain(self, pop_id: str) -> None:
        """Stop placing new vehicles on a PoP (existing sessions stay)."""
        pop = self._pops.get(pop_id)
        if pop is not None:
            pop.draining = True

    # -- orchestration -------------------------------------------------------------

    def candidate_proxies(
        self, device_id: str, token: str, count: int = 3
    ) -> List[PopNode]:
        """Healthy, least-loaded PoPs for the CPE to probe (§6.1 func. 4).

        The CPE measures network delay to each candidate and connects to
        the minimum-delay one.
        """
        if not self.authenticate(device_id, token):
            raise AuthError("authentication failed for %s" % device_id)
        healthy = [p for p in self._pops.values() if p.has_capacity]
        healthy.sort(key=lambda p: (p.load, p.pop_id))
        return healthy[:count]

    def assign(self, device_id: str, pop_id: str) -> None:
        """Record the CPE's chosen PoP and count the session."""
        record = self._devices.get(device_id)
        pop = self._pops.get(pop_id)
        if record is None or pop is None:
            raise ValueError("unknown device or pop")
        if record.assigned_pop == pop_id:
            return
        if record.assigned_pop is not None:
            previous = self._pops.get(record.assigned_pop)
            if previous is not None:
                previous.release()
            self.failovers += 1
        pop.admit()
        record.assigned_pop = pop_id

    def assigned_pop(self, device_id: str) -> Optional[str]:
        record = self._devices.get(device_id)
        return record.assigned_pop if record else None

    def place(
        self,
        device_id: str,
        token: str,
        location: Tuple[float, float],
        rng=None,
        count: int = 3,
    ) -> Optional[PopNode]:
        """Orchestrate one CPE end to end: candidates -> delay -> assign.

        Models the paper's two-step placement (§6.1): the controller
        offers the ``count`` healthy least-loaded PoPs, the CPE measures
        access delay to each and connects to the minimum.  Exact delay
        ties (co-located PoPs on the grid) are broken by drawing from
        ``rng`` — pass a per-vehicle seeded generator
        (``seeded_rng(fleet_seed, "vehicle-place", vid)``) and placement
        is a pure function of the vehicle, independent of fleet
        iteration or shard order.  Without ``rng`` ties fall back to
        lexicographic ``pop_id``.  Returns the chosen PoP (assigned and
        admitted), or ``None`` when no candidate has capacity.
        """
        candidates = self.candidate_proxies(device_id, token, count)
        if not candidates:
            return None
        best_delay = min(p.access_delay(location) for p in candidates)
        tied = [p for p in candidates
                if p.access_delay(location) == best_delay]
        tied.sort(key=lambda p: p.pop_id)
        choice = tied[rng.randrange(len(tied))] if (rng is not None
                                                    and len(tied) > 1) else tied[0]
        self.assign(device_id, choice.pop_id)
        return choice

    def failover(self, device_id: str, token: str, now: float) -> Optional[PopNode]:
        """Re-orchestrate a CPE whose PoP went unhealthy."""
        self.check_health(now)
        current = self.assigned_pop(device_id)
        if current is not None and self._pops.get(current) is not None and self._pops[current].healthy:
            return self._pops[current]
        candidates = self.candidate_proxies(device_id, token)
        if not candidates:
            return None
        choice = candidates[0]
        self.assign(device_id, choice.pop_id)
        return choice
