"""Source-NAT tables for the multi-tenant proxy (§6.2).

CellFusion applies NAT twice: once at the CPE's tun interface (every LAN
flow of a vehicle is rewritten to the vehicle's controller-allocated
private address) and once at the proxy's public interface (so return
traffic from the cloud app routes back to the proxy).  This module
implements the generic port-allocating SNAT used at both places.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "NatError",
    "SnatTable",
]

FlowKey = Tuple[int, str, int]  # (proto, ip, port)


class NatError(Exception):
    """Translation failures (pool exhausted, unknown reverse mapping)."""


class SnatTable:
    """Port-translating source NAT.

    Forward: (proto, private_ip, private_port) -> public port on
    ``public_ip``; the reverse map keeps allocated ports unique.

    With ``idle_timeout`` set, mappings carry a last-use stamp (callers
    pass ``now`` to :meth:`translate`) and idle entries are evicted —
    lazily when an allocation finds the pool exhausted, or eagerly via
    :meth:`expire_idle`.  Without it the table behaves as before:
    mappings live until released, which on long soak runs exhausts the
    port pool.  ``flushes`` is reported by the fleet's control-plane
    summary and stays 0: nothing flushes a fleet's table.
    """

    def __init__(self, public_ip: str, port_base: int = 20000, port_count: int = 40000,
                 idle_timeout: Optional[float] = None):
        if port_count <= 0:
            raise ValueError("port_count must be positive")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive (or None)")
        self.public_ip = public_ip
        self.idle_timeout = idle_timeout
        self._port_base = port_base
        self._port_count = port_count
        self._next = 0
        self._forward: Dict[FlowKey, int] = {}
        self._reverse: Dict[Tuple[int, int], Tuple[str, int]] = {}
        self._last_used: Dict[FlowKey, float] = {}
        self.evictions = 0
        self.flushes = 0

    def __len__(self) -> int:
        return len(self._forward)

    def translate(self, proto: int, src_ip: str, src_port: int,
                  now: Optional[float] = None) -> Tuple[str, int]:
        """Map a private endpoint to (public_ip, public_port), allocating
        a port on first use.  ``now`` refreshes the idle stamp."""
        key = (proto, src_ip, src_port)
        port = self._forward.get(key)
        if port is None:
            if len(self._forward) >= self._port_count:
                if not (self.idle_timeout is not None and now is not None
                        and self.expire_idle(now)):
                    raise NatError("SNAT port pool exhausted")
            for _ in range(self._port_count):
                candidate = self._port_base + self._next
                self._next = (self._next + 1) % self._port_count
                if (proto, candidate) not in self._reverse:
                    port = candidate
                    break
            if port is None:
                raise NatError("SNAT port pool exhausted")
            self._forward[key] = port
            self._reverse[(proto, port)] = (src_ip, src_port)
        if now is not None:
            self._last_used[key] = now
        return self.public_ip, port

    def release(self, proto: int, src_ip: str, src_port: int) -> None:
        key = (proto, src_ip, src_port)
        port = self._forward.pop(key, None)
        if port is not None:
            self._reverse.pop((proto, port), None)
        self._last_used.pop(key, None)

    def expire_idle(self, now: float) -> int:
        """Evict every mapping idle longer than ``idle_timeout``; returns
        the eviction count.  No-op when no timeout is configured."""
        if self.idle_timeout is None:
            return 0
        limit = self.idle_timeout
        stale = [key for key in self._forward
                 if now - self._last_used.get(key, 0.0) > limit]
        for key in stale:
            self.release(*key)
        self.evictions += len(stale)
        return len(stale)
