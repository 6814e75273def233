"""Names, units, directions and bounds of every metric the ledger reports.

``BENCHMARK.json`` at the repository root repeats these tables for the
driver; ``perfledger/tests/test_contract.py`` keeps the two identical.
"""

from __future__ import annotations

from .layers import LAYERS

__all__ = ["END_TO_END", "PER_LAYER", "RUN_SECONDS"]

#: ``--seconds`` the driver passes: the least measured time of one run.
#: The rep floors (10 stream reps / 5 fleet reps) run 15-27 s on the
#: development box, so they decide; the driver's total-time cap leaves no
#: room for more.
RUN_SECONDS = 10

#: (name, unit, better, bound) — bound is the share of the parent's median
#: by which the metric may get worse before it counts as a regression.
END_TO_END = (
    ("wall_s_per_sim_s", "s/s", "lower", 0.10),
    ("cpu_s_per_sim_s", "s/s", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("sim_delay_p50_ms", "ms", "lower", 0.08),
    ("sim_delay_p95_ms", "ms", "lower", 0.25),
    ("sim_wire_bytes_per_app_byte", "B/B", "lower", 0.05),
)


_EXTRA = (
    ("video.fps", "1/s", "higher"),
    ("video.stall_pct", "%", "lower"),
    ("video.ssim", "ssim", "higher"),
    ("video.frames_ok_share", "share", "higher"),
    ("video.late_pkt_share", "share", "lower"),
    ("transport.wire_pkts_per_app_pkt", "pkt/pkt", "lower"),
    ("transport.pump_calls_per_pkt", "calls/pkt", "lower"),
    ("transport.acks_per_app_pkt", "acks/pkt", "lower"),
    ("transport.expired_pkt_share", "share", "lower"),
    ("transport.redundancy_pct", "%", "lower"),
    ("multipath.select_calls_per_pkt", "calls/pkt", "lower"),
    ("multipath.health_transitions", "count", "lower"),
    ("quic.cc_on_ack_us", "us", "lower"),
    ("xnc.lost_marked_share", "share", "lower"),
    ("xnc.ranges_per_1k_pkts", "1/kpkt", "lower"),
    ("xnc.recovery_pkts_per_lost_pkt", "pkt/pkt", "lower"),
    ("xnc.tick_us", "us", "lower"),
    ("coder.encode_us_per_call", "us", "lower"),
    ("coder.decode_push_us_per_call", "us", "lower"),
    ("coder.gf_calls_per_pkt", "calls/pkt", "lower"),
    ("coder.recovered_pkts_per_coded_pkt", "pkt/pkt", "higher"),
    ("coder.useless_coded_share", "share", "lower"),
    ("link.sends_per_app_pkt", "sends/pkt", "lower"),
    ("link.queue_drop_share", "share", "lower"),
    ("link.loss_drop_share", "share", "lower"),
    ("link.deliver_us_per_call", "us", "lower"),
    ("events.dispatched_per_pkt", "events/pkt", "lower"),
    ("events.scheduled_per_pkt", "events/pkt", "lower"),
    ("events.self_us_per_event", "us", "lower"),
    ("cellular.gen_ms_per_path_sim_s", "ms/s", "lower"),
    ("baselines.retx_pkts_per_app_pkt", "pkt/pkt", "lower"),
    ("faults.applied", "count", "higher"),
    ("faults.hook_calls_per_pkt", "calls/pkt", "lower"),
    ("cloud.plan_ms_per_vehicle", "ms", "lower"),
    ("cloud.snat_denied_share", "share", "lower"),
    ("cloud.failovers", "count", "lower"),
    ("fleet.simulate_ms_per_vehicle", "ms", "lower"),
    ("fleet.merge_ms_per_vehicle", "ms", "lower"),
    ("fleet.vehicles_per_core_s", "1/s", "higher"),
    ("obs.aggregate_us_per_pkt", "us/pkt", "lower"),
    ("experiments.qoe_analysis_ms_per_rep", "ms", "lower"),
    ("experiments.build_ms_per_rep", "ms", "lower"),
    ("trace.overhead_ratio", "x", "lower"),
    ("trace.unattributed_share", "share", "lower"),
    ("trace.spans_dropped", "count", "lower"),
)

#: (name, unit, better): two rows per layer, then the layer-specific ones.
PER_LAYER = tuple(
    row for layer in LAYERS for row in (
        ("%s.self_us_per_pkt" % layer, "us/pkt", "lower"),
        ("%s.calls_per_pkt" % layer, "calls/pkt", "lower"),
    )
) + _EXTRA
