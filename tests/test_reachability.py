"""Every ``src/repro`` module, and every function in it, is reached by a run.

**Modules.**
The walk starts where something the repo measures or pins begins: the
CLI (``python -m repro``), the ``perfledger`` benchmark package, every
``benchmarks/`` module and ``tools/build_experiments_md.py``.  It follows
import statements only, so ``tests/`` and ``examples/`` cannot keep a
module alive.  A package ``__init__`` executed on the way counts as
reached, but its re-exports are not followed: ``from repro.cloud import
Controller`` reaches ``repro.cloud.controller``, not every module
``repro.cloud`` happens to re-export.

The graph is the lint engine's :class:`~tools.lint.graph.Project`, built
from its import edges, ``from_imports`` and ``reexports``.  Examples are
not roots, so the last test imports each one to catch an example left
holding an import of a deleted module.

**Functions.**  ``tests/fixtures/reach.json`` lists every ``src/repro``
function the roots of ``tools/reach.py`` execute (the CLI subcommands,
the overhead gate, the perfledger smoke runs and the figure benchmarks,
traced with ``sys.settrace``).  Every function of a reached, non-deferred
module must be in it or in :data:`KEPT`, with a reason from
:data:`REASONS`.  Like ``DEFERRED``, ``KEPT`` may only shrink: an entry
that no longer exists, or that a run now executes, fails the check.
Regenerate the fixture with ``python tools/reach.py`` (~4 min).
"""

import importlib.util
import json

import pytest

from tests.lintkit import REPO_ROOT
from tools import reach
from tools.lint.engine import ModuleSource, iter_py_files
from tools.lint.graph import Project

#: Parsed into the graph; the roots are picked from these by ``_is_root``.
SCANNED = ("src/repro", "perfledger", "benchmarks", "tools/build_experiments_md.py")

#: Unreached modules that stay for now.  ``perfledger/tests/test_layers.py``
#: (frozen with the benchmark) asserts more than 90 files under
#: ``src/repro``, so these four cannot leave until that floor moves.  The
#: set may only shrink: ``test_deferred_modules_really_unreached`` fails
#: once one of them is wired into a run.
DEFERRED = frozenset({
    "repro.multipath.scheduler.blest",
    "repro.quic.varint",
    "repro.quic.wire",
    "repro.transport.reverse",
})


#: Why an unexecuted function may stay.  ``conditional`` entries name the
#: call site that runs them.
REASONS = {
    "reference": "a test compares a live path against it",
    "failure": "runs only when a check fails",
    "null": "a Null* method that an .enabled guard skips",
    "hook": "a base-class default that every subclass overrides",
    "conditional": "a run calls it, on data the roots do not produce",
    "codec": "core/frames.py and video/rtp.py wire code (ROADMAP item 7(d))",
    "planned": "kept for a ROADMAP item that names it",
}

#: Unexecuted functions of reached modules that stay: ``reason`` or
#: ``reason: detail``, the reason a key of :data:`REASONS`.
KEPT = {
    # wire codecs no run serialises through
    "repro.core.frames:XncHeader.is_coded": "codec",
    "repro.core.frames:XncHeader.pack": "codec",
    "repro.core.frames:XncHeader.unpack": "codec",
    "repro.core.frames:XncNcFrame.encode": "codec",
    "repro.core.frames:XncNcFrame.decode": "codec",
    "repro.core.frames:XncNcFrame.decode_from": "codec",
    "repro.core.frames:encode_datagram_frame": "codec",
    "repro.core.frames:decode_datagram_frame": "codec",
    "repro.video.rtp:RtpPacket.encode": "codec",
    "repro.video.rtp:RtpPacket.decode": "codec",
    "repro.video.rtp:RtpPacketizer.__init__": "codec",
    "repro.video.rtp:RtpPacketizer.packetize": "codec",
    "repro.video.rtp:sniff_frame_border": "codec",
    "repro.video.rtp:sniff_frame_id": "codec",
    # oracles the tests hold live paths against
    "repro.core.gf256:gf_mul": "reference",
    "repro.core.gf256:gf_mul_bytes": "reference",
    "repro.core.gf256:gf_addmul_bytes": "reference",
    "repro.core.gf256:gf_mul_scalar_buffer": "reference",
    "repro.emulation.trace:LossProcess.constant": "reference",
    "repro.emulation.trace:opportunities_from_rate": "reference",
    "repro.emulation.trace:load_mahimahi": "reference",
    "repro.emulation.trace:load_json": "reference",
    "repro.experiments.runner:StreamRunResult.digest": "reference",
    "repro.obs.trace:read_jsonl": "reference",
    "repro.transport.base:TunnelClientBase.send_app_packet": "reference",
    "repro.core.rlnc:RlncEncoder.encode_batch": "planned: ROADMAP item 5(c)",
    # only on a failing check: the campaign's shrink-and-save path
    "repro.sanitizer.core:SanitizerViolation.__init__": "failure",
    "repro.sanitizer.core:ProtocolSanitizer._fail": "failure",
    "repro.scenarios.campaign:_plan_sort_key": "failure",
    "repro.scenarios.campaign:write_artifact": "failure",
    "repro.faults.plan:FaultPlan.horizon":
        "failure: scenarios/campaign.py:278, shrinking a failing plan",
    "repro.faults.plan:FaultPlan.to_json":
        "failure: scenarios/campaign.py:278, shrinking a failing plan",
    "repro.scenarios.oracles:Expectations.as_dict":
        "failure: scenarios/campaign.py:285, the shrunk-plan artifact",
    "repro.scenarios.oracles:OracleVerdict.as_dict":
        "failure: scenarios/campaign.py:286, the shrunk-plan artifact",
    # base-class defaults every subclass that reaches them overrides
    "repro.quic.cc.base:CongestionController._acked": "hook",
    "repro.quic.cc.base:CongestionController._lost": "hook",
    "repro.multipath.scheduler.base:Scheduler.select": "hook",
    "repro.transport.base:TunnelClientBase._build_frame": "hook",
    "repro.transport.base:TunnelClientBase._drain_retx": "hook",
    "repro.transport.base:TunnelClientBase._on_cc_lost": "hook",
    "repro.transport.base:TunnelServerBase._handle_frame": "hook",
    # run on inputs none of the roots produce
    "repro.quic.cc.base:CongestionController.pacing_rate":
        "conditional: obs/timeline.py:59, telemetry sampling a NewReno or bonding path",
    "repro.transport.base:TunnelClientBase._on_queue_entry_dropped":
        "conditional: transport/base.py:357, "
        "a non-XNC client dropping a stale queued packet",
    "repro.emulation.trace:LossProcess.zero":
        "conditional: emulation/trace.py:107, "
        "a trace built without a loss process (load_mahimahi)",
    "repro.cloud.autoscaler:ScalingDecision.direction":
        "conditional: fleet/runner.py:229, a fleet whose load crosses a scaling threshold",
    "repro.obs.metrics:Counter.merge":
        "conditional: obs/metrics.py:290, "
        "a registry holding counters (fleet aggregates hold histograms only)",
    "repro.obs.metrics:Counter.state_dict":
        "conditional: obs/metrics.py:318, "
        "a registry holding counters (fleet aggregates hold histograms only)",
    "repro.obs.metrics:Counter.from_state":
        "conditional: obs/metrics.py:329, "
        "a registry holding counters (fleet aggregates hold histograms only)",
    # Null* methods behind an .enabled guard (ROADMAP item 3)
    "repro.obs.spans:NullSpanRecorder.__len__": "null",
    "repro.obs.spans:NullSpanRecorder.open": "null",
    "repro.obs.spans:NullSpanRecorder.close": "null",
    "repro.obs.spans:NullSpanRecorder.annotate": "null",
    "repro.obs.spans:NullSpanRecorder.instant": "null",
    "repro.obs.spans:NullSpanRecorder.finish": "null",
    "repro.obs.spans:NullSpanRecorder.bind": "null",
    "repro.obs.spans:NullSpanRecorder.lookup": "null",
    "repro.obs.spans:NullSpanRecorder.spans": "null",
    "repro.obs.spans:NullSpanRecorder.get": "null",
    "repro.obs.spans:NullSpanRecorder.children": "null",
    "repro.obs.spans:NullSpanRecorder.records": "null",
    "repro.obs.spans:NullSpanRecorder.export_jsonl": "null",
    "repro.obs.spans:NullSpanRecorder.to_chrome_trace": "null",
    "repro.obs.spans:NullSpanRecorder.export_chrome_trace": "null",
    "repro.obs.telemetry:NullTelemetry.enable_spans": "null",
    "repro.obs.telemetry:NullTelemetry.bind_clock": "null",
    "repro.obs.telemetry:NullTelemetry.event": "null",
    "repro.obs.telemetry:NullTelemetry.count": "null",
    "repro.obs.telemetry:NullTelemetry.observe": "null",
    "repro.obs.telemetry:NullTelemetry.observe_many": "null",
    "repro.obs.telemetry:NullTelemetry.start_sampling": "null",
    "repro.obs.telemetry:NullTelemetry.stop_sampling": "null",
    "repro.obs.telemetry:NullTelemetry.record_stats": "null",
    "repro.obs.telemetry:NullTelemetry.export_jsonl": "null",
    "repro.obs.telemetry:NullTelemetry.summary_table": "null",
    "repro.sanitizer.core:NullSanitizer.check_transmit": "null",
    "repro.sanitizer.core:NullSanitizer.check_scheduler_targets": "null",
    "repro.sanitizer.core:NullSanitizer.check_ack_plausible": "null",
    "repro.sanitizer.core:NullSanitizer.check_ranges": "null",
    "repro.sanitizer.core:NullSanitizer.check_queue_post_expire": "null",
    "repro.sanitizer.core:NullSanitizer.check_plan": "null",
    "repro.sanitizer.core:NullSanitizer.check_range_recovery": "null",
    "repro.sanitizer.core:NullSanitizer.check_decode_complete": "null",
    "repro.sanitizer.core:NullSanitizer.check_path_transition": "null",
    "repro.sanitizer.stateguard:NullStateGuard.snapshot": "null",
    "repro.sanitizer.stateguard:NullStateGuard.verify": "null",
}


def _build_project():
    return Project({
        rel: ModuleSource(path, rel, path.read_text(encoding="utf-8"))
        for path, rel in iter_py_files(REPO_ROOT, SCANNED)
    })


def _is_root(name):
    if name in ("repro.__main__", "repro.cli", "tools.build_experiments_md"):
        return True
    top = name.split(".")[0]
    if top == "benchmarks":
        return True
    return top == "perfledger" and not name.startswith("perfledger.tests")


def _origin(project, module, name):
    """Follow ``__init__`` re-export aliases to the module defining ``name``."""
    while (module, name) in project.reexports:
        module, name = project.reexports[(module, name)]
    return module


def reached_modules(project):
    """Dotted names of every project module the roots import, transitively."""
    edges = {}
    for edge in project.edges:
        edges.setdefault(edge.src, set()).add(edge.dst)
    reached = set()
    todo = sorted(name for name in project.by_name if _is_root(name))
    while todo:
        name = todo.pop()
        if name in reached or name not in project.by_name:
            continue
        reached.add(name)
        info = project.by_name[name]
        parts = name.split(".")
        # importing a.b.c executes the packages a and a.b first
        nxt = {".".join(parts[:i]) for i in range(1, len(parts))}
        for local, (source, orig) in info.from_imports.items():
            if (name, local) not in project.reexports:
                nxt.update((source, _origin(project, source, orig)))
        if not info.is_package:
            nxt.update(edges.get(name, ()))
        todo.extend(sorted(nxt - reached))
    return reached


def _src_modules(project):
    return {name for name in project.by_name if name.split(".")[0] == "repro"}


def test_every_src_module_is_reached():
    project = _build_project()
    unreached = _src_modules(project) - reached_modules(project) - DEFERRED
    assert not unreached, (
        "modules no run imports (wire them into a run or delete them): %s"
        % ", ".join(sorted(unreached)))


def test_deferred_modules_really_unreached():
    project = _build_project()
    assert DEFERRED <= _src_modules(project), "a deferred module is gone; drop it"
    now_reached = DEFERRED & reached_modules(project)
    assert not now_reached, (
        "deferred modules a run now reaches; drop them from DEFERRED: %s"
        % ", ".join(sorted(now_reached)))


def test_reexports_are_not_followed():
    # the CLI imports names from repro.experiments; that must not drag in
    # every module the package re-exports
    project = Project({
        rel: ModuleSource(REPO_ROOT / rel, rel, text) for rel, text in {
            "src/repro/__init__.py": "",
            "src/repro/cli.py": "from .pkg import used\n",
            "src/repro/pkg/__init__.py": (
                "from .a import used\nfrom .b import unused\n"
                "__all__ = ['used', 'unused']\n"),
            "src/repro/pkg/a.py": "used = 1\n",
            "src/repro/pkg/b.py": "unused = 2\n",
        }.items()
    })
    assert reached_modules(project) == {"repro", "repro.cli", "repro.pkg", "repro.pkg.a"}


def _reach():
    with open(REPO_ROOT / "tests" / "fixtures" / "reach.json", encoding="utf-8") as fh:
        return json.load(fh)


def _checked_functions():
    """``module:qualname`` of every function in a reached, non-deferred module."""
    modules = reached_modules(_build_project()) - DEFERRED
    names = set()
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        names.update(q for q in reach.module_functions(path)
                     if q.split(":")[0] in modules)
    return names


def test_every_function_executed_or_kept():
    executed = set(_reach()["executed"])
    unexecuted = _checked_functions() - executed - set(KEPT)
    assert not unexecuted, (
        "functions no run executes (wire them into a run, delete them, or "
        "add them to KEPT with a reason): %s" % ", ".join(sorted(unexecuted)))


def test_kept_functions_really_unexecuted():
    executed = set(_reach()["executed"])
    assert not set(KEPT) - _checked_functions(), "a KEPT function is gone; drop it"
    now_run = set(KEPT) & executed
    assert not now_run, (
        "KEPT functions a run now executes; drop them from KEPT: %s"
        % ", ".join(sorted(now_run)))
    for name, reason in KEPT.items():
        kind, _, detail = reason.partition(":")
        assert kind in REASONS, "%s: unknown reason %r" % (name, kind)
        if kind == "conditional":
            assert ".py:" in detail, "%s: name the call site" % name


def test_reach_fixture_is_current():
    from perfledger.workloads import WORKLOAD_NAMES
    from repro.experiments.runner import TRANSPORT_NAMES

    assert reach.TRANSPORTS == TRANSPORT_NAMES
    assert reach.WORKLOADS == WORKLOAD_NAMES
    doc = _reach()
    assert doc["roots"] == [[tool] + argv for tool, argv in reach.ROOTS], (
        "tools/reach.py changed its roots; rerun it")
    everything = set()
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        everything.update(reach.module_functions(path))
    stale = set(doc["executed"]) - everything
    assert not stale, "reach.json names deleted functions; rerun tools/reach.py: %s" % (
        ", ".join(sorted(stale)))


@pytest.mark.parametrize("path", sorted((REPO_ROOT / "examples").glob("*.py")),
                         ids=lambda p: p.name)
def test_example_imports(path):
    # a non-"__main__" module name keeps each example's main() from running
    spec = importlib.util.spec_from_file_location("example_" + path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
