"""Where the layers are: span table, plane of each span, layer of each file.

A *layer* is a sub-package of ``src/repro``.  ``SPANS`` maps the dotted path
of an entry point into a layer to the name of the span ``perf/trace.py``
records around it; a name reached through several paths (``Stream.emit`` and
``Stream.emit_many``) is one span.  Functions imported by name into another
module are patched where they are *used* (``repro.monitor.manager.
parse_subscription``), because that binding is the one the caller resolves.
"""

from __future__ import annotations

#: how an entry is wrapped: the attribute itself, or -- for ``factory`` --
#: the callable it returns together with that callable's ``batch`` attribute
CALL, FACTORY = "call", "factory"

#: Phases of a cycle that the spans are reported on.  A span is reported on
#: its own plane only (``streams.emit`` during a cancel still nests, so that
#: ``monitor.cancel`` does not count it as self time, but has no row there).
DELIVER, CONTROL = "deliver", "control"
PLANE_OF_PHASE = {"burst": DELIVER, "single": DELIVER, "subscribe": CONTROL, "cancel": CONTROL}

#: dotted path, span name, plane of the span, how it is wrapped
SPANS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.alerters.base.Alerter.emit_alert", "alerters.emit", DELIVER, CALL),
    ("repro.alerters.ws.soap_alert", "alerters.emit", DELIVER, CALL),
    ("repro.streams.stream.Stream.emit", "streams.emit", DELIVER, CALL),
    ("repro.streams.stream.Stream.emit_many", "streams.emit", DELIVER, CALL),
    ("repro.compile.pipeline.CompiledPipeline.make_entry", "compile.pipeline", DELIVER, FACTORY),
    ("repro.net.channel.ChannelRegistry._forward_batch", "net.channel.forward", DELIVER, CALL),
    ("repro.net.channel.ChannelRegistry._on_item", "net.channel.receive", DELIVER, CALL),
    ("repro.net.simnet.SimNetwork.send", "net.simnet.send", DELIVER, CALL),
    ("repro.net.simnet.SimNetwork.send_many", "net.simnet.send", DELIVER, CALL),
    ("repro.net.simnet.SimNetwork.run", "net.simnet.drain", DELIVER, CALL),
    ("repro.monitor.lifecycle.DeliveryValve._receive", "monitor.valve.deliver", DELIVER, CALL),
    ("repro.monitor.manager.SubscriptionManager.submit_many", "monitor.submit_many", CONTROL, CALL),
    ("repro.monitor.manager.parse_subscription", "p2pml.parse", CONTROL, CALL),
    ("repro.monitor.manager.compile_subscription", "p2pml.compile", CONTROL, CALL),
    ("repro.monitor.manager.optimize_plan", "algebra.rewrite", CONTROL, CALL),
    ("repro.monitor.reuse.ReuseEngine.apply", "monitor.reuse.apply", CONTROL, CALL),
    ("repro.monitor.manager.place_plan", "monitor.place", CONTROL, CALL),
    ("repro.monitor.deployment.Deployer.deploy", "monitor.deploy", CONTROL, CALL),
    ("repro.compile.compiler.PlanCompiler.compile_segment", "compile.compile_segment", CONTROL, CALL),
    ("repro.monitor.stream_db.StreamDefinitionDatabase.publish_stream", "monitor.stream_db.publish", CONTROL, CALL),
    ("repro.monitor.stream_db.StreamDefinitionDatabase.publish_replica", "monitor.stream_db.publish", CONTROL, CALL),
    ("repro.dht.kadop.KadopIndex.publish", "dht.kadop.publish", CONTROL, CALL),
    ("repro.dht.kadop.KadopIndex.query", "dht.kadop.query", CONTROL, CALL),
    ("repro.monitor.manager.SubscriptionManager.cancel", "monitor.cancel", CONTROL, CALL),
)

PLANE_OF_SPAN = {name: plane for _, name, plane, _ in SPANS}

#: Layers whose call counts are reported per plane (``pycalls.<plane>.<layer>``).
COUNTED_LAYERS = {
    DELIVER: ("streams", "compile", "filtering", "algebra", "net", "monitor", "xmlmodel", "builtin"),
    CONTROL: ("compile", "monitor", "p2pml", "algebra", "dht", "xmlmodel", "builtin"),
}


def layer_of(code) -> str:
    """Layer of a ``cProfile`` entry: the ``repro`` sub-package of the file
    that defines the function, ``builtin`` for C functions, else ``other``
    (the benchmark's own frames, the standard library, dataclass-generated
    methods)."""
    if isinstance(code, str):
        return "builtin"
    _, found, tail = code.co_filename.replace("\\", "/").rpartition("/repro/")
    if not found or "/" not in tail:
        return "other"
    return tail.split("/", 1)[0]
