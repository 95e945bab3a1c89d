"""The benchmark's server process: ``repro.server`` over TCP.

Started by ``run.py`` and by the tests::

    python3 perfbench/serverproc.py [--durable DIR] [--obs]

It starts a threaded :class:`repro.server.ReproServer` on an ephemeral
port with the default :class:`repro.config.EngineConfig` (or
``EngineConfig.durable(DIR)``), prints one JSON line with the port, and
then answers one JSON command per stdin line with one JSON line on
stdout:

* ``stats``     -- the ``db.obs.metrics`` registry, read under the
  engine latch, plus this process's CPU time and peak RSS;
* ``trace_on`` / ``trace_off`` -- install / remove the layer wrappers;
* ``trace_dump`` -- write every recorded span to the file named in
  ``path``, one JSON list per line, and answer with the self time and
  calls per span name and the request root spans;
* ``stop``      -- stop the server (leak-checked) and exit.

``--obs`` turns on ``ObsConfig(enabled=True, trace=False)`` so the lock
manager times waits into the ``locks.wait_ns`` histogram; the event
tracer stays off.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from typing import Any, Dict

from layers import LayerTrace, wrapper_cost_ns
from spans import Tracer


def _flat(snapshot: Dict[str, Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for key, value in snapshot.items():
        if isinstance(value, dict):
            out[key + ".count"] = value["count"]
            out[key + ".sum"] = value["sum"]
        else:
            out[key] = value
    return out


def _usage() -> Dict[str, float]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": ru.ru_utime + ru.ru_stime, "maxrss_kb": ru.ru_maxrss}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--durable", default=None, metavar="DIR")
    parser.add_argument("--obs", action="store_true")
    args = parser.parse_args(argv)

    from repro.config import EngineConfig, ObsConfig
    from repro.engine.database import Database
    from repro.server import ReproServer, ServerConfig

    kw: Dict[str, Any] = {}
    if args.obs:
        kw["obs"] = ObsConfig(enabled=True, trace=False)
    config = (EngineConfig.durable(args.durable, **kw) if args.durable
              else EngineConfig(**kw))
    db = Database(config)
    server = ReproServer(db, ServerConfig(port=0)).start()
    tracer = Tracer()
    layers = LayerTrace(tracer)
    _reply({"port": server.address[1]})

    status = 0
    for line in sys.stdin:
        cmd = json.loads(line)
        op = cmd["op"]
        if op == "stats":
            snap = server.engine.run(db.obs.metrics.snapshot)
            _reply(dict(_usage(), metrics=_flat(snap)))
        elif op == "trace_on":
            cost = wrapper_cost_ns()
            layers.install()
            _reply({"wrapper_ns": cost})
        elif op == "trace_off":
            layers.uninstall()
            _reply({"quiet": tracer.quiesce()})
        elif op == "trace_dump":
            spans = tracer.spans()
            with open(cmd["path"], "w") as f:
                for span in spans:
                    f.write(json.dumps(span) + "\n")
            roots = [[*rid, start, end]
                     for _sid, _parent, name, start, end, _self, rid in spans
                     if name == "server.request"]
            _reply({"totals": tracer.totals(), "roots": roots,
                    "spans": len(spans)})
        elif op == "stop":
            layers.uninstall()
            leaks = server.stop()
            db.close()
            if leaks["threads"] or leaks["connections"]:
                print(f"leak report: {leaks}", file=sys.stderr)
                status = 1
            _reply(dict(_usage(), leaks=leaks))
            break
        else:
            _reply({"error": f"unknown op {op!r}"})
    return status


def _reply(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
