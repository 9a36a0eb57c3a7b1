"""The client side of ``server_mixed``, in a process of its own.

Load must not share the server's interpreter lock, or the benchmark
measures its own threads waiting for each other.  ``workloads.py`` starts
this program and talks to it in JSON lines over its standard streams: the
first line opens the connections, each further line runs one closed-loop
stretch and is answered with its samples (and, when traced, the
client-side spans), and ``{"finish": true}`` returns the ledger of
committed writes for the durability check and ends the process.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.interfaces.server import SimClient  # noqa: E402


def main() -> int:
    opening = json.loads(sys.stdin.readline())
    ledger = workloads.Ledger.from_json(opening["ledger"])
    errors = []
    clients = []
    for index in range(opening["clients"]):
        handle = SimClient("127.0.0.1", opening["port"])
        # The ping returns once the connection thread exists, so the
        # server's connection ids follow client order.
        handle.ping()
        clients.append(workloads.OltpClient(
            opening["seed"], index, opening["clients"], opening["sizes"],
            ledger, errors, handle))
    print(json.dumps({"ready": True}), flush=True)
    try:
        for line in sys.stdin:
            request = json.loads(line)
            if request.get("finish"):
                print(json.dumps({"ledger": ledger.to_json(),
                                  "errors": errors}), flush=True)
                return 0
            tracer = None
            if request["trace"]:
                tracer = tracing.Tracer()
                tracer.install(("interfaces.server",))
            try:
                samples, failed, elapsed = workloads.closed_loop(
                    clients, tracer, request["seconds"],
                    request["operations"])
            finally:
                if tracer is not None:
                    tracer.remove()
            print(json.dumps({
                "samples": samples, "failed": failed, "elapsed": elapsed,
                "rows_returned": sum(c.rows_returned for c in clients),
                "spans": tracer.spans if tracer else []}), flush=True)
    finally:
        for client in clients:
            client.handle.close()
    return 1    # the harness went away without saying finish


if __name__ == "__main__":
    sys.exit(main())
