"""A chat-completion endpoint on the loopback interface, for tests of the
live elicitation path.

``StubEndpoint`` serves POST requests from a stdlib ``ThreadingHTTPServer``
bound to 127.0.0.1 on a free port, in a thread of the calling process, and
keeps the headers and JSON payload of every request it receives.  By
default it answers each request in the chat-completion format with prior
rates that differ from request to request, so a replay that served them out
of order would change the results; ``fail_every=n`` turns every n-th request
into an HTTP 503 instead.  ``status`` makes it answer every request with
that HTTP status, ``body`` every request with that JSON body, and ``delay``
every request that many seconds late.

Run as a script, it serves the default answers until it is stopped, with a
503 every 7th request, and writes its URL to a file once it listens:

    python tests/llm_stub.py --url-file stub.url
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path


def _answer(i: int) -> str:
    """The assistant's text for the i-th request (from 0): two rates in
    [0.05, 2.03], distinct across 100 requests."""
    return json.dumps({"alpha_rate": 0.05 + (37 * i % 100) / 50,
                       "beta_rate": 0.05 + (61 * i % 100) / 50})


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        status, body = self.server.stub.reply(dict(self.headers), payload)
        data = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):  # no line per request on stderr
        pass


class StubEndpoint:
    """The stub, serving from construction until ``close`` (or the end of a
    ``with`` block); ``url`` is its address, and ``requests`` the
    ``(headers, payload)`` of each request received, in order."""

    def __init__(self, status: int = 200, body: dict | None = None, fail_every: int = 0,
                 delay: float = 0.0):
        self.status, self.body, self.fail_every, self.delay = status, body, fail_every, delay
        self.requests: list[tuple[dict, dict]] = []
        self._lock = threading.Lock()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._server.daemon_threads = True
        self._server.stub = self
        host, port = self._server.server_address
        self.url = f"http://{host}:{port}/v1/chat/completions"
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def reply(self, headers: dict, payload: dict) -> tuple[int, dict]:
        with self._lock:
            self.requests.append((headers, payload))
            i = len(self.requests) - 1
        time.sleep(self.delay)
        if self.fail_every and (i + 1) % self.fail_every == 0:
            return 503, {"error": {"message": "stub unavailable"}}
        if self.status != 200:
            return self.status, {"error": {"message": f"stub status {self.status}"}}
        if self.body is not None:
            return 200, self.body
        return 200, {"object": "chat.completion",
                     "choices": [{"index": 0, "finish_reason": "stop",
                                  "message": {"role": "assistant", "content": _answer(i)}}]}

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)

    def __enter__(self) -> "StubEndpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--url-file", type=Path, required=True,
                        help="file to write the stub's URL to once it listens")
    args = parser.parse_args()
    stub = StubEndpoint(fail_every=7)
    tmp = args.url_file.with_name(args.url_file.name + ".tmp")
    tmp.write_text(stub.url + "\n")
    tmp.replace(args.url_file)  # the file appears whole
    threading.Event().wait()  # until the process is stopped


if __name__ == "__main__":
    main()
