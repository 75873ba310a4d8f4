"""Launch the experiment service with its layer calls recorded as spans.

Usage: ``python3 perfbench/traced_server.py SPANS_PATH [service args...]``

Wraps the public methods a ``POST /run`` goes through, then hands the
remaining arguments to ``repro.service.__main__.main``.  The spans are
written to SPANS_PATH when the service exits (after SIGTERM).
"""

from __future__ import annotations

import itertools
import sys

from common import require_program
from spans import SpanRecorder


def install(rec: SpanRecorder) -> None:
    from repro.service import http
    from repro.service.http import ExperimentService, ServiceHandler
    from repro.service.store import ResultStore

    requests = itertools.count()
    # One client on one connection: the n-th do_POST serves its n-th request.
    ServiceHandler.do_POST = rec.wrap(
        "service.handler", ServiceHandler.do_POST, ident_of=lambda *args: next(requests)
    )
    ExperimentService.parse_spec = staticmethod(rec.wrap("api.parse_spec", ExperimentService.parse_spec))
    ExperimentService.run_spec = rec.wrap("service.run_spec", ExperimentService.run_spec)
    ResultStore.cache_key = rec.wrap("service.cache_key", ResultStore.cache_key)
    ResultStore.get = rec.wrap(
        "service.store_get", ResultStore.get,
        tag_result=lambda result: {"outcome": "miss" if result is None else "hit"},
    )
    ResultStore.put = rec.wrap("service.store_put", ResultStore.put)
    ResultStore.read_entry = rec.wrap("service.read_entry", ResultStore.read_entry)
    http.run_point = rec.wrap("api.run_point", http.run_point)


def main() -> int:
    spans_path, service_args = sys.argv[1], sys.argv[2:]
    require_program()
    rec = SpanRecorder()
    install(rec)
    from repro.service.__main__ import main as serve

    try:
        return serve(service_args)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
