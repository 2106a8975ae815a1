"""Deep-recursion support.

The categorical evaluators recurse in Python, one handful of frames per
recursive unfolding, so deeply fuelled runs need more stack than CPython's
main thread offers.  run_deep executes a callable on a worker thread with a
large stack and a raised recursion limit and re-raises whatever it raises.

The module-import side effect below lifts the default recursion limit to a
value that still fits comfortably in the main thread's 8 MB stack.
"""
from __future__ import annotations

import sys
import threading
from typing import Any, Callable

MAIN_THREAD_LIMIT = 10_000
DEEP_STACK_BYTES = 512 * 1024 * 1024
DEEP_RECURSION_LIMIT = 600_000

if sys.getrecursionlimit() < MAIN_THREAD_LIMIT:
    sys.setrecursionlimit(MAIN_THREAD_LIMIT)


def run_deep(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Run fn(*args, **kwargs) on a thread with a large stack."""
    result: dict[str, Any] = {}

    def work() -> None:
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old, DEEP_RECURSION_LIMIT))
        try:
            result["value"] = fn(*args, **kwargs)
        except BaseException as exc:   # noqa: BLE001  (re-raised below)
            result["error"] = exc
        finally:
            sys.setrecursionlimit(old)

    old_size = threading.stack_size(DEEP_STACK_BYTES)
    try:
        thread = threading.Thread(target=work, name="rfun-deep-stack")
        thread.start()
    finally:
        threading.stack_size(old_size)
    thread.join()
    if "error" in result:
        raise result["error"]
    return result["value"]
