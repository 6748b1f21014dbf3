"""Command-line glue for sweep execution.

Adds the standard execution flags to an ``argparse`` parser and turns
the parsed namespace back into the ``parallel=...``/``cache_dir=...``
keyword arguments that runner-aware experiment entry points accept.
Entry points that predate the runner simply don't take the keywords;
:func:`supported_exec_kwargs` filters them out so one dispatcher can
drive both kinds.
"""

from __future__ import annotations

import argparse
import inspect
from typing import Any, Callable, Dict, Optional


def _worker_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            "must be >= 0 (0 means one worker per CPU)"
        )
    return value


def add_exec_arguments(parser: argparse.ArgumentParser) -> None:
    """Install ``--parallel`` and the cache flags."""
    parser.add_argument(
        "--parallel", type=_worker_count, default=1, metavar="N",
        help="worker count for sweep points (1 = in this process, "
             "0 = one per CPU; results are identical)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="cache finished sweep points here, keyed by config hash "
             "+ code version; re-runs are near-instant",
    )
    parser.add_argument(
        "--cache-clear", action="store_true",
        help="delete every entry under --cache-dir before running "
             "(stale code-fingerprint trees are evicted automatically "
             "even without this flag)",
    )


def apply_cache_maintenance(namespace: argparse.Namespace) -> Optional[str]:
    """Run the cache maintenance a parsed namespace asks for.

    With a ``--cache-dir``: a full wipe under ``--cache-clear``, otherwise
    eviction of cache trees left behind by previous code versions (their
    fingerprints can never be read again).  Returns a one-line summary
    when anything was removed, else ``None``.
    """
    cache_dir = getattr(namespace, "cache_dir", None)
    if cache_dir is None:
        if getattr(namespace, "cache_clear", False):
            return "warning: --cache-clear has no effect without --cache-dir"
        return None
    from repro.exec.cache import ResultCache

    cache = ResultCache(cache_dir)
    if getattr(namespace, "cache_clear", False):
        removed = cache.clear()
        return f"cache cleared: {removed} entries removed" if removed else None
    removed = cache.evict_stale()
    if removed:
        return f"cache maintenance: {removed} stale fingerprint tree(s) evicted"
    return None


def exec_kwargs(namespace: argparse.Namespace) -> Dict[str, Any]:
    """The execution keywords encoded in a parsed namespace."""
    return {
        "parallel": namespace.parallel,
        "cache_dir": namespace.cache_dir,
    }


def supported_exec_kwargs(fn: Callable,
                          kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """The subset of ``kwargs`` that ``fn``'s signature accepts."""
    parameters = inspect.signature(fn).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD
           for p in parameters.values()):
        return dict(kwargs)
    return {key: value for key, value in kwargs.items()
            if key in parameters}
