"""Deprecation shims for the PR-5 API renames.

The facade normalized parameter spellings across layers
(``n_jobs=`` → ``jobs=`` and ``characterize_jobs(jobs=[...])`` →
``requests=[...]``).  Old keywords
keep working through :func:`warn_once`, which emits each distinct
deprecation exactly once per process so a tight loop over a legacy
call site doesn't flood stderr.

Tests that assert the fire-exactly-once contract call
:func:`reset_deprecation_registry` first, because any earlier legacy
call in the same process would otherwise have consumed the warning.
"""

from __future__ import annotations

import threading
import warnings
from typing import Any, Dict, Optional, Set

_seen: Set[str] = set()
_lock = threading.Lock()


def warn_once(key: str, message: str) -> bool:
    """Emit ``DeprecationWarning(message)`` the first time ``key`` is seen.

    Returns True when the warning was actually emitted.
    """
    with _lock:
        if key in _seen:
            return False
        _seen.add(key)
    warnings.warn(message, DeprecationWarning, stacklevel=3)
    return True


def reset_deprecation_registry() -> None:
    """Forget which deprecations have fired (test isolation hook)."""
    with _lock:
        _seen.clear()


def pop_renamed_kwarg(
    kwargs: Dict[str, Any],
    old: str,
    new: str,
    where: str,
    current: Optional[Any] = None,
) -> Any:
    """Resolve a renamed keyword argument with a one-shot deprecation.

    Pops ``old`` from ``kwargs`` if present, warns once, and returns its
    value unless ``current`` (the value supplied under the new spelling)
    is not ``None`` — the new spelling always wins when both are given.
    """
    if old not in kwargs:
        return current
    legacy = kwargs.pop(old)
    warn_once(
        f"{where}:{old}",
        f"{where}: keyword '{old}=' is deprecated, use '{new}='",
    )
    return current if current is not None else legacy
