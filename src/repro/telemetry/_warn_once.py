"""Warn-once degrade latch for best-effort I/O side channels.

Two persistence side channels (the experiment result cache and the run
ledger) share one failure philosophy: a full disk or bad permissions
must *degrade* the side channel, never abort the experiment — and a
degraded channel must say so exactly once, not once per write.  This
module is the one implementation of that latch; each owner keeps its
own counters and cleanup and delegates the warn-exactly-once
bookkeeping here.
"""

from __future__ import annotations

import logging

__all__ = ["WarnOnce"]


class WarnOnce:
    """Emit one warning per degrade episode, counting every occurrence.

    Parameters
    ----------
    logger:
        The owner's module logger (warnings stay attributed to the
        subsystem that degraded, not to this helper).
    message:
        A ``%``-style format string; :meth:`note` passes its arguments
        through lazily, like ``logging`` itself.
    """

    __slots__ = ("_logger", "_message", "warned", "count")

    def __init__(self, logger: logging.Logger, message: str) -> None:
        self._logger = logger
        self._message = message
        #: Whether the single warning for this episode has fired.
        self.warned = False
        #: Total occurrences noted, warned or silenced.
        self.count = 0

    def note(self, *args: object) -> None:
        """Record one occurrence; warn iff none has been warned yet."""
        self.count += 1
        if not self.warned:
            self.warned = True
            self._logger.warning(self._message, *args)
