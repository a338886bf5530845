"""Fault-suppressing memory probes built on simulated transactions.

A probe wraps a single access in a transaction.  If the access would fault,
the transaction aborts instead of delivering the fault, so the prober can
classify any address without crashing.  Read probes (``tap``) classify
accessibility; write probes (``claw``) wrap a write and then explicitly
abort, which rolls the write back, so writability is learned without ever
changing memory.  Both return a ``Writability``, the one verdict type from
probe to report: a tap ``ACCESSIBLE`` or ``INACCESSIBLE``, a claw
``WRITABLE``, ``READ_ONLY`` or ``INACCESSIBLE``.  Transient aborts (the
kind interrupts or cache pressure cause on real hardware) are simulated
with a seeded RNG and retried.

Each probe settles in the frame of ``Prober.tap`` or ``Prober.claw``: one
page lookup, and one draw for a transient abort when its probability is
above zero.  Only a probe whose first attempt aborted transiently calls
``Prober._retry``, where every retry happens.  A claw whose write faults
on a page not known accessible calls ``Prober.tap`` to tell read-only from
inaccessible, so every tap a report counts is a call of ``Prober.tap``.
"""

from __future__ import annotations

import enum
import random

from .memspace import PAGE_SIZE, USER_TOP, AddressSpace


class ProbeOutcome(enum.Enum):
    COMMITTED = "committed"
    EXPLICIT_ABORT = "explicit-abort"
    RETRYABLE_ABORT = "retryable-abort"
    FATAL_ABORT = "fatal-abort"


class Writability(enum.Enum):
    ACCESSIBLE = "accessible"  # tapped, not clawed
    WRITABLE = "writable"
    READ_ONLY = "readonly"
    INACCESSIBLE = "inaccessible"


# Transient aborts retried per probe beyond its first attempt.
MAX_RETRIES = 100

# Module-level aliases: a probe runs once per page, and a global lookup
# costs a tenth of an enum class attribute lookup.
ACCESSIBLE = Writability.ACCESSIBLE
WRITABLE = Writability.WRITABLE
READ_ONLY = Writability.READ_ONLY
NO_ACCESS = Writability.INACCESSIBLE
_COMMITTED = ProbeOutcome.COMMITTED
_EXPLICIT = ProbeOutcome.EXPLICIT_ABORT
_RETRYABLE = ProbeOutcome.RETRYABLE_ABORT
_FATAL = ProbeOutcome.FATAL_ABORT
_PAGE_MASK = ~(PAGE_SIZE - 1)

# (transaction op, probe op, outcome and verdict of an allowed access)
_READ = ("read_tx", "tap", _COMMITTED, ACCESSIBLE)
_WRITE = ("write_tx", "claw", _EXPLICIT, WRITABLE)


class RetryBudgetExhausted(RuntimeError):
    """Every attempt aborted transiently; the address stays unclassified."""

    def __init__(self, addr: int, attempts: int):
        super().__init__(
            f"probe at {addr:#x} aborted transiently {attempts} times"
        )
        self.addr = addr
        self.attempts = attempts


class Prober:
    """Probe driver owning the retry RNG and per-operation counters.  A
    run probes only through ``explorer.PageMap``, which decides what to
    probe; ``safe_write`` is how the injector writes.

    ``spurious_abort_probability`` is the per-attempt chance of a transient
    abort on an otherwise fine access; ``rng_seed`` seeds those aborts.
    With ``trace=True`` every primitive call is appended to ``trace_log``
    as ``(op, addr, result)``.  The counts live in slots, and ``counters``
    is their dict view.
    """

    __slots__ = (
        "spurious_abort_probability", "rng", "trace_log",
        "_taps", "_claws", "_retries", "_safe_writes", "_retried",
    )

    def __init__(
        self, spurious_abort_probability: float, rng_seed: int, *, trace: bool = False
    ):
        self.spurious_abort_probability = spurious_abort_probability
        self.rng = random.Random(rng_seed)
        self.trace_log: list[tuple[str, int, object]] | None = [] if trace else None
        self._taps = self._claws = self._retries = self._safe_writes = 0
        # transactions past each probe's first, by op: read_tx is taps
        # plus the read retries, so a probe's first costs one increment
        self._retried = {"read_tx": 0, "write_tx": 0}

    @property
    def counters(self) -> dict[str, int]:
        """A new dict of the non-zero counts so far, keyed, in this order,
        ``read_tx``, ``write_tx``, ``taps``, ``claws``, ``retries`` and
        ``safe_writes``; read it with ``.get(key, 0)``, and read it again
        for later counts."""
        counts = {
            "read_tx": self._taps + self._retried["read_tx"],
            "write_tx": self._claws + self._retried["write_tx"],
            "taps": self._taps,
            "claws": self._claws,
            "retries": self._retries,
            "safe_writes": self._safe_writes,
        }
        return {key: n for key, n in counts.items() if n}

    # -- classification probes ----------------------------------------------

    def _retry(self, addr: int, kind: tuple):
        """Finish a probe of ``addr`` whose first attempt, at an access the
        page allows, aborted transiently, and return its verdict; ``kind``
        is ``_READ`` or ``_WRITE``.

        Each further attempt is one more transaction, counted and traced,
        and draws again; up to ``MAX_RETRIES`` attempts follow the first.
        Running out of retries raises RetryBudgetExhausted rather than
        returning a wrong classification.
        """
        tx, op, done, verdict = kind
        p = self.spurious_abort_probability
        rand = self.rng.random
        trace = self.trace_log
        budget = MAX_RETRIES
        for retries in range(1, budget + 1):
            if trace is not None:
                trace.append((tx, addr, _RETRYABLE))
            if rand() >= p:
                self._retried[tx] += retries
                self._retries += retries
                if trace is not None:
                    trace += ((tx, addr, done), (op, addr, verdict))
                return verdict
        self._retried[tx] += budget
        self._retries += budget + 1
        if trace is not None:
            trace += ((tx, addr, _RETRYABLE), (op, addr, "exhausted"))
        raise RetryBudgetExhausted(addr, budget + 1)

    def tap(self, space: AddressSpace, addr: int) -> Writability:
        """Classify readability of ``addr`` without risking a fault:
        ``ACCESSIBLE`` when the address is mapped, readable, user-accessible
        and in the user half, so its read transaction commits, else
        ``INACCESSIBLE``."""
        self._taps += 1
        trace = self.trace_log
        page = space.pages.get(addr & _PAGE_MASK)
        if (
            page is None or addr >= USER_TOP
            or not (page.perms.readable and page.perms.user_accessible)
        ):
            if trace is not None:
                trace += (("read_tx", addr, _FATAL), ("tap", addr, NO_ACCESS))
            return NO_ACCESS
        p = self.spurious_abort_probability
        if p > 0.0 and self.rng.random() < p:
            return self._retry(addr, _READ)
        if trace is not None:
            trace += (("read_tx", addr, _COMMITTED), ("tap", addr, ACCESSIBLE))
        return ACCESSIBLE

    def claw(
        self, space: AddressSpace, addr: int, *, known_accessible: bool = False
    ) -> Writability:
        """Classify writability of ``addr`` without modifying memory.

        Writes first, in a transaction ending in an explicit abort that
        rolls the write back; reaching the abort proves the page writable
        (there are no write-only pages).  Only a write that aborts fatally
        is followed by a tap, which tells read-only from inaccessible,
        unless the caller holds an accessible verdict (``known_accessible``).
        """
        self._claws += 1
        trace = self.trace_log
        page = space.pages.get(addr & _PAGE_MASK)
        if (
            page is not None and addr < USER_TOP
            and page.perms.writable and page.perms.user_accessible
        ):
            p = self.spurious_abort_probability
            if p > 0.0 and self.rng.random() < p:
                return self._retry(addr, _WRITE)
            if trace is not None:
                trace += (("write_tx", addr, _EXPLICIT), ("claw", addr, WRITABLE))
            return WRITABLE
        if trace is not None:
            trace.append(("write_tx", addr, _FATAL))
        if known_accessible or self.tap(space, addr) is ACCESSIBLE:
            verdict = READ_ONLY
        else:
            verdict = NO_ACCESS
        if trace is not None:
            trace.append(("claw", addr, verdict))
        return verdict

    def safe_write(self, space: AddressSpace, addr: int, data: bytes) -> None:
        """Write ``data`` at ``addr``, counted as one safe write.  It probes
        nothing: the caller has settled every touched page writable through
        the store, as ``injector.inject`` does."""
        if not data:
            raise ValueError("safe_write requires a non-empty payload")
        self._safe_writes += 1
        space.write_bytes(addr, data)
