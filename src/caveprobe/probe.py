"""Fault-suppressing memory probes built on simulated transactions.

A probe wraps a single access in a transaction.  If the access would fault,
the transaction aborts instead of delivering the fault, so the prober can
classify any address without crashing.  Read probes (``tap``) classify
accessibility; write probes (``claw``) wrap a write and then explicitly
abort, which rolls the write back, so writability is learned without ever
changing memory.  Transient aborts (the kind interrupts or cache pressure
cause on real hardware) are simulated with a seeded RNG and retried.
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


class Accessibility(enum.Enum):
    ACCESSIBLE = "accessible"
    INACCESSIBLE = "inaccessible"


class Writability(enum.Enum):
    WRITABLE = "writable"
    READ_ONLY = "readonly"
    INACCESSIBLE = "inaccessible"


# Transient aborts retried per probe beyond its first attempt.
MAX_RETRIES = 100

# Module-level aliases: a probe runs once per page, and a global lookup
# costs a tenth of an enum class attribute lookup.
ACCESSIBLE = Accessibility.ACCESSIBLE
INACCESSIBLE = Accessibility.INACCESSIBLE
WRITABLE = Writability.WRITABLE
READ_ONLY = Writability.READ_ONLY
NO_ACCESS = Writability.INACCESSIBLE
_RETRYABLE = ProbeOutcome.RETRYABLE_ABORT
_FATAL = ProbeOutcome.FATAL_ABORT

# (transaction op, probe op, outcome and verdict of an allowed access,
# verdict of a refused one)
_READ = ("read_tx", "tap", ProbeOutcome.COMMITTED, ACCESSIBLE, INACCESSIBLE)
_WRITE = ("write_tx", "claw", ProbeOutcome.EXPLICIT_ABORT, WRITABLE, READ_ONLY)


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
    Counter keys: ``read_tx``, ``write_tx``, ``taps``, ``claws``,
    ``retries``, ``safe_writes``; a key appears at its first increment, so
    read ``counters`` with ``.get(key, 0)``.  With ``trace=True`` every
    primitive call is appended to ``trace_log`` as ``(op, addr, result)``.
    """

    def __init__(
        self, spurious_abort_probability: float, rng_seed: int, *, trace: bool = False
    ):
        self.spurious_abort_probability = spurious_abort_probability
        self.rng = random.Random(rng_seed)
        self.counters: dict[str, int] = {}
        self.trace_log: list[tuple[str, int, object]] | None = [] if trace else None

    def _note(self, op: str, addr: int, result: object) -> None:
        if self.trace_log is not None:
            self.trace_log.append((op, addr, result))

    # -- classification probes ----------------------------------------------

    def _settle(self, addr: int, allowed: bool, kind: tuple):
        """Run every transaction of one probe of ``addr``, in this one frame,
        and return the probe's verdict; ``kind`` is ``_READ`` or ``_WRITE``.

        Each attempt is one transaction, counted and traced.  An access the
        page ``allowed`` succeeds, except for the occasional simulated
        transient abort, which is retried up to ``MAX_RETRIES`` times beyond
        the first attempt.  Any other access aborts fatally at the first
        attempt: the fault is suppressed inside the transaction and surfaces
        as an abort code distinct from the transient one.  Running out of
        retries raises RetryBudgetExhausted rather than returning a wrong
        classification.
        """
        tx, op, done, verdict, refused = kind
        counters = self.counters
        trace = self.trace_log
        if not allowed:
            counters[tx] = counters.get(tx, 0) + 1
            if trace is not None:
                trace += ((tx, addr, _FATAL), (op, addr, refused))
            return refused
        p = self.spurious_abort_probability
        attempts = 1
        if p > 0.0:
            rand = self.rng.random
            while rand() < p:
                if trace is not None:
                    trace.append((tx, addr, _RETRYABLE))
                if attempts > MAX_RETRIES:
                    counters[tx] = counters.get(tx, 0) + attempts
                    counters["retries"] = counters.get("retries", 0) + attempts
                    self._note(op, addr, "exhausted")
                    raise RetryBudgetExhausted(addr, attempts)
                attempts += 1
        counters[tx] = counters.get(tx, 0) + attempts
        if attempts > 1:
            counters["retries"] = counters.get("retries", 0) + attempts - 1
        if trace is not None:
            trace += ((tx, addr, done), (op, addr, verdict))
        return verdict

    def tap(self, space: AddressSpace, addr: int) -> Accessibility:
        """Classify readability of ``addr`` without risking a fault: a
        mapped, readable, user-accessible user-half address commits its
        read transaction."""
        self.counters["taps"] = self.counters.get("taps", 0) + 1
        page = space.pages.get(addr & ~(PAGE_SIZE - 1))
        allowed = (
            addr < USER_TOP and page is not None
            and page.perms.readable and page.perms.user_accessible
        )
        return self._settle(addr, allowed, _READ)

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
        self.counters["claws"] = self.counters.get("claws", 0) + 1
        page = space.pages.get(addr & ~(PAGE_SIZE - 1))
        allowed = (
            addr < USER_TOP and page is not None
            and page.perms.writable and page.perms.user_accessible
        )
        if allowed or known_accessible:
            return self._settle(addr, allowed, _WRITE)
        self.counters["write_tx"] = self.counters.get("write_tx", 0) + 1
        self._note("write_tx", addr, _FATAL)
        kind = READ_ONLY if self.tap(space, addr) is ACCESSIBLE else NO_ACCESS
        self._note("claw", addr, kind)
        return kind

    def safe_write(self, space: AddressSpace, addr: int, data: bytes) -> None:
        """Write ``data`` at ``addr``, counted as one safe write.  It probes
        nothing: the caller has settled every touched page writable through
        the store, as ``injector.inject`` does."""
        if not data:
            raise ValueError("safe_write requires a non-empty payload")
        self.counters["safe_writes"] = self.counters.get("safe_writes", 0) + 1
        space.write_bytes(addr, data)
