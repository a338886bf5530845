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
from collections import Counter
from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True)
class ProbeConfig:
    """Knobs for the transaction simulation.

    ``spurious_abort_probability`` is the per-attempt chance of a transient
    abort on an otherwise fine access.  ``max_retries`` bounds how many times
    a transient abort is retried before the probe gives up.
    """

    spurious_abort_probability: float = 0.001
    rng_seed: int = 0
    max_retries: int = 100

    def __post_init__(self) -> None:
        if not (0.0 <= self.spurious_abort_probability < 1.0):
            raise ValueError("spurious_abort_probability must be in [0, 1)")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")


# final outcome of a settled transaction -> classification
_READ_VERDICTS = {
    ProbeOutcome.COMMITTED: Accessibility.ACCESSIBLE,
    ProbeOutcome.FATAL_ABORT: Accessibility.INACCESSIBLE,
}
_WRITE_VERDICTS = {
    ProbeOutcome.EXPLICIT_ABORT: Writability.WRITABLE,
    ProbeOutcome.FATAL_ABORT: Writability.READ_ONLY,
}


class RetryBudgetExhausted(RuntimeError):
    """Every attempt aborted transiently; the address stays unclassified."""

    def __init__(self, addr: int, attempts: int):
        super().__init__(
            f"probe at {addr:#x} aborted transiently {attempts} times"
        )
        self.addr = addr
        self.attempts = attempts


class NotWritableError(Exception):
    """safe_write refused to touch a page the claw probe rejected."""

    def __init__(self, page_base: int):
        super().__init__(f"page {page_base:#x} is not writable")
        self.page_base = page_base


class Prober:
    """Probe driver owning the retry RNG and per-operation counters.

    Counter keys: ``read_tx``, ``write_tx``, ``taps``, ``claws``,
    ``retries``, ``safe_writes``.  With ``trace=True`` every primitive call
    is appended to ``trace_log`` as ``(op, addr, result)``.
    """

    def __init__(self, config: ProbeConfig | None = None, *, trace: bool = False):
        self.config = config or ProbeConfig()
        self.rng = random.Random(self.config.rng_seed)
        self.counters: Counter[str] = Counter()
        self.trace_log: list[tuple[str, int, object]] | None = [] if trace else None

    def _spurious(self) -> bool:
        p = self.config.spurious_abort_probability
        return p > 0.0 and self.rng.random() < p

    def _note(self, op: str, addr: int, result: object) -> None:
        if self.trace_log is not None:
            self.trace_log.append((op, addr, result))

    # -- single transactions -------------------------------------------------

    def transaction_read(self, space: AddressSpace, addr: int) -> ProbeOutcome:
        """One transactional read attempt.  Never faults.

        A mapped, readable, user-accessible user-half address commits,
        except for the occasional simulated transient abort.  Everything
        else aborts fatally: the fault is suppressed inside the transaction
        and surfaces as an abort code distinct from the transient one.
        """
        self.counters["read_tx"] += 1
        page = space.get_page(addr)
        if (
            addr < USER_TOP
            and page is not None
            and page.perms.readable
            and page.perms.user_accessible
        ):
            out = ProbeOutcome.RETRYABLE_ABORT if self._spurious() else ProbeOutcome.COMMITTED
        else:
            out = ProbeOutcome.FATAL_ABORT
        self._note("read_tx", addr, out)
        return out

    def transaction_write_abort(self, space: AddressSpace, addr: int) -> ProbeOutcome:
        """One transactional write attempt ending in an explicit abort.

        The explicit abort rolls the write back, so memory is never
        modified regardless of outcome.  A writable destination reports the
        explicit abort; a non-writable one aborts fatally on the suppressed
        fault.
        """
        self.counters["write_tx"] += 1
        page = space.get_page(addr)
        if (
            addr < USER_TOP
            and page is not None
            and page.perms.writable
            and page.perms.user_accessible
        ):
            out = ProbeOutcome.RETRYABLE_ABORT if self._spurious() else ProbeOutcome.EXPLICIT_ABORT
        else:
            out = ProbeOutcome.FATAL_ABORT
        self._note("write_tx", addr, out)
        return out

    # -- classification probes ----------------------------------------------

    def _settle(
        self, op: str, attempt, space: AddressSpace, addr: int, verdicts: dict
    ):
        """Repeat the ``attempt`` transaction past transient aborts, up to
        ``max_retries`` times beyond the first attempt, and map its final
        outcome through ``verdicts``.  Running out of budget raises
        RetryBudgetExhausted rather than returning a wrong classification.
        """
        for attempts in range(1, self.config.max_retries + 2):
            out = attempt(space, addr)
            if out is not ProbeOutcome.RETRYABLE_ABORT:
                result = verdicts[out]
                self._note(op, addr, result)
                return result
            self.counters["retries"] += 1
        self._note(op, addr, "exhausted")
        raise RetryBudgetExhausted(addr, attempts)

    def tap(self, space: AddressSpace, addr: int) -> Accessibility:
        """Classify readability of ``addr`` without risking a fault;
        transient aborts are retried."""
        self.counters["taps"] += 1
        return self._settle("tap", self.transaction_read, space, addr, _READ_VERDICTS)

    def claw(
        self, space: AddressSpace, addr: int, *, known_accessible: bool = False
    ) -> Writability:
        """Classify writability of ``addr`` without modifying memory.

        Runs a tap first, unless the caller already holds an accessible
        verdict for the page (``known_accessible``); an inaccessible address
        short-circuits with no write transaction at all.  Otherwise the
        write-and-abort transaction distinguishes writable from read-only.
        """
        self.counters["claws"] += 1
        if not known_accessible and self.tap(space, addr) is Accessibility.INACCESSIBLE:
            self._note("claw", addr, Writability.INACCESSIBLE)
            return Writability.INACCESSIBLE
        return self._settle(
            "claw", self.transaction_write_abort, space, addr, _WRITE_VERDICTS
        )

    def safe_write(self, space: AddressSpace, addr: int, data: bytes) -> None:
        """Write only after claw confirms every touched page is writable.

        Raises NotWritableError naming the first failing page base; in that
        case nothing is written.  Never raises a memory fault.
        """
        if not data:
            raise ValueError("safe_write requires a non-empty payload")
        self.counters["safe_writes"] += 1
        end = addr + len(data)
        base = AddressSpace.page_base(addr)
        while base < end:
            if self.claw(space, base) is not Writability.WRITABLE:
                raise NotWritableError(base)
            base += PAGE_SIZE
        space.write_bytes(addr, data)
