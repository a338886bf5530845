import random
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import example, given, strategies as st

from caveprobe import explorer, probe
from caveprobe.memspace import PAGE_SIZE, USER_TOP, AddressSpace, PagePermissions
from caveprobe.probe import (
    ProbeOutcome,
    Prober,
    RetryBudgetExhausted,
    Writability,
)
from helpers import make_space, random_permed_space, run_demo_pipelines, space_digest


@pytest.fixture
def space():
    return make_space(
        (0x10000, PAGE_SIZE, "ru", b"read-only"),
        (0x11000, PAGE_SIZE, "rwu", b"writable"),
        (0x12000, PAGE_SIZE, "", b""),          # guard style
        (0x13000, PAGE_SIZE, "rw", b""),        # mapped, not user visible
        (USER_TOP, PAGE_SIZE, "rx", b""),       # kernel half
    )


def quiet_prober() -> Prober:
    return Prober(0.0, 0)


def test_retry_budget_and_sweep_gap_constants():
    assert probe.MAX_RETRIES == 100
    assert explorer.MAX_GAP == 64


def traced_prober() -> Prober:
    return Prober(0.0, 0, trace=True)


def transactions(p: Prober) -> list[tuple[str, int, ProbeOutcome]]:
    """The ``read_tx``/``write_tx`` entries of a traced prober's log."""
    return [e for e in p.trace_log if e[0] in ("read_tx", "write_tx")]


class TestSingleTransactions:
    """The outcome of each transaction, read off its trace entry."""

    def test_read_commits_on_accessible(self, space):
        p = traced_prober()
        p.tap(space, 0x10000)
        assert transactions(p) == [("read_tx", 0x10000, ProbeOutcome.COMMITTED)]

    def test_read_fatal_on_unmapped(self, space):
        p = traced_prober()
        p.tap(space, 0x999000)
        assert transactions(p) == [("read_tx", 0x999000, ProbeOutcome.FATAL_ABORT)]

    def test_read_fatal_on_guard(self, space):
        p = traced_prober()
        p.tap(space, 0x12000)
        assert transactions(p) == [("read_tx", 0x12000, ProbeOutcome.FATAL_ABORT)]

    def test_read_fatal_on_supervisor_page(self, space):
        p = traced_prober()
        p.tap(space, 0x13000)
        assert transactions(p) == [("read_tx", 0x13000, ProbeOutcome.FATAL_ABORT)]

    def test_read_fatal_on_kernel_half(self, space):
        p = traced_prober()
        p.tap(space, USER_TOP)
        assert transactions(p) == [("read_tx", USER_TOP, ProbeOutcome.FATAL_ABORT)]

    def test_write_explicit_abort_on_writable(self, space):
        p = traced_prober()
        p.claw(space, 0x11000, known_accessible=True)
        assert transactions(p) == [("write_tx", 0x11000, ProbeOutcome.EXPLICIT_ABORT)]

    def test_write_fatal_on_read_only(self, space):
        p = traced_prober()
        p.claw(space, 0x10000, known_accessible=True)
        assert transactions(p) == [("write_tx", 0x10000, ProbeOutcome.FATAL_ABORT)]

    def test_write_never_modifies(self, space):
        p = traced_prober()
        before = space_digest(space)
        p.claw(space, 0x11000, known_accessible=True)
        p.claw(space, 0x10000, known_accessible=True)
        assert space_digest(space) == before

    def test_counters(self, space):
        p = traced_prober()
        p.tap(space, 0x10000)
        p.claw(space, 0x11000, known_accessible=True)
        assert p.counters["read_tx"] == 1
        assert p.counters["write_tx"] == 1


class TestTap:
    def test_accessible(self, space):
        assert quiet_prober().tap(space, 0x10123) is Writability.ACCESSIBLE

    def test_inaccessible_variants(self, space):
        p = quiet_prober()
        for addr in (0x999000, 0x12000, 0x13000, USER_TOP, USER_TOP + 0x5000):
            assert p.tap(space, addr) is Writability.INACCESSIBLE

    def test_zero_probability_never_retries(self, space):
        p = quiet_prober()
        for _ in range(50):
            p.tap(space, 0x10000)
        assert p.counters.get("retries", 0) == 0
        assert p.counters["read_tx"] == 50

    def test_retry_sequence_frozen_seed(self, space):
        # with seed 99 at probability 0.5 the first four draws are below
        # 0.5 and the fifth is 0.7599, so the fifth attempt commits
        p = Prober(0.5, 99)
        with patch.object(probe, "MAX_RETRIES", 4):
            assert p.tap(space, 0x10000) is Writability.ACCESSIBLE
        assert p.counters["read_tx"] == 5
        assert p.counters["retries"] == 4

    def test_retry_budget_exhaustion_frozen_seed(self, space):
        # same draw sequence, one less retry allowed: the budget runs out
        p = Prober(0.5, 99)
        with patch.object(probe, "MAX_RETRIES", 3), \
                pytest.raises(RetryBudgetExhausted) as exc:
            p.tap(space, 0x10000)
        assert exc.value.attempts == 4
        assert exc.value.addr == 0x10000
        # the first attempt and three retries, each a transaction
        assert p.counters == {"read_tx": 4, "taps": 1, "retries": 3}

    def test_exhaustion_never_misclassifies(self, space):
        # seed 0 at probability 0.9: the first five draws all fall below
        # 0.9, so a 4-retry budget is spent without an answer
        p = Prober(0.9, 0)
        with patch.object(probe, "MAX_RETRIES", 4), \
                pytest.raises(RetryBudgetExhausted) as exc:
            p.tap(space, 0x11000)
        assert exc.value.attempts == 5

    def test_spurious_aborts_eventually_resolve(self, space):
        p = Prober(0.3, 7)
        for _ in range(200):
            assert p.tap(space, 0x11000) is Writability.ACCESSIBLE
        assert p.counters["retries"] > 0


class TestClaw:
    def test_writable(self, space):
        assert quiet_prober().claw(space, 0x11010) is Writability.WRITABLE

    def test_read_only(self, space):
        assert quiet_prober().claw(space, 0x10000) is Writability.READ_ONLY

    @pytest.mark.parametrize("addr, known_accessible, kind, expected", [
        pytest.param(0x11000, False, Writability.WRITABLE,
                     [("write_tx", 0x11000, ProbeOutcome.EXPLICIT_ABORT)],
                     id="writable"),
        pytest.param(0x10000, False, Writability.READ_ONLY,
                     [("write_tx", 0x10000, ProbeOutcome.FATAL_ABORT),
                      ("read_tx", 0x10000, ProbeOutcome.COMMITTED)],
                     id="read-only"),
        pytest.param(0x999000, False, Writability.INACCESSIBLE,
                     [("write_tx", 0x999000, ProbeOutcome.FATAL_ABORT),
                      ("read_tx", 0x999000, ProbeOutcome.FATAL_ABORT)],
                     id="inaccessible"),
        pytest.param(0x10000, True, Writability.READ_ONLY,
                     [("write_tx", 0x10000, ProbeOutcome.FATAL_ABORT)],
                     id="read-only-known-accessible"),
    ])
    def test_exact_transactions_per_kind(
        self, space, addr, known_accessible, kind, expected
    ):
        # the write comes first; only a fatal one on a page not known
        # accessible is followed by a tap
        p = traced_prober()
        assert p.claw(space, addr, known_accessible=known_accessible) is kind
        assert transactions(p) == expected
        assert p.counters["write_tx"] == 1
        assert p.counters.get("read_tx", 0) == len(expected) - 1
        assert p.counters.get("retries", 0) == 0

    def test_never_modifies_memory(self, space):
        p = quiet_prober()
        before = space_digest(space)
        for addr in (0x10000, 0x11000, 0x12000, 0x999000):
            p.claw(space, addr)
        assert space_digest(space) == before

    def test_retry_in_write_phase(self, space):
        p = Prober(0.3, 11)
        for _ in range(100):
            assert p.claw(space, 0x11000) is Writability.WRITABLE


class TestSafeWrite:
    # refusals are the store's: see test_injector.py's TestInject
    def test_writes_after_probing(self, space):
        p = quiet_prober()
        p.safe_write(space, 0x11100, b"hello")
        assert space.read_bytes(0x11100, 5) == b"hello"
        assert p.counters == {"safe_writes": 1}  # no claw, no transaction

    def test_writes_across_a_page_boundary(self):
        space = make_space((0x20000, 2 * PAGE_SIZE, "rwu", b""))
        p = quiet_prober()
        p.safe_write(space, 0x20FF8, b"A" * 16)
        assert p.counters == {"safe_writes": 1}
        assert space.read_bytes(0x20FF8, 16) == b"A" * 16

    def test_rejects_empty_payload(self):
        # safe_write trusts its caller for the payload: inject writes the
        # image and then the two 8-byte frame slots, never empty data
        lengths = []
        safe_write = Prober.safe_write

        def spy(self, space, addr, data):
            lengths.append(len(data))
            return safe_write(self, space, addr, data)

        with patch.object(Prober, "safe_write", spy):
            run_demo_pipelines()
        assert lengths and min(lengths) > 0
        assert lengths[1::2] == [16] * (len(lengths) // 2)


class TestTrace:
    def test_trace_records_primitives(self, space):
        p = Prober(0.0, 0, trace=True)
        p.tap(space, 0x10000)
        p.claw(space, 0x11000)
        ops = [op for op, _, _ in p.trace_log]
        assert "read_tx" in ops and "write_tx" in ops
        assert "tap" in ops and "claw" in ops

    def test_no_trace_by_default(self, space):
        p = quiet_prober()
        p.tap(space, 0x10000)
        assert p.trace_log is None


@given(seed=st.integers(0, 2**32 - 1), addr_seed=st.integers(0, 2**32 - 1))
def test_probes_never_fault_or_mutate(seed, addr_seed):
    rng = random.Random(seed)
    space, _, start, end = random_permed_space(rng, max_pages=24)
    p = Prober(0.001, seed)
    before = space_digest(space)
    arng = random.Random(addr_seed)
    for _ in range(32):
        addr = arng.randrange(0, 1 << 48)
        if arng.random() < 0.5:
            addr = arng.randrange(start, max(end, start + 1))
        p.tap(space, addr)
        p.claw(space, addr)
    assert space_digest(space) == before


class ReferenceProber:
    """Per-attempt model of the probes: every attempt is its own
    transaction, which checks the page, draws for a transient abort, and is
    counted and traced; a probe repeats attempts until one is not
    transient or ``retries`` retries are spent."""

    READ = {ProbeOutcome.COMMITTED: Writability.ACCESSIBLE,
            ProbeOutcome.FATAL_ABORT: Writability.INACCESSIBLE}
    WRITE = {ProbeOutcome.EXPLICIT_ABORT: Writability.WRITABLE,
             ProbeOutcome.FATAL_ABORT: Writability.READ_ONLY}

    def __init__(self, spurious_abort_probability: float, rng_seed: int, retries: int):
        self.spurious_abort_probability = spurious_abort_probability
        self.retries = retries
        self.rng = random.Random(rng_seed)
        self.counters = Counter()
        self.trace_log = []

    def attempt(self, space, addr, write):
        op = "write_tx" if write else "read_tx"
        self.counters[op] += 1
        page = space.get_page(addr)
        allowed = (
            addr < USER_TOP
            and page is not None
            and page.perms.user_accessible
            and (page.perms.writable if write else page.perms.readable)
        )
        p = self.spurious_abort_probability
        if not allowed:
            out = ProbeOutcome.FATAL_ABORT
        elif p > 0 and self.rng.random() < p:
            out = ProbeOutcome.RETRYABLE_ABORT
        else:
            out = ProbeOutcome.EXPLICIT_ABORT if write else ProbeOutcome.COMMITTED
        self.trace_log.append((op, addr, out))
        return out

    def settle(self, op, space, addr, write):
        """The outcome of the first attempt that is not transient; each
        attempt after the first is a retry."""
        for attempts in range(1, self.retries + 2):
            if attempts > 1:
                self.counters["retries"] += 1
            out = self.attempt(space, addr, write)
            if out is not ProbeOutcome.RETRYABLE_ABORT:
                return out
        self.trace_log.append((op, addr, "exhausted"))
        raise RetryBudgetExhausted(addr, attempts)

    def tap(self, space, addr):
        self.counters["taps"] += 1
        verdict = self.READ[self.settle("tap", space, addr, False)]
        self.trace_log.append(("tap", addr, verdict))
        return verdict

    def claw(self, space, addr, *, known_accessible=False):
        """Write first; only a fatal write, on a page not known accessible,
        is followed by a tap that tells read-only from inaccessible."""
        self.counters["claws"] += 1
        verdict = self.WRITE[self.settle("claw", space, addr, True)]
        if verdict is Writability.READ_ONLY and not known_accessible:
            if self.tap(space, addr) is Writability.INACCESSIBLE:
                verdict = Writability.INACCESSIBLE
        self.trace_log.append(("claw", addr, verdict))
        return verdict


def probe_outcome(probe, *args, **kw):
    try:
        return probe(*args, **kw)
    except RetryBudgetExhausted as exc:
        return ("exhausted", exc.addr, exc.attempts)


USER_SPECS = ["", "u", "r", "rw", "ru", "rwu", "rxu", "rwxu"]
KERNEL_SPECS = ["", "r", "rw", "rx"]


@st.composite
def probe_sessions(draw):
    """A space with user and kernel-half pages of every permission kind, a
    prober's (abort probability, seed, retry budget), and a list of (claw?, address, known_accessible) probes."""
    space = AddressSpace()
    bases = []
    for i in range(draw(st.integers(1, 4))):
        base = 0x10000 + 2 * i * PAGE_SIZE  # every other page stays unmapped
        space.map_region(base, PAGE_SIZE, PagePermissions.from_rwxu(
            draw(st.sampled_from(USER_SPECS))))
        bases.append(base)
    for i in range(draw(st.integers(0, 2))):
        base = USER_TOP + i * PAGE_SIZE
        space.map_region(base, PAGE_SIZE, PagePermissions.from_rwxu(
            draw(st.sampled_from(KERNEL_SPECS))))
        bases.append(base)
    settings = (
        draw(st.one_of(
            st.sampled_from([0.0, 0.001, 0.3, 0.9]),
            st.floats(0.0, 0.95),
        )),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, 5)),
    )
    addr = st.one_of(
        st.sampled_from(bases).flatmap(lambda b: st.integers(b, b + 2 * PAGE_SIZE - 1)),
        st.integers(0, (1 << 48) - 1),
    )
    probes = draw(st.lists(st.tuples(st.booleans(), addr, st.booleans()), max_size=12))
    return space, settings, probes


def _exhausting_session():
    """Taps and claws on a readable and a writable page with abort
    probability 0.95 and one retry, so that most probes run out of retries."""
    space = AddressSpace()
    space.map_region(0x10000, PAGE_SIZE, PagePermissions.from_rwxu("ru"))
    space.map_region(0x12000, PAGE_SIZE, PagePermissions.from_rwxu("rwu"))
    probes = [(False, 0x10000, False), (True, 0x12000, False), (False, 0x12000, False),
              (True, 0x10000, True), (True, 0x12000, True)]
    return space, (0.95, 0, 1), probes


@given(probe_sessions())
@example(_exhausting_session())
def test_probes_match_per_attempt_reference(session):
    space, (prob, seed, retries), probes = session
    p = Prober(prob, seed, trace=True)
    ref = ReferenceProber(prob, seed, retries)
    with patch.object(probe, "MAX_RETRIES", retries):
        for is_claw, addr, known_accessible in probes:
            if is_claw:
                got = probe_outcome(p.claw, space, addr, known_accessible=known_accessible)
                want = probe_outcome(ref.claw, space, addr, known_accessible=known_accessible)
            else:
                got = probe_outcome(p.tap, space, addr)
                want = probe_outcome(ref.tap, space, addr)
            assert got == want
    assert p.counters == dict(ref.counters)
    assert p.trace_log == ref.trace_log
    # each probe's first attempt is its one transaction that is no retry,
    # whether the probe settled or ran out of retries
    c = p.counters
    assert c.get("retries", 0) == (c.get("read_tx", 0) + c.get("write_tx", 0)
                                   - c.get("taps", 0) - c.get("claws", 0))
