"""Acceptance checks for the probe-driven exploitation pipeline.

Each test verifies one top-level claim the package makes and prints a single
summary line (run pytest with -s to see the lines for passing tests too).
Every oracle here is an independent reimplementation: classifications are
recorded while the layout is generated instead of read back, byte scans use
the regex engine instead of the library's find loops, and end-to-end memory
integrity is checked by replaying the image load and diffing full snapshots.
"""

from __future__ import annotations

import itertools
import random
import re
from pathlib import Path

from caveprobe.caves import find_caves
from caveprobe.cli import (
    MODES,
    RESTORE_MODES,
    Pipeline,
    PipelineConfig,
    _read_image,
    emit_report,
    run_pipeline,
)
from caveprobe.explorer import PageMap
from caveprobe.gadgets import (
    CHAIN_VARIANTS, GADGETS, build_mprotect_chain, find_gadgets, required_kinds,
)
from caveprobe.machine import (
    PROT_RWX,
    MachineState,
    SyscallEffect,
    run_until,
)
from caveprobe.memspace import PAGE_SIZE, USER_TOP, load_manifest, parse_manifest
from caveprobe.probe import Prober
from caveprobe.synth import build_victim_image

from helpers import (
    NONE,
    claw_range,
    page_bytes,
    random_permed_space,
    settled_store,
    space_digest,
    truth_class_runs,
)


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _poke(space, addr: int, data: bytes) -> None:
    """Test-setup backdoor: write bytes regardless of page permissions."""
    for k, byte in enumerate(data):
        page = space.pages[(addr + k) & ~(PAGE_SIZE - 1)]
        page.writable_data()[(addr + k) % PAGE_SIZE] = byte


def test_criterion_1_map_reconstruction_exact():
    """Probe-driven map reconstruction reproduces the generator's own page
    classification run for run, with clean probes and with a 1 percent
    transient-abort rate."""
    failures: list[str] = []
    pages_total = 0
    for i in range(200):
        gen = random.Random(1000 + i)
        if i < 2:
            max_pages = 1 << 16
        elif i < 6:
            max_pages = 1 << 12
        else:
            max_pages = gen.randint(4, 128)
        space, truth, start, end = random_permed_space(gen, max_pages)
        pages_total += (end - start) // PAGE_SIZE
        want = truth_class_runs(truth, start, end)
        for prob, seed in ((0.0, i), (0.01, 7919 + i)):
            prober = Prober(prob, seed)
            pm = PageMap(space, prober, budget=(end - start) // PAGE_SIZE)
            # accessible runs from the program's map, misses from the store
            recon = claw_range(pm, start, end)
            got = [(r.start, r.end, r.kind.value) for r in recon.runs]
            if got != want and len(failures) < 3:
                failures.append(
                    f"layout {i} at abort rate {prob}: "
                    f"{len(got)} runs vs {len(want)} expected"
                )
    detail = (
        f"reconstructed 200 random layouts ({pages_total} pages), "
        "clean and noisy, all run lists equal to ground truth"
    )
    if failures:
        detail = "mismatches: " + "; ".join(failures)
    _criterion(1, not failures, detail)


def test_criterion_2_probes_never_fault_or_mutate():
    """One million fuzzed probe calls across random spaces raise nothing and
    leave every page's bytes and permissions untouched."""
    n_spaces, per_space = 20, 50_000
    mutated: list[str] = []
    probes = 0
    for i in range(n_spaces):
        gen = random.Random(2000 + i)
        space, _, start, end = random_permed_space(gen)
        before = space_digest(space)
        prober = Prober(0.001, i)
        fuzz = random.Random(5000 + i)
        for _ in range(per_space):
            r = fuzz.random()
            if r < 0.6:
                addr = fuzz.randrange(start, end)
            elif r < 0.8:
                addr = fuzz.randrange(start, end) & ~(PAGE_SIZE - 1)
            elif r < 0.9:
                addr = fuzz.randrange(0, USER_TOP)
            else:
                addr = fuzz.randrange(0, 1 << 48)
            if fuzz.random() < 0.5:
                prober.tap(space, addr)
            else:
                prober.claw(space, addr)
            probes += 1
        if space_digest(space) != before:
            mutated.append(f"space {i} changed under probing")
    detail = (
        f"{probes} fuzz probes over {n_spaces} spaces, "
        "zero faults, zero mutated bytes"
    )
    if mutated:
        detail = "; ".join(mutated)
    _criterion(2, probes == n_spaces * per_space and not mutated, detail)


def test_criterion_3_write_probe_classification_exact():
    """The write probe classifies every page of every random layout exactly
    as the generator recorded it, without altering content."""
    failures: list[str] = []
    pages = 0
    for i in range(60):
        gen = random.Random(3000 + i)
        space, truth, _, _ = random_permed_space(gen, gen.randint(8, 96))
        before = space_digest(space)
        prober = Prober(0.001, i)
        for base, cls in truth.items():
            # probe through an unaligned interior address half the time;
            # the verdict belongs to the whole page either way
            addr = base if gen.random() < 0.5 else base + gen.randrange(1, PAGE_SIZE)
            got = prober.claw(space, addr).value
            pages += 1
            if got != cls and len(failures) < 3:
                failures.append(f"page {base:#x}: probed {got}, truth {cls}")
        if space_digest(space) != before:
            failures.append(f"layout {i} mutated by write probes")
    detail = f"classified {pages} pages across 60 layouts byte-exactly"
    if failures:
        detail = "; ".join(failures)
    _criterion(3, not failures, detail)


def test_criterion_4_gadget_census_matches_regex_oracle():
    """The gadget census over probed-accessible pages equals an overlapping
    regex scan, including patterns straddling page boundaries."""
    max_len = max(len(pattern) for pattern in GADGETS.values())
    failures: list[str] = []
    hits_total = 0
    planted_straddles = 0
    for i in range(100):
        gen = random.Random(4000 + i)
        space, truth, _, _ = random_permed_space(gen, gen.randint(8, 64))
        accessible = sorted(b for b, c in truth.items() if c != NONE)
        acc_set = set(accessible)
        pairs = [b for b in accessible if b + PAGE_SIZE in acc_set]
        if pairs:
            # force boundary coverage: split one pattern across two pages
            pattern = gen.choice(list(GADGETS.values()))
            base = gen.choice(pairs)
            _poke(space, base + PAGE_SIZE - 1, pattern)
            planted_straddles += 1
        catalog = find_gadgets(settled_store(space), acc_set)
        if catalog.searched_pages != len(accessible):
            failures.append(f"layout {i}: searched {catalog.searched_pages}")
        for name, pattern in GADGETS.items():
            want: list[int] = []
            pat = re.compile(b"(?=" + re.escape(pattern) + b")")
            for base in accessible:
                buf = space.read_bytes(base, PAGE_SIZE)
                if base + PAGE_SIZE in acc_set and max_len > 1:
                    buf += space.read_bytes(base + PAGE_SIZE, max_len - 1)
                want.extend(
                    base + m.start()
                    for m in pat.finditer(buf)
                    if m.start() < PAGE_SIZE
                )
            got = catalog.found[name]
            hits_total += len(got)
            if got != tuple(want) and len(failures) < 3:
                failures.append(
                    f"layout {i} {name}: {len(got)} found, "
                    f"{len(want)} expected"
                )
    detail = (
        f"census equal to regex oracle on 100 layouts, {hits_total} hits, "
        f"{planted_straddles} planted page-straddling patterns"
    )
    if failures:
        detail = "; ".join(failures)
    _criterion(4, not failures and hits_total > 100, detail)


def test_criterion_5_chain_flips_protection_and_returns_zero():
    """Executing the built chain on the machine issues exactly one
    mprotect(cave, len, rwx) syscall, returns zero, and marks every cave
    page executable without touching its bytes."""
    failures: list[str] = []
    for t in range(100):
        variant = ("sound-5", "short-4")[t % 2]
        img = build_victim_image(500 + t)
        truth = img.truth
        space = load_manifest(parse_manifest(img.manifest_text.encode()))
        code_start, code_len, _ = truth.regions["code"]
        code_pages = range(code_start, code_start + code_len, PAGE_SIZE)
        catalog = find_gadgets(settled_store(space), code_pages)
        chain = build_mprotect_chain(
            catalog, truth.cave_start, truth.cave_len, PROT_RWX, variant
        )

        chain_addr = truth.stack_region[0]
        sentinel = 0x1F00000000
        space.write_bytes(
            chain_addr,
            b"".join(w.value.to_bytes(8, "little") for w in chain)
            + sentinel.to_bytes(8, "little"),
        )
        cave_before = space.read_bytes(truth.cave_start, truth.cave_len)

        state = MachineState()
        state.set_reg("rsp", chain_addr)
        if variant == "short-4":
            state.set_reg("rdx", PROT_RWX)
        # start at the bare ret inside the first pop gadget so the machine
        # simply begins consuming the chain
        state.rip = catalog.lowest("pop-rdi-ret") + 1
        result = run_until(
            state, space, sentinel, 10_000, chain_addr + 8 * (len(chain) + 1)
        )

        sys_effects = [
            e for e in result.side_effects if isinstance(e, SyscallEffect)
        ]
        page_perms = [
            space.get_page(truth.cave_start + off).perms
            for off in range(0, truth.cave_len, PAGE_SIZE)
        ]
        ok = (
            result.stop_reason == "reached-stop"
            and state.rip == sentinel
            and len(result.side_effects) == 1
            and len(sys_effects) == 1
            and sys_effects[0].name == "mprotect"
            and sys_effects[0].args == (truth.cave_start, truth.cave_len, PROT_RWX)
            and sys_effects[0].ret == 0
            and state.reg("rax") == 0
            and state.reg("rsp") == chain_addr + 8 * (len(chain) + 1)
            and all(
                p.readable and p.writable and p.executable and p.user_accessible
                for p in page_perms
            )
            and space.read_bytes(truth.cave_start, truth.cave_len) == cave_before
        )
        if not ok and len(failures) < 3:
            failures.append(
                f"trial {t} ({variant}): stop={result.stop_reason} "
                f"effects={len(result.side_effects)}"
            )
    detail = (
        "100 chain executions (both variants) each made exactly one rwx "
        "protection syscall, returned 0, and left cave bytes intact"
    )
    if failures:
        detail = "; ".join(failures)
    _criterion(5, not failures, detail)


def test_criterion_6_end_to_end_verdicts_and_memory_integrity(tmp_path):
    """One hundred full pipeline runs over distinct randomized victims, each
    under a random base shift and stack canary: every verdict true, and a
    full snapshot diff against a replayed image load shows changes only at
    the documented injection sites."""
    modes = ("hybrid", "linear", "pointer-chase")
    failures: list[str] = []
    byte_changes = 0
    for t in range(100):
        img = build_victim_image(6000 + t)
        manifest = tmp_path / f"m{t}.json"
        maps = tmp_path / f"m{t}.maps"
        manifest.write_text(img.manifest_text)
        maps.write_text(img.maps_text)
        cfg = PipelineConfig(
            image_path=str(manifest),
            ground_truth_path=str(maps),
            mode=modes[t % 3],
            seed=t,
            chain_variant=("sound-5", "short-4")[(t // 3) % 2],
        )
        pipe = Pipeline(cfg)
        report = pipe.run()

        expected_verdicts = {
            "map-match", "restoration", "canary-intact",
            "cleanup-zeroed", "marker-written",
        }
        if set(report.verdicts) != expected_verdicts or not report.all_verdicts_pass():
            if len(failures) < 3:
                failures.append(f"trial {t}: verdicts {report.verdicts}")
            continue

        ref = page_bytes(
            load_manifest(parse_manifest(img.manifest_text.encode())).shifted(report.aslr_offset)
        )
        post = page_bytes(pipe.pagemap.space)
        if set(ref) != set(post):
            failures.append(f"trial {t}: page set changed")
            continue

        frame = pipe.image
        allowed = [
            (frame.cave.start, frame.cave.start + len(frame.image_bytes())),
            (pipe.victim.rbp_slot_addr, pipe.victim.rbp_slot_addr + 16),
            (frame.marker[0], frame.marker[0] + 8),
        ]
        for base in sorted(post):
            a, b = post[base], ref[base]
            if a == b:
                continue
            for off in range(PAGE_SIZE):
                if a[off] == b[off]:
                    continue
                addr = base + off
                if any(lo <= addr < hi for lo, hi in allowed):
                    byte_changes += 1
                elif len(failures) < 3:
                    failures.append(f"trial {t}: stray write at {addr:#x}")
    detail = (
        "100 randomized end-to-end runs: every verdict passed and all "
        f"{byte_changes} changed bytes lie inside the armed frame slots, "
        "the planted cave image, and the completion marker"
    )
    if failures:
        detail = "; ".join(failures)
    _criterion(6, not failures and byte_changes > 0, detail)


def test_criterion_7_directed_census_matches_regex_oracle():
    """The directed census a hybrid run takes stops at the first page where
    the chain's kinds and the pivot's epilogue are all found, and gives each
    needed kind the lowest site an overlapping regex scan finds over the
    pages up to that one, page-straddling plants included."""
    failures: list[str] = []
    met = unmet = straddled = searched_total = accessible_total = 0
    for t in range(100):
        gen = random.Random(7000 + t)
        space, truth, _, _ = random_permed_space(gen, gen.randint(8, 64))
        accessible = sorted(b for b, c in truth.items() if c != NONE)
        acc_set = set(accessible)
        pairs = [b for b in accessible if b + PAGE_SIZE in acc_set]
        # most kinds planted once, a syscall into a ret or into a nop, some
        # plants split across two accessible pages
        for name, pattern in GADGETS.items():
            if not accessible or gen.random() < 0.1:
                continue
            if name == "syscall":
                pattern += gen.choice((b"\xc3", b"\xc3", b"\xc3", b"\x90"))
            if pairs and gen.random() < 0.25:
                base = gen.choice(pairs)
                off = PAGE_SIZE - gen.randint(1, len(pattern) - 1)
                straddled += 1
            else:
                base = gen.choice(accessible)
                off = gen.randint(0, PAGE_SIZE - len(pattern))
            _poke(space, base + off, pattern)
        for variant in CHAIN_VARIANTS:
            need = (*required_kinds(variant), "leave-ret")
            # the oracle: each page with the next page's first two bytes when
            # that page is accessible too, up to the first page where every
            # needed kind has a site and a syscall falls into a ret
            sites: dict[str, list[int]] = {kind: [] for kind in (*need, "into-ret")}
            pats = {kind: re.compile(b"(?=" + re.escape(GADGETS[kind]) + b")")
                    for kind in need}
            pats["into-ret"] = re.compile(b"(?=\x0f\x05\xc3)")
            searched, done = len(accessible), False
            for k, base in enumerate(accessible):
                buf = space.read_bytes(base, PAGE_SIZE)
                if base + PAGE_SIZE in acc_set:
                    buf += space.read_bytes(base + PAGE_SIZE, 2)
                for kind, pat in pats.items():
                    sites[kind].extend(base + m.start() for m in pat.finditer(buf)
                                       if m.start() < PAGE_SIZE)
                if all(sites.values()):
                    searched, done = k + 1, True
                    break
            met += done
            unmet += not done
            searched_total += searched
            accessible_total += len(accessible)
            catalog = find_gadgets(settled_store(space), acc_set, need)
            got = ([catalog.lowest(kind) for kind in need],
                   list(catalog.syscalls_into_ret[:1]), catalog.searched_pages)
            want = ([min(sites[kind], default=None) for kind in need],
                    sites["into-ret"][:1], searched)
            if got != want and len(failures) < 3:
                failures.append(f"layout {t} {variant}: census gave {got}, oracle {want}")
    detail = (
        f"directed census equal to regex oracle on 100 layouts x "
        f"{len(CHAIN_VARIANTS)} variants: {met} met the need, "
        f"{unmet} did not, {searched_total} of {accessible_total} pages read, "
        f"{straddled} planted page-straddling patterns"
    )
    if failures:
        detail = "; ".join(failures)
    _criterion(7, not failures and met > 20 and unmet > 5 and straddled > 5, detail)


def test_criterion_8_reports_are_deterministic(tmp_path):
    """Identical configuration and seed produce byte-identical reports;
    changing the seed produces a different report."""
    img = build_victim_image(31)
    manifest = tmp_path / "victim.json"
    maps = tmp_path / "victim.maps"
    manifest.write_text(img.manifest_text)
    maps.write_text(img.maps_text)

    mismatched: list[str] = []
    for mode in ("hybrid", "linear", "pointer-chase"):
        cfg = PipelineConfig(
            image_path=str(manifest),
            ground_truth_path=str(maps),
            mode=mode,
            seed=9,
        )
        first = emit_report(run_pipeline(cfg), "json")
        second = emit_report(run_pipeline(cfg), "json")
        if first != second:
            mismatched.append(mode)

    other = emit_report(
        run_pipeline(PipelineConfig(
            image_path=str(manifest),
            ground_truth_path=str(maps),
            seed=10,
        )),
        "json",
    )
    base = emit_report(
        run_pipeline(PipelineConfig(
            image_path=str(manifest),
            ground_truth_path=str(maps),
            seed=9,
        )),
        "json",
    )
    seeds_differ = other != base
    detail = (
        "repeated runs byte-identical in all three exploration modes, "
        "and a different seed changes the report"
    )
    if mismatched or not seeds_differ:
        detail = f"nondeterministic modes: {mismatched}, seeds differ: {seeds_differ}"
    _criterion(8, not mismatched and seeds_differ, detail)


def test_canary_survives_and_only_the_cave_and_frame_change(tmp_path):
    """The attack bypasses the stack canary rather than breaking it, judged
    on what ``synth`` planted, not on the report: after each full run over
    small synth images, in every mode x chain variant x restore with ASLR
    on and off, the canary word still holds its value, and every byte and
    protection that differs from a fresh load of the image lies in the
    planted cave or in the victim's 16-byte slot pair."""
    failures: list[str] = []
    runs = 0
    for seed in range(12):
        img = build_victim_image(seed, code_pages=8, cave_pages=8, stack_pages=8)
        truth = img.truth
        manifest = tmp_path / f"victim-{seed}.json"
        manifest.write_text(img.manifest_text)
        for mode, variant, restore, aslr in itertools.product(
            MODES, CHAIN_VARIANTS, RESTORE_MODES, (True, False)
        ):
            case = (seed, mode, variant, restore, aslr)
            pipe = Pipeline(PipelineConfig(
                image_path=str(manifest), mode=mode, chain_variant=variant,
                restore=restore, aslr=aslr, seed=seed,
            ))
            off = pipe.run().aslr_offset
            runs += 1
            canary = pipe.pagemap.space.read_bytes(truth.canary_addr + off, 8)
            if canary != truth.canary_value.to_bytes(8, "little"):
                failures.append(f"{case}: canary became {canary.hex()}")
            ref, _ = _read_image(Path(manifest))
            ref.rebase(off)
            cave = truth.cave_start + off
            slot = truth.victim_slot + off
            allowed = ((cave, cave + truth.cave_len), (slot, slot + 16))
            assert set(ref.pages) == set(pipe.pagemap.space.pages), case
            for base, page in pipe.pagemap.space.pages.items():
                was = ref.pages[base]
                if page.perms != was.perms and not cave <= base < cave + truth.cave_len:
                    failures.append(f"{case}: protection of {base:#x} changed")
                if page.data == was.data:
                    continue
                failures += (
                    f"{case}: stray write at {base + i:#x}"
                    for i in range(PAGE_SIZE)
                    if page.data[i] != was.data[i]
                    and not any(lo <= base + i < hi for lo, hi in allowed)
                )
    assert runs == 288
    assert failures == [], failures[:5]
