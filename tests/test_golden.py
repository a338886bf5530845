"""Every corpus of the golden table against its pin, the differ and the
re-pin on dumps of those reports, and the model's relations on the demo
and on small synth images."""

import json
from pathlib import Path

import pytest

import golden
from caveprobe.cli import MODES, RESTORE_MODES
from caveprobe.gadgets import CHAIN_VARIANTS
from caveprobe.synth import build_victim_image

REPO = Path(__file__).resolve().parent.parent
DEMO = str(REPO / "images" / "demo.json")
DEMO_MAPS = str(REPO / "images" / "demo.maps")
DEMO_CORPORA = ("demo-json", "demo-text", "demo-combos")
WARM_CORPORA = (*DEMO_CORPORA, "large-aslr")


@pytest.fixture(scope="module")
def texts():
    return golden.build()


def test_corpus_names_are_distinct():
    assert len({corpus.name for corpus in golden.CORPORA}) == len(golden.CORPORA)


@pytest.mark.parametrize("corpus", golden.CORPORA, ids=lambda corpus: corpus.name)
def test_corpus_matches_its_pin(corpus, texts):
    reports = texts[corpus.name]
    assert reports and golden.check(corpus, reports) is None
    if corpus.fmt == "json":
        failing = [i for i, text in enumerate(reports)
                   if not all(json.loads(text)["verdicts"].values())]
        assert failing == []


@pytest.mark.parametrize("aslr", [True, False], ids=["aslr", "no-aslr"])
def test_demo_corpora_are_the_same_from_a_kept_image(monkeypatch, aslr):
    # cold: the clock stopped before the images are written, so each run
    # parses its image; warm: an hour on, so each image is kept at its
    # first load and every later run starts from it.  The large-aslr
    # first pass runs on a 776-page image, where a warm run's shift
    # relocates from the kept image's table
    from caveprobe import cli
    parsed = []
    parse = cli.parse_manifest
    monkeypatch.setattr(cli, "parse_manifest", lambda source: parsed.append(source) or parse(source))
    now = cli.time_ns()
    monkeypatch.setattr(cli, "time_ns", lambda: now)
    cold = golden.build(WARM_CORPORA, aslr=aslr)
    cold_parses = len(parsed)
    monkeypatch.setattr(cli, "time_ns", lambda: now + 3600 * 10**9)
    warm = golden.build(WARM_CORPORA, aslr=aslr)
    assert (cold_parses, len(parsed) - cold_parses) == (146, 2)
    assert warm == cold
    if aslr:  # the pins are of ASLR runs
        for corpus in golden.CORPORA:
            if corpus.name in WARM_CORPORA:
                assert golden.check(corpus, warm[corpus.name]) is None


def _one_byte_off(text: str, at: int) -> str:
    flipped = "1" if text[at] == "0" else "0"
    return text[:at] + flipped + text[at + 1:]


def test_diff_names_the_one_changed_report_and_the_check_fails(tmp_path, texts):
    demo = {name: texts[name] for name in DEMO_CORPORA}
    old, new = tmp_path / "old", tmp_path / "new"
    golden.write_dump(old, demo)
    golden.write_dump(new, demo)
    unchanged = [f"{name}: 0 of {len(demo[name])} reports changed" for name in DEMO_CORPORA]
    assert golden.diff(old, new) == (unchanged, 0)

    # the last digit of the sixth combo report's first pop-rdi-ret site
    report = demo["demo-combos"][5]
    site = json.loads(report)["gadgets"]["pop-rdi-ret"][0]
    mutant = _one_byte_off(report, report.index(f'"{site}"') + len(site))
    assert len(mutant) == len(report) and mutant != report
    (new / "demo-combos" / "0005.json").write_text(mutant)
    lines, changed = golden.diff(old, new)
    assert changed == 1
    assert lines == unchanged[:2] + [
        "demo-combos: 1 of 36 reports changed",
        f"  gadgets: 1 changed; first in 0005.json "
        f'gadgets.pop-rdi-ret[0]: "{site}" -> "{json.loads(mutant)["gadgets"]["pop-rdi-ret"][0]}"',
    ]
    combos = {corpus.name: corpus for corpus in golden.CORPORA}["demo-combos"]
    assert golden.check(combos, demo["demo-combos"]) is None
    assert golden.check(combos, [*demo["demo-combos"][:5], mutant, *demo["demo-combos"][6:]])

    # a text report: its first differing line
    text = demo["demo-text"][3]
    lineno = text[:text.index("  run: ")].count("\n") + 1
    (new / "demo-text" / "0003.txt").write_text(_one_byte_off(text, text.index("  run: ") + 7))
    lines, changed = golden.diff(old, new)
    assert changed == 2
    assert lines[1:3] == [
        "demo-text: 1 of 10 reports changed",
        f"  1 changed; first in 0003.txt line {lineno}: "
        f"{json.dumps(text.splitlines()[lineno - 1])} -> "
        f"{json.dumps(_one_byte_off(text, text.index('  run: ') + 7).splitlines()[lineno - 1])}",
    ]


def test_diff_command_exits_1_on_a_change_and_2_on_no_dumps(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    golden.write_dump(old, {"demo-json": ["{}\n"]})
    golden.write_dump(new, {"demo-json": ['{"tool": "caveprobe"}\n']})
    assert golden.main(["diff", str(old), str(new)]) == 1
    assert capsys.readouterr().out == (
        "demo-json: 1 of 1 reports changed\n"
        '  tool: 1 changed; first in 0000.json tool: (absent) -> "caveprobe"\n')
    assert golden.main(["diff", str(old), str(old)]) == 0
    assert golden.main(["diff", str(old)]) == 2
    assert golden.main(["diff", str(old), str(tmp_path / "missing")]) == 2
    assert capsys.readouterr().err.count("\n") == 2


def test_pin_rewrites_each_digest_once_and_nothing_else():
    source = Path(golden.__file__).read_text()
    digests = {corpus.name: f"{i:064x}" for i, corpus in enumerate(golden.CORPORA)}
    pinned = golden.repinned(source, digests)
    for corpus in golden.CORPORA:
        assert source.count(corpus.digest) == pinned.count(digests[corpus.name]) == 1
        pinned = pinned.replace(digests[corpus.name], corpus.digest)
    assert pinned == source


# --- the model's relations --------------------------------------------------

RELATION_IMAGES = ("demo", 0, 1, 2, 3, 4)  # the demo, and these synth seeds


@pytest.fixture(scope="module")
def relation_images(tmp_path_factory):
    """(manifest, maps) of each of RELATION_IMAGES; synth images have 16
    pages per region."""
    folder = tmp_path_factory.mktemp("relations")
    images = {"demo": (DEMO, DEMO_MAPS)}
    for seed in RELATION_IMAGES[1:]:
        img = build_victim_image(seed, code_pages=16, cave_pages=16, stack_pages=16)
        images[seed] = (folder / f"victim-{seed}.json", folder / f"victim-{seed}.maps")
        images[seed][0].write_text(img.manifest_text)
        images[seed][1].write_text(img.maps_text)
    return {name: tuple(map(str, paths)) for name, paths in images.items()}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("image", RELATION_IMAGES)
def test_aslr_is_a_translation(relation_images, image, mode):
    manifest, maps = relation_images[image]
    problems = {
        (seed, prob): golden.aslr_translation(
            image_path=manifest, ground_truth_path=maps, mode=mode, seed=seed,
            spurious_prob=prob)
        for seed in range(6) for prob in (0, 0.3)
    }
    assert {key: problem for key, problem in problems.items() if problem} == {}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("image", RELATION_IMAGES)
def test_explore_budget_of_pages_probed_changes_nothing(relation_images, image, mode):
    manifest, maps = relation_images[image]
    problems = {
        (seed, prob): golden.explore_budget(
            image_path=manifest, ground_truth_path=maps, mode=mode, seed=seed,
            spurious_prob=prob)
        for seed in range(4) for prob in (0, 0.3)
    }
    assert {key: problem for key, problem in problems.items() if problem} == {}


@pytest.mark.parametrize("restore", RESTORE_MODES)
@pytest.mark.parametrize("variant", CHAIN_VARIANTS)
@pytest.mark.parametrize("seed", range(10))
def test_hybrid_reports_as_pointer_chase_on_the_demo(seed, variant, restore):
    assert golden.hybrid_is_pointer_chase(
        image_path=DEMO, ground_truth_path=DEMO_MAPS, seed=seed,
        chain_variant=variant, restore=restore) is None


def test_hybrid_reports_as_pointer_chase_on_synth_images(tmp_path):
    # the images and run seeds tests/test_bench_contract.py checks with the
    # benchmark's oracle
    for seed in range(30):
        img = build_victim_image(seed, code_pages=16, cave_pages=16, stack_pages=16)
        manifest = tmp_path / f"victim-{seed}.json"
        maps = tmp_path / f"victim-{seed}.maps"
        manifest.write_text(img.manifest_text)
        maps.write_text(img.maps_text)
        for aslr in (True, False):
            assert golden.hybrid_is_pointer_chase(
                image_path=str(manifest), ground_truth_path=str(maps),
                seed=seed, aslr=aslr) is None
