"""The synth image builder: its size arguments and the manifest it writes.

The manifest text must be exactly what the stdlib's ``json.dumps(..,
indent=2)`` writes for the parsed document, so the stdlib is the reference
formatter here and the builder's own way of writing it is free to differ.
"""

import json
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from caveprobe import synth
from caveprobe.cli import EXIT_OK
from caveprobe.gadgets import GADGETS
from caveprobe.memspace import MAX_MANIFEST_PAGES
from caveprobe.synth import build_victim_image
from helpers import run_main

SIZES = ("code_pages", "cave_pages", "stack_pages")
# the regions whose bytes are never all zero; the cave, the guard page and
# the vsyscall page always are
WITH_DATA = {"code", "rodata", "data", "heap", "stack"}


@pytest.mark.parametrize("name", SIZES)
@pytest.mark.parametrize("count", [0, -1])
def test_page_counts_below_one_are_refused(name, count):
    with pytest.raises(ValueError, match=rf"^{name} must be at least 1, not {count}$"):
        build_victim_image(3, **{name: count})


class Drawn(Exception):
    """Raised in place of the builder's first draw."""


def no_draw(seed):
    raise Drawn


@pytest.mark.parametrize("name", SIZES)
def test_images_past_the_loader_cap_are_refused_before_any_draw(monkeypatch, name):
    # the other two regions take 4 pages each, and 8 pages are fixed; a
    # refused image draws nothing and allocates nothing, whatever its size
    monkeypatch.setattr(synth, "random", types.SimpleNamespace(Random=no_draw))
    for count in (MAX_MANIFEST_PAGES - 15, MAX_MANIFEST_PAGES, 2**62):
        with pytest.raises(ValueError, match=(
                r"^the image would map more than the loader's 65536 pages$")):
            build_victim_image(3, **{name: count})
    with pytest.raises(Drawn):  # an image at the cap is built
        build_victim_image(3, **{name: MAX_MANIFEST_PAGES - 16})


def test_unknown_gadget_kinds_are_refused():
    # a misspelt kind would otherwise leave every gadget planted
    with pytest.raises(ValueError, match="^unknown gadget kinds: bogus, pop-rdi$"):
        build_victim_image(3, omit_gadgets=("syscall", "bogus", "pop-rdi"))


@given(
    seed=st.integers(0, 2**32 - 1),
    pages=st.tuples(*[st.integers(1, 5)] * 3),
    omit=st.sets(st.sampled_from(sorted(GADGETS))),
)
def test_manifest_is_json_dumps_text_with_data_on_nonzero_regions(seed, pages, omit):
    image = build_victim_image(
        seed, **dict(zip(SIZES, pages)), omit_gadgets=tuple(sorted(omit)))
    text = image.manifest_text
    doc = json.loads(text)
    assert json.dumps(doc, indent=2) + "\n" == text

    names = {start: name for name, (start, _, _) in image.truth.regions.items()}
    for region in doc["regions"]:
        name = names.get(int(region["start"], 16), "vsyscall")
        assert ("data" in region) == (name in WITH_DATA), name
        if "data" in region:
            blob = bytes.fromhex(region["data"])
            assert len(blob) == int(region["len"], 16)
            assert blob != bytes(len(blob)), name

    # an omitted gadget kind fails the gadgets stage, so such an image is
    # run only through the stages before it
    stop = ["--stop-after", "explore"] if omit else []
    with tempfile.TemporaryDirectory() as tmp:
        manifest, maps = Path(tmp, "image.json"), Path(tmp, "image.maps")
        manifest.write_text(text)
        maps.write_text(image.maps_text)
        code, _, err = run_main([
            "--image-path", str(manifest), "--ground-truth-path", str(maps), *stop])
    assert code == EXIT_OK, err
