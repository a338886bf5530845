"""The synth builder's output over a fixed sweep of specs, pinned by digest.

One SHA-256 covers each image's manifest text, maps text and every truth
attribute, for the demo spec, sizes 1 to 20 in each region, some omitted
gadget kinds and one image of 256 pages per region.  A refactor of the
builder must leave it unchanged; so must a new opt-in option, whose default
must not move any draw of the specs below.  A change to the images on
purpose re-pins it here.
"""

import hashlib

from caveprobe.synth import build_victim_image

TRUTH_FIELDS = (
    "regions", "gadget_plants", "return_site", "stack_pointer", "victim_slot",
    "saved_rbp", "saved_rip", "canary_addr", "canary_value", "cave_start",
    "cave_len", "stack_region",
)

OMISSIONS = (
    (),
    ("syscall",),
    ("pop-rdi-ret", "leave-ret"),
    ("pop-rsi-ret", "pop-rdx-ret", "pop-rax-ret", "pop-rbp-ret"),
)

# (seed, code_pages, cave_pages, stack_pages, omit_gadgets)
SWEEP = [(7, 4, 4, 4, ())] + [
    (100 + n, n, 21 - n, n * 7 % 20 + 1, OMISSIONS[n % 4]) for n in range(1, 21)
] + [(342514169, 256, 256, 256, ())]

PINNED = "5a329bc200b66540270fdae4093a1227e0fb75d28cb1469486f530b8b3f5c39c"


def test_sweep_covers_sizes_one_to_twenty_in_every_region():
    for column in (1, 2, 3):
        assert {spec[column] for spec in SWEEP} >= set(range(1, 21))
    assert {spec[4] for spec in SWEEP} == set(OMISSIONS)


def test_builder_output_over_the_sweep_is_pinned():
    digest = hashlib.sha256()
    for seed, code, cave, stack, omit in SWEEP:
        image = build_victim_image(
            seed, code_pages=code, cave_pages=cave, stack_pages=stack, omit_gadgets=omit)
        digest.update(image.manifest_text.encode())
        digest.update(image.maps_text.encode())
        for name in TRUTH_FIELDS:
            digest.update(f"{name}={getattr(image.truth, name)!r}\n".encode())
    assert digest.hexdigest() == PINNED
