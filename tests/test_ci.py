"""The CI workflow runs the tier-1 command that README documents, on Pythons
from the floor pyproject.toml declares, records src/'s line count in the
run's summary, smoke-runs the benchmark both untraced and traced and checks
its first-pass report digests against the pinned ones, checks that the
digest script named no file refuses in one line, runs the installed console
script in every mode and checks that its hybrid and pointer-chase JSON
reports of the demo agree on the injection, run and verdicts, checks that
it cuts a long flag value to one short line, checks that a demo copy whose
syscall falls into no ret fails the gadgets stage in one line, checks that
a ground truth calling the demo's stack read-only gives one coalesced
map-mismatches line, checks its
JSON reports, one of them linear with ground truth, against the stdlib's
json.tool, checks its report against the reports of a demo copy that holds
a backslash, of compact and respaced copies, and of one with its cave as
zero hex and its code uppercase, checks that a manifest read from a pipe
reports as the same file does, rebuilds the demo image with the installed
package's image script and checks that script's one-line refusal of a zero
page count, runs README's install commands as written, and checks that a
demo copy with page 0 mapped finds no cave under ASLR and passes without."""

import re
from pathlib import Path

import bench_digests
from caveprobe.cli import MODES

REPO = Path(__file__).resolve().parent.parent


def workflow_test_command() -> str:
    text = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    match = re.search(r"- name: Tier-1 tests\n\s+run: (.+)\n", text)
    assert match, "tier1.yml has no 'Tier-1 tests' step with a run line"
    return match.group(1).strip()


def readme_installation() -> str:
    text = (REPO / "README.md").read_text()
    return text.split("\n## Installation\n", 1)[1].split("\n## ", 1)[0]


def readme_ci_command() -> str:
    section = readme_installation()
    after = section[section.index("command CI runs"):]
    match = re.search(r"```sh\n(.*?)\n```", after, re.S)
    assert match, "README's Installation section has no block after 'command CI runs'"
    return match.group(1).strip()


def test_workflow_runs_the_readme_ci_command():
    assert workflow_test_command() == readme_ci_command()


def version(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split("."))


def test_lowest_workflow_python_is_the_requires_python_floor():
    text = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    match = re.search(r"python-version: \[(.*?)\]", text)
    assert match, "tier1.yml has no python-version matrix"
    matrix = [v.strip().strip("\"'") for v in match.group(1).split(",")]
    project = (REPO / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=([0-9.]+)"$', project, re.M)
    assert floor, 'pyproject.toml has no requires-python = ">=X.Y" line'
    assert min(matrix, key=version) == floor.group(1)


def workflow_step(name: str) -> str:
    """The body of the tier1.yml step called ``name``, up to the next step."""
    text = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    assert f"- name: {name}\n" in text, f"tier1.yml has no {name!r} step"
    return text.split(f"- name: {name}\n", 1)[1].split("\n      - ", 1)[0]


def test_source_line_count_goes_to_the_step_summary():
    # a record of src/'s size on every run, after the tests and not a gate
    step = workflow_step("Source line count")
    lines = [line.strip() for line in step.splitlines()]
    workflow = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    assert workflow.index("- name: Tier-1 tests") < workflow.index(
        "- name: Source line count")
    assert 'wc -l src/caveprobe/*.py >> "$GITHUB_STEP_SUMMARY"' in lines
    assert "continue-on-error" not in step


def test_benchmark_smoke_runs_untraced_and_traced():
    step = workflow_step("Benchmark smoke")
    runs = re.findall(
        r"^\s+python perfbench/run\.py --workload all --seed 1 --seconds 0 "
        r"--trace ([01]) \| tee (\S+)$", step, re.M)
    assert sorted(trace for trace, _ in runs) == ["0", "1"]
    for _, out in runs:
        # the last line of each run's output must say "correct": true
        check = re.escape(f"tail -n 1 {out} | python -c ") + r".*\[\"correct\"\] is not True"
        assert re.search(check, step), f"no correctness check on {out}"


def test_benchmark_smoke_checks_the_pinned_first_pass_digests():
    # the untraced seed-1 output goes through tests/bench_digests.py, which
    # pins a digest for every workload the benchmark runs
    step = workflow_step("Benchmark smoke")
    lines = [line.strip() for line in step.splitlines()]
    untraced = lines.index(
        "python perfbench/run.py --workload all --seed 1 --seconds 0 --trace 0 "
        '| tee "$RUNNER_TEMP/bench-smoke-0.txt"')
    check = lines.index('python tests/bench_digests.py "$RUNNER_TEMP/bench-smoke-0.txt"')
    assert untraced < check
    assert "continue-on-error" not in step
    workloads = (REPO / "perfbench" / "workloads.py").read_text()
    names = re.findall(r'^\s+name="([^"]+)",$', workloads, re.M)
    assert sorted(names) == sorted(bench_digests.PINNED)


def test_benchmark_smoke_runs_the_digest_script_with_no_file():
    # right after the digest check: no file must give exit 2 and one
    # stderr line, not a traceback
    step = workflow_step("Benchmark smoke")
    lines = [line.strip() for line in step.splitlines()]
    check = lines.index('python tests/bench_digests.py "$RUNNER_TEMP/bench-smoke-0.txt"')
    assert lines[check + 1:check + 6] == [
        "code=0",
        'python tests/bench_digests.py 2> "$RUNNER_TEMP/bench-digests-usage.txt" || code=$?',
        'cat "$RUNNER_TEMP/bench-digests-usage.txt"',
        'test "$code" -eq 2',
        'test "$(wc -l < "$RUNNER_TEMP/bench-digests-usage.txt")" -eq 1',
    ]
    assert "shell: bash" in lines


def test_digest_script_refuses_no_file_and_an_unreadable_one_in_one_line(
        tmp_path, capsys):
    assert bench_digests.main([]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "usage: python tests/bench_digests.py SMOKE_OUTPUT\n")
    missing = tmp_path / "missing.txt"
    assert bench_digests.main([str(missing)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == (
        "", f"bench_digests.py: cannot read {missing}: No such file or directory\n")
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe== demo-configs\n")
    assert bench_digests.main([str(binary)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"bench_digests.py: cannot read {binary}: ")
    assert err.count("\n") == 1


def test_first_pass_digests_are_read_per_workload(tmp_path, capsys):
    out = "".join(
        f"== {name} (seed 1, trace 0): why\n  runs 3 in 0.1 s\n"
        f"  {bench_digests._DIGEST_LINE}{digest}\n  run_ms_p50  1.0 ms\n"
        for name, digest in bench_digests.PINNED.items()
    ) + '{"correct": true}\n'
    assert bench_digests.first_pass_digests(out) == bench_digests.PINNED
    (tmp_path / "smoke.txt").write_text(out)
    assert bench_digests.main([str(tmp_path / "smoke.txt")]) == 0
    (tmp_path / "smoke.txt").write_text(out.replace(
        bench_digests.PINNED["large-aslr"], "0" * 64))
    assert bench_digests.main([str(tmp_path / "smoke.txt")]) == 1
    assert "large-aslr: DIFFERS: got " + "0" * 64 in capsys.readouterr().out
    (tmp_path / "smoke.txt").write_text(out.split("== large-aslr")[0])
    assert bench_digests.main([str(tmp_path / "smoke.txt")]) == 1


def test_installed_console_script_runs_every_mode_outside_the_checkout():
    step = workflow_step("Installed console script")
    lines = [line.strip() for line in step.splitlines()]
    install = lines.index("pip install .")
    leave = lines.index('cd "$RUNNER_TEMP"')
    runs = re.findall(
        r'^caveprobe --image-path "\$GITHUB_WORKSPACE/images/demo\.json" '
        r"--mode (\S+)", "\n".join(lines[leave:]), re.M)
    assert install < leave
    assert sorted(runs) == sorted(MODES)


def test_installed_console_script_compares_hybrid_with_pointer_chase():
    # after the per-mode runs, the installed package writes hybrid's and
    # pointer-chase's JSON reports of the demo, and a check that shares no
    # code with the program exits non-zero unless their injection, run and
    # verdicts blocks are equal
    step = workflow_step("Installed console script")
    lines = [line.strip() for line in step.splitlines()]
    demo = '"$GITHUB_WORKSPACE/images/demo.json"'
    assert lines[-3:] == [
        f"caveprobe --image-path {demo} --format json --out console-hybrid.json "
        "--mode hybrid",
        f"caveprobe --image-path {demo} --format json --out "
        "console-pointer-chase.json --mode pointer-chase",
        "python -c 'import json, sys; hybrid, chase = (json.load(open(path)) "
        "for path in sys.argv[1:]); differ = [k for k in (\"injection\", "
        "\"run\", \"verdicts\") if hybrid[k] != chase[k]]; sys.exit(f\"hybrid "
        "differs from pointer-chase in {differ}\" if differ else 0)' "
        "console-hybrid.json console-pointer-chase.json",
    ]
    assert lines.index('cd "$RUNNER_TEMP"') < len(lines) - 3


def test_long_flag_values_give_one_short_line():
    # a --mode of 100,000 x's, a --seed of 100,000 9's, a $CAVEPROBE_SEED of
    # 10,000 U+1F600 and an --image-path of 10,000 U+1F600, right after the
    # console script is installed: each run exits 2 with one stderr line
    # under 300 bytes
    step = workflow_step("Long flag values give one short line")
    lines = [line.strip() for line in step.splitlines()]
    workflow = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    steps = re.findall(r"^      - name: (.+)$", workflow, re.M)
    assert steps.index("Long flag values give one short line") == steps.index(
        "Installed console script") + 1
    assert "shell: bash" in lines
    emoji = "\"$(python -c 'print(\"\\U0001F600\" * 10000)')\""
    commands = [
        ("caveprobe --image-path images/demo.json --mode "
         "\"$(python -c 'print(\"x\" * 100000)')\"", "long-mode"),
        ("caveprobe --image-path images/demo.json --seed "
         "\"$(python -c 'print(\"9\" * 100000)')\"", "long-seed"),
        (f"CAVEPROBE_SEED={emoji} caveprobe --image-path images/demo.json",
         "long-seed-variable"),
        (f"caveprobe --image-path {emoji}", "long-image-path"),
    ]
    runs = []
    for command, out in commands:
        runs += [
            "code=0",
            f'{command} 2> "$RUNNER_TEMP/{out}.txt" || code=$?',
            f'cat "$RUNNER_TEMP/{out}.txt"',
            'test "$code" -eq 2',
            f'test "$(wc -l < "$RUNNER_TEMP/{out}.txt")" -eq 1',
            f'test "$(wc -c < "$RUNNER_TEMP/{out}.txt")" -lt 300',
        ]
    assert lines[lines.index("run: |") + 1:] == runs


def test_deleted_run_inputs_give_one_short_line():
    # --cave-min-len, and a demo copy whose region 0 names a "file", given
    # to the installed package: each run exits 2 with one stderr line under
    # 300 bytes
    step = workflow_step("Deleted run inputs give one short line")
    lines = [line.strip() for line in step.splitlines()]
    workflow = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    assert workflow.index("- name: Installed console script") < workflow.index(
        "- name: Deleted run inputs give one short line")
    assert "shell: bash" in lines
    commands = [
        ("caveprobe --image-path images/demo.json --cave-min-len 4096", "cave-min-len"),
        ('caveprobe --image-path "$RUNNER_TEMP/file-region.json"', "file-region"),
    ]
    runs = []
    for command, out in commands:
        if out == "file-region":
            runs.append(
                "python -c 'import json, sys; doc = json.load(open(\"images/demo.json\")); "
                "doc[\"regions\"][0][\"file\"] = \"x.bin\"; "
                "json.dump(doc, open(sys.argv[1], \"w\"))' \"$RUNNER_TEMP/file-region.json\"")
        runs += [
            "code=0",
            f'{command} 2> "$RUNNER_TEMP/{out}.txt" || code=$?',
            f'cat "$RUNNER_TEMP/{out}.txt"',
            'test "$code" -eq 2',
            f'test "$(wc -l < "$RUNNER_TEMP/{out}.txt")" -eq 1',
            f'test "$(wc -c < "$RUNNER_TEMP/{out}.txt")" -lt 300',
        ]
    assert lines[lines.index("run: |") + 1:] == runs


def test_ground_truth_that_disagrees_must_fail_map_match():
    # the demo's maps with the stack's guard page made writable: the
    # installed package must exit 3 and print a failed map-match verdict
    step = workflow_step("Ground truth that disagrees fails map-match")
    lines = [line.strip() for line in step.splitlines()]
    workflow = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    assert workflow.index("- name: Installed console script") < workflow.index(
        "- name: Ground truth that disagrees fails map-match")
    assert "shell: bash" in lines
    assert lines[lines.index("run: |") + 1:] == [
        "sed 's/^7f0000302000-7f0000303000 ---p/7f0000302000-7f0000303000 rw-p/' "
        'images/demo.maps > "$RUNNER_TEMP/guard-rw.maps"',
        "grep -F '7f0000302000-7f0000303000 rw-p' \"$RUNNER_TEMP/guard-rw.maps\"",
        "code=0",
        'caveprobe --image-path images/demo.json --ground-truth-path '
        '"$RUNNER_TEMP/guard-rw.maps" --format text > "$RUNNER_TEMP/guard-rw.txt" '
        "|| code=$?",
        'cat "$RUNNER_TEMP/guard-rw.txt"',
        'test "$code" -eq 3',
        "grep -F 'map-match: FAIL' \"$RUNNER_TEMP/guard-rw.txt\"",
    ]


def test_syscall_that_falls_into_no_ret_fails_the_gadgets_stage():
    # a demo copy whose one syscall site is followed by a nop: right after
    # the map-match step, the installed package must exit 2 with one
    # stderr line under 300 bytes that names the syscall
    name = "Syscall that falls into no ret fails the gadgets stage"
    step = workflow_step(name)
    lines = [line.strip() for line in step.splitlines()]
    steps = re.findall(r"^      - name: (.+)$",
                       (REPO / ".github" / "workflows" / "tier1.yml").read_text(), re.M)
    assert steps.index("Ground truth that disagrees fails map-match") + 1 == steps.index(name)
    assert "shell: bash" in lines
    body = lines[lines.index("run: |") + 1:]
    patch = body[0]
    assert patch.startswith("python -c 'import json, sys; doc = json.load(open(\"images/demo.json\"));")
    assert patch.endswith("' \"$RUNNER_TEMP/hanging-syscall.json\"")
    for part in ('assert code.count(b"\\x0f\\x05") == code.count(b"\\x0f\\x05\\xc3") == 1',
                 'code[code.index(b"\\x0f\\x05\\xc3") + 2] = 0x90',
                 'doc["regions"][0]["data"] = code.hex()'):
        assert part in patch
    assert body[1:] == [
        "code=0",
        'caveprobe --image-path "$RUNNER_TEMP/hanging-syscall.json" --seed 1 '
        '2> "$RUNNER_TEMP/hanging-syscall.txt" || code=$?',
        'cat "$RUNNER_TEMP/hanging-syscall.txt"',
        'test "$code" -eq 2',
        'test "$(wc -l < "$RUNNER_TEMP/hanging-syscall.txt")" -eq 1',
        'test "$(wc -c < "$RUNNER_TEMP/hanging-syscall.txt")" -lt 300',
        'grep -F syscall "$RUNNER_TEMP/hanging-syscall.txt"',
    ]


def test_read_only_stack_in_the_ground_truth_is_one_mismatch_line():
    # the demo's maps with the stack called read-only: right after the
    # syscall step, the installed package must exit 3, and its four
    # clawed-writable stack pages must come out as one coalesced line
    name = "Read-only stack in the ground truth is one mismatch line"
    step = workflow_step(name)
    lines = [line.strip() for line in step.splitlines()]
    steps = re.findall(r"^      - name: (.+)$",
                       (REPO / ".github" / "workflows" / "tier1.yml").read_text(), re.M)
    assert steps.index("Ground truth that disagrees fails map-match") < steps.index(name)
    assert steps.index("Syscall that falls into no ret fails the gadgets stage") + 1 == (
        steps.index(name))
    assert "shell: bash" in lines
    assert lines[lines.index("run: |") + 1:] == [
        "sed 's/^7f0000303000-7f0000307000 rw-p/7f0000303000-7f0000307000 r--p/' "
        'images/demo.maps > "$RUNNER_TEMP/stack-ro.maps"',
        "grep -F '7f0000303000-7f0000307000 r--p' \"$RUNNER_TEMP/stack-ro.maps\"",
        "code=0",
        'caveprobe --image-path images/demo.json --ground-truth-path '
        '"$RUNNER_TEMP/stack-ro.maps" --no-aslr --seed 1 --format json '
        '> "$RUNNER_TEMP/stack-ro.json" || code=$?',
        'cat "$RUNNER_TEMP/stack-ro.json"',
        'test "$code" -eq 3',
        "python -c 'import json, sys; assert json.load(open(sys.argv[1]))"
        '["map-mismatches"] == ["0x7f0000303000-0x7f0000307000: probed writable, '
        "truth readonly\"]' \"$RUNNER_TEMP/stack-ro.json\"",
    ]


def test_json_report_is_checked_against_json_tool():
    # after each of the installed package's two reports is written, the
    # stdlib rewrites it with json.dumps's options and cmp must find no
    # difference; the second is the linear report with ground truth
    step = workflow_step("JSON report matches json.tool")
    lines = [line.strip() for line in step.splitlines()]
    workflow = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    assert workflow.index("- name: Installed console script") < workflow.index(
        "- name: JSON report matches json.tool")
    assert lines[lines.index("run: |") + 1:] == [
        'cd "$RUNNER_TEMP"',
        'caveprobe --image-path "$GITHUB_WORKSPACE/images/demo.json" '
        "--out demo-report.json",
        "python -m json.tool --sort-keys --indent 2 demo-report.json "
        "demo-report-stdlib.json",
        "cmp demo-report.json demo-report-stdlib.json",
        'caveprobe --image-path "$GITHUB_WORKSPACE/images/demo.json" '
        '--mode linear --ground-truth-path "$GITHUB_WORKSPACE/images/demo.maps" '
        "--out demo-linear-report.json",
        "python -m json.tool --sort-keys --indent 2 demo-linear-report.json "
        "demo-linear-report-stdlib.json",
        "cmp demo-linear-report.json demo-linear-report-stdlib.json",
    ]


def test_manifest_with_a_backslash_is_checked_against_the_demo_report():
    # a copy of the demo with its first "label" key spelled as a \u escape
    # takes the json-only parse; the installed package must report the same
    # bytes for it, run from a second directory under the same relative path
    step = workflow_step("Manifest with a backslash gives the same report")
    lines = [line.strip() for line in step.splitlines()]
    workflow = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    assert workflow.index("- name: Installed console script") < workflow.index(
        "- name: Manifest with a backslash gives the same report")
    assert lines[lines.index("run: |") + 1:] == [
        'mkdir "$RUNNER_TEMP/plain" "$RUNNER_TEMP/escaped"',
        'cp images/demo.json "$RUNNER_TEMP/plain/demo.json"',
        "sed '0,/\"label\"/s//\"\\\\u006cabel\"/' images/demo.json "
        '> "$RUNNER_TEMP/escaped/demo.json"',
        'grep -F \'"\\u006cabel"\' "$RUNNER_TEMP/escaped/demo.json"',
        'cd "$RUNNER_TEMP/plain"',
        'caveprobe --image-path demo.json --out "$RUNNER_TEMP/plain-report.json"',
        'cd "$RUNNER_TEMP/escaped"',
        'caveprobe --image-path demo.json --out "$RUNNER_TEMP/escaped-report.json"',
        'cmp "$RUNNER_TEMP/plain-report.json" "$RUNNER_TEMP/escaped-report.json"',
    ]


def test_manifest_in_other_json_spacing_is_checked_against_the_demo_report():
    # a compact copy of the demo and one spaced as "data" :\n " each take
    # the scan; the installed package must report the same bytes for them
    # as for the plain copy the backslash step reports, under the same
    # relative path
    name = "Manifest in other JSON spacing gives the same report"
    step = workflow_step(name)
    lines = [line.strip() for line in step.splitlines()]
    workflow = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    assert workflow.index(
        "- name: Manifest with a backslash gives the same report") < workflow.index(
        f"- name: {name}")
    assert lines[lines.index("run: |") + 1:] == [
        'mkdir "$RUNNER_TEMP/compact" "$RUNNER_TEMP/spaced"',
        "python -c 'import json, sys; json.dump(json.load(open(\"images/demo.json\")), "
        'open(sys.argv[1], "w"), separators=(",", ":"))\' "$RUNNER_TEMP/compact/demo.json"',
        'grep -qF \'"data":"\' "$RUNNER_TEMP/compact/demo.json"',
        'sed \'s/"data": "/"data" :\\n "/\' images/demo.json > "$RUNNER_TEMP/spaced/demo.json"',
        'grep -Fx \'      "data" :\' "$RUNNER_TEMP/spaced/demo.json"',
        'cd "$RUNNER_TEMP/compact"',
        'caveprobe --image-path demo.json --out "$RUNNER_TEMP/compact-report.json"',
        'cd "$RUNNER_TEMP/spaced"',
        'caveprobe --image-path demo.json --out "$RUNNER_TEMP/spaced-report.json"',
        'cmp "$RUNNER_TEMP/plain-report.json" "$RUNNER_TEMP/compact-report.json"',
        'cmp "$RUNNER_TEMP/plain-report.json" "$RUNNER_TEMP/spaced-report.json"',
    ]


def test_manifest_from_a_pipe_is_checked_against_the_same_file_redirected():
    # the demo image and its backslash copy, each read by the installed
    # package as /dev/stdin from the file and then through a pipe, from
    # $RUNNER_TEMP and after the step that builds the copy
    name = "Manifest from a pipe gives the same report"
    step = workflow_step(name)
    lines = [line.strip() for line in step.splitlines()]
    workflow = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    assert workflow.index(
        "- name: Manifest with a backslash gives the same report") < workflow.index(
        f"- name: {name}")
    demo = '"$GITHUB_WORKSPACE/images/demo.json"'
    assert lines[lines.index("run: |") + 1:] == [
        'cd "$RUNNER_TEMP"',
        f"caveprobe --image-path /dev/stdin --out stdin-file.json < {demo}",
        f"cat {demo} | caveprobe --image-path /dev/stdin --out stdin-pipe.json",
        "cmp stdin-file.json stdin-pipe.json",
        "caveprobe --image-path /dev/stdin --out escaped-stdin-file.json < escaped/demo.json",
        "cat escaped/demo.json | caveprobe --image-path /dev/stdin "
        "--out escaped-stdin-pipe.json",
        "cmp escaped-stdin-file.json escaped-stdin-pipe.json",
    ]


def test_zero_hex_cave_and_uppercase_code_are_checked_against_the_demo_report():
    # a copy of the demo whose anon cave holds all-"0" hex and whose code
    # blob is uppercase; the installed package must report the same bytes
    # for it, run from a second directory under the same relative path
    name = "Cave as zero hex and uppercase code give the same report"
    step = workflow_step(name)
    lines = [line.strip() for line in step.splitlines()]
    workflow = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    assert workflow.index("- name: Installed console script") < workflow.index(
        f"- name: {name}")
    body = lines[lines.index("run: |") + 1:]
    assert body[:2] == [
        'mkdir "$RUNNER_TEMP/demo-copy" "$RUNNER_TEMP/zero-hex"',
        'cp images/demo.json "$RUNNER_TEMP/demo-copy/demo.json"',
    ]
    rewrite = body[2]
    assert rewrite.startswith("python -c '")
    assert rewrite.endswith("' \"$RUNNER_TEMP/zero-hex/demo.json\"")
    for part in ('cave["label"], cave["perms"], "data" in cave',
                 'cave["data"] = "0" * (2 * int(cave["len"], 16))',
                 'code["data"] = code["data"].upper()'):
        assert part in rewrite
    assert body[3:] == [
        'cd "$RUNNER_TEMP/demo-copy"',
        'caveprobe --image-path demo.json --out "$RUNNER_TEMP/demo-copy-report.json"',
        'cd "$RUNNER_TEMP/zero-hex"',
        'caveprobe --image-path demo.json --out "$RUNNER_TEMP/zero-hex-report.json"',
        'cmp "$RUNNER_TEMP/demo-copy-report.json" "$RUNNER_TEMP/zero-hex-report.json"',
    ]


def test_installed_package_rebuilds_the_demo_image():
    # after pip install . and before the editable install, the image script
    # run from outside the checkout must reproduce images/demo.* with
    # --seed 7 and refuse --code-pages 0 with exit 2 and one short line
    step = workflow_step("Installed package rebuilds the demo image")
    lines = [line.strip() for line in step.splitlines()]
    steps = re.findall(r"^      - name: (.+)$",
                       (REPO / ".github" / "workflows" / "tier1.yml").read_text(), re.M)
    name = "Installed package rebuilds the demo image"
    assert steps.index("Installed console script") < steps.index(name)
    assert steps.index(name) < steps.index("Editable install")
    assert "shell: bash" in lines
    script = 'python "$GITHUB_WORKSPACE/scripts/make_demo_image.py"'
    assert lines[lines.index("run: |") + 1:] == [
        'cd "$RUNNER_TEMP"',
        f"{script} --seed 7 --out demo-image",
        'cmp demo-image/demo.json "$GITHUB_WORKSPACE/images/demo.json"',
        'cmp demo-image/demo.maps "$GITHUB_WORKSPACE/images/demo.maps"',
        "code=0",
        f"{script} --code-pages 0 2> code-pages-0.txt || code=$?",
        "cat code-pages-0.txt",
        'test "$code" -eq 2',
        'test "$(wc -l < code-pages-0.txt)" -eq 1',
        'test "$(wc -c < code-pages-0.txt)" -lt 300',
    ]


def test_editable_install_runs_the_readme_install_commands():
    # the first block of README's Installation section, line for line and
    # in order; --no-build-isolation checks no build requirement, so the
    # block installs pyproject.toml's setuptools floor and wheel first
    block = re.search(r"```sh\n(.*?)\n```", readme_installation(), re.S)
    assert block, "README's Installation section has no sh block"
    commands = block.group(1).splitlines()
    assert commands[-1] == "pip install -e . --no-build-isolation"
    project = (REPO / "pyproject.toml").read_text()
    floor = re.search(r'^requires = \["(setuptools>=[0-9.]+)"\]$', project, re.M)
    assert floor, 'pyproject.toml has no requires = ["setuptools>=X"] line'
    assert commands[:-1] == [f'pip install wheel "{floor.group(1)}"']
    lines = [line.strip() for line in workflow_step("Editable install").splitlines()]
    assert commands[0] in lines, "the Editable install step does not install wheel first"
    start = lines.index(commands[0])
    assert lines[start:start + len(commands)] == commands


def test_page_zero_mapped_makes_zero_words_pointers():
    # the last step: a demo copy with a read-only user page at 0x0, so that
    # zero is an address; with ASLR every zero word moves and no cave is
    # left, so the installed package must exit 2 with one stderr line that
    # names 0 caves, and with --no-aslr it must exit 0
    name = "'Page 0 mapped: zero words are pointers'"
    step = workflow_step(name)
    lines = [line.strip() for line in step.splitlines()]
    steps = re.findall(r"^      - name: (.+)$",
                       (REPO / ".github" / "workflows" / "tier1.yml").read_text(), re.M)
    assert steps[-1] == name
    assert "shell: bash" in lines
    body = lines[lines.index("run: |") + 1:]
    patch = body[0]
    assert patch.startswith("python -c 'import json, sys; doc = json.load(open(\"images/demo.json\"));")
    assert patch.endswith("' \"$RUNNER_TEMP/page-zero.json\"")
    for part in ('assert all(int(r["start"], 16) >= 0x1000 for r in doc["regions"])',
                 'doc["regions"].insert(0, {"start": "0x0", "len": "0x1000", "perms": "ru"})'):
        assert part in patch
    assert body[1:] == [
        "code=0",
        'caveprobe --image-path "$RUNNER_TEMP/page-zero.json" --seed 1 '
        '> "$RUNNER_TEMP/page-zero-aslr.json" 2> "$RUNNER_TEMP/page-zero-aslr.txt" || code=$?',
        'cat "$RUNNER_TEMP/page-zero-aslr.txt"',
        'test "$code" -eq 2',
        'test "$(wc -l < "$RUNNER_TEMP/page-zero-aslr.txt")" -eq 1',
        "grep -F 'among 0 caves' \"$RUNNER_TEMP/page-zero-aslr.txt\"",
        'caveprobe --image-path "$RUNNER_TEMP/page-zero.json" --seed 1 --no-aslr '
        '> "$RUNNER_TEMP/page-zero-no-aslr.json"',
    ]
