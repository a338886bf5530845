"""Pins of the CI workflow to README, pyproject.toml and the tests.  Its
token may only read the repository, and its tests job has a time limit.
It runs README's tier-1 command on Pythons from the requires-python floor
up, checks that the acceptance tests print their eight PASS lines,
records src/'s and tests/' line counts on the summary page, and smoke-runs
the benchmark with its pinned report digests.  After ``pip install .`` it
runs the console script in every mode and every row of tests/scenarios.py
from outside the checkout, rebuilds the demo image with the installed
package, and runs README's install commands as written.  The digest
script and the scenario runner are checked here too: each must fail when
its input is wrong."""

import os
import re
import subprocess
import sys
from pathlib import Path

import bench_digests
import scenarios
from caveprobe import cli
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


def test_tests_job_has_a_timeout():
    # without one, a hung run holds its runner for GitHub's 6-hour default
    text = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    job = text.split("\n  tests:\n", 1)[1].split("\n    steps:\n", 1)[0]
    match = re.search(r"^    timeout-minutes: ([0-9]+)$", job, re.M)
    assert match, "tier1.yml's tests job has no timeout-minutes"
    assert 0 < int(match.group(1)) <= 60


def test_workflow_token_is_read_only():
    # no step writes to the repository; one top-level block grants the
    # token read access to its contents, and no job widens it
    text = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    top = text.split("\njobs:\n", 1)[0] + "\n"
    assert re.search(r"^permissions:\n  contents: read\n(?!  )", top, re.M), \
        "tier1.yml has no top-level permissions: contents: read block"
    assert re.findall(r"^ *permissions:", text, re.M) == ["permissions:"]


def workflow_step(name: str) -> str:
    """The body of the tier1.yml step called ``name``, up to the next step."""
    text = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    assert f"- name: {name}\n" in text, f"tier1.yml has no {name!r} step"
    return text.split(f"- name: {name}\n", 1)[1].split("\n      - ", 1)[0]


def test_acceptance_criteria_each_print_a_pass_line():
    # right after the tier-1 tests: the acceptance tests run with -s, as
    # README shows, and the step fails unless each of the eight criteria
    # prints its PASS line; bash's pipefail keeps pytest's exit status
    name = "Acceptance criteria print one PASS line each"
    step = workflow_step(name)
    lines = [line.strip() for line in step.splitlines()]
    steps = re.findall(r"^      - name: (.+)$",
                       (REPO / ".github" / "workflows" / "tier1.yml").read_text(), re.M)
    assert steps.index(name) == steps.index("Tier-1 tests") + 1
    assert "shell: bash" in lines
    assert "continue-on-error" not in step
    out = '"$RUNNER_TEMP/acceptance.txt"'
    assert lines[lines.index("run: |") + 1:] == [
        "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q -s "
        f"tests/test_acceptance.py | tee {out}",
        f"test \"$(grep -oE 'criterion [1-8]: PASS' {out} | sort -u | wc -l)\" -eq 8",
    ]
    assert ("python3 -m pytest tests/test_acceptance.py -s   "
            "# one PASS line per criterion") in readme_installation()
    criteria = re.findall(r"^def test_criterion_(\d+)_", (
        REPO / "tests" / "test_acceptance.py").read_text(), re.M)
    assert criteria == [str(n) for n in range(1, 9)]


def test_source_line_count_goes_to_the_step_summary():
    # a record of src/'s and tests/' sizes on every run, after the tests and
    # not a gate
    step = workflow_step("Source line count")
    lines = [line.strip() for line in step.splitlines()]
    workflow = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    assert workflow.index("- name: Tier-1 tests") < workflow.index(
        "- name: Source line count")
    assert 'wc -l src/caveprobe/*.py >> "$GITHUB_STEP_SUMMARY"' in lines
    assert 'wc -l tests/*.py >> "$GITHUB_STEP_SUMMARY"' in lines
    assert "continue-on-error" not in step


def test_benchmark_smoke_runs_untraced_and_traced():
    # the untraced loop outlasts the racy window after setup, so its later
    # runs start from kept images and are checked against the first pass
    step = workflow_step("Benchmark smoke")
    runs = re.findall(
        r"^\s+python perfbench/run\.py --workload all --seed 1 --seconds (\d+) "
        r"--trace ([01]) \| tee (\S+)$", step, re.M)
    assert sorted((trace, seconds) for seconds, trace, _ in runs) == [("0", "4"), ("1", "0")]
    assert 4 * 10**9 > cli.RACY_NS
    for *_, out in runs:
        # the last line of each run's output must say "correct": true
        check = re.escape(f"tail -n 1 {out} | python -c ") + r".*\[\"correct\"\] is not True"
        assert re.search(check, step), f"no correctness check on {out}"


def test_benchmark_smoke_checks_the_pinned_first_pass_digests():
    # the untraced seed-1 output goes through tests/bench_digests.py, which
    # pins a digest for every workload the benchmark runs
    step = workflow_step("Benchmark smoke")
    lines = [line.strip() for line in step.splitlines()]
    untraced = lines.index(
        "python perfbench/run.py --workload all --seed 1 --seconds 4 --trace 0 "
        '| tee "$RUNNER_TEMP/bench-smoke-0.txt"')
    check = lines.index('python tests/bench_digests.py "$RUNNER_TEMP/bench-smoke-0.txt"')
    assert untraced < check
    assert "continue-on-error" not in step
    # the script checks each workload's first pass, and the demo digest the
    # demo-configs workload prints, against the golden table's rows: the
    # one copy of each pin
    workloads = (REPO / "perfbench" / "workloads.py").read_text()
    names = re.findall(r'^\s+name="([^"]+)",$', workloads, re.M)
    assert sorted(bench_digests.PINNED) == sorted([*names, "demo-json"])
    script = (REPO / "tests" / "bench_digests.py").read_text()
    assert re.findall(r"[0-9a-f]{64}", script) == []
    bench = (REPO / "perfbench" / "bench.py").read_text()
    assert [start for start in bench_digests.LINES if start not in bench] == []


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


def smoke_output(pinned: dict[str, str]) -> str:
    """A benchmark smoke output that prints the digests ``pinned``, as
    ``perfbench/run.py --workload all --seed 1 --seconds 4 --trace 0`` does."""
    demo = f"  demo report digest, seeds 0..9: {pinned['demo-json']}\n"
    return "".join(
        f"== {name} (seed 1, trace 0): why\n  runs 3 in 0.1 s\n"
        f"  report digest over the first pass: {pinned[name]}\n"
        + (demo if name == "demo-configs" else "") + "  run_ms_p50  1.0 ms\n"
        for name in pinned if name != "demo-json"
    ) + '{"correct": true}\n'


def test_first_pass_digests_are_read_per_workload(tmp_path, capsys):
    out = smoke_output(bench_digests.PINNED)
    assert bench_digests.printed_digests(out) == bench_digests.PINNED
    (tmp_path / "smoke.txt").write_text(out)
    assert bench_digests.main([str(tmp_path / "smoke.txt")]) == 0
    for name in ("large-aslr", "demo-json"):
        (tmp_path / "smoke.txt").write_text(out.replace(
            bench_digests.PINNED[name], "0" * 64))
        assert bench_digests.main([str(tmp_path / "smoke.txt")]) == 1
        assert f"{name}: DIFFERS: got " + "0" * 64 in capsys.readouterr().out
    for cut in ("== large-aslr", "  demo report digest"):
        (tmp_path / "smoke.txt").write_text(out.split(cut)[0])
        assert bench_digests.main([str(tmp_path / "smoke.txt")]) == 1


def test_digest_script_runs_without_the_program_from_anywhere(tmp_path):
    # CI runs it before pip install . and with no PYTHONPATH, so the golden
    # table it reads must import neither caveprobe nor perfbench/; -S leaves
    # out site-packages, where an install of caveprobe would be
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = [sys.executable, "-S", str(REPO / "tests" / "bench_digests.py")]
    run = subprocess.run(script, cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (
        2, "", "usage: python tests/bench_digests.py SMOKE_OUTPUT\n")
    (tmp_path / "smoke.txt").write_text(smoke_output(bench_digests.PINNED))
    run = subprocess.run([*script, "smoke.txt"], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stderr) == (0, ""), run.stdout
    assert run.stdout.count(": ok: ") == len(bench_digests.PINNED) == 4


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


# the scenarios that were workflow steps of their own, and the comparison
# that closed the console-script step
MOVED = (
    "Long flag values give one short line",
    "Deleted run inputs give one short line",
    "Ground truth that disagrees fails map-match",
    "Syscall that falls into no ret fails the gadgets stage",
    "Read-only stack in the ground truth is one mismatch line",
    "JSON report matches json.tool",
    "Manifest with a backslash gives the same report",
    "Manifest in other JSON spacing gives the same report",
    "Manifest from a pipe gives the same report",
    "Cave as zero hex and uppercase code give the same report",
    "Page 0 mapped: zero words are pointers",
    "Hybrid report is pointer-chase's but for the mode",
)


def test_cli_scenarios_run_through_the_installed_console_script():
    # right after pip install . and the per-mode runs, from outside the
    # checkout, so only the installed package can answer; the step fails
    # when the runner exits non-zero
    name = "CLI scenarios"
    step = workflow_step(name)
    lines = [line.strip() for line in step.splitlines()]
    steps = re.findall(r"^      - name: '?(.+?)'?$",
                       (REPO / ".github" / "workflows" / "tier1.yml").read_text(), re.M)
    assert steps.index(name) == steps.index("Installed console script") + 1
    assert "continue-on-error" not in step
    assert lines[lines.index("run: |") + 1:] == [
        'cd "$RUNNER_TEMP"',
        'python "$GITHUB_WORKSPACE/tests/scenarios.py" caveprobe',
    ]
    rows = [row.name for row in scenarios.ROWS]
    assert len(set(rows)) == len(rows)
    assert [moved for moved in MOVED if moved not in rows or moved in steps] == []


def test_scenario_runner_fails_every_row_of_a_command_that_does_nothing(tmp_path):
    # no row passes vacuously: a command that prints nothing and exits 0
    # fails each, and the runner names each and exits 1
    run = subprocess.run(
        [sys.executable, str(REPO / "tests" / "scenarios.py"), sys.executable, "-c", "pass"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    lines = run.stdout.splitlines()
    assert run.returncode == 1
    assert len(lines) == len(scenarios.ROWS) + 1
    for line, row in zip(lines, scenarios.ROWS):
        assert line.startswith(f"FAIL {row.name}: ")
    assert lines[-1] == f"0 of {len(scenarios.ROWS)} scenarios pass"


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

