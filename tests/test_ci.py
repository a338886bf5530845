"""The CI workflow runs the tier-1 command that README documents."""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def workflow_test_command() -> str:
    text = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    match = re.search(r"- name: Tier-1 tests\n\s+run: (.+)\n", text)
    assert match, "tier1.yml has no 'Tier-1 tests' step with a run line"
    return match.group(1).strip()


def readme_ci_command() -> str:
    text = (REPO / "README.md").read_text()
    section = text.split("\n## Installation\n", 1)[1].split("\n## ", 1)[0]
    after = section[section.index("command CI runs"):]
    match = re.search(r"```sh\n(.*?)\n```", after, re.S)
    assert match, "README's Installation section has no block after 'command CI runs'"
    return match.group(1).strip()


def test_workflow_runs_the_readme_ci_command():
    assert workflow_test_command() == readme_ci_command()
