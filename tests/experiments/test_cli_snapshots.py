"""CLI output snapshots: every scenario subcommand at CI-smoke sizes.

``snapshots/<command>.txt`` is the stdout of ``repro <command>`` on a k=4
fabric with 4 sessions of 32 KB (about half a second each).  The files pin
every number and every column of the text tables, so a refactor of the
scenario layer shows up as a reviewable diff of the snapshot files instead of
as a silent drift -- and because each command runs once per ``--jobs`` value
against the *same* file, they also pin the determinism contract (output is
byte-identical for every worker count) at the outermost surface.

To refresh a snapshot after a deliberate change, re-run the command printed
in the assertion message and redirect it into the file.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import SCENARIOS, main
from repro.experiments.parallel import shutdown_worker_pool

SNAPSHOTS = Path(__file__).parent / "snapshots"

COMMON = ["--sessions", "4", "--object-kb", "32", "--max-sim-time", "10"]

#: Per-command sweep axes, in the order ``repro all`` runs the commands.
SCENARIO_ARGS = {
    "figure1a": [],
    "figure1b": [],
    "figure1c": ["--senders", "1", "2", "4", "--response-kb", "70"],
    "ablations": [],
    "hotspot": [],
    "mix": [],
    "resilience": ["--intensities", "0", "0.6"],
    "correlated": ["--srlg-sizes", "1", "3", "--gray-loss", "0.02",
                   "--convergence-delay-ms", "0", "1"],
    "incast": ["--fanins", "4", "8", "15", "--response-kb", "48"],
}


@pytest.fixture(scope="module", autouse=True)
def _no_lingering_pool():
    yield
    shutdown_worker_pool()


def _snapshot(command: str) -> str:
    return (SNAPSHOTS / f"{command}.txt").read_text()


def test_every_scenario_has_a_snapshot_in_all_order():
    assert list(SCENARIO_ARGS) == [scenario.name for scenario in SCENARIOS]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", list(SCENARIO_ARGS))
def test_subcommand_output_matches_snapshot(command, jobs, capsys):
    argv = [command, *COMMON, *SCENARIO_ARGS[command], "--jobs", jobs]
    assert main(argv) == 0
    assert capsys.readouterr().out == _snapshot(command), (
        f"refresh with: python -m repro {' '.join(argv)}"
    )


def test_all_is_the_nine_scenarios_joined(capsys):
    # `all` owns figure1c's --response-kb, so the incast episode size is
    # spelled --incast-response-kb there.
    axes = [
        "--incast-response-kb" if command == "incast" and flag == "--response-kb" else flag
        for command, flags in SCENARIO_ARGS.items()
        for flag in flags
    ]
    assert main(["all", *COMMON, *axes, "--jobs", "2"]) == 0
    expected = "\n\n".join(_snapshot(command).rstrip("\n") for command in SCENARIO_ARGS)
    assert capsys.readouterr().out == expected + "\n"
