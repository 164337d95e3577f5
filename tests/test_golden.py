"""Replay a recorded corpus of CLI runs: every report and exit code must stay
byte-identical.  A usage error pins only its exit code 2 and an empty
stdout, not its wording.  Each run that is not a usage error is also pinned
at ``--precision 17`` in JSON, which prints every float's shortest exact
repr, so a change in a value's last bit fails here too.

``PYTHONPATH=src python tests/test_golden.py`` (run from the repository
root) re-records ``golden_cli.json`` from the current code, for a change
that means to alter a report.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

from bellsim.cli import main

CORPUS = pathlib.Path(__file__).with_name("golden_cli.json")
ANGLES = "0.3,1.2,-0.5,2.5"
POLAR = "0.3,1.1,2.0,0.4,0.5,1.5,-0.2,2.2"

# each run in every format; {tmp} is a fresh directory
REPORTS = [
    "chsh",
    "chsh --oracle",
    f"chsh --angles {ANGLES}",
    f"chsh --angles {ANGLES} --oracle",
    "chsh --bell-index 1",
    "chsh --bell-index 2",
    f"chsh --bell-index 2 --angles {ANGLES} --oracle",
    f"chsh --polar {POLAR}",
    "chsh --optimize --restarts 2",
    "chsh --out {tmp}/report.txt",
    "chsh --out {tmp}/report.json",
    "gisin --n-list 3,4,10 --restarts 1",
    "gisin --n-list 4 --restarts 1 --out {tmp}/rows.csv",
    "spin --j 1",
    "spin --j 1.5",
    "spin --j 2 --optimize --restarts 2",
    "coherent",
    "coherent --oracle --cutoff 20",
    f"coherent --eta 0.3 --sigma 0.2 --phi 1 --angles {ANGLES}",
    "coherent --optimize --restarts 1",
    "coherent --eta 4.5 --oracle",
    "squeezed --lambda 0.6",
    "squeezed --lambda 0.6 --oracle",
    "squeezed --lambda 0.4 --optimize --restarts 1",
    "mermin --parties 3",
    "mermin --parties 3 --oracle",
    "mermin --parties 4 --angles 0,1,2,3,4,5,6,7 --oracle",
    "mermin --parties 3 --optimize --restarts 2",
    "lhv --samples 1000 --seed 3",
    "optimize --scenario chsh-phase --restarts 1",
    "optimize --scenario chsh-polar --restarts 1",
    "optimize --scenario product-state --restarts 1",
    "optimize --scenario gisin --n 5 --restarts 1",
    "optimize --scenario r-state --r 0.5 --restarts 1",
    "optimize --scenario spin --j 1.5 --restarts 1",
    "optimize --scenario squeezed --lambda 0.5 --restarts 1",
    "optimize --scenario coherent --eta 0.2 --sigma 0.3 --phi 2 --restarts 1",
    "optimize --scenario mermin3 --restarts 1",
    "optimize --scenario mermin4 --restarts 1",
]
USAGE_ERRORS = [
    "optimize --scenario warp-drive",
    "optimize --scenario gisin",
    "optimize --scenario gisin --n 2",
    "optimize --scenario mermin3 --lambda 0.5",
    "gisin --n-list 2",
    "mermin --parties 5",
    "mermin --parties 3 --angles 1,2",
    "spin --j 1.3",
    "chsh --out {tmp}/missing/report.json",
]
COMMANDS = REPORTS + USAGE_ERRORS
RUNS = ([f"{command} --format {fmt}" for command in COMMANDS
         for fmt in ("text", "json", "csv")]
        + [f"{command} --precision 17 --format json" for command in REPORTS])


def run(command: str, tmp: pathlib.Path) -> dict:
    """Exit code, stdout and the --out file of one in-process run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(command.replace("{tmp}", str(tmp)).split())
        except SystemExit as exc:
            code = exc.code
    result = {"code": code, "stdout": stdout.getvalue()}
    written = sorted(p for p in tmp.rglob("*") if p.is_file())
    if written:
        result["file"] = written[0].read_text()
    return result


def expected(record: dict) -> dict:
    """What a replay of a recorded run must give: a usage error pins only its
    exit code 2 and an empty stdout, since its wording may change."""
    return {"code": 2, "stdout": ""} if record["code"] == 2 else record


def print_mismatches() -> None:
    """Replay every run and print the command of each that differs."""
    corpus = json.loads(CORPUS.read_text())
    for command in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            if run(command, pathlib.Path(tmp)) != expected(corpus[command]):
                print(command)


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


def test_corpus_holds_every_run(corpus):
    assert sorted(corpus) == sorted(RUNS)


@pytest.mark.parametrize("command", RUNS)
def test_report_matches_corpus(corpus, tmp_path, command):
    assert run(command, tmp_path) == expected(corpus[command])


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


# what numpy dispatches to on an x86 host with AVX2 but no AVX-512
AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


@pytest.mark.skipif(not all(_cpu_features().get(f) for f in AVX512),
                    reason="no AVX-512 to disable: the replay above runs below it already")
def test_corpus_replays_without_avx512():
    # the corpus was recorded with AVX-512 dispatch; its bits must not follow it
    here = pathlib.Path(__file__).parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512),
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    proc = subprocess.run([sys.executable, "-c", "import test_golden as g; g.print_mismatches()"],
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    assert proc.stdout == "", "runs that differ without AVX-512:\n" + proc.stdout


if __name__ == "__main__":
    records = {}
    for command in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            records[command] = run(command, pathlib.Path(tmp))
    CORPUS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(records)} runs in {CORPUS}", file=sys.stderr)
