"""The traced launcher wraps every target and nests spans by caller.

Installing the wrappers patches :mod:`repro` process-wide, so the
check runs in a child interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

CHILD = """
import json
import launcher

recorder = launcher.Recorder()
launcher.install(recorder)
from repro.core import translate
from repro.service.app import solution_payload
from repro.spec import parse_spec, model_to_spec
from repro.library import workgroup_model

solution_payload(translate(parse_spec(model_to_spec(workgroup_model()))))
print(json.dumps(recorder.spans))
"""


def test_install_wraps_targets_and_records_nesting():
    env_path = [str(HERE.parent), str(HERE.parents[1] / "src")]
    result = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": ":".join(env_path), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    recorded = json.loads(result.stdout.strip().splitlines()[-1])
    names = {span[3] for span in recorded}
    assert {"spec.parse", "generator.chain", "num.steady",
            "measures.compute"} <= names
    by_id = {span[0]: span for span in recorded}
    for span in recorded:
        assert span[5] >= span[4]
        if span[1] is not None:
            parent = by_id[span[1]]
            assert parent[4] <= span[4] and span[5] <= parent[5]
    chains = [span for span in recorded if span[3] == "generator.chain"]
    assert all(isinstance(span[6], int) and span[6] > 0 for span in chains)
