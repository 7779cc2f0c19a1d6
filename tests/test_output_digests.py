"""The byte gate's own determinism: ``tools/output_digests.py`` must print the
same lines in processes that differ only in their hash seed."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_output_digests_do_not_depend_on_the_hash_seed(tmp_path):
    # outputs that followed set or dict-of-str order, or other process state,
    # would differ between the two processes
    procs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, **dict.fromkeys(BLAS_VARS, "1"))
        env.pop("PYTHONPATH", None)  # the script imports saddlescape from its checkout
        procs.append(subprocess.Popen(
            [sys.executable, str(ROOT / "tools" / "output_digests.py"), "0"], cwd=tmp_path,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        outputs.append(out.splitlines())
    assert len(outputs[0]) == 90
    assert all(line.split()[1] == "0" and len(line.split()) == 4 for line in outputs[0])
    assert outputs[0] == outputs[1]
