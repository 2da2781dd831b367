"""The exact bytes of a fixed set of command outputs, pinned by sha256.

`exact_outputs.json` holds the sha256 of every file in `OUTPUTS`, written by
the commands of `COMMANDS` through `cli.main` at one BLAS thread, and the
environment that made them. The test reruns the commands in a fresh
interpreter and names every file whose bytes differ. Bits depend on the
Python, numpy and BLAS build, so in another environment the test skips and
names both.

A change that alters these bits on purpose rewrites the manifest with

    PYTHONPATH=src python tests/test_exact_outputs.py --write

and lists the old and new hashes in CHANGES.md.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "exact_outputs.json"
SRC = HERE.parent / "src"
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (argv, file that receives its stdout or None), run in order in one
# directory: the golden world, BL and TEN+BGES models, the TEN+BGES model's
# proposals and report, a components ablation and the gradient certificate
COMMANDS = (
    (["gen", "--out", "world", "--seed", "7"], None),
    (["train", "--data", "world/train.bin", "--out", "bl.ckpt", "--log", "bl.csv",
      "--iterations", "30", "--seed", "1"], None),
    (["train", "--data", "world/train.bin", "--out", "ten_bges.ckpt", "--log", "ten_bges.csv",
      "--mode", "bges", "--ten", "--iterations", "30", "--seed", "1"], None),
    (["localize", "--checkpoint", "ten_bges.ckpt", "--data", "world/test.bin",
      "--out", "ten_bges.proposals"], None),
    (["eval", "--proposals", "ten_bges.proposals", "--data", "world/test.bin",
      "--out", "ten_bges_report.csv"], None),
    (["ablate", "--data", "world/train.bin", "--test", "world/test.bin",
      "--grid", "components", "--iterations", "20", "--seed", "1", "--out", "ablate.csv"],
     "ablate.stdout"),
    (["gradcheck", "--instances", "20"], "gradcheck.stdout"),
)
OUTPUTS = ("world/train.bin", "world/test.bin", "bl.ckpt", "bl.csv", "ten_bges.ckpt",
           "ten_bges.csv", "ten_bges.proposals", "ten_bges_report.csv", "ablate.stdout",
           "ablate.csv", "gradcheck.stdout")


def blas_config() -> str:
    """The loaded OpenBLAS's runtime configuration, which names the kernel
    set it picked for this CPU; numpy's build record when it cannot be read."""
    import numpy as np

    with contextlib.suppress(OSError, IndexError):
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1]})
        for path in paths:
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
            for name in ("openblas_get_config", "openblas_get_config64_",
                         "scipy_openblas_get_config", "scipy_openblas_get_config64_"):
                getter = getattr(lib, name, None)
                if getter is not None:
                    getter.argtypes, getter.restype = (), ctypes.c_char_p
                    return getter().decode()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')} (build record)"


def environment() -> dict:
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_config(), "blas_threads": int(os.environ.get(THREAD_VARS[0], 0))}


def generate(workdir: Path) -> dict:
    """Run `COMMANDS` in `workdir`; return the environment and the sha256 of
    each of `OUTPUTS`. Meant for an interpreter whose BLAS is pinned."""
    from wtalkit import cli

    os.chdir(workdir)
    for argv, stdout in COMMANDS:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"wtalkit {' '.join(argv)} exited {code}")
        if stdout is not None:
            Path(stdout).write_text(text.getvalue(), encoding="utf-8")
    return {"environment": environment(),
            "sha256": {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
                       for name in OUTPUTS}}


def regenerate(workdir: Path) -> dict:
    """`generate` in a fresh interpreter pinned to BLAS_THREADS, with the
    default config."""
    env = {k: v for k, v in os.environ.items() if k != "WTALKIT_CONFIG"}
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + sys.path)
    done = subprocess.run([sys.executable, __file__, "--generate", str(workdir)], env=env,
                          capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"regenerating the outputs failed:\n{done.stderr}")
    return json.loads(done.stdout)


def test_outputs_match_the_manifest(tmp_path):
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = regenerate(tmp_path)
    if got["environment"] != want["environment"]:
        pytest.skip(f"the manifest was made in {want['environment']}; "
                    f"this environment is {got['environment']}")
    assert sorted(got["sha256"]) == sorted(want["sha256"])
    differ = [name for name in OUTPUTS if got["sha256"][name] != want["sha256"][name]]
    assert not differ, f"outputs whose bytes changed: {', '.join(differ)}"


if __name__ == "__main__":
    if sys.argv[1:2] == ["--generate"]:
        print(json.dumps(generate(Path(sys.argv[2]))))
    elif sys.argv[1:] == ["--write"]:
        with tempfile.TemporaryDirectory() as tmp:
            MANIFEST.write_text(json.dumps(regenerate(Path(tmp)), indent=1) + "\n",
                                encoding="utf-8")
        print(f"wrote {MANIFEST}")
    else:
        sys.exit(f"usage: {sys.argv[0]} --write")
