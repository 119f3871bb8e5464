"""Pinned run outputs: the sha256 of each small run's metrics.jsonl.

Each config runs through run_federation and emit_metrics, the path of
`fedsim run`, and its metrics.jsonl must hash to its value in PINS, so a
change that moves one bit of any round's output fails here. Together the
configs cover all six strategies, the three variants of fedopt and of
ewwa, both model kinds, both activations, one and two local epochs, and
IID and label-skewed partitions whose shards differ in size (so that
fedadp's weights differ from fedavg's).

The pins hold for the NumPy, BLAS, OpenBLAS kernel and NumPy SIMD targets
named in PINNED_STACK, and a failing pin names the running ones: under
OpenBLAS's AVX2 kernel and NumPy's AVX2 loops, as an AVX2-only CPU runs
them, 12 of the 16 move. They do not depend on the BLAS thread count, which
a test checks by running the script below with one OpenBLAS thread. To
print fresh pins for the running stack:

    PYTHONPATH=src python3 tests/test_run_digests.py
"""
import ctypes
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedsim.federation import run_federation
from fedsim.reporting import config_from_dict, emit_metrics, make_manifest

SMALL = {"rounds": 3, "num_clients": 4, "synth_classes": 4,
         "synth_per_class": 25, "synth_dim": 6, "hidden_dim": 8,
         "batch_size": 16}
SKEW = {"partition": "label_skew", "concentration": 0.3}

CONFIGS = {
    "fedavg-iid": {},
    "fedavg-skew": SKEW,
    "fedavg-skew-2-epochs": {**SKEW, "local_epochs": 2, "momentum": 0.0},
    "fedadp-skew": {**SKEW, "strategy": "fedadp"},
    "fedopt-adam-sigmoid": {"strategy": "fedopt", "variant": "adam",
                            "activation": "sigmoid", "server_lr": 0.01},
    "fedopt-adagrad-softmax": {"strategy": "fedopt", "variant": "adagrad",
                               "model_kind": "softmax_regression",
                               "server_lr": 0.01},
    "fedopt-yogi-skew": {**SKEW, "strategy": "fedopt", "variant": "yogi",
                         "server_lr": 0.01},
    "fedams-skew": {**SKEW, "strategy": "fedams", "server_lr": 0.01},
    "ewwa-iid": {"strategy": "ewwa"},
    "ewwa-skew-sigmoid": {**SKEW, "strategy": "ewwa", "activation": "sigmoid"},
    "ewwa-softmax": {"strategy": "ewwa", "model_kind": "softmax_regression"},
    "ewwa-adagrad": {"strategy": "ewwa", "variant": "adagrad"},
    "ewwa-yogi-skew": {**SKEW, "strategy": "ewwa", "variant": "yogi"},
    "fedboosting-skew": {**SKEW, "concentration": 1.0,
                         "strategy": "fedboosting"},
    "fedboosting-skew-sigmoid": {**SKEW, "concentration": 1.0,
                                 "strategy": "fedboosting",
                                 "activation": "sigmoid"},
    "fedboosting-softmax": {"strategy": "fedboosting",
                            "model_kind": "softmax_regression"},
}

PINNED_STACK = ("numpy 2.4.6, scipy-openblas 0.3.31.188.0, core SkylakeX, "
                "SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR")
PINS = {
    "fedavg-iid":
        "985bc14410f6dbb12bce9a4c9f8515d1fa849ecacf5baccb992efbc66f7901d7",
    "fedavg-skew":
        "f75b6707bef8e36b190eab35434e540f5e0ed3eacbb636772f912d3f6d880604",
    "fedavg-skew-2-epochs":
        "66dd7bc062c3e024ce76a17e5e6215a11005506e07fcc267b88b167fd5cea365",
    "fedadp-skew":
        "cdaaefd5f4133fcd3b3325c5b7093d968116e68c946491be5e79574a70f6d11b",
    "fedopt-adam-sigmoid":
        "dcfe67ad1d88f0280d38377a595236de655d14d495bc2508f5a4bdeacf8db163",
    "fedopt-adagrad-softmax":
        "ba0b265f5efc405394c3739ffa4a688580bfb36ff7b8ab6216a9de12be0b49a7",
    "fedopt-yogi-skew":
        "d9e0ce113a79c44d9fe44b32ce5871988c03aeef305963619e301b79bd63b741",
    "fedams-skew":
        "817756626de5195f20607d47373cef8d98b3ccd9347f8a924d71ba0605df5f33",
    "ewwa-iid":
        "2848babed017bf66bb4f33a63a96ced7d641976fd6c2a52d4ae38ce15a9a7651",
    "ewwa-skew-sigmoid":
        "a795986f487221d80bec0ae090ca318ee8f6cf18fa888569f08b706f4feab803",
    "ewwa-softmax":
        "b1ef113175eb0e6e9f0d8a988eb6a2be09b0b02babb71dce0428a744161f3972",
    "ewwa-adagrad":
        "0b64525f1d0bb4b111aaed648e405bc2e1a5a11ead5da729990ed0c171da016c",
    "ewwa-yogi-skew":
        "3501e869045075b29dd5e34b104a618456a0b224f499bb113b5c62adec8f5e0a",
    "fedboosting-skew":
        "b064c441007daddb30edfbb56d5c7f86d2116385470e46e644ae81648ed88811",
    "fedboosting-skew-sigmoid":
        "7b1c76d3ba0f182d4f75298b6cc421f7c7643c15c8fc877bf5c554817c7bfd1f",
    "fedboosting-softmax":
        "aa6a7c256e472463793acbd48b8e7d35bba31829e7b6d1fa784011fdb8270198",
}


def openblas_core() -> str | None:
    """The CPU kernel that the OpenBLAS bundled with NumPy runs, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode()
    return None


def running_stack() -> str:
    """NumPy and its BLAS, the BLAS kernel and the SIMD targets NumPy uses."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = " ".join(config["SIMD Extensions"]["found"])
    return (f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}, "
            f"core {openblas_core()}, SIMD {simd}")


def metrics_digest(doc: dict, out_dir: Path) -> str:
    """sha256 of the metrics.jsonl that `fedsim run` writes for doc."""
    cfg = config_from_dict({**SMALL, **doc})
    emit_metrics(run_federation(cfg), make_manifest(cfg, out_dir, 0.0, 0.0),
                 out_dir)
    return hashlib.sha256((out_dir / "metrics.jsonl").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", CONFIGS)
def test_metrics_match_the_pin(name, tmp_path):
    digest = metrics_digest(CONFIGS[name], tmp_path)
    assert digest == PINS[name], (
        f"{name}: metrics.jsonl sha256 {digest}, pinned {PINS[name]}; "
        f"pinned on {PINNED_STACK}, running on {running_stack()}")


def test_every_config_gives_its_own_output():
    """No two configs write the same metrics, fedadp and fedavg on the same
    unequal shards included."""
    assert PINS.keys() == CONFIGS.keys()
    assert len(set(PINS.values())) == len(PINS)


def test_one_blas_thread_prints_the_digests_of_this_process(tmp_path):
    """This file's script mode, run in a child whose environment alone asks
    for one OpenBLAS thread, prints every config's digest as this process
    computes it with its own thread count."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": "src"}
    child = subprocess.run([sys.executable, __file__],
                           cwd=Path(__file__).resolve().parent.parent,
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    printed = dict(re.findall(r'"([\w-]+)":\s+"([0-9a-f]{64})"', child.stdout))
    assert printed == {name: metrics_digest(doc, tmp_path / name)
                       for name, doc in CONFIGS.items()}


def test_the_running_stack_names_the_kernel_the_environment_picks():
    """In a child whose environment alone asks for OpenBLAS's Haswell kernel
    and turns NumPy's AVX-512 loops off, as an AVX2-only CPU runs, the
    running stack names that kernel and AVX2's SIMD target."""
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": "src"}
    code = f"import runpy; print(runpy.run_path({__file__!r})['running_stack']())"
    child = subprocess.run([sys.executable, "-c", code],
                           cwd=Path(__file__).resolve().parent.parent,
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip().endswith(", core Haswell, SIMD X86_V3")


if __name__ == "__main__":
    import tempfile

    print(f'PINNED_STACK = "{running_stack()}"')
    print("PINS = {")
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in CONFIGS.items():
            print(f'    "{name}":\n'
                  f'        "{metrics_digest(doc, Path(tmp) / name)}",')
    print("}")
