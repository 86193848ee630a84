"""Deterministic demo workloads for protected runs and calibration.

Every workload is a pure function of its input bytes: integer matrix multiply
(no floating point, so results are bit-exact by construction), a 16-byte
BLAKE2b digest, and a plain spin loop for calibration and timing experiments.
Inputs are generated from a seed (random.Random for checksum, numpy for matmul)
so two invocations with the same id and seed are byte-identical end to end.
Only matmul needs numpy, and imports it only when it is built or run; hashlib
likewise loads only when checksum is built.
"""

import math
import random
from collections.abc import Sequence
from typing import NamedTuple

from .core import PayloadSpec, WrappedComputation

_VALUE_BOUND = 1 << 20  # |a|,|b| < 2^20 keeps n<=4096 matmuls inside int64
_DIGEST_SIZE = 16


class Workload(NamedTuple):
    """A named computation plus the payload it runs on."""

    name: str
    param: int
    seed: int
    payload: PayloadSpec
    computation: WrappedComputation


def _matmul(inputs: Sequence[memoryview], outputs: Sequence[memoryview]) -> None:
    import numpy as np
    a_flat = np.frombuffer(inputs[0], dtype=np.int64)
    b_flat = np.frombuffer(inputs[1], dtype=np.int64)
    n = math.isqrt(len(a_flat))
    product = a_flat.reshape(n, n) @ b_flat.reshape(n, n)
    outputs[0][:] = product.tobytes()


def _checksum(inputs: Sequence[memoryview], outputs: Sequence[memoryview]) -> None:
    import hashlib
    digest = hashlib.blake2b(inputs[0], digest_size=len(outputs[0])).digest()
    outputs[0][:] = digest


def _spin(inputs: Sequence[memoryview], outputs: Sequence[memoryview]) -> None:
    iters = int.from_bytes(inputs[0], "little")
    acc = 0
    i = 0
    while i < iters:
        acc = (acc + i) & 0xFFFFFFFF
        i += 1
    outputs[0][:] = acc.to_bytes(8, "little")


def matmul_workload(n: int = 128, seed: int = 0) -> Workload:
    """n x n int64 matrix product; exact in integers, heavy in memory traffic."""
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    import numpy as np
    rng = np.random.default_rng(seed)
    a = rng.integers(-_VALUE_BOUND, _VALUE_BOUND, size=(n, n), dtype=np.int64)
    b = rng.integers(-_VALUE_BOUND, _VALUE_BOUND, size=(n, n), dtype=np.int64)
    nbytes = n * n * 8
    payload = PayloadSpec.of([a.tobytes(), b.tobytes()], [nbytes, nbytes], [nbytes])
    return Workload(name="matmul", param=n, seed=seed, payload=payload, computation=_matmul)


def checksum_workload(nbytes: int = 65536, seed: int = 0) -> Workload:
    """BLAKE2b digest of seeded random bytes; small output, easy to bit-flip."""
    if nbytes < 1:
        raise ValueError("input size must be >= 1")
    import hashlib  # noqa: F401  (loaded before the fork, so no replica imports it)
    data = random.Random(seed).randbytes(nbytes)
    payload = PayloadSpec.of([data], [nbytes], [_DIGEST_SIZE])
    return Workload(name="checksum", param=nbytes, seed=seed, payload=payload, computation=_checksum)


def spin_workload(iters: int = 5_000_000, seed: int = 0) -> Workload:
    """A counted arithmetic loop; progress scales directly with iterations."""
    if not 1 <= iters < 2**64:
        raise ValueError("iteration count must be >= 1 and below 2**64")
    payload = PayloadSpec.of([iters.to_bytes(8, "little")], [8], [8])
    return Workload(name="spin", param=iters, seed=seed, payload=payload, computation=_spin)


_BUILDERS = {
    "matmul": matmul_workload,
    "checksum": checksum_workload,
    "spin": spin_workload,
}


def direct_run(workload: Workload) -> list[bytes]:
    """Run the wrapper once in this process; the reference for comparison tests."""
    outputs = [bytearray(size) for size in workload.payload.output_sizes]
    views = [memoryview(buf) for buf in outputs]
    input_views = [memoryview(data) for data in workload.payload.inputs]
    workload.computation(input_views, views)
    return [bytes(buf) for buf in outputs]
