"""The in-core shuffle holds its data once on each side.

Two process-backend ranks shuffle the benchmark suite's in-core shape at
half size (1.5 M pairs of an 'S8' key and a 32-byte row: 30 MB of payload
per rank, 256 MiB ``memsize``) in a subprocess of their own, under the
suite's malloc environment, and each rank reports its ``ru_maxrss`` after
``map`` and after ``convert``.  Before the exchange ran in ring-sized rounds
into key-range buckets that growth was 2.9 payloads (every staged batch
concatenated, sorted and copied into the ring at once, then own + received
runs concatenated and gathered again in ``convert``); now it is 0.8.
"""

import json
import os
import resource
import subprocess
import sys

import numpy as np

PAIRS, KEYS, TASKS, MEMSIZE = 1_500_000, 30_000, 16, 256 << 20
VALUE_DTYPE = np.dtype([("score", "<i8"), ("pos", "<i8"), ("bit", "<f8"), ("evalue", "<f8")])
PAYLOAD_MIB = PAIRS // 2 * (8 + VALUE_DTYPE.itemsize) / 2**20
MAX_PAYLOADS = 1.8
# glibc's thresholds at their ceilings, as benchmarks/suite/run.py pins them:
# left dynamic, the order of frees decides what a rank's peak is.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}


def _peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _shuffle(comm, tasks, keytab, spool):
    from repro.mrmpi import MapReduce, MapStyle, RecordSchema

    def mapper(itask, kids, kv):
        rows = np.zeros(len(kids), dtype=VALUE_DTYPE)
        rows["score"] = kids
        rows["pos"] = np.arange(len(kids))
        kv.add_batch(keytab[kids], rows)

    counts = np.zeros(len(keytab), dtype=np.int64)

    def count(key, values):
        counts[int(key[1:])] = len(values)

    schema = RecordSchema(key_dtype="S8", value_dtype=VALUE_DTYPE)
    with MapReduce(comm, memsize=MEMSIZE, mapstyle=MapStyle.CHUNK, schema=schema,
                   spool_dir=spool) as mr:
        mr.map_items(tasks, mapper)
        after_map = _peak_mib()
        mr.aggregate()
        mr.convert()
        after_convert = _peak_mib()
        for key, values in mr.kmv:
            count(key, values)
    return after_map, after_convert, counts


def _main(spool: str) -> None:
    from repro.mpi import run_spmd

    kids = np.random.default_rng(2011).integers(KEYS, size=PAIRS, dtype=np.int64)
    keytab = np.array([f"k{k:07d}".encode() for k in range(KEYS)], dtype="S8")
    out = run_spmd(2, _shuffle, np.array_split(kids, TASKS), keytab, spool, backend="process")
    correct = np.array_equal(sum(r[2] for r in out), np.bincount(kids, minlength=KEYS))
    print(json.dumps({"correct": bool(correct), "ranks": [r[:2] for r in out]}))


def test_shuffle_growth_stays_under_two_payloads(tmp_path):
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, **MALLOC_ENV, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"]
    for after_map, after_convert in report["ranks"]:
        assert after_map > PAYLOAD_MIB  # the map output was resident when measured
        growth = (after_convert - after_map) / PAYLOAD_MIB
        assert growth < MAX_PAYLOADS, f"{after_map:.0f} -> {after_convert:.0f} MiB"


if __name__ == "__main__":
    _main(sys.argv[1])
