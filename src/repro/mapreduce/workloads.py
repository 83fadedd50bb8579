"""The paper's benchmark workloads: wordcount and terasort (plus grep).

Each workload bundles a deterministic synthetic data generator, the
mapper/reducer pair, and a plain (non-distributed) reference
implementation used by the tests to check that running the job over an
encoded file gives exactly the same answer.
"""

from __future__ import annotations

import random
import re
from collections import Counter

from repro.mapreduce.job import JobSpec
from repro.mapreduce.records import FixedLengthRecordReader, LineRecordReader

# A small vocabulary keeps wordcount outputs meaningful and collisions
# (the interesting part of reducing) frequent.
_VOCABULARY = (
    "the quick brown fox jumps over lazy dog data block parity stripe code "
    "server cluster repair locality weight galloper pyramid carousel map "
    "reduce shuffle failure tolerance storage overhead disk network"
).split()

#: Words per generated line of wordcount text.
WORDS_PER_LINE = 10

TERASORT_RECORD_SIZE = 100
TERASORT_KEY_SIZE = 10


# ----------------------------------------------------------------- wordcount


def generate_text(size_bytes: int, seed: int = 0) -> bytes:
    """Deterministic text of roughly ``size_bytes`` newline-separated words."""
    rng = random.Random(seed)
    lines = []
    total = 0
    while total < size_bytes:
        line = " ".join(rng.choice(_VOCABULARY) for _ in range(WORDS_PER_LINE))
        lines.append(line)
        total += len(line) + 1
    blob = "\n".join(lines).encode()
    return blob[:size_bytes]


def wordcount_mapper(record: bytes):
    for word in record.split():
        yield word.decode(errors="replace"), 1


def wordcount_reducer(key, values):
    return sum(values)


def wordcount_reference(payload: bytes) -> dict[str, int]:
    """Ground truth: count words of the whole payload directly."""
    return dict(Counter(w.decode(errors="replace") for w in payload.split()))


def wordcount_job(input_file: str, num_reducers: int = 4) -> JobSpec:
    return JobSpec(
        name="wordcount",
        input_file=input_file,
        mapper=wordcount_mapper,
        reducer=wordcount_reducer,
        record_reader=LineRecordReader(),
        num_reducers=num_reducers,
        map_output_ratio=0.05,
    )


# ------------------------------------------------------------------ terasort


def generate_terasort_records(num_records: int, seed: int = 0) -> bytes:
    """``num_records`` records of 100 bytes: 10-byte key + 90-byte payload."""
    rng = random.Random(seed)
    out = bytearray()
    for i in range(num_records):
        key = bytes(rng.randrange(32, 127) for _ in range(TERASORT_KEY_SIZE))
        body = (b"%08d" % i) * 12  # 96 bytes
        out += key + body[: TERASORT_RECORD_SIZE - TERASORT_KEY_SIZE]
    return bytes(out)


def terasort_mapper(record: bytes):
    yield record[:TERASORT_KEY_SIZE], record


def terasort_reducer(key, values):
    # Records sharing a key stay together; ordering within a key is stable.
    return sorted(values)


def terasort_reference(payload: bytes) -> list[bytes]:
    """Ground truth: all complete records, sorted by key."""
    n = len(payload) // TERASORT_RECORD_SIZE
    recs = [payload[i * TERASORT_RECORD_SIZE : (i + 1) * TERASORT_RECORD_SIZE] for i in range(n)]
    return sorted(recs, key=lambda r: r[:TERASORT_KEY_SIZE])


def terasort_output_records(result_output: dict) -> list[bytes]:
    """Flatten a terasort job's output dict into the sorted record list."""
    out: list[bytes] = []
    for key in sorted(result_output):
        out.extend(result_output[key])
    return out


def terasort_job(input_file: str, num_reducers: int = 4) -> JobSpec:
    return JobSpec(
        name="terasort",
        input_file=input_file,
        mapper=terasort_mapper,
        reducer=terasort_reducer,
        record_reader=FixedLengthRecordReader(TERASORT_RECORD_SIZE),
        num_reducers=num_reducers,
        map_output_ratio=1.0,
    )


# ---------------------------------------------------------------------- grep


def grep_job(input_file: str, pattern: str) -> JobSpec:
    """Count lines matching a regex — the classic third Hadoop example.

    Every match emits the one key ``pattern``, so one reducer does.
    """
    compiled = re.compile(pattern.encode())

    def mapper(record: bytes):
        if compiled.search(record):
            yield pattern, 1

    return JobSpec(
        name=f"grep:{pattern}",
        input_file=input_file,
        mapper=mapper,
        reducer=lambda key, values: sum(values),
        record_reader=LineRecordReader(),
        num_reducers=1,
        map_output_ratio=0.01,
    )


def grep_reference(payload: bytes, pattern: str) -> int:
    compiled = re.compile(pattern.encode())
    return sum(1 for line in payload.split(b"\n") if compiled.search(line))
