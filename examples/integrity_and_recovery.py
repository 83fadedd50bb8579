"""Integrity scrubbing and the server-recovery storm.

Two operational scenarios beyond the paper's figures:

1. **Silent corruption**: a byte rots inside a stored block.  Checksums
   catch it during a scrub pass, and the block heals through the code's
   cheap local repair path.
2. **Recovery storm**: a whole server dies and every stripe it held
   repairs at once through the serving gateway, contending for the
   survivors' disks.  The storm shows how repair locality shortens it.

Run:  python examples/integrity_and_recovery.py
"""

import numpy as np

from repro import Cluster, DistributedFileSystem, GalloperCode
from repro.bench import extension_recovery_storm
from repro.storage import Scrubber


def scrubbing_demo() -> None:
    print("=== silent corruption -> scrub -> local heal ===")
    cluster = Cluster.homogeneous(10)
    dfs = DistributedFileSystem(cluster)
    rng = np.random.default_rng(5)
    payload = rng.integers(0, 256, 70_000, dtype=np.uint8).tobytes()
    ef = dfs.write_file("archive", payload, code=GalloperCode(4, 2, 1))

    # Bit rot strikes two blocks.
    dfs.store.corrupt(ef.server_of(1), "archive", 1, offset=1234)
    dfs.store.corrupt(ef.server_of(6), "archive", 6, offset=9)

    report = Scrubber(dfs).scrub()
    print(f"scrubbed {report.blocks_checked} blocks; corrupted: {report.corrupted}")
    for rep in report.repairs:
        print(f"  block {rep.block} healed from blocks {list(rep.helpers)} "
              f"({rep.bytes_read} bytes read) on server {rep.target_server}")
    assert dfs.read_file("archive") == payload
    print("file verified byte-for-byte after healing\n")


def recovery_storm_demo() -> None:
    print("=== server death: recovery storm across codes ===")
    print(extension_recovery_storm(lost_blocks=60, num_servers=20, seed=3).render())
    print("\nlocal repair reads about half Reed-Solomon's bytes and drains the storm sooner;")
    print("replication is fastest but costs 3x storage (vs 1.75x for the LRCs).")


if __name__ == "__main__":
    scrubbing_demo()
    recovery_storm_demo()
