"""Golden image identity for forked incremental cuts of HPGMG.

HPGMG allocates hundreds of small per-box arrays and writes few of them
between cuts, so most buffer entries of its incremental images are
clean. This test pins every byte of every generation's ``crac/buffers``
payload, the image sizes and stalls, the forked writers' COW bytes and
the restart report to values recorded before the clean-buffer fast
paths existed: those paths may change what a cut costs on the host,
never what it produces.
"""

import zlib

import numpy as np
import pytest

from repro.apps import Hpgmg
from repro.apps.base import AppContext
from repro.core.session import CracSession
from repro.dmtcp.store import CheckpointStore
from repro.gpu.uvm import ManagedBuffer

CUTS = (0.2, 0.4, 0.6, 0.8)
SCALE = 0.02
SEED = 7

#: Recorded on the commit before the clean-buffer fast paths.
GOLDEN = {
    "buffers_crc": 2471638472,
    "size_bytes": [19034163, 133, 134, 135],
    "checkpoint_time_ns": [
        90750254.91666663, 90568011.08333325, 90568011.16666651, 90568011.25,
    ],
    "cow_bytes": [1, 0, 0, 0],
    # (restart_time_ns, replayed_calls, refilled_bytes,
    #  reregistered_fatbins, adopted_streams, adopted_events, generation)
    "restart": (115543039.88725491, 316, 2187461, 1, 0, 0, 4),
    "digest": 62381802,
}


def _crc_entry(crc: int, addr: int, entry: dict) -> int:
    """Fold one buffer entry, in a canonical field order, into ``crc``."""
    snap = entry["snapshot"]
    head = (
        addr, entry["kind"], entry["size"], entry["uid"], entry["delta"],
        entry["image_bytes"], entry["pcie_bytes"],
        snap.get("whole"), snap.get("fill"), snap["size"],
    )
    crc = zlib.crc32(repr(head).encode(), crc)
    for lo in sorted(snap["spans"]):
        arr = snap["spans"][lo]
        crc = zlib.crc32(repr((lo, arr.nbytes)).encode(), crc)
        crc = zlib.crc32(arr.tobytes(), crc)
    if "residency" in entry:
        crc = zlib.crc32(np.ascontiguousarray(entry["residency"]).tobytes(), crc)
    return crc


def _touch(runtime, k: int) -> None:
    """Write a few bytes of two box arrays and of one managed buffer, so
    each incremental image also holds dirty deltas next to clean ones."""
    buffers = [runtime.buffers[a] for a in sorted(runtime.buffers)]
    managed = [b for b in buffers if isinstance(b, ManagedBuffer)]
    boxes = [
        b for b in buffers
        if not isinstance(b, ManagedBuffer) and b.kind == "device"
        and b.size == 256
    ]
    for box in (boxes[k], boxes[k + 10]):
        box.contents.write_bytes(8 * k, bytes([k]) * 16)
    managed[0].contents.write_bytes(0, bytes([k]) * (100 + k))


@pytest.fixture(scope="module")
def job():
    session = CracSession(gpu="V100", seed=SEED)
    store = CheckpointStore()
    chain: list = []
    reports: list = []
    #: per cut, every live buffer's write counter just before the cut
    seqs: list[dict[int, tuple[int, int]]] = []

    def cut(progress: float) -> None:
        while len(chain) < len(CUTS) and progress >= CUTS[len(chain)]:
            if chain:
                _touch(session.backend.runtime, len(chain))
            seqs.append({
                addr: (buf.uid, buf.contents.write_seq)
                for addr, buf in session.backend.runtime.buffers.items()
            })
            chain.append(session.checkpoint(
                incremental=bool(chain), parent=chain[-1] if chain else None,
                store=store, forked=True,
            ))
            if len(chain) == len(CUTS):
                session.kill()
                reports.append(session.restart_latest(store))

    ctx = AppContext(
        backend=session.backend,
        upper_mmap=lambda n: session.split.upper_mmap(n),
        checkpoint_cb=cut,
    )
    result = Hpgmg(scale=SCALE, seed=SEED).run(ctx)
    session.finish_forked_checkpoints()
    payloads = [
        store.get(g).image.blob("crac/buffers") for g in store.generations
    ]
    return {
        "digest": result.digest,
        "chain": chain,
        "payloads": payloads,
        "seqs": seqs,
        "report": reports[0],
    }


def test_job_reaches_every_cut(job):
    assert len(job["chain"]) == len(CUTS)
    assert len(job["payloads"]) == len(CUTS)
    # Hundreds of box arrays: the case the fast paths exist for.
    assert len(job["payloads"][-1]) > 200


def test_untouched_buffers_get_the_exact_clean_delta_entry(job):
    clean = 0
    for k in range(1, len(CUTS)):
        before, now = job["seqs"][k - 1], job["seqs"][k]
        payload = job["payloads"][k]
        for addr, entry in payload.items():
            if before.get(addr) != now[addr]:
                continue  # written (or reallocated) since the last cut
            clean += 1
            size = entry["size"]
            assert entry["delta"] is True
            assert entry["snapshot"] == {"size": size, "whole": False, "spans": {}}
            assert entry["image_bytes"] == entry["pcie_bytes"] == 0
    assert clean > 200 * (len(CUTS) - 1)


def test_images_match_golden(job):
    crc = 0
    for payload in job["payloads"]:
        for addr in sorted(payload):
            crc = _crc_entry(crc, addr, payload[addr])
    report = job["report"]
    got = {
        "buffers_crc": crc,
        "size_bytes": [img.size_bytes for img in job["chain"]],
        "checkpoint_time_ns": [img.checkpoint_time_ns for img in job["chain"]],
        "cow_bytes": [img.forked_writer.cow_bytes for img in job["chain"]],
        "restart": (
            report.restart_time_ns, report.replayed_calls,
            report.refilled_bytes, report.reregistered_fatbins,
            report.adopted_streams, report.adopted_events, report.generation,
        ),
        "digest": job["digest"],
    }
    assert got == GOLDEN
