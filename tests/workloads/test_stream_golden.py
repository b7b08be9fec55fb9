"""Stream golden: every SPEC2000 profile's first µops, pinned by digest.

The generator's output is a pure function of its RNG draws, so any
change to the order or number of draws moves every later µop.  This
module stores, per profile, one SHA-256 over the first
``UOPS_PER_PROFILE`` µops' fields, generated exactly as
``build_system`` builds thread 0 (``child_rng(2005, "stream:<app>:0")``,
scale 8).  A generator change that claims to leave the stream alone
(say, sharing equal µop objects) must pass this unedited; regenerate
only for an intentional change to the synthetic workloads::

    PYTHONPATH=src python tests/workloads/test_stream_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.common.rng import child_rng
from repro.workloads.generator import SyntheticStream
from repro.workloads.spec2000 import PROFILES

GOLDEN_PATH = Path(__file__).with_name("stream_golden.json")

SEED = 2005
SCALE = 8
UOPS_PER_PROFILE = 5_000


def stream_digest(app: str) -> str:
    stream = SyntheticStream(
        PROFILES[app], child_rng(SEED, f"stream:{app}:0"), thread_id=0, scale=SCALE
    )
    h = hashlib.sha256()
    for _ in range(UOPS_PER_PROFILE):
        u = stream.next_uop()
        fields = (u.opc.name, u.addr, u.dep1, u.dep2, u.mispredict, u.pc, u.taken)
        h.update(repr(fields).encode())
        h.update(b"\n")
    return h.hexdigest()


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_profile():
    assert sorted(_golden()) == sorted(PROFILES)


@pytest.mark.parametrize("app", sorted(PROFILES))
def test_stream_matches_golden(app):
    assert stream_digest(app) == _golden()[app]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    digests = {app: stream_digest(app) for app in sorted(PROFILES)}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
