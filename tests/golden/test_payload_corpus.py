"""Golden payload corpus: planner output must stay byte-identical.

A fixed list of canonical ``/v1/plan`` requests (BC, BC-OPT and SC over
small uniform deployments) plus one three-step ``/v1/plan/delta`` chain,
each pinned to the ``payload_sha256`` its payload had before the
Algorithm 3 worklist landed.  A refactor or speed-up that claims to
change no bytes must leave every digest here unchanged; a change that
alters output on purpose bumps ``KERNEL_VERSIONS`` and re-records the
digests by running this module::

    PYTHONPATH=src python -m tests.golden.test_payload_corpus
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.delta import DELTA_REQUEST_SCHEMA
from repro.delta.protocol import canonical_delta_request
from repro.delta.session import advance_session, session_from_plan_payload
from repro.service.executor import delta_plan_payload, plan_payload
from repro.service.request import canonical_request, payload_digest

#: (planner, n, radius_m, deployment seed, field side in m or None for
#: the 1 km default) -> payload_sha256.
PLAN_CORPUS: Dict[Tuple[str, int, float, int, Optional[float]], str] = {
    ("BC", 40, 10.0, 1, None):
        "9935556f14b68737ef88b50a18ef6a85a0b316d0ed8379bdf3457247d2184da9",
    ("BC", 80, 25.0, 2, 300.0):
        "9861c56c793d5b58707ef7d46c168009c2c2c34033ad98f3b08a4b2ed182e337",
    ("BC", 120, 40.0, 3, 500.0):
        "9e8e4e1927196eb12c62faa56addb33af713c900f0b8597cedde34eb21d7608b",
    ("BC", 100, 20.0, 4, 200.0):
        "8483edfecc1087e51716dd271f64826cde5a95bcd5b3af3b02625b9de1641608",
    ("BC-OPT", 40, 10.0, 1, None):
        "f12b97b00927168105c98649836a4a77d537c0a9e4f8b96b169b2d60c8ba2b37",
    ("BC-OPT", 80, 25.0, 2, 300.0):
        "a650b9930d517197a49a37b0646befe0558699810d208924753e2b8b799b03c2",
    ("BC-OPT", 120, 40.0, 3, 500.0):
        "344e9c8328e3aa260c61cf8936a134da0c6446479a67996e8e14919adb223bb4",
    ("BC-OPT", 100, 20.0, 4, 200.0):
        "649d7961a2ba277aef5fd8ccc05a181f7829724b16b4122938248f3dfd835f74",
    ("SC", 40, 10.0, 1, None):
        "bf2d77393f66ed2f690ce566c4b0355932e00e838836f6cfaae673bfaf3aad31",
    ("SC", 80, 25.0, 2, 300.0):
        "9cda7c481cba044b1f860239ab7665eeea58195ff4f0aee2a947eecee668c996",
    ("SC", 120, 40.0, 3, 500.0):
        "c40d66b6b9ae81653ef820665c9101e24a87544e30c600841dde98923e71e35a",
    ("SC", 100, 20.0, 4, 200.0):
        "c7d51dfa89ad5ffcd563174963606dc039b9b92afd9b4efc08d7e48e5c254ca7",
}

#: The delta chain's establishing BC-OPT plan and its three edits.
CHAIN_ROOT = ("BC-OPT", 60, 20.0, 5, 250.0)
CHAIN_STEPS: List[List[Dict[str, Any]]] = [
    [{"type": "sensor_moved", "v": 1, "index": 7, "x": 120.5, "y": 33.25}],
    [{"type": "sensor_died", "v": 1, "index": 12}],
    [{"type": "sensor_joined", "v": 1, "x": 201.0, "y": 180.75},
     {"type": "sensor_moved", "v": 1, "index": 30, "x": 5.0, "y": 240.0}],
]
CHAIN_DIGESTS: List[str] = [
    "844fb2accc93e87a70dda6bb291fd372d56f9d1f5f60f852b1c62767cf5efe55",
    "a71f3915a3acbd7c27df48b40d21ac7fc5f0f247810b7da97ec67c109fdbe25e",
    "a1d7efca857ed8199759d30e0cce290992dcbba2490171926add5dbed73ec50f",
    "4b1b7410b9415e4ad567661c8bc9a1c3aed2202127729752f39d1ab5610b8907",
]


def _plan_request(planner: str, n: int, radius_m: float, seed: int,
                  field_side_m: Optional[float]) -> Dict[str, Any]:
    deployment: Dict[str, Any] = {"kind": "uniform", "n": n, "seed": seed}
    if field_side_m is not None:
        deployment["field_side_m"] = field_side_m
    return canonical_request({
        "schema": "bundle-charging/request/v1",
        "deployment": deployment,
        "planner": planner,
        "radius_m": radius_m,
    })


def chain_digests() -> List[str]:
    """Digests of the chain's root plan, then of each repair in turn."""
    request = _plan_request(*CHAIN_ROOT)
    payload = plan_payload(request)
    digests = [payload_digest(payload)]
    session = session_from_plan_payload(request, payload)
    for deltas in CHAIN_STEPS:
        delta_request = canonical_delta_request(
            {"schema": DELTA_REQUEST_SCHEMA, "session": session.handle,
             "deltas": deltas}, request["planner"])
        payload, _ = delta_plan_payload(delta_request, session)
        digests.append(payload_digest(payload))
        session = advance_session(session, deltas, payload)
    return digests


@pytest.mark.parametrize("key", sorted(PLAN_CORPUS), ids=lambda key: (
    f"{key[0]}-n{key[1]}-r{key[2]:g}-s{key[3]}"))
def test_plan_payload_digest(key):
    digest = payload_digest(plan_payload(_plan_request(*key)))
    assert digest == PLAN_CORPUS[key]


def test_delta_chain_digests():
    assert chain_digests() == CHAIN_DIGESTS


if __name__ == "__main__":
    for key in sorted(PLAN_CORPUS):
        digest = payload_digest(plan_payload(_plan_request(*key)))
        print(f"    {key!r}:\n        \"{digest}\",")
    print(f"CHAIN_DIGESTS = {chain_digests()!r}")
