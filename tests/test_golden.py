"""Golden replay reports: the sha256 of ``ReplayReport.to_json()`` for fixed
inputs, recorded before the trace schema, name-check and oracle rewrites.

Each case also pins the sha256 of its input trace (``serialize_trace``), so
a change to a fixture or to the generator fails as "generator changed"
rather than as "report changed". Re-record both hashes only for a change
that is meant to alter the inputs or the report bytes.
"""

import hashlib

import pytest

from ipcconfine.trace import (
    TraceParams,
    fixture_rpcss,
    fixture_three_iis,
    generate_random_trace,
    replay,
    serialize_trace,
)

RANDOM_PARAMS = TraceParams(vm_count=4, process_count=16, name_pool_size=400,
                            event_count=2000, seal_position=1000)

FIXTURES = {"rpcss": fixture_rpcss, "three_iis": fixture_three_iis}

# (fixture, dual) -> (trace sha256, report sha256)
FIXTURE_DIGESTS = {
    ("rpcss", False): ("28c3233ace0a982e13b898c55b57f6849f3d7ab48dd63404e25893b910b97f99",
                       "584ebf5431d833551ec1d3b32a4b4606c040bf1fdc318ad8fdd673135206faf1"),
    ("rpcss", True): ("28c3233ace0a982e13b898c55b57f6849f3d7ab48dd63404e25893b910b97f99",
                      "584ebf5431d833551ec1d3b32a4b4606c040bf1fdc318ad8fdd673135206faf1"),
    ("three_iis", False): ("2af41977913e8388a3831630b6fc55ff75efd05c22f98abfaf9338cc0d80d3d1",
                           "79f4f80fe908f9ecfadd22a0f08e1af7c39226874005fe97d238626b7ecbc065"),
    ("three_iis", True): ("2af41977913e8388a3831630b6fc55ff75efd05c22f98abfaf9338cc0d80d3d1",
                          "79f4f80fe908f9ecfadd22a0f08e1af7c39226874005fe97d238626b7ecbc065"),
}

# seed -> (trace sha256, dual-mode report sha256), at RANDOM_PARAMS
RANDOM_DIGESTS = {
    0: ("cdc3097beddc4af6eebb690aaa04e622eaf7e648a33419b3e6eb5cb494b2382b",
        "8e2660cbf6792ec5920e93bdd396579b6f9695b9462c4c241537599f961c762d"),
    1: ("c6a4beb8f72163c2d501e19a8d612b476e8512bf2cbc09eef74334d048bb0f2e",
        "544be7b67c6b19bbf842ed6209df01925d387a2d0d55f079f4cbc12942909bfd"),
    2: ("b3a1fa2d0d0dd56e558dc2310466f9667eca532a3cc87d99cce6d28213b5c354",
        "139012bd2f357c17d36394028a593ca9bae3870def991a68c0565157c5264e23"),
    3: ("f00c8395337a7f1600bf5bc18d4d78ea3095ee3f38387712931c07e99decb558",
        "da88d7af3da0630517dafa8131485b444b70da4461011bb7f94f279a2d9a0d18"),
    4: ("0ab370228c52256501aef003448fb578548badded3a7235eaa78b4b8bb9dbe15",
        "aab34a087b7dbb08d4332a029bb8f335660dbbbdcd81e8edfd6acd8559e612fe"),
    5: ("fb0d5fb53370265be720843cbb63c871d2c2f8b3cc755fb9db5be16357c9a8e0",
        "b9e0d3a7f15e32b36b2e60b2ef518d5c501e71e6a374d75e08944b2a1d236023"),
    6: ("96bc92ae32bbdb4e1a9e9e6766fb96c93ab8bbb79ea252f854144e997eab2dfb",
        "104ebb9d7996bd7d7da0cdd23753b76cb908ead33dd1b026c24221e23aee62da"),
    7: ("33ca9ec3484abc92e83ffd66d662e346b07cd5bb6c1d7656f98144b51a747311",
        "f9e99e3b3ead771f6ccfa0b5b414222108242ab3e726f0b9e6c08a82238bb7a7"),
    8: ("4093bed751cf8a1a3f7db532cf90f9912a18f831fd16e963206de842e72ceddc",
        "9ef7d0a2711fade0ad7c58dda7b288d86d1bb22d29c74536402a72b0f864f6ed"),
    9: ("7e94d722f906432486091839de04084dfff57853ee715559d92d4cb6a1c5dd60",
        "0b3ec3b271ab042cf1e245b204a776ca489ab7d52cede76ea4ba31ae0d56f420"),
    10: ("a71aa8f797088e867b0f2e1b7fe62563332f473d700b3aa7a52733545b2b148f",
         "8dd7d56f58cc081846523b4bd245af91a11d2af7359e0a64bbc9af453132632a"),
    11: ("1010a7056670ba18374fe70ab695c8572b81e582ee4a47d65a24eac0f945b5fd",
         "ea3e51049f097b9f58b2b1f68526b4695806ef56c71cca3e2881d1233e2c4293"),
    12: ("ca8c2f80a52d6d4dc35310235f047f19ebd98ae75ad8a1f2ffa544f732d918d5",
         "38f345077d03b4b286eb263ae42c255d55290b63e636aceb276a0c6869dab2bf"),
    13: ("0f778ae42e2d9626d6e122aafd9bf318864ce6320a5033b400b1b74381937354",
         "52c4d303f8effb3679b85c91ebde4f22e3a6966dc0bdea62ff70b7602b7e5acd"),
    14: ("be49f3b748e56c83392bbc22b1a17b945267edca9e5ce6c4a5c0cca7af121085",
         "2e2d60012df319ba533274b7164500af19cf4a9dfa75dda7eb912ec8abaa7de2"),
    15: ("b0590ca3223aa8770826b1b51c44136d0f8c7e31b4cf269ce059603dbc0c3b20",
         "61c01c5f6ad0d812afc18771283c62effc36b00d36145b541a42bf28d8ca31d1"),
    16: ("6bea25118454cb18eed7e173e49ba715a67c28cc2df1851886c94c21978246d6",
         "b5b33586853f62420a1900af666e4c94cfcc291082be86db0d10e49ed3434903"),
    17: ("fbdf8c1e68194da5f5e7c81a4feb53773a6b18caf59a8cebbe06e351683a012e",
         "a84cb8d0d8607ae395ff46ec76455b1ea1d8b275c1fe27bfb2f8ef727133583b"),
    18: ("33f1cb40b99f51ff20ea45db3b5bd8a2daeb6b8979d8506a8cf9c218bd09fd16",
         "6e55571bffcd216e36db8adb1c7ecd948a9933c82fadc5682c4a3ff6e4b118fd"),
    19: ("2ead1d0609e125abd132d6cd6a6bcff34faf67aff456a894044160655a363d4d",
         "8cbc6cdc05dd7bb6542a3b870e3ed3d77e74178ba888bb79d1907bb424edf14c"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check(events, dual: bool, digests) -> None:
    trace_digest, report_digest = digests
    assert sha256(serialize_trace(events)) == trace_digest, "generator changed"
    assert sha256(replay(events, dual=dual).to_json()) == report_digest, "report changed"


@pytest.mark.parametrize("fixture,dual", sorted(FIXTURE_DIGESTS))
def test_fixture_report_bytes(fixture, dual):
    check(FIXTURES[fixture](), dual, FIXTURE_DIGESTS[fixture, dual])


@pytest.mark.parametrize("seed", sorted(RANDOM_DIGESTS))
def test_random_dual_report_bytes(seed):
    check(generate_random_trace(seed, RANDOM_PARAMS), True, RANDOM_DIGESTS[seed])
