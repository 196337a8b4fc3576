"""Golden output hashes: the SHA-256 of every output file of small fixed runs.

Each case runs `cli.main` from a fresh directory with relative paths and
compares the SHA-256 of every file it wrote (manifests excluded, since they
hold paths) with the digests pinned below. A refactor or a speed-up must
leave these bytes unchanged; a change that means to move them updates the
digests and says why.

The digests hold with OpenBLAS's default thread count and with
OPENBLAS_NUM_THREADS=1.
"""

import hashlib
from pathlib import Path

import pytest

from expanderlab import cli

RR16 = "random-regular:n=16,d=3,seed=2"
RR128 = "random-regular:n=128,d=4,seed=7"
RR256 = "random-regular:n=256,d=4,seed=1"
POWER32 = "power:k=2,inner=(random-regular:n=32,d=3,seed=2)"
RR1024 = "random-regular:n=1024,d=4,seed=1"

CASES = {
    "probe": [
        [
            "probe",
            "--family", "random-regular:n=64,d=4,seed=1",
            "--family", RR256,
            "--family", POWER32,
            "--family", "cayley:recipe=elementary,p=5",
            "--ratios", "0.5,1.0",
            "--strategies", "all",
            "--budget", "200",
            "--seed", "3",
            "--out-dir", "probe",
        ],
    ],
    "probe-sanov": [
        # c > 1 on Sanov hosts: targets 9 and 12 lie past the diameters 6 and 8
        [
            "probe",
            "--family", "cayley:recipe=sanov,p=5",
            "--family", "cayley:recipe=sanov,p=3,level=2",
            "--ratios", "1.5",
            "--strategies", "all",
            "--budget", "300",
            "--seed", "7",
            "--out-dir", "probe",
        ],
    ],
    "tower": [["tower", "--p", "3", "--levels", "2", "-o", "tower.csv"]],
    "sweep-measure": [
        ["gen", RR128, "-o", "rr128.el"],
        ["sweep", "rr128.el", "--grid", "0.2,0.35,0.5,0.8", "--seeds-per", "6",
         "--seed", "3", "-o", "sweep.csv"],
        ["measure", "rr128.el", "-o", "rr128.json"],
        ["gen", RR16, "-o", "rr16.el"],
        ["measure", "rr16.el", "--exact-max", "16", "-o", "rr16.json"],
    ],
    "sweep-order": [
        ["gen", RR128, "-o", "rr128.el"],
        ["sweep", "rr128.el", "--grid", "0.8,0.2,0.5,0.2,1,0", "--seeds-per", "6",
         "--seed", "3", "-o", "sweep.csv"],
    ],
    "trim": [
        ["gen", "random-regular:n=64,d=4,seed=3", "-o", "rr64.el"],
        ["trim", "rr64.el", "--girth", "6", "-o", "trimmed.el"],
    ],
    "trim-large": [
        ["gen", RR1024, "-o", "rr1024.el"],
        ["trim", "rr1024.el", "--girth", "8", "-o", "rr1024-trim8.el"],
        ["gen", f"power:k=2,inner=({RR256})", "-o", "power256.el"],
        ["trim", "power256.el", "--girth", "6", "-o", "power256-trim6.el"],
    ],
    "search": [
        ["gen", POWER32, "-o", "power32.el"],
        *(
            ["search", "power32.el", "--girth", girth, "--strategy", strategy,
             "--budget", "200", "--seed", seed, "-o", f"{strategy}-{girth}.el",
             "--report", f"{strategy}-{girth}.json"]
            for strategy, girth, seed in (
                ("trim", "5", "4"),
                ("percolate-repair", "4", "4"),
            )
        ),
    ],
    "search-large": [
        ["gen", RR256, "-o", "rr256.el"],
        ["gen", "cayley:recipe=elementary,p=7", "-o", "sl2_7.el"],
        *(
            ["search", host, "--girth", girth, "--strategy", strategy,
             "--budget", "300", "--seed", "5", "-o", f"{name}.el",
             "--report", f"{name}.json"]
            for name, host, strategy, girth in (
                ("rr256-percolate-repair-5", "rr256.el", "percolate-repair", "5"),
                ("rr256-percolate-repair-7", "rr256.el", "percolate-repair", "7"),
                ("sl2_7-percolate-repair-8", "sl2_7.el", "percolate-repair", "8"),
            )
        ),
    ],
    "cayley": [
        *(
            ["gen", f"cayley:recipe={spec}", "-o", f"{name}.el"]
            for name, spec in (
                ("sanov9", "sanov,p=3,level=2"),
                ("trans3_7", "transvections:3,p=7"),
                ("elem2", "elementary,p=2"),
                ("elem6", "elementary,p=6"),
                ("twisted3", "product:twisted,p=3"),
                ("mixed3", "product:mixed:elementary,p=3"),
                ("diagonal5", "product:diagonal:elementary,p=5"),
            )
        ),
        ["tower", "--p", "6", "--levels", "1", "--recipe", "elementary", "-o", "tower6.csv"],
        ["tower", "--p", "3", "--levels", "1", "--recipe", "product:mixed:elementary",
         "-o", "tower_mixed3.csv"],
    ],
    "spectrum-boundary": [
        *(
            cmd
            for name, spec in (
                ("rr1024", RR1024),
                ("sl2_11", "cayley:recipe=elementary,p=11"),
                ("rr600", "random-regular:n=600,d=3,seed=2"),
                ("power1024", f"power:k=2,inner=({RR1024})"),
            )
            for cmd in (
                ["gen", spec, "-o", f"{name}.el"],
                ["measure", f"{name}.el", "-o", f"{name}.json"],
            )
        ),
        ["search", "rr1024.el", "--ratio", "0.5", "--strategy", "percolate-repair",
         "--budget", "300", "--seed", "5", "-o", "rr1024-percolate-repair.el",
         "--report", "rr1024-percolate-repair.json"],
    ],
    "balls": [
        ["gen", "random-regular:n=32,d=3,seed=1", "-o", "rr32.el"],
        ["balls", "rr32.el", "--radius", "2", "-o", "balls_rr32.csv"],
        ["gen", "cayley:recipe=elementary,p=5", "-o", "sl2_5.el"],
        ["balls", "sl2_5.el", "--radius", "2", "-o", "balls_sl2_5.csv"],
    ],
    "reference-kinds": [
        # the family kinds no other case builds: a Cartesian product, K_n, Petersen
        *(
            cmd
            for name, spec in (
                ("c3xpetersen", "product:inner=(cycle:n=3),inner2=(petersen)"),
                ("k6", "complete:n=6"),
                ("petersen", "petersen"),
            )
            for cmd in (
                ["gen", spec, "-o", f"{name}.el"],
                ["measure", f"{name}.el", "-o", f"{name}.json"],
            )
        ),
    ],
    "sentinels": [
        # a disconnected percolation sample and a path: the null-plus-flag
        # encodings of an unbounded diameter and girth, and exact h of a path
        ["gen", RR128, "-o", "rr128.el"],
        ["percolate", "rr128.el", "-p", "0.3", "--seed", "3", "--check-condition",
         "--keep-out", "kept.el", "-o", "perc.csv"],
        ["measure", "kept.el", "-o", "kept.json"],
        ["gen", "cycle:n=12", "-o", "c12.el"],
        ["trim", "c12.el", "--girth", "13", "-o", "path.el"],
        ["measure", "path.el", "-o", "path.json"],
        ["search", "path.el", "--girth", "5", "--strategy", "trim", "--seed", "1",
         "-o", "s.el", "--report", "s.json"],
    ],
}

GOLDEN = {
    "balls": {
        "balls_rr32.csv":
            "50534eedfa3da25074864b19bb14d11c8f08ab80ecc4e73b77f864759b325f21",
        "balls_sl2_5.csv":
            "0ed915e3f6e2c7a0b855feaeaa8d80cbf3c226890368c8bbcc5a0ecffa32cc24",
        "rr32.el":
            "865dc5b68c8d79b8fdad71312f043fa2b90541cb6b5e2267db33ab3f0a07e0c2",
        "sl2_5.el":
            "fd68aeb132fd34fbf5194e0f4cd79cb7ca4ec83d6fa90648d9575be76907091f",
        "sl2_5.el.labels":
            "9df9badf8f5d525b6eea10a58429f485e1ab04062456ed923c81eb831228632c",
    },
    "cayley": {
        "diagonal5.el":
            "fd68aeb132fd34fbf5194e0f4cd79cb7ca4ec83d6fa90648d9575be76907091f",
        "diagonal5.el.labels":
            "ae2322fc54ba0a7a8f3cbbb5c984d13956e8b37bd55a051f3897da0c6e262355",
        "elem2.el":
            "723f6e23fb6d3afb24ea372d4b1e2fbc7fbf799da47e3f4cc77d0b9dbd2bedc9",
        "elem2.el.labels":
            "ff1efa47ba90495e1f12e06788ad1981fa5dfca7c5fa1dbd8a64b16c8616275e",
        "elem6.el":
            "93fdeb10371dfc57890e7da6132dc9ec2f2070ea151938ae0075920be6b435f6",
        "elem6.el.labels":
            "05813adcab767d26e23766fd6eb8a05f9f69e7e79e9ae69a4160b0f91748b6b5",
        "mixed3.el":
            "b60e44cd4b26433b487848eb56b4b429152112ac3f75c5bb3c63927858c67aba",
        "mixed3.el.labels":
            "5929d0fa948d017661044a2cf1d0b2a48b81c4999c6a96f4414794ed3e80dffc",
        "sanov9.el":
            "b524301cd333794b111bf1b4a2ddaa30330a5d3d8c56f3c79bde909dd077dc07",
        "sanov9.el.labels":
            "2647b149169c7190644b5414d26e9aab3a4395d5229fe052f275d982634f9144",
        "tower6.csv":
            "66fdc39a0a8d25cb9ced6922f80765ce09a40729ef1a647f98d0319770da1266",
        "tower_mixed3.csv":
            "9a02152e7aad528472c8f708ec1df143c5b260a74acb3fa7729c76b398eb4472",
        "trans3_7.el":
            "03267b8b6b272f0cb3badef67b87e9c2605fe8145f140afdf196433e6a03bc8f",
        "trans3_7.el.labels":
            "ad08178ea1a1d776362b1f9b7efc5fb5f6f05c9aa9b84716214777d9113d6a33",
        "twisted3.el":
            "9c92f8c0e4fca648396a36e4b57295733cd5702aaa8cd2200ed47170b3251372",
        "twisted3.el.labels":
            "da34558e73e2a6903642f303e6110dcc9012e05a154de1c82852aa812c1d9799",
    },
    "probe": {
        "probe/probe.csv":
            "02f051fedd855272c0d4113f3009ac3835695b2fc474b5e17b6a23fce7754f68",
        "probe/probe_summary.json":
            "252778904cc25847c4ec3a3e009b6dec9fef4a1cadced1106dfe787a76693526",
    },
    "probe-sanov": {
        "probe/probe.csv":
            "456f718ff15efecbf6ebdc719cf7caca811770f10b2a9360695d5d6c2316540d",
        "probe/probe_summary.json":
            "14d041a79dc34981bfc1f1dbec3d993a6b9ea0fd0bf87c61f5d0debee4caa08f",
    },
    "reference-kinds": {
        "c3xpetersen.el":
            "d3e8631499748b49506d3e8617e3f9a7708a7c8973c443101da70e7673a61127",
        "c3xpetersen.json":
            "40fa0e6a0e8a6a1fecdfab6999a1c881c8b3f6047ad40f39f58e6b44dbea0595",
        "k6.el":
            "3855aca69894c94c7c28e83bbef2440f4b3b44f44fe8567de447989fceb3317e",
        "k6.json":
            "33db0d99b591c5cf166f765ed3b5ffc659056cee6103f831c5cc17a41c907735",
        "petersen.el":
            "752614ebbca28fed6df2d0f9a9956fbd7ef474cfcf81844466ed681193517872",
        "petersen.json":
            "2a36b67065bbee0be161a6ab8440feb4e3fb49d8ec9a206588467ba9f4befc9c",
    },
    "search": {
        "percolate-repair-4.el":
            "298011f7bfedb9fb4f7d009b18771ea3353b77a8450b5f524cf14ec2a8f5b0d9",
        "percolate-repair-4.json":
            "f84b261fd0c21b6f474f6284040c4bc6ebe646bb6655e13892b9c302716a2a61",
        "power32.el":
            "2b2dce37c60f0b7d5707574130bcf892fdbe815b43c86e47d9fbf521fa16b54e",
        "trim-5.el":
            "78f0a9234dba8a2a1403bd807680aaddd5c382c8866542978f181def8d32e835",
        "trim-5.json":
            "2a0aa586d80e75086806cf06eebac31ab572ed20741010eebf73e2e091b26211",
    },
    "search-large": {
        "rr256-percolate-repair-5.el":
            "59c5359c122d753265e10955484a65a911852114e365272b79f595cd2705f12d",
        "rr256-percolate-repair-5.json":
            "0b102b974843b9ea744d48196206ad5cbc01d60e64eb1ba887f2372ae77c6fae",
        "rr256-percolate-repair-7.el":
            "69970d029024bbe3e87cbe8a7bfe1a87158d30c94c7cb8203201d21495f0581e",
        "rr256-percolate-repair-7.json":
            "1cfec7944400632271105a2f4bd85c365bcd15b2454156744825cfc2605d03f4",
        "rr256.el":
            "16f97aa502f032da824e454d7d8900210ebb44e4fe112179db536abf5b5da9c2",
        "sl2_7-percolate-repair-8.el":
            "399859549d5f43321ef3aaee84c045988cf8932afd049c7cdddcfa19ed9aea8c",
        "sl2_7-percolate-repair-8.json":
            "c95d7c10f1dcb42d7a55284cb25a88416d13dced27abb3b3a823d88ebf129a93",
        "sl2_7.el":
            "dd59e22d83004b5fc46595cd400d65ee5ccb1b2b3b6c9e93f2d7c600c833704a",
        "sl2_7.el.labels":
            "c69e401cd9549c87a95f3f9860ac746cd68095e10d2aaa49900aae66da22c5e4",
    },
    "sentinels": {
        "c12.el":
            "cebcf76978fc31868a9ea4152fd7d1180e35d4ee1430855a030f54ba3e7cc696",
        "kept.el":
            "a3827a3d1c794f8d4dc68ebee203db9644478538929377ac88dafa76f4765266",
        "kept.json":
            "cd16dfc1094f90ba80454ae88df1e4e269ebcbe1086266c4fffd483a44a535e0",
        "path.el":
            "cc252c62e523674caf9a5568cc0de202665971ea1c16099317f38118f6a73496",
        "path.json":
            "bf8c0c3afe0016dbeadd13e4ec78c37f79afa42dd160b7c8e4c637eafe657334",
        "perc.csv":
            "245910ba8b6a0539823fa157f99b657d4581ce28e9365d9ec56adde09f155d03",
        "rr128.el":
            "3048106aad14570ff718e055f25520c8cf7e6a5608c9b2429436c4b7187865ea",
        "s.el":
            "cc252c62e523674caf9a5568cc0de202665971ea1c16099317f38118f6a73496",
        "s.json":
            "93f72acb9ec56ed73f4dd04f708420646b14e75ff5ab0bdb8017d26408713dee",
    },
    "spectrum-boundary": {
        "power1024.el":
            "7bebcf88169cc6a32f7fdec11a0adf64c2d083e2399ee35a7277a74eb322da00",
        "power1024.json":
            "e42af28a4de88a074c62f3129c056d715f7d8511663135515c1edea4259a5c4d",
        "rr1024-percolate-repair.el":
            "e390f09eb4fde119c156f9e809c5dc4572c2d7c9e8ececc9be92d3c906525a74",
        "rr1024-percolate-repair.json":
            "ea36b967f0b33986933d668f85fceb741590a084a75a37f2deb1c04fc4b0ccbd",
        "rr1024.el":
            "89c318be687c064a51da0e284553f0dd0c79ac00c037fa2ee8d730260042c2d8",
        "rr1024.json":
            "c5276da58de3d2062120936a7e391ff86962b7180df729f54509188a955c19c1",
        "rr600.el":
            "9122d57a47289b0f6d92b6c0195a0feca1dc8d071e34f80de59aefc30fcb217a",
        "rr600.json":
            "5052e3f019800d0e6dec9384eaadedaaec12c557761789d15f7a661d41a9c537",
        "sl2_11.el":
            "446cc1e3f992304ab237fa05e0faa83add5f33620efa835ffd5dc02b98e64f09",
        "sl2_11.el.labels":
            "8c0a47b1261925ecd277816cb994ff765bfe25a8545eb4a11615c0f5add29be4",
        "sl2_11.json":
            "6e1cd1f348b6a469e23733b0a0eefb43806e54f7213ce82789e5358d27fab425",
    },
    "sweep-measure": {
        "rr128.el":
            "3048106aad14570ff718e055f25520c8cf7e6a5608c9b2429436c4b7187865ea",
        "rr128.json":
            "3a84b7f1628b07cdf67ec26a8883aeb0964c1ac2c526bfbccdf70f34485e3a21",
        "rr16.el":
            "e3ffd67b88c5fdc485ae8a937ab384f863dcf82cc2390fcd253af24a6aa14221",
        "rr16.json":
            "9af95ee1b1f795d308e939ee345cb87f932da2924d7c4444ca0a553813e5a9d1",
        "sweep.csv":
            "ad8a88bda93f20417880066f79fe8d8281eedb9a72c17d865bd383bfecdff22b",
    },
    "sweep-order": {
        "rr128.el":
            "3048106aad14570ff718e055f25520c8cf7e6a5608c9b2429436c4b7187865ea",
        "sweep.csv":
            "ba35b5820df1f06c809eb77a2d50ca0692d5199ed64fd79161caf1c633f536f3",
    },
    "tower": {
        "tower.csv":
            "be043f9778b585b1dca4c1b733ffb30294cb54f78a7bb04428fe09d14b591546",
    },
    "trim": {
        "rr64.el":
            "d2a522450b427f9c78cb95f7208d8f2c58958d8c0b01a269695926db18190e4c",
        "trimmed.el":
            "2d1124f88e2d3fa540b87b63d366f1f03106a2bb0eccd642b75b9e1c0fa284d5",
    },
    "trim-large": {
        "power256-trim6.el":
            "dd8479b680147d2d1b6cb24d32a3198b717b18cf4b9f6d60d8a63531f8f638d8",
        "power256.el":
            "c9bc67ee87191fca6292ea75299d83fa49de4b8b815fdeee85033b8c92e3b07b",
        "rr1024-trim8.el":
            "cf9d6b97c7f0ed0ed2f9780e8f8d9176bc001f8d40aa3a9139fee207f6bdde51",
        "rr1024.el":
            "89c318be687c064a51da0e284553f0dd0c79ac00c037fa2ee8d730260042c2d8",
    },
}


def output_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under `root` except manifests, by relative path."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and not p.name.endswith("manifest.json")
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output_hashes(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in CASES[case]:
        assert cli.main(argv) == 0, argv
    assert output_digests(tmp_path) == GOLDEN[case]
