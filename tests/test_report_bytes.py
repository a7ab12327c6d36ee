"""Report bytes pinned by digest.

Each case runs ``cli.main`` in process, in a directory that holds copies of
``tests/data`` and small seeded tables, and hashes its exit code, standard
error, warnings and standard output with SHA-256.  The cases cover every
table class on every route, ``--table``, custom events, zero evidence,
``--config``, ``--verify``, ``--help`` and the error exits.  ``DIGESTS`` was recorded
before the report cells were built in one pass per assumption level, so a
change to any report byte fails here.  ``error-csv-empty-arm`` was recorded
when the refusal began to name the file, ``error-json-string-counts``
when a JSON count's value refusal lost the ``bad counts layout:`` prefix,
``error-csv-extra-field`` when a CSV line with a fourth field began to
be refused (before, its first three loaded), and ``error-csv-not-utf8`` and
``error-config-not-utf8`` when an input file that is not UTF-8 began to
exit 2 naming the file (before, it raised ``UnicodeDecodeError``).
``verify-9-levels`` was recorded on code that evaluates each event over the
whole batch at once; evaluating it per group of draws moves two of its
``max_violation`` figures by 2.8e-17.  ``verify``, ``verify-vacuous`` and
``verify-9-levels`` were recorded again when every ``--verify`` entry became
an object that starts with its status; every figure in them stayed the
same.  ``lalonde-table-mono``, ``lalonde-table-repeats`` and
``lalonde-table-verify`` were recorded before ``render_table`` became one
pass over the cells.  ``verify-zero-level``, ``verify-strata``, the four
``error-route-*`` cases and ``help`` were recorded before ``--verify`` ran
inside the report's pass over each assumption level.  The eight cases from
``error-route-none`` to ``strata-unread-exp`` were recorded before the flag
checks and the loader took the routes in one order.  The reports print floats to the last
bit, so a numpy build whose sums or dot products round differently moves
the digests too, and ``help`` moves with the Python version's argparse.

Print the digests of the code on ``sys.path``:

    PYTHONPATH=src python tests/test_report_bytes.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

from pnbounds.cli import main

DATA = Path(__file__).parent / "data"
LEVELS = (3, 4, 5, 6, 7, 8)
CLASSES = ("staircase", "lowertri", "inconsistent", "zerolevel")


def _class_counts(rng: np.random.Generator, cls: str, levels: int) -> np.ndarray:
    """Integer joint counts (rows treated, columns control) of one class; a
    zero-level table empties one treated level of a staircase joint."""
    k, l = np.indices((levels, levels))
    mask = {
        "staircase": (k == l) | (k == l + 1),
        "zerolevel": (k == l) | (k == l + 1),
        "lowertri": k >= l,
        "inconsistent": k <= l,
    }[cls]
    q = rng.integers(0, 20, (levels, levels)) * mask
    q[np.diag_indices(levels)] += 1
    if cls == "zerolevel":
        q[int(rng.integers(1, levels))] = 0
    return q


def _text(name: str, text: str, encoding: str | None = None) -> str:
    Path(name).write_text(text, encoding=encoding)
    return name


def _write(name: str, payload) -> str:
    return _text(name, json.dumps(payload))


def _csv(name: str, counts) -> str:
    lines = [f"{z},{y},{c}\n" for z, row in enumerate(counts) for y, c in enumerate(row)]
    return _text(name, "z,y,count\n" + "".join(lines))


def cases() -> dict[str, list[str]]:
    """Write the inputs into the working directory; returns argv by case name."""
    for path in DATA.iterdir():
        shutil.copy(path, path.name)
    exp, obs = "lalonde_experimental.csv", "lalonde_observational.csv"
    lalonde = ["--exp", exp, "--obs", obs]
    argvs = {
        "lalonde": lalonde + ["--all-canonical"],
        "lalonde-table": lalonde + ["--all-canonical", "--table"],
        # one assumption level: the other levels' rows are left out
        "lalonde-table-mono": lalonde + ["--all-canonical", "--assume", "mono", "--table"],
        # repeated events and evidence levels: each column and row once, first seen first
        "lalonde-table-repeats": lalonde + ["--event", "eq:1", "--event", "eq:1", "--event",
                                            "lt:2", "--evidence", "2", "--evidence", "1",
                                            "--evidence", "2", "--table"],
        "lalonde-table-verify": lalonde + ["--all-canonical", "--assume", "incr", "--table",
                                           "--verify", "--samples", "50"],
        "lalonde-json": ["--exp", "lalonde_experimental.json",
                         "--obs", "lalonde_observational.json", "--all-canonical"],
        "strata": ["--route", "unconfounded", "--strata", "strata_example.json",
                   "--all-canonical"],
        "strata-table": ["--route", "unconfounded", "--strata", "strata_example.json",
                         "--all-canonical", "--table"],
        "pc": ["--mode", "pc", "--exp", exp, "--all-canonical"],
        "pc-table": ["--mode", "pc", "--exp", exp, "--all-canonical", "--table"],
        "custom": lalonde + ["--event", "custom:101", "--event", "custom:011", "--event",
                             "custom:000", "--event", "eq:2", "--evidence", "2",
                             "--evidence", "0", "--evidence", "1"],
        "verify": lalonde + ["--all-canonical", "--verify", "--samples", "200", "--seed", "3"],
        "verify-vacuous": ["--mode", "pc", "--exp", _write("vacuous.json", {
            "counts": [[10, 10, 80], [80, 10, 10]]}), "--assume", "mono", "--all-canonical",
            "--verify", "--samples", "200"],
        "config": ["--config", _write("cfg.json", {
            "exp": exp, "obs": obs, "events": ["eq:0", "custom:101"], "evidence": [1, 2],
            "assume": "mono"})],
        "config-override": ["--config", "cfg.json", "--assume", "all", "--table"],
        "error-no-events": lalonde,
        "error-event-kind": lalonde + ["--event", "bogus:1"],
        "error-custom-bits": lalonde + ["--event", "custom:2x"],
        "error-event-level": lalonde + ["--event", "eq:9", "--evidence", "1"],
        "error-evidence": lalonde + ["--event", "noteq:2", "--evidence", "9"],
        "error-samples": lalonde + ["--all-canonical", "--samples", "0"],
        "error-config-key": ["--config", _write("badcfg.json", {"bogus": 1})],
        "error-missing-file": ["--exp", "nope.csv", "--obs", obs, "--all-canonical"],
        "error-csv-header": ["--exp", _text("header.csv", "a,b,c\n0,0,1\n"), "--obs", obs,
                             "--all-canonical"],
        "error-csv-level": ["--mode", "pc", "--exp", _text(
            "level.csv", "z,y,count\n0,0,1\n0,1000,3\n1,0,4\n1,1,5\n"), "--all-canonical"],
        "error-csv-extra-field": ["--mode", "pc", "--exp", _text(
            "extra.csv", "z,y,count\n1,0,5,99\n1,1,5\n0,0,3\n0,1,4\n"), "--all-canonical"],
        "error-incompatible": ["--exp", _csv("inc_exp.csv", [[1, 99], [50, 50]]),
                               "--obs", _csv("inc_obs.csv", [[80, 20], [10, 90]]),
                               "--all-canonical"],
        "error-csv-empty-arm": ["--mode", "pc", "--exp", _csv("empty_arm.csv", [[0, 0], [3, 4]]),
                                "--all-canonical"],
        # input files that are not UTF-8
        "error-csv-not-utf8": ["--mode", "pc", "--exp", _text(
            "latin1.csv", "z,y,count\n0,0,3\n0,1,4\n1,0,5\n1,1,6\n# café\n", "latin-1"),
            "--all-canonical"],
        "error-config-not-utf8": ["--config", _text("latin1_cfg.json", '{"exp": "café.csv"}',
                                                    "latin-1")],
        "error-json-string-counts": ["--mode", "pc", "--exp", _write(
            "string_counts.json", {"counts": [["3", "4"], ["5", "6"]]}), "--all-canonical"],
        # the four route refusals of the flag checks
        "error-route-experimental": ["--exp", exp, "--all-canonical"],
        "error-route-pc-exp": ["--mode", "pc", "--all-canonical"],
        "error-route-unconfounded-strata": ["--route", "unconfounded", "--all-canonical"],
        "error-route-pc-unconfounded": ["--mode", "pc", "--exp", exp, "--route", "unconfounded",
                                        "--all-canonical"],
        # which route refusal wins, and which file is read first
        "error-route-none": ["--all-canonical"],
        "error-route-obs-only": ["--obs", obs, "--all-canonical"],
        "error-route-pc-obs-only": ["--mode", "pc", "--obs", obs, "--all-canonical"],
        "error-route-pc-unconfounded-no-exp": ["--mode", "pc", "--route", "unconfounded",
                                               "--all-canonical"],
        "error-route-unconfounded-exp-obs": ["--route", "unconfounded", "--exp", exp,
                                             "--obs", obs, "--all-canonical"],
        "error-exp-before-obs": ["--exp", "nope_exp.csv", "--obs", "nope_obs.csv",
                                 "--all-canonical"],
        # a table flag that its route does not read: the digests of pc and strata
        "pc-unread-obs": ["--mode", "pc", "--exp", exp, "--obs", "nope_obs.csv",
                          "--all-canonical"],
        "strata-unread-exp": ["--route", "unconfounded", "--strata", "strata_example.json",
                              "--exp", "nope_exp.csv", "--all-canonical"],
        "help": ["--help"],
        # a refused incr level (lp_cross_check: infeasible) beside verified levels
        "verify-strata": ["--route", "unconfounded", "--strata", "strata_example.json",
                          "--all-canonical", "--verify", "--samples", "200"],
    }
    rng = np.random.default_rng(20)
    for levels in LEVELS:
        for cls in CLASSES:
            q = _class_counts(rng, cls, levels)
            treated, control = q.sum(axis=1).tolist(), q.sum(axis=0).tolist()
            other = rng.integers(1, 30, levels)
            name = f"{cls}{levels}"
            routes = {
                "exp": ["--exp", _csv(f"{name}.exp.csv", [(control + other).tolist(), treated]),
                        "--obs", _write(f"{name}.obs.json", {"counts": [other.tolist(), treated]})],
                "strata": ["--route", "unconfounded", "--strata", _write(f"{name}.strata.json", [
                    {"id": "a", "counts": [control, treated]},
                    {"id": "b", "counts": [other.tolist(), (other[::-1] + 1).tolist()]}])],
                "pc": ["--mode", "pc", "--exp", _write(f"{name}.pc.json",
                                                       {"counts": [control, treated]})],
            }
            bits = "".join(map(str, rng.integers(0, 2, levels)))
            for route, argv in routes.items():
                argvs[f"{name}-{route}"] = argv + ["--all-canonical"]
            argvs[f"{name}-table"] = routes["pc"] + ["--all-canonical", "--table"]
            argvs[f"{name}-custom"] = routes["exp"] + [
                "--event", f"custom:{bits}", "--event", "lt:1", "--evidence", "0",
                "--evidence", str(levels - 1), "--evidence", "1"]
    # --verify at J = 9, where a product over part of a batch's draws can
    # round differently from one over the whole batch
    q = _class_counts(np.random.default_rng(7), "staircase", 9)
    argvs["verify-9-levels"] = ["--mode", "pc", "--exp", _write("verify9.json", {
        "counts": [q.sum(axis=0).tolist(), q.sum(axis=1).tolist()]}), "--all-canonical",
        "--verify", "--samples", "500"]
    # zero-evidence rows refused inside verified levels
    argvs["verify-zero-level"] = ["--mode", "pc", "--exp", "zerolevel4.pc.json",
                                  "--all-canonical", "--verify", "--samples", "200"]
    return argvs


def digest(argv: list[str]) -> str:
    """The digest of one run; ``COLUMNS`` is fixed, since argparse wraps its
    help to the terminal width."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    record = f"{code}\n{err.getvalue()}\n{[str(w.message) for w in caught]}\n{out.getvalue()}"
    return hashlib.sha256(record.encode()).hexdigest()


def test_report_bytes_equal_the_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    found = {name: digest(argv) for name, argv in cases().items()}
    assert sorted(found) == sorted(DIGESTS)
    assert [name for name in DIGESTS if found[name] != DIGESTS[name]] == []


DIGESTS: dict[str, str] = {
    'lalonde': '2169c30dbf7f7f220407a2cbee2d9590f47973eb5e12459b9d1f5e1f00207284',
    'lalonde-table': 'e8da252c19ec23c013ffab8b21e88c687f8b96d2d7b66bce5d3b507303402a37',
    'lalonde-table-mono': '6104d4e0998d6e523369cc7b83feb278975f11ea162813fa26388f44914a7fc6',
    'lalonde-table-repeats': '1c85ab6f6ac84f80d6548f19c6a6b1cea70e041796aa8e1b6f2326b5d9d36bbb',
    'lalonde-table-verify': '9b010d76e7d78ebffa0c01e3dc76ad440203112cf85936f4847be93934a35070',
    'lalonde-json': '2169c30dbf7f7f220407a2cbee2d9590f47973eb5e12459b9d1f5e1f00207284',
    'strata': '234ce23a2d34b3ffcf020fa8ad35f5e0474eea824c71c29e9c07893f679a7051',
    'strata-table': '2c2f2195d8123d845a5ff7ea89deae452147613e99b38e8691fe6400ca24fec8',
    'pc': 'c80707a904b41b4e6382bcc0aaa498e4efe91e46ddb2f7364b254647aeb1939a',
    'pc-table': 'a4cd67c1194755a5962f4bab762e1cdaec4f43bed2a6c30ff3d0dc7754b77f73',
    'custom': '07150a183167a7f028b9cc288cf56597dfe5189eacf45e7023989e1bd3a1f45c',
    'verify': '1849771fdc436e43aca894aa2ff7d468152d9e8f1ef3609a6fe1d5f6ec77346d',
    'verify-vacuous': '8526e86b1ff213fe05a4167ee9b9ab72e97b3beb1a67f2f7840e0bc41d5736d5',
    'verify-9-levels': 'a17a5031762a5ca9d8f20f146ee0882ebc1b0a11f63baa9add778f9144783a60',
    'config': '2d7a4ed102e5eb6b9e184fbf845126fe96f1dbc136aa6b9f7ccc47efb1b93959',
    'config-override': '2a859e9a25e7411833f2e2e3171a1afc1776601c594d5cacc235504ac548e104',
    'error-no-events': 'cac7d0ce579846ddf73ab5e1ef1c2b8a7bfbbdebfc165956e2e5bf389d53904e',
    'error-event-kind': 'b696115def217adc1ae372e9c5121917b0a9e03162b28e2e81d0b24e6eff8c8f',
    'error-custom-bits': '2c67b71c00c1a47640362a3307ef30fb4fa617772c37002e53e287449ba04a57',
    'error-event-level': '01d2c25b059ec592048156f540b900357f190fd5f7188ae5f7e7513eb3ebbf57',
    'error-evidence': '951e3d0b956bf529335bd9f5b3d1bde0c8fb1b06f193f324e46600f94d1e4810',
    'error-samples': '617ee04899369046fe72a00c5b9d5a2f6c407f92683d2b608454b52dd0e5021c',
    'error-config-key': '4d85d90c7a8fefde10b54a91ee4adf750c23c6a9d07d9c5d1e9600d0c9775176',
    'error-missing-file': 'cc09931a10b5fb51992a14d67cfc7f34a1893ade64af6347e859e43e79c7d811',
    'error-csv-header': 'bbaeb963293bbd45fbe5f19e772c2a8835b4056b7c5a355be16551492c4b5073',
    'error-csv-level': 'ec3c69309006c0511b3bc973aa8d18fedfca50fac1409d4eaa6c34f2ee58837e',
    'error-csv-extra-field': '07c0f8828bcf222abe82b54d14f7bb25c20398cb5d236b102a10dc52870233c6',
    'error-incompatible': '237ffc04466fe823932122d9a2b6cea0e12597a547b6e188c338fef981853881',
    'error-csv-empty-arm': '1fbdb730a7fb3916bf90b3b33d57b1eb633b53ff31d87b9cce4a0879cf41e046',
    'error-csv-not-utf8': '0475c8fcced622916f58542b67f70c71421168f3dbe559873ee802f3c03ce8a8',
    'error-config-not-utf8': '3d4c416b3605d6c4887a88e3186dfd525bc22120cdd700011d6b3842a294e140',
    'error-json-string-counts': 'e70eaf872b0e3e4062bf8ec76ebd254e11de3cda2a6b869deed13df86bebe0ee',
    'error-route-experimental': '2adf3522322e5054291cecc9c95925c655454ee6480462c68c77fd0edb589c68',
    'error-route-pc-exp': '1b5bc3f33446c38d90544f6d78847af85ee610d149af68f4e1128fb869d86e2d',
    'error-route-unconfounded-strata': '2336aebf667bca85f53f8fa2cc948f8f59e5a4f4b7e56a10a0190a35f4bb9c36',
    'error-route-pc-unconfounded': 'c6695d85762924b003d73d20193cb3f736c3058c79595e9afa6853f8a54efd15',
    'error-route-none': '2adf3522322e5054291cecc9c95925c655454ee6480462c68c77fd0edb589c68',
    'error-route-obs-only': '2adf3522322e5054291cecc9c95925c655454ee6480462c68c77fd0edb589c68',
    'error-route-pc-obs-only': '1b5bc3f33446c38d90544f6d78847af85ee610d149af68f4e1128fb869d86e2d',
    'error-route-pc-unconfounded-no-exp': 'c6695d85762924b003d73d20193cb3f736c3058c79595e9afa6853f8a54efd15',
    'error-route-unconfounded-exp-obs': '2336aebf667bca85f53f8fa2cc948f8f59e5a4f4b7e56a10a0190a35f4bb9c36',
    'error-exp-before-obs': '18d4e8818542429f188912b2fbebc63f60ae5ce38afd42781cd2a27df9a9f441',
    'pc-unread-obs': 'c80707a904b41b4e6382bcc0aaa498e4efe91e46ddb2f7364b254647aeb1939a',
    'strata-unread-exp': '234ce23a2d34b3ffcf020fa8ad35f5e0474eea824c71c29e9c07893f679a7051',
    'help': '64db251cd474f8aa7a713e79e72f688e41c4c64e2de78afee6418a666b9d0bc9',
    'verify-strata': '4dacb09241c026cee97ef154233328bfd734338e63b4f61ab97f11924fbaedc5',
    'staircase3-exp': '7603897dc752b3a9d9995af67defd8d494e41dbf7f23a9cdcea61ce2c07800f3',
    'staircase3-strata': '6d5f7d50de28b1ba3f8ebbb53a95a6773b4ff0e4f2e950d92be0f11df8dbb88e',
    'staircase3-pc': 'e60f2ad097dc5bb25c540a2f4b334ea0591151abbc25b9d651280038a3e92192',
    'staircase3-table': '2a64be7a97385307d07d345dcce8b5a83e277ee6d63aa99bd32678cc70da4b02',
    'staircase3-custom': '0a10c7fb8bc4cd1bb2170d4f3c4ed1252cd8bb85f19681dc6226e9d4de1002aa',
    'lowertri3-exp': '0822f38baf2cf15d2c24598af381a68b29f8a5a2cf210522eef1415332e5cb0d',
    'lowertri3-strata': 'aa1ff39d2d3d530cec75e545208dccf97662c59901ee2cb09766111a5b9c9b32',
    'lowertri3-pc': '5d9cd83780537a1bd9903bf23240eb033e33a3ecea92b0cb8dc615cc1912ab79',
    'lowertri3-table': 'd6f5da018c2ac8ff6a0a233932221d98954e1fced1e7c7d49f505620e71eec37',
    'lowertri3-custom': '8324770901e94456687b6db802280079e56f3b8262196beab34aa9fb3ba8e33e',
    'inconsistent3-exp': '52e7e873e7047b37564518cad161fffe940580d0d988db9ba9ab8c981825a6d5',
    'inconsistent3-strata': '0d09e175dcce3116744531e78bee50dd084af3ca39da883d22a2c920d8893528',
    'inconsistent3-pc': 'b2a4dff95900a62f7fa982bffe9e60338881c17ac224225c88aa677443da7e4f',
    'inconsistent3-table': '9ecab6604176b6336878aac77fd61fa8d27b6a4d930f51f1ed38380b42e54b63',
    'inconsistent3-custom': 'e6239bc6cbf28faf7a27da73f0696a842fe8ecc247301b3e928f070e4579c55f',
    'zerolevel3-exp': 'a7b265a5279bc63b732e7d31a897e2e4c3f9c7fa5e26f656df5a4da94d32ce52',
    'zerolevel3-strata': 'd6e279acb94356b9941da2e9cd5b876256b1a6e16d49f1686af05dddeab57865',
    'zerolevel3-pc': '6d28542aec33142a9748333bf1e5f0915bcdbd05f9f67f96cd0a02daf6cc1b65',
    'zerolevel3-table': '6603a4356da0dd082b6531ecbe6d9f42d6f9b58ba09a2421d97c81ba1a7dd82f',
    'zerolevel3-custom': '940b4cb69672f96feba8d7d327bf1996b3cb52546af620440d51d1d1d8266a1d',
    'staircase4-exp': '12bf73ce6d0a9754cefaf5be6d5a32d0be2f33ad48fb6e76e088932577ee9129',
    'staircase4-strata': 'b89f6e5ce325f3f7e1bfc50bbbe33835dc30c37b2c7fa2a7c0d528bb65f81604',
    'staircase4-pc': '49f972208bf538b7bddae9c708d6fd037bc3c49971bb3ecb8fa0d2bb77c4f1c5',
    'staircase4-table': '1f7b5a0abbfab605e185676858b574f609a65cf086998b1d235ac64491020074',
    'staircase4-custom': '902d61f01f05b6fb13a2340e6e1af05f67986347d8b55624dabea940bc4e49b7',
    'lowertri4-exp': '9785bc1402bffcb5abe2e9d99bcb5d6a8c09eaf615ea64cdc6d6dc8f5f27266d',
    'lowertri4-strata': '689355c847a1e41096832a0db6436be8e04f69d465be6744827db5163c72044b',
    'lowertri4-pc': '50b80e2f4c7e7952febf5096f6b32dd8f3368844787ab58519d9508e2efb0625',
    'lowertri4-table': 'cc3b40cebf03075de2a47727e5c1e1de323a3fbc0b634ae37a073c59257e7c21',
    'lowertri4-custom': '3bbdabd64af46649468d71ee7a6a38661d503df655cb168c2eb67289a7a377b4',
    'inconsistent4-exp': '563504f526cfa830b41302b17575d6b74fa5512cbf692210b78b74bea80a3c06',
    'inconsistent4-strata': '3ad9c978ea360f44131e377c41bb25435975497ef10a07f18d25e50ba2aa82db',
    'inconsistent4-pc': '36dba4b2054246725621e002e37f5f1169c8ab5474293d92606e3f370b1b4fa3',
    'inconsistent4-table': '0b3c5781d5c5438841bf701d9eb7a479c632e5e41cc0775f6a2f7429019df5f2',
    'inconsistent4-custom': '32fbb0fc22427dc5255de7f38a83fca08d1b3acfe3f7ebfe7074425147fcdd9d',
    'zerolevel4-exp': '3779fe609d5255ec89082d09859807baf8bf32a0278096341d1f73083683f21f',
    'zerolevel4-strata': '5efc1190375e64522352d5c0c95017d5e7302d9d2e1688d3c1b50f91beb0ede5',
    'zerolevel4-pc': 'e701a20b6381e3ea573d5548bd5bcd8d2bd0119a7859624b7ab0ccdc7ee36663',
    'zerolevel4-table': '5aae6bc308e4290766f238810f79ea51b8973b77a8bd89b07667802a39e60251',
    'zerolevel4-custom': '1c028d7f2b884e82726174a494340b85466afc929d7e1a9f63bdb504d22bd824',
    'staircase5-exp': '2fcc9209e1dcca55ac1c421260318ce0d9762f5b041da5817ec12e08462bd401',
    'staircase5-strata': 'c177062bb21fd4557e3b13c9b28dd1a8677251a190c72542d56d41d7dac2d394',
    'staircase5-pc': '8745304083ed665609ad9ff6fd30170a0198272f734faf9f269a4080a73b260b',
    'staircase5-table': 'b09abc7af90d94f1ae08f9842f80f040a3adb579e326187bc7afe6596bcbdff7',
    'staircase5-custom': 'de90f75c1002953f6ca226c00d141850829c10bd1a9af09b5ba3a2abc9ad9271',
    'lowertri5-exp': 'd448e0092332f830fd347783eca71510c924797266a8826372eef8ce3a0c0427',
    'lowertri5-strata': '3b5f683b9ee0e91b98937c6083dc5ae442ec6f8bf11cfd870a9ac44e4025fd14',
    'lowertri5-pc': 'fe3293d4f3bc97174e55cec7f37d6424801ade4b1be9c8f78cb289290b0c3139',
    'lowertri5-table': 'ceef6fd91eedeb8fa7a0d8c3115836aef013be0924114447931139b685370607',
    'lowertri5-custom': '7f1b6c1f2ab6d0eb50ee3356d97d2dd2f82a39776f6ce44cbfa62c5f97045b42',
    'inconsistent5-exp': 'dc12eacd8252b05ae2f23a809ce180e8afcf9bcb145196b32248e47ab87e7714',
    'inconsistent5-strata': 'b8073d7ead91ad10baf02945eade1772367c0b83950fc6d10b6c6182463ab7ca',
    'inconsistent5-pc': 'a95ce57f99453a2b2218d149e786648b718eaa61adba9d0f9d6f3bdee3dad625',
    'inconsistent5-table': '18af6b61169835bf999dc4d88dd92a61136734b04f8510166d7ec1c3a0271609',
    'inconsistent5-custom': '9f08554e53152fdd283c6b74e0b8032c66bed26be3f10e106bdb74c6b99eb1b8',
    'zerolevel5-exp': 'c4a1213b8e43c205b7cfbc3bd76a99a69898f4bb06d37ebf96b26e3c71bf68e2',
    'zerolevel5-strata': '6dd584b1188b1ecf46c9fb612221ab5db50ce7a9e1b1d4bbe33282f0d543858a',
    'zerolevel5-pc': 'd5eb3adf3d83ef84d6e2ea960405775da246047d6f33d3ca567234ee3bdaefb1',
    'zerolevel5-table': 'a51bd4ad828af52847c4820237dd4a10a2c7df9824d892bf42ec67c45b9200e3',
    'zerolevel5-custom': '83966549f3bd78429406c78ddff60275bad3206b1436a9b002a7d57a7b48c01c',
    'staircase6-exp': 'cd06b1dda6eb5dd9c59cff386a71fc7a1629182d3d95bfce6324f1c8efe71f9f',
    'staircase6-strata': 'ae2c7e4d000ea73d11ed5afb2702a19810e8f8f8fcce10e7e2522e499767ed0b',
    'staircase6-pc': 'ecec68acc1d2f69744cc35a777f4390b45994e545a5d4cdb7aa3ca39441e6dad',
    'staircase6-table': 'c185b399ac38299aa0ac066c60c8634cbda3a66b14322b379a67fdd035386828',
    'staircase6-custom': 'b38355611eb40fc3d9cbc8ae52172463d84416626eaa4a5392ea040c547d8ee4',
    'lowertri6-exp': '024fba4784920b89bcc7e01414eeb8afb0db171564b1cf16b08fb0b733c565a6',
    'lowertri6-strata': '45919ee97829922fc563390903969de9224505655d811b37c5499bc761fa4bb4',
    'lowertri6-pc': '161c8a4b30c4171ab2e7c31e31bafb8f24ab0901db47f0d7b1049609a32dff1c',
    'lowertri6-table': '3bc9fb6539924378b5a78ccadc9c110533bef0cf9942d044e4e5dadcff738968',
    'lowertri6-custom': 'f46d9eb869c4e0fe96ab218a6042dd757bef06523382cd4c1f84e772185aa01f',
    'inconsistent6-exp': 'b9a9ae34ed592a8df51f4842e9318f53f2646086ce799c0b30b692472b657e49',
    'inconsistent6-strata': 'eaf6fd4a04747fa9876d3c39067d8d85ef9d39001e906cb8c4d8ec90ff6aad1a',
    'inconsistent6-pc': '245cdc37061fb707d452e338e491ef23d786af426e9c748edda265421791f415',
    'inconsistent6-table': '10b3c56a178787f5e6fc770dfb2bb4e329e2b1ef84e9dcdf5b34ed6b11b1423a',
    'inconsistent6-custom': 'ede7adcbbaab6b84ef9ded0e20d9e4e5e5f6d0aa96bb32e7a535933ab2c08242',
    'zerolevel6-exp': 'ede57b67928665fe90e5645ec898b9fe183e473fbfc22da5e63cbfd369f12ba5',
    'zerolevel6-strata': '6d9fd71da3982c1b0fbfc38db5b5d083f1ad4392514845fd59e3b7110bd62682',
    'zerolevel6-pc': '44bd53d3cd5842b3dff5b9a1c6fdfdccfbe0432c04e561dd1146489650fc50ec',
    'zerolevel6-table': '42489ff6b7a261c7eff63257fefa9def1fed95a4311ecb346bb5b413780a49b9',
    'zerolevel6-custom': '7b122ad5233ef16f4bab920be5e5108aeffe771fbd52c7cec56959bc70049f9a',
    'staircase7-exp': '48736657c25ae583e288548ade683b6eb0020c51e29f0bbf3581053b1e6882a3',
    'staircase7-strata': '01b896249aaf8f26c026b45eb8c62f8807be3a312694816382ab7fa9fc519492',
    'staircase7-pc': '190a4dbaae911b6e55cdc604fc7605a1ce5f81fd3ba2227694f949aab4e20124',
    'staircase7-table': 'bedb6c3b8881e34d25e2e500f021a14a7035ca55444c6d80042d8f4cd1fe67eb',
    'staircase7-custom': '6ee829f5497cefd25c7d52d540fcf40f21787fdd87c5b8a084cd7ae08deb43fb',
    'lowertri7-exp': '8a61567e415bb4bfff5b4155596251f45815dad1f5890d091d2fd690ce25f237',
    'lowertri7-strata': 'a9249c4e9b4a7e75412da1fbffb85a5605152c61c45bd1e403496f6c3d5c28b2',
    'lowertri7-pc': 'e528f6538dc8e68ae0370a7f73ec09e7281850d76beca630e834b79aa2541743',
    'lowertri7-table': 'c23531bfd3371ae165ceff435966f0b46238e8b21d7a44bf3746c426c3490466',
    'lowertri7-custom': '899df91f1920be168012d1f336c44c36078e685000b34bafff0f9351394dc9f4',
    'inconsistent7-exp': '8dda228fc32449b05b052d01d7d889223c25fd0d9e9fb8ac20770610c9b017f1',
    'inconsistent7-strata': 'aa23a10705a9d1d8abcfc61272faf4fd4f0069e4b8fa0d137fbff2083e4f2a00',
    'inconsistent7-pc': '09f5209abf50efca7d886e408db8a0ac33a1d365804eeec2f9ee1f3035eaddee',
    'inconsistent7-table': '3a269446ac6f753401c8d5c36fbd95b190399f283fb0d50b7f52072835d80789',
    'inconsistent7-custom': '823b4e725fb85bda3d97e2ddeaa52448d72d706e89bff16c06ae943654331bc9',
    'zerolevel7-exp': '53f9c0ebeddf07628e19d30301b71332c5e8766298c83fafb1a62930d15d95d3',
    'zerolevel7-strata': 'e951c66c59531007bb5dd6c3f9010105b2e9ed800c19b9fa30a5dd43e268bcff',
    'zerolevel7-pc': '735c222ccb7c16b92ea050a793245aa0e57f615c8fe59703e49947055272e289',
    'zerolevel7-table': '4643ab55fea1b9fdb66370030e1d9aa7ab8f60961dce4b405076aefc68affde3',
    'zerolevel7-custom': 'eccd964d6c5cf3739f8c58f891876fddefb358793a49bd549454217e4909274b',
    'staircase8-exp': '6f6e27f58dcb195abd2ff438aa3292e110f4842660e8a8c90a4d3cee1bae7589',
    'staircase8-strata': '405d5d4ae9b8cd94855f30a5c6ac6af0b7c10b964562243e50773de81caed0b7',
    'staircase8-pc': '58ec7701481aac4486b5febc8195d4621f35497c4d4c2116ce57ca5c38991f1c',
    'staircase8-table': '3708acb5c210660aadac8fcfca15d3efb4910a3b9c235e0152c222ebfd201607',
    'staircase8-custom': 'f2a052f9392fd4f4bae85388f8f44f4888b9514b604c3264d46dd5ac5a66d209',
    'lowertri8-exp': 'de6b477d4d3111dde1ecd23cba8087f66e570b12e5b77cd31d769d831ce3c783',
    'lowertri8-strata': 'bdcbaabeda9a32187735aeae608829d7f980043a5832217d5edab5d88baa0e55',
    'lowertri8-pc': '116fc23cae0034468a13938d4cec57eab3825c797120ef330e4d7aeda6ec747f',
    'lowertri8-table': '1282562f75fafdf6d6bc6da3e4c89ebfb7067a3b09e286a8678222a4c0568bd9',
    'lowertri8-custom': '5000fa3810d1e82bd2f63b7c6e175fdf19ab241b38175a1c2ecf1ac89310e60c',
    'inconsistent8-exp': 'c5f6073ddeecb1c1f4af28e790ee36a55e8b44dcc3e826f6e1385296244ecc9b',
    'inconsistent8-strata': '6fcc197b9e9092417b5d0d0c5e73264e4778f38a1a689a96dc58507b546e0397',
    'inconsistent8-pc': 'a6b827ede181c6fc7c67027cd9a96eab1ae29d5556771af16bd5f796f6eb55d9',
    'inconsistent8-table': '54558f42675a2f4a5e2d83e94d8341486e249af2ae33329af24052eba465c0f7',
    'inconsistent8-custom': '71b9bcf72153d65dd7c02c1aa31b3a28b84bae26c7e75f83f4a82c6f17e545da',
    'zerolevel8-exp': '4a9af2dba0426db8161e49c29943c9a078d86806e1e4c5e7696b7b7dabb236de',
    'zerolevel8-strata': 'd2b88daab9593534a6e29f0b73d3ede3fd0bcc8dafd85c1f660317f5dceffdba',
    'zerolevel8-pc': '3e2a44cb9257dccb26161caf3b4a7d541a2931eaefd3af04b22c0c5cf3fbb89e',
    'zerolevel8-table': '66349bdaba390b0d8c8490393ef03e63f88c19a02c63d806868c265bd64328a3',
    'zerolevel8-custom': '1ed78c64c1eb2c5118d5e99b75f1b611034b9941d091d6f7562be91ea490f558',
    'verify-zero-level': '9af1f3bf1d6a017cb3f301ceb559a3c077325ba11950aca7822ac0e431a3f35f',
}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        print("DIGESTS = {")
        for name, argv in cases().items():
            print(f"    {name!r}: {digest(argv)!r},")
        print("}")
