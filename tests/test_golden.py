"""Output bytes pinned across changes to the package.

Each case runs `cli.main` in-process and compares the sha256 of its exit
code and stdout with a digest recorded from an earlier version of the
package. `test_cli.py::test_verify_runs_are_byte_identical` shows that two
runs of one version agree; these digests show that a change kept the
bytes of the version before it. A change that alters output on purpose
records the new digests and says why in CHANGES.md.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from itertools import product

import pytest

from pencilforms import cli, serialize
from pencilforms.linalg import MatrixTuple

SUITE_TRIALS = {
    "flatness": 4,
    "theorem29": 6,
    "jacobi-classic": 6,
    "parity": 4,
    "theorem33": 1,
    "example35": 2,
    "tau": 2,
    "hyperplane": 2,
}


def gaussian_tuple() -> dict:
    """Four 3x3 matrices with seeded Gaussian-rational entries."""
    rng = random.Random(20130)
    mats = []
    for _ in range(4):
        rows = []
        for _ in range(3):
            row = []
            for _ in range(3):
                text = f"{rng.randint(-3, 3)}/{rng.choice((1, 2, 3))}"
                if rng.random() < 0.3:
                    text += rng.choice(("+", "-")) + rng.choice(
                        ("1", "1/2", "2/3")) + "*i"
                row.append(text)
            rows.append(row)
        mats.append(rows)
    return {"matrices": mats}


PENCILS = {
    "units": serialize.tuple_to_json(MatrixTuple.matrix_units(2)),
    "gaussian": gaussian_tuple(),
}


def dense_cochain() -> dict:
    """An arity-3 cochain on 3x3 matrices: about a tenth of the 729 keys,
    seeded Gaussian-rational coefficients, keys sharing prefixes."""
    rng = random.Random(20131)
    terms = []
    for key in product(product(range(3), repeat=2), repeat=3):
        if rng.random() < 0.1:
            text = f"{rng.randint(-4, 4)}/{rng.choice((1, 2, 3, 5))}"
            if rng.random() < 0.4:
                text += rng.choice(("+", "-")) + rng.choice(
                    ("1", "1/3", "2")) + "*i"
            terms.append({"pairs": [list(pair) for pair in key],
                          "coeff": text})
    return {"arity": 3, "k": 3, "terms": terms}


# A polynomial-matrix input: entries in the polynomial text form, with a
# parenthesized Gaussian coefficient, a bare i, a rational factor and
# powers; no "n", so the variable count is inferred from the names.
POLY_MATRIX = {"entries": [["z1^2+(1/2+i)*z2*z3", "2*z1*z2-i*z3^2"],
                           ["-z2^2+1/3*z1*z3", "z3^2+(2-1/2*i)*z1^2"]]}

# an argument naming the dense cochain file, written next to the input
DENSE_FILE = "dense:{dir}/cochain.json"


def text_and_json(case_id, argv, data=None):
    """The run as given and again with its JSON report on stdout."""
    as_json = argv[:1] + ["--json-out", "-"] + argv[1:]
    return [(case_id, argv, data), (case_id + "-json", as_json, data)]


def cases():
    """(case id, argv, input file contents or None) for every pinned run.

    A run with input data ends in "--input", and the file path follows.
    """
    out = []
    for suite, trials in SUITE_TRIALS.items():
        out += text_and_json(f"verify-{suite}", [
            "verify", "--suite", suite, "--seed", "1",
            "--trials", str(trials)])
    # the request of the verify-torus benchmark workload, at seed 1
    out += text_and_json("verify-torus", ["verify", "--suite", "torus",
                                          "--seed", "1"])
    for suffix, q, p in (("", 3, 1), ("-q1", 1, 0), ("-q8", 8, 6),
                         ("-q64", 64, 5)):
        out += text_and_json(
            "torus-cocycles" + suffix,
            ["torus", "--check", "cocycles", "--seed", "1", "--input"],
            {"mode": "exact", "q": q, "p_prime": p})
    out += text_and_json("torus-factorization", [
        "torus", "--check", "factorization", "--seed", "1", "--trials", "10"])
    for name, data in PENCILS.items():
        k = len(data["matrices"][0])
        out += text_and_json(f"spectrum-{name}", ["spectrum", "--input"],
                             data)
        for kind, flags in (
                ("mc", ["--kind", "mc"]),
                ("kappa-trace", ["--kind", "kappa"]),
                ("kappa-cyclic", ["--kind", "kappa", "--cochain",
                                  f"cyclic-random:2:{k}:5"]),
                ("trace-power", ["--kind", "trace-power"]),
                ("top-factor", ["--kind", "top-factor"])):
            out.append((f"form-{kind}-{name}", ["form"] + flags + ["--input"],
                        data))
        # arity-3 kappa of a dense cochain on k = 2, as in form-requests
        if k == 2:
            out.append((f"form-kappa-cyclic3-{name}", [
                "form", "--kind", "kappa", "--cochain", "cyclic-random:3:2:5",
                "--input"], data))
    out += text_and_json("spectrum-poly-matrix", ["spectrum", "--input"],
                         POLY_MATRIX)
    out += text_and_json("form-mc-poly-matrix",
                         ["form", "--kind", "mc", "--input"], POLY_MATRIX)
    out.append(("form-kappa-dense-gaussian", [
        "form", "--kind", "kappa", "--cochain", DENSE_FILE, "--input"],
        PENCILS["gaussian"]))
    return out


def run_digest(argv, data, tmp_path) -> str:
    if DENSE_FILE in argv:
        (tmp_path / "cochain.json").write_text(json.dumps(dense_cochain()))
        argv = [a.format(dir=tmp_path) if a == DENSE_FILE else a
                for a in argv]
    if data is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        argv = argv + [str(path)]
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    payload = f"{code}\n{buffer.getvalue()}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


DIGESTS = {
    "verify-flatness":
        "6216f43d50b8aef781010dc8c8bd83159b51536e06a53b6be65b9612691ed65b",
    "verify-flatness-json":
        "91f0e84e9ac937baf87d52feb7a091b2cd40c1cbf9437c0ed73ca29adea0017f",
    "verify-theorem29":
        "7b41a7e0aa5027e6f9ec85d8474ca1ca5636fe0437a67c4283f878259c1488c7",
    "verify-theorem29-json":
        "4010f708e172d20ca4db512b184245e115f57ad3f96edba492b08e854a66f8bf",
    "verify-jacobi-classic":
        "1fcf578351ebec723c450ceb9c3434c9f82946df47f1247e0dc9c3633db39fc1",
    "verify-jacobi-classic-json":
        "a547be1d28c352ef2690b08cc5311462c3c521fba0cd76f923925ba5129c716a",
    "verify-parity":
        "551f209c87870286a665015b2e9c497bc437af9f01280633fa761b06d4ce0d7c",
    "verify-parity-json":
        "96504c45ee9ad5afb5f716882eb3ac4d52dba15873a43fea51465c0d8fad9b09",
    "verify-theorem33":
        "d61be21272a50d61e418d9760aec0e78bec5b061bea9ae9b139f1457ba04ef88",
    "verify-theorem33-json":
        "97a914f94f9a1d0da37499995652d05b18a416c1cc1401d1952dd2825547b4ca",
    "verify-example35":
        "5c184d0fac4ebc0ed50d2b8f14a2a921e587108728f361a4ee22e3d342fd6aee",
    "verify-example35-json":
        "acb8190168975bef7e244da712547d426eeb3db9dd904706895651fd21b36a29",
    "verify-tau":
        "e597d8411d01a25ceaac692d0c70d8b43b7ae11beebe73e534602f8ebda4f383",
    "verify-tau-json":
        "88c01f8c8ad1de3a2f61be995928f6e4f4a1c741d54750369025636b082fd084",
    "verify-hyperplane":
        "75d16a2a4d57d38f4bc4ceb5c87f9c5a83ced3ca8f91c57288a035f6a1246577",
    "verify-hyperplane-json":
        "2222e6d47667aeb5d97961a2944345871950ae2ee957057bd43ce665a8ad8328",
    # recorded when the factorization lines checked the two equalities of
    # the truncated resolvent exactly on (1, U + V^-1, V + U^-1); the
    # cocycle lines are those of the degree grid, "on 280 monomial tuples"
    "verify-torus":
        "b733d8882e2aa94f5f40994802f8a3e8f59d5b60f8aff2a8a65cf59e4ab04c0f",
    "verify-torus-json":
        "00cddc7269c0c09bb7ad41cfb4832e8012a77629249097277e6fdffff13bb24b",
    "torus-cocycles":
        "e1d71b4f9d01ea991fb6fc93624ee107c058d95146143b6b404979e1306bfebf",
    "torus-cocycles-json":
        "978d17bc3fb1b54ca6c36e39bacb59e88a4857615142395cd96432528273513d",
    "torus-cocycles-q1":
        "8dca00ec5a5ab0fcab1549f5e5c62628f4fa5f9668fc0697ceca63b61d0483e1",
    "torus-cocycles-q1-json":
        "7366cb055367842db4fb63b974cd4e44b04c4d90d98571bea261bb533f179f0d",
    "torus-cocycles-q8":
        "b5d91decbb8758fa448a13c80dd1e0d284c508342f91fa32e2efb0f49a833229",
    "torus-cocycles-q8-json":
        "cff4350a59c4fe65e7a38cbc4511b740026b0566c09dfec807b03530c8827e80",
    "torus-cocycles-q64":
        "83f7afcdded70e199cc35e8d1cd632a1cdc59d131058e6ec109a761f4ff0fc68",
    "torus-cocycles-q64-json":
        "452340b0fa9c5ca04dc33eec542c8d3f9dfe0356832fefc813a95c2c4166d481",
    # recorded when the factorization lines judged each residual of the
    # two equalities at M = 2 on (1, U + V^-1, V + U^-1) against its own
    # rounding bound gamma_155 K, in place of a tolerance, and named the
    # largest bound
    "torus-factorization":
        "e9bf95863f4758ca5f9e1d2c8d3d0a1e5f068850d0660b91e3b0700d40deb9c9",
    "torus-factorization-json":
        "8721e84afe2710b49b22342cbbb72d99cd4be63ddffc1f7da4017cf032448a9c",
    "spectrum-units":
        "702915ce13aa8d5359a8537572448a231c7ed483330d2e8240efdc8cdee88f96",
    "spectrum-units-json":
        "e6db6244b65db7ea7d361441bec44b20eb17cbe049559ac35dd38c5c9714ad93",
    "form-mc-units":
        "f5c31dcb5571f24acc87d7c45519c0b02d52885f26553fd22eac133a5d3e7939",
    "form-kappa-trace-units":
        "2378d761a098ca2dd602d9c2f44ca01f9ffcad7e551f79c2ed80954929c52912",
    "form-kappa-cyclic-units":
        "0da1cc8ea6ea983d1f352fdaec0801dcecf9dda41083eca9e55a0ee4c9854e8a",
    "form-trace-power-units":
        "2d8b97f356df26838468c82e6e67b69a4aeb77353e5c15ca4b9b3248b148e645",
    "form-top-factor-units":
        "73b8aa43c0d816a08753a4ad4e9362239d7cdb73d51171e63d811b0b910f9c46",
    "spectrum-gaussian":
        "b261632aaea61189351554a9c10c96827a850449e5cc71143e16be49f6731c98",
    "spectrum-gaussian-json":
        "2d235a34ac6722d931f6a3fa3bb241de3822f54501d6d87c1dc60e1d002d3055",
    "form-mc-gaussian":
        "6b636d2412fd3e8bbabca7e2dfced5de950fddc75133cfe5519580ec41655a98",
    "form-kappa-trace-gaussian":
        "a5c04815abdca0fcb7231ff0dba0c4288dc18103b7c22386ba0a9524eeb8f827",
    "form-kappa-cyclic-gaussian":
        "4947c73dee54aad6e426cddbaebc1dd067cbac41b1d9bfe80e10a250096783d9",
    "form-trace-power-gaussian":
        "f5c2537459b045ca25a2d2d5026fe683eb557be8bc9567e3ebfad2c92fe50c4d",
    "form-top-factor-gaussian":
        "94d631c7823809978e54b16f4f1cd29a6dc8f3b6a11f4b44cfa61ce5179d12ef",
    # recorded before dense cochains were evaluated over a key trie
    "form-kappa-cyclic3-units":
        "918e0234eaccf65d0208bd0ef08a4747c45386bdfe0d828840ced755d048b727",
    "form-kappa-dense-gaussian":
        "65aa8e17f996b307270508f5ea35b385c206c107d72f94ccdc062e248be6d397",
    # recorded before the unreached library code was deleted, so that these
    # pins show the kept polynomial parser's output did not move; `form`
    # prints its JSON either way
    "spectrum-poly-matrix":
        "b5e6eb05608954070a7553ad3461f8c5be88e08685bd7c0c3990ccd2c220d3bb",
    "spectrum-poly-matrix-json":
        "5891b3b7fc0f6d4c1e650fb1fa3d3885082bb0588d5d4cd02272f2ee2539549b",
    "form-mc-poly-matrix":
        "266998db2677b2a79af331923bb8c4a0f319557abc72dde5f3941e3e88d304da",
    "form-mc-poly-matrix-json":
        "266998db2677b2a79af331923bb8c4a0f319557abc72dde5f3941e3e88d304da",
}


@pytest.mark.parametrize("case_id, argv, data", cases(),
                         ids=[c[0] for c in cases()])
def test_output_bytes_match_recorded_digest(case_id, argv, data, tmp_path):
    assert run_digest(argv, data, tmp_path) == DIGESTS[case_id]
