"""Pinned outputs of decompose and find_isomorphism.

The sha256 of each ``DecompReport.to_json(with_certificate=True)``, as
canonical JSON, for the 100 criterion-7 scrambled sums, the 20 canonical
sums that the benchmark's ``canonical_mix`` decomposes and Reg(2..4); of
the maps that ``find_isomorphism`` returns on the pairs of
``test_isomorphism.py``; and of the stdout of ``uqslcat decompose
--certificate`` on Reg(3) and Reg(4) in JSON.  The digests were recorded
while the decomposition still held its maps as dense matrices."""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from test_weight_hom import random_labels, scrambled_sum
from uqslcat.category import decompose, find_isomorphism
from uqslcat.cli import run
from uqslcat.qmodules import CP1, build_o1, direct_sum, irreducible, regular_module, tensor

DATA = Path(__file__).parent / "data"


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def pinned_modules():
    """(name, module): the criterion-7 corpus, the canonical sums drawn as
    the benchmark's canonical_designs draws them, and Reg(2..4)."""
    rng = random.Random(713)
    for trial in range(100):
        p = 2 if trial % 2 == 0 else 3
        yield f"criterion7/{trial}", scrambled_sum(p, random_labels(p, rng, rng.randint(1, 4)), rng)
    rng = random.Random(713)
    for i in range(20):
        p = (3, 4, 5)[i % 3]
        labels = random_labels(p, rng, rng.randint(2, 6))
        yield f"canonical/{i}", direct_sum(*[lbl.rebuild(p) for lbl in labels])
    for p in (2, 3, 4):
        yield f"reg/{p}", regular_module(p)


def isomorphism_pairs():
    """The pairs of test_isomorphism.py, in both directions."""
    verma, contragredient = build_o1(2, 1, 1, CP1.of(2, 1, 0)), build_o1(2, 1, 1, CP1.of(2, 0, 1))
    split = direct_sum(irreducible(2, 1, 1), irreducible(2, -1, 1))
    x = irreducible(3, 1, 2)
    left, right = tensor(tensor(x, x), x), tensor(x, tensor(x, x))
    pairs = {"verma/contragredient": (verma, contragredient), "split/verma": (split, verma),
             "left/right": (left, right)}
    for name, (a, b) in pairs.items():
        yield name, a, b
        yield "/".join(name.split("/")[::-1]), b, a


def cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0, argv
    return out.getvalue()


CLI_RUNS = [["decompose", "--p", str(p), "--family", "Reg", "--format", "json", "--certificate"] for p in (3, 4)]


def decompose_digests() -> dict[str, str]:
    out = {f"decompose/{name}": digest(decompose(m).to_json(with_certificate=True))
           for name, m in pinned_modules()}
    for name, a, b in isomorphism_pairs():
        phi = find_isomorphism(a, b)
        out[f"find_isomorphism/{name}"] = digest(None if phi is None else [[x.to_json() for x in row]
                                                                           for row in phi])
    for argv in CLI_RUNS:
        out[" ".join(argv)] = hashlib.sha256(cli_stdout(argv).encode()).hexdigest()
    return out


def test_decompose_outputs_are_pinned():
    want = json.loads((DATA / "decompose_sha256.json").read_text())
    assert decompose_digests() == want
