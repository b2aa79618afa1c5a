"""Pinned outputs of ``uqslcat hom --maps``.

For each p = 2, 3 and each source label A of ``family_labels(p)`` other
than Reg, the sha256 of the stdouts of ``uqslcat hom --p P --from A --to B
--maps --format json``, joined in order over every such target B: 324 +
1,156 ordered pairs.  One more entry pins the stdout of the p = 4 run that
the optimized-mode CI smoke checks.  The digests were recorded while
``hom_space`` still solved the generic intertwiner system."""

import hashlib
import json
from pathlib import Path

from test_cli import family_labels
from test_decompose_pins import cli_stdout

DATA = Path(__file__).parent / "data"
CI_RUN = ["hom", "--p", "4", "--from", "P+:1", "--to", "P+:1", "--maps", "--format", "json"]


def hom_argv(p, src, dst):
    return ["hom", "--p", str(p), "--from", src, "--to", dst, "--maps", "--format", "json"]


def hom_digests() -> dict[str, str]:
    out = {}
    for p in (2, 3):
        labels = [lbl for lbl in family_labels(p) if lbl != "Reg"]
        for src in labels:
            joined = "".join(cli_stdout(hom_argv(p, src, dst)) for dst in labels)
            out[f"hom --p {p} --from {src}"] = hashlib.sha256(joined.encode()).hexdigest()
    out[" ".join(CI_RUN)] = hashlib.sha256(cli_stdout(CI_RUN).encode()).hexdigest()
    return out


def test_hom_outputs_are_pinned():
    want = json.loads((DATA / "hom_sha256.json").read_text())
    assert len(want) == 18 + 34 + 1
    assert hom_digests() == want
