"""The committed outputs under tests/golden/ are what the code prints now.

Every byte must match, apart from the W1 fields (``regen_golden.W1_KEYS``):
their bits follow numpy's SIMD dispatch of ``exp``, so they may move by a
few units in the last place between hosts, and are compared within
``W1_ULPS``.  A change that moves bits on purpose reruns
``tests/regen_golden.py``.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from regen_golden import CASES, GOLDEN, ROOT, W1_KEYS, W1_REPORT_KEYS, W1_ULPS, run_case


def _documents(text: str) -> list[dict]:
    decoder, docs, pos = json.JSONDecoder(), [], 0
    while pos < len(text):
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
        pos += 1  # the newline print ends each document with
    return docs


def _render(docs: list[dict]) -> str:
    return "".join(json.dumps(doc, indent=2, sort_keys=True) + "\n" for doc in docs)


def _w1_keys(doc: dict) -> set[str]:
    keys = W1_KEYS & doc.keys()
    if doc.get("kind") == "wasserstein":
        keys |= W1_REPORT_KEYS & doc.keys()
    return keys


def assert_matches(got: str, want: str) -> None:
    """``got`` is ``want`` byte for byte, apart from W1 fields within W1_ULPS."""
    if got == want:
        return
    try:
        got_docs, want_docs = _documents(got), _documents(want)
    except json.JSONDecodeError:
        assert got == want
    assert _render(got_docs) == got and len(got_docs) == len(want_docs), "output differs"
    for g, w in zip(got_docs, want_docs):
        keys = _w1_keys(w)
        w1 = max(abs(w[k]) for k in W1_KEYS | {"exact_distance"} if k in w) if keys else 0.0
        for k in keys:
            tol = W1_ULPS * np.spacing(max(w1, abs(w[k])))
            assert abs(g[k] - w[k]) <= tol, f"{k}: {g[k]!r} vs {w[k]!r}"
            g[k] = w[k]
    assert _render(got_docs) == want


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_the_golden_file(name):
    code, out, err = run_case(name)
    assert_matches(out, (GOLDEN / f"{name}.out").read_text())
    err_path = GOLDEN / f"{name}.err"
    want_err = err_path.read_text() if err_path.exists() else "exit 0\n"
    assert f"exit {code}\n{err}" == want_err


def test_every_golden_file_has_a_case():
    names = {p.name.rsplit(".", 1)[0] for p in GOLDEN.glob("*.out")} | {
        p.name.rsplit(".", 1)[0] for p in GOLDEN.glob("*.err")}
    assert names == set(CASES)


def test_dk_alone_prints_the_dk_of_both_distances():
    alone, both = (_documents((GOLDEN / f"{name}.out").read_text())[0]
                   for name in ("distance_kolmogorov_dense_m2_n17", "distance_dense_m2_n17"))
    assert "wasserstein_distance" in both
    assert alone == {k: v for k, v in both.items() if k != "wasserstein_distance"}


def test_w1_fields_hold_without_avx512():
    # numpy's AVX-512 exp rounds differently from its AVX2 one; on a host
    # without AVX-512 the variable changes nothing
    name = "bound_dense_m3_n16"
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=src, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    done = subprocess.run([sys.executable, "-m", "chaoslab", *CASES[name]], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert_matches(done.stdout, (GOLDEN / f"{name}.out").read_text())


@pytest.mark.parametrize("field, delta, ok", [
    ("exact_distance", 3, True), ("exact_distance", 1000, False),
    ("bound_value", 1, False), ("slack", 2, True),
])
def test_only_w1_fields_get_the_ulp_bound(field, delta, ok):
    want = (GOLDEN / "bound_dense_m3_n16.out").read_text()
    docs = _documents(want)
    rep = next(d for d in docs if d["kind"] == "wasserstein")
    rep[field] = float(np.float64(rep[field]) + delta * np.spacing(rep[field]))
    if ok:
        assert_matches(_render(docs), want)
    else:
        with pytest.raises(AssertionError):
            assert_matches(_render(docs), want)
