"""The array sampler against numpy: ziggurat tables and every fallback class.

``variation.sample_offsets`` draws a row in arrays when the first 64-bit word
of its generator takes numpy's ziggurat fast path to a value within the
truncation; every other row redraws through numpy. The tables it reads are
numpy's own, re-derived here from the installed numpy, and each class of
row that falls back is compared bit for bit with
``oracle.reference_sample_offsets``.

Run as a script, this file prints ``src/mdmtj/_ziggurat.py`` from the
installed numpy.
"""

import numpy as np
import pytest

from mdmtj import variation
from mdmtj._ziggurat import KI, WI
from mdmtj.oracle import reference_sample_offsets
from mdmtj.variation import MonteCarloSpec, sample_offsets

_MASK128 = (1 << 128) - 1
_INVERSE = pow(variation._PCG_MULT, -1, 1 << 128)


def _probe():
    """draw(word): numpy's first ``standard_normal()`` from a generator whose
    next two 64-bit words are ``word`` and 0, with the state it ends in.

    The state S and increment c satisfy S * M + c = word and word * M + c = 0
    (mod 2^128), so the first step lands on ``word`` (high half 0: the output
    is the word itself) and the second on 0.
    """
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)

    def draw(word):
        inc = -word * variation._PCG_MULT & _MASK128
        pcg = {"state": (word - inc) * _INVERSE & _MASK128, "inc": inc}
        bit_generator.state = {
            "bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0
        }
        value = generator.standard_normal()
        return value, bit_generator.state["state"]["state"]

    return draw


def derive_tables():
    """(ki, wi) of numpy's ziggurat, read through ``standard_normal()``.

    A draw that ends one step on took the fast path, which accepts layer idx
    exactly when the magnitude is below ki[idx]: a binary search over the
    magnitude finds ki. The draw at magnitude 1 is wi[idx]. Layer 1 has
    ki = 0; its draw at magnitude 1 takes the wedge, which the zero second
    word accepts, so wi[1] is read two steps on.
    """
    draw = _probe()
    ki, wi = [], []
    for layer in range(256):
        def fast(magnitude):
            word = layer | magnitude << 9
            return draw(word)[1] == word

        if fast(0):
            below, above = 0, 1 << 52  # fast at below, not at above
            while above - below > 1:
                middle = (below + above) // 2
                below, above = (middle, above) if fast(middle) else (below, middle)
            ki.append(above)
        else:
            ki.append(0)
        value, state = draw(layer | 1 << 9)
        assert state == (0 if ki[-1] == 0 else layer | 1 << 9), layer
        wi.append(value)
    return ki, wi


def test_committed_tables_are_numpys():
    ki, wi = derive_tables()
    assert KI.dtype == np.uint64 and WI.dtype == np.float64
    assert KI.tolist() == ki
    assert WI.tobytes() == np.array(wi).tobytes()
    assert ki[1] == 0 and all(ki[layer] > 0 for layer in range(256) if layer != 1)


def _classes(spec, count):
    """Row indices of [0, count) by how their first word is drawn."""
    _, _, word = variation._first_words(variation._uint32_words(spec.seed), 0, count)
    layer = (word & 0xFF).astype(np.intp)
    magnitude = word >> 9 & variation._MASK52
    fast = magnitude < KI[layer]
    x = magnitude.astype(float) * WI[layer]
    return {
        "tail": np.flatnonzero((layer == 0) & ~fast),
        "layer 1": np.flatnonzero(layer == 1),
        "wedge": np.flatnonzero(~fast & (layer >= 2)),
        "truncated": np.flatnonzero(fast & (np.abs(x) > spec.truncation)),
    }


def test_every_fallback_class_matches_the_reference():
    spec = MonteCarloSpec(samples=1, seed=20261018, truncation=0.3)
    classes = _classes(spec, 4096)
    for name, rows in classes.items():
        assert rows.size, name
        for row in rows[:8].tolist():
            got = sample_offsets(spec, row, row + 1)
            want = reference_sample_offsets(spec, row, row + 1)
            assert got.tobytes() == want.tobytes(), (name, row)


@pytest.mark.parametrize("samples, truncation", [(20_000, 6.0), (5_000, 0.3)])
def test_bulk_samples_match_the_reference(samples, truncation):
    spec = MonteCarloSpec(samples=samples, seed=3, truncation=truncation)
    assert sample_offsets(spec).tobytes() == reference_sample_offsets(spec).tobytes()


def _module_text(ki, wi):
    def rows(items, per_line):
        return "".join(
            "    " + " ".join(f"{item}," for item in items[i : i + per_line]) + "\n"
            for i in range(0, len(items), per_line)
        )

    return (
        '"""numpy\'s 256-layer ziggurat for ``standard_normal()`` (Marsaglia and\n'
        "Tsang 2000): layer idx takes the fast path when the 52-bit magnitude is\n"
        "below KI[idx], and returns magnitude * WI[idx].\n\n"
        "Generated by ``python tests/test_sampler.py`` from the installed numpy;\n"
        "tests/test_sampler.py re-derives both tables and compares them bit for bit.\n"
        '"""\n\nimport numpy as np\n\n'
        f"KI = np.array([\n{rows(ki, 4)}], dtype=np.uint64)\n\n"
        f"WI = np.array([\n{rows([repr(w) for w in wi], 3)}])\n"
    )


if __name__ == "__main__":
    print(_module_text(*derive_tables()), end="")
