"""The array sampler against numpy: ziggurat tables and every slow-path class.

``variation.sample_offsets`` draws through ``_sampler``, which settles a row
in arrays when the first 64-bit word of its generator takes numpy's ziggurat
fast path to a value within the truncation; every other row goes on through
``_sampler._settle``, a port of numpy's slow path on Python ints. The tables
it reads are numpy's own: KI and WI re-derived here through
``standard_normal()``, and all three read from the static library numpy
ships. Every row that misses the fast path, over many seeds and
truncations, and crafted words for each slow-path branch are compared bit
for bit with numpy's ``Generator`` (``oracle.reference_sample_offsets``).

Run as a script, this file prints ``src/mdmtj/_ziggurat.py`` from the
installed numpy.
"""

import struct
from pathlib import Path

import numpy as np
import pytest

from mdmtj import _sampler
from mdmtj._ziggurat import FI, KI, WI
from mdmtj.oracle import reference_sample_offsets
from mdmtj.variation import MonteCarloSpec, sample_offsets

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_INVERSE = pow(_sampler._PCG_MULT, -1, 1 << 128)
_LIBRARY = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"


def _probe():
    """draw(first, second=0, truncation=inf): numpy's ``standard_normal()``,
    redrawn while past the truncation, from a generator whose next two
    64-bit words are ``first`` and ``second``; with the state after the first
    word, the increment and the number of words the draw took.

    The state S and increment c satisfy S * M + c = first and
    first * M + c = second (mod 2^128), so the first step lands on ``first``
    and the second on ``second``; both have high half 0, so each output is
    the state itself.
    """
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)

    def draw(first, second=0, truncation=np.inf):
        inc = (second - first * _sampler._PCG_MULT) & _MASK128
        pcg = {"state": (first - inc) * _INVERSE & _MASK128, "inc": inc}
        bit_generator.state = {
            "bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0
        }
        value = generator.standard_normal()
        while abs(value) > truncation:
            value = generator.standard_normal()
        end, state, taken = bit_generator.state["state"]["state"], pcg["state"], 0
        while taken == 0 or state != end:  # first = second = 0 is a fixed point
            state, taken = (state * _sampler._PCG_MULT + inc) & _MASK128, taken + 1
        return value, first, inc, taken

    return draw


def derive_tables():
    """(ki, wi) of numpy's ziggurat, read through ``standard_normal()``.

    A draw that takes one word took the fast path, which accepts layer idx
    exactly when the magnitude is below ki[idx]: a binary search over the
    magnitude finds ki. The draw at magnitude 1 is wi[idx]. Layer 1 has
    ki = 0; its draw at magnitude 1 takes the wedge, which the zero second
    word accepts, so wi[1] takes two words.
    """
    draw = _probe()
    ki, wi = [], []
    for layer in range(256):
        def fast(magnitude):
            return draw(layer | magnitude << 9)[3] == 1

        if fast(0):
            below, above = 0, 1 << 52  # fast at below, not at above
            while above - below > 1:
                middle = (below + above) // 2
                below, above = (middle, above) if fast(middle) else (below, middle)
            ki.append(above)
        else:
            ki.append(0)
        value, _, _, taken = draw(layer | 1 << 9)
        assert taken == (2 if ki[-1] == 0 else 1), layer
        wi.append(value)
    return ki, wi


def _archive_members(data):
    """The members of a System V ``ar`` archive: 60-byte headers, each with
    its size in bytes 48-58, and data padded to an even length."""
    assert data[:8] == b"!<arch>\n"
    at = 8
    while at < len(data):
        size = int(data[at + 48 : at + 58])
        yield data[at + 60 : at + 60 + size]
        at += 60 + size + (size & 1)


def _object_symbols(obj):
    """{name: bytes} of every symbol an ELF64 little-endian object defines in
    one of its sections, from its symbol tables."""
    if obj[:6] != b"\x7fELF\x02\x01":
        return {}
    (section_offset,) = struct.unpack_from("<Q", obj, 0x28)
    entry_size, count = struct.unpack_from("<HH", obj, 0x3A)
    # (type, file offset, size, link, entry size) of each section header
    sections = [
        struct.unpack_from("<4xI16xQQI12xQ", obj, section_offset + i * entry_size)
        for i in range(count)
    ]
    symbols = {}
    for kind, offset, size, link, entry in sections:
        if kind != 2:  # SHT_SYMTAB
            continue
        names = sections[link][1]
        for at in range(offset, offset + size, entry):
            name, index, value, length = struct.unpack_from("<I2xHQQ", obj, at)
            if 0 < index < count:
                text = obj[names + name : obj.index(b"\0", names + name)].decode()
                start = sections[index][1] + value
                symbols[text] = obj[start : start + length]
    return symbols


def library_tables():
    """(ki, wi, fi) as numpy's C code holds them: ki_double, wi_double and
    fi_double in the read-only data of ``numpy/random/lib/libnpyrandom.a``."""
    found = {}
    for member in _archive_members(_LIBRARY.read_bytes()):
        for name, data in _object_symbols(member).items():
            if name in ("ki_double", "wi_double", "fi_double"):
                assert name not in found, name
                found[name] = data
    assert all(len(data) == 256 * 8 for data in found.values())
    return (
        np.frombuffer(found["ki_double"], "<u8").tolist(),
        np.frombuffer(found["wi_double"], "<f8").tolist(),
        np.frombuffer(found["fi_double"], "<f8").tolist(),
    )


def test_committed_tables_are_numpys():
    ki, wi = derive_tables()
    assert KI.dtype == np.uint64 and WI.dtype == np.float64
    assert KI.tolist() == ki
    assert WI.tobytes() == np.array(wi).tobytes()
    assert ki[1] == 0 and all(ki[layer] > 0 for layer in range(256) if layer != 1)


def test_committed_tables_are_the_librarys():
    ki, wi, fi = library_tables()
    assert FI.dtype == np.float64
    assert KI.tolist() == ki
    assert WI.tobytes() == np.array(wi).tobytes()
    assert FI.tobytes() == np.array(fi).tobytes()
    # f at the layer edges: 1 at the top, falling to the base layer's edge
    assert fi[0] == 1.0 and all(a > b for a, b in zip(fi, fi[1:]))


def _missed(spec, count):
    """Row indices of [0, count) the fast path does not settle, by class."""
    _, _, word = _sampler._first_words(_sampler._uint32_words(spec.seed), 0, count)
    layer = (word & 0xFF).astype(np.intp)
    magnitude = word >> 9 & _sampler._MASK52
    fast = magnitude < KI[layer]
    x = magnitude.astype(float) * WI[layer]
    return {
        "tail": np.flatnonzero((layer == 0) & ~fast),
        "layer 1": np.flatnonzero(layer == 1),
        "wedge": np.flatnonzero(~fast & (layer >= 2)),
        "truncated": np.flatnonzero(fast & (np.abs(x) > spec.truncation)),
    }


# samples per seed at each truncation: below 1 sigma most rows miss
_TRUNCATIONS = {6.0: 4000, 3.0: 4000, 0.3: 300, 0.05: 100}


def test_every_fallback_class_matches_the_reference():
    totals = dict.fromkeys(("tail", "layer 1", "wedge", "truncated"), 0)
    for seed in range(40):
        for truncation, samples in _TRUNCATIONS.items():
            spec = MonteCarloSpec(samples=samples, seed=seed, truncation=truncation)
            got = sample_offsets(spec)
            for name, rows in _missed(spec, samples).items():
                totals[name] += rows.size
                for row in rows.tolist():
                    want = reference_sample_offsets(spec, row, row + 1)
                    assert got[row : row + 1].tobytes() == want.tobytes(), (spec, name, row)
    assert min(totals.values()) >= 40, totals


def _word(layer, magnitude, negative=False):
    return layer | negative << 8 | magnitude << 9


def _mid_wedge(layer):
    return (int(KI[layer]) + (1 << 52)) // 2


_TOP = _sampler._MASK52
_CRAFTED = {
    # name: (first word, second word, truncation, (fewest, most) words
    # numpy takes, most None when unseen words decide)
    # a zero second word: xx = 0, accepted by any nonzero third word
    "tail accept": (_word(0, _TOP, True), 0, np.inf, (3, 3)),
    # xx is about 10 at the largest double below 1, and yy + yy at most
    # 73.5: always rejected, then at least one fresh pair
    "tail reject": (_word(0, _TOP), _MASK64, np.inf, (5, None)),
    "layer 1": (_word(1, 1 << 51), 0, np.inf, (2, 2)),
    # inside a wedge f(x) lies strictly between FI[idx] and FI[idx - 1]:
    # u = 0 always accepts, u just below 1 always rejects
    "wedge accept": (_word(100, _mid_wedge(100)), 0, np.inf, (2, 2)),
    "wedge reject": (_word(100, _mid_wedge(100), True), _MASK64, np.inf, (3, None)),
    # a fast value past the truncation, redrawn into the tail or a wedge
    "redraw into the tail": (_word(100, 1 << 51), _word(0, _TOP), 0.3, (4, None)),
    "redraw into a wedge": (_word(200, 1 << 51, True), _word(50, _mid_wedge(50)), 0.3, (3, None)),
}


@pytest.mark.parametrize("name", list(_CRAFTED))
def test_crafted_words_take_each_slow_path_branch_as_numpy_does(name):
    first, second, truncation, (fewest, most) = _CRAFTED[name]
    layer, magnitude = first & 0xFF, first >> 9 & _sampler._MASK52
    if name.startswith("redraw"):
        assert magnitude < KI[layer] and magnitude * WI[layer] > truncation
        assert second >> 9 & _sampler._MASK52 >= KI[second & 0xFF]
    else:
        assert magnitude >= KI[layer]
    want, state, inc, numpy_taken = _probe()(first, second, truncation)
    got = _sampler._settle(first, _sampler._words(state, inc), truncation)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert fewest <= numpy_taken and (most is None or numpy_taken <= most)
    assert abs(got) <= truncation


@pytest.mark.parametrize("samples, truncation", [(20_000, 6.0), (5_000, 0.3)])
def test_bulk_samples_match_the_reference(samples, truncation):
    spec = MonteCarloSpec(samples=samples, seed=3, truncation=truncation)
    assert sample_offsets(spec).tobytes() == reference_sample_offsets(spec).tobytes()


def _module_text(ki, wi, fi):
    def rows(items, per_line):
        return "".join(
            "    " + " ".join(f"{item}," for item in items[i : i + per_line]) + "\n"
            for i in range(0, len(items), per_line)
        )

    return (
        '"""numpy\'s 256-layer ziggurat for ``standard_normal()`` (Marsaglia and\n'
        "Tsang 2000): layer idx takes the fast path when the 52-bit magnitude is\n"
        "below KI[idx], and returns magnitude * WI[idx]. Past KI[idx], layer\n"
        "idx > 0 keeps x when (FI[idx - 1] - FI[idx]) * u + FI[idx] < exp(-x^2 / 2)\n"
        "for a uniform u: FI holds exp(-x^2 / 2) at the layer edges.\n\n"
        "Generated by ``python tests/test_sampler.py`` from numpy's ki_double,\n"
        "wi_double and fi_double in the installed numpy's libnpyrandom.a;\n"
        "tests/test_sampler.py reads them again and compares them bit for bit.\n"
        '"""\n\nimport numpy as np\n\n'
        f"KI = np.array([\n{rows(ki, 4)}], dtype=np.uint64)\n\n"
        f"WI = np.array([\n{rows([repr(w) for w in wi], 3)}])\n\n"
        f"FI = np.array([\n{rows([repr(f) for f in fi], 3)}])\n"
    )


if __name__ == "__main__":
    print(_module_text(*library_tables()), end="")
