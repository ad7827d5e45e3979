"""Every exact value in golden_exact.txt, recomputed and compared."""

from golden_exact import GOLDEN, golden_lines


def _split(line: str) -> tuple[str, str]:
    key, _, digest = line.rpartition(" ")
    return key, digest


def test_golden_exact_values():
    want = dict(map(_split, GOLDEN.read_text().splitlines()))
    got = dict(map(_split, golden_lines()))
    differ = [f"{key} {digest} (now {got.get(key, 'not computed')})"
              for key, digest in want.items() if got.get(key) != digest]
    assert not differ, f"{len(differ)} golden values differ:\n" + \
        "\n".join(differ)
    # every computed value has its line, so none is left unchecked
    assert sorted(got) == sorted(want)
