"""Words built for the tests' oracles, independently of multitwist.search."""


def cyclically_reduced_strings(n: int) -> list[str]:
    """Every cyclically reduced string of length n over abAB, in
    itertools.product order: the freely reduced words, extended a letter
    at a time in abAB order, whose last letter does not cancel the first."""
    reduced = [""]
    for _ in range(n):
        reduced = [w + c for w in reduced for c in "abAB"
                   if not w or w[-1] != c.swapcase()]
    return [w for w in reduced if not w or w[-1] != w[0].swapcase()]
