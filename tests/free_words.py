"""Words built for the tests' oracles, independently of multitwist.search,
and their images independently of multitwist.rep."""


def cyclically_reduced_strings(n: int) -> list[str]:
    """Every cyclically reduced string of length n over abAB, in
    itertools.product order: the freely reduced words, extended a letter
    at a time in abAB order, whose last letter does not cancel the first."""
    reduced = [""]
    for _ in range(n):
        reduced = [w + c for w in reduced for c in "abAB"
                   if not w or w[-1] != c.swapcase()]
    return [w for w in reduced if not w or w[-1] != w[0].swapcase()]


def letter_product(word: str, mu: int) -> tuple:
    """The conjugate image (a, b, c, d) of any a/b/A/B string at mu, a
    product of 2x2 letter matrices taken one letter at a time."""
    images = {"a": (1, 1, 0, 1), "A": (1, -1, 0, 1),
              "b": (1, 0, -mu, 1), "B": (1, 0, mu, 1)}
    a, b, c, d = 1, 0, 0, 1
    for letter in word:
        e, f, g, h = images[letter]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return a, b, c, d
