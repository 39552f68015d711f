"""Seeded input generators. Every input is built with the oracle's own word
arithmetic and handed to snbraid only as text in its grammar (`s1 S2 ...`).

Each generator returns plain dicts: words as text plus what the construction
knows about them (for example "equivalent by construction"), which the
checks in run.py use.
"""

from __future__ import annotations

import random

import oracle as O


def random_word(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    if n < 2:
        return ()
    return tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))


def random_kernel_word(rng: random.Random, n: int, m: int, gens: int) -> tuple[int, ...]:
    pool = O.kernel_generators(n, m)
    w: tuple[int, ...] = ()
    for _ in range(gens):
        g = rng.choice(pool)
        w += g if rng.random() < 0.5 else O.inverse(g)
    return O.free_reduce(w)


def conjugated_kernel_part(beta_a, gamma, c) -> tuple[int, ...]:
    """Kernel part of c (beta_A gamma) c^-1 for a kernel element c: the
    orbit that is strong Nielsen equivalent to gamma by construction."""
    return O.free_reduce(O.inverse(beta_a) + tuple(c) + tuple(beta_a) + tuple(gamma) + O.inverse(c))


def _instance(n, m, beta_a, ox, oy, equivalent: bool) -> dict:
    return {
        "n": n, "m": m, "beta_A": O.fmt(beta_a), "ox": O.fmt(ox), "oy": O.fmt(oy),
        "equivalent_by_construction": equivalent,
    }


def _match_exponent_sum(word, target, n: int, m: int) -> tuple[int, ...]:
    """Append powers of the first kernel generator until word has target's
    exponent sum: the orbit crossing sigma_{n+1} (sum 1) when m >= 2, else
    the loop A_1 (sum 2; every kernel word then has an even sum)."""
    gap = O.exponent_sum(target) - O.exponent_sum(word)
    gen = O.kernel_generators(n, m)[0]
    step = O.exponent_sum(gen)
    piece = gen if gap > 0 else O.inverse(gen)
    return O.free_reduce(tuple(word) + piece * (abs(gap) // step))


DECIDE_MIX_SHAPES = [(n, m) for n in (1, 2, 3) for m in (1, 2)]
# (letters of beta_A, generators of beta_oy, generators of the conjugator c
# or, on odd instances, of the second orbit before padding)
DECIDE_MIX_LENGTHS = [(a, y, c) for a in (0, 3, 6) for y in (0, 1, 2, 3) for c in (1, 2)]
DECIDE_MIX_CYCLE = 2 * len(DECIDE_MIX_SHAPES) * len(DECIDE_MIX_LENGTHS)


def decide_mix(seed: int, count: int) -> list[dict]:
    """Random strong Nielsen instances, n in 1..3, m in 1..2; even-numbered
    ones are equivalent by kernel conjugation, odd ones are random pairs of
    equal exponent sum, so that the other screens have work to do.
    (n, m) cycles through its six values, and over DECIDE_MIX_CYCLE
    instances each (n, m) and parity meets each length triple of
    DECIDE_MIX_LENGTHS once, so every corpus of whole cycles has the same
    make-up and only the letters change with the seed. Drawing the lengths
    at random as well made the corpus cost differ by 10 % between seeds."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        shape = (i // 2) % len(DECIDE_MIX_SHAPES)
        n, m = DECIDE_MIX_SHAPES[shape]
        a, y, c = DECIDE_MIX_LENGTHS[(i // 12 + 5 * shape) % len(DECIDE_MIX_LENGTHS)]
        beta_a = random_word(rng, n, a)
        oy = random_kernel_word(rng, n, m, y)
        if i % 2 == 0:
            conj = random_kernel_word(rng, n, m, c)
            ox = conjugated_kernel_part(beta_a, oy, conj)
        else:
            ox = _match_exponent_sum(random_kernel_word(rng, n, m, (y + c) % 4), oy, n, m)
        out.append(_instance(n, m, beta_a, ox, oy, i % 2 == 0))
    return out


AMBIENT_EXPONENTS = (1, -1, 3, -3)
AMBIENT_SHIFTS = (1, -1, 2, -2, 3, -3)


def sn_ambient(seed: int, count: int) -> list[dict]:
    """n = 2, m = 1, base sigma_1^e with e in {1, -1, 3, -3}. beta_y is the
    base times a kernel word of 2 generators, and beta_x is g beta_y g^-1
    with g = section(sigma_1^k) * h for a kernel generator h or its inverse,
    so the two mixed braids are conjugate in B_3 and pass every invariant
    screen. When e divides k the instance is equivalent by construction,
    with kernel witness g * beta_y^(-k/e). (h, e, k) cycles through all 96
    combinations and each of the 16 two-letter kernel words is used equally
    often, so every corpus has the same make-up; the seed decides which
    combination gets which word."""
    rng = random.Random(seed)
    gens = O.kernel_generators(2, 1)
    letters = gens + [O.inverse(g) for g in gens]
    combos = [(h, e, k) for h in letters for e in AMBIENT_EXPONENTS for k in AMBIENT_SHIFTS]
    words = [O.free_reduce(a + b) for a in letters for b in letters]
    orbit_words = [words[i % len(words)] for i in range(count)]
    rng.shuffle(orbit_words)
    out = []
    for i, oy in enumerate(orbit_words):
        h, e, k = combos[i % len(combos)]
        beta_a = (1 if e > 0 else -1,) * abs(e)
        g = (1 if k > 0 else -1,) * abs(k) + h
        beta_x = g + beta_a + oy + O.inverse(g)
        ox = O.free_reduce(O.inverse(beta_a) + beta_x)
        out.append(_instance(2, 1, beta_a, ox, oy, k % e == 0))
    return out


def conjugacy_pairs(seed: int, strands: range, per_n: int, length: int,
                    conjugate_only: bool = False) -> list[dict]:
    """Pairs on n strands, alternately conjugate by construction and (unless
    conjugate_only) non-conjugate: the second kind share exponent sum and
    cycle type (b is a conjugate of a times a pure braid of exponent sum 0)
    and are separated by the Burau characteristic polynomial."""
    rng = random.Random(seed)
    out = []
    for n in strands:
        for i in range(per_n):
            a = O.free_reduce(random_word(rng, n, length))
            c = random_word(rng, n, max(1, length // 3))
            b = O.free_reduce(O.inverse(c) + a + tuple(c))
            conjugate = conjugate_only or i % 2 == 0
            while not conjugate:
                x, y = rng.randint(1, n - 1), rng.randint(1, n - 1)
                cut = rng.randint(0, len(b))
                cand = O.free_reduce(b[:cut] + (x, x, -y, -y) + b[cut:])
                if O.burau_signature(n, cand) != O.burau_signature(n, a):
                    b = cand
                    break
            out.append({"n": n, "a": O.fmt(a), "b": O.fmt(b), "conjugate": conjugate})
    return out


def long_words(seed: int, strands: int, lengths: tuple[int, ...], per_length: int) -> list[dict]:
    """Random words of the given lengths; `same` is the word with cancelling
    pairs inserted (equal as braids), `other` the word times sigma_1 (not)."""
    rng = random.Random(seed)
    out = []
    for length in lengths:
        for _ in range(per_length):
            w = random_word(rng, strands, length)
            same = list(w)
            for _ in range(4):
                k = rng.choice((1, -1)) * rng.randint(1, strands - 1)
                cut = rng.randint(0, len(same))
                same[cut:cut] = [k, -k]
            out.append({
                "n": strands, "length": length, "word": O.fmt(w),
                "same": O.fmt(same), "other": O.fmt(w + (1,)),
            })
    return out


# Loops of the orbit strand around the punctures, with distinct exponent
# sums so that no two cores can be equivalent.
PARTITION_CORES = ("s2 s2", "S2 S2", "s2 s1 s1 S2 s2 s1 s1 S2", "s2 s2 s2 s2 s2 s2", "s2 S1 S1 S2 s2 S1 S1 S2")


def partition_orbits(seed, per_class: int) -> list[dict]:
    """Orbits for n = 2, m = 1, base sigma_1: for each core loop word, the
    core and per_class - 1 conjugates of it by a kernel generator or its
    inverse, shuffled. Returns [{"word": text, "cls": core index}]."""
    rng = random.Random(seed)
    beta_a = (1,)
    out = []
    for cls, core_text in enumerate(PARTITION_CORES):
        core = O.parse(core_text)
        out.append({"word": core_text, "cls": cls})
        for _ in range(per_class - 1):
            c = random_kernel_word(rng, 2, 1, 1)
            out.append({"word": O.fmt(conjugated_kernel_part(beta_a, core, c)), "cls": cls})
    rng.shuffle(out)
    return out
