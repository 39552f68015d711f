"""The free kernel F_n of B_{n,1} (`snbraid._free`): the rewrite of kernel
braids into reduced free words, the Artin action, and the bound that stops
a word grown too long."""

import random

import pytest

import snbraid as sb
from conftest import random_kernel_word, random_mixed, random_rewrite, random_word
from snbraid import _free

UNBOUNDED = 10**9


def reduce(letters):
    out = []
    for k in letters:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


def substitute(images, w):
    """The image of the free word w under the endomorphism x_k -> images[k-1]."""
    return reduce(y for k in w for y in (images[k - 1] if k > 0 else _free.inverse(images[-k - 1])))


def to_free(n, w):
    return _free.kernel_to_free(n, w.letters, UNBOUNDED)


def seeded_generator_products(seed, count):
    """(n, tags, word): a random product of kernel generators A_i^{+-1},
    n in 1..4, as its tags +-i and as a braid word, reduced or not."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        gens = sb.kernel_generators(n, 1)
        tags = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 6))]
        w = sb.BraidWord.identity(n + 1)
        for t in tags:
            g = gens[abs(t) - 1]
            w = sb.compose(w, g if t > 0 else sb.invert(g))
        yield n, tags, w


class TestKernelToFree:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_generators_are_the_free_letters(self, n):
        for i, g in enumerate(sb.kernel_generators(n, 1), start=1):
            assert to_free(n, g) == (i,)
            assert to_free(n, sb.invert(g)) == (-i,)

    def test_homomorphism_on_products_of_generators(self):
        """A product of generators reads the free reduction of its tags."""
        rng = random.Random(3)
        for n, tags, w in seeded_generator_products(3, 150):
            assert to_free(n, w) == reduce(tags)
            # Equal braids have equal images: a spelling changed by braid
            # relations and cancelling pairs reads the same free word.
            v = w
            for _ in range(4):
                v = random_rewrite(rng, v)
            assert to_free(n, v) == reduce(tags)

    def test_agrees_with_mixed_act(self):
        """phi_beta(gamma) = beta^-1 gamma beta, read in F_n, is the Artin
        action of beta on gamma's free word."""
        rng = random.Random(5)
        words = random.Random(15)
        for _ in range(60):
            n = rng.randint(1, 4)
            beta = random_word(rng, n, 6)
            gamma = random_kernel_word(rng, n, 1, rng.randint(0, 4))
            images = _free.artin(n, beta.letters, UNBOUNDED)
            assert to_free(n, sb.act(beta, gamma, 1)) == substitute(images, to_free(n, gamma))
            # One braid letter acts as the reduction of its letterwise
            # images, on gamma's word and on a seeded reduced word, whose
            # unmoved letters `_act` appends without a cancellation check.
            w = reduce(words.choice((1, -1)) * words.randint(1, n)
                       for _ in range(words.randint(0, 12)))
            for v in (to_free(n, gamma), w):
                for letter in beta.letters:
                    image = substitute(_free.artin(n, (letter,), UNBOUNDED), v)
                    assert tuple(_free._act(letter, list(v))) == image

    def test_agrees_with_the_action_on_the_orbit_loop(self):
        """An independent reading of a kernel element k of B_{n,1}: under
        the Artin action of B_{n+1} on F_{n+1}, k sends x_{n+1} to
        U x_{n+1} U^-1, and deleting x_{n+1} from U leaves k's word of F_n."""
        rng = random.Random(6)
        checked = 0
        for _ in range(200):
            n = rng.randint(1, 4)
            k = sb.decompose(random_mixed(rng, n, 1)).kernel_part
            image = substitute(_free.artin(n + 1, k.letters, UNBOUNDED), (n + 1,))
            half = len(image) // 2
            assert image[half] == n + 1 and image[:half] == _free.inverse(image[half + 1 :])
            deleted = substitute([(j,) for j in range(1, n + 1)] + [()], image[:half])
            assert deleted == to_free(n, k)
            checked += bool(deleted)
        assert checked >= 100

    def test_rejects_a_word_outside_the_kernel(self):
        with pytest.raises(ValueError, match="not a kernel element"):
            _free.kernel_to_free(2, (2,), UNBOUNDED)


class TestBound:
    def orbit(self, k):
        """beta^k A_1 beta^-k on 3 punctures, beta = s1 S2: about 2.6^k free
        letters from 4k + 6 braid letters."""
        return sb.BraidWord(4, (1, -2) * k + (3, 2, 1, 1, -2, -3) + (2, -1) * k)

    def test_growth(self):
        lengths = [len(to_free(3, self.orbit(k))) for k in (8, 9, 10)]
        assert lengths == [3191, 8359, 21889]

    def test_conversion_stops_past_the_bound(self):
        w = self.orbit(24)
        assert _free.kernel_to_free(3, w.letters, 8 * (len(w.letters) + 1)) is None
        assert _free.kernel_to_free(3, self.orbit(3).letters, 23) == to_free(3, self.orbit(3))
        assert _free.kernel_to_free(3, self.orbit(3).letters, 22) is None

    def test_artin_stops_past_the_bound(self):
        beta = (1, -2) * 24
        assert _free.artin(3, beta, 8 * (len(beta) + 1)) is None
        # Under s1, then S2: x1 -> x1 x2 x1^-1 -> x1 x3 x1^-1, x2 -> x1,
        # x3 -> x3^-1 x2 x3.
        assert _free.artin(3, (1, -2), 3) == [(1, 3, -1), (1,), (-3, 2, 3)]
        assert _free.artin(3, (1, -2), 2) is None


def test_product_reduces_both_seams():
    rng = random.Random(8)
    for _ in range(300):
        words = [reduce(rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(rng.randint(0, 6)))
                 for _ in range(3)]
        # Operands that cancel into each other as far as they go.
        if rng.random() < 0.5:
            cut = rng.randint(0, len(words[0]))
            words[1] = reduce(_free.inverse(words[0][cut:]) + words[1])
        assert _free.product(*words) == reduce(words[0] + words[1] + words[2])
