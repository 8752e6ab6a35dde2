"""The identity checks that live only in the verify suites report a
counterexample when the library breaks the identity. The library calls are
monkeypatched to return wrong answers; the ranges are small."""

from ncschur import ncsym, schur
from ncschur.verify import suite_iota, suite_prod, suite_rslr


def test_rslr_catches_a_dropped_pair(monkeypatch):
    orig = schur.rs_lr_expand

    def drop_first(shape):
        pairs = orig(shape)
        return pairs[1:] if len(pairs) > 1 else pairs

    monkeypatch.setattr(schur, "rs_lr_expand", drop_first)
    report = suite_rslr(max_size=3, inner_cap=1)
    assert not report.ok
    assert report.counterexample == "2.1/1"


def test_prod_catches_a_wrong_source_shape_list(monkeypatch):
    orig = schur.source_product
    monkeypatch.setattr(
        schur, "source_product", lambda lam, mu: (orig(lam, mu)[0], orig(lam, mu)[1][:1])
    )
    report = suite_prod(max_size=3)
    assert not report.ok
    assert report.counterexample == "lam=1 mu=1"


def test_prod_catches_a_wrong_schur_shape_list(monkeypatch):
    orig = schur.set_partition_schur_product

    def drop_near_concat(pi, sig):
        prod, pairs = orig(pi, sig)
        return prod, pairs[:1]

    monkeypatch.setattr(schur, "set_partition_schur_product", drop_near_concat)
    # the word-level slash check between the two product-rule loops runs at a
    # fixed size; stub its expanders so that this test stays fast
    for basis in ("h", "e", "p"):
        monkeypatch.setitem(ncsym._EXPANDERS, basis, lambda pi, k: {})
    report = suite_prod(max_size=2)
    assert not report.ok
    assert report.counterexample == "s: pi=1 sig=1"


def test_iota_catches_a_wrong_ribbon_sign(monkeypatch):
    orig = schur.ribbon_source
    monkeypatch.setattr(schur, "ribbon_source", lambda alpha: -orig(alpha))
    report = suite_iota(max_n=2)
    assert not report.ok
    assert report.counterexample == "ribbon alpha=1"


def test_prod_catches_factor_words_that_collide_when_concatenated(monkeypatch):
    # words are base-k integers, and at k = 2 a word of length 1 followed by
    # another is w1 * 2 + w2; the out-of-range digit 2 makes (0, 2) and
    # (1, 0) concatenate to the same word, so the convolution has fewer
    # words than pairs of factor words even where the product expansion
    # matches it as a dict
    def collide(pi, k):
        if sum(len(b) for b in pi) == 1:
            return {0: 1, 1: 1, 2: 1}
        return {w: 1 for w in range(7)}

    factor, product = collide(((1,),), 2), collide(((1,), (2,)), 2)
    convolution = {w1 * 2 + w2: 1 for w1 in factor for w2 in factor}
    assert convolution == product and len(convolution) < len(factor) ** 2
    monkeypatch.setitem(ncsym._EXPANDERS, "h", collide)
    report = suite_prod(max_size=2)
    assert not report.ok
    assert report.counterexample == "h: pi=1 sig=1"
