from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyndon2d import InvalidInput, NameRegistry, NotLyndon, NotPrimitive, NotSufficientlyPeriodic
from lyndon2d import classify_matrix, strings1d
from lyndon2d.strings1d import (
    compute_period,
    is_lyndon,
    is_primitive,
    least_rotation,
    summarize_row,
)
from oracles import brute_is_lyndon, brute_least_rotation, brute_period, rotations

T1 = "abbaabbaabbaabbaab"
T2 = "aabbaabbaabbaabbaa"

texts = st.text(alphabet=st.sampled_from("abc"), min_size=1, max_size=12)


def all_strings(alphabet: str, max_len: int):
    for n in range(1, max_len + 1):
        for chars in itertools.product(alphabet, repeat=n):
            yield "".join(chars)


# ---------------------------------------------------------------------------
# compute_period


def test_period_examples():
    assert compute_period(T1) == 4
    assert compute_period("aaaaaaaa") == 1
    assert compute_period("abcab") == 3  # brute-checked below


def test_period_empty_rejected():
    with pytest.raises(InvalidInput):
        compute_period("")


def test_period_exhaustive_small():
    for s in all_strings("abc", 7):
        assert compute_period(s) == brute_period(s), s
    for s in all_strings("ab", 10):
        assert compute_period(s) == brute_period(s), s


@given(texts)
def test_period_matches_brute(s):
    assert compute_period(s) == brute_period(s)


# ---------------------------------------------------------------------------
# compute_period with a limit


def bounded_period(s: str, limit: int) -> int:
    """The documented answer of compute_period(s, limit), from the unbounded one."""
    p = compute_period(s)
    if 2 * limit > len(s):
        return p
    return p if p <= limit else 0


def assert_every_limit(s: str) -> None:
    for limit in range(len(s) + 1):
        assert compute_period(s, limit) == bounded_period(s, limit), (s, limit)


@st.composite
def periodic_with_defect(draw):
    word = draw(st.text(alphabet=st.sampled_from("abc"), min_size=1, max_size=6))
    n = draw(st.integers(1, 60))
    s = (word * n)[:n]
    if draw(st.booleans()):
        pos = draw(st.integers(0, n - 1))
        s = s[:pos] + "z" + s[pos + 1 :]
    return s


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.text(alphabet=st.sampled_from("ab"), min_size=1, max_size=40), periodic_with_defect()))
def test_bounded_period_matches_unbounded(s):
    assert_every_limit(s)


def test_bounded_period_exhaustive_small():
    for s in all_strings("ab", 12):
        assert_every_limit(s)
    for s in all_strings("abc", 8):
        assert_every_limit(s)


def test_bounded_period_adversarial():
    for k in range(120):
        assert_every_limit("a" * k + "b")
        assert_every_limit("b" + "a" * k)
    for word in ("ab", "aab", "abc", "abaab", "abcd"):
        for n in range(1, 70):
            row = (word * n)[:n]
            assert_every_limit(row[:-1] + "z")  # one defect at the end
            assert_every_limit("z" + row[1:])  # one defect at the start
    long = "a" * 19999 + "b"
    assert compute_period(long, 10000) == 0
    assert compute_period(long[:-1] + "a", 10000) == 1


def test_is_primitive_exhaustive_small():
    for s in all_strings("ab", 12):
        n = len(s)
        power = any(n % d == 0 and s == s[:d] * (n // d) for d in range(1, n))
        assert is_primitive(s) == (not power), s


def test_summarize_accepts_every_fraction_form():
    reg = NameRegistry()
    expected = summarize_row("abcabcabcabc", reg, Fraction(1, 4))
    for form in ("1/4", 0.25, Fraction(2, 8)):
        assert summarize_row("abcabcabcabc", reg, form) == expected


# ---------------------------------------------------------------------------
# least_rotation / is_lyndon


def test_least_rotation_examples():
    assert least_rotation("abba") == (3, "aabb")
    assert least_rotation("a") == (0, "a")
    assert least_rotation("cba") == (2, "acb")  # rotations: cba, bac, acb


def test_least_rotation_rejects_powers():
    for s in ("aa", "abab", "abcabcabc"):
        with pytest.raises(NotPrimitive):
            least_rotation(s)


def test_least_rotation_exhaustive_small():
    checked = 0
    for s in itertools.chain(all_strings("ab", 14), all_strings("abc", 9)):
        if not is_primitive(s):
            continue
        assert least_rotation(s) == brute_least_rotation(s), s
        checked += 1
    assert checked == 61837


ADVERSARIAL = (
    lambda k: "a" * k + "b",  # one run that grows past the run cap
    lambda k: "b" + "a" * k,
    lambda k: "ab" * k + "abb",  # k + 1 candidates
    lambda k: "aab" * k + "ab",
    lambda k: ("a" * 20 + "b") * k + "a" * 19 + "b",  # many runs longer than the run cap
    lambda k: "ba" + ("a" * 3 + "b") * k + "aab",
)


def test_least_rotation_adversarial():
    for family in ADVERSARIAL:
        for k in range(1, 301):
            s = family(k)
            if len(s) > 1200:
                break
            assert least_rotation(s) == brute_least_rotation(s), (k, s)


@settings(deadline=None, max_examples=300)
@given(st.text(alphabet=st.sampled_from("aab"), min_size=1, max_size=300))
def test_least_rotation_long_words_match_brute(s):
    if is_primitive(s):
        assert least_rotation(s) == brute_least_rotation(s)


def test_least_rotation_reaches_both_branches(monkeypatch):
    fallback = strings1d._two_pointer_start
    calls = []

    def counting(s):
        calls.append(s)
        return fallback(s)

    monkeypatch.setattr(strings1d, "_two_pointer_start", counting)
    # candidate branch: short runs of the smallest letter, one or several starts
    for s in ("cab", "abcabd", "aabab", "aabaab" * 2 + "aabb", "a" * 15 + "b", "ab" * 15 + "abb"):
        assert least_rotation(s) == brute_least_rotation(s), s
    assert calls == []
    # fallback branch: a run reaches the run cap, or too many candidates
    for s in ("a" * 16 + "b", "b" + "a" * 40, "ab" * 16 + "abb", "aab" * 50 + "ab"):
        calls.clear()
        assert least_rotation(s) == brute_least_rotation(s), s
        assert calls == [s]


@given(texts)
def test_least_rotation_matches_brute(s):
    if is_primitive(s):
        assert least_rotation(s) == brute_least_rotation(s)


@given(texts)
def test_least_rotation_yields_lyndon(s):
    if is_primitive(s):
        _, word = least_rotation(s)
        assert is_lyndon(word)


def test_is_lyndon_examples():
    assert is_lyndon("aabb")
    assert not is_lyndon("abba")
    assert not is_lyndon("aa")


def test_is_lyndon_exhaustive_small():
    for s in all_strings("ab", 9):
        assert is_lyndon(s) == brute_is_lyndon(s), s


# ---------------------------------------------------------------------------
# NameRegistry


def test_intern_idempotent_and_injective():
    reg = NameRegistry()
    a1 = reg.intern("aabb")
    a2 = reg.intern("aabb")
    b = reg.intern("abc")
    assert a1 == a2
    assert a1 != b
    assert reg.word(a1) == "aabb"
    assert reg.word(b) == "abc"
    assert len(reg) == 2
    assert reg.get("aabb") is not None and reg.get("zzz") is None


def test_intern_rejects_non_lyndon():
    reg = NameRegistry()
    with pytest.raises(NotLyndon):
        reg.intern("abba")
    with pytest.raises(NotLyndon):
        reg.intern("aa")


def test_get_never_interns():
    reg = NameRegistry()
    assert reg.get("aabb") is None
    assert len(reg) == 0
    i = reg.intern("aabb")
    assert reg.get("aabb") == i


# ---------------------------------------------------------------------------
# summarize_row


def test_summarize_worked_examples():
    reg = NameRegistry()
    r1 = summarize_row(T1, reg, Fraction(1, 2))
    r2 = summarize_row(T2, reg, Fraction(1, 2))
    assert (r1.period, r1.lwpos) == (4, 3)
    assert (r2.period, r2.lwpos) == (4, 0)
    assert r1.name == r2.name
    assert reg.word(r1.name) == "aabb"

    r3 = summarize_row("cabcabca", reg, Fraction(1, 2))
    assert (r3.period, r3.lwpos, reg.word(r3.name)) == (3, 1, "abc")


def test_summarize_rejects_large_period():
    reg = NameRegistry()
    with pytest.raises(NotSufficientlyPeriodic) as info:
        summarize_row("abcde", reg, Fraction(1, 2))
    assert info.value.period == 5
    # same row passes at 1/2 but fails at 1/4
    summarize_row("abcabcabc", reg, Fraction(1, 2))
    with pytest.raises(NotSufficientlyPeriodic) as info:
        summarize_row("abcabcabc", reg, Fraction(1, 4))
    assert info.value.period == 3


def test_summarize_fraction_validation():
    reg = NameRegistry()
    for bad in (0, Fraction(3, 4), 1, -1, "abc", "1/0", float("nan"), float("inf"), None):
        with pytest.raises(InvalidInput):
            summarize_row("abab", reg, bad)
    with pytest.raises(InvalidInput):
        summarize_row("", reg, Fraction(1, 2))


@settings(deadline=None)
@given(st.text(alphabet=st.sampled_from("abc"), min_size=1, max_size=6), st.integers(2, 5))
def test_summarize_first_occurrence(word, reps):
    s = word * reps
    reg = NameRegistry()
    summary = summarize_row(s, reg, Fraction(1, 2))
    lyndon = reg.word(summary.name)
    # the interned word occurs at lwpos and nowhere earlier
    assert s[summary.lwpos : summary.lwpos + summary.period] == lyndon
    assert s.find(lyndon) == summary.lwpos
    assert len(lyndon) == summary.period


def test_names_equal_iff_periods_conjugate():
    rng = random.Random(11)
    reg = NameRegistry()
    for _ in range(300):
        p = rng.randint(1, 5)
        u1 = "".join(rng.choice("abc") for _ in range(p))
        u2 = "".join(rng.choice("abc") for _ in range(p))
        if brute_period(u1) != len(u1) and len(u1) % brute_period(u1) == 0:
            continue
        if brute_period(u2) != len(u2) and len(u2) % brute_period(u2) == 0:
            continue
        s1 = summarize_row(u1 * 4, reg, Fraction(1, 2))
        s2 = summarize_row(u2 * 4, reg, Fraction(1, 2))
        assert (s1.name == s2.name) == (u2 in rotations(u1))


# ---------------------------------------------------------------------------
# summarize_row's class probe

# Same-length anagram classes share a class key, so a row of one walks past
# the other's word: aabab and aaabb (the class of aabba), abc and acb.
ANAGRAM_CLASSES = ["aabab", "aaabb", "abc", "acb"]
# NUL and ASCII letters, 2- and 4-byte UTF-8 letters and a lone surrogate
PROBE_LETTERS = "\x00abéж\U0001f600\ud800"
probe_words = st.text(alphabet=st.sampled_from(PROBE_LETTERS), min_size=1, max_size=7)


class ProbeFreeNaming:
    """Rows named by the definition: bounded period, rotation scan, first-sighting ids."""

    def __init__(self) -> None:
        self.words: list[str] = []
        self.ids: dict[str, int] = {}

    def intern(self, word: str) -> int:
        if word not in self.ids:
            self.ids[word] = len(self.words)
            self.words.append(word)
        return self.ids[word]

    def summarize(self, s: str, fraction: Fraction) -> tuple[int, int, int]:
        period = compute_period(s, fraction.numerator * len(s) // fraction.denominator)
        word = s[:period]
        lwpos = strings1d._least_rotation_start(word)
        return period, lwpos, self.intern(word[lwpos:] + word[:lwpos])


def test_anagram_classes_share_a_key():
    key = strings1d._class_key
    assert key("aabab") == key("aaabb") == key("aabba")
    assert key("abc") == key("acb")
    # NUL adds nothing to the letter sum, yet lengths never share a key, so
    # the interned "b", which occurs in the row, does not name it
    assert key("b") != key("\x00b")
    reg = NameRegistry()
    reg.intern("b")
    assert summarize_row("\x00b" * 3, reg, Fraction(1, 2)) == (2, 0, 1)
    assert reg.word(1) == "\x00b"
    # every rotation shares its word's key, and no two lengths share a key
    keys_by_length = {}
    for n in range(1, 8):
        keys = keys_by_length[n] = set()
        for letters in itertools.product("abc", repeat=n):
            word = "".join(letters)
            rotated = {key(word[j:] + word[:j]) for j in range(n)}
            assert rotated == {key(word)}
            keys |= rotated
    for a, b in itertools.combinations(keys_by_length.values(), 2):
        assert not a & b
    # long words whose byte sum wraps past the key's modulus, with
    # characters of two to four UTF-8 bytes and lone surrogates
    rng = random.Random(5)
    for n in (300, 301, 1000):
        word = "".join(rng.choice("ab\u00e9\u4e2d\U0001f600\ud800\udfff") for _ in range(n))
        assert sum(word.encode("utf-8", "surrogatepass")) > 65521
        assert {key(word[j:] + word[:j]) for j in range(n)} == {key(word)}


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_probe_names_rows_like_the_definition(data):
    fraction = data.draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]))
    reg = NameRegistry()
    reference = ProbeFreeNaming()
    seeds = ANAGRAM_CLASSES + data.draw(st.lists(probe_words, max_size=6))
    for word in seeds:
        if is_primitive(word):
            lyndon = brute_least_rotation(word)[1]
            assert reg.intern(lyndon) == reference.intern(lyndon)
    # rows of seeded classes, at every rotation, and rows of new words
    for _ in range(data.draw(st.integers(1, 10))):
        word = data.draw(st.sampled_from(seeds) | probe_words)
        phase = data.draw(st.integers(0, len(word) - 1))
        width = len(word) * fraction.denominator + data.draw(st.integers(0, 3))
        row = (word * (width // len(word) + 2))[phase : phase + width]
        assert summarize_row(row, reg, fraction) == reference.summarize(row, fraction)
    assert [reg.word(i) for i in range(len(reg))] == reference.words
    for name, word in enumerate(reference.words):
        assert reg.get(word) == name and reg.get(word) is not None


def test_probe_accepts_any_str_through_the_library_api():
    # a lone surrogate has no UTF-8 encoding; the class key passes it through
    reg = NameRegistry()
    surrogate = "\udc80\ud800"
    summary = summarize_row(surrogate * 4, reg, Fraction(1, 2))
    assert (summary.period, reg.word(summary.name)) == (2, "\ud800\udc80")
    assert summarize_row(surrogate[::-1] * 4, reg, Fraction(1, 2)) == (2, 0, summary.name)
    assert reg.get("\ud800") is None and reg.get("\udc80") is None
    cm = classify_matrix(["é\U0001f600" * 4, surrogate * 4], Fraction(1, 2), reg)
    assert [reg.word(i) for i in cm.key.names] == ["é\U0001f600", "\ud800\udc80"]
